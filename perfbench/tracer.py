"""Span recorder that times nextloc's layers from outside the package.

`Tracer.install` replaces public functions with timing wrappers at the names
the callers look them up by: `trainer.train_epoch` binds `forward`,
`batchify` and `total_loss` as module globals, `evaluate.predict` binds
`forward` and `batchify` the same way, and `model.forward` reaches
`run_gru`, `embed_step` and `ad.affine` through its own globals; `nextloc
prepare` calls `ingest` and `preprocess` functions as module attributes,
and the benchmark itself calls `make_instances` and the checkpoint
functions the same way. A span is
(name, start, end, parent index); spans stay in memory until `write`.
Counters are kept per root span name (the operation that caused them).
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from nextloc import autodiff, evaluate, ingest, model, params, preprocess, trainer


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.counts: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.pending_losses: list = []   # loss nodes whose tape is measured after the step

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def root(self) -> str | None:
        return self.spans[self._stack[0]][0] if self._stack else None

    def count(self, name: str, value: float) -> None:
        self.counts[(self.root(), name)].append(value)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace owner.attr; `name` is a span name or a function of the
        call's arguments, `after(result, *args)` records counters."""
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            rec = self.open(name if isinstance(name, str) else name(*args))
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(out, *args)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self, store: params.ParamStore) -> None:
        gru_label = {
            id(store[n]): n[len("gru."):-len(".w_x")] for n in store.names() if n.startswith("gru.") and n.endswith(".w_x")
        }
        self.wrap(trainer, "batchify", "trainer.batchify")
        self.wrap(trainer, "forward", "model.forward", after=self._forward_counts)
        self.wrap(trainer, "total_loss", "objective.loss")
        self.wrap(autodiff, "backward", "autodiff.backward", after=lambda _o, loss: self.pending_losses.append(loss))
        self.wrap(params.ParamStore, "clip_global_norm", "params.clip", after=self._clip_counts)
        self.wrap(params.ParamStore, "adam_step", "params.adam")
        self.wrap(model, "embed_step", "model.embed")
        self.wrap(model, "run_gru", lambda w, *_: f"model.gru.{gru_label[id(w.w_x)]}.fwd")
        self.wrap(autodiff, "affine", "model.heads")
        self.wrap(evaluate, "predict", "evaluate.predict")
        self.wrap(evaluate, "batchify", "evaluate.batchify")
        self.wrap(evaluate, "forward", "evaluate.forward")
        self.wrap(evaluate, "rank_locations", "evaluate.rank")
        self.wrap(evaluate, "recall_at_n", "evaluate.recall")
        self.wrap(ingest, "parse_foursquare", "ingest.parse", after=self._parse_counts)
        self.wrap(ingest, "write_canonical", "ingest.write_canonical")
        self.wrap(preprocess, "filter_and_merge", "preprocess.filter_merge")
        self.wrap(preprocess, "build_sessions", "preprocess.sessionize")
        self.wrap(preprocess, "save_processed", "preprocess.save")
        self.wrap(preprocess, "save_vocab", "preprocess.save")
        self.wrap(preprocess, "load_vocab", "preprocess.load")
        self.wrap(preprocess, "load_processed", "preprocess.load")
        self.wrap(trainer, "make_instances", "trainer.make_instances")
        self.wrap(params, "save_checkpoint", "params.save_ckpt")
        self.wrap(params, "load_checkpoint", "params.load_ckpt")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- counters ----------------------------------------------------------

    def _forward_counts(self, _state, store, _cfg, batch) -> None:
        """Forward GRU GEMM work of one batch: padded over the batch's
        (rows, steps) rectangle, and useful over the real steps only."""
        b, th = batch.hist_mask.shape
        tp = batch.pref_mask.shape[1]
        real_h, real_p = float(batch.hist_mask.sum()), float(batch.pref_mask.sum())
        padded = useful = 0.0
        for n in store.names():
            if n.startswith("gru.") and n.endswith(".w_x"):
                flop_per_row = 2.0 * (store[n].value.size + store[n[:-4] + ".w_h"].value.size)
                long_chain = ".long." in n
                padded += flop_per_row * b * (th if long_chain else tp)
                useful += flop_per_row * (real_h if long_chain else real_p)
        self.count("model.gru_gflop_padded", padded / 1e9)
        self.count("model.gru_gflop_useful", useful / 1e9)
        self.count("trainer.step_fill", (real_h + real_p) / (b * (th + tp)))

    def _clip_counts(self, norm, _store, max_norm) -> None:
        self.count("params.grad_norm", norm)
        self.count("params.clipped", float(norm > max_norm))

    def _parse_counts(self, rs, _path) -> None:
        self.count("ingest.lines", len(rs.records) + len(rs.rejects))
        self.count("ingest.rejects", len(rs.rejects))

    def measure_pending_tapes(self) -> None:
        """Exact tape size of each loss graph recorded since the last call:
        the operation nodes reachable through `.parents` and the MiB of
        their values. Runs outside the step's span."""
        for loss in self.pending_losses:
            seen, stack, nodes, nbytes = {id(loss)}, [loss], 0, 0
            while stack:
                node = stack.pop()
                if node._backward is not None:
                    nodes += 1
                    nbytes += node.value.nbytes
                for p in node.parents:
                    if id(p) not in seen:
                        seen.add(id(p))
                        stack.append(p)
            self.counts[("trainer.step", "autodiff.tape_nodes")].append(nodes)
            self.counts[("trainer.step", "autodiff.tape_mb")].append(nbytes / 2**20)
        self.pending_losses.clear()

    # -- results -----------------------------------------------------------

    def self_times(self, root: str) -> tuple[int, dict[str, float], dict[str, float]]:
        """(number of `root` spans, total self time per span name, total
        inclusive time per span name) over the spans below `root` spans."""
        child_time = [0.0] * len(self.spans)
        root_of = [-1] * len(self.spans)
        for i, (_name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                root_of[i] = root_of[parent] if root_of[parent] >= 0 else parent
        n_roots = 0
        selfs: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            r = i if root_of[i] < 0 else root_of[i]
            if self.spans[r][0] != root:
                continue
            n_roots += r == i
            selfs[name] += end - start - child_time[i]
            incl[name] += end - start
        return n_roots, dict(selfs), dict(incl)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
