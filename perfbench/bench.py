"""One benchmark run: set up a workload from its seed, time its operations
in a closed loop (the next operation starts when the previous one returns),
check every output, and gather the metrics.

Operations and what each checks:

* setup     write the raw file, `nextloc prepare` it, reload, build the
            parameters, one warm-up step on the four shortest instances
* step      `trainer.train_epoch` on one fixed 32-instance batch; the loss
            is finite, and a step repeated in a later round reproduces the
            first round's losses bit for bit
* eval      `evaluate.predict` plus recall@1/5/10 on a fixed test sample;
            one row per instance, recalls in [0, 1] and non-decreasing
* checkpoint  save + load of the trained store; values, Adam moments and
            the step counter come back exactly
* reload    load_vocab + load_processed + make_instances; same counts
* prepare   `nextloc prepare` on the raw file; the same stats every time

`MemoryError`, `TrainingDiverged` and failed checks count as a failed
operation, not a crash.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import nycgen
from make_fixture import fmt_time
from nextloc import cli, evaluate, params, preprocess, trainer
from nextloc.model import ModelConfig, build_params
from nextloc.objective import LossWeights
from nextloc.synth import weekly_schedule_corpus
from nextloc.trainer import TrainHyper, TrainingDiverged
from spec import Workload
from tracer import Tracer

BATCH = 32
TOPN = 10

class CheckFailed(Exception):
    pass


def synth_lines() -> list[str]:
    """The criterion-4 corpus (50 users x 12 weeks) as raw foursquare lines;
    `nextloc prepare` turns them back into the same users and records."""
    vocab, users = weekly_schedule_corpus(n_users=50, n_weeks=12, n_locs=20, n_cats=6, slots_per_week=5)
    lines = []
    for u in users:
        for s in u.sessions:
            for r in s.records:
                lat, lon = vocab.loc_coord[r.loc]
                lines.append(
                    f"{vocab.user_key[u.user_index]}\t{vocab.loc_key[r.loc]}\t{r.cat}\t{vocab.cat_name[r.cat]}"
                    f"\t{lat!r}\t{lon!r}\t0\t{fmt_time(r.utc)}"
                )
    return lines


def stratified(lengths: np.ndarray, k: int, cap: float, rng: np.random.Generator) -> list[int]:
    """k instance indices, one from each of k equal strata of the instances
    sorted by history length, among those at or below the `cap` quantile;
    the top stratum always gives its longest instance. Every sample so drawn
    has the same spread of lengths and is padded to the same length, so a
    batch's cost barely changes from seed to seed."""
    pool = np.flatnonzero(lengths <= np.quantile(lengths, cap))
    pool = pool[np.argsort(lengths[pool], kind="stable")]
    edges = np.linspace(0, len(pool), k + 1).astype(int)
    picks = [int(pool[rng.integers(edges[j], max(edges[j + 1], edges[j] + 1))]) for j in range(k - 1)]
    return picks + [int(pool[-1])]


def history_counts(instances) -> tuple[int, float]:
    """(history steps over all instances, share of them that are distinct
    (user, session) histories). make_instances gives every instance of one
    session the same history list, so list identity marks the session."""
    total = sum(len(i.history) for i in instances)
    unique = sum(len(h) for h in {id(i.history): i.history for i in instances}.values())
    return total, unique / total if total else 0.0


class Run:
    def __init__(self, wl: Workload, seed: int, seconds: float, work: Path):
        self.wl, self.seed, self.seconds, self.work = wl, seed, seconds, work
        self.attempted: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.times: dict[str, list[float]] = defaultdict(list)
        self.problems: list[str] = []
        self.raw = work / "raw.txt"
        self.out = work / "out"
        self.cfg_path = work / "run.cfg"
        self.weights = LossWeights()
        self.hyper = TrainHyper(learning_rate=wl.learning_rate, batch_size=BATCH)
        self.prepare_stats: list[str] | None = None
        self.reload_counts: tuple | None = None
        self.step_losses: dict[int, tuple] = {}   # losses of the first round, by position in the round
        self.steps_run = 0
        self.trace_lines: list[str] = []

    # -- operations ----------------------------------------------------------

    def op(self, kind: str, work, check=None):
        """Run and time one operation; returns its result, or None when it
        failed."""
        self.attempted[kind] += 1
        try:
            t0 = perf_counter()
            result = work()
            dt = perf_counter() - t0
            if check is not None:
                check(result)
        except (MemoryError, TrainingDiverged, CheckFailed) as e:
            self.failed[kind] += 1
            self.problems.append(f"{kind}: {type(e).__name__}: {e}")
            result = None
        else:
            self.times[kind].append(dt)
        return result

    def _prepare(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["prepare", "--config", str(self.cfg_path)])

    def _check_prepare(self, rc) -> None:
        if rc != 0:
            raise CheckFailed(f"nextloc prepare exited {rc}")
        # the header line carries the config hash, which covers the paths
        stats = [line for line in (self.out / "stats.txt").read_text(encoding="utf-8").splitlines()
                 if not line.startswith("#")]
        if self.prepare_stats is None:
            self.prepare_stats = stats
        elif stats != self.prepare_stats:
            raise CheckFailed("prepare stats differ between runs of the same file")

    def _reload(self):
        vocab = preprocess.load_vocab(self.out / "vocab.txt")
        users = preprocess.load_processed(self.out / "processed.txt", vocab)
        return vocab, users, trainer.make_instances(users, "train"), trainer.make_instances(users, "test")

    def _check_reload(self, loaded) -> None:
        vocab, users, train, test = loaded
        counts = (vocab.n_users, vocab.n_locs, vocab.n_cats, len(users), len(train), len(test))
        if self.reload_counts is None:
            self.reload_counts = counts
        elif counts != self.reload_counts:
            raise CheckFailed(f"reload counts {counts} differ from {self.reload_counts}")

    def _step(self, batch: list, j: int):
        """One training step on `batch`, the j-th of its round; the in-batch
        shuffle depends on (seed, j) only, so every round repeats exactly."""
        return trainer.train_epoch(
            self.store, self.cfg, batch, self.weights, self.hyper, self.vocab, np.random.default_rng([self.seed, j])
        )

    def _check_step(self, k: int):
        def check(bd) -> None:
            row = (bd.loc, bd.time, bd.cat, bd.spatial, bd.total)
            if not all(np.isfinite(row)):
                raise CheckFailed(f"step {k}: non-finite loss {row}")
            j = k % self.wl.round_steps
            if j not in self.step_losses:
                self.step_losses[j] = row
            elif row != self.step_losses[j]:
                raise CheckFailed(f"step {k}: losses {row} differ from the first round's {self.step_losses[j]}")

        return check

    def _eval(self):
        preds = evaluate.predict(self.store, self.cfg, self.eval_sample, vocab=self.vocab, topn=TOPN)
        recall = [evaluate.recall_at_n(preds.user, preds.loc_ranked, preds.target_loc, n)[0] for n in (1, 5, 10)]
        return preds, recall

    def _check_eval(self, result) -> None:
        preds, recall = result
        n = len(self.eval_sample)
        if preds.loc_ranked.shape != (n, TOPN) or len(preds.user) != n:
            raise CheckFailed(f"predict returned {preds.loc_ranked.shape} rows for {n} instances")
        if not (0.0 <= recall[0] <= recall[1] <= recall[2] <= 1.0):
            raise CheckFailed(f"recall@1/5/10 {recall} not ordered within [0, 1]")

    def _checkpoint(self):
        params.save_checkpoint(self.work / "store.ckpt", self.store, {"seed": self.seed})
        return params.load_checkpoint(self.work / "store.ckpt")[0]

    def _check_checkpoint(self, got) -> None:
        want = self.store
        if got.names() != want.names() or got.step != want.step or got.seed != want.seed:
            raise CheckFailed("checkpoint header does not round-trip")
        for n in want.names():
            a, b = want.entries[n], got.entries[n]
            if not (np.array_equal(a.tensor.value, b.tensor.value) and np.array_equal(a.m, b.m)
                    and np.array_equal(a.v, b.v)):
                raise CheckFailed(f"checkpoint tensor {n} does not round-trip exactly")

    # -- setup ----------------------------------------------------------------

    def _setup(self) -> None:
        wl = self.wl
        if wl.corpus == "synth":
            lines = synth_lines()
            self.raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.n_lines = len(lines)
        else:
            kw = {} if wl.corpus_users is None else {"n_users": wl.corpus_users}
            self.n_lines = nycgen.write_file(self.raw, self.seed, **kw)
        self.cfg_path.write_text(
            f"dataset_path = {self.raw}\ndataset_format = foursquare\noutput_dir = {self.out}\nseed = {self.seed}\n",
            encoding="utf-8",
        )
        if self.op("prepare", self._prepare, self._check_prepare) is None:
            raise CheckFailed("prepare failed during setup")
        loaded = self.op("reload", self._reload, self._check_reload)
        if loaded is None:
            raise CheckFailed("reload failed during setup")
        self.vocab, self.users, self.train, self.test = loaded
        self._check_shape()
        self.cfg = ModelConfig(
            n_users=self.vocab.n_users, n_locs=self.vocab.n_locs, n_cats=self.vocab.n_cats,
            variant="cslsl", hidden=wl.hidden, **wl.dims,
        )
        self.store = build_params(self.cfg, self.seed)
        rng = np.random.default_rng([self.seed, 1])
        train_len = np.array([len(i.history) for i in self.train])
        self.batches = [
            [self.train[i] for i in stratified(train_len, BATCH, wl.history_cap, rng)] for _ in range(wl.round_steps)
        ]
        test_len = np.array([len(i.history) for i in self.test])
        self.eval_sample = [self.test[i] for i in stratified(test_len, wl.eval_size, wl.history_cap, rng)]
        warm = [self.train[i] for i in np.argsort(train_len, kind="stable")[:4]]
        self._step(warm, 0)

    def _check_shape(self) -> None:
        """The prepared shape is in its stated range; a shrunken NYC file
        (`corpus_users` set) has no stated range."""
        if self.wl.corpus == "synth":
            if (len(self.train), len(self.test)) != (2000, 400):
                raise CheckFailed(f"synthetic corpus gave {len(self.train)}/{len(self.test)} instances, not 2000/400")
        elif self.wl.corpus_users is None:
            nycgen.check_shape(nycgen.shape_of(self.users, self.train, self.test))

    def setup(self) -> None:
        self.op("setup", self._setup)
        if self.failed["setup"]:
            raise RuntimeError("setup failed: " + "; ".join(self.problems))
        self.snapshot = self.state()

    def state(self) -> tuple:
        """A copy of the store's values, Adam moments and step counter."""
        return [(e.tensor.value.copy(), e.m.copy(), e.v.copy()) for e in self.store.entries.values()], self.store.step

    def restore(self, state: tuple | None = None) -> None:
        """Put back `state`, by default the round's starting state."""
        arrays, step = self.snapshot if state is None else state
        for e, (value, m, v) in zip(self.store.entries.values(), arrays):
            e.tensor.value[...] = value
            e.m[...] = m
            e.v[...] = v
        self.store.step = step

    # -- timed phases -----------------------------------------------------------

    def run_loop(self) -> None:
        """Cycle through the workload's schedule until the run's seconds are
        spent, the first training round is complete and every operation has
        run at least once. Interleaving spreads each metric's samples over
        the whole run, so a slow spell of a shared machine weighs on all of
        them alike."""
        ops = {
            "setup": lambda: self.op("setup", self._setup_again),
            "step": self.train_once,
            "eval": lambda: self.op("eval", self._eval, self._check_eval),
            "checkpoint": lambda: self.op("checkpoint", self._checkpoint, self._check_checkpoint),
        }
        start = perf_counter()
        timed = {kind: 0 for kind, _ in self.wl.schedule}
        while True:
            for kind, count in self.wl.schedule:
                for _ in range(count):
                    # stop before an operation that would, at its mean so far, end past the deadline
                    expected = statistics.mean(self.times[kind]) if self.times[kind] else 0.0
                    if (perf_counter() - start + expected >= self.seconds and min(timed.values()) > 0
                            and timed["step"] >= self.wl.round_steps):
                        return
                    ops[kind]()
                    timed[kind] += 1

    def _setup_again(self) -> None:
        """A further set-up into a throwaway run, so the live store and
        samples stay as they are. Its prepare and reload count as
        operations of this run and are checked against this run's."""
        other = Run(self.wl, self.seed, self.seconds, self.work / "again")
        other.work.mkdir(exist_ok=True)
        other.prepare_stats, other.reload_counts = self.prepare_stats, self.reload_counts
        try:
            other._setup()
        finally:
            for kind in other.attempted:
                self.attempted[kind] += other.attempted[kind]
                self.failed[kind] += other.failed[kind]
                self.times[kind] += other.times[kind]
            self.problems += other.problems

    def train_once(self) -> None:
        k = self.steps_run
        self.steps_run += 1
        if k and k % self.wl.round_steps == 0:
            self.restore()
        batch = self.batches[k % self.wl.round_steps]
        self.op("step", lambda: self._step(batch, k % self.wl.round_steps), self._check_step(k))

    # -- results ----------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics, then the report-only ones (see spec.py)."""
        t = self.times
        losses = [row[4] for _j, row in sorted(self.step_losses.items())]
        sizes = [len(self.batches[j]) for j in sorted(self.step_losses)]
        return {
            "setup_s": statistics.median(t["setup"]),
            "train_instances_per_s": BATCH / statistics.median(t["step"]),
            "train_step_ms_p50": 1000 * statistics.median(t["step"]),
            "eval_instances_per_s": len(self.eval_sample) / statistics.median(t["eval"]),
            "checkpoint_s": statistics.median(t["checkpoint"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "train_loss_mean": float(np.dot(losses, sizes) / sum(sizes)),
            "prepare_records_per_s": self.n_lines / statistics.median(t["prepare"]),
            "reload_s": statistics.median(t["reload"]),
        }

    def report_lines(self) -> list[str]:
        """Human-readable report: operation counts, step-time percentiles
        with their sample count, failures and the trace reconciliation."""
        lines = [f"ops {k}: attempted={self.attempted[k]} failed={self.failed[k]}" for k in sorted(self.attempted)]
        ms = sorted(1000 * x for x in self.times["step"])
        line = f"train step: n={len(ms)} p50={statistics.median(ms):.2f} ms"
        if len(ms) >= 100:
            line += f" p90={statistics.quantiles(ms, n=10)[-1]:.2f} ms"
        else:
            line += " (p90 needs >= 100 steps)"
        lines.append(line)
        lines += self.trace_lines
        lines += [f"FAILED {p}" for p in self.problems]
        return lines

    def traced(self) -> tuple[dict[str, float], Tracer]:
        """Replay the first round's steps and one of every other operation
        under the tracer; returns the per-layer metrics. Each replayed step
        runs twice from the same state, untraced and traced back to back
        (in alternating order), so the tracing overhead compares times taken
        moments apart."""
        self.restore()
        tracer = Tracer()
        paired = {False: 0.0, True: 0.0}   # step seconds, untraced and traced
        try:
            for k in range(min(self.wl.round_steps, len(self.times["step"]))):
                batch = self.batches[k]

                def step(batch=batch, k=k):
                    rec = tracer.open("trainer.step")
                    try:
                        return self._step(batch, k)
                    finally:
                        tracer.close(rec)

                before = self.state()
                for i, traced in enumerate((False, True) if k % 2 == 0 else (True, False)):
                    if i:
                        self.restore(before)
                    if traced:
                        tracer.install(self.store)
                    n_times = len(self.times["step"])
                    try:
                        self.op("step", step if traced else (lambda batch=batch, k=k: self._step(batch, k)),
                                self._check_step(k))
                    finally:
                        tracer.uninstall()
                    paired[traced] += sum(self.times["step"][n_times:])
                    # frees the traced loss graph before the other step of the pair runs
                    tracer.measure_pending_tapes()
            tracer.install(self.store)
            for kind, work, check in (
                ("eval", self._eval, self._check_eval),
                ("checkpoint", self._checkpoint, self._check_checkpoint),
                ("reload", self._reload, self._check_reload),
                ("prepare", self._prepare, self._check_prepare),
            ):
                def traced_work(kind=kind, work=work):
                    rec = tracer.open(kind)
                    try:
                        return work()
                    finally:
                        tracer.close(rec)

                self.op(kind, traced_work, check)
        finally:
            tracer.uninstall()
        n, selfs, incl = tracer.self_times("trainer.step")
        self.trace_lines.append(
            f"trace: {n} replayed steps; step spans {incl.get('trainer.step', 0.0):.6f} s = layer self times "
            f"{sum(v for k, v in selfs.items() if k != 'trainer.step'):.6f} s + unattributed "
            f"{selfs.get('trainer.step', 0.0):.6f} s; paired steps untraced {paired[False]:.6f} s, "
            f"traced {paired[True]:.6f} s"
        )
        metrics = layer_metrics(tracer)
        total, share = history_counts(self.train + self.test)
        metrics["trainer.history_steps"] = total
        metrics["trainer.history_unique_share"] = share
        metrics["params.ckpt_mb"] = (self.work / "store.ckpt").stat().st_size / 2**20
        metrics["bench.trace_overhead_pct"] = 100.0 * (paired[True] / paired[False] - 1.0)
        return metrics, tracer


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans: self time per operation, except the
    eval rows, which are inclusive, and the counters, averaged per call."""
    out: dict[str, float] = {}
    n, selfs, _ = tracer.self_times("trainer.step")
    for name in (
        "trainer.batchify", "model.forward", "model.embed", "model.heads", "objective.loss",
        "autodiff.backward", "params.clip", "params.adam",
    ):
        out[f"{name}_s"] = selfs.get(name, 0.0) / n
    for name in selfs:
        if name.startswith("model.gru."):
            out[f"{name}_s"] = selfs[name] / n
    out["bench.unattributed_s"] = selfs.get("trainer.step", 0.0) / n
    c = tracer.counts
    for name in ("autodiff.tape_nodes", "autodiff.tape_mb", "model.gru_gflop_padded", "model.gru_gflop_useful",
                 "trainer.step_fill"):
        out[name] = _mean(c[("trainer.step", name)])
    out["params.grad_norm_mean"] = _mean(c[("trainer.step", "params.grad_norm")])
    out["params.clip_rate"] = _mean(c[("trainer.step", "params.clipped")])

    n, selfs, incl = tracer.self_times("eval")
    for name in ("evaluate.predict", "evaluate.forward", "evaluate.rank", "evaluate.recall"):
        out[f"{name}_s"] = incl.get(name, 0.0) / n
    n, selfs, _ = tracer.self_times("checkpoint")
    out["params.save_ckpt_s"] = selfs.get("params.save_ckpt", 0.0) / n
    out["params.load_ckpt_s"] = selfs.get("params.load_ckpt", 0.0) / n
    n, selfs, _ = tracer.self_times("reload")
    out["trainer.make_instances_s"] = selfs.get("trainer.make_instances", 0.0) / n
    out["preprocess.load_s"] = selfs.get("preprocess.load", 0.0) / n
    n, selfs, _ = tracer.self_times("prepare")
    for name in ("ingest.parse", "ingest.write_canonical", "preprocess.filter_merge", "preprocess.sessionize",
                 "preprocess.save"):
        out[f"{name}_s"] = selfs.get(name, 0.0) / n
    out["ingest.lines"] = _mean(c[("prepare", "ingest.lines")])
    out["ingest.rejects"] = _mean(c[("prepare", "ingest.rejects")])
    return out
