"""The benchmark's tracer (`perfbench/tracer.py`) times nextloc's layers by
replacing functions at the names their callers look them up by. Installed
around a synthetic `slsl` `predict` and one training step, it must find
every name it wraps, and the traced `predict` must show each branch's long
GRU, which runs there once per shared history run.
(perfbench's own tests run no traced `predict`.)"""

import sys
from pathlib import Path

import numpy as np

from nextloc import evaluate, trainer
from nextloc.model import ModelConfig, build_params
from nextloc.objective import LossWeights
from nextloc.synth import weekly_schedule_corpus
from nextloc.trainer import TrainHyper, make_instances

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench")]
try:
    from tracer import Tracer
finally:
    del sys.path[:1]

GRU_SPANS = {f"model.gru.{b}.{part}.fwd" for b in ("time", "cat", "loc") for part in ("long", "short")}


def test_traced_predict_and_step_show_every_layer():
    vocab, users = weekly_schedule_corpus(n_users=4, n_weeks=6, slots_per_week=3)
    cfg = ModelConfig(n_users=vocab.n_users, n_locs=vocab.n_locs, n_cats=vocab.n_cats, variant="slsl",
                      d_loc=6, d_cat=4, d_hour=3, d_day=3, d_user=3, hidden=8)
    store = build_params(cfg, seed=0)
    test, train = make_instances(users, "test"), make_instances(users, "train")[:16]
    hyper = TrainHyper(learning_rate=1e-3, batch_size=16, epochs=1)
    tracer = Tracer()
    tracer.install(store)  # looks up every name it wraps
    patches = list(tracer._patches)
    try:
        assert patches and all(getattr(owner, attr) is not orig for owner, attr, orig in patches)
        for root, work in (
            ("eval", lambda: evaluate.predict(store, cfg, test, vocab=vocab)),
            ("trainer.step", lambda: trainer.train_epoch(store, cfg, train, LossWeights(), hyper, vocab,
                                                         np.random.default_rng(0))),
        ):
            rec = tracer.open(root)
            try:
                work()
            finally:
                tracer.close(rec)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patches)

    n, selfs, _ = tracer.self_times("eval")
    assert n == 1
    assert {"evaluate.predict", "evaluate.batchify", "evaluate.forward", "evaluate.rank", "model.embed"} <= set(selfs)
    assert GRU_SPANS <= set(selfs)  # the long chains of every history run, and the short chains
    n, selfs, _ = tracer.self_times("trainer.step")
    assert n == 1
    assert {"trainer.batchify", "model.forward", "model.embed", "model.heads", "objective.loss",
            "autodiff.backward", "params.clip", "params.adam"} | GRU_SPANS <= set(selfs)
