import weakref

import numpy as np
import pytest

from nextloc import trainer
from nextloc.model import ModelConfig, build_params, forward
from nextloc.objective import LossWeights
from nextloc.params import load_checkpoint, save_checkpoint
from nextloc.preprocess import Session, SessionizedUser, SessRecord
from nextloc.synth import weekly_schedule_corpus
from nextloc.trainer import (
    TrainHyper,
    TrainingDiverged,
    batchify,
    fit,
    make_instances,
    train_epoch,
)


def rec(loc, cat=0, hour=9, dow=0, week=0):
    utc = 1672617600 + week * 604800 + dow * 86400 + hour * 3600
    return SessRecord(loc, cat, hour, dow, (dow * 24 + hour) / 168.0, utc, 0)


def user_with_session_lengths(lengths, split_point=None):
    sessions = [
        Session(202301 + w, [rec(loc=i % 3, hour=(8 + i) % 24, week=w) for i in range(n)])
        for w, n in enumerate(lengths)
    ]
    u = SessionizedUser(0, sessions)
    u.split_point = len(sessions) if split_point is None else split_point
    return u


def small_config(vocab, variant="cslsl", hidden=8):
    return ModelConfig(
        n_users=vocab.n_users, n_locs=vocab.n_locs, n_cats=vocab.n_cats,
        variant=variant, d_loc=6, d_cat=4, d_hour=3, d_day=3, d_user=3, hidden=hidden,
    )


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------

def test_instance_count_for_session_lengths():
    u = user_with_session_lengths([3, 2])
    instances = make_instances([u], "train")
    assert len(instances) == (3 - 1) + (2 - 1) == 3


def test_first_session_instances_have_empty_history():
    u = user_with_session_lengths([3, 2])
    instances = make_instances([u], "train")
    assert instances[0].history == [] and instances[1].history == []
    assert len(instances[2].history) == 3  # second session sees the whole first


def test_test_split_history_spans_all_earlier_sessions():
    u = user_with_session_lengths([3, 2, 2], split_point=2)
    test = make_instances([u], "test")
    assert len(test) == 1
    assert len(test[0].history) == 5  # both train sessions, chronologically
    assert [r.loc for r in test[0].history] == [0, 1, 2, 0, 1]


def test_instance_count_matches_enumeration_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        lengths = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 6)))]
        sp = int(rng.integers(0, len(lengths) + 1))
        u = user_with_session_lengths(lengths, split_point=sp)
        want_train = sum(n - 1 for n in lengths[:sp])
        want_test = sum(n - 1 for n in lengths[sp:])
        assert len(make_instances([u], "train")) == want_train
        assert len(make_instances([u], "test")) == want_test


def test_targets_are_the_next_record():
    u = user_with_session_lengths([3])
    inst = make_instances([u], "train")[0]
    assert len(inst.prefix) == 1
    assert inst.target_loc == u.sessions[0].records[1].loc
    assert inst.target_t == u.sessions[0].records[1].tow


# ---------------------------------------------------------------------------
# training mechanics
# ---------------------------------------------------------------------------

def corpus():
    return weekly_schedule_corpus(n_users=4, n_weeks=6, slots_per_week=3)


def test_single_batch_means_one_adam_step():
    vocab, users = corpus()
    cfg = small_config(vocab)
    store = build_params(cfg, seed=0)
    instances = make_instances(users, "train")
    hyper = TrainHyper(learning_rate=1e-3, batch_size=10_000, epochs=1)
    train_epoch(store, cfg, instances, LossWeights(), hyper, vocab, np.random.default_rng(0))
    assert store.step == 1


def test_each_step_graph_is_freed_before_the_next_forward(monkeypatch):
    vocab, users = corpus()
    cfg = small_config(vocab)
    store = build_params(cfg, seed=0)
    instances = make_instances(users, "train")
    real_loss = trainer.total_loss
    previous = []  # weak references to the last step's forward state and loss value
    live_at_forward = []

    def tracked_forward(*args):
        state = forward(*args)
        live_at_forward.append([ref() is not None for ref in previous])
        return state

    def tracked_loss(state, *args):
        node, bd = real_loss(state, *args)
        previous[:] = [weakref.ref(state), weakref.ref(node.value)]
        return node, bd

    monkeypatch.setattr(trainer, "forward", tracked_forward)
    monkeypatch.setattr(trainer, "total_loss", tracked_loss)
    hyper = TrainHyper(learning_rate=1e-3, batch_size=4, epochs=1)
    train_epoch(store, cfg, instances, LossWeights(), hyper, vocab, np.random.default_rng(0))
    assert len(live_at_forward) >= 3
    assert live_at_forward == [[]] + [[False, False]] * (len(live_at_forward) - 1)


def test_same_seed_identical_loss_traces():
    vocab, users = corpus()
    cfg = small_config(vocab)
    instances = make_instances(users, "train")
    hyper = TrainHyper(learning_rate=1e-3, batch_size=8, epochs=1)

    def run():
        store = build_params(cfg, seed=5)
        trace = []
        for epoch in range(3):
            bd = train_epoch(store, cfg, instances, LossWeights(), hyper, vocab,
                             np.random.default_rng([5, epoch]))
            trace.append((bd.loc, bd.time, bd.cat, bd.spatial, bd.total))
        return trace, store

    t1, s1 = run()
    t2, s2 = run()
    assert t1 == t2
    for name in s1.names():
        assert np.array_equal(s1[name].value, s2[name].value)


def test_overfit_single_instance():
    vocab, users = corpus()
    cfg = small_config(vocab, hidden=12)
    store = build_params(cfg, seed=1)
    inst = [make_instances(users, "train")[0]]
    hyper = TrainHyper(learning_rate=5e-3, batch_size=1, epochs=1)
    w = LossWeights(0.0, 0.0, 0.0)
    losses = []
    for epoch in range(200):
        bd = train_epoch(store, cfg, inst, w, hyper, vocab, np.random.default_rng([1, epoch]))
        losses.append(bd.loc)
    assert losses[-1] < 0.05
    # monotone decrease after warm-up
    tail = losses[50:]
    assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))
    batch = batchify(inst)
    state = forward(store, cfg, batch)
    assert int(state.loc_logits.value.argmax()) == inst[0].target_loc


def test_no_test_target_leakage():
    vocab, users = corpus()
    cfg = small_config(vocab)
    store = build_params(cfg, seed=2)
    test = make_instances(users, "test")
    inst = test[0]
    batch = batchify([inst])
    before = forward(store, cfg, batch).loc_logits.value.copy()
    # corrupt every record at/after the target position in the source session;
    # the instance snapshot must be unaffected
    u = users[inst.user_index]
    s = u.sessions[u.split_point]
    for i in range(len(inst.prefix), len(s.records)):
        s.records[i] = rec(loc=(s.records[i].loc + 1) % vocab.n_locs, week=90)
    after = forward(store, cfg, batchify([inst])).loc_logits.value
    assert np.array_equal(before, after)


def test_divergence_aborts_with_diagnostics():
    vocab, users = corpus()
    cfg = small_config(vocab)
    store = build_params(cfg, seed=0)
    store["pred.loc.w"].value[...] = np.nan
    instances = make_instances(users, "train")[:4]
    with pytest.raises(TrainingDiverged) as err:
        train_epoch(store, cfg, instances, LossWeights(), TrainHyper(batch_size=4), vocab,
                    np.random.default_rng(0))
    assert "batch" in str(err.value)


# ---------------------------------------------------------------------------
# fit / checkpointing
# ---------------------------------------------------------------------------

def test_fit_patience_zero_stops_at_first_plateau():
    vocab, users = corpus()
    cfg = small_config(vocab)
    hyper = TrainHyper(learning_rate=1e-3, batch_size=16, epochs=6, patience=0)
    result = fit(users, vocab, cfg, LossWeights(), hyper, seed=0)
    epochs_run = len(result.history)
    recalls = [row.recall[1] for row in result.history]
    if epochs_run < 6:
        # stopped exactly one epoch after the first non-improvement
        assert recalls[epochs_run - 1] <= max(recalls[: epochs_run - 1])


def test_fit_returns_best_epoch_params():
    vocab, users = corpus()
    cfg = small_config(vocab)
    hyper = TrainHyper(learning_rate=2e-3, batch_size=16, epochs=4, patience=10)
    result = fit(users, vocab, cfg, LossWeights(), hyper, seed=3)
    best = max(row.recall[1] for row in result.history)
    assert result.best_recall == best
    assert result.history[result.best_epoch].recall[1] == best


def test_best_epoch_clone_copies_values_and_moments_without_gradient_buffers():
    vocab, users = corpus()
    cfg = small_config(vocab)
    store = build_params(cfg, seed=7)
    train_epoch(store, cfg, make_instances(users, "train")[:16], LossWeights(), TrainHyper(batch_size=16), vocab,
                np.random.default_rng(0))
    clone = trainer._clone(store)
    assert clone.names() == store.names() and clone.step == store.step == 1
    for n in store.names():
        a, b = store.entries[n], clone.entries[n]
        assert b.tensor.grad is None and b.tensor.requires_grad
        for x, y in ((a.tensor.value, b.tensor.value), (a.m, b.m), (a.v, b.v)):
            assert np.array_equal(x, y) and not np.shares_memory(x, y)


def test_checkpoint_resume_reproduces_trace(tmp_path):
    vocab, users = corpus()
    cfg = small_config(vocab)
    hyper = TrainHyper(learning_rate=1e-3, batch_size=16, epochs=4, patience=10)
    full = fit(users, vocab, cfg, LossWeights(), hyper, seed=7)

    # run the first two epochs, checkpoint the live parameters, then resume
    store = build_params(cfg, seed=7)
    instances = make_instances(users, "train")
    for epoch in range(2):
        train_epoch(store, cfg, instances, LossWeights(), hyper, vocab,
                    np.random.default_rng([7, epoch]))
    save_checkpoint(tmp_path / "mid.ckpt", store, {"epoch": 1})
    loaded, meta = load_checkpoint(tmp_path / "mid.ckpt")
    resumed = fit(users, vocab, cfg, LossWeights(), hyper, seed=7,
                  initial=loaded, start_epoch=meta["epoch"] + 1)
    want = [row for row in full.history if row.epoch >= 2]
    got = resumed.history
    assert [r.epoch for r in got] == [r.epoch for r in want]
    for a, b in zip(got, want):
        assert a.losses == b.losses and a.recall == b.recall
