import tracemalloc
import weakref

import numpy as np
import pytest

from nextloc import trainer
from nextloc.model import ModelConfig, build_params, forward
from nextloc.objective import LossWeights
from nextloc.params import ParamStore, load_checkpoint, save_checkpoint
from nextloc.preprocess import (
    RecordView,
    Session,
    SessionizedUser,
    SessRecord,
    load_processed,
    load_vocab,
    save_processed,
    save_vocab,
    share_columns,
)
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
    return share_columns([u])[0]


def columns_of(records):
    """New record columns holding `records`, in order."""
    return share_columns([SessionizedUser(0, [Session(202301, records)])])[0].sessions[0].records.columns


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
    assert list(instances[0].history) == [] and list(instances[1].history) == []
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
    records = [rec(loc=i % 3, cat=(-1, 2)[i % 2], hour=8 + i, week=i // 3) for i in range(7)]
    u = share_columns([SessionizedUser(0, [Session(202301, records[:3]), Session(202302, records[3:])], 2)])[0]
    instances = make_instances([u], "train")
    assert [len(i.prefix) for i in instances] == [1, 2, 1, 2, 3]
    want = records[1:3] + records[4:]
    batch = batchify(instances)
    assert batch.target_t.tolist() == [r.tow for r in want]
    assert batch.target_loc.tolist() == [r.loc for r in want]
    assert batch.target_cat.tolist() == [max(r.cat, 0) for r in want]
    assert batch.target_t.dtype == np.float64 and batch.target_cat.dtype == batch.target_loc.dtype == np.intp
    columns, rows = trainer.target_rows(instances)
    assert columns.cat[rows].tolist() == [r.cat for r in want]  # unclamped


def test_batchify_refuses_instances_over_two_sets_of_columns():
    a, b = (make_instances([user_with_session_lengths([3])], "train") for _ in range(2))
    with pytest.raises(ValueError, match="one set of record columns"):
        batchify(a + b)


def test_batchify_of_no_instances_is_an_empty_batch():
    batch = batchify([])
    assert batch.size == 0 and batch.hist_mask.shape == batch.pref_mask.shape == (0, 0)
    for a, dtype in ((batch.target_t, np.float64), (batch.target_cat, np.intp), (batch.target_loc, np.intp)):
        assert a.shape == (0,) and a.dtype == dtype


def test_record_view_behaves_as_the_list_it_shows():
    records = [rec(loc=i) for i in range(6)]
    columns = columns_of(records)
    view, want = RecordView(columns, 1, 5), records[1:5]
    assert len(view) == 4 and list(view) == want and [r.loc for r in view] == [1, 2, 3, 4]
    assert view.column("loc").tolist() == [1, 2, 3, 4]
    assert list(RecordView(columns, 2, 2)) == []
    assert want[2] in view
    with pytest.raises(TypeError):  # a view is a row range, read by column
        view[0]


def test_instances_are_views_of_the_users_records():
    u = user_with_session_lengths([3, 2, 4], split_point=1)
    train, test = make_instances([u], "train"), make_instances([u], "test")
    assert list(train[0].history) == []
    records = [r for s in u.sessions for r in s.records]
    for inst, (start, i) in zip(train + test, [(0, 1), (0, 2), (3, 1), (5, 1), (5, 2), (5, 3)]):
        assert isinstance(inst.history, RecordView) and isinstance(inst.prefix, RecordView)
        assert list(inst.history) == records[:start]
        assert list(inst.prefix) == records[start:start + i]


def test_instances_of_one_session_share_one_history_object():
    vocab, users = corpus()
    for split in ("train", "test"):
        instances = make_instances(users, split)
        by_session: dict = {}
        for inst in instances:
            # a session's instances are consecutive, their prefixes one step longer each
            key = (inst.user_index, len(inst.history))
            by_session.setdefault(key, set()).add(id(inst.history))
        assert all(len(ids) == 1 for ids in by_session.values())
        assert len({id(i.history) for i in instances}) == len(by_session)


def instances_bytes(n_sessions: int) -> int:
    """Bytes that tracemalloc counts as held by the train instances of one
    user with `n_sessions` sessions of 8 records."""
    u = user_with_session_lengths([8] * n_sessions)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        instances = make_instances([u], "train")
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(instances) == 7 * n_sessions
    return held


def test_instance_memory_grows_linearly_in_sessions():
    instances_bytes(4)  # first-call allocations stay out of the counts
    small, large = instances_bytes(200), instances_bytes(400)
    # a copied history per session would make this about 4x
    assert large <= 2.1 * small


# Bytes per record that `load_processed` plus both splits' `make_instances`
# held on the corpus below when every record was a `SessRecord` and every
# instance carried its own prefix view and targets: 186 for the records and
# 148 for the instances (tracemalloc, CPython 3.11).
RECORD_OBJECTS_BYTES_PER_RECORD = 334


def test_loaded_records_and_instances_take_under_half_the_bytes_of_record_objects(tmp_path):
    vocab, users = weekly_schedule_corpus(n_users=40, n_weeks=20, slots_per_week=8)
    save_processed(tmp_path / "processed.txt", vocab, users)
    save_vocab(tmp_path / "vocab.txt", vocab)
    vocab = load_vocab(tmp_path / "vocab.txt")
    make_instances(load_processed(tmp_path / "processed.txt", vocab), "train")  # first-call allocations
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        users = load_processed(tmp_path / "processed.txt", vocab)
        instances = make_instances(users, "train") + make_instances(users, "test")
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    n_records = sum(len(s.records) for u in users for s in u.sessions)
    assert (n_records, len(instances)) == (6400, 5600)
    assert held / n_records <= RECORD_OBJECTS_BYTES_PER_RECORD / 2


def reference_pad(seqs):
    """The record-at-a-time padding `trainer._pad` replaced."""
    n = len(seqs)
    width = max((len(s) for s in seqs), default=0)
    loc = np.zeros((n, width), dtype=np.intp)
    cat = np.zeros((n, width), dtype=np.intp)
    hour = np.zeros((n, width), dtype=np.intp)
    day = np.zeros((n, width), dtype=np.intp)
    mask = np.zeros((n, width), dtype=np.float64)
    for i, s in enumerate(seqs):
        for t, r in enumerate(s):
            loc[i, t] = r.loc
            cat[i, t] = max(r.cat, 0)
            hour[i, t] = r.hour
            day[i, t] = r.dow
            mask[i, t] = 1.0
    return loc, cat, hour, day, mask


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("split", ["train", "test"])
@pytest.mark.parametrize("categories", [True, False])
def test_pad_matches_the_record_loop(split, categories):
    vocab, users = weekly_schedule_corpus(n_users=5, n_weeks=6, slots_per_week=3)
    if not categories:  # a dataset without categories has -1, padded as 0
        for u in users:
            for s in u.sessions:
                s.records = [r._replace(cat=-1) for r in s.records]
        share_columns(users)
    instances = make_instances(users, split)
    rng = np.random.default_rng(3)
    for seqs in (
        [i.history for i in instances],
        [i.prefix for i in instances],
        [i.history for i in rng.permutation(np.array(instances, dtype=object))[:7]],
        [instances[0].history],
        [instances[-1].prefix],
        [],
    ):
        assert_same_arrays(trainer._pad(seqs), reference_pad(seqs))


def test_pad_mixes_views_of_any_rows_and_empty_views():
    records = [rec(loc=i % 5, cat=(i % 4) - 1, hour=i % 24, dow=i % 7) for i in range(12)]
    columns = columns_of(records)
    seqs = [RecordView(columns, a, b) for a, b in ((0, 0), (2, 9), (3, 12), (7, 7), (0, 1))]
    got = trainer._pad(seqs)
    assert_same_arrays(got, reference_pad(seqs))
    assert got[4].sum(axis=1).tolist() == [0, 7, 9, 0, 1]
    empty = [RecordView(columns, 0, 0), RecordView(columns, 5, 5)]
    assert_same_arrays(trainer._pad(empty), reference_pad([[], []]))


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


def test_gradient_buffers_exist_only_from_backward_to_adam(monkeypatch):
    vocab, users = corpus()
    cfg = small_config(vocab)
    store = build_params(cfg, seed=0)
    assert all(store[n].grad is None for n in store.names())
    real_adam = ParamStore.adam_step
    allocated = []  # parameters holding a gradient buffer as each step's Adam starts, and after it

    def tracked_adam(self, *args, **kwargs):
        before = sum(self[n].grad is not None for n in self.names())
        real_adam(self, *args, **kwargs)
        allocated.append((before, sum(self[n].grad is not None for n in self.names())))

    monkeypatch.setattr(ParamStore, "adam_step", tracked_adam)
    hyper = TrainHyper(learning_rate=1e-3, batch_size=4, epochs=1)
    train_epoch(store, cfg, make_instances(users, "train"), LossWeights(), hyper, vocab, np.random.default_rng(0))
    assert store.step >= 3 and allocated == [(len(store.names()), 0)] * store.step
    assert all(store[n].grad is None for n in store.names())


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
    assert int(state.loc_logits.value.argmax()) == batch.target_loc[0]


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
    records = list(s.records)  # the loaded records are read-only views
    for i in range(len(inst.prefix), len(records)):
        records[i] = rec(loc=(records[i].loc + 1) % vocab.n_locs, week=90)
    s.records = records
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
