import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc import autodiff as ad
from nextloc import evaluate, model
from nextloc.evaluate import (
    EVAL_MAX_STEPS,
    Predictions,
    attractiveness_error,
    bin_values,
    build_report,
    dataset_grid,
    displacement_comparison,
    joint_causal_analysis,
    location_recall,
    pred_target_distance_hist,
    predict,
    rank_locations,
    recall_at_n,
    sensitivity_sweep,
    step_batches,
)
from nextloc.geo import GeoPoint, GridSpec, grid_index
from nextloc.model import VARIANTS, ModelConfig, build_params, forward
from nextloc.objective import LossWeights, total_loss
from nextloc.ingest import parse_foursquare
from nextloc.preprocess import Vocab, run_pipeline
from nextloc.synth import weekly_schedule_corpus
from nextloc.trainer import TrainHyper, batchify, fit, make_instances, train_epoch


def preds_of(user, ranked, target_loc, cat_ranked=None, target_cat=None, current=None):
    n = len(target_loc)
    return Predictions(
        user=np.asarray(user, dtype=np.intp),
        loc_ranked=np.asarray(ranked, dtype=np.intp),
        cat_ranked=None if cat_ranked is None else np.asarray(cat_ranked, dtype=np.intp),
        target_loc=np.asarray(target_loc, dtype=np.intp),
        target_cat=np.asarray(target_cat if target_cat is not None else [-1] * n, dtype=np.intp),
        current_loc=np.asarray(current if current is not None else [0] * n, dtype=np.intp),
    )


# ---------------------------------------------------------------------------
# ranking / recall
# ---------------------------------------------------------------------------

def test_rank_breaks_ties_by_lower_index():
    logits = np.array([[1.0, 3.0, 3.0, 0.0]])
    assert rank_locations(logits, 3).tolist() == [[1, 2, 0]]


def test_recall_perfect_predictions():
    p = preds_of([0, 0, 1], [[0, 1], [2, 1], [1, 0]], [0, 2, 1])
    for n in (1, 2):
        ue, _, re = recall_at_n(p.user, p.loc_ranked, p.target_loc, n)
        assert ue == 1.0 and re == 1.0


def test_recall_user_equal_weighting():
    # user A hits 1 of 4, user B hits 3 of 4 at N=1 -> (0.25 + 0.75) / 2
    user = [0] * 4 + [1] * 4
    ranked = [[0]] * 4 + [[1]] * 4
    target = [0, 9, 9, 9, 1, 1, 1, 9]
    ue, per_user, re = recall_at_n(user, ranked, target, 1)
    assert ue == pytest.approx(0.5)
    assert per_user == {0: 0.25, 1: 0.75}
    assert re == pytest.approx(4 / 8)


def brute_force_recall(user, ranked, target, n):
    by_user = {}
    for u, row, t in zip(user, ranked, target):
        by_user.setdefault(u, []).append(t in list(row[:n]))
    return sum(sum(v) / len(v) for v in by_user.values()) / len(by_user)


@settings(max_examples=100)
@given(st.integers(0, 10_000))
def test_recall_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    users = rng.integers(0, 4, size=m)
    ranked = np.array([rng.permutation(6) for _ in range(m)])
    targets = rng.integers(0, 6, size=m)
    for n in (1, 3, 6):
        ue, _, _ = recall_at_n(users, ranked, targets, n)
        assert ue == pytest.approx(brute_force_recall(users, ranked, targets, n), abs=1e-12)


def per_user_loop_recall(user_ids, ranked, targets, n):
    """`recall_at_n` as it was written first, one mask per user: the
    reference the vectorised version must equal, types and key order
    included."""
    user_ids = np.asarray(user_ids)
    hits = (np.asarray(ranked)[:, :n] == np.asarray(targets)[:, None]).any(axis=1)
    per_user = {}
    for u in np.unique(user_ids):
        sel = user_ids == u
        per_user[int(u)] = float(hits[sel].sum() / sel.sum())
    user_equal = sum(per_user.values()) / len(per_user) if per_user else 0.0
    record_equal = float(hits.sum() / len(hits)) if len(hits) else 0.0
    return user_equal, per_user, record_equal


def test_recall_equals_the_per_user_loop():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m, k = int(rng.integers(0, 60)), int(rng.integers(1, 8))
        users = rng.integers(0, int(rng.integers(1, 20)), m) * 3 + 1  # sparse, unsorted ids
        ranked, targets = rng.integers(0, 10, (m, k)), rng.integers(0, 10, m)
        for n in (1, 3, 10):
            got, want = recall_at_n(users, ranked, targets, n), per_user_loop_recall(users, ranked, targets, n)
            assert got == want
            assert list(got[1]) == list(want[1])
            assert [type(v) for v in (got[0], got[2], *got[1], *got[1].values())] == \
                [type(v) for v in (want[0], want[2], *want[1], *want[1].values())]


@settings(max_examples=50)
@given(st.integers(0, 10_000))
def test_recall_monotone_and_full_rank_is_one(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 30))
    users = rng.integers(0, 3, size=m)
    ranked = np.array([rng.permutation(5) for _ in range(m)])
    targets = rng.integers(0, 5, size=m)
    values = [recall_at_n(users, ranked, targets, n)[0] for n in range(1, 6)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0


# ---------------------------------------------------------------------------
# joint analysis
# ---------------------------------------------------------------------------

def test_joint_perfect_model():
    p = preds_of([0, 0], [[1], [2]], [1, 2], cat_ranked=[[0], [1]], target_cat=[0, 1])
    assert joint_causal_analysis(p) == {"both": 1.0, "cat_only": 0.0, "loc_only": 0.0, "neither": 0.0}


def test_joint_five_instance_hand_count():
    p = preds_of(
        [0] * 5,
        [[1], [1], [2], [0], [2]],
        [1, 2, 2, 0, 1],
        cat_ranked=[[0], [0], [1], [1], [0]],
        target_cat=[0, 0, 0, 1, 1],
    )
    # per instance: (loc?, cat?) = (T,T), (F,T), (T,F), (T,T), (F,F)
    got = joint_causal_analysis(p)
    assert got == {"both": 0.4, "cat_only": 0.2, "loc_only": 0.2, "neither": 0.2}
    assert sum(got.values()) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

VOCAB = Vocab(
    user_key=["u0"],
    loc_key=[f"l{i}" for i in range(4)],
    cat_name=["a", "b"],
    cat_raw_id=[0, 1],
    # 0 at origin, 1 at ~1 km, 2 at ~3 km, 3 at ~20 km north
    loc_coord=[(40.0, -74.0), (40.0 + 1 / 111.195, -74.0), (40.0 + 3 / 111.195, -74.0), (40.0 + 20 / 111.195, -74.0)],
    loc_cat=[0, 1, 0, 1],
)


def test_binning_oracle():
    assert bin_values([1.0, 3.0], [0.0, 2.0, 4.0]).tolist() == [1.0, 1.0]
    assert bin_values([0.0, 1.9999, 2.0], [0.0, 2.0, 4.0]).tolist() == [2.0, 1.0]


def test_distance_hist_perfect_predictions():
    p = preds_of([0, 0], [[1], [2]], [1, 2])
    h = pred_target_distance_hist(p, VOCAB, [0.0, 2.0, 4.0])
    assert h.counts.tolist() == [2.0, 0.0]


def test_distance_hist_two_instances():
    # predictions at ~1 km and ~3 km from targets
    p = preds_of([0, 0], [[1], [2]], [0, 0])
    h = pred_target_distance_hist(p, VOCAB, [0.0, 2.0, 4.0])
    assert h.counts.tolist() == [1.0, 1.0]
    assert h.counts.sum() == 2


def test_distance_hist_conserves_count():
    rng = np.random.default_rng(0)
    p = preds_of([0] * 50, rng.integers(0, 4, size=(50, 1)), rng.integers(0, 4, size=50))
    h = pred_target_distance_hist(p, VOCAB, [0.0, 2.0, 4.0])  # 20 km clips into last bin
    assert h.counts.sum() == 50


def test_displacement_identical_when_prediction_equals_target():
    p = preds_of([0, 0, 0], [[1], [2], [3]], [1, 2, 3], current=[0, 1, 2])
    hp, ht = displacement_comparison(p, VOCAB)
    assert np.array_equal(hp.counts, ht.counts)
    assert hp.counts.sum() == pytest.approx(1.0, abs=1e-9)
    assert ht.counts.sum() == pytest.approx(1.0, abs=1e-9)


def test_displacement_zero_goes_to_underflow_bin():
    p = preds_of([0], [[0]], [0], current=[0])
    hp, ht = displacement_comparison(p, VOCAB)
    assert hp.counts[0] == 1.0 and ht.counts[0] == 1.0


def test_displacement_two_instance_hand_binning():
    # displacements: predicted 1 km and 3 km; true 1 km and 20 km
    p = preds_of([0, 0], [[1], [2]], [1, 3], current=[0, 0])
    edges = np.array([0.0, 0.5, 2.0, 10.0, 50.0])
    hp, ht = displacement_comparison(p, VOCAB, edges=edges)
    assert hp.counts.tolist() == [0.0, 0.5, 0.5, 0.0]
    assert ht.counts.tolist() == [0.0, 0.5, 0.0, 0.5]


# ---------------------------------------------------------------------------
# regional attractiveness
# ---------------------------------------------------------------------------

def test_attractiveness_perfect_predictions_zero_error():
    p = preds_of([0, 0], [[1], [3]], [1, 3])
    cells = attractiveness_error(p, VOCAB, dataset_grid(VOCAB))
    assert all(c.abs_error == 0 for c in cells)


def test_attractiveness_conservation_and_hand_count():
    grid = GridSpec(GeoPoint(40.0, -74.0), 500.0)
    # predicted visits: l0, l0, l1; actual: l1, l2, l2
    p = preds_of([0] * 3, [[0], [0], [1]], [1, 2, 2])
    cells = attractiveness_error(p, VOCAB, grid)
    assert sum(c.predicted for c in cells) == 3
    assert sum(c.actual for c in cells) == 3
    by_cell = {(c.row, c.col): c for c in cells}
    cell_of = {i: grid_index(GeoPoint(*VOCAB.loc_coord[i]), grid) for i in range(4)}
    assert by_cell[cell_of[0]].predicted == 2 and by_cell[cell_of[0]].actual == 0
    assert by_cell[cell_of[1]].predicted == 1 and by_cell[cell_of[1]].actual == 1
    assert by_cell[cell_of[2]].predicted == 0 and by_cell[cell_of[2]].actual == 2
    assert by_cell[cell_of[0]].abs_error == 2


# ---------------------------------------------------------------------------
# end-to-end report and sweep
# ---------------------------------------------------------------------------

def small_cfg(vocab, variant="cslsl"):
    return ModelConfig(
        n_users=vocab.n_users, n_locs=vocab.n_locs, n_cats=vocab.n_cats,
        variant=variant, d_loc=6, d_cat=4, d_hour=3, d_day=3, d_user=3, hidden=8,
    )


def test_report_fields_and_ranges():
    vocab, users = weekly_schedule_corpus(n_users=4, n_weeks=6, slots_per_week=3)
    cfg = small_cfg(vocab)
    store = build_params(cfg, seed=0)
    instances = make_instances(users, "test")
    report = build_report(store, cfg, users, instances, vocab=vocab)
    assert set(report.recall_loc) == {1, 5, 10}
    for v in report.recall_loc.values():
        assert 0.0 <= v <= 1.0
    assert report.recall_cat is not None
    assert sum(report.joint_matrix.values()) == pytest.approx(1.0, abs=1e-9)
    assert report.users_evaluated == 4 and report.users_skipped == 0
    assert report.n_instances == len(instances)


def test_lsl_report_derives_categories_from_locations():
    vocab, users = weekly_schedule_corpus(n_users=4, n_weeks=6, slots_per_week=3)
    cfg = small_cfg(vocab, variant="lsl")
    store = build_params(cfg, seed=0)
    instances = make_instances(users, "test")
    preds = predict(store, cfg, instances, vocab=vocab)
    assert preds.cat_ranked is not None
    want = np.asarray(vocab.loc_cat)[preds.loc_ranked]
    assert np.array_equal(preds.cat_ranked, want)


@pytest.mark.parametrize("split", ["train", "test"])
def test_predict_trip_origin_is_the_last_prefix_record(split):
    vocab, users = weekly_schedule_corpus(n_users=4, n_weeks=6, slots_per_week=3)
    cfg = small_cfg(vocab)
    instances = make_instances(users, split)
    preds = predict(build_params(cfg, seed=0), cfg, instances, vocab=vocab)
    sessions = [s for u in users for s in (u.sessions[:u.split_point] if split == "train"
                                           else u.sessions[u.split_point:])]
    want = [list(s.records)[i - 1].loc for s in sessions for i in range(1, len(s.records))]
    assert preds.current_loc.tolist() == want == [list(i.prefix)[-1].loc for i in instances]
    assert preds.current_loc.tolist() != preds.target_loc.tolist()


def test_sweep_single_point_equals_plain_fit():
    vocab, users = weekly_schedule_corpus(n_users=3, n_weeks=6, slots_per_week=3)
    cfg = small_cfg(vocab)
    hyper = TrainHyper(learning_rate=1e-3, batch_size=16, epochs=2, patience=10)
    w = LossWeights()
    rows = sensitivity_sweep(users, vocab, cfg, w, hyper, [{"lambda_s": 10.0}], seeds=[4])
    direct = fit(users, vocab, cfg, w, hyper, seed=4)
    assert rows[0].values == [direct.best_recall]
    assert rows[0].sd == 0.0


def test_sweep_lambda_s_zero_matches_clsl_bitwise():
    vocab, users = weekly_schedule_corpus(n_users=3, n_weeks=6, slots_per_week=3)
    hyper = TrainHyper(learning_rate=1e-3, batch_size=16, epochs=2, patience=10)
    cslsl = fit(users, vocab, small_cfg(vocab, "cslsl"), LossWeights(10, 10, 0.0), hyper, seed=9)
    clsl = fit(users, vocab, small_cfg(vocab, "clsl"), LossWeights(10, 10, 10.0), hyper, seed=9)
    for name in cslsl.store.names():
        assert np.array_equal(cslsl.store[name].value, clsl.store[name].value)
    assert cslsl.best_recall == clsl.best_recall


# ---------------------------------------------------------------------------
# inference records no graph
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_without_graph_matches_recorded_forward(monkeypatch, variant):
    vocab, users = weekly_schedule_corpus(n_users=4, n_weeks=6, slots_per_week=3)
    cfg = small_cfg(vocab, variant)
    store = build_params(cfg, seed=2)
    instances = make_instances(users, "test")
    batch = batchify(instances)
    recorded = forward(store, cfg, batch)
    with ad.no_grad():
        bare = forward(store, cfg, batch)
    for name in ("t_hat", "cat_logits", "loc_logits"):
        a, b = getattr(recorded, name), getattr(bare, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a.value, b.value), name
            assert b.parents == () and b._backward is None
    seen = []

    def recording_forward(*args, **kwargs):
        seen.append(forward(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(evaluate, "forward", recording_forward)
    steps = sum(len(i.history) + len(i.prefix) for i in instances)
    preds = predict(store, cfg, instances, vocab=vocab, max_steps=steps)
    assert [s.loc_logits.parents for s in seen] == [()]
    assert np.array_equal(preds.loc_ranked, rank_locations(recorded.loc_logits.value, 10))
    if recorded.cat_logits is not None:
        want = np.argsort(-recorded.cat_logits.value, axis=1, kind="stable")[:, : min(10, vocab.n_cats)]
        assert np.array_equal(preds.cat_ranked, want)


def test_training_gradients_unchanged_after_location_recall():
    vocab, users = weekly_schedule_corpus(n_users=4, n_weeks=6, slots_per_week=3)
    cfg = small_cfg(vocab)
    store = build_params(cfg, seed=3)
    batch = batchify(make_instances(users, "train")[:16])

    def gradients():
        store.zero_grad()
        state = forward(store, cfg, batch)
        node, _ = total_loss(state, batch.target_t, batch.target_cat, batch.target_loc, LossWeights(),
                             vocab.loc_coord)
        ad.backward(node)
        return {n: store[n].grad.copy() for n in store.names()}

    before = gradients()
    location_recall(store, cfg, make_instances(users, "test"))
    after = gradients()
    assert all(before[n].any() for n in before if n.startswith("gru."))
    for n in before:
        assert np.array_equal(before[n], after[n]), n


def test_training_epoch_unchanged_after_location_recall():
    vocab, users = weekly_schedule_corpus(n_users=4, n_weeks=6, slots_per_week=3)
    cfg = small_cfg(vocab)
    train, test = make_instances(users, "train"), make_instances(users, "test")
    hyper = TrainHyper(learning_rate=1e-3, batch_size=16, epochs=1)
    plain, after_eval = build_params(cfg, seed=4), build_params(cfg, seed=4)
    location_recall(after_eval, cfg, test)
    for store in (plain, after_eval):
        train_epoch(store, cfg, train, LossWeights(), hyper, vocab, np.random.default_rng(0))
    for n in plain.names():
        for attr in ("m", "v"):
            assert np.array_equal(getattr(plain.entries[n], attr), getattr(after_eval.entries[n], attr)), n
        assert np.array_equal(plain[n].value, after_eval[n].value), n


# ---------------------------------------------------------------------------
# batches cut by a budget of real steps
# ---------------------------------------------------------------------------

def sized(steps):
    """Stand-ins for instances with the given history-plus-prefix steps."""
    return [SimpleNamespace(history=[None] * (n - 1), prefix=[None], n=n) for n in steps]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 40), max_size=30), st.integers(1, 60))
def test_step_batches_keep_order_split_nothing_and_respect_the_budget(steps, budget):
    instances = sized(steps)
    batches = list(step_batches(instances, budget))
    assert [i for b in batches for i in b] == instances
    assert all(b for b in batches)
    for k, b in enumerate(batches):
        total = sum(i.n for i in b)
        assert total <= budget or len(b) == 1  # only an instance over the budget runs over it
        if k + 1 < len(batches):
            assert total + batches[k + 1][0].n > budget  # each batch takes all that fits


def test_step_batches_run_an_instance_over_the_budget_alone():
    batches = list(step_batches(sized([3, 2, 9, 1, 4]), 5))
    assert [[i.n for i in b] for b in batches] == [[3, 2], [9], [1, 4]]
    assert list(step_batches([], 5)) == []


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_budget_gives_the_rankings_of_one_instance_per_batch(variant):
    vocab, users = weekly_schedule_corpus(n_users=6, n_weeks=6, slots_per_week=4)
    cfg = small_cfg(vocab, variant)
    store = build_params(cfg, seed=5)
    instances = make_instances(users, "test")
    budget = sum(len(i.history) + len(i.prefix) for i in instances) // 4
    chunks = list(step_batches(instances, budget))
    assert 4 <= len(chunks) < len(instances)
    with ad.no_grad():
        alone = [forward(store, cfg, batchify([i])) for i in instances]
        cut = [forward(store, cfg, batchify(c)) for c in chunks]
    for name in ("loc_logits", "cat_logits", "t_hat"):
        if getattr(alone[0], name) is None:
            continue
        want = np.concatenate([getattr(s, name).value for s in alone])
        got = np.concatenate([getattr(s, name).value for s in cut])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
    one = predict(store, cfg, instances, vocab=vocab, max_steps=1)
    for preds in (predict(store, cfg, instances, vocab=vocab, max_steps=budget),
                  predict(store, cfg, instances, vocab=vocab)):
        assert np.array_equal(preds.loc_ranked, one.loc_ranked)
        assert np.array_equal(preds.cat_ranked, one.cat_ranked)
        for n in (1, 5, 10):
            assert (recall_at_n(preds.user, preds.loc_ranked, preds.target_loc, n)
                    == recall_at_n(one.user, one.loc_ranked, one.target_loc, n))


ROOT = Path(__file__).resolve().parent.parent


def benchmark_modules():
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]
    try:
        import nycgen
        import spec
    finally:
        del sys.path[:2]
    return nycgen, spec


def capped_sample_steps(instances, size: int, cap: float) -> int:
    """The most real steps a `size`-instance sample can hold when it draws
    only instances whose history is at most the `cap` quantile of lengths,
    as the benchmark's eval sample does."""
    hist = np.array([len(i.history) for i in instances])
    steps = hist + np.array([len(i.prefix) for i in instances])
    return size * int(steps[hist <= np.quantile(hist, cap)].max())


def test_benchmark_eval_samples_stay_one_batch_on_the_synthetic_corpus():
    _, spec = benchmark_modules()
    wl = spec.WORKLOADS["synth-h64"]
    _, users = weekly_schedule_corpus(n_users=50, n_weeks=12, n_locs=20, n_cats=6, slots_per_week=5)
    test = make_instances(users, "test")
    assert len(test) == 400
    assert capped_sample_steps(test, wl.eval_size, wl.history_cap) <= EVAL_MAX_STEPS


def test_step_budget_sized_on_the_nyc_shaped_file(tmp_path):
    """On the benchmark's seed-1 NYC-shaped file, the budget keeps the
    median 256 consecutive test instances in one batch, splits the worst
    256 (492,772 steps), and keeps any eval sample in one batch."""
    nycgen, spec = benchmark_modules()
    raw = tmp_path / "raw.txt"
    nycgen.write_file(raw, 1)
    test = make_instances(run_pipeline(parse_foursquare(raw)).users, "test")
    steps = [sum(len(i.history) + len(i.prefix) for i in test[k:k + 256]) for k in range(0, len(test), 256)]
    assert np.median(steps) == 45424.5 and max(steps) == 492772
    assert np.median(steps) <= EVAL_MAX_STEPS < max(steps)
    wl = spec.WORKLOADS["nyc-h256"]
    assert capped_sample_steps(test, wl.eval_size, wl.history_cap) <= EVAL_MAX_STEPS


# ---------------------------------------------------------------------------
# history runs shared in inference
# ---------------------------------------------------------------------------

def per_instance_logits(store, cfg, instances):
    """The recorded forward, which runs every chain per instance."""
    return forward(store, cfg, batchify(instances))


def shared_logits(monkeypatch, store, cfg, instances):
    """`forward` under no_grad, and the long states it shared, one dict
    per `model.shared_long_states` call."""
    shared_long_states, given = model.shared_long_states, []

    def recording(*args):
        given.append(shared_long_states(*args))
        return given[-1]

    with monkeypatch.context() as m:
        m.setattr(model, "shared_long_states", recording)
        with ad.no_grad():
            return forward(store, cfg, batchify(instances)), given


def assert_same_outputs(got, want):
    for name in ("loc_logits", "cat_logits", "t_hat"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if b is not None:
            assert np.abs(a.value - b.value).max() <= 1e-12 * np.abs(b.value).max(), name


def runs_with_empty_histories():
    """Test instances of users whose test split starts at their first
    session: each run holds empty histories and four history ends."""
    vocab, users = weekly_schedule_corpus(n_users=3, n_weeks=4, slots_per_week=3)
    for u in users:
        u.split_point = 0
    return vocab, users, make_instances(users, "test")


VARIANT_CASES = [(v, True) for v in VARIANTS] + [("cslsl_c", False)]


def case_cfg(vocab, variant, has_categories):
    return ModelConfig(n_users=vocab.n_users, n_locs=vocab.n_locs, n_cats=vocab.n_cats if has_categories else 0,
                       variant=variant, d_loc=6, d_cat=4, d_hour=3, d_day=3, d_user=3, hidden=8,
                       has_categories=has_categories)


def test_history_branches_are_the_zero_seeded_record_only_ones():
    vocab, _ = weekly_schedule_corpus(n_users=2, n_weeks=3, slots_per_week=2)
    got = {v: small_cfg(vocab, v).history_branches for v in VARIANTS}
    assert got == {
        "lsl": ("loc",), "sblsl": ("shared",), "slsl": ("time", "cat", "loc"), "hlsl": (),
        "clsl": ("time",), "clsl_ctl": ("cat",), "cslsl": ("time",), "cslsl_t": ("cat",), "cslsl_c": ("time",),
    }


@pytest.mark.parametrize("variant,has_categories", VARIANT_CASES)
def test_shared_history_runs_give_the_per_instance_outputs(monkeypatch, variant, has_categories):
    """On the test split (two history ends per user), and on runs with
    empty histories and four ends, the shared long states give the
    per-instance path's outputs, and `predict` its rankings."""
    vocab, users = weekly_schedule_corpus(n_users=6, n_weeks=10, slots_per_week=4)
    cases = [make_instances(users, "test"), runs_with_empty_histories()[2]]
    assert {len({i.history.stop for i in cases[0] if i.user_index == u.user_index}) for u in users} == {2}
    assert any(len(i.history) == 0 for i in cases[1])
    cfg = case_cfg(vocab, variant, has_categories)
    store = build_params(cfg, seed=11)
    for instances in cases:
        want = per_instance_logits(store, cfg, instances)
        got, given = shared_logits(monkeypatch, store, cfg, instances)
        if cfg.history_branches:
            assert [set(g) for g in given] == [set(cfg.history_branches)]
            assert_same_outputs(got, want)
        else:
            assert given == []  # hlsl runs per instance
        preds = predict(store, cfg, instances, vocab=vocab if has_categories else None)
        assert np.array_equal(preds.loc_ranked, rank_locations(want.loc_logits.value, 10))
        if want.cat_logits is not None:
            ranked = np.argsort(-want.cat_logits.value, axis=1, kind="stable")[:, :min(10, vocab.n_cats)]
            assert np.array_equal(preds.cat_ranked, ranked)


def test_history_rounds_run_each_distinct_record_once_without_a_graph(monkeypatch):
    vocab, users, instances = runs_with_empty_histories()
    cfg = small_cfg(vocab, "slsl")
    store = build_params(cfg, seed=1)
    run_gru, seen = model.run_gru, []
    long_w = {store[f"gru.{b}.long.w_x"] for b in cfg.branches}

    def recording_run_gru(w, h0, x, pack, **kwargs):
        if any(w.w_x is lw for lw in long_w):
            seen.append((w.w_x is store["gru.time.long.w_x"], pack.batch, pack.size, kwargs, ad._grad_enabled))
        return run_gru(w, h0, x, pack, **kwargs)

    monkeypatch.setattr(model, "run_gru", recording_run_gru)
    predict(store, cfg, instances)
    rounds = [s for s in seen if s[0]]
    ends = {u.user_index: sorted({i.history.stop for i in instances if i.user_index == u.user_index}) for u in users}
    assert all(len(e) == 4 for e in ends.values())
    assert [r[1] for r in rounds] == [3, 3, 3, 3]  # one row per user in each of four rounds
    assert rounds[0][2] == 0  # round 0 ends every run's empty history
    records = sum(e[-1] - u.sessions[0].records.start for u, e in zip(users, ends.values()))
    assert sum(r[2] for r in rounds) == records
    assert all(r[3] == {"states": False} and r[4] is False for r in rounds)
    assert len(seen) == 3 * 4  # the three branches' long chains


def test_a_batch_without_shared_runs_takes_the_per_instance_path(monkeypatch):
    vocab, users = weekly_schedule_corpus(n_users=6, n_weeks=10, slots_per_week=4)
    one_each = list({i.user_index: i for i in make_instances(users, "test")}.values())
    cfg = small_cfg(vocab, "lsl")
    store = build_params(cfg, seed=1)
    batch = batchify(one_each)
    assert model.history_runs(batch, ad.Packing(batch.hist_mask)) is None
    run_gru, calls = model.run_gru, []

    def recording_run_gru(w, h0, x, pack, **kwargs):
        if w.w_x is store["gru.loc.long.w_x"]:
            calls.append((pack.batch, pack.size))
        return run_gru(w, h0, x, pack, **kwargs)

    monkeypatch.setattr(model, "run_gru", recording_run_gru)
    predict(store, cfg, one_each)
    assert calls == [(len(one_each), sum(len(i.history) for i in one_each))]  # one chain over every history


def test_forward_takes_history_states_only_for_its_history_branches(monkeypatch):
    """On a batch whose rows share history runs, `forward` under no_grad
    runs the long GRU of every branch outside `history_branches` once over
    all rows: all of hlsl's, and cslsl's cat and loc."""
    vocab, users = weekly_schedule_corpus(n_users=2, n_weeks=6, slots_per_week=3)
    batch = batchify(make_instances(users, "test"))
    assert model.history_runs(batch, ad.Packing(batch.hist_mask)) is not None
    run_gru = model.run_gru
    for variant, per_row in (("hlsl", ("time", "cat", "loc")), ("cslsl", ("cat", "loc"))):
        cfg = small_cfg(vocab, variant)
        store = build_params(cfg, seed=0)
        branch_of = {id(store[f"gru.{b}.long.w_x"]): b for b in cfg.branches}
        rows = {b: [] for b in cfg.branches}

        def recording_run_gru(w, h0, x, pack, **kwargs):
            if id(w.w_x) in branch_of:
                rows[branch_of[id(w.w_x)]].append(pack.batch)
            return run_gru(w, h0, x, pack, **kwargs)

        monkeypatch.setattr(model, "run_gru", recording_run_gru)
        with ad.no_grad():
            forward(store, cfg, batch)
        for b in cfg.branches:
            if b in per_row:
                assert rows[b] == [batch.size], (variant, b)
            else:
                assert rows[b] and max(rows[b]) < batch.size, (variant, b)


def test_given_history_states_still_need_a_prefix():
    vocab, users = weekly_schedule_corpus(n_users=2, n_weeks=6, slots_per_week=3)
    cfg = small_cfg(vocab, "lsl")
    batch = batchify(make_instances(users, "test"))
    batch.pref_mask[0] = 0.0
    assert model.history_runs(batch, ad.Packing(batch.hist_mask)) is not None
    with pytest.raises(ValueError, match="prefix"), ad.no_grad():
        forward(build_params(cfg, seed=0), cfg, batch)
