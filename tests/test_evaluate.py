import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc import autodiff as ad
from nextloc import evaluate
from nextloc.evaluate import (
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
)
from nextloc.geo import GeoPoint, GridSpec, grid_index
from nextloc.model import VARIANTS, ModelConfig, build_params, forward
from nextloc.objective import LossWeights, total_loss
from nextloc.preprocess import Vocab
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

    def recording_forward(*args):
        seen.append(forward(*args))
        return seen[-1]

    monkeypatch.setattr(evaluate, "forward", recording_forward)
    preds = predict(store, cfg, instances, vocab=vocab, batch_size=len(instances))
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
