import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc import autodiff as ad
from nextloc.geo import GeoPoint, haversine_km
from nextloc.model import BranchState
from nextloc.objective import LossWeights, spatial_coefficients, total_loss

# three locations on a ~1 km north-south line
COORDS = [(40.70, -74.00), (40.70 + 1.0 / 111.195, -74.00), (40.70 + 2.0 / 111.195, -74.00)]


def km(i, j):
    return haversine_km(GeoPoint(*COORDS[i]), GeoPoint(*COORDS[j]))


def spatial_term(logits, target, coords=COORDS) -> float:
    """total_loss's spatial value L_s for one batch of location logits."""
    n = len(target)
    _, bd = total_loss(state_of(logits), np.zeros(n), np.zeros(n, dtype=int), np.asarray(target),
                       LossWeights(), coords)
    return bd.spatial


def test_correct_argmax_gives_zero_exactly():
    assert spatial_term(np.array([[5.0, 1.0, 0.0]]), [0]) == 0.0


def test_two_locations_uniform_logits():
    # argmax ties at index 0, target 1, the two are ~1 km apart
    assert spatial_term(np.zeros((1, 2)), [1], COORDS[:2]) == pytest.approx(km(0, 1) * math.log(2), rel=1e-9)


@given(st.floats(min_value=-30, max_value=30))
def test_spatial_loss_shift_invariant(c):
    logits = np.array([[0.4, -0.3, 1.1]])
    assert np.allclose(spatial_term(logits, [2]), spatial_term(logits + c, [2]), atol=1e-9)


def test_spatial_coefficient_uses_argmax_prediction():
    logits = np.array([[0.0, 3.0, 1.0], [9.0, 0.0, 0.0]])
    d = spatial_coefficients(logits, np.array([0, 2]), COORDS)
    assert d[0] == pytest.approx(km(1, 0))
    assert d[1] == pytest.approx(km(0, 2))


def state_of(loc, t=None, cat=None):
    return BranchState(
        None if t is None else ad.constant(np.asarray(t, dtype=np.float64).reshape(-1, 1)),
        None if cat is None else ad.constant(np.asarray(cat, dtype=np.float64)),
        ad.constant(np.asarray(loc, dtype=np.float64)),
    )


def hand_xent(logits, target):
    z = np.asarray(logits, dtype=np.float64)
    return float(-np.log(np.exp(z[target]) / np.exp(z).sum()))


def test_weights_zero_reduces_to_location_loss():
    state = state_of([[1.0, 0.0, -1.0]], t=[0.4], cat=[[0.2, 0.7]])
    node, bd = total_loss(state, np.array([0.5]), np.array([1]), np.array([2]),
                          LossWeights(0.0, 0.0, 0.0), COORDS)
    assert float(node.value) == pytest.approx(bd.loc, abs=1e-15)
    assert bd.total == pytest.approx(hand_xent([1.0, 0.0, -1.0], 2), rel=1e-12)


def test_breakdown_matches_hand_summed_components():
    rng = np.random.default_rng(0)
    loc = rng.normal(size=(4, 3))
    cat = rng.normal(size=(4, 2))
    t_hat = rng.uniform(0, 1, size=4)
    t_true = rng.uniform(0, 1, size=4)
    cat_true = rng.integers(0, 2, size=4)
    loc_true = rng.integers(0, 3, size=4)
    w = LossWeights(2.0, 3.0, 4.0)
    state = state_of(loc, t=t_hat, cat=cat)
    node, bd = total_loss(state, t_true, cat_true, loc_true, w, COORDS)

    want_l = np.mean([hand_xent(loc[i], loc_true[i]) for i in range(4)])
    want_c = np.mean([hand_xent(cat[i], cat_true[i]) for i in range(4)])
    deltas = t_hat - t_true
    want_t = np.mean([min(abs(d), 1 - abs(d)) for d in deltas])
    d_km = [km(int(loc[i].argmax()), int(loc_true[i])) for i in range(4)]
    want_s = np.mean([d_km[i] * hand_xent(loc[i], loc_true[i]) for i in range(4)])

    assert bd.loc == pytest.approx(want_l, rel=1e-12)
    assert bd.cat == pytest.approx(want_c, rel=1e-12)
    assert bd.time == pytest.approx(want_t, rel=1e-12)
    assert bd.spatial == pytest.approx(want_s, rel=1e-12)
    assert bd.total == pytest.approx(want_l + 2 * want_t + 3 * want_c + 4 * want_s, rel=1e-12)


def test_decomposition_identity():
    rng = np.random.default_rng(1)
    for trial in range(20):
        state = state_of(rng.normal(size=(3, 3)), t=rng.uniform(0, 1, 3), cat=rng.normal(size=(3, 2)))
        w = LossWeights(*rng.uniform(0, 20, size=3))
        node, bd = total_loss(state, rng.uniform(0, 1, 3), rng.integers(0, 2, 3),
                              rng.integers(0, 3, 3), w, COORDS)
        assert abs(bd.total - (bd.loc + w.lambda_t * bd.time + w.lambda_c * bd.cat + w.lambda_s * bd.spatial)) < 1e-9
        assert min(bd.loc, bd.time, bd.cat, bd.spatial, bd.total) >= 0.0


def test_perfect_prediction_limit():
    margin = 60.0
    loc = np.full((1, 3), -margin)
    loc[0, 2] = margin
    cat = np.array([[-margin, margin]])
    state = state_of(loc, t=[0.25], cat=cat)
    node, bd = total_loss(state, np.array([0.25]), np.array([1]), np.array([2]),
                          LossWeights(), COORDS)
    assert bd.total < 1e-12


def test_time_error_wraps_across_week_boundary():
    state = state_of([[1.0, 0.0, 0.0]], t=[0.999])
    _, bd = total_loss(state, np.array([0.001]), np.array([0]), np.array([0]),
                       LossWeights(1.0, 0.0, 0.0), COORDS)
    assert bd.time == pytest.approx(0.002, abs=1e-12)


def test_inactive_branches_contribute_zero():
    state = state_of([[0.3, 0.1, -0.2]])
    node, bd = total_loss(state, np.array([0.5]), np.array([0]), np.array([1]),
                          LossWeights(), COORDS)
    assert bd.time == 0.0 and bd.cat == 0.0
    assert bd.total == pytest.approx(bd.loc + 10.0 * bd.spatial, abs=1e-12)


@settings(max_examples=50)
@given(st.integers(0, 10_000))
def test_spatial_bounded_by_diameter_times_loc_loss(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    loc = rng.normal(size=(n, 3)) * rng.uniform(0.1, 5)
    targets = rng.integers(0, 3, size=n)
    state = state_of(loc)
    _, bd = total_loss(state, np.zeros(n), np.zeros(n, dtype=int), targets, LossWeights(), COORDS)
    d_max = max(km(i, j) for i in range(3) for j in range(3))
    assert bd.spatial <= d_max * bd.loc + 1e-12


def test_gradient_with_spatial_term_matches_finite_differences():
    rng = np.random.default_rng(9)
    logits = ad.parameter(rng.normal(size=(3, 3)))
    targets = np.array([0, 2, 1])

    def value():
        state = BranchState(None, None, ad.constant(logits.value.copy()))
        node, _ = total_loss(state, np.zeros(3), np.zeros(3, dtype=int), targets, LossWeights(), COORDS)
        return float(node.value)

    state = BranchState(None, None, logits)
    node, _ = total_loss(state, np.zeros(3), np.zeros(3, dtype=int), targets, LossWeights(), COORDS)
    ad.backward(node)
    eps = 1e-5
    fd = np.zeros_like(logits.value)
    flat, fdflat = logits.value.reshape(-1), fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = value()
        flat[i] = orig - eps
        down = value()
        flat[i] = orig
        fdflat[i] = (up - down) / (2 * eps)
    rel = np.abs(fd - logits.grad) / np.maximum.reduce([np.abs(fd), np.abs(logits.grad), np.full_like(fd, 1e-6)])
    assert rel.max() < 1e-4


@pytest.mark.parametrize("has_t,has_cat", [(False, False), (True, False), (False, True), (True, True)])
def test_loss_is_one_node_over_the_active_heads(has_t, has_cat):
    state = state_of([[0.3, 0.1, -0.2]], t=[0.4] if has_t else None, cat=[[0.2, 0.7]] if has_cat else None)
    node, _ = total_loss(state, np.array([0.5]), np.array([0]), np.array([1]), LossWeights(), COORDS)
    heads = (state.loc_logits, state.t_hat, state.cat_logits)
    assert node.parents == tuple(h for h in heads if h is not None)
