import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc import autodiff as ad
from nextloc.autodiff import GradError, GRUWeights, backward
from nextloc.params import ParamStore, load_checkpoint, save_checkpoint


def numeric_grad(f, arrays, eps=1e-4):
    """Central finite differences of scalar f over a list of numpy arrays."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gflat = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = f()
            flat[i] = orig - eps
            down = f()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * eps)
        grads.append(g)
    return grads


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, 1e-6)]))


# ---------------------------------------------------------------------------
# affine / primitives
# ---------------------------------------------------------------------------

def test_affine_identity():
    x = ad.constant([[1.0, 2.0, 3.0]])
    w = ad.constant(np.eye(3))
    b = ad.constant(np.zeros(3))
    assert np.array_equal(ad.affine(x, w, b).value, x.value)


def test_affine_constant():
    x = ad.constant([[5.0, -1.0]])
    w = ad.constant(np.zeros((4, 2)))
    b = ad.constant([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(ad.affine(x, w, b).value, [[1.0, 2.0, 3.0, 4.0]])


def test_affine_matches_hand_multiply():
    rng = np.random.default_rng(0)
    xv, wv, bv = rng.normal(size=(1, 2)), rng.normal(size=(3, 2)), rng.normal(size=3)
    got = ad.affine(ad.constant(xv), ad.constant(wv), ad.constant(bv)).value
    want = np.array([[sum(wv[i, j] * xv[0, j] for j in range(2)) + bv[i] for i in range(3)]])
    assert np.allclose(got, want, atol=1e-15)


def test_affine_shape_mismatch_fatal():
    with pytest.raises(GradError):
        ad.affine(ad.constant(np.zeros((1, 3))), ad.constant(np.zeros((2, 4))), ad.constant(np.zeros(2)))


def test_backward_through_identity_affine():
    x = ad.parameter(np.array([[1.0, 2.0, 3.0]]))
    out = ad.total(ad.affine(x, ad.constant(np.eye(3)), ad.constant(np.zeros(3))))
    backward(out)
    assert np.array_equal(x.grad, np.ones((1, 3)))


def test_backward_requires_scalar():
    x = ad.parameter(np.ones((1, 3)))
    with pytest.raises(GradError):
        backward(ad.smul(x, 2.0))


def test_repeated_backward_accumulates():
    x = ad.parameter(np.array([[2.0]]))
    out = ad.total(ad.smul(x, 3.0))
    backward(out)
    backward(out)
    assert x.grad[0, 0] == 6.0


# ---------------------------------------------------------------------------
# no_grad
# ---------------------------------------------------------------------------

def test_no_grad_outputs_have_no_parents():
    w, b = ad.parameter(np.eye(2)), ad.parameter(np.zeros(2))
    with ad.no_grad():
        out = ad.total(ad.affine(ad.constant(np.ones((1, 2))), w, b))
    assert out.parents == () and out._backward is None
    assert out.value == 2.0


def test_backward_on_no_grad_graph_raises():
    w, b = ad.parameter(np.eye(2)), ad.parameter(np.zeros(2))
    with ad.no_grad():
        loss = ad.mean(ad.affine(ad.constant(np.ones((1, 2))), w, b))
    with pytest.raises(GradError):
        backward(loss)
    assert not w.grad.any()


def test_grad_mode_returns_after_exception():
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside")
    x = ad.parameter(np.ones(2))
    out = ad.total(x)
    assert out.parents == (x,)
    backward(out)
    assert np.array_equal(x.grad, np.ones(2))


# ---------------------------------------------------------------------------
# GRU sequence
# ---------------------------------------------------------------------------

def zero_gru(h, d_in):
    return GRUWeights(
        ad.parameter(np.zeros((3 * h, d_in))),
        ad.parameter(np.zeros((3 * h, h))),
        ad.parameter(np.zeros(3 * h)),
    )


def test_gru_zero_weights_zero_state():
    w = zero_gru(4, 3)
    out, _ = ad.gru_sequence(ad.constant(np.ones((2, 1, 3))), ad.constant(np.zeros((2, 4))), w)
    assert np.array_equal(out.value, np.zeros((2, 4)))


def test_gru_zero_weights_halves_state():
    w = zero_gru(4, 3)
    v = np.array([[1.0, -2.0, 0.5, 3.0]])
    out, _ = ad.gru_sequence(ad.constant(np.ones((1, 1, 3))), ad.constant(v), w)
    assert np.allclose(out.value, 0.5 * v, atol=1e-15)


def scalar_gru_oracle(x, h, w_x, w_h, b):
    """Step-by-step per-element recomputation with explicit gate slices."""
    hd = len(h)
    out = np.zeros(hd)
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))
    for i in range(hd):
        zx = sum(w_x[i, j] * x[j] for j in range(len(x))) + b[i]
        zh = sum(w_h[i, j] * h[j] for j in range(hd))
        z = sig(zx + zh)
        rx = sum(w_x[hd + i, j] * x[j] for j in range(len(x))) + b[hd + i]
        rh = sum(w_h[hd + i, j] * h[j] for j in range(hd))
        r = sig(rx + rh)
        nx = sum(w_x[2 * hd + i, j] * x[j] for j in range(len(x))) + b[2 * hd + i]
        nh = sum(w_h[2 * hd + i, j] * h[j] for j in range(hd))
        n = math.tanh(nx + r * nh)
        out[i] = (1.0 - z) * n + z * h[i]
    return out


def test_gru_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    d_in, hd = 3, 4
    w = GRUWeights(
        ad.constant(rng.normal(size=(3 * hd, d_in))),
        ad.constant(rng.normal(size=(3 * hd, hd))),
        ad.constant(rng.normal(size=3 * hd)),
    )
    x, h = rng.normal(size=d_in), rng.normal(size=hd)
    got = ad.gru_sequence(ad.constant(x[None, None]), ad.constant(h[None]), w)[0].value[0]
    want = scalar_gru_oracle(x, h, w.w_x.value, w.w_h.value, w.bias.value)
    assert np.allclose(got, want, atol=1e-12)


def test_gru_mask_passes_state_through():
    rng = np.random.default_rng(2)
    w = GRUWeights(
        ad.parameter(rng.normal(size=(12, 3))),
        ad.parameter(rng.normal(size=(12, 4))),
        ad.parameter(rng.normal(size=12)),
    )
    h = rng.normal(size=(2, 4))
    out, _ = ad.gru_sequence(ad.constant(rng.normal(size=(2, 1, 3))), ad.constant(h), w, mask=np.array([[0.0], [1.0]]))
    assert np.array_equal(out.value[0], h[0])
    assert not np.array_equal(out.value[1], h[1])
    # masked row contributes no gradient
    backward(ad.total(ad.cmul(out, np.array([[1.0], [0.0]]))))
    assert np.array_equal(w.w_x.grad, np.zeros_like(w.w_x.grad))


# rows end early, skip a middle step, are all padding, and run every step
RAGGED = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])


def random_gru(rng, d_in, hd):
    return GRUWeights(
        ad.parameter(rng.normal(size=(3 * hd, d_in))),
        ad.parameter(rng.normal(size=(3 * hd, hd))),
        ad.parameter(rng.normal(size=3 * hd)),
    )


def test_gru_sequence_matches_stepwise_oracle_on_ragged_masks():
    rng = np.random.default_rng(3)
    d_in, hd = 3, 4
    w = random_gru(rng, d_in, hd)
    x, h0 = rng.normal(size=(4, 4, d_in)), rng.normal(size=(4, hd))
    last, seq = ad.gru_sequence(ad.constant(x), ad.constant(h0), w, mask=RAGGED)
    for i in range(4):
        h = h0[i]
        for t in range(4):
            if RAGGED[i, t]:
                h = scalar_gru_oracle(x[i, t], h, w.w_x.value, w.w_h.value, w.bias.value)
            assert np.allclose(seq.value[i, t], h, atol=1e-12)
        assert np.allclose(last.value[i], h, atol=1e-12)
    assert np.array_equal(seq.value[2], np.repeat(h0[2:3], 4, axis=0))


def test_gru_sequence_gradient_finite_difference_on_ragged_masks():
    rng = np.random.default_rng(4)
    d_in, hd = 3, 4
    w = random_gru(rng, d_in, hd)
    x, h0 = ad.parameter(rng.normal(size=(4, 4, d_in))), ad.parameter(rng.normal(size=(4, hd)))
    c_seq, c_last = rng.normal(size=(4, 4, hd)), rng.normal(size=(4, hd))

    def build():
        last, seq = ad.gru_sequence(x, h0, w, mask=RAGGED)
        return ad.add(ad.total(ad.cmul(seq, c_seq)), ad.total(ad.cmul(last, c_last)))

    backward(build())
    params = [x, h0, w.w_x, w.w_h, w.bias]
    fds = numeric_grad(lambda: float(build().value), [p.value for p in params])
    for p, fd in zip(params, fds):
        assert rel_err(p.grad, fd) < 1e-6
    # padded steps take no gradient; the all-padding row hands its gradient straight to h0
    assert np.array_equal(x.grad[RAGGED == 0], np.zeros((int((RAGGED == 0).sum()), d_in)))
    assert np.allclose(h0.grad[2], c_seq[2].sum(axis=0) + c_last[2], atol=1e-12)


def test_gru_sequence_without_steps_returns_h0():
    w = random_gru(np.random.default_rng(5), 3, 4)
    h0 = ad.parameter(np.ones((2, 4)))
    last, seq = ad.gru_sequence(ad.constant(np.zeros((2, 0, 3))), h0, w, mask=np.zeros((2, 0)))
    assert last is h0
    assert seq.value.shape == (2, 0, 4)
    backward(ad.total(ad.concat_cols([last, ad.smul(last, 2.0)])))
    assert np.array_equal(h0.grad, np.full((2, 4), 3.0))
    assert np.array_equal(w.w_x.grad, np.zeros((12, 3)))


def test_gru_sequence_shape_mismatch_fatal():
    w = zero_gru(4, 3)
    with pytest.raises(GradError):
        ad.gru_sequence(ad.constant(np.zeros((2, 5, 2))), ad.constant(np.zeros((2, 4))), w)
    with pytest.raises(GradError):
        ad.gru_sequence(ad.constant(np.zeros((2, 5, 3))), ad.constant(np.zeros((2, 4))), w, mask=np.ones((2, 4)))


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embedding_returns_row():
    table = ad.constant(np.arange(12.0).reshape(4, 3))
    assert np.array_equal(ad.embedding(table, [0]).value, [[0.0, 1.0, 2.0]])


def test_embedding_of_index_grid_scatters_every_entry():
    table = ad.parameter(np.arange(12.0).reshape(4, 3))
    idx = np.array([[0, 2, 2], [3, 0, 2]])
    out = ad.embedding(table, idx)
    assert np.array_equal(out.value, table.value[idx])
    backward(ad.total(out))
    assert np.array_equal(table.grad[:, 0], [2.0, 0.0, 3.0, 1.0])


def test_embedding_out_of_range_fatal():
    table = ad.constant(np.zeros((4, 3)))
    with pytest.raises(GradError):
        ad.embedding(table, [4])


def test_embedding_gradient_is_one_hot_row():
    table = ad.parameter(np.ones((4, 3)))
    backward(ad.total(ad.embedding(table, [2])))
    want = np.zeros((4, 3))
    want[2] = 1.0
    assert np.array_equal(table.grad, want)


def test_repeated_lookup_doubles_gradient():
    table = ad.parameter(np.random.default_rng(3).normal(size=(4, 3)))

    def value():
        return float(ad.total(ad.embedding(table, [1, 1])).value)

    backward(ad.total(ad.embedding(table, [1, 1])))
    assert np.array_equal(table.grad[1], np.full(3, 2.0))
    (fd,) = numeric_grad(value, [table.value])
    assert rel_err(table.grad, fd) < 1e-6


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------

def test_uniform_logits_loss_is_log_k():
    for k in (2, 5, 17):
        loss = ad.softmax_xent(ad.constant(np.zeros((1, k))), [0], weights=[3.0])
        assert float(loss.value[0]) == pytest.approx(3.0 * math.log(k), abs=1e-12)


def test_zero_weight_zero_loss_and_grad():
    logits = ad.parameter(np.random.default_rng(4).normal(size=(1, 5)))
    loss = ad.total(ad.softmax_xent(logits, [2], weights=[0.0]))
    assert float(loss.value) == 0.0
    backward(loss)
    assert np.array_equal(logits.grad, np.zeros((1, 5)))


def test_xent_matches_direct_formula():
    rng = np.random.default_rng(5)
    z = rng.normal(size=3)
    loss = ad.softmax_xent(ad.constant(z[None]), [1])
    want = -math.log(math.exp(z[1]) / sum(math.exp(v) for v in z))
    assert float(loss.value[0]) == pytest.approx(want, abs=1e-12)


def test_softmax_probabilities_sum_to_one():
    rng = np.random.default_rng(6)
    p = ad.softmax(rng.normal(size=(7, 11)) * 20)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


@given(st.floats(min_value=-50, max_value=50))
def test_xent_shift_invariance(c):
    z = np.array([[0.3, -1.2, 2.0, 0.0]])
    a = ad.softmax_xent(ad.constant(z), [2]).value
    b = ad.softmax_xent(ad.constant(z + c), [2]).value
    assert np.allclose(a, b, atol=1e-9)


def test_xent_gradient_finite_difference():
    rng = np.random.default_rng(7)
    logits = ad.parameter(rng.normal(size=(3, 4)))
    w = np.array([1.0, 0.5, 2.0])

    def value():
        return float(ad.mean(ad.softmax_xent(logits, [0, 3, 1], weights=w)).value)

    backward(ad.mean(ad.softmax_xent(logits, [0, 3, 1], weights=w)))
    (fd,) = numeric_grad(value, [logits.value])
    assert rel_err(logits.grad, fd) < 1e-6


# ---------------------------------------------------------------------------
# circular absolute error
# ---------------------------------------------------------------------------

def test_circular_abs_values():
    pred = ad.constant(np.array([[0.99], [0.10], [0.50]]))
    got = ad.circular_abs(pred, np.array([0.01, 0.30, 0.50])).value
    assert np.allclose(got, [0.02, 0.20, 0.0], atol=1e-12)


def test_circular_abs_gradient():
    rng = np.random.default_rng(8)
    pred = ad.parameter(rng.uniform(0.05, 0.95, size=(4, 1)))
    t = rng.uniform(0, 1, size=4)

    def value():
        return float(ad.mean(ad.circular_abs(pred, t)).value)

    backward(ad.mean(ad.circular_abs(pred, t)))
    (fd,) = numeric_grad(value, [pred.value])
    assert rel_err(pred.grad, fd) < 1e-6


# ---------------------------------------------------------------------------
# composite finite-difference property
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_composite_gradient_check(seed):
    rng = np.random.default_rng(seed)
    d_in, hd, k = rng.integers(1, 5), rng.integers(1, 7), rng.integers(2, 6)
    w = GRUWeights(
        ad.parameter(rng.normal(size=(3 * hd, d_in))),
        ad.parameter(rng.normal(size=(3 * hd, hd))),
        ad.parameter(rng.normal(size=3 * hd)),
    )
    head_w = ad.parameter(rng.normal(size=(k, hd)))
    head_b = ad.parameter(rng.normal(size=k))
    xs = [rng.normal(size=(2, d_in)) for _ in range(3)]
    target = rng.integers(0, k, size=2)

    def build():
        h, _ = ad.gru_sequence(ad.constant(np.stack(xs, axis=1)), ad.constant(np.zeros((2, hd))), w)
        logits = ad.affine(h, head_w, head_b)
        return ad.mean(ad.softmax_xent(logits, target))

    loss = build()
    backward(loss)
    params = [w.w_x, w.w_h, w.bias, head_w, head_b]
    fds = numeric_grad(lambda: float(build().value), [p.value for p in params])
    for p, fd in zip(params, fds):
        assert rel_err(p.grad, fd) < 1e-4


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def adam_oracle_trace(theta0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Hand-rolled scalar Adam, the textbook update."""
    theta, m, v = theta0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(theta)
    return out


def test_adam_first_step_is_signed_lr():
    store = ParamStore(seed=0)
    t = store.add("w", (1,), init="zeros")
    t.value[0] = 1.0
    t.grad[0] = 123.456  # |g| >> eps
    store.adam_step(lr=0.01)
    assert t.value[0] == pytest.approx(1.0 - 0.01, rel=1e-6)
    assert store.step == 1
    assert t.grad[0] == 0.0  # gradients cleared


def test_adam_zero_gradient_keeps_parameter():
    store = ParamStore(seed=0)
    t = store.add("w", (2, 2), init="fanin")
    before = t.value.copy()
    store.adam_step(lr=0.1)
    assert np.array_equal(t.value, before)


def test_adam_three_step_trace_matches_oracle():
    grads = [0.7, -1.3, 0.25]
    store = ParamStore(seed=0)
    t = store.add("w", (1,), init="zeros")
    t.value[0] = 2.0
    got = []
    for g in grads:
        t.grad[0] = g
        store.adam_step(lr=0.05)
        got.append(float(t.value[0]))
    want = adam_oracle_trace(2.0, grads, lr=0.05)
    assert np.allclose(got, want, atol=1e-12)


def test_clip_global_norm():
    store = ParamStore(seed=0)
    a = store.add("a", (2,), init="zeros")
    b = store.add("b", (2,), init="zeros")
    a.grad[:] = [3.0, 0.0]
    b.grad[:] = [0.0, 4.0]
    norm = store.clip_global_norm(5.0)
    assert norm == pytest.approx(5.0)
    assert np.allclose(np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum()), 5.0)
    a.grad[:] = [30.0, 0.0]
    b.grad[:] = [0.0, 40.0]
    store.clip_global_norm(5.0)
    assert np.allclose(a.grad, [3.0, 0.0]) and np.allclose(b.grad, [0.0, 4.0])


# ---------------------------------------------------------------------------
# ParamStore init / checkpoints
# ---------------------------------------------------------------------------

def test_init_deterministic_and_bounded():
    s1, s2 = ParamStore(seed=9), ParamStore(seed=9)
    for s in (s1, s2):
        s.add("w", (5, 16))
        s.add("b", (16,))
    assert np.array_equal(s1["w"].value, s2["w"].value)
    assert np.abs(s1["w"].value).max() <= 1.0 / 4.0  # fan_in = 16
    assert np.abs(s1["b"].value).max() <= 1.0 / 4.0


def test_checkpoint_round_trip_bit_exact(tmp_path):
    store = ParamStore(seed=11)
    store.add("w", (3, 4))
    store.add("b", (4,))
    store["w"].grad[:] = 1.0
    store.adam_step(lr=0.01)
    meta = {"config_hash": "abc", "epoch": 3}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, meta)
    loaded, meta2 = load_checkpoint(path)
    assert meta2 == meta
    assert loaded.step == store.step and loaded.seed == store.seed
    for name in store.names():
        assert np.array_equal(loaded[name].value, store[name].value)
        assert np.array_equal(loaded.entries[name].m, store.entries[name].m)
        assert np.array_equal(loaded.entries[name].v, store.entries[name].v)
    # byte-identical re-serialization
    save_checkpoint(tmp_path / "again.ckpt", loaded, meta2)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
