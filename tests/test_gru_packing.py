"""The packed `gru_sequence` against a full-rectangle masked recurrence.

`reference_gru` is the algorithm `gru_sequence` used before it ran only on
real steps: every step computes all B rows, the mask blends the new state
with the old one, and backpropagation through time runs over the whole
(B, T) rectangle with masked rows passing their gradient through. Packing
must give the same states and gradients up to summation order.
"""

import numpy as np
import pytest

from nextloc import autodiff as ad
from nextloc.autodiff import GRUWeights, backward


def sigmoid(v):
    return 0.5 * (1.0 + np.tanh(0.5 * v))


def reference_gru(x, h0, w_x, w_h, b, mask, g_last, g_seq):
    """States (B, T, H) and the gradients of sum(g_seq * states) +
    sum(g_last * final state) for x, h0, w_x, w_h and b."""
    bsz, steps, d_in = x.shape
    hd = h0.shape[1]
    keep = np.ones((steps, bsz, 1)) if mask is None else np.asarray(mask, dtype=np.float64).T[:, :, None]
    gx = (x.reshape(-1, d_in) @ w_x.T + b).reshape(bsz, steps, 3 * hd)
    hs = np.empty((steps + 1, bsz, hd))
    hs[0] = h0
    zr = np.empty((steps, bsz, 2 * hd))
    n = np.empty((steps, bsz, hd))
    hn = np.empty((steps, bsz, hd))
    for t in range(steps):
        h = hs[t]
        gh = h @ w_h.T
        zr[t] = sigmoid(gx[:, t, : 2 * hd] + gh[:, : 2 * hd])
        z, r = zr[t, :, :hd], zr[t, :, hd:]
        hn[t] = gh[:, 2 * hd:]
        n[t] = np.tanh(gx[:, t, 2 * hd:] + r * hn[t])
        h_new = (1.0 - z) * n[t] + z * h
        hs[t + 1] = h_new * keep[t] + h * (1.0 - keep[t])

    g = g_seq.copy()
    g[:, -1] += g_last
    dgx = np.empty((bsz, steps, 3 * hd))
    dgh = np.empty((steps, bsz, 3 * hd))
    dh = np.zeros((bsz, hd))
    for t in reversed(range(steps)):
        dh += g[:, t]
        z, r = zr[t, :, :hd], zr[t, :, hd:]
        d_new = dh * keep[t]
        dn = d_new * (1.0 - n[t] * n[t]) * (1.0 - z)
        dgh[t, :, :hd] = d_new * (hs[t] - n[t]) * z * (1.0 - z)
        dgh[t, :, hd: 2 * hd] = dn * hn[t] * r * (1.0 - r)
        dgh[t, :, 2 * hd:] = dn * r
        dgx[:, t, : 2 * hd] = dgh[t, :, : 2 * hd]
        dgx[:, t, 2 * hd:] = dn
        dh = d_new * z + dgh[t] @ w_h + dh * (1.0 - keep[t])
    rows = dgx.reshape(-1, 3 * hd)
    grads = {
        "x": (rows @ w_x).reshape(bsz, steps, d_in),
        "h0": dh,
        "w_x": rows.T @ x.reshape(-1, d_in),
        "w_h": dgh.reshape(-1, 3 * hd).T @ hs[:-1].reshape(-1, hd),
        "b": rows.sum(axis=0),
    }
    return hs[1:].transpose(1, 0, 2), grads


def assert_close(got, want):
    scale = max(np.abs(want).max(), 1e-300)
    assert np.abs(got - want).max() <= 1e-12 * scale


HOLES = np.array([[1, 0, 1, 1, 0], [1, 1, 0, 0, 1], [0, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=float)
EMPTY_STEP = np.array([[1, 1, 0, 1, 0], [1, 0, 0, 1, 1], [1, 1, 0, 0, 0], [1, 1, 0, 1, 1]], dtype=float)
EMPTY_ROW = np.array([[1, 1, 1, 0, 0], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [1, 0, 0, 0, 0]], dtype=float)
CASES = {
    "holes": (4, HOLES),
    "empty-step": (4, EMPTY_STEP),
    "empty-row": (4, EMPTY_ROW),
    "no-mask": (4, None),
    "one-row": (1, np.array([[1, 1, 0, 1, 0]], dtype=float)),
    "one-row-no-mask": (1, None),
}


@pytest.mark.parametrize("case", list(CASES))
def test_packed_gru_matches_full_rectangle_reference(case):
    bsz, mask = CASES[case]
    rng = np.random.default_rng(sorted(CASES).index(case))
    steps, d_in, hd = 5, 3, 4
    w = GRUWeights(
        ad.parameter(rng.normal(size=(3 * hd, d_in))),
        ad.parameter(rng.normal(size=(3 * hd, hd))),
        ad.parameter(rng.normal(size=3 * hd)),
    )
    x, h0 = ad.parameter(rng.normal(size=(bsz, steps, d_in))), ad.parameter(rng.normal(size=(bsz, hd)))
    g_seq, g_last = rng.normal(size=(bsz, steps, hd)), rng.normal(size=(bsz, hd))

    last, seq = ad.gru_sequence(x, h0, w, mask)
    backward(ad.add(ad.total(ad.cmul(seq, g_seq)), ad.total(ad.cmul(last, g_last))))
    want_seq, want = reference_gru(x.value, h0.value, w.w_x.value, w.w_h.value, w.bias.value, mask, g_last, g_seq)

    assert_close(seq.value, want_seq)
    assert_close(last.value, want_seq[:, -1])
    for name, tensor in (("x", x), ("h0", h0), ("w_x", w.w_x), ("w_h", w.w_h), ("b", w.bias)):
        assert_close(tensor.grad, want[name])
    if mask is not None:
        assert not x.grad[mask == 0].any()


def test_non_binary_mask_rejected():
    rng = np.random.default_rng(0)
    w = GRUWeights(*(ad.parameter(rng.normal(size=s)) for s in ((12, 3), (12, 4), (12,))))
    with pytest.raises(ad.GradError):
        ad.gru_sequence(ad.constant(np.zeros((2, 3, 3))), ad.constant(np.zeros((2, 4))), w,
                        mask=np.array([[1.0, 0.5, 0.0], [1.0, 1.0, 1.0]]))


def test_no_grad_gru_keeps_no_graph_and_same_states():
    rng = np.random.default_rng(7)
    w = GRUWeights(*(ad.parameter(rng.normal(size=s)) for s in ((12, 3), (12, 4), (12,))))
    x, h0 = ad.parameter(rng.normal(size=(4, 5, 3))), ad.parameter(rng.normal(size=(4, 4)))
    last, seq = ad.gru_sequence(x, h0, w, HOLES)
    with ad.no_grad():
        last_ng, seq_ng = ad.gru_sequence(x, h0, w, HOLES)
    assert np.array_equal(last.value, last_ng.value) and np.array_equal(seq.value, seq_ng.value)
    for out in (last_ng, seq_ng):
        assert out.parents == () and out._backward is None
    assert last_ng.value.base is None  # the final state does not pin the (T, B, H) buffer
