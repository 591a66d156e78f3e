"""The packed `gru_sequence` against a full-rectangle masked recurrence.

`reference_gru` is the algorithm `gru_sequence` used before it ran only on
real steps: every step computes all B rows, the mask blends the new state
with the old one, and backpropagation through time runs over the whole
(B, T) rectangle with masked rows passing their gradient through. The
masks are left-aligned, 1s then 0s in every row, as `Packing` requires; it
packs each step's real rows longest first. Packing must give the same
states and gradients at the real (row, step) pairs up to summation order;
the packed layout has no padded positions, so the reference's output
gradient is zero there.
"""

import numpy as np
import pytest

from graph_ops import add, cmul, total
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


MIXED_LENGTHS = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 0, 0], [1, 1, 1, 1, 0], [1, 1, 1, 0, 0]], dtype=float)
EMPTY_TRAILING_STEP = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 0, 0], [1, 1, 0, 0, 0], [1, 1, 1, 1, 0]], dtype=float)
EMPTY_ROW = np.array([[1, 1, 1, 0, 0], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [1, 0, 0, 0, 0]], dtype=float)
CASES = {
    "mixed-lengths": (4, MIXED_LENGTHS),
    "empty-trailing-step": (4, EMPTY_TRAILING_STEP),
    "empty-row": (4, EMPTY_ROW),
    "no-mask": (4, None),
    "one-row": (1, np.array([[1, 1, 1, 0, 0]], dtype=float)),
    "one-row-no-mask": (1, None),
}


def packing(bsz, steps, mask):
    return ad.Packing(np.ones((bsz, steps)) if mask is None else mask)


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
    x_full, h0 = rng.normal(size=(bsz, steps, d_in)), ad.parameter(rng.normal(size=(bsz, hd)))
    g_seq, g_last = rng.normal(size=(bsz, steps, hd)), rng.normal(size=(bsz, hd))
    pack = packing(bsz, steps, mask)
    real = np.zeros((bsz, steps), dtype=bool)
    real[pack.rows, pack.cols] = True
    g_seq[~real] = 0.0
    x = ad.parameter(pack.gather(x_full))

    last, seq = ad.gru_sequence(x, h0, w, pack)
    backward(add(total(cmul(seq, pack.gather(g_seq))), total(cmul(last, g_last))))
    want_seq, want = reference_gru(x_full, h0.value, w.w_x.value, w.w_h.value, w.bias.value, mask, g_last, g_seq)

    assert_close(seq.value, pack.gather(want_seq))
    assert_close(last.value, want_seq[:, -1])
    assert_close(x.grad, pack.gather(want["x"]))
    for name, tensor in (("h0", h0), ("w_x", w.w_x), ("w_h", w.w_h), ("b", w.bias)):
        assert_close(tensor.grad, want[name])


def test_non_binary_mask_rejected():
    with pytest.raises(ad.GradError):
        ad.Packing(np.array([[1.0, 0.5, 0.0], [1.0, 1.0, 1.0]]))


@pytest.mark.parametrize("mask", [[[1, 0, 1]], [[0, 1, 1], [1, 1, 1]], [[1, 1, 0, 1, 0]]])
def test_mask_with_a_hole_rejected(mask):
    with pytest.raises(ad.GradError, match="1s then 0s"):
        ad.Packing(np.array(mask, dtype=float))


def test_steps_list_longest_rows_first_and_last_indexes_final_states():
    lengths = np.array([2, 0, 3, 2, 1])
    pack = ad.Packing(np.arange(3) < lengths[:, None])
    assert pack.order.tolist() == [2, 0, 3, 4, 1]  # ties keep row order
    assert pack.off.tolist() == [0, 4, 7, 8]
    steps = [pack.rows[lo:hi].tolist() for lo, hi in zip(pack.off[:-1], pack.off[1:])]
    assert steps == [[2, 0, 3, 4], [2, 0, 3], [2]]
    assert pack.cols.tolist() == [0, 0, 0, 0, 1, 1, 1, 2]
    # state rows: h0 in `order` (0-4), then the pairs (5-12)
    assert pack.last.tolist() == [10, 4, 12, 11, 8]

    rng = np.random.default_rng(9)
    w = GRUWeights(*(ad.constant(rng.normal(size=s)) for s in ((12, 3), (12, 4), (12,))))
    h0 = rng.normal(size=(5, 4))
    last, seq = ad.gru_sequence(ad.constant(rng.normal(size=(pack.size, 3))), ad.constant(h0), w, pack)
    for b, n in enumerate(lengths):
        if n:
            k = pack.last[b] - pack.batch
            assert (pack.rows[k], pack.cols[k]) == (b, n - 1)
            assert np.array_equal(last.value[b], seq.value[k])
        else:
            assert pack.order[pack.last[b]] == b
            assert np.array_equal(last.value[b], h0[b])


def test_input_rows_must_match_the_packing():
    rng = np.random.default_rng(0)
    w = GRUWeights(*(ad.parameter(rng.normal(size=s)) for s in ((12, 3), (12, 4), (12,))))
    pack = ad.Packing(MIXED_LENGTHS)  # 13 real pairs
    with pytest.raises(ad.GradError):
        ad.gru_sequence(ad.constant(np.zeros((MIXED_LENGTHS.size, 3))), ad.constant(np.zeros((4, 4))), w, pack)
    with pytest.raises(ad.GradError):
        ad.gru_sequence(ad.constant(np.zeros((pack.size - 1, 3))), ad.constant(np.zeros((4, 4))), w, pack)


def test_no_grad_gru_keeps_no_graph_and_same_states():
    rng = np.random.default_rng(7)
    w = GRUWeights(*(ad.parameter(rng.normal(size=s)) for s in ((12, 3), (12, 4), (12,))))
    pack = ad.Packing(MIXED_LENGTHS)
    x, h0 = ad.parameter(pack.gather(rng.normal(size=(4, 5, 3)))), ad.parameter(rng.normal(size=(4, 4)))
    last, seq = ad.gru_sequence(x, h0, w, pack)
    with ad.no_grad():
        last_ng, seq_ng = ad.gru_sequence(x, h0, w, pack)
    assert np.array_equal(last.value, last_ng.value) and np.array_equal(seq.value, seq_ng.value)
    for out in (last_ng, seq_ng):
        assert out.parents == () and out._backward is None
    assert last_ng.value.base is None  # the final state does not pin the state buffer


# lengths 9, 7, 7, 3, 1, 0: steps of 5, 4, 4, 3, 3, 3, 3, 1 and 1 pairs, 27 in all
CHUNKED = np.arange(9) < np.array([9, 7, 7, 3, 1, 0])[:, None]


def test_projection_chunks_are_whole_steps_of_about_the_budget():
    pack = ad.Packing(CHUNKED)
    assert pack.off.tolist() == [0, 5, 9, 13, 16, 19, 22, 25, 26, 27]
    # with 5 pairs a chunk: step 2 (pairs 9-13) straddles pair 10, so its chunk
    # ends after it, and the 2-pair remainder (steps 7 and 8) joins the last chunk
    assert ad._projection_chunks(pack.off, pack.steps, 5) == [0, 1, 3, 5, 9]
    assert ad._projection_chunks(pack.off, pack.steps, 6) == [0, 2, 4, 6, 9]
    assert ad._projection_chunks(pack.off, pack.steps, 27) == [0, 9]
    empty = ad.Packing(np.zeros((2, 3)))
    assert ad._projection_chunks(empty.off, empty.steps, 5) == [0, 3]


@pytest.mark.parametrize("states", [True, False])
def test_no_grad_chain_over_several_chunks_gives_the_recorded_bits(monkeypatch, states):
    rng = np.random.default_rng(11)
    w = GRUWeights(*(ad.parameter(rng.normal(size=s)) for s in ((12, 3), (12, 4), (12,))))
    pack = ad.Packing(CHUNKED)
    x, h0 = ad.parameter(rng.normal(size=(pack.size, 3))), ad.parameter(rng.normal(size=(6, 4)))
    one_chunk, one_chunk_seq = ad.gru_sequence(x, h0, w, pack)
    monkeypatch.setattr(ad, "GRU_CHUNK_PAIRS", 5)
    last, seq = ad.gru_sequence(x, h0, w, pack)
    with ad.no_grad():
        last_ng, seq_ng = ad.gru_sequence(x, h0, w, pack, states=states)
    assert last_ng.value.tobytes() == last.value.tobytes()
    if states:
        assert seq_ng.value.tobytes() == seq.value.tobytes()
    else:
        assert seq_ng is None
    assert last_ng.value.base is None  # the final states own their memory, not a view of a state block
    assert np.array_equal(last.value[5], h0.value[5])  # the empty row ends in its h0
    assert_close(last.value, one_chunk.value)
    assert_close(seq.value, one_chunk_seq.value)


def test_recorded_chain_without_states_backpropagates_as_with_them():
    rng = np.random.default_rng(12)
    w = GRUWeights(*(ad.parameter(rng.normal(size=s)) for s in ((12, 3), (12, 4), (12,))))
    pack = ad.Packing(CHUNKED)
    x, h0 = ad.parameter(rng.normal(size=(pack.size, 3))), ad.parameter(rng.normal(size=(6, 4)))
    grads = []
    for states in (True, False):
        last, seq = ad.gru_sequence(x, h0, w, pack, states=states)
        assert (seq is None) == (not states) and last.value.base is None
        backward(total(last))
        grads.append([t.grad.copy() for t in (x, h0, w.w_x, w.w_h, w.bias)])
        for t in (x, h0, w.w_x, w.w_h, w.bias):
            t.grad = None
    for a, b in zip(*grads):
        assert a.tobytes() == b.tobytes()
