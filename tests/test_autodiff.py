import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_ops import add, cmul, total
from nextloc import autodiff as ad
from nextloc.autodiff import GradError, GRUWeights, backward
from nextloc.model import BranchState
from nextloc.objective import LossWeights, total_loss
from nextloc.params import ADAM_BLOCK, CHECKPOINT_MAGIC, CheckpointError, ParamStore, load_checkpoint, save_checkpoint


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
    out = total(ad.affine(x, ad.constant(np.eye(3)), ad.constant(np.zeros(3))))
    backward(out)
    assert np.array_equal(x.grad, np.ones((1, 3)))


def test_backward_requires_scalar():
    x = ad.parameter(np.ones((1, 3)))
    with pytest.raises(GradError):
        backward(cmul(x, 2.0))


def test_repeated_backward_accumulates():
    x = ad.parameter(np.array([[2.0]]))
    out = total(cmul(x, 3.0))
    backward(out)
    backward(out)
    assert x.grad[0, 0] == 6.0


def test_shared_contribution_is_not_summed_in_place():
    # add hands one array to both parents: summing a's two contributions
    # into it in place would change b's too
    p = ad.parameter(np.array([1.0]))
    a, b = cmul(p, 2.0), cmul(p, 3.0)
    z = add(a, b)
    backward(total(add(z, a)))
    assert p.grad[0] == 7.0


def test_contribution_of_wrong_shape_raises():
    p = ad.parameter(np.zeros(3))
    out = ad.Tensor(np.array(0.0), parents=(p,), backward=lambda g: (np.ones(1),))
    with pytest.raises(GradError):
        backward(out)
    assert p.grad is None


# ---------------------------------------------------------------------------
# no_grad
# ---------------------------------------------------------------------------

def test_no_grad_outputs_have_no_parents():
    w, b = ad.parameter(np.eye(2)), ad.parameter(np.zeros(2))
    with ad.no_grad():
        out = total(ad.affine(ad.constant(np.ones((1, 2))), w, b))
    assert out.parents == () and out._backward is None
    assert out.value == 2.0


def test_backward_on_no_grad_graph_raises():
    w, b = ad.parameter(np.eye(2)), ad.parameter(np.zeros(2))
    with ad.no_grad():
        loss = total(ad.affine(ad.constant(np.ones((1, 2))), w, b))
    with pytest.raises(GradError):
        backward(loss)
    assert w.grad is None


def test_grad_mode_returns_after_exception():
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside")
    x = ad.parameter(np.ones(2))
    out = total(x)
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


def full(bsz, steps):
    """The packing of a batch whose every step is real."""
    return ad.Packing(np.ones((bsz, steps)))


def test_gru_zero_weights_zero_state():
    w = zero_gru(4, 3)
    out, _ = ad.gru_sequence(ad.constant(np.ones((2, 3))), ad.constant(np.zeros((2, 4))), w, full(2, 1))
    assert np.array_equal(out.value, np.zeros((2, 4)))


def test_gru_zero_weights_halves_state():
    w = zero_gru(4, 3)
    v = np.array([[1.0, -2.0, 0.5, 3.0]])
    out, _ = ad.gru_sequence(ad.constant(np.ones((1, 3))), ad.constant(v), w, full(1, 1))
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
    got = ad.gru_sequence(ad.constant(x[None]), ad.constant(h[None]), w, full(1, 1))[0].value[0]
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
    pack = ad.Packing(np.array([[0.0], [1.0]]))
    out, _ = ad.gru_sequence(ad.constant(pack.gather(rng.normal(size=(2, 1, 3)))), ad.constant(h), w, pack)
    assert np.array_equal(out.value[0], h[0])
    assert not np.array_equal(out.value[1], h[1])
    # masked row contributes no gradient
    backward(total(cmul(out, np.array([[1.0], [0.0]]))))
    assert np.array_equal(w.w_x.grad, np.zeros_like(w.w_x.grad))


# rows end early, are all padding, and run every step; two rows tie in length
RAGGED = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])


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
    pack = ad.Packing(RAGGED)
    last, seq = ad.gru_sequence(ad.constant(pack.gather(x)), ad.constant(h0), w, pack)
    pair = {(i, t): k for k, (i, t) in enumerate(zip(pack.rows, pack.cols))}
    assert seq.value.shape == (len(pair), hd) == (int(RAGGED.sum()), hd)
    for i in range(4):
        h = h0[i]
        for t in range(4):
            if RAGGED[i, t]:
                h = scalar_gru_oracle(x[i, t], h, w.w_x.value, w.w_h.value, w.bias.value)
                assert np.allclose(seq.value[pair[i, t]], h, atol=1e-12)
        assert np.allclose(last.value[i], h, atol=1e-12)
    assert np.array_equal(last.value[2], h0[2])


def check_gru_gradient(outputs):
    """Finite differences of a random linear functional of the GRU's
    `outputs`, "last" and/or "seq", on the ragged masks."""
    rng = np.random.default_rng(4)
    d_in, hd = 3, 4
    w = random_gru(rng, d_in, hd)
    pack = ad.Packing(RAGGED)
    x = ad.parameter(pack.gather(rng.normal(size=(4, 4, d_in))))
    h0 = ad.parameter(rng.normal(size=(4, hd)))
    c_seq, c_last = pack.gather(rng.normal(size=(4, 4, hd))), rng.normal(size=(4, hd))

    def build():
        last, seq = ad.gru_sequence(x, h0, w, pack)
        terms = {"last": total(cmul(last, c_last)), "seq": total(cmul(seq, c_seq))}
        loss = terms[outputs[0]]
        for o in outputs[1:]:
            loss = add(loss, terms[o])
        return loss

    backward(build())
    params = [x, h0, w.w_x, w.w_h, w.bias]
    # at eps 1e-4, truncation errs by up to 2e-6 relative on the last-only loss's small x entries
    fds = numeric_grad(lambda: float(build().value), [p.value for p in params], eps=1e-5)
    for p, fd in zip(params, fds):
        assert rel_err(p.grad, fd) < 1e-6
    # padded steps have no input rows
    assert x.grad.shape == (int(RAGGED.sum()), d_in)
    return h0, c_last


def test_gru_sequence_gradient_finite_difference_on_ragged_masks():
    h0, c_last = check_gru_gradient(("seq", "last"))
    # the all-padding row hands its gradient straight to h0
    assert np.array_equal(h0.grad[2], c_last[2])


@pytest.mark.parametrize("output", ["last", "seq"])
def test_gru_sequence_gradient_finite_difference_through_one_output(output):
    h0, c_last = check_gru_gradient((output,))
    assert np.array_equal(h0.grad[2], c_last[2] if output == "last" else np.zeros(4))


def test_gru_sequence_without_steps_returns_h0():
    w = random_gru(np.random.default_rng(5), 3, 4)
    h0 = ad.parameter(np.ones((2, 4)))
    last, seq = ad.gru_sequence(ad.constant(np.zeros((0, 3))), h0, w, ad.Packing(np.zeros((2, 0))))
    assert np.array_equal(last.value, h0.value)
    assert seq.value.shape == (0, 4)
    backward(total(ad.concat_cols([last, cmul(last, 2.0)])))
    assert np.array_equal(h0.grad, np.full((2, 4), 3.0))
    assert np.array_equal(w.w_x.grad, np.zeros((12, 3)))
    assert np.array_equal(w.w_h.grad, np.zeros((12, 4))) and np.array_equal(w.bias.grad, np.zeros(12))


def test_gru_sequence_shape_mismatch_fatal():
    w = zero_gru(4, 3)
    with pytest.raises(GradError):
        ad.gru_sequence(ad.constant(np.zeros((10, 2))), ad.constant(np.zeros((2, 4))), w, full(2, 5))
    with pytest.raises(GradError):
        ad.gru_sequence(ad.constant(np.zeros((10, 3))), ad.constant(np.zeros((3, 4))), w, full(2, 5))


def test_constant_h0_takes_no_gradient():
    rng = np.random.default_rng(6)
    w = random_gru(rng, 3, 4)
    pack = ad.Packing(RAGGED)
    x, h0 = ad.parameter(pack.gather(rng.normal(size=(4, 4, 3)))), ad.constant(np.zeros((4, 4)))
    last, seq = ad.gru_sequence(x, h0, w, pack)
    backward(add(total(last), total(seq)))
    assert h0.grad is None
    for p in (x, w.w_x, w.w_h, w.bias):
        assert p.grad.any()


def long_chain(bsz=4, steps=500, d_in=8, hd=64):
    """A GRU over many more (row, step) pairs than rows: N = bsz * steps."""
    rng = np.random.default_rng(7)
    pack = full(bsz, steps)
    x = ad.constant(rng.normal(size=(pack.size, d_in)))
    return x, ad.constant(rng.normal(size=(bsz, hd))), random_gru(rng, d_in, hd), pack


def traced_bytes(work):
    """(bytes still held after `work()`, peak bytes above the start during
    it, its result), as tracemalloc counts them."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = work()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - start, peak - start, out


SLACK = 64 * 1024  # graph nodes, closures and small index arrays


def test_gru_forward_keeps_gates_states_and_un_h_only():
    x, h0, w, pack = long_chain()
    n, bsz, hd = pack.size, pack.batch, w.hidden
    held, _, _ = traced_bytes(lambda: ad.gru_sequence(x, h0, w, pack))
    # (3N) gates + (B + N) states + (N) U_n h, and the (B, H) final states
    assert held <= 8 * ((5 * n + bsz) * hd + bsz * hd) + SLACK


def test_gru_backward_allocates_the_state_gradient_and_dx_only():
    x, h0, w, pack = long_chain()
    n, bsz, hd, d_in = pack.size, pack.batch, w.hidden, x.shape[1]
    _, seq = ad.gru_sequence(x, h0, w, pack)
    loss = total(seq)
    _, peak, _ = traced_bytes(lambda: backward(loss))
    weights = w.w_x.value.size + w.w_h.value.size + w.bias.value.size
    # dh (B + N, H), dx and one (N, in) product being added to it, each
    # weight gradient and its parts, and (B, H) scratch per step
    assert peak <= 8 * ((bsz + n) * hd + 2 * n * d_in + 2 * weights + 8 * bsz * hd) + SLACK


def test_backward_through_the_final_state_allocates_no_more_than_through_the_states():
    x, h0, w, pack = long_chain()
    bsz, hd = pack.batch, w.hidden
    backward(total(ad.gru_sequence(x, h0, w, pack)[0]))  # numpy's first-call allocations stay out of the peaks
    peaks = {}
    for output in ("last", "seq"):
        last, seq = ad.gru_sequence(x, h0, w, pack)
        loss = total(last if output == "last" else seq)
        del last, seq
        _, peaks[output], _ = traced_bytes(lambda: backward(loss))
    # the final-state gradient goes straight into the state gradient's rows
    assert peaks["last"] <= peaks["seq"] + 8 * bsz * hd + SLACK


def test_backward_through_both_outputs_allocates_no_more_than_through_the_states():
    x, h0, w, pack = long_chain()
    bsz, hd = pack.batch, w.hidden
    backward(total(ad.gru_sequence(x, h0, w, pack)[0]))  # numpy's first-call allocations stay out of the peaks
    peaks = {}
    for outputs in (("seq",), ("last", "seq")):
        last, seq = ad.gru_sequence(x, h0, w, pack)
        loss = total(seq)
        if "last" in outputs:
            loss = add(total(last), loss)
        del last, seq
        _, peaks[outputs], _ = traced_bytes(lambda: backward(loss))
    # the states' gradient goes into the state gradient as it is; only (B, H) arrays are summed
    assert peaks[("last", "seq")] <= peaks[("seq",)] + 8 * bsz * hd + SLACK


def test_no_grad_chain_without_states_holds_memory_independent_of_its_pairs():
    peaks = {}
    for steps in (500, 2000):
        x, h0, w, pack = long_chain(steps=steps)
        with ad.no_grad():
            ad.gru_sequence(x, h0, w, pack, states=False)  # numpy's first-call allocations stay out of the peaks
            _, peaks[pack.size], _ = traced_bytes(lambda: ad.gru_sequence(x, h0, w, pack, states=False))
    bsz, hd = pack.batch, w.hidden
    chunk_rows = 3 * ad.GRU_CHUNK_PAIRS // 2 + bsz  # a merged remainder, and a step past the budget
    assert peaks[4 * 2000] <= peaks[2000] + SLACK
    # one (3, chunk, H) gate buffer, the U.T copy, two (B, H) state blocks,
    # (3, B, H) and (B, H) step buffers and the (B, H) final states
    assert peaks[4 * 2000] <= 8 * ((3 * chunk_rows + 7 * bsz) * hd + w.w_h.value.size) + SLACK


def test_second_backward_through_a_gru_graph_raises_and_changes_no_gradient():
    rng = np.random.default_rng(8)
    w = random_gru(rng, 3, 4)
    pack = ad.Packing(RAGGED)
    x, h0 = ad.parameter(pack.gather(rng.normal(size=(4, 4, 3)))), ad.parameter(rng.normal(size=(4, 4)))
    head_w, head_b = ad.parameter(rng.normal(size=(2, 4))), ad.parameter(rng.normal(size=2))
    last, seq = ad.gru_sequence(x, h0, w, pack)
    loss = add(total(ad.affine(last, head_w, head_b)), total(seq))
    backward(loss)
    params = [x, h0, w.w_x, w.w_h, w.bias, head_w, head_b]
    before = [p.grad.copy() for p in params]
    with pytest.raises(GradError, match="already backpropagated"):
        backward(loss)
    for p, g in zip(params, before):
        assert np.array_equal(p.grad, g)


def test_first_contribution_to_an_unallocated_gradient_adds_to_zeros():
    eager = ad.parameter(np.zeros(3))
    eager.grad = np.zeros(3)
    lazy = ad.parameter(np.zeros(3))
    assert lazy.requires_grad and lazy.grad is None
    for p in (eager, lazy):
        backward(total(cmul(p, np.array([-0.0, 1.0, -2.0]))))
    assert np.array_equal(lazy.grad, eager.grad) and not np.signbit(lazy.grad[0])  # 0.0 + -0.0 is 0.0
    backward(total(cmul(lazy, np.array([-0.0, 1.0, -2.0]))))
    assert np.array_equal(lazy.grad, [0.0, 2.0, -4.0])


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embedding_returns_row():
    table = ad.constant(np.arange(12.0).reshape(4, 3))
    assert np.array_equal(ad.concat_embeddings([(table, [0])]).value, [[0.0, 1.0, 2.0]])


def test_embedding_of_index_grid_scatters_every_entry():
    table = ad.parameter(np.arange(12.0).reshape(4, 3))
    idx = np.array([[0, 2, 2], [3, 0, 2]])
    out = ad.concat_embeddings([(table, idx)])
    assert np.array_equal(out.value, table.value[idx])
    backward(total(out))
    assert np.array_equal(table.grad[:, 0], [2.0, 0.0, 3.0, 1.0])


def test_embedding_out_of_range_fatal():
    table, other = ad.constant(np.zeros((4, 3))), ad.constant(np.zeros((2, 1)))
    with pytest.raises(GradError, match="out of range"):
        ad.concat_embeddings([(table, [4])])
    with pytest.raises(GradError, match="out of range"):
        ad.concat_embeddings([(table, [0, 3]), (other, [1, -1])])
    with pytest.raises(GradError, match="differ in shape"):
        ad.concat_embeddings([(table, [0, 3]), (other, [1])])


def test_embedding_gradient_is_one_hot_row():
    table = ad.parameter(np.ones((4, 3)))
    backward(total(ad.concat_embeddings([(table, [2])])))
    want = np.zeros((4, 3))
    want[2] = 1.0
    assert np.array_equal(table.grad, want)


def test_repeated_lookup_doubles_gradient():
    table = ad.parameter(np.random.default_rng(3).normal(size=(4, 3)))

    def value():
        return float(total(ad.concat_embeddings([(table, [1, 1])])).value)

    backward(total(ad.concat_embeddings([(table, [1, 1])])))
    assert np.array_equal(table.grad[1], np.full(3, 2.0))
    (fd,) = numeric_grad(value, [table.value])
    assert rel_err(table.grad, fd) < 1e-6


def lookup_reference(table, idx):
    """One table's rows as its own node, the gradient scattered back with
    np.add.at: the per-table lookup that `concat_embeddings` replaces."""
    idx = np.asarray(idx, dtype=np.intp)

    def bw(g):
        dt = np.zeros_like(table.value)
        np.add.at(dt, idx, g)
        return (dt,)

    return ad.Tensor(table.value[idx], parents=(table,), backward=bw)


def record_lookups(rng, n=40):
    """Five tables shaped as the model's, one with a single row (the shared
    row of data without categories), and index arrays with many repeats."""
    shapes = [(6, 4), (1, 3), (24, 2), (7, 3), (3, 2)]
    tables = [ad.parameter(rng.normal(size=s)) for s in shapes]
    return [(t, rng.integers(0, t.shape[0], size=n)) for t in tables]


def test_concat_embeddings_equals_per_table_lookups_and_concat():
    rng = np.random.default_rng(13)
    lookups = record_lookups(rng)
    lookups[0][1][5:35] = 2  # one row gathered 30 times, its gradient summed over all of them
    c = rng.normal(size=(40, 14))
    c[::3, 0] = -0.0  # -0.0 gradient entries, which np.array_equal would not tell from 0.0
    fused = ad.concat_embeddings(lookups)
    backward(total(cmul(fused, c)))
    got = [t.grad for t, _ in lookups]
    for t, _ in lookups:
        t.grad = None
    ref = ad.concat_cols([lookup_reference(t, i) for t, i in lookups])
    backward(total(cmul(ref, c)))
    assert fused.value.tobytes() == ref.value.tobytes()
    for g, (t, _) in zip(got, lookups):
        assert g.tobytes() == t.grad.tobytes()


def test_concat_embeddings_gradient_finite_difference():
    rng = np.random.default_rng(14)
    lookups = record_lookups(rng, n=12)
    c = rng.normal(size=(12, 14))

    def build():
        return total(cmul(ad.concat_embeddings(lookups), c))

    backward(build())
    tables = [t for t, _ in lookups]
    fds = numeric_grad(lambda: float(build().value), [t.value for t in tables])
    for t, fd in zip(tables, fds):
        assert rel_err(t.grad, fd) < 1e-6


# ---------------------------------------------------------------------------
# the training objective node, `objective.total_loss`
# ---------------------------------------------------------------------------

def line_coords(k):
    """k locations about 1.1 km apart on a north-south line."""
    return [(40.70 + 0.01 * i, -74.00) for i in range(k)]


def heads_of(loc, t=None, cat=None) -> BranchState:
    return BranchState(*(None if a is None else ad.parameter(np.asarray(a, dtype=np.float64)) for a in (t, cat, loc)))


def test_uniform_logits_loss_is_log_k():
    for k in (2, 5, 17):
        # the tied argmax is index 0, the location target: no spatial term
        state = heads_of(np.zeros((1, k)), cat=np.zeros((1, k)))
        _, bd = total_loss(state, np.zeros(1), np.array([k - 1]), np.array([0]), LossWeights(0.0, 3.0, 10.0),
                           line_coords(k))
        assert bd.loc == pytest.approx(math.log(k), abs=1e-12)
        assert bd.cat == pytest.approx(math.log(k), abs=1e-12)
        assert bd.spatial == 0.0
        assert bd.total == pytest.approx(4.0 * math.log(k), abs=1e-12)


def test_zero_weight_zero_loss_and_grad():
    rng = np.random.default_rng(4)
    state = heads_of(rng.normal(size=(2, 3)), t=rng.uniform(size=(2, 1)), cat=rng.normal(size=(2, 5)))
    node, bd = total_loss(state, np.array([0.1, 0.7]), np.array([2, 4]), np.array([0, 1]),
                          LossWeights(0.0, 0.0, 0.0), line_coords(3))
    assert bd.total == bd.loc
    backward(node)
    assert np.array_equal(state.t_hat.grad, np.zeros((2, 1)))
    assert np.array_equal(state.cat_logits.grad, np.zeros((2, 5)))


def test_xent_matches_direct_formula():
    rng = np.random.default_rng(5)
    z, zc = rng.normal(size=3), rng.normal(size=4)
    _, bd = total_loss(heads_of(z[None], cat=zc[None]), np.zeros(1), np.array([3]), np.array([1]), LossWeights(),
                       line_coords(3))
    assert bd.loc == pytest.approx(-math.log(math.exp(z[1]) / sum(math.exp(v) for v in z)), abs=1e-12)
    assert bd.cat == pytest.approx(-math.log(math.exp(zc[3]) / sum(math.exp(v) for v in zc)), abs=1e-12)


def test_softmax_probabilities_sum_to_one():
    """Without the spatial term a row's gradient is (softmax - one-hot) / B."""
    rng = np.random.default_rng(6)
    n, k = 7, 11
    state = heads_of(rng.normal(size=(n, k)) * 20)
    targets = rng.integers(0, k, size=n)
    node, _ = total_loss(state, np.zeros(n), np.zeros(n, dtype=int), targets, LossWeights(lambda_s=0.0),
                         line_coords(k))
    backward(node)
    p = state.loc_logits.grad * n
    p[np.arange(n), targets] += 1.0
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert p.min() >= 0.0 and p.max() <= 1.0


@given(st.floats(min_value=-50, max_value=50))
def test_xent_shift_invariance(c):
    z, zc = np.array([[0.3, -1.2, 2.0]]), np.array([[0.3, -1.2, 2.0, 0.0]])

    def breakdown(shift):
        state = heads_of(z + shift, t=[[0.3]], cat=zc + shift)
        bd = total_loss(state, np.array([0.9]), np.array([2]), np.array([1]), LossWeights(), line_coords(3))[1]
        return [bd.loc, bd.cat, bd.spatial, bd.total]

    assert np.allclose(breakdown(0.0), breakdown(c), atol=1e-9)


def check_loss_gradient(has_t, has_cat, lambda_s):
    """Finite differences of total_loss over every active head."""
    rng = np.random.default_rng(7)
    n = 4
    state = heads_of(rng.normal(size=(n, 3)), t=rng.uniform(0.05, 0.95, size=(n, 1)) if has_t else None,
                     cat=rng.normal(size=(n, 5)) if has_cat else None)
    target_t = np.zeros(n)
    if has_t:  # errors away from 0 and 1/2, where the wrapped error has kinks
        target_t = (state.t_hat.value.reshape(-1) + rng.uniform(0.1, 0.4, n) * rng.choice([-1, 1], n)) % 1.0
    targets = (target_t, rng.integers(0, 5, n), np.array([0, 2, 1, 2]))
    weights = LossWeights(2.0, 3.0, lambda_s)

    def value():
        return float(total_loss(state, *targets, weights, line_coords(3))[0].value)

    backward(total_loss(state, *targets, weights, line_coords(3))[0])
    heads = [h for h in (state.loc_logits, state.t_hat, state.cat_logits) if h is not None]
    for h, fd in zip(heads, numeric_grad(value, [h.value for h in heads], eps=1e-5)):
        assert rel_err(h.grad, fd) < 1e-6


def test_xent_gradient_finite_difference():
    for has_cat in (False, True):
        for lambda_s in (0.0, 10.0):
            check_loss_gradient(False, has_cat, lambda_s)


def test_circular_abs_values():
    for pred, target, want in ((0.99, 0.01, 0.02), (0.10, 0.30, 0.20), (0.50, 0.50, 0.0)):
        _, bd = total_loss(heads_of([[1.0, 0.0, 0.0]], t=[[pred]]), np.array([target]), np.array([0]),
                           np.array([0]), LossWeights(), line_coords(3))
        assert bd.time == pytest.approx(want, abs=1e-12)


def test_circular_abs_gradient():
    for has_cat in (False, True):
        for lambda_s in (0.0, 10.0):
            check_loss_gradient(True, has_cat, lambda_s)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_composite_gradient_check(seed):
    rng = np.random.default_rng(seed)
    d_in, hd, k, kc = rng.integers(1, 5), rng.integers(1, 7), rng.integers(2, 6), rng.integers(2, 4)
    w = GRUWeights(
        ad.parameter(rng.normal(size=(3 * hd, d_in))),
        ad.parameter(rng.normal(size=(3 * hd, hd))),
        ad.parameter(rng.normal(size=3 * hd)),
    )
    heads = {name: (ad.parameter(rng.normal(size=(m, hd))), ad.parameter(rng.normal(size=m)))
             for name, m in (("t", 1), ("cat", kc), ("loc", k))}
    xs = [rng.normal(size=(2, d_in)) for _ in range(3)]
    targets = (rng.uniform(0, 1, size=2), rng.integers(0, kc, size=2), rng.integers(0, k, size=2))

    def build():
        h, _ = ad.gru_sequence(ad.constant(np.concatenate(xs)), ad.constant(np.zeros((2, hd))), w, full(2, 3))
        state = BranchState(*(ad.affine(h, *heads[name]) for name in ("t", "cat", "loc")))
        return total_loss(state, *targets, LossWeights(lambda_s=0.0), line_coords(k))[0]

    backward(build())
    params = [w.w_x, w.w_h, w.bias] + [p for pair in heads.values() for p in pair]
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
    t.grad = np.array([123.456])  # |g| >> eps
    store.adam_step(lr=0.01)
    assert t.value[0] == pytest.approx(1.0 - 0.01, rel=1e-6)
    assert store.step == 1
    assert t.grad is None  # gradients released


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
        t.grad = np.array([g])
        store.adam_step(lr=0.05)
        got.append(float(t.value[0]))
    want = adam_oracle_trace(2.0, grads, lr=0.05)
    assert np.allclose(got, want, atol=1e-12)


def test_adam_in_place_update_is_bit_identical_to_textbook():
    check_adam_against_textbook({"w": (3, 5), "b": (5,), "e": (7, 2)})


def test_blocked_adam_update_is_bit_identical_to_textbook():
    """A tensor several Adam blocks long, one ending mid-block, and a
    tensor smaller than a block."""
    assert 300 * 350 > 3 * ADAM_BLOCK and (300 * 350) % ADAM_BLOCK
    check_adam_against_textbook({"w": (300, 350), "b": (5,), "e": (ADAM_BLOCK + 1,)})


def test_adam_on_a_none_gradient_is_bit_identical_to_zero_gradient_textbook():
    """A step that leaves a gradient None, with moments from earlier steps,
    and one tensor that never gets a gradient."""
    check_adam_against_textbook({"w": (3, 5), "b": (5,), "e": (7, 2)}, none_at={("w", 2), ("b", 2), ("b", 3)}
                                | {("e", t) for t in range(1, 4)})


def check_adam_against_textbook(shapes, none_at=frozenset()):
    """Three Adam steps against the textbook update; (name, step) pairs in
    `none_at` leave that gradient None, which the textbook reads as zeros."""
    store = ParamStore(seed=0)
    for name, shape in shapes.items():
        store.add(name, shape)
    want = {n: (store[n].value.copy(), np.zeros(shape), np.zeros(shape)) for n, shape in shapes.items()}
    rng = np.random.default_rng(12)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    for t in range(1, 4):
        for n, shape in shapes.items():
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-9, 3, size=shape)
            if (n, t) in none_at:
                g = np.zeros(shape)
            else:
                store[n].grad = g.copy()
            theta, m, v = want[n]
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            want[n] = (theta - lr * m_hat / (np.sqrt(v_hat) + eps), m, v)
        store.adam_step(lr=lr, beta1=b1, beta2=b2, eps=eps)
        for n in shapes:
            theta, m, v = want[n]
            assert np.array_equal(store[n].value, theta)
            assert np.array_equal(store.entries[n].m, m) and np.array_equal(store.entries[n].v, v)
            assert store[n].grad is None


def test_clip_global_norm():
    store = ParamStore(seed=0)
    a = store.add("a", (2,), init="zeros")
    b = store.add("b", (2,), init="zeros")
    a.grad = np.array([3.0, 0.0])
    b.grad = np.array([0.0, 4.0])
    norm = store.clip_global_norm(5.0)
    assert norm == pytest.approx(5.0)
    assert np.allclose(np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum()), 5.0)
    a.grad = np.array([30.0, 0.0])
    b.grad = np.array([0.0, 40.0])
    store.clip_global_norm(5.0)
    assert np.allclose(a.grad, [3.0, 0.0]) and np.allclose(b.grad, [0.0, 4.0])


def test_grad_norm_matches_the_sum_of_squares():
    rng = np.random.default_rng(11)
    store = ParamStore(seed=0)
    for name, shape in (("w", (382, 36)), ("b", (382,)), ("t", (5, 7)), ("unused", (3,))):
        store.add(name, shape, init="zeros")
    for name in ("w", "b", "t"):
        store[name].grad = rng.normal(size=store[name].shape) * 10.0 ** rng.integers(-3, 4)
    want = float(np.sqrt(sum(float((g ** 2).sum()) for g in (store[n].grad for n in ("w", "b", "t")))))
    assert abs(store.grad_norm() - want) <= 1e-12 * want


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
    store["w"].grad = np.ones((3, 4))
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


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path):
    store = ParamStore(seed=3)
    store.add("w", (3, 4))
    store.add("b", (4,))
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, store, {"epoch": 1})
    before = path.read_bytes()
    store.entries["b"].v = np.array(["not a number"] * 4, dtype=object)  # fails after "w" is written
    with pytest.raises(ValueError):
        save_checkpoint(path, store, {"epoch": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]


def checkpoint_with_shape(shape, n_bytes: int = 3 * 6 * 8) -> bytes:
    """A version-1 checkpoint of one tensor whose header claims `shape`,
    followed by `n_bytes` zero bytes, by default enough for three
    six-value arrays."""
    header = {"version": 1, "step": 0, "seed": 0, "meta": {}, "tensors": [{"name": "w", "shape": shape}]}
    blob = json.dumps(header).encode("utf-8")
    return CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob + bytes(n_bytes)


def checkpoint_listing_w_twice() -> bytes:
    """A version-1 checkpoint whose header lists tensor `w` (one value) twice."""
    tensors = [{"name": "w", "shape": [1]}] * 2
    header = {"version": 1, "step": 0, "seed": 0, "meta": {}, "tensors": tensors}
    blob = json.dumps(header).encode("utf-8")
    return CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob + bytes(2 * 3 * 8)


def test_checkpoint_listing_a_tensor_twice_rejected(tmp_path):
    path = tmp_path / "twice.ckpt"
    path.write_bytes(checkpoint_listing_w_twice())
    with pytest.raises(CheckpointError, match="tensor w is listed twice"):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [[-2, -3], [-1, 2], [0, -1]])
def test_checkpoint_with_negative_dimension_rejected(tmp_path, shape):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(checkpoint_with_shape(shape))
    with pytest.raises(CheckpointError, match="negative dimensions"):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [[10**12], [2**40, 2**40], [2**62, 4]])
def test_checkpoint_declaring_more_bytes_than_the_file_rejected(tmp_path, shape):
    path = tmp_path / "huge.ckpt"
    path.write_bytes(checkpoint_with_shape(shape, n_bytes=64))
    with pytest.raises(CheckpointError, match="truncated tensor w: declares"):
        load_checkpoint(path)


@pytest.mark.parametrize("n", [10**12, 2**63 + 5])
def test_checkpoint_declaring_a_header_longer_than_the_file_rejected(tmp_path, n):
    path = tmp_path / "huge.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + n.to_bytes(8, "little") + b"{}")
    with pytest.raises(CheckpointError, match=f"header declares {n} bytes, 2 left"):
        load_checkpoint(path)


def saved_store(tmp_path):
    """A checkpoint of a store with a multi-block, a one-element and an
    empty tensor, after one Adam step; returns the store and the file."""
    store = ParamStore(seed=5)
    store.add("w", (300, 350))
    store.add("s", (1,))
    store.add("e", (0, 4), init="zeros")
    store.add("b", (4,))
    for n in store.names():
        store[n].grad = np.full(store[n].shape, 0.5)
    store.adam_step(lr=0.01)
    path = tmp_path / "store.ckpt"
    save_checkpoint(path, store, {"epoch": 2})
    return store, path


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    store, path = saved_store(tmp_path)
    loaded, meta = load_checkpoint(path)
    for n in store.names():
        a, b = store.entries[n], loaded.entries[n]
        assert b.tensor.value.shape == a.tensor.value.shape and b.tensor.value.flags.writeable
        assert np.array_equal(a.tensor.value, b.tensor.value)
        assert np.array_equal(a.m, b.m) and np.array_equal(a.v, b.v)
    save_checkpoint(tmp_path / "again.ckpt", loaded, meta)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_loaded_store_has_no_gradient_buffers_and_reads_them_as_zero(tmp_path):
    store, path = saved_store(tmp_path)
    loaded, _ = load_checkpoint(path)
    assert all(loaded[n].grad is None and loaded[n].requires_grad for n in loaded.names())
    assert loaded.grad_norm() == 0.0 == store.grad_norm()
    assert loaded.clip_global_norm(1.0) == 0.0
    for s in (store, loaded):
        s.adam_step(lr=0.01)
    for n in store.names():
        a, b = store.entries[n], loaded.entries[n]
        assert np.array_equal(a.tensor.value, b.tensor.value)
        assert np.array_equal(a.m, b.m) and np.array_equal(a.v, b.v)
        assert a.tensor.grad is None and b.tensor.grad is None


def test_values_only_load_skips_the_moments_and_refuses_training(tmp_path):
    store, path = saved_store(tmp_path)
    loaded, meta = load_checkpoint(path, moments=False)
    assert meta == {"epoch": 2} and loaded.step == store.step and loaded.seed == store.seed
    assert loaded.names() == store.names()
    for n in store.names():
        e = loaded.entries[n]
        assert np.array_equal(e.tensor.value, store[n].value) and e.tensor.value.flags.writeable
        assert e.m is None and e.v is None and e.tensor.grad is None
    with pytest.raises(CheckpointError, match="without its Adam moments"):
        save_checkpoint(tmp_path / "again.ckpt", loaded, meta)
    assert not list(tmp_path.glob("*again.ckpt*"))
    with pytest.raises(CheckpointError, match="without its Adam moments"):
        loaded.adam_step(lr=0.01)
    assert loaded.step == store.step
    for n in store.names():
        assert np.array_equal(loaded[n].value, store[n].value)


def test_values_only_load_checks_the_declared_sizes(tmp_path):
    _, path = saved_store(tmp_path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match="truncated tensor b"):
        load_checkpoint(path, moments=False)


def test_checkpoint_with_truncated_final_tensor_rejected(tmp_path):
    _, path = saved_store(tmp_path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match="truncated tensor b"):
        load_checkpoint(path)


def test_checkpoint_with_trailing_bytes_rejected(tmp_path):
    _, path = saved_store(tmp_path)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(CheckpointError, match="trailing bytes after the last tensor"):
        load_checkpoint(path)
