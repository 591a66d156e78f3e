"""Reverse-mode differentiation over numpy arrays, one graph node per layer.

A `Tensor` holds a float64 value, the tensors it was computed from
(`parents`) and a closure (`_backward`) that maps the gradient `g` of its
value to one contribution per parent: an array of that parent's shape, or
None for no contribution. `backward` replays the closures in reverse
topological order and is the only place where gradients are summed. A
parameter's contributions are added straight into its `.grad`, so repeated
calls add up until the buffer is released; an interior node's are summed
into a new array before its own closure runs; a constant's are dropped. A
contribution whose shape differs from its parent's raises `GradError`. A
closure may return views of `g`, or one array for two parents, so neither
`g` nor a returned contribution is ever modified in place.

A parameter's `.grad` is None until a `backward` first reaches it: that
call allocates zeros and adds the contribution to them, so every sum is the
same bit for bit as with a zeroed buffer (-0.0 included). Nothing else
allocates gradient buffers, and `ParamStore.adam_step` (or `zero_grad`)
releases them, so in training they exist only from a step's `backward` to
its update.

A graph holding a `gru_sequence` chain can be backpropagated once: the
chain's node writes its gate gradients over the gate buffers the forward
saved. A second `backward` through such a graph raises `GradError` before
any `.grad` changes. Graphs without one still accumulate on every call.

Inside a `no_grad()` block no graph is recorded: an operation's output has
no parents and no backward closure, so inference keeps none of the buffers
a backward pass would read, and `backward` on such an output raises
`GradError`. There a GRU chain whose per-pair states are not asked for
holds O((chunk + B) H) floats for B rows at hidden size H, whatever its
length: one chunk of gates and two blocks of states.

The operations are the few the recurrent predictor needs. A `Packing` lists
the real (row, step) pairs of a batch of left-aligned sequences step by
step, each step's rows longest first, and sequences are stored packed over
it, one (N, dim) row per real pair: padding is never embedded, run or
stored. `gru_sequence` runs a whole GRU chain over a packed sequence as one
node, its final states, with the input projection hoisted out of the
recurrence into gate-major gate blocks, one chunk of whole steps at a time,
so each step's gate math runs on contiguous blocks, each step's previous
states a slice of the previous step's, and hand-written backpropagation
through time over the same blocks.
`concat_embeddings` builds the chains' inputs, one node per sequence, and
`concat_cols` and `affine` build the heads. The training objective over the
heads is one node too, `objective.total_loss`.

Conventions: sequences are packed time-major (N, dim); weight matrices are
(out, in) and applied as ``x @ W.T``; no general broadcasting.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_grad_enabled = True

GRU_CHUNK_PAIRS = 1024  # real pairs per input-projection chunk of a GRU chain (whole steps; see `_projection_chunks`)


@contextmanager
def no_grad():
    """Record no graph inside the block; the previous mode comes back on
    exit, also when the block raises."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    """Whether operations record a graph: False inside `no_grad`."""
    return _grad_enabled


class GradError(Exception):
    pass


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        if not _grad_enabled:
            parents, backward = (), None
        self.parents = parents
        self._backward = backward
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self):
        return self.value.shape


def constant(value) -> Tensor:
    return Tensor(value)


def parameter(value) -> Tensor:
    return Tensor(value, requires_grad=True)


def _topo_order(root: Tensor) -> list[Tensor]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Add d(loss)/d(parameter) into every reachable parameter's .grad.
    A node runs after all its consumers, so one may read what a consumer's
    backward stored, as a GRU chain's node reads its per-pair states'."""
    if loss.value.size != 1:
        raise GradError(f"backward requires a scalar, got shape {loss.shape}")
    if loss._backward is None and not loss.requires_grad:
        raise GradError("backward needs a recorded graph; this value was computed under no_grad or from constants")
    order = _topo_order(loss)
    if any(node._backward is _spent for node in order):
        raise GradError("this graph was already backpropagated through a GRU node, whose saved buffers "
                        "now hold gradients; run the forward again")
    grads: dict[int, np.ndarray] = {}

    def receive(node: Tensor, c: np.ndarray) -> None:
        if c.shape != node.value.shape:
            raise GradError(f"gradient of shape {c.shape} for a value of shape {node.shape}")
        if node.requires_grad:
            if node.grad is None:
                node.grad = np.zeros_like(node.value)
            node.grad += c
        elif node._backward is not None:
            prior = grads.get(id(node))
            grads[id(node)] = c if prior is None else prior + c  # never in place: c may be shared

    receive(loss, np.ones_like(loss.value))
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is not None:
            bw = node._backward
            if getattr(bw, "single_use", False):
                node._backward = _spent
            for parent, c in zip(node.parents, bw(g), strict=True):
                if c is not None:
                    receive(parent, c)


def _spent(g):
    raise GradError("backward through a spent GRU node")


def _single_use(bw):
    """Mark a backward closure that overwrites the buffers it reads, so
    `backward` runs it at most once."""
    bw.single_use = True
    return bw


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fully connected layer: x (B, n), w (m, n), b (m,) -> x @ W.T + b."""
    if (x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[1]
            or b.value.shape != w.value.shape[:1]):
        raise GradError(f"affine shape mismatch: {x.shape} x {w.shape} + {b.shape}")

    def bw(g):
        return g @ w.value, g.T @ x.value, g.sum(axis=0)

    return Tensor(x.value @ w.value.T + b.value, parents=(x, w, b), backward=bw)


def concat_cols(xs: list[Tensor]) -> Tensor:
    """Concatenate along the last axis; the leading shapes must agree."""
    offsets = np.cumsum([0] + [x.value.shape[-1] for x in xs])

    def bw(g):
        return tuple(g[..., lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:]))

    return Tensor(np.concatenate([x.value for x in xs], axis=-1), parents=tuple(xs), backward=bw)


def concat_embeddings(lookups: list[tuple[Tensor, np.ndarray]]) -> Tensor:
    """The rows of each table at its integer index array, concatenated along
    the last axis in `lookups` order: one node of shape idx.shape + (sum of
    the tables' widths,), written block by block with no per-table node.
    The index arrays must share one shape. The backward scatters each
    column block of the gradient into its table's rows."""
    tables = tuple(t for t, _ in lookups)
    idxs = [np.asarray(i, dtype=np.intp) for _, i in lookups]
    shape = idxs[0].shape
    for t, i in zip(tables, idxs):
        if i.shape != shape:
            raise GradError(f"embedding index arrays differ in shape: {i.shape} vs {shape}")
        if i.size and (i.min() < 0 or i.max() >= t.value.shape[0]):
            raise GradError(f"embedding index out of range for table {t.shape}")
    offsets = np.cumsum([0] + [t.value.shape[1] for t in tables])
    out = np.empty(shape + (offsets[-1],))
    for t, i, lo, hi in zip(tables, idxs, offsets[:-1], offsets[1:]):
        out[..., lo:hi] = t.value[i]

    def bw(g):
        grads = []
        for t, i, lo, hi in zip(tables, idxs, offsets[:-1], offsets[1:]):
            # cell (i, j) of a table is flat bin i * width + j; bincount sums each
            # bin's entries in index order from 0.0, as np.add.at does, bit for bit
            width = hi - lo
            cells = (i.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
            dt = np.bincount(cells, weights=g[..., lo:hi].reshape(-1), minlength=t.value.size)
            grads.append(dt.reshape(t.value.shape))
        return grads

    return Tensor(out, parents=tables, backward=bw)


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------

@dataclass
class GRUWeights:
    """Gate weights stored fused along the first axis, ordered z, r, n:
    w_x (3H, in), w_h (3H, H), bias (3H,)."""

    w_x: Tensor
    w_h: Tensor
    bias: Tensor

    @property
    def hidden(self) -> int:
        return self.w_h.value.shape[1]


class Packing:
    """Left-aligned sequences of a (B, T) mask, packed by length.

    Each mask row must be 1s then 0s; anything else (a hole, a value other
    than 0 and 1) raises `GradError`. `order` lists the rows longest first,
    ties by row index, and each step lists its real rows in that order, so
    step t's rows are the first rows of step t - 1's, as in PyTorch's
    `pack_padded_sequence` and cuDNN's packed RNNs. Row k of a packed
    (N, ...) array belongs to pair k = (rows[k], cols[k]); step t's pairs
    are off[t]:off[t+1], and row b has `lengths[b]` of them. A GRU keeps
    its states in one (B + N, H) array: h0 in `order`, then the state after
    each pair; `last[b]` is the row of batch row b's final state, its h0
    row when the row is empty.
    """

    def __init__(self, mask):
        m = np.asarray(mask, dtype=np.float64)
        if m.ndim != 2:
            raise GradError(f"a sequence mask must be (B, T), got shape {m.shape}")
        self.batch, self.steps = m.shape
        lengths = np.count_nonzero(m == 1.0, axis=1)
        if not (m == (np.arange(self.steps) < lengths[:, None])).all():
            raise GradError("a sequence mask must be 1s then 0s in every row")
        self.lengths = lengths
        self.order = np.argsort(-lengths, kind="stable")
        per_step = np.count_nonzero(m, axis=0)
        self.off = np.concatenate(([0], np.cumsum(per_step)))
        self.cols = np.repeat(np.arange(self.steps), per_step)
        self.rows = self.order[np.arange(self.off[-1]) - self.off[self.cols]]
        block = np.concatenate(([0], self.batch + self.off[:-1]))  # state row of h0's block, then each step's
        self.last = np.empty(self.batch, dtype=np.intp)
        self.last[self.order] = block[lengths[self.order]] + np.arange(self.batch)

    @property
    def size(self) -> int:
        return len(self.rows)

    def gather(self, a) -> np.ndarray:
        """The entries of a (B, T, ...) array at the real pairs: (N, ...)."""
        return np.asarray(a)[self.rows, self.cols]


def _projection_chunks(off, steps: int, budget: int) -> list[int]:
    """Step bounds of consecutive chunks of whole steps, for a chain whose
    step t holds pairs off[t]:off[t+1]. A chunk ends at the first step
    boundary at or past `budget` pairs, and a remainder under half the budget
    joins the previous chunk, so every chunk holds at least half the budget
    or is the whole sequence."""
    n_pairs, bounds = off[-1], [0]
    while n_pairs - off[bounds[-1]] > budget:
        bounds.append(int(np.searchsorted(off, off[bounds[-1]] + budget)))
    if len(bounds) > 1 and 2 * (n_pairs - off[bounds[-1]]) < budget:
        bounds.pop()
    return bounds + [steps]


def gru_sequence(x: Tensor, h0: Tensor, w: GRUWeights, pack: Packing, *,
                 states: bool = True) -> tuple[Tensor, Tensor | None]:
    """Run one GRU from h0 (B, H) over x (N, in), the inputs of `pack`'s real
    pairs. Returns the final state of every row (B, H), and the state after
    every pair, packed (N, H), or None with `states=False`. A row without
    real pairs ends in its h0 row; with no pairs at all the final states are
    h0's, and the weights take a zero gradient, so that every weight holds a
    gradient after a backward, also when a batch has no history.

    Each step computes z = sig(Wz x + Uz h + bz), r = sig(Wr x + Ur h + br),
    n = tanh(Wn x + r * (Un h) + bn) and h' = (1 - z) * n + z * h on the rows
    real at that step; the other rows keep their state, so padding is never
    computed and takes no gradient.

    Layout: the input projection is hoisted out of the recurrence, one
    product per gate over a chunk of whole steps of about `GRU_CHUNK_PAIRS`
    pairs, into gate-major (3, pairs, H) blocks, so a step's z, r and n are
    contiguous (rows, H) blocks that the gate math updates in place. Each
    step's rows lead the previous step's, so a step reads its previous
    states as a slice of the previous step's block, runs its recurrent
    product into a preallocated buffer and writes its new states to the
    next block. With a graph recorded, the chunks fill one (3, N, H) gate
    array and the states live in one (B + N, H) array, h0 first in
    `pack.order`: the forward keeps the gates, the states and `U_n h` of
    every pair, (5N + B) H floats. Under `no_grad` every chunk reuses one
    gate buffer; with `states=False` the states alternate between two
    (B, H) blocks, which never overwrite a finished row's final state, since
    later steps write only longer rows. Such a chain holds
    O((chunk + B) H) floats besides its input, whatever N. Both modes issue
    the same products, so they give the same bits.

    Backpropagation through time visits the same blocks in reverse and
    writes each step's gate gradients over the buffers that step saved,
    which no later step reads: d(U h) for z, r and n over the gates, and
    d(W_n x) over `U_n h`. Its only (N, H) allocation is the state
    gradient; each step adds its previous states' gradient into the
    previous block's rows, and then, its own rows being dead, copies its
    previous states into them for `dW_h`'s single product. The weight and
    bias gradients are one product or sum per gate over all pairs, and `dx`
    is one (N, in) product per gate. Having overwritten its buffers, the
    node can be backpropagated only once.

    The final states are the GRU's node, and its backward is the BPTT,
    which adds their gradient into the state gradient's rows that hold each
    batch row's final state. The per-pair states are a node over the final
    states, read only by the hierarchical variant. Its backward keeps its
    (N, H) gradient for the BPTT and hands the final states a (B, H) zero,
    so they run after it; where nothing reads the per-pair states, their
    node is not in the graph at all.
    """
    bsz, n_pairs, hd = pack.batch, pack.size, w.hidden
    if (x.value.ndim != 2 or x.value.shape[0] != n_pairs or h0.value.shape != (bsz, hd)
            or w.w_x.value.shape != (3 * hd, x.value.shape[1]) or w.w_h.value.shape != (3 * hd, hd)
            or w.bias.value.shape != (3 * hd,)):
        raise GradError(f"gru_sequence shape mismatch: x {x.shape} for {n_pairs} pairs, h0 {h0.shape}, "
                        f"w_x {w.w_x.shape}")
    d_in = x.value.shape[1]
    off, order = pack.off, pack.order
    record = _grad_enabled
    two_blocks = not (record or states)
    # step t writes its states at state row `write[t]` and reads its previous states at `read[t]`
    if two_blocks:  # step t writes block (t + 1) % 2, so a row of length L ends in block L % 2
        write = bsz * ((np.arange(pack.steps) + 1) % 2)
        last = np.empty(bsz, dtype=np.intp)
        last[order] = bsz * (pack.lengths[order] % 2) + np.arange(bsz)
    else:
        write, last = bsz + off[:-1], pack.last
    read = np.concatenate(([0], write[:-1]))
    bounds = _projection_chunks(off, pack.steps, GRU_CHUNK_PAIRS)
    wx = w.w_x.value.reshape(3, hd, d_in)
    wx_t, bias = wx.transpose(0, 2, 1), w.bias.value.reshape(3, 1, hd)
    wh = w.w_h.value.reshape(3, hd, hd)
    wh_t = np.ascontiguousarray(wh.transpose(0, 2, 1))  # U_k.T per gate; contiguous runs the per-step products faster

    # gates[:, k] starts as W x + b of pair k and becomes its (z, r, n); under
    # no_grad it holds one chunk at a time, so pair k sits at row k - base
    gate_rows = n_pairs if record else max(off[hi] - off[lo] for lo, hi in zip(bounds[:-1], bounds[1:]))
    gates = np.empty((3, gate_rows, hd))
    hs = np.empty((2 * bsz if two_blocks else bsz + n_pairs, hd))
    hs[:bsz] = h0.value[order]
    un_h = np.empty((n_pairs, hd)) if record else None
    uh = np.empty((3, bsz, hd))
    scratch = np.empty((bsz, hd))
    for c_lo, c_hi in zip(bounds[:-1], bounds[1:]):
        base = 0 if record else off[c_lo]
        a, b = off[c_lo], off[c_hi]
        chunk = gates[:, a - base: b - base]
        np.matmul(x.value[a:b], wx_t, out=chunk)
        chunk += bias
        for t in range(c_lo, c_hi):
            lo, hi = off[t], off[t + 1]
            if lo == hi:
                break
            h, tmp = hs[read[t]: read[t] + hi - lo], scratch[: hi - lo]
            u = uh[:, : hi - lo]
            np.matmul(h, wh_t, out=u)
            g_lo, g_hi = lo - base, hi - base
            zr, z, r, n = gates[:2, g_lo:g_hi], gates[0, g_lo:g_hi], gates[1, g_lo:g_hi], gates[2, g_lo:g_hi]
            zr += u[:2]
            zr *= 0.5
            np.tanh(zr, out=zr)
            zr += 1.0
            zr *= 0.5  # sig(v) = (1 + tanh(v / 2)) / 2
            if record:
                un_h[lo:hi] = u[2]
            u[2] *= r
            n += u[2]
            np.tanh(n, out=n)
            h_new = hs[write[t]: write[t] + hi - lo]
            np.subtract(1.0, z, out=h_new)
            h_new *= n
            h_new += np.multiply(z, h, out=tmp)

    states_grad = None  # the gradient the per-pair states received, for the BPTT below

    @_single_use
    def bw_final(g):
        nonlocal states_grad
        dh = np.zeros((bsz + n_pairs, hd))  # d(loss)/d(state), h0 rows first
        if states_grad is not None:
            dh[bsz:] = states_grad
            states_grad = None
        dh[last] += g                      # distinct rows; a row without pairs ends in its h0 row
        uh = np.empty((3, bsz, hd))
        scratch = np.empty((4, bsz, hd))
        for t in reversed(range(pack.steps)):
            lo, hi = off[t], off[t + 1]
            if lo == hi:
                continue
            z, r, n, unh = gates[0, lo:hi], gates[1, lo:hi], gates[2, lo:hi], un_h[lo:hi]
            d_new, h_prev = dh[bsz + lo: bsz + hi], hs[read[t]: read[t] + hi - lo]
            h, s, dn, d_prev = scratch[:, : hi - lo]
            np.multiply(n, n, out=s)
            np.subtract(1.0, s, out=s)
            np.multiply(d_new, s, out=dn)
            np.subtract(1.0, z, out=s)
            dn *= s                        # d(W_n x) = d_new (1 - n^2) (1 - z)
            np.multiply(d_new, z, out=d_prev)
            np.subtract(h_prev, n, out=h)
            h *= d_new
            h *= z
            np.multiply(h, s, out=z)       # d(U_z h) = d_new (h - n) z (1 - z)
            np.multiply(dn, r, out=n)      # d(U_n h) = dn r
            np.multiply(dn, unh, out=h)
            h *= r
            np.subtract(1.0, r, out=s)
            np.multiply(h, s, out=r)       # d(U_r h) = dn (U_n h) r (1 - r)
            unh[...] = dn
            u = uh[:, : hi - lo]
            np.matmul(gates[:, lo:hi], wh, out=u)
            d_prev += u[0]
            d_prev += u[1]
            d_prev += u[2]
            dh[read[t]: read[t] + hi - lo] += d_prev
            d_new[...] = h_prev            # this step's state gradient is dead; dW_h reads the previous states
        dgx = (gates[0], gates[1], un_h)   # d(loss)/d(W x) per gate
        dx = dgx[0] @ wx[0]
        dx += dgx[1] @ wx[1]
        dx += dgx[2] @ wx[2]
        dh0 = np.empty((bsz, hd))
        dh0[order] = dh[:bsz]
        return (
            dx,
            dh0,
            np.concatenate([d.T @ x.value for d in dgx]),
            np.matmul(gates.transpose(0, 2, 1), dh[bsz:]).reshape(3 * hd, hd),
            np.concatenate([d.sum(axis=0) for d in dgx]),
        )

    final = Tensor(hs[last], parents=(x, h0, w.w_x, w.w_h, w.bias), backward=bw_final)
    if not states:
        return final, None

    def bw_states(g):
        nonlocal states_grad
        states_grad = g
        return (np.full((bsz, hd), -0.0),)  # x + -0.0 is x bit for bit, -0.0 included

    return final, Tensor(hs[bsz:], parents=(final,), backward=bw_states)
