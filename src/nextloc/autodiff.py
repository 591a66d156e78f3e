"""Reverse-mode differentiation over numpy arrays, one graph node per layer.

A `Tensor` holds a float64 value, the tensors it was computed from
(`parents`) and a closure (`_backward`) that maps the gradient `g` of its
value to one contribution per parent: an array of that parent's shape, or
None for no contribution. `backward` replays the closures in reverse
topological order and is the only place where gradients are summed. A
parameter's contributions are added straight into its `.grad`, so repeated
calls without `zero_grad` add up; an interior node's are summed into a new
array before its own closure runs; a constant's are dropped. A contribution
whose shape differs from its parent's raises `GradError`. A closure may
return views of `g`, or one array for two parents, so neither `g` nor a
returned contribution is ever modified in place.

A parameter's `.grad` may be None until its first contribution: `backward`
then allocates zeros and adds the contribution to them, so the sum is the
same bit for bit as with an eagerly zeroed buffer (-0.0 included).
`parameter` still zeroes eagerly; loaded and cloned parameter stores leave
the buffer to `backward`.

A graph holding a `gru_sequence` node can be backpropagated once: that
node's backward writes its gate gradients over the gate buffers the forward
saved. A second `backward` through such a graph raises `GradError` before
any `.grad` changes. Graphs without one still accumulate on every call.

Inside a `no_grad()` block no graph is recorded: an operation's output has
no parents and no backward closure, so inference keeps none of the buffers
a backward pass would read, and `backward` on such an output raises
`GradError`.

The operations are the few the recurrent predictor needs. A `Packing` lists
the real (row, step) pairs of a padded batch's 0/1 mask in time-major order,
and sequences are stored packed over it, one (N, dim) row per real pair:
padding is never embedded, run or stored. `gru_sequence` runs a whole GRU
chain over a packed sequence as one node, with the input projection hoisted
out of the recurrence, gate-major (3, N, H) gate buffers so each step's gate
math runs on contiguous blocks, and hand-written backpropagation through
time over the same blocks. `embedding`, `concat_cols` and `affine` build the
chains' inputs and the heads; `softmax_xent`, `circular_abs`, `cmul`,
`smul`, `add` and `mean` build the loss.

Conventions: sequences are packed time-major (N, dim); weight matrices are
(out, in) and applied as ``x @ W.T``; no general broadcasting.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_grad_enabled = True


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
        self.grad = np.zeros_like(self.value) if requires_grad else None

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0


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
    """Add d(loss)/d(parameter) into every reachable parameter's .grad."""
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
# Layers and loss terms
# ---------------------------------------------------------------------------

def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fully connected layer: x (B, n), w (m, n), b (m,) -> x @ W.T + b."""
    if (x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[1]
            or b.value.shape != w.value.shape[:1]):
        raise GradError(f"affine shape mismatch: {x.shape} x {w.shape} + {b.shape}")

    def bw(g):
        return g @ w.value, g.T @ x.value, g.sum(axis=0)

    return Tensor(x.value @ w.value.T + b.value, parents=(x, w, b), backward=bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise GradError(f"shape mismatch: {a.shape} vs {b.shape}")

    def bw(g):
        return g, g

    return Tensor(a.value + b.value, parents=(a, b), backward=bw)


def cmul(x: Tensor, c) -> Tensor:
    """Multiply by a constant array broadcastable over x (e.g. per-row weights)."""
    c = np.asarray(c, dtype=np.float64)
    value = x.value * c
    if value.shape != x.value.shape:
        raise GradError(f"cmul constant {c.shape} expands {x.shape}")

    def bw(g):
        return (g * c,)

    return Tensor(value, parents=(x,), backward=bw)


def smul(x: Tensor, k: float) -> Tensor:
    def bw(g):
        return (g * k,)

    return Tensor(x.value * k, parents=(x,), backward=bw)


def concat_cols(xs: list[Tensor]) -> Tensor:
    """Concatenate along the last axis; the leading shapes must agree."""
    offsets = np.cumsum([0] + [x.value.shape[-1] for x in xs])

    def bw(g):
        return tuple(g[..., lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:]))

    return Tensor(np.concatenate([x.value for x in xs], axis=-1), parents=tuple(xs), backward=bw)


def embedding(table: Tensor, idx) -> Tensor:
    """Rows of `table` at an integer index array of any shape, giving
    idx.shape + (dim,); the gradient scatters back into the rows."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= table.value.shape[0]):
        raise GradError(f"embedding index out of range for table {table.shape}")

    def bw(g):
        dt = np.zeros_like(table.value)
        np.add.at(dt, idx, g)
        return (dt,)

    return Tensor(table.value[idx], parents=(table,), backward=bw)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Plain (non-differentiated) softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(logits: Tensor, targets) -> Tensor:
    """Per-row cross-entropy, -log softmax(logits_i)[t_i].

    `targets` (B,) are constants; max-subtraction keeps the log-sum-exp
    stable. Returns a (B,) loss vector; `cmul` weights its rows.
    """
    targets = np.asarray(targets, dtype=np.intp)
    n, k = logits.value.shape
    if targets.shape != (n,) or (targets.size and (targets.min() < 0 or targets.max() >= k)):
        raise GradError("softmax_xent target out of range")
    m = logits.value.max(axis=1)
    lse = m + np.log(np.exp(logits.value - m[:, None]).sum(axis=1))

    def bw(g):
        p = softmax(logits.value)
        p[np.arange(n), targets] -= 1.0
        p *= g[:, None]
        return (p,)

    return Tensor(lse - logits.value[np.arange(n), targets], parents=(logits,), backward=bw)


def circular_abs(pred: Tensor, targets) -> Tensor:
    """|delta| after wrapping delta = pred - target to [-1/2, 1/2].

    For |delta| <= 1 this equals min(|delta|, 1 - |delta|); used for errors on
    a unit-circle quantity such as normalized time of week. Returns (B,).
    """
    t = np.asarray(targets, dtype=np.float64)
    delta = pred.value.reshape(-1) - t
    wrapped = delta - np.round(delta)

    def bw(g):
        return ((g * np.sign(wrapped)).reshape(pred.value.shape),)

    return Tensor(np.abs(wrapped), parents=(pred,), backward=bw)


def mean(x: Tensor) -> Tensor:
    inv = 1.0 / x.value.size

    def bw(g):
        return (np.broadcast_to(g * inv, x.value.shape),)

    return Tensor(x.value.mean(), parents=(x,), backward=bw)


def total(x: Tensor) -> Tensor:
    def bw(g):
        return (np.broadcast_to(g, x.value.shape),)

    return Tensor(x.value.sum(), parents=(x,), backward=bw)


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
    """The real (row, step) pairs of a (B, T) 0/1 mask, in time-major order.

    A sequence is stored packed: row k of an (N, ...) array belongs to pair
    k = (rows[k], cols[k]), and the pairs of step t are off[t]:off[t+1], in
    increasing row order. A GRU over the packing keeps its states in one
    (B + N, H) array whose first B rows are h0 and whose row B + k is the
    state after pair k: `prev[k]` is the row pair k starts from (its batch
    row's previous pair, or that row's h0) and `last[b]` the row holding
    batch row b's final state. Any 0/1 pattern is valid, holes and empty
    rows or steps included; other values raise `GradError`.
    """

    def __init__(self, mask):
        m = np.asarray(mask, dtype=np.float64)
        if m.ndim != 2:
            raise GradError(f"a sequence mask must be (B, T), got shape {m.shape}")
        if not ((m == 0.0) | (m == 1.0)).all():
            raise GradError("a sequence mask must hold only 0 and 1")
        self.batch, self.steps = m.shape
        self.cols, self.rows = np.nonzero(m.T == 1.0)
        self.off = np.searchsorted(self.cols, np.arange(self.steps + 1))
        order = np.argsort(self.rows, kind="stable")  # each batch row's pairs, in step order
        r = self.rows[order]
        starts = np.ones(len(r), dtype=bool)
        starts[1:] = r[1:] != r[:-1]
        ends = np.ones(len(r), dtype=bool)
        ends[:-1] = starts[1:]
        self.prev = np.empty(len(r), dtype=np.intp)
        self.prev[order] = np.where(starts, r, self.batch + np.roll(order, 1))
        self.last = np.arange(self.batch)
        self.last[r[ends]] = self.batch + order[ends]

    @property
    def size(self) -> int:
        return len(self.rows)

    def gather(self, a) -> np.ndarray:
        """The entries of a (B, T, ...) array at the real pairs: (N, ...)."""
        return np.asarray(a)[self.rows, self.cols]


def gru_sequence(x: Tensor, h0: Tensor, w: GRUWeights, pack: Packing) -> tuple[Tensor, Tensor]:
    """Run one GRU from h0 (B, H) over x (N, in), the inputs of `pack`'s real
    pairs. Returns the final state of every row (B, H), and the state after
    every pair, packed (N, H). A row without real pairs ends in its h0 row;
    with no pairs at all the final state is h0 itself.

    Each step computes z = sig(Wz x + Uz h + bz), r = sig(Wr x + Ur h + br),
    n = tanh(Wn x + r * (Un h) + bn) and h' = (1 - z) * n + z * h on the rows
    real at that step; the other rows keep their state, so padding is never
    computed and takes no gradient.

    Layout: the input projection is one product per gate over all pairs,
    hoisted out of the recurrence into a gate-major (3, N, H) buffer, so a
    step's z, r and n are contiguous (rows, H) blocks that the gate math
    updates in place. Step t gathers its rows' previous states by index from
    the (B + N, H) state array into a small scratch, runs its recurrent
    product into a preallocated buffer and writes its new states to a
    contiguous block. With a graph recorded, the forward keeps the gates,
    the states and `U_n h` of every pair: (5N + B) H floats.

    Backpropagation through time visits the same blocks in reverse and
    writes each step's gate gradients over the buffers that step saved,
    which no later step reads: d(U h) for z, r and n over the gates, and
    d(W_n x) over `U_n h`. It gathers previous states from the state array
    again, so no per-pair copy of them is kept. Its only (N, H) allocation
    is the state gradient; once the time loop ends, that array's pair rows
    take the previous states for `dW_h`'s single product. The weight and
    bias gradients are one product or sum per gate over all pairs, and `dx`
    is one (N, in) product per gate. Having overwritten its buffers, the
    node can be backpropagated only once.
    """
    bsz, n_pairs, hd = pack.batch, pack.size, w.hidden
    if (x.value.ndim != 2 or x.value.shape[0] != n_pairs or h0.value.shape != (bsz, hd)
            or w.w_x.value.shape != (3 * hd, x.value.shape[1]) or w.w_h.value.shape != (3 * hd, hd)
            or w.bias.value.shape != (3 * hd,)):
        raise GradError(f"gru_sequence shape mismatch: x {x.shape} for {n_pairs} pairs, h0 {h0.shape}, "
                        f"w_x {w.w_x.shape}")
    if n_pairs == 0:
        return h0, constant(np.zeros((0, hd)))
    d_in = x.value.shape[1]
    off, prev = pack.off, pack.prev
    record = _grad_enabled
    wx = w.w_x.value.reshape(3, hd, d_in)
    wh = w.w_h.value.reshape(3, hd, hd)
    wh_t = np.ascontiguousarray(wh.transpose(0, 2, 1))  # U_k.T per gate; contiguous runs the per-step products faster

    # gates[:, k] starts as W x + b of pair k and becomes its (z, r, n)
    gates = np.matmul(x.value, wx.transpose(0, 2, 1))
    gates += w.bias.value.reshape(3, 1, hd)
    hs = np.empty((bsz + n_pairs, hd))
    hs[:bsz] = h0.value
    un_h = np.empty((n_pairs, hd)) if record else None
    uh = np.empty((3, bsz, hd))
    scratch = np.empty((2, bsz, hd))
    for t in range(pack.steps):
        lo, hi = off[t], off[t + 1]
        if lo == hi:
            continue
        h, tmp = scratch[:, : hi - lo]
        np.take(hs, prev[lo:hi], axis=0, out=h, mode="clip")  # valid indices; "clip" writes out= unbuffered
        u = uh[:, : hi - lo]
        np.matmul(h, wh_t, out=u)
        zr, z, r, n = gates[:2, lo:hi], gates[0, lo:hi], gates[1, lo:hi], gates[2, lo:hi]
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
        h_new = hs[bsz + lo: bsz + hi]
        np.subtract(1.0, z, out=h_new)
        h_new *= n
        zh = np.multiply(z, h, out=tmp)
        h_new += zh

    @_single_use
    def bw_seq(g):
        dh = np.zeros((bsz + n_pairs, hd))  # d(loss)/d(state), h0 rows first
        dh[bsz:] = g
        uh = np.empty((3, bsz, hd))
        scratch = np.empty((4, bsz, hd))
        for t in reversed(range(pack.steps)):
            lo, hi = off[t], off[t + 1]
            if lo == hi:
                continue
            z, r, n, unh = gates[0, lo:hi], gates[1, lo:hi], gates[2, lo:hi], un_h[lo:hi]
            d_new = dh[bsz + lo: bsz + hi]
            h, s, dn, d_prev = scratch[:, : hi - lo]
            np.take(hs, prev[lo:hi], axis=0, out=h, mode="clip")
            np.multiply(n, n, out=s)
            np.subtract(1.0, s, out=s)
            np.multiply(d_new, s, out=dn)
            np.subtract(1.0, z, out=s)
            dn *= s                        # d(W_n x) = d_new (1 - n^2) (1 - z)
            np.multiply(d_new, z, out=d_prev)
            h -= n
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
            dh[prev[lo:hi]] += d_prev      # a step's rows are distinct
        dgx = (gates[0], gates[1], un_h)   # d(loss)/d(W x) per gate
        dx = dgx[0] @ wx[0]
        dx += dgx[1] @ wx[1]
        dx += dgx[2] @ wx[2]
        h_prev = np.take(hs, prev, axis=0, out=dh[bsz:], mode="clip")  # dh's pair rows are dead by now
        return (
            dx,
            dh[:bsz],
            np.concatenate([d.T @ x.value for d in dgx]),
            np.matmul(gates.transpose(0, 2, 1), h_prev).reshape(3 * hd, hd),
            np.concatenate([d.sum(axis=0) for d in dgx]),
        )

    seq = Tensor(hs[bsz:], parents=(x, h0, w.w_x, w.w_h, w.bias), backward=bw_seq)
    last = pack.last
    ended = last >= bsz  # rows with real pairs; the others end in h0

    def bw_last(g):
        dseq = np.zeros_like(seq.value)
        dseq[last[ended] - bsz] = g[ended]
        return dseq, None if ended.all() else np.where(ended[:, None], 0.0, g)

    return Tensor(hs[last], parents=(seq, h0), backward=bw_last), seq
