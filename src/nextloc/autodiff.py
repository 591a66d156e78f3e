"""Reverse-mode differentiation over numpy arrays, one graph node per layer.

A `Tensor` holds a float64 value, the tensors it was computed from
(`parents`) and a closure (`_backward`) that adds its gradient into theirs.
`backward` replays the closures in reverse topological order and
accumulates into leaf `.grad` buffers, so repeated calls without
`zero_grad` add up.

Inside a `no_grad()` block no graph is recorded: an operation's output has
no parents and no backward closure, so inference keeps none of the buffers
a backward pass would read, and `backward` on such an output raises
`GradError`.

The operations are the few the recurrent predictor needs. `gru_sequence`
runs a whole GRU chain as one node and touches only the real (row, step)
pairs of its mask: the input projection is one matrix product over the real
steps, hoisted out of the recurrence, each step updates only the rows still
active, and its backward pass is hand-written backpropagation through time
over the same rows. `embedding`, `concat_cols` and `affine` build the
chains' inputs and the heads; `softmax_xent`, `circular_abs`, `cmul`,
`smul`, `add` and `mean` build the loss.

Conventions: sequences are batch-major (B, T, dim); weight matrices are
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
    """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad."""
    if loss.value.size != 1:
        raise GradError(f"backward requires a scalar, got shape {loss.shape}")
    if loss._backward is None and not loss.requires_grad:
        raise GradError("backward needs a recorded graph; this value was computed under no_grad or from constants")
    order = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.value)}

    def getbuf(node: Tensor) -> np.ndarray:
        buf = grads.get(id(node))
        if buf is None:
            buf = np.zeros_like(node.value)
            grads[id(node)] = buf
        return buf

    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is not None:
            node._backward(g, getbuf)
        elif node.requires_grad:
            node.grad += g


# ---------------------------------------------------------------------------
# Layers and loss terms
# ---------------------------------------------------------------------------

def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fully connected layer: x (B, n), w (m, n), b (m,) -> x @ W.T + b."""
    if (x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[1]
            or b.value.shape != w.value.shape[:1]):
        raise GradError(f"affine shape mismatch: {x.shape} x {w.shape} + {b.shape}")

    def bw(g, getbuf):
        bx, bw_, bb = getbuf(x), getbuf(w), getbuf(b)
        bx += g @ w.value
        bw_ += g.T @ x.value
        bb += g.sum(axis=0)

    return Tensor(x.value @ w.value.T + b.value, parents=(x, w, b), backward=bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise GradError(f"shape mismatch: {a.shape} vs {b.shape}")

    def bw(g, getbuf):
        ba, bb = getbuf(a), getbuf(b)
        ba += g
        bb += g

    return Tensor(a.value + b.value, parents=(a, b), backward=bw)


def cmul(x: Tensor, c) -> Tensor:
    """Multiply by a constant array broadcastable over x (e.g. per-row weights)."""
    c = np.asarray(c, dtype=np.float64)
    value = x.value * c
    if value.shape != x.value.shape:
        raise GradError(f"cmul constant {c.shape} expands {x.shape}")

    def bw(g, getbuf):
        bx = getbuf(x)
        bx += g * c

    return Tensor(value, parents=(x,), backward=bw)


def smul(x: Tensor, k: float) -> Tensor:
    def bw(g, getbuf):
        bx = getbuf(x)
        bx += g * k

    return Tensor(x.value * k, parents=(x,), backward=bw)


def concat_cols(xs: list[Tensor]) -> Tensor:
    """Concatenate along the last axis; the leading shapes must agree."""
    offsets = np.cumsum([0] + [x.value.shape[-1] for x in xs])

    def bw(g, getbuf):
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            bx = getbuf(x)
            bx += g[..., lo:hi]

    return Tensor(np.concatenate([x.value for x in xs], axis=-1), parents=tuple(xs), backward=bw)


def embedding(table: Tensor, idx) -> Tensor:
    """Rows of `table` at an integer index array of any shape, giving
    idx.shape + (dim,); the gradient scatters back into the rows."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= table.value.shape[0]):
        raise GradError(f"embedding index out of range for table {table.shape}")

    def bw(g, getbuf):
        np.add.at(getbuf(table), idx, g)

    return Tensor(table.value[idx], parents=(table,), backward=bw)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Plain (non-differentiated) softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(logits: Tensor, targets, weights=None) -> Tensor:
    """Per-row weighted cross-entropy, -w_i * log softmax(logits_i)[t_i].

    `targets` (B,) and `weights` (B,) are constants; max-subtraction keeps the
    log-sum-exp stable. Returns a (B,) loss vector.
    """
    targets = np.asarray(targets, dtype=np.intp)
    n, k = logits.value.shape
    if targets.shape != (n,) or (targets.size and (targets.min() < 0 or targets.max() >= k)):
        raise GradError("softmax_xent target out of range")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    if (w < 0).any():
        raise GradError("softmax_xent weights must be non-negative")
    m = logits.value.max(axis=1)
    lse = m + np.log(np.exp(logits.value - m[:, None]).sum(axis=1))

    def bw(g, getbuf):
        p = softmax(logits.value)
        p[np.arange(n), targets] -= 1.0
        bl = getbuf(logits)
        bl += (g * w)[:, None] * p

    return Tensor(w * (lse - logits.value[np.arange(n), targets]), parents=(logits,), backward=bw)


def circular_abs(pred: Tensor, targets) -> Tensor:
    """|delta| after wrapping delta = pred - target to [-1/2, 1/2].

    For |delta| <= 1 this equals min(|delta|, 1 - |delta|); used for errors on
    a unit-circle quantity such as normalized time of week. Returns (B,).
    """
    t = np.asarray(targets, dtype=np.float64)
    delta = pred.value.reshape(-1) - t
    wrapped = delta - np.round(delta)

    def bw(g, getbuf):
        bp = getbuf(pred)
        bp += (g * np.sign(wrapped)).reshape(pred.value.shape)

    return Tensor(np.abs(wrapped), parents=(pred,), backward=bw)


def mean(x: Tensor) -> Tensor:
    inv = 1.0 / x.value.size

    def bw(g, getbuf):
        bx = getbuf(x)
        bx += g * inv

    return Tensor(x.value.mean(), parents=(x,), backward=bw)


def total(x: Tensor) -> Tensor:
    def bw(g, getbuf):
        bx = getbuf(x)
        bx += g

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


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * v))


def gru_sequence(x: Tensor, h0: Tensor, w: GRUWeights, mask=None) -> tuple[Tensor, Tensor]:
    """Run one GRU over x (B, T, in) from h0 (B, H). Returns the final state
    (B, H) and every step's state (B, T, H); with T = 0 the final state is h0.

    Each step computes z = sig(Wz x + Uz h + bz), r = sig(Wr x + Ur h + br),
    n = tanh(Wn x + r * (Un h) + bn) and h' = (1 - z) * n + z * h. `mask`
    (B, T) of 0/1 marks the real steps (None: all of them); a row passes h
    through unchanged where it is 0, so padded steps contribute nothing to
    the state or the gradients. Any pattern works, holes and empty rows or
    steps included.

    Only the real (row, step) pairs are computed, like a packed sequence:
    they are gathered time-major, the input projection is one matrix product
    over them, and step t runs its recurrent product and gates on the rows
    real at t. Backpropagation through time visits the same rows; the weight
    and bias gradients are one product or sum each over the real pairs, and
    `dx` is scattered back to the real positions (zero at padding). The
    buffers it reads (gates and `U_n h` of the real pairs) are kept only when
    a graph is recorded, not under `no_grad`.
    """
    if x.value.ndim != 3:
        raise GradError(f"gru_sequence needs x of shape (B, T, in), got {x.shape}")
    bsz, steps, d_in = x.value.shape
    hd = w.hidden
    if (h0.value.shape != (bsz, hd) or w.w_x.value.shape != (3 * hd, d_in)
            or w.w_h.value.shape != (3 * hd, hd) or w.bias.value.shape != (3 * hd,)
            or (mask is not None and np.shape(mask) != (bsz, steps))):
        raise GradError(f"gru_sequence shape mismatch: x {x.shape}, h0 {h0.shape}, w_x {w.w_x.shape}")
    if steps == 0:
        return h0, constant(np.zeros((bsz, 0, hd)))
    if mask is None:
        real = np.ones((steps, bsz), dtype=bool)
    else:
        m = np.asarray(mask, dtype=np.float64)
        if not ((m == 0.0) | (m == 1.0)).all():
            raise GradError("gru_sequence mask must hold only 0 and 1")
        real = m.T == 1.0  # (T, B), so the real pairs come out time-major
    rows_of = np.nonzero(real)[1]
    off = np.concatenate(([0], np.cumsum(real.sum(axis=1))))
    record = _grad_enabled
    wx, wh = w.w_x.value, w.w_h.value

    def rows(t):
        """Step t's real rows: a slice when every row is real, else indices."""
        lo, hi = off[t], off[t + 1]
        return slice(None) if hi - lo == bsz else rows_of[lo:hi]

    # gates[k] starts as W x + b of the k-th real pair and becomes its (z, r, n)
    gates = x.value.transpose(1, 0, 2)[real] @ wx.T + w.bias.value
    un_h = np.empty((len(rows_of), hd)) if record else None
    hs = np.empty((steps + 1, bsz, hd))
    hs[0] = h0.value
    for t in range(steps):
        lo, hi = off[t], off[t + 1]
        if hi - lo < bsz:
            hs[t + 1] = hs[t]
        if lo == hi:
            continue
        sel = rows(t)
        h = hs[t][sel]
        gh = h @ wh.T
        gate = gates[lo:hi]
        gate[:, : 2 * hd] = _sigmoid(gate[:, : 2 * hd] + gh[:, : 2 * hd])
        z, r = gate[:, :hd], gate[:, hd: 2 * hd]
        gate[:, 2 * hd:] = np.tanh(gate[:, 2 * hd:] + r * gh[:, 2 * hd:])
        if record:
            un_h[lo:hi] = gh[:, 2 * hd:]
        hs[t + 1][sel] = (1.0 - z) * gate[:, 2 * hd:] + z * h

    def bw_seq(g, getbuf):
        dgx = np.empty_like(gates)
        dgh = np.empty_like(gates)
        dh = np.zeros((bsz, hd))
        for t in reversed(range(steps)):
            dh += g[:, t]
            lo, hi = off[t], off[t + 1]
            if lo == hi:
                continue
            sel = rows(t)
            z, r, n = gates[lo:hi, :hd], gates[lo:hi, hd: 2 * hd], gates[lo:hi, 2 * hd:]
            d_new = dh[sel]
            dn = d_new * (1.0 - n * n) * (1.0 - z)
            dgh[lo:hi, :hd] = d_new * (hs[t][sel] - n) * z * (1.0 - z)
            dgh[lo:hi, hd: 2 * hd] = dn * un_h[lo:hi] * r * (1.0 - r)
            dgh[lo:hi, 2 * hd:] = dn * r
            dgx[lo:hi, : 2 * hd] = dgh[lo:hi, : 2 * hd]
            dgx[lo:hi, 2 * hd:] = dn
            dh[sel] = d_new * z + dgh[lo:hi] @ wh
        bx, bh0, bwx, bwh, bb = getbuf(x), getbuf(h0), getbuf(w.w_x), getbuf(w.w_h), getbuf(w.bias)
        bh0 += dh
        bx.transpose(1, 0, 2)[real] += dgx @ wx
        bwx += dgx.T @ x.value.transpose(1, 0, 2)[real]
        bb += dgx.sum(axis=0)
        bwh += dgh.T @ hs[:-1][real]

    seq = Tensor(hs[1:].transpose(1, 0, 2), parents=(x, h0, w.w_x, w.w_h, w.bias), backward=bw_seq)

    def bw_last(g, getbuf):
        getbuf(seq)[:, -1] += g

    return Tensor(hs[steps].copy(), parents=(seq,), backward=bw_last), seq
