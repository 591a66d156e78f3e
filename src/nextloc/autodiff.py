"""Reverse-mode differentiation over numpy arrays, one graph node per layer.

A `Tensor` holds a float64 value, the tensors it was computed from
(`parents`) and a closure (`_backward`) that adds its gradient into theirs.
`backward` replays the closures in reverse topological order and
accumulates into leaf `.grad` buffers, so repeated calls without
`zero_grad` add up.

The operations are the few the recurrent predictor needs. `gru_sequence`
runs a whole GRU chain as one node: the input projection is one matrix
product over every step, hoisted out of the recurrence, and its backward
pass is hand-written backpropagation through time. `embedding`,
`concat_cols` and `affine` build the chains' inputs and the heads;
`softmax_xent`, `circular_abs`, `cmul`, `smul`, `add` and `mean` build the
loss.

Conventions: sequences are batch-major (B, T, dim); weight matrices are
(out, in) and applied as ``x @ W.T``; no general broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GradError(Exception):
    pass


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
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
    out = Tensor(x.value @ w.value.T + b.value, parents=(x, w, b))

    def bw(g, getbuf):
        bx, bw_, bb = getbuf(x), getbuf(w), getbuf(b)
        bx += g @ w.value
        bw_ += g.T @ x.value
        bb += g.sum(axis=0)

    out._backward = bw
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise GradError(f"shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.value + b.value, parents=(a, b))

    def bw(g, getbuf):
        ba, bb = getbuf(a), getbuf(b)
        ba += g
        bb += g

    out._backward = bw
    return out


def cmul(x: Tensor, c) -> Tensor:
    """Multiply by a constant array broadcastable over x (e.g. per-row weights)."""
    c = np.asarray(c, dtype=np.float64)
    out = Tensor(x.value * c, parents=(x,))
    if out.value.shape != x.value.shape:
        raise GradError(f"cmul constant {c.shape} expands {x.shape}")

    def bw(g, getbuf):
        bx = getbuf(x)
        bx += g * c

    out._backward = bw
    return out


def smul(x: Tensor, k: float) -> Tensor:
    out = Tensor(x.value * k, parents=(x,))

    def bw(g, getbuf):
        bx = getbuf(x)
        bx += g * k

    out._backward = bw
    return out


def concat_cols(xs: list[Tensor]) -> Tensor:
    """Concatenate along the last axis; the leading shapes must agree."""
    out = Tensor(np.concatenate([x.value for x in xs], axis=-1), parents=tuple(xs))
    offsets = np.cumsum([0] + [x.value.shape[-1] for x in xs])

    def bw(g, getbuf):
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            bx = getbuf(x)
            bx += g[..., lo:hi]

    out._backward = bw
    return out


def embedding(table: Tensor, idx) -> Tensor:
    """Rows of `table` at an integer index array of any shape, giving
    idx.shape + (dim,); the gradient scatters back into the rows."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= table.value.shape[0]):
        raise GradError(f"embedding index out of range for table {table.shape}")
    out = Tensor(table.value[idx], parents=(table,))

    def bw(g, getbuf):
        np.add.at(getbuf(table), idx, g)

    out._backward = bw
    return out


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
    out = Tensor(w * (lse - logits.value[np.arange(n), targets]), parents=(logits,))

    def bw(g, getbuf):
        p = softmax(logits.value)
        p[np.arange(n), targets] -= 1.0
        bl = getbuf(logits)
        bl += (g * w)[:, None] * p

    out._backward = bw
    return out


def circular_abs(pred: Tensor, targets) -> Tensor:
    """|delta| after wrapping delta = pred - target to [-1/2, 1/2].

    For |delta| <= 1 this equals min(|delta|, 1 - |delta|); used for errors on
    a unit-circle quantity such as normalized time of week. Returns (B,).
    """
    t = np.asarray(targets, dtype=np.float64)
    delta = pred.value.reshape(-1) - t
    wrapped = delta - np.round(delta)
    out = Tensor(np.abs(wrapped), parents=(pred,))

    def bw(g, getbuf):
        bp = getbuf(pred)
        bp += (g * np.sign(wrapped)).reshape(pred.value.shape)

    out._backward = bw
    return out


def mean(x: Tensor) -> Tensor:
    out = Tensor(x.value.mean(), parents=(x,))
    inv = 1.0 / x.value.size

    def bw(g, getbuf):
        bx = getbuf(x)
        bx += g * inv

    out._backward = bw
    return out


def total(x: Tensor) -> Tensor:
    out = Tensor(x.value.sum(), parents=(x,))

    def bw(g, getbuf):
        bx = getbuf(x)
        bx += g

    out._backward = bw
    return out


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
    (B, T) of 0/1 passes h through unchanged where it is 0, so padded steps
    contribute nothing to the state or the gradients.
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
    keep = None if mask is None else np.asarray(mask, dtype=np.float64).T[:, :, None]  # (T, B, 1)
    wx, wh = w.w_x.value, w.w_h.value

    # time-major buffers for the recurrence and for what the backward pass reads
    gx = (x.value.reshape(-1, d_in) @ wx.T + w.bias.value).reshape(bsz, steps, 3 * hd)
    hs = np.empty((steps + 1, bsz, hd))
    hs[0] = h0.value
    zr = np.empty((steps, bsz, 2 * hd))
    n = np.empty((steps, bsz, hd))
    hn = np.empty((steps, bsz, hd))
    for t in range(steps):
        h = hs[t]
        gh = h @ wh.T
        zr[t] = _sigmoid(gx[:, t, : 2 * hd] + gh[:, : 2 * hd])
        z, r = zr[t, :, :hd], zr[t, :, hd:]
        hn[t] = gh[:, 2 * hd:]
        n[t] = np.tanh(gx[:, t, 2 * hd:] + r * hn[t])
        h_new = (1.0 - z) * n[t] + z * h
        hs[t + 1] = h_new if keep is None else h_new * keep[t] + h * (1.0 - keep[t])

    seq = Tensor(hs[1:].transpose(1, 0, 2), parents=(x, h0, w.w_x, w.w_h, w.bias))
    last = Tensor(hs[steps], parents=(seq,))

    def bw_last(g, getbuf):
        getbuf(seq)[:, -1] += g

    def bw_seq(g, getbuf):
        dgx = np.empty((bsz, steps, 3 * hd))
        dgh = np.empty((steps, bsz, 3 * hd))
        dh = np.zeros((bsz, hd))
        for t in reversed(range(steps)):
            dh += g[:, t]
            z, r = zr[t, :, :hd], zr[t, :, hd:]
            d_new = dh if keep is None else dh * keep[t]
            dn = d_new * (1.0 - n[t] * n[t]) * (1.0 - z)
            dgh[t, :, :hd] = d_new * (hs[t] - n[t]) * z * (1.0 - z)
            dgh[t, :, hd: 2 * hd] = dn * hn[t] * r * (1.0 - r)
            dgh[t, :, 2 * hd:] = dn * r
            dgx[:, t, : 2 * hd] = dgh[t, :, : 2 * hd]
            dgx[:, t, 2 * hd:] = dn
            carry = d_new * z + dgh[t] @ wh
            dh = carry if keep is None else carry + dh * (1.0 - keep[t])
        dgx_rows = dgx.reshape(-1, 3 * hd)
        bx, bh0, bwx, bwh, bb = getbuf(x), getbuf(h0), getbuf(w.w_x), getbuf(w.w_h), getbuf(w.bias)
        bh0 += dh
        bx += (dgx_rows @ wx).reshape(bsz, steps, d_in)
        bwx += dgx_rows.T @ x.value.reshape(-1, d_in)
        bb += dgx_rows.sum(axis=0)
        bwh += dgh.reshape(-1, 3 * hd).T @ hs[:-1].reshape(-1, hd)

    seq._backward = bw_seq
    last._backward = bw_last
    return last, seq
