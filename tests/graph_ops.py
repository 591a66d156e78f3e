"""Small graph nodes that tests compose into scalar losses: `add`, `cmul`
and `total`. The model and its objective need none of them."""

import numpy as np

from nextloc.autodiff import GradError, Tensor


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise GradError(f"shape mismatch: {a.shape} vs {b.shape}")

    def bw(g):
        return g, g

    return Tensor(a.value + b.value, parents=(a, b), backward=bw)


def cmul(x: Tensor, c) -> Tensor:
    """Multiply by a constant scalar or array broadcastable over x (e.g.
    per-row weights)."""
    c = np.asarray(c, dtype=np.float64)
    value = x.value * c
    if value.shape != x.value.shape:
        raise GradError(f"cmul constant {c.shape} expands {x.shape}")

    def bw(g):
        return (g * c,)

    return Tensor(value, parents=(x,), backward=bw)


def total(x: Tensor) -> Tensor:
    def bw(g):
        return (np.broadcast_to(g, x.value.shape),)

    return Tensor(x.value.sum(), parents=(x,), backward=bw)
