"""The training objective, L_l + lt*L_t + lc*L_c + ls*L_s, as one graph node.

Location and category use cross-entropy; time uses an absolute error wrapped
on the weekly cycle (so Sunday 23:59 vs Monday 00:01 is a small error). The
distance-weighted location term L_s multiplies each instance's cross-entropy
by the great-circle distance in km between the currently argmax-predicted
and the true location; that coefficient is held constant within the step,
so no gradient flows through the distance or the argmax. Batch losses are
means over instances, keeping the weights comparable across batch sizes.

`total_loss` returns one node whose parents are the active head outputs and
whose backward hands each its gradient directly: softmax minus one-hot,
scaled per row, for the logits, and a scaled sign of the wrapped error for
the predicted time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .geo import location_km
from .model import BranchState


@dataclass(frozen=True)
class LossWeights:
    lambda_t: float = 10.0
    lambda_c: float = 10.0
    lambda_s: float = 10.0

    def __post_init__(self):
        for name in ("lambda_t", "lambda_c", "lambda_s"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass
class LossBreakdown:
    loc: float
    time: float
    cat: float
    spatial: float
    total: float


def spatial_coefficients(loc_logits: np.ndarray, target_loc: np.ndarray, loc_coord) -> np.ndarray:
    """Distance (km) from each row's argmax-predicted location to its true
    location; exactly 0 where the argmax is already correct. `loc_coord`
    holds (lat, lon) per location; passing it as a float64 array spares a
    conversion per call."""
    return location_km(loc_coord, loc_logits.argmax(axis=1), target_loc)


def _xent(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row cross-entropy -log softmax(logits_i)[t_i], with the shifted
    exponentials and their row sums that give the softmax back."""
    n, k = logits.shape
    if targets.shape != (n,) or (targets.size and (targets.min() < 0 or targets.max() >= k)):
        raise ad.GradError("cross-entropy target out of range")
    m = logits.max(axis=1)
    e = np.exp(logits - m[:, None])  # max-subtraction keeps the log-sum-exp stable
    s = e.sum(axis=1)
    return m + np.log(s) - logits[np.arange(n), targets], e, s


def _xent_grad(e: np.ndarray, s: np.ndarray, targets: np.ndarray, scale) -> np.ndarray:
    """d(sum_i scale_i * xent_i)/d(logits): (softmax - one-hot) * scale per row."""
    p = e / s[:, None]
    p[np.arange(len(targets)), targets] -= 1.0
    p *= np.reshape(scale, (-1, 1))
    return p


def total_loss(
    state: BranchState,
    target_t: np.ndarray,
    target_cat: np.ndarray,
    target_loc: np.ndarray,
    weights: LossWeights,
    loc_coord,
) -> tuple[Tensor, LossBreakdown]:
    """Mean per-task losses and total = L_l + lt*L_t + lc*L_c + ls*L_s.

    Inactive heads contribute exactly 0. Returns the differentiable total,
    one node over the active head outputs (location logits, then t_hat and
    category logits when present), and a plain-float breakdown.
    """
    target_loc = np.asarray(target_loc, dtype=np.intp)
    logits = state.loc_logits.value
    nll, e_loc, s_loc = _xent(logits, target_loc)
    d = spatial_coefficients(logits, target_loc, loc_coord)
    inv = 1.0 / nll.size
    loss_l = nll.mean()
    loss_s = (nll * d).mean()
    total = loss_l + loss_s * weights.lambda_s
    parents = [state.loc_logits]
    t_val = c_val = 0.0
    if state.t_hat is not None:
        wrapped = state.t_hat.value.reshape(-1) - np.asarray(target_t, dtype=np.float64)
        wrapped -= np.round(wrapped)  # the error wrapped to [-1/2, 1/2]
        t_val = np.abs(wrapped).mean()
        total = total + t_val * weights.lambda_t
        parents.append(state.t_hat)
    if state.cat_logits is not None:
        target_cat = np.asarray(target_cat, dtype=np.intp)
        xent_c, e_cat, s_cat = _xent(state.cat_logits.value, target_cat)
        c_val = xent_c.mean()
        total = total + c_val * weights.lambda_c
        parents.append(state.cat_logits)

    def bw(g):
        # each term hands its rows g * weight * (1/B), multiplied in that
        # order; L_l and L_s share the location rows, L_s's scaled by each
        # row's distance
        grads = [_xent_grad(e_loc, s_loc, target_loc, g * inv + g * weights.lambda_s * inv * d)]
        if state.t_hat is not None:
            grads.append((g * weights.lambda_t * inv * np.sign(wrapped)).reshape(state.t_hat.shape))
        if state.cat_logits is not None:
            grads.append(_xent_grad(e_cat, s_cat, target_cat, g * weights.lambda_c * inv))
        return grads

    node = Tensor(total, parents=tuple(parents), backward=bw)
    breakdown = LossBreakdown(
        loc=float(loss_l),
        time=float(t_val),
        cat=float(c_val),
        spatial=float(loss_s),
        total=float(total),
    )
    return node, breakdown
