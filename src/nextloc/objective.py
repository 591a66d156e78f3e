"""Per-task losses and their weighted total.

Location and category use cross-entropy; time uses an absolute error wrapped
on the weekly cycle (so Sunday 23:59 vs Monday 00:01 is a small error). The
distance-weighted location term multiplies each instance's cross-entropy by
the great-circle distance in km between the currently argmax-predicted and
the true location; that coefficient is held constant within the step, so no
gradient flows through the distance or the argmax. Batch losses are means
over instances, keeping the weights comparable across batch sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .geo import haversine_vec
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
    pred = loc_logits.argmax(axis=1)
    coords = np.asarray(loc_coord, dtype=np.float64)
    d = haversine_vec(coords[pred, 0], coords[pred, 1], coords[target_loc, 0], coords[target_loc, 1])
    d[pred == target_loc] = 0.0
    return d


def total_loss(
    state: BranchState,
    target_t: np.ndarray,
    target_cat: np.ndarray,
    target_loc: np.ndarray,
    weights: LossWeights,
    loc_coord,
) -> tuple[Tensor, LossBreakdown]:
    """Mean per-task losses and total = L_l + lt*L_t + lc*L_c + ls*L_s.

    Inactive heads contribute exactly 0. Returns the differentiable total and
    a plain-float breakdown.
    """
    nll = ad.softmax_xent(state.loc_logits, target_loc)
    d = spatial_coefficients(state.loc_logits.value, np.asarray(target_loc), loc_coord)
    loss_l = ad.mean(nll)
    loss_s = ad.mean(ad.cmul(nll, d))

    node = ad.add(loss_l, ad.smul(loss_s, weights.lambda_s))
    t_val = c_val = 0.0
    if state.t_hat is not None:
        loss_t = ad.mean(ad.circular_abs(state.t_hat, target_t))
        node = ad.add(node, ad.smul(loss_t, weights.lambda_t))
        t_val = float(loss_t.value)
    if state.cat_logits is not None:
        loss_c = ad.mean(ad.softmax_xent(state.cat_logits, target_cat))
        node = ad.add(node, ad.smul(loss_c, weights.lambda_c))
        c_val = float(loss_c.value)

    breakdown = LossBreakdown(
        loc=float(loss_l.value),
        time=t_val,
        cat=c_val,
        spatial=float(loss_s.value),
        total=float(node.value),
    )
    return node, breakdown
