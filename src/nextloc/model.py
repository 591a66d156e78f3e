"""Recurrent multi-task next-location model and its structural variants.

Every record is embedded as location + category + hour-of-day + day-of-week +
user vectors concatenated in that fixed order. Each task branch encodes the
record sequence with a long/short-term capturer (LSC): one GRU over all
earlier sessions, whose final hidden state seeds a second GRU over the
current-session prefix. An affine head predicts each task from the final
state of the branch that feeds it.

All nine variants are this one design with different wiring between the
branches. `WIRING` gives every variant's branches and connections in one
table, and `forward` runs them all through the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GRUWeights, Tensor
from .params import ParamStore


@dataclass(frozen=True)
class Wiring:
    """How a variant connects its LSC branches.

    branches:     LSC branches in run order; "shared" feeds every head.
    chained:      each branch's LSC starts from the previous branch's final
                  state, and its head also reads the previous head's output
                  through an affine converter.
    hierarchical: each downstream GRU reads the record embedding concatenated
                  with the previous branch's state at every step.
    spatial:      training keeps the distance-weighted location loss term.
    """

    branches: tuple[str, ...]
    chained: bool = False
    hierarchical: bool = False
    spatial: bool = True


CHAIN = ("time", "cat", "loc")
SHARED = "shared"

WIRING = {
    "lsl": Wiring(("loc",)),
    "sblsl": Wiring((SHARED,)),
    "slsl": Wiring(CHAIN),
    "hlsl": Wiring(CHAIN, hierarchical=True),
    "clsl": Wiring(CHAIN, chained=True, spatial=False),
    "clsl_ctl": Wiring(("cat", "time", "loc"), chained=True, spatial=False),
    "cslsl": Wiring(CHAIN, chained=True),
    "cslsl_t": Wiring(("cat", "loc"), chained=True),
    "cslsl_c": Wiring(("time", "loc"), chained=True),
}

VARIANTS = tuple(WIRING)

N_HOURS = 24
N_DAYS = 7


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    n_users: int
    n_locs: int
    n_cats: int
    variant: str = "cslsl"
    d_loc: int = 200
    d_cat: int = 100
    d_hour: int = 10
    d_day: int = 20
    d_user: int = 20
    hidden: int = 600
    has_categories: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        for name in ("d_loc", "d_cat", "d_hour", "d_day", "d_user", "hidden"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.n_users <= 0 or self.n_locs <= 0:
            raise ConfigError("model needs at least one user and one location")
        if "cat" in self.heads and (not self.has_categories or self.n_cats <= 0):
            raise ConfigError(
                f"variant {self.variant!r} predicts categories but the dataset has none"
            )

    @property
    def dim_record(self) -> int:
        return self.d_loc + self.d_cat + self.d_hour + self.d_day + self.d_user

    @property
    def wiring(self) -> Wiring:
        return WIRING[self.variant]

    @property
    def branches(self) -> tuple[str, ...]:
        """The LSC branches in run order. On data without categories an
        unchained variant drops its category branch; a chain cannot."""
        w = self.wiring
        return tuple(b for b in w.branches if b != "cat" or w.chained or self.has_categories)

    @property
    def heads(self) -> tuple[str, ...]:
        """The predicted tasks, in run order."""
        if self.branches != (SHARED,):
            return self.branches
        return CHAIN if self.has_categories else ("time", "loc")


@dataclass
class BranchState:
    """Per-batch head outputs; inactive heads are None."""

    t_hat: Tensor | None       # (B, 1) predicted normalized time of week
    cat_logits: Tensor | None  # (B, n_cats)
    loc_logits: Tensor         # (B, n_locs)


@dataclass
class Batch:
    """Padded index arrays for a batch of prediction instances.

    History is all prior sessions flattened chronologically; prefix is the
    current session up to the target. Masks are 1.0 for real steps.
    """

    user: np.ndarray            # (B,)
    hist_loc: np.ndarray        # (B, Th) ints, 0 at padded steps
    hist_cat: np.ndarray
    hist_hour: np.ndarray
    hist_day: np.ndarray
    hist_mask: np.ndarray       # (B, Th) float
    pref_loc: np.ndarray        # (B, Tp)
    pref_cat: np.ndarray
    pref_hour: np.ndarray
    pref_day: np.ndarray
    pref_mask: np.ndarray
    target_t: np.ndarray        # (B,) float
    target_cat: np.ndarray      # (B,) ints, -1 when the dataset has no categories
    target_loc: np.ndarray      # (B,) ints

    @property
    def size(self) -> int:
        return len(self.user)


# ---------------------------------------------------------------------------
# Parameter construction
# ---------------------------------------------------------------------------

def param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every table and weight of the configured variant,
    in creation order."""
    n_cat_rows = cfg.n_cats if cfg.has_categories else 1  # shared no-category row
    shapes = [
        ("emb.loc", (cfg.n_locs, cfg.d_loc)),
        ("emb.cat", (n_cat_rows, cfg.d_cat)),
        ("emb.hour", (N_HOURS, cfg.d_hour)),
        ("emb.day", (N_DAYS, cfg.d_day)),
        ("emb.user", (cfg.n_users, cfg.d_user)),
    ]

    h = cfg.hidden
    for pos, branch in enumerate(cfg.branches):
        d_in = cfg.dim_record + (h if cfg.wiring.hierarchical and pos > 0 else 0)
        for part in ("long", "short"):
            shapes.append((f"gru.{branch}.{part}.w_x", (3 * h, d_in)))
            shapes.append((f"gru.{branch}.{part}.w_h", (3 * h, h)))
            shapes.append((f"gru.{branch}.{part}.b", (3 * h,)))

    n_out = {"time": 1, "cat": cfg.n_cats, "loc": cfg.n_locs}
    conv_width = {"time": cfg.d_hour + cfg.d_day, "cat": cfg.d_cat}
    upstream = None
    for head in cfg.heads:
        d_in = h
        if upstream is not None:
            shapes.append((f"conv.{upstream}.w", (conv_width[upstream], n_out[upstream])))
            shapes.append((f"conv.{upstream}.b", (conv_width[upstream],)))
            d_in += conv_width[upstream]
        shapes.append((f"pred.{head}.w", (n_out[head], d_in)))
        shapes.append((f"pred.{head}.b", (n_out[head],)))
        if cfg.wiring.chained:
            upstream = head
    return shapes


def build_params(cfg: ModelConfig, seed: int, init: str = "fanin") -> ParamStore:
    """Create every table and weight for the configured variant, in a fixed
    order so identical (cfg, seed) always yields identical values."""
    store = ParamStore(seed)
    for name, shape in param_shapes(cfg):
        store.add(name, shape, init)
    return store


def gru_weights(store: ParamStore, prefix: str) -> GRUWeights:
    return GRUWeights(store[f"{prefix}.w_x"], store[f"{prefix}.w_h"], store[f"{prefix}.b"])


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def embed_step(store: ParamStore, cfg: ModelConfig, loc, cat, hour, day, user) -> Tensor:
    """Embeddings of a (B, T) array of records, e_loc + e_cat + e_hour + e_day
    + e_user concatenated in that order; (B, T, dim_record). `user` (B,)
    gives each row's user."""
    loc = np.asarray(loc)
    cat_idx = np.asarray(cat) if cfg.has_categories else np.zeros(loc.shape, dtype=np.intp)
    return ad.concat_cols(
        [
            ad.embedding(store["emb.loc"], loc),
            ad.embedding(store["emb.cat"], cat_idx),
            ad.embedding(store["emb.hour"], hour),
            ad.embedding(store["emb.day"], day),
            ad.embedding(store["emb.user"], np.broadcast_to(np.asarray(user)[:, None], loc.shape)),
        ]
    )


def run_gru(w: GRUWeights, h0: Tensor, x: Tensor, mask: np.ndarray | None) -> tuple[Tensor, Tensor]:
    """One GRU chain over x (B, T, in); returns the final hidden state and
    every step's state (B, T, hidden)."""
    return ad.gru_sequence(x, h0, w, mask)


def lsc_forward(
    long_w: GRUWeights,
    short_w: GRUWeights,
    long_x: Tensor,
    short_x: Tensor,
    h0: Tensor,
    long_masks: np.ndarray | None = None,
    short_masks: np.ndarray | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Long/short-term capturer: the long GRU runs over prior-session records
    (B, Th, in) from h0 (h0 itself if there are none) and its final state
    seeds the short GRU over the current prefix (B, Tp, in). Returns the
    short GRU's final state and the per-step states of both chains."""
    if short_x.shape[1] == 0:
        raise ValueError("prediction needs a non-empty current-session prefix")
    h_long, long_states = run_gru(long_w, h0, long_x, long_masks)
    h_short, short_states = run_gru(short_w, h_long, short_x, short_masks)
    return h_short, long_states, short_states


def forward(store: ParamStore, cfg: ModelConfig, batch: Batch) -> BranchState:
    """Run the configured variant on a padded batch: each branch's LSC, then
    the heads it feeds, connected as the variant's `Wiring` says."""
    wiring = cfg.wiring
    hist = embed_step(store, cfg, batch.hist_loc, batch.hist_cat, batch.hist_hour, batch.hist_day, batch.user)
    pref = embed_step(store, cfg, batch.pref_loc, batch.pref_cat, batch.pref_hour, batch.pref_day, batch.user)
    h = zero_h = ad.constant(np.zeros((batch.size, cfg.hidden)))
    hist_in, pref_in = hist, pref
    preds: dict[str, Tensor] = {}
    upstream = None
    for branch in cfg.branches:
        h, long_states, short_states = lsc_forward(
            gru_weights(store, f"gru.{branch}.long"),
            gru_weights(store, f"gru.{branch}.short"),
            hist_in,
            pref_in,
            h if wiring.chained else zero_h,
            long_masks=batch.hist_mask,
            short_masks=batch.pref_mask,
        )
        for head in cfg.heads if branch == SHARED else (branch,):
            x = h
            if upstream is not None:
                conv = ad.affine(preds[upstream], store[f"conv.{upstream}.w"], store[f"conv.{upstream}.b"])
                x = ad.concat_cols([h, conv])
            preds[head] = ad.affine(x, store[f"pred.{head}.w"], store[f"pred.{head}.b"])
            if wiring.chained:
                upstream = head
        if wiring.hierarchical:
            hist_in = ad.concat_cols([hist, long_states])
            pref_in = ad.concat_cols([pref, short_states])
    return BranchState(preds.get("time"), preds.get("cat"), preds["loc"])
