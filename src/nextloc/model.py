"""Recurrent multi-task next-location model and its structural variants.

Every record is embedded as location + category + hour-of-day + day-of-week +
user vectors concatenated in that fixed order. Each task branch encodes the
record sequence with a long/short-term capturer (LSC): one GRU over all
earlier sessions, whose final hidden state seeds a second GRU over the
current-session prefix.

Variants:

* ``cslsl`` / ``clsl``: the causal chain time -> category -> location. Each
  branch's LSC is seeded with the upstream branch's final hidden state, and
  each predictor consumes the upstream prediction through an affine converter.
  ``clsl`` shares the architecture and simply trains without the
  distance-weighted loss term.
* ``clsl_ctl``: the chain reordered category -> time -> location.
* ``cslsl_t`` / ``cslsl_c``: the chain with the time / category branch removed.
* ``lsl``: a single location branch.
* ``sblsl``: one shared LSC with separate task predictors on its output.
* ``slsl``: fully independent branches, no cross connections.
* ``hlsl``: hierarchical; downstream GRUs consume the record embedding
  concatenated with the upstream branch's hidden state at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GRUWeights, Tensor
from .params import ParamStore

VARIANTS = ("lsl", "sblsl", "slsl", "hlsl", "clsl", "clsl_ctl", "cslsl", "cslsl_t", "cslsl_c")

# Variants wired as a causal chain (hidden-state hand-off + prediction converters).
CAUSAL_VARIANTS = {"cslsl", "clsl", "clsl_ctl", "cslsl_t", "cslsl_c"}

_CAUSAL_ORDER = {
    "cslsl": ("time", "cat", "loc"),
    "clsl": ("time", "cat", "loc"),
    "clsl_ctl": ("cat", "time", "loc"),
    "cslsl_t": ("cat", "loc"),
    "cslsl_c": ("time", "loc"),
}

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
        if self.cat_head_active and (not self.has_categories or self.n_cats <= 0):
            raise ConfigError(
                f"variant {self.variant!r} predicts categories but the dataset has none"
            )

    @property
    def dim_record(self) -> int:
        return self.d_loc + self.d_cat + self.d_hour + self.d_day + self.d_user

    @property
    def d_time_emb(self) -> int:
        return self.d_hour + self.d_day

    @property
    def branches(self) -> tuple[str, ...]:
        if self.variant in CAUSAL_VARIANTS:
            return _CAUSAL_ORDER[self.variant]
        if self.variant == "lsl":
            return ("loc",)
        if self.variant == "sblsl":
            return ("shared",)
        # slsl / hlsl: the category branch only exists when the data has categories
        return ("time", "cat", "loc") if self.has_categories else ("time", "loc")

    @property
    def time_head_active(self) -> bool:
        if self.variant == "lsl":
            return False
        if self.variant == "sblsl":
            return True
        return "time" in self.branches

    @property
    def cat_head_active(self) -> bool:
        if self.variant in CAUSAL_VARIANTS:
            return "cat" in _CAUSAL_ORDER[self.variant]
        if self.variant in ("sblsl", "slsl", "hlsl"):
            return self.has_categories
        return False


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

def _head_in_dim(cfg: ModelConfig, branch: str, upstream: str | None) -> int:
    extra = 0
    if upstream == "time":
        extra = cfg.d_time_emb
    elif upstream == "cat":
        extra = cfg.d_cat
    return cfg.hidden + extra


def _gru_in_dim(cfg: ModelConfig, branch_pos: int) -> int:
    if cfg.variant == "hlsl" and branch_pos > 0:
        return cfg.dim_record + cfg.hidden
    return cfg.dim_record


def build_params(cfg: ModelConfig, seed: int, init: str = "fanin") -> ParamStore:
    """Create every table and weight for the configured variant, in a fixed
    order so identical (cfg, seed) always yields identical values."""
    store = ParamStore(seed)
    store.add("emb.loc", (cfg.n_locs, cfg.d_loc), init)
    n_cat_rows = cfg.n_cats if cfg.has_categories else 1  # shared no-category row
    store.add("emb.cat", (n_cat_rows, cfg.d_cat), init)
    store.add("emb.hour", (N_HOURS, cfg.d_hour), init)
    store.add("emb.day", (N_DAYS, cfg.d_day), init)
    store.add("emb.user", (cfg.n_users, cfg.d_user), init)

    h = cfg.hidden
    for pos, branch in enumerate(cfg.branches):
        d_in = _gru_in_dim(cfg, pos)
        for part in ("long", "short"):
            store.add(f"gru.{branch}.{part}.w_x", (3 * h, d_in), init)
            store.add(f"gru.{branch}.{part}.w_h", (3 * h, h), init)
            store.add(f"gru.{branch}.{part}.b", (3 * h,), init)

    causal = cfg.variant in CAUSAL_VARIANTS
    order = cfg.branches if causal else _active_heads(cfg)
    upstream = None
    for branch in order:
        if causal and upstream is not None:
            if upstream == "time" and "conv.time.w" not in store:
                store.add("conv.time.w", (cfg.d_time_emb, 1), init)
                store.add("conv.time.b", (cfg.d_time_emb,), init)
            if upstream == "cat" and "conv.cat.w" not in store:
                store.add("conv.cat.w", (cfg.d_cat, cfg.n_cats), init)
                store.add("conv.cat.b", (cfg.d_cat,), init)
        out = {"time": 1, "cat": cfg.n_cats, "loc": cfg.n_locs}[branch]
        d_in = _head_in_dim(cfg, branch, upstream if causal else None)
        store.add(f"pred.{branch}.w", (out, d_in), init)
        store.add(f"pred.{branch}.b", (out,), init)
        if causal:
            upstream = branch
    return store


def _active_heads(cfg: ModelConfig) -> tuple[str, ...]:
    heads = []
    if cfg.time_head_active:
        heads.append("time")
    if cfg.cat_head_active:
        heads.append("cat")
    heads.append("loc")
    return tuple(heads)


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
    """Run the configured variant on a padded batch."""
    hist = embed_step(store, cfg, batch.hist_loc, batch.hist_cat, batch.hist_hour, batch.hist_day, batch.user)
    pref = embed_step(store, cfg, batch.pref_loc, batch.pref_cat, batch.pref_hour, batch.pref_day, batch.user)
    zero_h = ad.constant(np.zeros((batch.size, cfg.hidden)))

    def run_branch(branch: str, h0: Tensor, hist_in: Tensor = hist, pref_in: Tensor = pref):
        return lsc_forward(
            gru_weights(store, f"gru.{branch}.long"),
            gru_weights(store, f"gru.{branch}.short"),
            hist_in,
            pref_in,
            h0,
            long_masks=batch.hist_mask,
            short_masks=batch.pref_mask,
        )

    def head(branch: str, h: Tensor) -> Tensor:
        return ad.affine(h, store[f"pred.{branch}.w"], store[f"pred.{branch}.b"])

    if cfg.variant in CAUSAL_VARIANTS:
        preds: dict[str, Tensor] = {}
        h_prev = zero_h
        upstream = None
        for branch in cfg.branches:
            h = run_branch(branch, h_prev)[0]
            if upstream is None:
                x = h
            else:
                conv = ad.affine(preds[upstream], store[f"conv.{upstream}.w"], store[f"conv.{upstream}.b"])
                x = ad.concat_cols([h, conv])
            preds[branch] = head(branch, x)
            h_prev = h
            upstream = branch
        return BranchState(preds.get("time"), preds.get("cat"), preds["loc"])

    if cfg.variant == "lsl":
        return BranchState(None, None, head("loc", run_branch("loc", zero_h)[0]))

    if cfg.variant == "sblsl":
        h = run_branch("shared", zero_h)[0]
        return BranchState(
            head("time", h),
            head("cat", h) if cfg.cat_head_active else None,
            head("loc", h),
        )

    if cfg.variant == "slsl":
        out = {b: head(b, run_branch(b, zero_h)[0]) for b in cfg.branches}
        return BranchState(out["time"], out.get("cat"), out["loc"])

    # hlsl: each downstream GRU sees e_r concatenated with the upstream
    # branch's hidden state at the same step; every LSC starts from zero.
    hist_in, pref_in = hist, pref
    preds = {}
    for branch in cfg.branches:
        h, long_states, short_states = run_branch(branch, zero_h, hist_in, pref_in)
        preds[branch] = head(branch, h)
        hist_in = ad.concat_cols([hist, long_states])
        pref_in = ad.concat_cols([pref, short_states])
    return BranchState(preds["time"], preds.get("cat"), preds["loc"])
