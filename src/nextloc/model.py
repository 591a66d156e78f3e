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

    @property
    def history_branches(self) -> tuple[str, ...]:
        """The branches whose long GRU starts from zeros and reads only the
        record embedding, so that its final state depends on the history
        alone: every branch of `lsl`, `sblsl` and `slsl`, and the first
        branch of a chained variant. `hlsl`'s downstream long GRUs read the
        first branch's per-step states, so `hlsl` lists none."""
        w = self.wiring
        if w.hierarchical:
            return ()
        return self.branches[:1] if w.chained else self.branches


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
    current session up to the target. Each sequence is left-aligned in its
    row, so masks are 1s then 0s per row, 1.0 at real steps; `forward`
    raises `GradError` for any other mask.
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
    target_cat: np.ndarray      # (B,) ints; `batchify` writes 0 for a record without a category
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

def embed_records(store: ParamStore, cfg: ModelConfig, loc, cat, hour, day, user) -> Tensor:
    """Embeddings of records given by equal-shaped index arrays, e_loc +
    e_cat + e_hour + e_day + e_user concatenated in that order: one graph
    node of shape loc.shape + (dim_record,). On data without categories
    every record reads the shared category row."""
    loc = np.asarray(loc)
    cat_idx = cat if cfg.has_categories else np.zeros(loc.shape, dtype=np.intp)
    return ad.concat_embeddings(
        [
            (store["emb.loc"], loc),
            (store["emb.cat"], cat_idx),
            (store["emb.hour"], hour),
            (store["emb.day"], day),
            (store["emb.user"], user),
        ]
    )


def embed_step(store: ParamStore, cfg: ModelConfig, loc, cat, hour, day, user, pack: ad.Packing) -> Tensor:
    """Embeddings of the real records of (B, T) index arrays, packed in
    `pack`'s order: one (N, dim_record) graph node (see `embed_records`).
    `user` (B,) gives each row's user."""
    return embed_records(store, cfg, pack.gather(loc), pack.gather(cat), pack.gather(hour), pack.gather(day),
                         np.asarray(user)[pack.rows])


def run_gru(w: GRUWeights, h0: Tensor, x: Tensor, pack: ad.Packing, *,
            states: bool = True) -> tuple[Tensor, Tensor | None]:
    """One GRU chain over the packed x (N, in); returns the final hidden
    state (B, hidden), the chain's graph node, and every real step's state,
    packed (N, hidden), a node over it that only `hlsl` reads; None with
    `states=False`, which lets an inference chain keep two (B, hidden) state
    blocks instead of N state rows."""
    return ad.gru_sequence(x, h0, w, pack, states=states)


def lsc_forward(
    long_w: GRUWeights,
    short_w: GRUWeights,
    long_x: Tensor,
    short_x: Tensor,
    h0: Tensor,
    long_pack: ad.Packing,
    short_pack: ad.Packing,
    *,
    states: bool = True,
    h_long: Tensor | None = None,
) -> tuple[Tensor, Tensor | None, Tensor | None]:
    """Long/short-term capturer: the long GRU runs over the packed
    prior-session records of `long_pack` from h0 (h0 itself where a row has
    none) and its final state seeds the short GRU over the packed current
    prefix, which every row must have. Returns the short GRU's final state
    and the packed per-step states of both chains, None for both with
    `states=False`; the graph reaches the per-step states only where a
    caller reads them. Given `h_long`, the long GRU's final states computed
    elsewhere, the long chain does not run: `long_x`, `h0` and `long_pack`
    are not read, and the long per-step states are None."""
    if (short_pack.last < short_pack.batch).any():  # a row without a prefix ends in its h0 row
        raise ValueError("prediction needs a non-empty current-session prefix")
    long_states = None
    if h_long is None:
        h_long, long_states = run_gru(long_w, h0, long_x, long_pack, states=states)
    h_short, short_states = run_gru(short_w, h_long, short_x, short_pack, states=states)
    return h_short, long_states, short_states


def history_runs(batch: Batch, pack: ad.Packing) -> np.ndarray | None:
    """Each row's history run, named by the row that holds its records, given
    the `Packing` of the rows' histories; None when no two rows share a
    non-empty history. A row joins the run of its user's longest history in
    the batch (the first of equal ones) when its records equal that
    history's first ones in loc, cat, hour and day, as an empty history
    always does; any other row is its own run."""
    rows, lengths = np.arange(batch.size), pack.lengths
    order = np.lexsort((-lengths, batch.user))  # by user, longest first; lexsort is stable, so ties keep row order
    opens = np.r_[True, batch.user[order][1:] != batch.user[order][:-1]]
    longest = np.empty_like(rows)
    longest[order] = order[np.maximum.accumulate(np.where(opens, rows, 0))]
    r, c = pack.rows, pack.cols
    same = np.ones(batch.size, dtype=bool)
    for a in (batch.hist_loc, batch.hist_cat, batch.hist_hour, batch.hist_day):
        same[r[a[r, c] != a[longest[r], c]]] = False
    return np.where(same, longest, rows) if (same & (lengths > 0) & (longest != rows)).any() else None


def shared_long_states(store: ParamStore, cfg: ModelConfig, batch: Batch, runs: np.ndarray,
                       lengths: np.ndarray) -> dict[str, Tensor]:
    """The final state of each `cfg.history_branches` long GRU for every
    row, (B, hidden) per branch, from one chain per history run (see
    `history_runs`), given the rows' history `lengths`. A zero-seeded GRU
    that reads only the records ends each history of a run in the state
    that the run's chain holds after as many records, whatever the target.
    The chain runs in rounds, its runs in the order of their first rows:
    round j packs every run's records from its (j - 1)th distinct history
    length (0 in round 0) to its jth, gathered from the batch's history
    arrays, and starts from round j - 1's final states (zeros in round 0).
    Each round calls `run_gru` with `states=False`, so it holds two (runs,
    hidden) state blocks. A row takes its run's state after the round where
    its history ends."""
    _, first, run_of = np.unique(runs, return_index=True, return_inverse=True)
    # every run's distinct history lengths, run after run, shortest first: a run's kth length ends its round k
    width = batch.hist_mask.shape[1] + 1
    ends, end_of = np.unique(first[run_of] * width + lengths, return_inverse=True)
    end_first, end_len = np.divmod(ends, width)
    k = np.arange(len(ends))
    opens = np.r_[True, end_first[1:] != end_first[:-1]]  # a run's first end
    rounds = k - np.maximum.accumulate(np.where(opens, k, 0))
    seg_lo = np.where(opens, 0, np.roll(end_len, 1))  # round k reads from the (k - 1)th length
    finals = {b: np.empty((len(ends), cfg.hidden)) for b in cfg.history_branches}
    for j in range(rounds.max() + 1):
        sel = np.flatnonzero(rounds == j)
        seg_len = end_len[sel] - seg_lo[sel]
        pack = ad.Packing(np.arange(seg_len.max()) < seg_len[:, None])
        at = runs[end_first[sel]][pack.rows], seg_lo[sel][pack.rows] + pack.cols
        x = embed_records(store, cfg, batch.hist_loc[at], batch.hist_cat[at], batch.hist_hour[at],
                          batch.hist_day[at], batch.user[at[0]])
        for b, f in finals.items():
            h0 = f[sel - 1] if j else np.zeros((len(sel), cfg.hidden))
            f[sel] = run_gru(gru_weights(store, f"gru.{b}.long"), ad.constant(h0), x, pack, states=False)[0].value
    return {b: ad.constant(f[end_of]) for b, f in finals.items()}


def forward(store: ParamStore, cfg: ModelConfig, batch: Batch) -> BranchState:
    """Run the configured variant on a padded batch: each branch's LSC over
    the batch's real steps, then the heads it feeds, connected as the
    variant's `Wiring` says.

    Under `no_grad`, where rows share a history run (`history_runs`), each
    `cfg.history_branches` long GRU runs once per run
    (`shared_long_states`) instead of once per row, and when no branch is
    left to read the batch's histories, their embedding is skipped too."""
    wiring = cfg.wiring
    hist_pack, pref_pack = ad.Packing(batch.hist_mask), ad.Packing(batch.pref_mask)
    runs = None if ad.grad_enabled() or not cfg.history_branches else history_runs(batch, hist_pack)
    # the rounds run before the per-row embeddings are made, which then reuse the rounds' freed buffers
    given = {} if runs is None else shared_long_states(store, cfg, batch, runs, hist_pack.lengths)
    hist = None
    if runs is None or cfg.history_branches != cfg.branches:  # a branch reads the per-row histories
        hist = embed_step(store, cfg, batch.hist_loc, batch.hist_cat, batch.hist_hour, batch.hist_day, batch.user,
                          hist_pack)
    pref = embed_step(store, cfg, batch.pref_loc, batch.pref_cat, batch.pref_hour, batch.pref_day, batch.user,
                      pref_pack)
    h = zero_h = ad.constant(np.zeros((batch.size, cfg.hidden)))
    hist_in, pref_in = hist, pref
    preds: dict[str, Tensor] = {}
    upstream = None
    for pos, branch in enumerate(cfg.branches):
        feeds_next = wiring.hierarchical and pos + 1 < len(cfg.branches)  # the next branch reads the states
        h, long_states, short_states = lsc_forward(
            gru_weights(store, f"gru.{branch}.long"),
            gru_weights(store, f"gru.{branch}.short"),
            hist_in,
            pref_in,
            h if wiring.chained else zero_h,
            hist_pack,
            pref_pack,
            states=feeds_next,
            h_long=given.get(branch),
        )
        for head in cfg.heads if branch == SHARED else (branch,):
            x = h
            if upstream is not None:
                conv = ad.affine(preds[upstream], store[f"conv.{upstream}.w"], store[f"conv.{upstream}.b"])
                x = ad.concat_cols([h, conv])
            preds[head] = ad.affine(x, store[f"pred.{head}.w"], store[f"pred.{head}.b"])
            if wiring.chained:
                upstream = head
        if feeds_next:
            hist_in = ad.concat_cols([hist, long_states])
            pref_in = ad.concat_cols([pref, short_states])
    return BranchState(preds.get("time"), preds.get("cat"), preds["loc"])
