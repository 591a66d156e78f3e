"""Ranking metrics and the analysis suite (joint correctness, distance and
displacement distributions, per-cell visit errors, weight sweeps).

Recall@N follows the user-equal reading: per user, the fraction of that
user's test instances whose target is in the top-N list, then an unweighted
mean over users. A record-equal variant (every instance weighted equally) is
reported alongside. Ties in logits rank the lower location index first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .geo import GridSpec, GeoPoint, grid_index, location_km
from .model import ModelConfig, forward
from .objective import LossWeights
from .params import ParamStore
from .preprocess import SessionizedUser, Vocab
from .trainer import TrainHyper, TrainingInstance, batchify, target_rows


@dataclass
class Predictions:
    """Frozen-model outputs over a fixed instance list, in instance order."""

    user: np.ndarray          # (B,)
    loc_ranked: np.ndarray    # (B, topn) location indices, best first
    cat_ranked: np.ndarray | None  # (B, topn) category indices, best first
    target_loc: np.ndarray
    target_cat: np.ndarray
    current_loc: np.ndarray   # last prefix record's location (trip origin)


def rank_locations(loc_logits: np.ndarray, topn: int) -> np.ndarray:
    """Top-n indices per row; equal logits break toward the lower index."""
    return np.argsort(-loc_logits, axis=1, kind="stable")[:, :topn]


# Real history-plus-prefix steps per `predict` batch. It keeps the median
# 256-instance test batch of the NYC-shaped benchmark file (45,424 steps) in
# one batch, and caps a batch's embeddings, padded index arrays and logits
# whatever its users' history lengths: that file's worst 256 consecutive test
# instances hold 492,772 steps. The GRU chains add no per-step memory beyond
# their input: under no_grad each holds one chunk of gates and two blocks of
# states (only `hlsl`'s upstream chains keep their per-step states).
EVAL_MAX_STEPS = 50_000


def step_batches(instances: list[TrainingInstance], max_steps: int = EVAL_MAX_STEPS):
    """Consecutive runs of `instances`, in order, each holding at most
    `max_steps` real history-plus-prefix steps, except that an instance
    over the budget runs alone. No instance is split."""
    start, steps = 0, 0
    for i, inst in enumerate(instances):
        n = len(inst.history) + len(inst.prefix)
        if i > start and steps + n > max_steps:
            yield instances[start:i]
            start, steps = i, 0
        steps += n
    if start < len(instances):
        yield instances[start:]


def predict(
    store: ParamStore,
    cfg: ModelConfig,
    instances: list[TrainingInstance],
    vocab: Vocab | None = None,
    topn: int = 10,
    max_steps: int = EVAL_MAX_STEPS,
) -> Predictions:
    """Ranked location (and, when available, category) predictions.

    Variants without a category head get category rankings derived from the
    predicted locations' categories, when `vocab` carries categories. The
    forward pass records no graph, and runs over `step_batches` of at most
    `max_steps` real steps, so its memory follows the budget, not the
    longest histories. Where instances of a batch share a history run,
    `forward` runs the zero-seeded long GRUs once per run.
    """
    ranked, cats = [], []
    target_loc, target_cat, current_loc = ([np.zeros(0, dtype=np.intp)] for _ in range(3))
    for chunk in step_batches(instances, max_steps):
        batch = batchify(chunk)
        with ad.no_grad():
            state = forward(store, cfg, batch)
        ranked.append(rank_locations(state.loc_logits.value, topn))
        if state.cat_logits is not None:
            cats.append(rank_locations(state.cat_logits.value, topn))
        target_loc.append(batch.target_loc)
        columns, rows = target_rows(chunk)
        target_cat.append(columns.cat[rows])  # unclamped: -1 for a record without a category
        current_loc.append(batch.pref_loc[np.arange(batch.size), np.count_nonzero(batch.pref_mask, axis=1) - 1])
    loc_ranked = np.concatenate(ranked) if ranked else np.zeros((0, topn), dtype=np.intp)
    if cats:
        cat_ranked = np.concatenate(cats)
    elif vocab is not None and vocab.n_cats > 0:
        cat_ranked = np.asarray(vocab.loc_cat, dtype=np.intp)[loc_ranked]
    else:
        cat_ranked = None
    return Predictions(
        user=np.array([i.user_index for i in instances], dtype=np.intp),
        loc_ranked=loc_ranked,
        cat_ranked=cat_ranked,
        target_loc=np.concatenate(target_loc),
        target_cat=np.concatenate(target_cat),
        current_loc=np.concatenate(current_loc),
    )


def recall_at_n(user_ids, ranked, targets, n: int) -> tuple[float, dict[int, float], float]:
    """(user-equal mean, per-user map, record-equal mean) of top-n hit rate."""
    user_ids = np.asarray(user_ids)
    hits = (np.asarray(ranked)[:, :n] == np.asarray(targets)[:, None]).any(axis=1)
    users, user_of = np.unique(user_ids, return_inverse=True)
    rates = np.bincount(user_of, weights=hits, minlength=len(users)) / np.bincount(user_of, minlength=len(users))
    per_user = dict(zip(map(int, users.tolist()), rates.tolist()))
    # sequential sum in sorted-user order, so the value is reproducible exactly
    user_equal = sum(per_user.values()) / len(per_user) if per_user else 0.0
    record_equal = float(hits.sum() / len(hits)) if len(hits) else 0.0
    return user_equal, per_user, record_equal


def location_recall(store, cfg, instances, ns=(1, 5, 10)) -> dict[int, float]:
    preds = predict(store, cfg, instances, topn=max(ns))
    return {n: recall_at_n(preds.user, preds.loc_ranked, preds.target_loc, n)[0] for n in ns}


def joint_causal_analysis(preds: Predictions) -> dict[str, float]:
    """Fractions of instances with (category, location) top-1 both right,
    only one right, or neither; sums to 1."""
    if preds.cat_ranked is None:
        raise ValueError("joint analysis needs category predictions")
    loc_ok = preds.loc_ranked[:, 0] == preds.target_loc
    cat_ok = preds.cat_ranked[:, 0] == preds.target_cat
    n = max(len(loc_ok), 1)
    return {
        "both": float((loc_ok & cat_ok).sum() / n),
        "cat_only": float((~loc_ok & cat_ok).sum() / n),
        "loc_only": float((loc_ok & ~cat_ok).sum() / n),
        "neither": float((~loc_ok & ~cat_ok).sum() / n),
    }


@dataclass
class Histogram:
    edges: np.ndarray     # strictly increasing, len(counts) + 1
    counts: np.ndarray

    def normalize(self) -> "Histogram":
        total = self.counts.sum()
        return Histogram(self.edges, self.counts / total if total else self.counts)


def bin_values(values, edges) -> np.ndarray:
    """Counts per [edges[i], edges[i+1]) bin; out-of-range values clip into
    the first/last bin so totals are conserved."""
    values = np.asarray(values, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.float64)
    idx = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, len(edges) - 2)
    return np.bincount(idx, minlength=len(edges) - 1).astype(np.float64)


def pred_target_distance_hist(preds: Predictions, vocab: Vocab, edges) -> Histogram:
    """Distribution of km between the top-1 prediction and the target, the
    distance that weights L_s in training."""
    d = location_km(vocab.loc_coord, preds.loc_ranked[:, 0], preds.target_loc)
    return Histogram(np.asarray(edges, dtype=np.float64), bin_values(d, edges))


def displacement_edges(n_bins: int = 30, lo_km: float = 0.1, hi_km: float = 100.0) -> np.ndarray:
    """Log-spaced displacement bins plus a [0, lo_km) underflow bin for trips
    that stay in place."""
    return np.concatenate([[0.0], np.geomspace(lo_km, hi_km, n_bins + 1)])


def displacement_comparison(
    preds: Predictions, vocab: Vocab, edges: np.ndarray | None = None
) -> tuple[Histogram, Histogram]:
    """(predicted, actual) displacement distributions, each normalized to
    probability 1. Displacement is km from the trip origin (last prefix
    record) to the predicted / true destination."""
    if edges is None:
        edges = displacement_edges()
    d_pred = location_km(vocab.loc_coord, preds.current_loc, preds.loc_ranked[:, 0])
    d_true = location_km(vocab.loc_coord, preds.current_loc, preds.target_loc)
    return (
        Histogram(np.asarray(edges), bin_values(d_pred, edges)).normalize(),
        Histogram(np.asarray(edges), bin_values(d_true, edges)).normalize(),
    )


@dataclass
class CellError:
    row: int
    col: int
    predicted: int
    actual: int

    @property
    def abs_error(self) -> int:
        return abs(self.predicted - self.actual)


def attractiveness_error(preds: Predictions, vocab: Vocab, grid: GridSpec) -> list[CellError]:
    """Per grid cell, predicted vs actual top-1 visit counts over all
    instances; cells with any visits are listed, sorted by (row, col)."""
    cells: dict[tuple[int, int], list[int]] = {}
    for kind, idx in ((0, preds.loc_ranked[:, 0]), (1, preds.target_loc)):
        for li in idx:
            lat, lon = vocab.loc_coord[int(li)]
            cell = grid_index(GeoPoint(lat, lon), grid)
            cells.setdefault(cell, [0, 0])[kind] += 1
    return [CellError(r, c, p, a) for (r, c), (p, a) in sorted(cells.items())]


def dataset_grid(vocab: Vocab, cell_m: float = 500.0) -> GridSpec:
    """Grid anchored at the dataset bounding box's south-west corner."""
    coords = np.asarray(vocab.loc_coord, dtype=np.float64)
    return GridSpec(GeoPoint(float(coords[:, 0].min()), float(coords[:, 1].min())), cell_m)


# ---------------------------------------------------------------------------
# Metrics report
# ---------------------------------------------------------------------------

@dataclass
class MetricsReport:
    """JSON-serializable evaluation summary.

    Keys: recall_loc / recall_cat ({"1": ..., "5": ..., "10": ...}),
    recall_loc_record_equal, per_user_recall_at_1, joint_matrix,
    users_evaluated, users_skipped, n_instances.
    """

    recall_loc: dict[int, float]
    recall_loc_record_equal: dict[int, float]
    recall_cat: dict[int, float] | None
    per_user_recall_at_1: dict[int, float]
    joint_matrix: dict[str, float] | None
    users_evaluated: int
    users_skipped: int
    n_instances: int

    def to_json_dict(self) -> dict:
        return {
            "recall_loc": {str(k): v for k, v in self.recall_loc.items()},
            "recall_loc_record_equal": {str(k): v for k, v in self.recall_loc_record_equal.items()},
            "recall_cat": None if self.recall_cat is None else {str(k): v for k, v in self.recall_cat.items()},
            "per_user_recall_at_1": {str(k): v for k, v in self.per_user_recall_at_1.items()},
            "joint_matrix": self.joint_matrix,
            "users_evaluated": self.users_evaluated,
            "users_skipped": self.users_skipped,
            "n_instances": self.n_instances,
        }


def build_report(
    store: ParamStore,
    cfg: ModelConfig,
    users: list[SessionizedUser],
    instances: list[TrainingInstance],
    vocab: Vocab | None = None,
    ns=(1, 5, 10),
) -> MetricsReport:
    preds = predict(store, cfg, instances, vocab=vocab, topn=max(ns))
    recall_loc, recall_rec = {}, {}
    per_user_1: dict[int, float] = {}
    for n in ns:
        ue, per_user, re = recall_at_n(preds.user, preds.loc_ranked, preds.target_loc, n)
        recall_loc[n] = ue
        recall_rec[n] = re
        if n == 1:
            per_user_1 = per_user
    recall_cat = None
    joint = None
    if preds.cat_ranked is not None:
        recall_cat = {
            n: recall_at_n(preds.user, preds.cat_ranked, preds.target_cat, n)[0] for n in ns
        }
        joint = joint_causal_analysis(preds)
    evaluated = len(per_user_1)
    return MetricsReport(
        recall_loc=recall_loc,
        recall_loc_record_equal=recall_rec,
        recall_cat=recall_cat,
        per_user_recall_at_1=per_user_1,
        joint_matrix=joint,
        users_evaluated=evaluated,
        users_skipped=len(users) - evaluated,
        n_instances=len(instances),
    )


# ---------------------------------------------------------------------------
# Sensitivity sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    point: dict[str, float]
    seeds: list[int]
    values: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def sd(self) -> float:
        return float(np.std(self.values))


def sensitivity_sweep(
    users: list[SessionizedUser],
    vocab: Vocab,
    cfg: ModelConfig,
    base: LossWeights,
    hyper: TrainHyper,
    points: list[dict[str, float]],
    seeds: list[int],
    log=None,
) -> list[SweepRow]:
    """Train one model per (weight point, seed); report location recall@1."""
    from .trainer import fit

    if not points:
        raise ValueError("empty sweep grid")
    rows = []
    for point in points:
        row = SweepRow(point=point, seeds=list(seeds))
        weights = LossWeights(
            point.get("lambda_t", base.lambda_t),
            point.get("lambda_c", base.lambda_c),
            point.get("lambda_s", base.lambda_s),
        )
        for seed in seeds:
            result = fit(users, vocab, cfg, weights, hyper, seed)
            row.values.append(result.best_recall)
            if log is not None:
                log(point, seed, result.best_recall)
        rows.append(row)
    return rows
