"""Instance construction, seeded training epochs, and the fit loop.

One prediction instance exists for every position >= 2 of every session in
the chosen split; its inputs are the session prefix before the target plus
all chronologically earlier sessions (for test sessions that includes the
train sessions). The loaders keep each user's records once, as one
chronological run of rows of `preprocess.RecordColumns`, and an instance
is a small object over them: its user, a `RecordView` of the rows before
its session (one view, shared by all instances of the session) and its
target's position in the session. Its prefix and targets are read from the
columns when asked for, so an instance costs O(1) memory, however long the
history. A user's sessions must be consecutive views of one set of
columns (`preprocess.user_rows`); sessions built as lists of `SessRecord`s
go through `preprocess.share_columns` first. `batchify` copies the batch's
column slices straight into padded, masked arrays, so batching never
changes per-instance semantics. All randomness derives from (seed, epoch),
which makes runs reproducible and checkpoints resumable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .model import Batch, ModelConfig, build_params, forward
from .objective import LossBreakdown, LossWeights, total_loss
from .params import ParamStore
from .ingest import gc_paused
from .preprocess import RecordView, SessionizedUser, Vocab, user_rows


class TrainingDiverged(Exception):
    pass


class TrainingInstance:
    """One prediction target: record `step` (counted from 0, so >= 1) of
    the session that starts where `history` ends. `history` views the
    records of the user's earlier sessions, and all instances of the
    session share it; `prefix`, the session's records before the target,
    and the targets are read from its columns."""

    __slots__ = ("user_index", "history", "step")

    def __init__(self, user_index: int, history: RecordView, step: int):
        self.user_index, self.history, self.step = user_index, history, step

    @property
    def prefix(self) -> RecordView:
        h = self.history
        return RecordView(h.columns, h.stop, h.stop + self.step)

    @property
    def target_t(self) -> float:
        """Normalized time of week of the target record."""
        return self.history.columns.tow[self.history.stop + self.step].item()

    @property
    def target_cat(self) -> int:
        return self.history.columns.cat[self.history.stop + self.step].item()

    @property
    def target_loc(self) -> int:
        return self.history.columns.loc[self.history.stop + self.step].item()


def make_instances(users: list[SessionizedUser], split: str) -> list[TrainingInstance]:
    """`split` is "train" or "test". An instance's `history` and `prefix`
    view the columns that hold its user's records (see
    `preprocess.user_rows`), and the instances of one session share one
    `history` object."""
    if split not in ("train", "test"):
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    out: list[TrainingInstance] = []
    with gc_paused():
        for u in users:
            lo, hi = (0, u.split_point) if split == "train" else (u.split_point, len(u.sessions))
            if lo == hi:
                continue
            columns, starts = user_rows(u.sessions[:hi])
            for start, stop in zip(starts[lo:hi], starts[lo + 1:hi + 1]):
                history = RecordView(columns, starts[0], start)
                out.extend(TrainingInstance(u.user_index, history, i) for i in range(1, stop - start))
    return out


_PADDED_FIELDS = ("loc", "cat", "hour", "dow")


def _pad(views: list[RecordView]) -> tuple[np.ndarray, ...]:
    """(loc, cat, hour, day, mask) arrays of shape (len(views), longest),
    each view's column slices left-aligned in its row; padding is 0, and so
    is a category of -1."""
    lengths = np.fromiter(map(len, views), dtype=np.intp, count=len(views))
    mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
    out = [np.zeros(mask.shape, dtype=np.intp) for _ in _PADDED_FIELDS]
    if views:
        for a, name in zip(out, _PADDED_FIELDS):
            a[mask] = np.concatenate([v.column(name) for v in views])
        np.maximum(out[1], 0, out=out[1])
    return *out, mask.astype(np.float64)


def batchify(instances: list[TrainingInstance]) -> Batch:
    hist = _pad([inst.history for inst in instances])
    pref = _pad([inst.prefix for inst in instances])
    return Batch(
        user=np.array([inst.user_index for inst in instances], dtype=np.intp),
        hist_loc=hist[0], hist_cat=hist[1], hist_hour=hist[2], hist_day=hist[3], hist_mask=hist[4],
        pref_loc=pref[0], pref_cat=pref[1], pref_hour=pref[2], pref_day=pref[3], pref_mask=pref[4],
        target_t=np.array([inst.target_t for inst in instances], dtype=np.float64),
        target_cat=np.array([max(inst.target_cat, 0) for inst in instances], dtype=np.intp),
        target_loc=np.array([inst.target_loc for inst in instances], dtype=np.intp),
    )


@dataclass
class TrainHyper:
    learning_rate: float = 1e-4
    batch_size: int = 32
    epochs: int = 50
    patience: int = 10
    clip_norm: float = 5.0


def effective_weights(cfg: ModelConfig, weights: LossWeights) -> LossWeights:
    """A variant wired without the spatial term trains with lambda_s = 0."""
    if cfg.wiring.spatial:
        return weights
    return LossWeights(weights.lambda_t, weights.lambda_c, 0.0)


def train_epoch(
    store: ParamStore,
    cfg: ModelConfig,
    instances: list[TrainingInstance],
    weights: LossWeights,
    hyper: TrainHyper,
    vocab: Vocab,
    rng: np.random.Generator,
) -> LossBreakdown:
    """One pass: shuffle, batch, forward/backward, clip, Adam. Returns the
    instance-weighted mean loss breakdown."""
    if not instances:
        raise ValueError("no training instances")
    w = effective_weights(cfg, weights)
    loc_coord = np.asarray(vocab.loc_coord, dtype=np.float64)
    order = rng.permutation(len(instances))
    sums = np.zeros(5)
    for start in range(0, len(order), hyper.batch_size):
        chunk = order[start : start + hyper.batch_size]
        batch = batchify([instances[i] for i in chunk])
        with np.errstate(all="ignore"):  # overflow surfaces as the non-finite loss checked below
            state = forward(store, cfg, batch)
            node, bd = total_loss(state, batch.target_t, batch.target_cat, batch.target_loc, w, loc_coord)
        if not np.isfinite(bd.total):
            norms = {n: float(np.abs(store[n].value).max()) for n in store.names()}
            worst = sorted(norms, key=norms.get, reverse=True)[:5]
            raise TrainingDiverged(
                f"non-finite loss {bd.total} on batch of instances {chunk.tolist()}; "
                f"largest parameters: {[(n, norms[n]) for n in worst]}"
            )
        ad.backward(node)
        store.clip_global_norm(hyper.clip_norm)
        store.adam_step(hyper.learning_rate)
        del state, node  # free this step's graph before the next forward builds one
        sums += np.array([bd.loc, bd.time, bd.cat, bd.spatial, bd.total]) * len(chunk)
    sums /= len(order)
    return LossBreakdown(*sums)


@dataclass
class EpochRow:
    epoch: int
    losses: LossBreakdown
    recall: dict[int, float]   # test-split location recall at 1/5/10


@dataclass
class FitResult:
    store: ParamStore           # parameters of the best epoch
    best_epoch: int
    best_recall: float          # location recall@1 on the test split
    history: list[EpochRow] = field(default_factory=list)


def _clone(store: ParamStore) -> ParamStore:
    """A copy of the values, Adam moments and step counter, without
    gradient buffers."""
    out = ParamStore(store.seed)
    out.step = store.step
    for name, e in store.entries.items():
        out.adopt(name, e.tensor.value.copy(), e.m.copy(), e.v.copy())
    return out


def fit(
    users: list[SessionizedUser],
    vocab: Vocab,
    cfg: ModelConfig,
    weights: LossWeights,
    hyper: TrainHyper,
    seed: int,
    initial: ParamStore | None = None,
    start_epoch: int = 0,
    best_recall: float = -1.0,
    log=None,
) -> FitResult:
    """Train up to hyper.epochs, tracking test-split location recall@1 each
    epoch; stops once `patience` consecutive epochs bring no improvement and
    returns the best-epoch parameters.

    A run resumed from its best checkpoint passes that checkpoint's
    parameters as `initial`, its epoch + 1 as `start_epoch` and its recall@1
    as `best_recall`: the checkpoint stays the best epoch until a later one
    beats it."""
    from .evaluate import location_recall

    store = initial if initial is not None else build_params(cfg, seed)
    train_instances = make_instances(users, "train")
    test_instances = make_instances(users, "test")
    best = _clone(store)
    best_epoch, stale = start_epoch - 1, 0
    history: list[EpochRow] = []
    for epoch in range(start_epoch, hyper.epochs):
        rng = np.random.default_rng([seed, epoch])
        losses = train_epoch(store, cfg, train_instances, weights, hyper, vocab, rng)
        recall = location_recall(store, cfg, test_instances, ns=(1, 5, 10))
        history.append(EpochRow(epoch, losses, recall))
        if log is not None:
            log(history[-1])
        if recall[1] > best_recall:
            best_recall, best_epoch, stale = recall[1], epoch, 0
            best = _clone(store)
        else:
            stale += 1
            if stale > hyper.patience:
                break
    return FitResult(best, best_epoch, best_recall, history)
