"""Instance construction, seeded training epochs, and the fit loop.

One prediction instance exists for every position >= 2 of every session in
the chosen split; its inputs are the session prefix before the target plus
all chronologically earlier sessions (for test sessions that includes the
train sessions). `make_instances` keeps each user's records once, in one
chronological list, and an instance's history and prefix are read-only
views of it: all instances of one session share one history view, so the
instances cost O(1) memory each, however long the history. Instances are
padded per batch and masked, so batching never changes per-instance
semantics. All randomness derives from (seed, epoch), which makes runs
reproducible and checkpoints resumable.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import autodiff as ad
from .model import Batch, ModelConfig, build_params, forward
from .objective import LossBreakdown, LossWeights, total_loss
from .params import ParamStore
from .ingest import gc_paused
from .preprocess import SessionizedUser, SessRecord, Vocab


class TrainingDiverged(Exception):
    pass


class RecordView(Sequence):
    """The read-only list `records[start:stop]`, without copying it.

    It indexes (negative indexes too), slices, iterates and has a length
    like the list, and compares equal to the list and to any view of the
    same records."""

    __slots__ = ("records", "start", "stop")

    def __init__(self, records: list[SessRecord], start: int, stop: int):
        self.records, self.start, self.stop = records, start, stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, key):
        if isinstance(key, slice):
            span = range(self.start, self.stop)[key]
            if span.step == 1:
                return RecordView(self.records, span.start, max(span.start, span.stop))
            return [self.records[i] for i in span]
        i = operator.index(key)
        n = self.stop - self.start
        if not -n <= i < n:
            raise IndexError("record index out of range")
        return self.records[self.start + i % n]

    def __iter__(self):
        return iter(self.records[self.start:self.stop])

    def __eq__(self, other):
        if isinstance(other, RecordView):
            other = other.records[other.start:other.stop]
        elif not isinstance(other, list):
            return NotImplemented
        return self.records[self.start:self.stop] == other

    __hash__ = None  # equal to a list, which is unhashable

    def __repr__(self) -> str:
        return f"RecordView({self.records[self.start:self.stop]!r})"


@dataclass(slots=True)
class TrainingInstance:
    """One prediction target. `make_instances` gives `history` and `prefix`
    as `RecordView`s of the user's records, so their lengths cost O(1);
    plain lists of `SessRecord`s work everywhere too."""

    user_index: int
    history: Sequence[SessRecord]  # all records of sessions before the current one
    prefix: Sequence[SessRecord]   # current-session records before the target
    target_t: float             # normalized time of week of the target record
    target_cat: int
    target_loc: int


def make_instances(users: list[SessionizedUser], split: str) -> list[TrainingInstance]:
    """`split` is "train" or "test". Each user's records up to the split's
    end are copied once into one list; an instance's `history` and `prefix`
    are `RecordView`s of it, and the instances of one session share one
    `history` object."""
    if split not in ("train", "test"):
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    out: list[TrainingInstance] = []
    with gc_paused():
        for u in users:
            sessions = u.sessions
            lo, hi = (0, u.split_point) if split == "train" else (u.split_point, len(sessions))
            records = [r for s in sessions[:hi] for r in s.records]
            start = sum(len(s.records) for s in sessions[:lo])
            for s in sessions[lo:hi]:
                history = RecordView(records, 0, start)
                session = s.records
                for i in range(1, len(session)):
                    tgt = session[i]
                    out.append(TrainingInstance(
                        u.user_index, history, RecordView(records, start, start + i), tgt.tow, tgt.cat, tgt.loc
                    ))
                start += len(session)
    return out


def _pad(seqs: Sequence[Sequence[SessRecord]]) -> tuple[np.ndarray, ...]:
    """(loc, cat, hour, day, mask) arrays of shape (len(seqs), longest),
    each sequence left-aligned in its row; padding is 0, and so is a
    category of -1."""
    lengths = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
    mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
    out = [np.zeros(mask.shape, dtype=np.intp) for _ in range(4)]
    columns = list(zip(*chain.from_iterable(seqs)))  # SessRecord fields, row-major over the real steps
    if columns:
        for a, col in zip(out, columns[:4]):
            a[mask] = col
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
