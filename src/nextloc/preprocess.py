"""Check-in preprocessing: sparse filtering, same-day merging, weekly
sessionization, vocabulary construction, and the chronological 8/2 split.

Stage order is filter -> merge -> sessionize. Sparse filtering alternates
location and user passes until a fixpoint so the result does not depend on
which side is pruned first. All calendar features (hour of day, day of week,
normalized time of week) are computed in each record's local time,
``utc_seconds + 60 * tz_offset_minutes``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import NamedTuple

from .ingest import RawRecord, RecordSet


class PreprocessError(Exception):
    pass


class SessRecord(NamedTuple):
    loc: int            # location index in vocab
    cat: int            # category index in vocab, -1 when the dataset has none
    hour: int           # local hour of day, 0..23
    dow: int            # local day of week, Monday=0
    tow: float          # normalized time of week in [0, 1)
    utc: int            # epoch seconds
    tz: int             # tz offset minutes (kept so features can be recomputed)


@dataclass
class Session:
    week_id: int        # iso_year * 100 + iso_week of the local timestamp
    records: list[SessRecord]


@dataclass
class SessionizedUser:
    user_index: int
    sessions: list[Session]
    split_point: int = 0  # sessions[:split_point] train, rest test


@dataclass
class Vocab:
    user_key: list[str]                 # index -> key
    loc_key: list[str]
    cat_name: list[str]                 # index -> category name ([] without categories)
    cat_raw_id: list[int]               # index -> ingest-level dense category id
    loc_coord: list[tuple[float, float]]  # index -> (lat, lon), first-seen canonical
    loc_cat: list[int]                  # index -> category index (-1 without categories)
    user_index: dict[str, int] = field(default_factory=dict)
    loc_index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.user_index:
            self.user_index = {k: i for i, k in enumerate(self.user_key)}
        if not self.loc_index:
            self.loc_index = {k: i for i, k in enumerate(self.loc_key)}

    @property
    def n_users(self) -> int:
        return len(self.user_key)

    @property
    def n_locs(self) -> int:
        return len(self.loc_key)

    @property
    def n_cats(self) -> int:
        return len(self.cat_name)


def local_fields(utc_seconds: int, tz_offset_minutes: int) -> tuple[int, int, float]:
    """(hour, day_of_week, time_of_week_norm) of a record's local time."""
    local = utc_seconds + 60 * tz_offset_minutes
    day = local // 86400
    rem = local - day * 86400
    hour, rem = divmod(rem, 3600)
    minute, second = divmod(rem, 60)
    dow = (day + 3) % 7  # 1970-01-01 was a Thursday; Monday=0
    tow = (dow * 24 + hour + minute / 60.0 + second / 3600.0) / 168.0
    return hour, dow, tow


def local_week_id(utc_seconds: int, tz_offset_minutes: int) -> int:
    local = utc_seconds + 60 * tz_offset_minutes
    iso = datetime.fromtimestamp(local, tz=timezone.utc).isocalendar()
    return iso[0] * 100 + iso[1]


def local_day(utc_seconds: int, tz_offset_minutes: int) -> int:
    return (utc_seconds + 60 * tz_offset_minutes) // 86400


def _subset(rs: RecordSet, records: list[RawRecord]) -> RecordSet:
    keys = {r.location_key for r in records}
    return RecordSet(
        records=records,
        source_tag=rs.source_tag,
        locations={k: v for k, v in rs.locations.items() if k in keys},
        rejects=rs.rejects,
        location_conflicts=rs.location_conflicts,
    )


def filter_sparse(rs: RecordSet, min_count: int = 10) -> RecordSet:
    """Drop locations then users with fewer than min_count records, repeated
    until both constraints hold simultaneously."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    records = rs.records
    while True:
        loc_counts = Counter(r.location_key for r in records)
        kept = [r for r in records if loc_counts[r.location_key] >= min_count]
        user_counts = Counter(r.user_key for r in kept)
        kept = [r for r in kept if user_counts[r.user_key] >= min_count]
        if len(kept) == len(records):
            break
        records = kept
    if not records:
        raise PreprocessError("dataset fully filtered")
    return _subset(rs, records)


def merge_consecutive(rs: RecordSet) -> RecordSet:
    """Collapse runs of consecutive records with the same user, location, and
    local calendar day into the run's earliest record."""
    merged: list[RawRecord] = []
    prev_key = None
    for r in rs.records:
        key = (r.user_key, r.location_key, local_day(r.utc_seconds, r.tz_offset_minutes))
        if key != prev_key:
            merged.append(r)
            prev_key = key
    return _subset(rs, merged)


def filter_and_merge(rs: RecordSet, min_count: int = 10) -> RecordSet:
    """Sparse-filter then same-day-merge, iterated until both are no-ops.

    Merging can push a user or location back under the threshold, and
    filtering can make previously separated records adjacent; iterating makes
    the stage idempotent. On typical data the first pass is already stable.
    """
    current = rs
    while True:
        out = merge_consecutive(filter_sparse(current, min_count))
        if out.records == current.records:
            return out
        current = out


def build_sessions(
    rs: RecordSet,
    min_session_records: int = 2,
    min_sessions: int = 5,
) -> tuple[Vocab, list[SessionizedUser]]:
    """Partition each user's records into local-time ISO weeks, enforce the
    per-session and per-user minimums, and build the vocabulary over the
    surviving data only."""
    from .ingest import category_ids

    per_user: dict[str, dict[int, list[RawRecord]]] = {}
    for r in rs.records:  # records are (user, time)-sorted
        week = local_week_id(r.utc_seconds, r.tz_offset_minutes)
        per_user.setdefault(r.user_key, {}).setdefault(week, []).append(r)

    surviving: dict[str, list[tuple[int, list[RawRecord]]]] = {}
    for user, by_week in per_user.items():
        kept = [(w, recs) for w, recs in sorted(by_week.items()) if len(recs) >= min_session_records]
        if len(kept) >= min_sessions:
            surviving[user] = kept
    if not surviving:
        raise PreprocessError("no users survive sessionization")

    users_sorted = sorted(surviving)
    loc_keys = sorted({r.location_key for u in users_sorted for _, recs in surviving[u] for r in recs})
    raw_cat_ids = category_ids(rs)
    cat_names = sorted(
        {
            rs.locations[k].category_name
            for k in loc_keys
            if rs.locations[k].category_name is not None
        }
    )
    cat_of_name = {name: i for i, name in enumerate(cat_names)}

    loc_index = {k: i for i, k in enumerate(loc_keys)}
    loc_coord = [(rs.locations[k].lat, rs.locations[k].lon) for k in loc_keys]
    loc_cat = [
        cat_of_name[rs.locations[k].category_name]
        if rs.locations[k].category_name is not None
        else -1
        for k in loc_keys
    ]
    vocab = Vocab(
        user_key=users_sorted,
        loc_key=loc_keys,
        cat_name=cat_names,
        cat_raw_id=[raw_cat_ids[n] for n in cat_names],
        loc_coord=loc_coord,
        loc_cat=loc_cat,
    )

    out: list[SessionizedUser] = []
    for ui, user in enumerate(users_sorted):
        sessions = []
        for week, recs in surviving[user]:
            rows = []
            for r in recs:
                hour, dow, tow = local_fields(r.utc_seconds, r.tz_offset_minutes)
                li = loc_index[r.location_key]
                rows.append(
                    SessRecord(li, loc_cat[li], hour, dow, tow, r.utc_seconds, r.tz_offset_minutes)
                )
            sessions.append(Session(week, rows))
        out.append(SessionizedUser(ui, sessions))
    return vocab, out


def split_train_test(users: list[SessionizedUser], ratio: float = 0.8) -> list[SessionizedUser]:
    """Chronological split: the first ceil(ratio * n) sessions train, the rest test."""
    for u in users:
        u.split_point = math.ceil(ratio * len(u.sessions))
    return users


# ---------------------------------------------------------------------------
# Pipeline driver and statistics
# ---------------------------------------------------------------------------

@dataclass
class StageCounts:
    users: int
    locs: int
    records: int


def _counts(rs: RecordSet) -> StageCounts:
    return StageCounts(
        users=len({r.user_key for r in rs.records}),
        locs=len({r.location_key for r in rs.records}),
        records=len(rs.records),
    )


@dataclass
class PipelineResult:
    vocab: Vocab
    users: list[SessionizedUser]
    raw: StageCounts
    processed: StageCounts      # after filter + merge
    final: StageCounts          # after sessionization minimums
    n_cats: int
    n_sessions: int
    rejects: int
    location_conflicts: int


def run_pipeline(
    rs: RecordSet,
    min_count: int = 10,
    min_session_records: int = 2,
    min_sessions: int = 5,
    train_ratio: float = 0.8,
) -> PipelineResult:
    raw = _counts(rs)
    merged = filter_and_merge(rs, min_count)
    processed = _counts(merged)
    vocab, users = build_sessions(merged, min_session_records, min_sessions)
    split_train_test(users, train_ratio)
    n_records = sum(len(s.records) for u in users for s in u.sessions)
    n_sessions = sum(len(u.sessions) for u in users)
    return PipelineResult(
        vocab=vocab,
        users=users,
        raw=raw,
        processed=processed,
        final=StageCounts(vocab.n_users, vocab.n_locs, n_records),
        n_cats=vocab.n_cats,
        n_sessions=n_sessions,
        rejects=len(rs.rejects),
        location_conflicts=rs.location_conflicts,
    )


def stats_report(result: PipelineResult, reference: tuple[int, int, int] | None = None) -> str:
    """Plain-text statistics table; `reference` is an optional expected
    (users, locations, records) triple for the processed stage, reported as
    relative deviation, never asserted."""
    lines = [
        "stage\tusers\tlocations\trecords",
        f"raw\t{result.raw.users}\t{result.raw.locs}\t{result.raw.records}",
        f"processed\t{result.processed.users}\t{result.processed.locs}\t{result.processed.records}",
        f"final\t{result.final.users}\t{result.final.locs}\t{result.final.records}",
        f"categories\t{result.n_cats}",
        f"sessions\t{result.n_sessions}",
        f"rejected_lines\t{result.rejects}",
        f"location_conflicts\t{result.location_conflicts}",
    ]
    if reference is not None:
        ru, rl, rr = reference
        p = result.processed
        lines.append(f"reference_processed\t{ru}\t{rl}\t{rr}")
        for name, got, want in (("users", p.users, ru), ("locations", p.locs, rl), ("records", p.records, rr)):
            dev = (got - want) / want if want else float("nan")
            lines.append(f"reference_deviation_{name}\t{dev:+.4f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Processed dataset / vocabulary files
# ---------------------------------------------------------------------------

PROCESSED_MAGIC = "#nextloc-processed\tv1"
VOCAB_MAGIC = "#nextloc-vocab\tv1"


def save_processed(path, vocab: Vocab, users: list[SessionizedUser], header_lines: list[str] = ()) -> None:
    """Tagged plain-text layout. `U` starts a user block, `S` a session block,
    and `R` lines carry the canonical record columns (user key, location key,
    category id, lat, lon, utc seconds, tz offset minutes)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{PROCESSED_MAGIC}\tusers={vocab.n_users}\tlocs={vocab.n_locs}\tcats={vocab.n_cats}\n")
        for h in header_lines:
            fh.write(f"#{h}\n")
        for u in users:
            fh.write(f"U\t{vocab.user_key[u.user_index]}\t{u.split_point}\t{len(u.sessions)}\n")
            for s in u.sessions:
                fh.write(f"S\t{s.week_id}\t{len(s.records)}\n")
                for r in s.records:
                    lat, lon = vocab.loc_coord[r.loc]
                    raw_cat = vocab.cat_raw_id[r.cat] if r.cat >= 0 else -1
                    fh.write(
                        f"R\t{vocab.user_key[u.user_index]}\t{vocab.loc_key[r.loc]}"
                        f"\t{raw_cat}\t{lat!r}\t{lon!r}\t{r.utc}\t{r.tz}\n"
                    )


def save_vocab(path, vocab: Vocab, header_lines: list[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{VOCAB_MAGIC}\n")
        for h in header_lines:
            fh.write(f"#{h}\n")
        for i, k in enumerate(vocab.user_key):
            fh.write(f"USER\t{i}\t{k}\n")
        for i, k in enumerate(vocab.loc_key):
            lat, lon = vocab.loc_coord[i]
            fh.write(f"LOC\t{i}\t{k}\t{lat!r}\t{lon!r}\t{vocab.loc_cat[i]}\n")
        for i, name in enumerate(vocab.cat_name):
            fh.write(f"CAT\t{i}\t{vocab.cat_raw_id[i]}\t{name}\n")


def load_vocab(path) -> Vocab:
    user_key, loc_key, cat_name, cat_raw_id, loc_coord, loc_cat = [], [], [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != VOCAB_MAGIC:
            raise PreprocessError(f"{path}: not a vocabulary file")
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            tag, *rest = line.split("\t")
            if tag == "USER":
                user_key.append(rest[1])
            elif tag == "LOC":
                loc_key.append(rest[1])
                loc_coord.append((float(rest[2]), float(rest[3])))
                loc_cat.append(int(rest[4]))
            elif tag == "CAT":
                cat_raw_id.append(int(rest[1]))
                cat_name.append(rest[2])
            else:
                raise PreprocessError(f"{path}: unknown tag {tag!r}")
    return Vocab(user_key, loc_key, cat_name, cat_raw_id, loc_coord, loc_cat)


def load_processed(path, vocab: Vocab) -> list[SessionizedUser]:
    """Read a `save_processed` file, checking the header's user count, each
    block's declared session or record count, that every `S`/`R` line sits
    inside a user/session block, and that every key is in `vocab`."""
    users: list[SessionizedUser] = []
    blocks: list[tuple[int, str, int, list]] = []  # (line, what, declared count, items)
    current_user: SessionizedUser | None = None
    current_session: Session | None = None
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith(PROCESSED_MAGIC):
            raise PreprocessError(f"{path}: not a processed dataset file")
        header = dict(f.split("=", 1) for f in first[len(PROCESSED_MAGIC):].split("\t") if "=" in f)
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            tag, *rest = line.split("\t")
            try:
                if tag == "U":
                    current_user = SessionizedUser(
                        user_index=vocab.user_index[rest[0]], sessions=[], split_point=int(rest[1])
                    )
                    current_session = None
                    users.append(current_user)
                    blocks.append((lineno, "sessions", int(rest[2]), current_user.sessions))
                elif tag == "S":
                    if current_user is None:
                        raise PreprocessError(f"{path}:{lineno}: S line before any U line")
                    current_session = Session(week_id=int(rest[0]), records=[])
                    current_user.sessions.append(current_session)
                    blocks.append((lineno, "records", int(rest[1]), current_session.records))
                elif tag == "R":
                    if current_session is None:
                        raise PreprocessError(f"{path}:{lineno}: R line outside a session block")
                    user_k, loc_k, _raw_cat, _lat, _lon, utc_s, tz_s = rest
                    if vocab.user_index[user_k] != current_user.user_index:
                        raise PreprocessError(f"{path}:{lineno}: R line of user {user_k!r} in another user's block")
                    li = vocab.loc_index[loc_k]
                    utc, tz = int(utc_s), int(tz_s)
                    hour, dow, tow = local_fields(utc, tz)
                    current_session.records.append(
                        SessRecord(li, vocab.loc_cat[li], hour, dow, tow, utc, tz)
                    )
                else:
                    raise PreprocessError(f"{path}:{lineno}: unknown tag {tag!r}")
            except KeyError as e:
                raise PreprocessError(f"{path}:{lineno}: key {e.args[0]!r} not in the vocabulary") from None
            except (IndexError, ValueError):
                raise PreprocessError(f"{path}:{lineno}: malformed {tag} line") from None
    for lineno, what, declared, items in blocks:
        if len(items) != declared:
            raise PreprocessError(f"{path}:{lineno}: declares {declared} {what}, found {len(items)}")
    if not users:
        raise PreprocessError(f"{path}: empty processed dataset")
    if header.get("users") != str(len(users)):
        raise PreprocessError(f"{path}: header declares users={header.get('users')}, found {len(users)}")
    return users
