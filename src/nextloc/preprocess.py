"""Check-in preprocessing: sparse filtering, same-day merging, weekly
sessionization, vocabulary construction, and the chronological 8/2 split.

Stage order is filter -> merge -> sessionize. Sparse filtering alternates
location and user passes until a fixpoint so the result does not depend on
which side is pruned first. All calendar features (hour of day, day of week,
normalized time of week) are computed in each record's local time,
``utc_seconds + 60 * tz_offset_minutes``.

Every stage runs on the record set's integer codes and numpy columns
(`ingest.Columns`): a stage picks the rows it keeps. The surviving records
stay columns too: `build_sessions`, `load_processed` and the synthetic
corpora put them into one `RecordColumns` (loc, cat, hour, dow, tow, utc,
tz), where each user's records are one chronological run of rows, and each
`Session.records` is a `RecordView` of its rows: a row range whose
readers take column slices, so a record costs 36 bytes of columns instead
of a 229-byte `SessRecord`. Iterating a view builds its `SessRecord`s;
`share_columns` is the one way from a list of them back to columns, for
the synthetic corpora and tests. The loader reads the processed file's
columns first, derives their categories and calendar fields in one pass,
as `build_sessions` does (`_record_columns`), and then checks the
records' chronology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .atomic import atomic_write
from .ingest import RecordSet, check_local_time, dense_category_codes, gc_paused


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


class RecordColumns:
    """Records as numpy columns, one per `SessRecord` field, in row order.
    The loaders keep all records of a dataset in one of these, each user's
    as one chronological run of rows; `RecordView`s read them. A column
    given as an array of its dtype is taken over without a copy, and like
    every column it becomes read-only."""

    __slots__ = SessRecord._fields
    # float64 keeps tow bit for bit; int32 holds every location, category,
    # calendar field and tz offset; utc needs int64
    DTYPES = (np.int32, np.int32, np.int32, np.int32, np.float64, np.int64, np.int32)

    def __init__(self, loc, cat, hour, dow, tow, utc, tz):
        for name, dtype, values in zip(self.__slots__, self.DTYPES, (loc, cat, hour, dow, tow, utc, tz)):
            column = np.asarray(values, dtype=dtype)
            column.flags.writeable = False  # views share these rows
            setattr(self, name, column)


class RecordView:
    """The read-only records `columns[start:stop]`, without copying them:
    their column slices, their count, and, iterated, a `SessRecord` each."""

    __slots__ = ("columns", "start", "stop")

    def __init__(self, columns: RecordColumns, start: int, stop: int):
        self.columns, self.start, self.stop = columns, start, stop

    def column(self, name: str) -> np.ndarray:
        """The view's rows of one column, as a numpy view."""
        return getattr(self.columns, name)[self.start:self.stop]

    def __len__(self) -> int:
        return self.stop - self.start

    def __iter__(self):
        rows = slice(self.start, self.stop)
        return map(_new_record, zip(*(getattr(self.columns, name)[rows].tolist() for name in SessRecord._fields)))


_new_record = partial(tuple.__new__, SessRecord)  # SessRecord._make without its Python-level length check


def user_rows(sessions: list[Session]) -> tuple[RecordColumns, list[int]]:
    """The columns that hold the records of `sessions`, consecutive views of
    one set of columns as the loaders and `share_columns` build them, and
    the row where each session starts, plus the run's end."""
    views = [s.records for s in sessions]
    if not (views and all(isinstance(v, RecordView) and v.columns is views[0].columns for v in views) and all(
        a.stop == b.start for a, b in zip(views, views[1:])
    )):
        raise ValueError("sessions must be consecutive views of one set of record columns")
    return views[0].columns, [v.start for v in views] + [views[-1].stop]


def share_columns(users: list[SessionizedUser]) -> list[SessionizedUser]:
    """Copy the records of every session of `users`, in order, into one set
    of columns, and make each session's records a view of its rows."""
    records = [r for u in users for s in u.sessions for r in s.records]
    columns = RecordColumns(*(zip(*records) if records else [()] * len(SessRecord._fields)))
    start = 0
    for u in users:
        for s in u.sessions:
            stop = start + len(s.records)
            s.records = RecordView(columns, start, stop)
            start = stop
    return users


@dataclass(slots=True)
class Session:
    week_id: int        # iso_year * 100 + iso_week of the local timestamp
    records: RecordView  # a list of `SessRecord`s only until `share_columns` views it


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


def local_fields(utc_seconds, tz_offset_minutes):
    """(hour, day_of_week, time_of_week_norm) of a record's local time.

    Takes ints or int64 arrays (element-wise, with the same floating-point
    operations, so both give bit-identical results)."""
    local = utc_seconds + 60 * tz_offset_minutes
    day, rem = divmod(local, 86400)
    hour, rem = divmod(rem, 3600)
    minute, second = divmod(rem, 60)
    dow = (day + 3) % 7  # 1970-01-01 was a Thursday; Monday=0
    tow = (dow * 24 + hour + minute / 60.0 + second / 3600.0) / 168.0
    return hour, dow, tow


def local_day(utc_seconds, tz_offset_minutes):
    return (utc_seconds + 60 * tz_offset_minutes) // 86400


def local_week_id(utc_seconds: np.ndarray, tz_offset_minutes: np.ndarray) -> np.ndarray:
    """iso_year * 100 + iso_week of each local time. An ISO week belongs to
    the year of its Thursday and is numbered from that year's first one."""
    day = local_day(utc_seconds, tz_offset_minutes)
    thursday = day - (day + 3) % 7 + 3
    year = thursday.astype("datetime64[D]").astype("datetime64[Y]")
    week = (thursday - year.astype("datetime64[D]").astype(np.int64)) // 7 + 1
    return (year.astype(np.int64) + 1970) * 100 + week


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Per row: whether it starts a run, i.e. is the first row or differs
    from the previous row in one of the columns."""
    starts = np.zeros(len(columns[0]), dtype=bool)
    starts[:1] = True
    for c in columns:
        starts[1:] |= c[1:] != c[:-1]
    return starts


def filter_sparse(rs: RecordSet, min_count: int = 10) -> RecordSet:
    """Drop locations then users with fewer than min_count records, repeated
    until both constraints hold simultaneously."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    cols = rs.columns
    rows = np.arange(len(cols))
    while True:
        loc = cols.loc[rows]
        kept = rows[np.bincount(loc)[loc] >= min_count]
        user = cols.user[kept]
        kept = kept[np.bincount(user)[user] >= min_count]
        if len(kept) == len(rows):
            break
        rows = kept
    if not len(rows):
        raise PreprocessError("dataset fully filtered")
    return rs.subset(rows)


def merge_consecutive(rs: RecordSet) -> RecordSet:
    """Collapse runs of consecutive records with the same user, location, and
    local calendar day into the run's earliest record."""
    cols = rs.columns
    day = local_day(cols.utc, cols.tz)
    return rs.subset(np.flatnonzero(_run_starts(cols.user, cols.loc, day)))


def filter_and_merge(rs: RecordSet, min_count: int = 10) -> RecordSet:
    """Sparse-filter then same-day-merge, iterated until both are no-ops.

    Merging can push a user or location back under the threshold, and
    filtering can make previously separated records adjacent; iterating makes
    the stage idempotent. On typical data the first pass is already stable.
    Each pass keeps a subsequence of the records, so an unchanged count
    means an unchanged record list.
    """
    current = rs
    while True:
        out = merge_consecutive(filter_sparse(current, min_count))
        if len(out.columns) == len(current.columns):
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
    cols = rs.columns
    week = local_week_id(cols.utc, cols.tz)
    # rows by (user, week); records are (user, time)-sorted and the sort is
    # stable, so each session keeps its records in time order
    rows = np.lexsort((week, cols.user))
    user, week = cols.user[rows], week[rows]
    starts = np.flatnonzero(_run_starts(user, week))
    sizes = np.diff(np.append(starts, len(rows)))
    session_user = user[starts]
    kept = sizes >= min_session_records
    kept &= np.bincount(session_user[kept], minlength=len(cols.user_keys))[session_user] >= min_sessions
    if not kept.any():
        raise PreprocessError("no users survive sessionization")
    rows = rows[np.repeat(kept, sizes)]

    users_kept = np.unique(session_user[kept])
    locs_kept = np.unique(cols.loc[rows])
    first_cat = cols.loc_cat[locs_kept]
    cats_kept = np.unique(first_cat[first_cat >= 0])
    # ingest-level ids count the categories of the records and of the kept
    # locations' first-seen data, which a conflicting record may not share
    raw_cats = np.union1d(dense_category_codes(cols), cats_kept)
    loc_cat = np.where(first_cat >= 0, np.searchsorted(cats_kept, first_cat), -1)
    vocab = Vocab(
        user_key=[cols.user_keys[i] for i in users_kept.tolist()],
        loc_key=[cols.loc_keys[i] for i in locs_kept.tolist()],
        cat_name=[cols.cat_names[i] for i in cats_kept.tolist()],
        cat_raw_id=np.searchsorted(raw_cats, cats_kept).tolist(),
        loc_coord=list(zip(cols.loc_lat[locs_kept].tolist(), cols.loc_lon[locs_kept].tolist())),
        loc_cat=loc_cat.tolist(),
    )

    loc = np.searchsorted(locs_kept, cols.loc[rows])
    records = _record_columns(loc_cat, loc, cols.utc[rows], cols.tz[rows])
    with gc_paused():
        out: list[SessionizedUser] = []
        start, last_user = 0, -1
        for u, w, n in zip(session_user[kept].tolist(), week[starts][kept].tolist(), sizes[kept].tolist()):
            if u != last_user:
                out.append(SessionizedUser(len(out), []))
                last_user = u
            out[-1].sessions.append(Session(w, RecordView(records, start, start + n)))
            start += n
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
    cols = rs.columns
    return StageCounts(users=len(np.unique(cols.user)), locs=len(np.unique(cols.loc)), records=len(cols))


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
    category id, lat, lon, utc seconds, tz offset minutes). The category id,
    lat and lon are the record's location's (`_location_fields_text`); the
    id is the vocabulary's `cat_raw_id`, numbered over the filtered records,
    so it can differ from the one `canonical.txt` gives the same record."""
    loc_text = _location_fields_text(vocab)
    with atomic_write(path) as fh:
        fh.write(f"{PROCESSED_MAGIC}\tusers={vocab.n_users}\tlocs={vocab.n_locs}\tcats={vocab.n_cats}\n")
        for h in header_lines:
            fh.write(f"#{h}\n")
        for u in users:
            key = vocab.user_key[u.user_index]
            fh.write(f"U\t{key}\t{u.split_point}\t{len(u.sessions)}\n")
            records, starts = user_rows(u.sessions)
            rows = slice(starts[0], starts[-1])
            lines = [
                f"R\t{key}\t{vocab.loc_key[loc]}\t{loc_text[loc]}\t{utc}\t{tz}\n"
                for loc, utc, tz in zip(
                    records.loc[rows].tolist(), records.utc[rows].tolist(), records.tz[rows].tolist()
                )
            ]
            for s, start, stop in zip(u.sessions, starts, starts[1:]):
                fh.write(f"S\t{s.week_id}\t{len(s.records)}\n")
                fh.writelines(lines[start - starts[0]:stop - starts[0]])


def save_vocab(path, vocab: Vocab, header_lines: list[str] = ()) -> None:
    with atomic_write(path) as fh:
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
    """Read a `save_vocab` file, checking that each line's index is its
    position among the lines of its tag, that each location's lat and lon
    are finite and in range, and that its category index is -1 or one of
    the file's categories."""
    user_key, loc_key, cat_name, cat_raw_id, loc_coord, loc_cat = [], [], [], [], [], []
    loc_lines: list[int] = []
    keys = {"USER": user_key, "LOC": loc_key, "CAT": cat_name}
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != VOCAB_MAGIC:
            raise PreprocessError(f"{path}: not a vocabulary file")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            tag, *rest = line.split("\t")
            if tag not in keys:
                raise PreprocessError(f"{path}:{lineno}: unknown tag {tag!r}")
            try:
                index = int(rest[0])
                if tag == "USER":
                    key = rest[1]
                elif tag == "LOC":
                    key, coord, cat = rest[1], (float(rest[2]), float(rest[3])), int(rest[4])
                    problem = _coordinate_problem("lat", coord[0], rest[2]) or _coordinate_problem(
                        "lon", coord[1], rest[3])
                    if problem:
                        raise PreprocessError(f"{path}:{lineno}: LOC line {problem}")
                else:
                    raw_id, key = int(rest[1]), rest[2]
            except (IndexError, ValueError):
                raise PreprocessError(f"{path}:{lineno}: malformed {tag} line") from None
            if index != len(keys[tag]):
                raise PreprocessError(f"{path}:{lineno}: {tag} line has index {index}, expected {len(keys[tag])}")
            keys[tag].append(key)
            if tag == "LOC":
                loc_coord.append(coord)
                loc_cat.append(cat)
                loc_lines.append(lineno)
            elif tag == "CAT":
                cat_raw_id.append(raw_id)
    for lineno, cat in zip(loc_lines, loc_cat):
        if not -1 <= cat < len(cat_name):
            raise PreprocessError(
                f"{path}:{lineno}: LOC line category {cat} is not -1 or in [0, {len(cat_name)})"
            )
    return Vocab(user_key, loc_key, cat_name, cat_raw_id, loc_coord, loc_cat)


def load_processed(path, vocab: Vocab) -> list[SessionizedUser]:
    """Read a `save_processed` file, checking the header's user, location
    and category counts, each block's declared session or record count,
    each user's split point, that every `S`/`R` line sits inside a
    user/session block, that every key is in `vocab`, and that every tz
    offset and local time is in the calendar's range, and that every
    category id, lat and lon is the one its location has in `vocab`. The
    calendar fields of all records are computed in one pass at the end,
    and then the records' chronology is checked (`_chronology_problem`)."""
    with gc_paused():
        return _load_processed(path, vocab)


def _load_processed(path, vocab: Vocab) -> list[SessionizedUser]:
    users: list[SessionizedUser] = []
    # (line, what, declared count, the user or session whose `what` they count)
    blocks: list[tuple[int, str, int, object]] = []
    sessions: list[Session] = []
    starts: list[int] = []  # each session's first row in the columns below
    loc: list[int] = []  # per R line
    utc: list[int] = []
    tz: list[int] = []
    user_index, loc_index = vocab.user_index, vocab.loc_index
    loc_text = _location_fields_text(vocab)
    current_user: SessionizedUser | None = None
    current_key: str | None = None
    current_session: Session | None = None
    user_line: dict[str, int] = {}  # each user key's U line
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith(PROCESSED_MAGIC):
            raise PreprocessError(f"{path}: not a processed dataset file")
        header = dict(f.split("=", 1) for f in first[len(PROCESSED_MAGIC):].split("\t") if "=" in f)
        for name, have in (("locs", vocab.n_locs), ("cats", vocab.n_cats)):
            if header.get(name) != str(have):
                raise PreprocessError(f"{path}: header declares {name}={header.get(name)}, the vocabulary has {have}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t", 3)  # an R line's last field is split below
            tag = fields[0]
            try:
                if tag == "R":
                    if current_session is None:
                        raise PreprocessError(f"{path}:{lineno}: R line outside a session block")
                    _, user_k, loc_k, rest = fields
                    loc_fields, utc_s, tz_s = rest.rsplit("\t", 2)
                    if user_k != current_key:
                        user_index[user_k]  # an unknown key is named as such
                        raise PreprocessError(f"{path}:{lineno}: R line of user {user_k!r} in another user's block")
                    utc_v, tz_v = int(utc_s), int(tz_s)
                    check_local_time(utc_v, tz_v)
                    loc_v = loc_index[loc_k]
                    if loc_fields != loc_text[loc_v]:
                        problem = _location_fields_problem(loc_fields, loc_text[loc_v], vocab.loc_coord[loc_v])
                        if problem:
                            raise PreprocessError(f"{path}:{lineno}: R line {problem}")
                    loc.append(loc_v)
                    utc.append(utc_v)
                    tz.append(tz_v)
                elif tag == "S":
                    if current_user is None:
                        raise PreprocessError(f"{path}:{lineno}: S line before any U line")
                    # its records become a view of the columns once they are built
                    current_session = Session(week_id=int(fields[1]), records=())
                    current_user.sessions.append(current_session)
                    sessions.append(current_session)
                    starts.append(len(loc))
                    blocks.append((lineno, "records", int(fields[2]), current_session))
                elif tag == "U":
                    current_key, split_point, n_sessions = fields[1], int(fields[2]), int(fields[3])
                    if user_line.setdefault(current_key, lineno) != lineno:
                        raise PreprocessError(
                            f"{path}:{lineno}: U line repeats user {current_key!r} of line {user_line[current_key]}"
                        )
                    if not 0 <= split_point <= n_sessions:
                        raise PreprocessError(
                            f"{path}:{lineno}: split point {split_point} outside [0, {n_sessions}] sessions"
                        )
                    current_user = SessionizedUser(user_index[current_key], [], split_point)
                    current_session = None
                    users.append(current_user)
                    blocks.append((lineno, "sessions", n_sessions, current_user))
                else:
                    raise PreprocessError(f"{path}:{lineno}: unknown tag {tag!r}")
            except KeyError as e:
                raise PreprocessError(f"{path}:{lineno}: key {e.args[0]!r} not in the vocabulary") from None
            except (IndexError, ValueError) as e:
                raise PreprocessError(f"{path}:{lineno}: malformed {tag} line: {e}") from None
    records = _record_columns(vocab.loc_cat, loc, utc, tz)
    for session, start, stop in zip(sessions, starts, starts[1:] + [len(loc)]):
        session.records = RecordView(records, start, stop)
    for lineno, what, declared, owner in blocks:
        found = len(getattr(owner, what))
        if found != declared:
            raise PreprocessError(f"{path}:{lineno}: declares {declared} {what}, found {found}")
    if not users:
        raise PreprocessError(f"{path}: empty processed dataset")
    if header.get("users") != str(len(users)):
        raise PreprocessError(f"{path}: header declares users={header.get('users')}, found {len(users)}")
    problem = _chronology_problem(users, sessions, records)
    if problem:
        tag, n, message = problem
        raise PreprocessError(f"{path}:{_line_number(path, tag, n)}: {message}")
    return users


def _chronology_problem(users, sessions, records) -> tuple[str, int, str] | None:
    """The first of these problems of the loaded sessions and records, as
    (tag, its index among the lines of that tag, problem), or None: a
    record whose local ISO week is not its session's week id, a week id
    that does not exceed its user's previous one, a record earlier than the
    previous record of its session. Records of different sessions are not
    compared, since a tz change can put a later utc in an earlier week."""
    session_week = np.array([s.week_id for s in sessions], dtype=np.int64)
    session_user = np.repeat(np.arange(len(users)), [len(u.sessions) for u in users])
    record_session = np.repeat(np.arange(len(sessions)), [len(s.records) for s in sessions])
    utc, week = records.utc, local_week_id(records.utc, records.tz)
    bad = np.flatnonzero(week != session_week[record_session])
    if len(bad):
        i = bad[0]
        return "R", i, f"R line local week {week[i]} is not its session's, {session_week[record_session[i]]}"
    bad = np.flatnonzero((session_week[1:] <= session_week[:-1]) & (session_user[1:] == session_user[:-1])) + 1
    if len(bad):
        j = bad[0]
        return "S", j, f"S line week {session_week[j]} does not follow its user's last, {session_week[j - 1]}"
    bad = np.flatnonzero((utc[1:] < utc[:-1]) & (record_session[1:] == record_session[:-1])) + 1
    if len(bad):
        i = bad[0]
        return "R", i, f"R line utc {utc[i]} is earlier than the previous record's, {utc[i - 1]}"
    return None


def _line_number(path, tag: str, n: int) -> int:
    """The number of the `n`th line (from 0) of `path` tagged `tag`."""
    with open(path, "r", encoding="utf-8") as fh:
        return [lineno for lineno, line in enumerate(fh, start=1) if line.startswith(tag + "\t")][n]


def _location_fields_text(vocab: Vocab) -> list[str]:
    """Each location's category id, lat and lon as `save_processed` writes
    them on its `R` lines."""
    raw_cat = vocab.cat_raw_id + [-1]
    return [f"{raw_cat[cat]}\t{lat!r}\t{lon!r}" for cat, (lat, lon) in zip(vocab.loc_cat, vocab.loc_coord)]


def _location_fields_problem(text: str, want_text: str, want_coord: tuple[float, float]) -> str | None:
    """What is wrong with an `R` line's category id, lat and lon `text`,
    given its location's, or None if they are equal as numbers. Raises
    `ValueError` if `text` is not three fields."""
    cat_s, lat_s, lon_s = text.split("\t")
    want_cat = want_text.split("\t", 1)[0]
    try:
        if int(cat_s) != int(want_cat):
            return f"category id {cat_s} is not {want_cat}, its location's"
    except ValueError:
        return f"category id {cat_s!r} is not an integer"
    for name, s, want in zip(("lat", "lon"), (lat_s, lon_s), want_coord):
        try:
            value = float(s)
        except ValueError:
            return f"{name} {s!r} is not a number"
        problem = _coordinate_problem(name, value, s)
        if problem:
            return problem
        if value != want:
            return f"{name} {s} is not {want!r}, its location's"
    return None


def _coordinate_problem(name: str, value: float, text: str) -> str | None:
    """What is wrong with a "lat" or "lon" `value`, read from `text`, or
    None if it is finite and in range."""
    bound = 90.0 if name == "lat" else 180.0
    if not math.isfinite(value):
        return f"{name} {text} is not finite"
    if not -bound <= value <= bound:
        return f"{name} {text} outside [-{bound:g}, {bound:g}]"
    return None


def _record_columns(loc_cat, loc, utc, tz) -> RecordColumns:
    """The records at locations `loc` and times `utc` and `tz`, each with
    its location's category in `loc_cat` and the calendar fields of its
    local time, computed in one vectorised pass."""
    loc, utc, tz = np.asarray(loc, dtype=np.intp), np.asarray(utc, dtype=np.int64), np.asarray(tz, dtype=np.int64)
    cat = np.asarray(loc_cat, dtype=np.intp)[loc]
    return RecordColumns(loc, cat, *local_fields(utc, tz), utc, tz)
