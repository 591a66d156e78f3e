"""The row-wise check-in pipeline, kept as the oracle for the columnar one.

These are the record-at-a-time parsers, preprocessing stages, writers,
loader and instance builder that ``nextloc`` ran before its pipeline moved
to integer codes and numpy columns, unchanged apart from their imports.
`TrainingInstance` is the instance class of that time, a plain record of
the instance's lists and targets, kept here since ``nextloc``'s instances
became views of record columns.
``test_prepare_differential.py`` runs both on the same raw files and
requires identical artifacts, rejects and training instances.
"""

from __future__ import annotations

import calendar
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone

from nextloc.ingest import IngestError
from nextloc.preprocess import (
    PROCESSED_MAGIC,
    VOCAB_MAGIC,
    PipelineResult,
    PreprocessError,
    Session,
    SessionizedUser,
    SessRecord,
    StageCounts,
    Vocab,
    split_train_test,
)

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}


@dataclass(slots=True)
class TrainingInstance:
    user_index: int
    history: list[SessRecord]  # all records of sessions before the current one
    prefix: list[SessRecord]   # current-session records before the target
    target_t: float
    target_cat: int
    target_loc: int


@dataclass(frozen=True)
class RawRecord:
    user_key: str
    location_key: str
    category_name: str | None
    lat: float
    lon: float
    utc_seconds: int
    tz_offset_minutes: int

    def local_seconds(self) -> int:
        return self.utc_seconds + 60 * self.tz_offset_minutes


@dataclass(frozen=True)
class LocationInfo:
    """First-seen coordinates and category for one location key."""

    lat: float
    lon: float
    category_name: str | None


@dataclass
class RecordSet:
    records: list[RawRecord]
    source_tag: str  # "foursquare" | "gowalla"
    locations: dict[str, LocationInfo] = field(default_factory=dict)
    rejects: list[tuple[int, str]] = field(default_factory=list)  # (line number, reason)
    location_conflicts: int = 0  # later lines disagreeing with first-seen location data


def _parse_foursquare_time(text: str) -> int:
    """Epoch seconds from e.g. ``Tue Apr 03 18:00:06 +0000 2012``.

    Hand-rolled (month map + timegm) so parsing never depends on locale.
    """
    parts = text.split()
    if len(parts) != 6:
        raise ValueError(f"bad timestamp {text!r}")
    _dow, mon, day, hms, zone, year = parts
    if mon not in _MONTHS:
        raise ValueError(f"bad month in {text!r}")
    hh, mm, ss = hms.split(":")
    if len(zone) != 5 or zone[0] not in "+-":
        raise ValueError(f"bad zone in {text!r}")
    zone_min = int(zone[1:3]) * 60 + int(zone[3:5])
    if zone[0] == "-":
        zone_min = -zone_min
    stamp = calendar.timegm(
        (int(year), _MONTHS[mon], int(day), int(hh), int(mm), int(ss), 0, 0, 0)
    )
    return stamp - zone_min * 60


def _parse_iso_utc(text: str) -> int:
    """Epoch seconds from ``YYYY-MM-DDTHH:MM:SSZ``."""
    if len(text) != 20 or text[10] != "T" or text[19] != "Z":
        raise ValueError(f"bad timestamp {text!r}")
    date, clock = text[:10], text[11:19]
    y, mo, d = date.split("-")
    hh, mm, ss = clock.split(":")
    return calendar.timegm((int(y), int(mo), int(d), int(hh), int(mm), int(ss), 0, 0, 0))


def _check_ranges(lat: float, lon: float, utc_seconds: int) -> None:
    if not (-90.0 <= lat <= 90.0):
        raise ValueError(f"latitude {lat} outside [-90, 90]")
    if not (-180.0 <= lon <= 180.0):
        raise ValueError(f"longitude {lon} outside [-180, 180]")
    if utc_seconds <= 0:
        raise ValueError(f"non-positive epoch time {utc_seconds}")


def _finish(rs: RecordSet) -> RecordSet:
    rs.records.sort(key=lambda r: (r.user_key, r.utc_seconds))
    for r in rs.records:
        info = rs.locations.get(r.location_key)
        if info is None:
            rs.locations[r.location_key] = LocationInfo(r.lat, r.lon, r.category_name)
        elif (info.lat, info.lon, info.category_name) != (r.lat, r.lon, r.category_name):
            rs.location_conflicts += 1
    return rs


def _iter_lines(path):
    try:
        fh = open(path, "r", encoding="utf-8", errors="replace")
    except OSError as e:
        raise IngestError(f"cannot read {path}: {e}") from e
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if line.strip():
                yield lineno, line


def parse_foursquare(path) -> RecordSet:
    rs = RecordSet(records=[], source_tag="foursquare")
    for lineno, line in _iter_lines(path):
        fields = line.split("\t")
        try:
            if len(fields) != 8:
                raise ValueError(f"expected 8 fields, got {len(fields)}")
            user, venue, _cat_id, cat_name, lat_s, lon_s, offset_s, time_s = fields
            lat, lon = float(lat_s), float(lon_s)
            utc = _parse_foursquare_time(time_s)
            _check_ranges(lat, lon, utc)
            rs.records.append(
                RawRecord(user, venue, cat_name, lat, lon, utc, int(offset_s))
            )
        except ValueError as e:
            rs.rejects.append((lineno, str(e)))
    return _finish(rs)


def parse_gowalla(path, tz_offset_minutes: int = 0) -> RecordSet:
    rs = RecordSet(records=[], source_tag="gowalla")
    for lineno, line in _iter_lines(path):
        fields = line.split("\t")
        try:
            if len(fields) != 5:
                raise ValueError(f"expected 5 fields, got {len(fields)}")
            user, time_s, lat_s, lon_s, loc = fields
            lat, lon = float(lat_s), float(lon_s)
            utc = _parse_iso_utc(time_s)
            _check_ranges(lat, lon, utc)
            rs.records.append(
                RawRecord(user, loc, None, lat, lon, utc, tz_offset_minutes)
            )
        except ValueError as e:
            rs.rejects.append((lineno, str(e)))
    return _finish(rs)


def category_ids(rs: RecordSet) -> dict[str, int]:
    """Dense ids for distinct category names, lexicographically sorted.

    Reproducible regardless of file order; sources without categories get {}.
    """
    names = sorted({r.category_name for r in rs.records if r.category_name is not None})
    return {name: i for i, name in enumerate(names)}


def write_canonical(rs: RecordSet, path, header_lines=()) -> None:
    """One record per line: user, location, category id (-1 if absent), lat,
    lon, utc seconds, tz offset minutes; tab-separated. Lines starting with
    ``#`` are headers; readers skip them."""
    cats = category_ids(rs)
    with open(path, "w", encoding="utf-8") as fh:
        for h in header_lines:
            fh.write(f"#{h}\n")
        for r in rs.records:
            cid = cats[r.category_name] if r.category_name is not None else -1
            fh.write(
                f"{r.user_key}\t{r.location_key}\t{cid}\t{r.lat!r}\t{r.lon!r}"
                f"\t{r.utc_seconds}\t{r.tz_offset_minutes}\n"
            )


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


def _counts(rs: RecordSet) -> StageCounts:
    return StageCounts(
        users=len({r.user_key for r in rs.records}),
        locs=len({r.location_key for r in rs.records}),
        records=len(rs.records),
    )


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


def make_instances(users: list[SessionizedUser], split: str) -> list[TrainingInstance]:
    """`split` is "train" or "test"."""
    if split not in ("train", "test"):
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    out: list[TrainingInstance] = []
    for u in users:
        sessions = u.sessions
        lo, hi = (0, u.split_point) if split == "train" else (u.split_point, len(sessions))
        for p in range(lo, hi):
            history = [r for s in sessions[:p] for r in s.records]
            records = sessions[p].records
            for i in range(1, len(records)):
                tgt = records[i]
                out.append(
                    TrainingInstance(u.user_index, history, records[:i], tgt.tow, tgt.cat, tgt.loc)
                )
    return out
