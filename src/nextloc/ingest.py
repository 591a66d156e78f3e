"""Parsers turning raw check-in files into a canonical, sorted record set.

Two raw layouts are supported:

* foursquare: 8 tab-separated fields per line
  ``user_id  venue_id  category_id  category_name  lat  lon  tz_offset_min  utc_time``
  where ``utc_time`` looks like ``Tue Apr 03 18:00:06 +0000 2012``.
* gowalla: 5 tab-separated fields per line
  ``user_id  iso_time  lat  lon  location_id``
  where ``iso_time`` looks like ``2010-10-19T23:55:27Z``. No categories; the
  timezone offset is a per-run constant (default 0).

Each line is split and converted once. The record set then holds its
records as `Columns`: users, locations and categories become integer codes,
coordinates, times and offsets become numpy arrays, and the preprocessing
stages run on those codes. The `RawRecord` list is built only when something
asks for it.

Malformed lines are never silently dropped: every non-blank line becomes
either a record or an entry in the rejects tally.
"""

from __future__ import annotations

import calendar
import dataclasses
import datetime
import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atomic import atomic_write

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}
_EPOCH_ORD = datetime.date(1970, 1, 1).toordinal()
# a record's tz offset and local time must lie within these bounds (years
# 1-9999, the range of the calendar code)
MAX_TZ_OFFSET_MINUTES = 1440
_LOCAL_MIN = (1 - _EPOCH_ORD) * 86400
_LOCAL_END = (datetime.date.max.toordinal() + 1 - _EPOCH_ORD) * 86400


class IngestError(Exception):
    pass


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector while a block builds many small
    objects that form no reference cycles (records, sessions, instances).
    Left running, it would walk the growing heap again and again and find
    nothing to free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class RawRecord(NamedTuple):
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


@dataclass(eq=False)
class Columns:
    """Records as numpy columns over integer codes.

    `user`, `loc` and `cat` index the sorted key tables, so ordering codes
    orders keys; `cat` is -1 for a record without a category. The `loc_*`
    arrays hold each location's first-seen latitude, longitude and category
    code. A stage that drops records keeps the tables and the `loc_*` arrays
    and takes a subset of the record columns, so codes never change.
    """

    user_keys: list[str]
    loc_keys: list[str]
    cat_names: list[str]
    loc_lat: np.ndarray
    loc_lon: np.ndarray
    loc_cat: np.ndarray
    user: np.ndarray
    loc: np.ndarray
    cat: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    utc: np.ndarray
    tz: np.ndarray

    def __len__(self) -> int:
        return len(self.user)

    def take(self, rows: np.ndarray) -> Columns:
        return dataclasses.replace(
            self, user=self.user[rows], loc=self.loc[rows], cat=self.cat[rows], lat=self.lat[rows],
            lon=self.lon[rows], utc=self.utc[rows], tz=self.tz[rows],
        )


def _codes(keys) -> tuple[list, np.ndarray]:
    """(sorted distinct keys, each key's index in them); None gets -1."""
    table = sorted(set(keys) - {None})
    index = {k: i for i, k in enumerate(table)}
    index[None] = -1
    return table, np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))


def _encode(rows: list[tuple], loc_cat_names=None) -> Columns:
    """Columns of (user, location, category, lat, lon, utc, tz) rows, in
    row order. `loc_cat_names`, one category name (or None) per location
    key in sorted order, fills `loc_cat`; otherwise the `loc_*` arrays are
    left empty."""
    user, loc, cat, lat, lon, utc, tz = zip(*rows) if rows else ((),) * 7
    user_keys, user_codes = _codes(user)
    loc_keys, loc_codes = _codes(loc)
    cat_names, cat_codes = _codes(list(cat) + list(loc_cat_names or ()))
    empty = np.zeros(0)
    return Columns(
        user_keys, loc_keys, cat_names, empty, empty, cat_codes[len(rows):], user_codes, loc_codes,
        cat_codes[:len(rows)], np.array(lat, dtype=np.float64), np.array(lon, dtype=np.float64),
        np.array(utc, dtype=np.int64), np.array(tz, dtype=np.int64),
    )


class RecordSet:
    """Check-in records sorted by (user key, utc seconds), the first-seen
    data of each location, the rejected lines and the count of location
    conflicts.

    A parser fills `columns`, from which `records` and `locations` are built
    on first use. A record set built by hand from a `records` list (and the
    `locations` of its keys) gets its columns built from those on first use.
    """

    __hash__ = None

    def __init__(
        self,
        records: list[RawRecord] | None = None,
        source_tag: str = "foursquare",  # "foursquare" | "gowalla"
        locations: dict[str, LocationInfo] | None = None,
        rejects: list[tuple[int, str]] | None = None,  # (line number, reason)
        location_conflicts: int = 0,  # later lines disagreeing with first-seen location data
        *,
        columns: Columns | None = None,
    ):
        if (records is None) == (columns is None):
            raise ValueError("a record set needs exactly one of records and columns")
        self._records = records
        self._columns = columns
        self._locations = {} if locations is None and columns is None else locations
        self.source_tag = source_tag
        self.rejects = [] if rejects is None else rejects
        self.location_conflicts = location_conflicts

    @property
    def columns(self) -> Columns:
        if self._columns is None:
            loc_keys = sorted({r.location_key for r in self._records})
            info = [self._locations[k] for k in loc_keys]
            cols = _encode(self._records, [i.category_name for i in info])
            cols.loc_lat = np.array([i.lat for i in info], dtype=np.float64)
            cols.loc_lon = np.array([i.lon for i in info], dtype=np.float64)
            self._columns = cols
        return self._columns

    @property
    def records(self) -> list[RawRecord]:
        if self._records is None:
            c = self._columns
            cat_names = c.cat_names + [None]  # code -1 picks None
            with gc_paused():
                self._records = list(map(
                    RawRecord,
                    [c.user_keys[i] for i in c.user.tolist()],
                    [c.loc_keys[i] for i in c.loc.tolist()],
                    [cat_names[i] for i in c.cat.tolist()],
                    c.lat.tolist(), c.lon.tolist(), c.utc.tolist(), c.tz.tolist(),
                ))
        return self._records

    @property
    def locations(self) -> dict[str, LocationInfo]:
        if self._locations is None:
            c = self._columns
            cat_names = c.cat_names + [None]
            present = np.unique(c.loc).tolist()
            self._locations = {
                c.loc_keys[i]: LocationInfo(lat, lon, cat_names[cat])
                for i, lat, lon, cat in zip(
                    present, c.loc_lat[present].tolist(), c.loc_lon[present].tolist(), c.loc_cat[present].tolist()
                )
            }
        return self._locations

    def subset(self, rows: np.ndarray) -> RecordSet:
        """The records at `rows` (ascending), with the same locations data,
        rejects and conflict count."""
        return RecordSet(
            source_tag=self.source_tag, rejects=self.rejects, location_conflicts=self.location_conflicts,
            columns=self.columns.take(rows),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordSet):
            return NotImplemented
        return (self.records, self.source_tag, self.locations, self.rejects, self.location_conflicts) == (
            other.records, other.source_tag, other.locations, other.rejects, other.location_conflicts
        )


def _parse_foursquare_time(text: str, day_starts: dict[tuple[str, str, str, str], int]) -> int:
    """Epoch seconds from e.g. ``Tue Apr 03 18:00:06 +0000 2012``.

    Hand-rolled (month map + timegm) so parsing never depends on locale.
    `day_starts` maps the (month, day, zone, year) fields of valid
    timestamps to the epoch seconds of 00:00:00 that day; a file has a few
    hundred. The first timestamp of each day goes through every check and
    fills it; later ones of the same day only add their clock time,
    raising the same errors in the same order.
    """
    parts = text.split()
    if len(parts) != 6:
        raise ValueError(f"bad timestamp {text!r}")
    _dow, mon, day, hms, zone, year = parts
    day_start = day_starts.get((mon, day, zone, year))
    if day_start is not None:
        hh, mm, ss = hms.split(":")
        return day_start + int(hh) * 3600 + int(mm) * 60 + int(ss)
    if mon not in _MONTHS:
        raise ValueError(f"bad month in {text!r}")
    hh, mm, ss = hms.split(":")
    if len(zone) != 5 or zone[0] not in "+-":
        raise ValueError(f"bad zone in {text!r}")
    zone_min = int(zone[1:3]) * 60 + int(zone[3:5])
    if zone[0] == "-":
        zone_min = -zone_min
    y, d, h, m, s = int(year), int(day), int(hh), int(mm), int(ss)
    day_start = calendar.timegm((y, _MONTHS[mon], d, 0, 0, 0)) - zone_min * 60
    day_starts[(mon, day, zone, year)] = day_start
    return day_start + h * 3600 + m * 60 + s


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


def check_local_time(utc_seconds: int, tz_offset_minutes: int) -> None:
    """Raise ValueError unless the tz offset and the local time are within
    the calendar's bounds."""
    if not -MAX_TZ_OFFSET_MINUTES <= tz_offset_minutes <= MAX_TZ_OFFSET_MINUTES:
        raise ValueError(
            f"tz offset {tz_offset_minutes} minutes outside [-{MAX_TZ_OFFSET_MINUTES}, {MAX_TZ_OFFSET_MINUTES}]"
        )
    local = utc_seconds + 60 * tz_offset_minutes
    if not _LOCAL_MIN <= local < _LOCAL_END:
        raise ValueError(f"local time {local} s outside years 1-9999")


def _finish(rows: list[tuple], source_tag: str, rejects: list[tuple[int, str]]) -> RecordSet:
    """Sort the parsed rows by (user key, utc seconds), keeping file order
    among ties, and record each location's first-seen data and the number
    of records that disagree with it."""
    cols = _encode(rows)
    cols = cols.take(np.lexsort((cols.utc, cols.user)))
    _, first = np.unique(cols.loc, return_index=True)  # every code occurs
    cols.loc_lat, cols.loc_lon, cols.loc_cat = cols.lat[first], cols.lon[first], cols.cat[first]
    conflicts = ((cols.lat != cols.loc_lat[cols.loc]) | (cols.lon != cols.loc_lon[cols.loc])
                 | (cols.cat != cols.loc_cat[cols.loc]))
    return RecordSet(source_tag=source_tag, rejects=rejects, location_conflicts=int(conflicts.sum()), columns=cols)


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
    rows, rejects, day_starts = [], [], {}
    with gc_paused():
        for lineno, line in _iter_lines(path):
            fields = line.split("\t")
            try:
                if len(fields) != 8:
                    raise ValueError(f"expected 8 fields, got {len(fields)}")
                user, venue, _cat_id, cat_name, lat_s, lon_s, offset_s, time_s = fields
                lat, lon = float(lat_s), float(lon_s)
                utc = _parse_foursquare_time(time_s, day_starts)
                _check_ranges(lat, lon, utc)
                tz = int(offset_s)
                check_local_time(utc, tz)
            except ValueError as e:
                rejects.append((lineno, str(e)))
            else:
                rows.append((user, venue, cat_name, lat, lon, utc, tz))
    return _finish(rows, "foursquare", rejects)


def parse_gowalla(path, tz_offset_minutes: int = 0) -> RecordSet:
    rows, rejects = [], []
    with gc_paused():
        for lineno, line in _iter_lines(path):
            fields = line.split("\t")
            try:
                if len(fields) != 5:
                    raise ValueError(f"expected 5 fields, got {len(fields)}")
                user, time_s, lat_s, lon_s, loc = fields
                lat, lon = float(lat_s), float(lon_s)
                utc = _parse_iso_utc(time_s)
                _check_ranges(lat, lon, utc)
                check_local_time(utc, tz_offset_minutes)
            except ValueError as e:
                rejects.append((lineno, str(e)))
            else:
                rows.append((user, loc, None, lat, lon, utc, tz_offset_minutes))
    return _finish(rows, "gowalla", rejects)


def dense_category_codes(cols: Columns) -> np.ndarray:
    """The category codes that occur in the records, ascending; a code's
    position here is its dense category id."""
    return np.unique(cols.cat[cols.cat >= 0])


def write_canonical(rs: RecordSet, path, header_lines=()) -> None:
    """One record per line: user, location, category id (-1 if absent), lat,
    lon, utc seconds, tz offset minutes; tab-separated. Lines starting with
    ``#`` are headers; readers skip them."""
    c = rs.columns
    dense = dense_category_codes(c)

    def middle_text(rows: np.ndarray, cat: np.ndarray, lat: np.ndarray, lon: np.ndarray) -> list[str]:
        cat_id = np.where(cat >= 0, np.searchsorted(dense, cat), -1)
        return [f"{c.loc_keys[i]}\t{k}\t{a!r}\t{b!r}"
                for i, k, a, b in zip(rows.tolist(), cat_id.tolist(), lat.tolist(), lon.tolist())]

    # the middle columns (location, category id, lat, lon) are formatted once
    # per location from its first-seen data; a record that differs from it,
    # even in the sign of a zero, gets its own
    present = np.unique(c.loc)
    loc_text = dict(zip(present.tolist(), middle_text(present, c.loc_cat[present], c.loc_lat[present],
                                                      c.loc_lon[present])))
    middle = [loc_text[i] for i in c.loc.tolist()]
    bits = np.int64
    own = np.flatnonzero((c.cat != c.loc_cat[c.loc]) | (c.lat.view(bits) != c.loc_lat[c.loc].view(bits))
                         | (c.lon.view(bits) != c.loc_lon[c.loc].view(bits)))
    for r, text in zip(own.tolist(), middle_text(c.loc[own], c.cat[own], c.lat[own], c.lon[own])):
        middle[r] = text
    user_text = [f"{k}\t" for k in c.user_keys]
    with atomic_write(path) as fh:
        for h in header_lines:
            fh.write(f"#{h}\n")
        fh.writelines(
            f"{user_text[u]}{m}\t{t}\t{z}\n"
            for u, m, t, z in zip(c.user.tolist(), middle, c.utc.tolist(), c.tz.tolist())
        )
