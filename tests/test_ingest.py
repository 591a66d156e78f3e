import pytest
from hypothesis import given
from hypothesis import strategies as st

from nextloc.ingest import (
    IngestError,
    LocationInfo,
    RawRecord,
    RecordSet,
    parse_foursquare,
    parse_gowalla,
    write_canonical,
)

FSQ_LINE = "u1\tv9\tcat9\tBar\t40.7\t-74.0\t-240\tTue Apr 03 18:00:06 +0000 2012"


def civil_to_epoch(y, mo, d, hh, mm, ss):
    """Independent calendar oracle: days-from-civil (Gregorian) algorithm."""
    y -= mo <= 2
    era = (y if y >= 0 else y - 399) // 400
    yoe = y - era * 400
    doy = (153 * (mo + (-3 if mo > 2 else 9)) + 2) // 5 + d - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    days = era * 146097 + doe - 719468
    return days * 86400 + hh * 3600 + mm * 60 + ss


def test_calendar_oracle_sanity():
    assert civil_to_epoch(1970, 1, 1, 0, 0, 0) == 0
    assert civil_to_epoch(1970, 1, 2, 0, 0, 0) == 86400


def test_foursquare_line(tmp_path):
    path = tmp_path / "fsq.txt"
    path.write_text(FSQ_LINE + "\n")
    rs = parse_foursquare(path)
    assert len(rs.records) == 1 and not rs.rejects
    r = rs.records[0]
    assert r.utc_seconds == civil_to_epoch(2012, 4, 3, 18, 0, 6) == 1333476006
    assert r.tz_offset_minutes == -240
    assert r.category_name == "Bar"
    assert (r.lat, r.lon) == (40.7, -74.0)


def test_foursquare_nonzero_zone_field(tmp_path):
    # zone field is honored: +0100 means the wall clock is one hour ahead of UTC
    line = FSQ_LINE.replace("+0000", "+0100")
    path = tmp_path / "fsq.txt"
    path.write_text(line + "\n")
    r = parse_foursquare(path).records[0]
    assert r.utc_seconds == 1333476006 - 3600


def test_local_time_reconstructs_wall_clock(tmp_path):
    import time as time_mod

    path = tmp_path / "fsq.txt"
    path.write_text(FSQ_LINE + "\n")
    r = parse_foursquare(path).records[0]
    # utc_seconds reproduces the +0000 string's calendar fields exactly
    st = time_mod.gmtime(r.utc_seconds)
    assert (st.tm_year, st.tm_mon, st.tm_mday, st.tm_hour, st.tm_min, st.tm_sec) == (2012, 4, 3, 18, 0, 6)
    local = r.local_seconds()
    # 18:00:06 UTC at offset -240 is 14:00:06 on the local wall clock
    assert local % 86400 == 14 * 3600 + 6
    assert local == civil_to_epoch(2012, 4, 3, 14, 0, 6)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    rs = parse_foursquare(path)
    assert rs.records == [] and rs.rejects == []


def test_out_of_range_latitude_rejected(tmp_path):
    path = tmp_path / "fsq.txt"
    path.write_text(FSQ_LINE.replace("40.7", "95.0") + "\n")
    rs = parse_foursquare(path)
    assert len(rs.records) == 0
    assert len(rs.rejects) == 1 and rs.rejects[0][0] == 1


def test_bad_timestamp_rejected_with_line_number(tmp_path):
    path = tmp_path / "fsq.txt"
    path.write_text(FSQ_LINE + "\n" + FSQ_LINE.replace("Apr", "Foo") + "\n")
    rs = parse_foursquare(path)
    assert len(rs.records) == 1
    assert rs.rejects == [(2, rs.rejects[0][1])]


def test_unreadable_file_is_fatal(tmp_path):
    with pytest.raises(IngestError):
        parse_foursquare(tmp_path / "does-not-exist.txt")


def test_gowalla_line(tmp_path):
    path = tmp_path / "gow.txt"
    path.write_text("u5\t2010-10-19T23:55:27Z\t32.8\t-96.8\tloc7\n")
    rs = parse_gowalla(path)
    r = rs.records[0]
    assert r.utc_seconds == civil_to_epoch(2010, 10, 19, 23, 55, 27) == 1287532527
    assert r.category_name is None
    assert r.tz_offset_minutes == 0


def test_gowalla_configurable_offset(tmp_path):
    path = tmp_path / "gow.txt"
    path.write_text("u5\t2010-10-19T23:55:27Z\t32.8\t-96.8\tloc7\n")
    rs = parse_gowalla(path, tz_offset_minutes=-360)
    assert rs.records[0].tz_offset_minutes == -360
    assert rs.records[0].utc_seconds == 1287532527  # utc itself unchanged


def test_gowalla_sorts_out_of_order_records(tmp_path):
    path = tmp_path / "gow.txt"
    path.write_text(
        "u5\t2010-10-19T23:55:27Z\t32.8\t-96.8\tB\n"
        "u5\t2010-10-18T01:00:00Z\t32.8\t-96.8\tA\n"
    )
    rs = parse_gowalla(path)
    assert [r.location_key for r in rs.records] == ["A", "B"]


def test_gowalla_missing_field_rejected(tmp_path):
    path = tmp_path / "gow.txt"
    path.write_text("u5\t2010-10-19T23:55:27Z\t32.8\t-96.8\n")
    rs = parse_gowalla(path)
    assert len(rs.records) == 0 and len(rs.rejects) == 1


@given(st.lists(st.sampled_from(["good", "badlat", "badtime", "short"]), max_size=30))
def test_lossless_up_to_rejects(tmp_path_factory, kinds):
    lines = []
    for i, kind in enumerate(kinds):
        line = f"u{i % 3}\tv{i % 5}\tc\tCafe\t40.5\t-73.9\t-240\tTue Apr 03 18:00:{i % 60:02d} +0000 2012"
        if kind == "badlat":
            line = line.replace("40.5", "91.0")
        elif kind == "badtime":
            line = line.replace("Apr", "Xxx")
        elif kind == "short":
            line = "\t".join(line.split("\t")[:7])
        lines.append(line)
    path = tmp_path_factory.mktemp("data") / "mix.txt"
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    rs = parse_foursquare(path)
    assert len(rs.records) + len(rs.rejects) == len(kinds)
    assert len(rs.records) == sum(1 for k in kinds if k == "good")


def test_reparse_is_deterministic(tmp_path):
    path = tmp_path / "fsq.txt"
    path.write_text(
        FSQ_LINE + "\n" + FSQ_LINE.replace("u1", "u0").replace("18:00:06", "19:01:02") + "\n"
    )
    assert parse_foursquare(path) == parse_foursquare(path)


def test_records_sorted_by_user_then_time(tmp_path):
    path = tmp_path / "fsq.txt"
    lines = [
        FSQ_LINE.replace("u1", "u2"),
        FSQ_LINE.replace("18:00:06", "20:00:00"),
        FSQ_LINE,
    ]
    path.write_text("\n".join(lines) + "\n")
    rs = parse_foursquare(path)
    keys = [(r.user_key, r.utc_seconds) for r in rs.records]
    assert keys == sorted(keys)


def test_first_seen_location_wins_and_conflicts_tallied(tmp_path):
    path = tmp_path / "fsq.txt"
    path.write_text(
        FSQ_LINE + "\n" + FSQ_LINE.replace("40.7", "40.8").replace("18:00:06", "19:00:00") + "\n"
    )
    rs = parse_foursquare(path)
    assert rs.locations["v9"].lat == 40.7
    assert rs.location_conflicts == 1


def test_category_ids_lexicographic(tmp_path):
    path = tmp_path / "fsq.txt"
    path.write_text(
        FSQ_LINE.replace("Bar", "Zoo") + "\n"
        + FSQ_LINE.replace("v9", "v1").replace("18:00:06", "19:00:00") + "\n"
    )
    out = tmp_path / "canonical.txt"
    write_canonical(parse_foursquare(path), out)
    # the canonical category id column numbers the names in sorted order
    assert [line.split("\t")[:3] for line in out.read_text().splitlines()] == [["u1", "v9", "1"], ["u1", "v1", "0"]]


def test_canonical_output_columns(tmp_path):
    src = tmp_path / "fsq.txt"
    src.write_text(FSQ_LINE + "\n")
    out = tmp_path / "canonical.txt"
    write_canonical(parse_foursquare(src), out)
    fields = out.read_text().strip().split("\t")
    assert fields == ["u1", "v9", "0", "40.7", "-74.0", "1333476006", "-240"]


def test_absurd_tz_offset_rejected_with_reason(tmp_path):
    path = tmp_path / "fsq.txt"
    path.write_text("\n".join([
        FSQ_LINE,
        FSQ_LINE.replace("\t-240\t", "\t9999999999\t"),
        FSQ_LINE.replace("\t-240\t", "\t1441\t"),
        FSQ_LINE.replace("\t-240\t", "\t-1440\t"),
    ]) + "\n")
    rs = parse_foursquare(path)
    assert [r.tz_offset_minutes for r in rs.records] == [-240, -1440]
    assert rs.rejects == [
        (2, "tz offset 9999999999 minutes outside [-1440, 1440]"),
        (3, "tz offset 1441 minutes outside [-1440, 1440]"),
    ]


def test_local_time_after_year_9999_rejected(tmp_path):
    last_hour = FSQ_LINE.replace("Tue Apr 03 18:00:06 +0000 2012", "Fri Dec 31 23:00:00 +0000 9999")
    path = tmp_path / "fsq.txt"
    path.write_text(last_hour.replace("\t-240\t", "\t59\t") + "\n" + last_hour.replace("\t-240\t", "\t60\t") + "\n")
    rs = parse_foursquare(path)
    assert len(rs.records) == 1 and rs.records[0].local_seconds() == civil_to_epoch(9999, 12, 31, 23, 59, 0)
    assert rs.rejects == [(2, f"local time {civil_to_epoch(10000, 1, 1, 0, 0, 0)} s outside years 1-9999")]


def test_gowalla_offset_out_of_range_rejects_each_line(tmp_path):
    path = tmp_path / "gow.txt"
    path.write_text("u5\t2010-10-19T23:55:27Z\t32.8\t-96.8\tloc7\n")
    rs = parse_gowalla(path, tz_offset_minutes=-1441)
    assert rs.records == [] and rs.rejects == [(1, "tz offset -1441 minutes outside [-1440, 1440]")]


def test_records_are_built_from_the_columns(tmp_path):
    # parsers keep columns; the RawRecord list and locations come from them,
    # and records with the same user and time keep their file order
    path = tmp_path / "fsq.txt"
    path.write_text(FSQ_LINE + "\n" + FSQ_LINE.replace("v9", "v1").replace("Bar", "Cafe") + "\n")
    rs = parse_foursquare(path)
    assert rs.records == [
        RawRecord("u1", "v9", "Bar", 40.7, -74.0, 1333476006, -240),
        RawRecord("u1", "v1", "Cafe", 40.7, -74.0, 1333476006, -240),
    ]
    assert rs.locations == {"v1": LocationInfo(40.7, -74.0, "Cafe"), "v9": LocationInfo(40.7, -74.0, "Bar")}
    assert rs == RecordSet(records=list(rs.records), source_tag="foursquare", locations=dict(rs.locations))
