import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc.ingest import RawRecord, RecordSet, parse_foursquare
from nextloc.preprocess import (
    PreprocessError,
    build_sessions,
    filter_and_merge,
    filter_sparse,
    load_processed,
    load_vocab,
    local_fields,
    local_week_id,
    merge_consecutive,
    run_pipeline,
    save_processed,
    save_vocab,
    split_train_test,
)

FIXTURE = Path(__file__).parent / "data" / "checkins_foursquare.txt"
DAY = 86400
WEEK = 7 * DAY
# Monday 2023-01-02 00:00:00 UTC
MONDAY = 1672617600


def rec(user, loc, utc, cat="Cafe", lat=40.7, lon=-74.0, tz=0):
    return RawRecord(user, loc, cat, lat, lon, utc, tz)


def record_set(records):
    from nextloc.ingest import LocationInfo

    rs = RecordSet(records=sorted(records, key=lambda r: (r.user_key, r.utc_seconds)),
                   source_tag="foursquare")
    for r in rs.records:
        rs.locations.setdefault(r.location_key, LocationInfo(r.lat, r.lon, r.category_name))
    return rs


def spread(user, loc, n, start, step=2 * DAY):
    return [rec(user, loc, start + i * step) for i in range(n)]


# ---------------------------------------------------------------------------
# filter_sparse
# ---------------------------------------------------------------------------

def test_single_user_below_threshold_is_fatal():
    rs = record_set(spread("a", "X", 9, MONDAY))
    with pytest.raises(PreprocessError):
        filter_sparse(rs, 10)


def test_at_threshold_unchanged():
    rs = record_set(spread("a", "X", 10, MONDAY))
    assert filter_sparse(rs, 10).records == rs.records


def test_sparse_location_cascades_to_user():
    # user b has 10 records but 1 is at a sparse location; dropping the
    # location drops b below 10, so b disappears entirely
    records = spread("a", "X", 12, MONDAY)
    records += spread("b", "X", 9, MONDAY + 3600)
    records += [rec("b", "RARE", MONDAY + 50 * DAY)]
    out = filter_sparse(record_set(records), 10)
    assert {r.user_key for r in out.records} == {"a"}


def brute_force_fixpoint(records, min_count):
    """Oracle: remove one violating entity at a time until none remain."""
    current = list(records)
    while True:
        locs = Counter(r.location_key for r in current)
        users = Counter(r.user_key for r in current)
        bad_loc = sorted(k for k, v in locs.items() if v < min_count)
        bad_user = sorted(k for k, v in users.items() if v < min_count)
        if not bad_loc and not bad_user:
            return current
        if bad_loc:
            current = [r for r in current if r.location_key != bad_loc[0]]
        else:
            current = [r for r in current if r.user_key != bad_user[0]]


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), min_size=1, max_size=30),
       st.integers(2, 5))
def test_filter_matches_brute_force_oracle(pairs, min_count):
    records = [rec(f"u{u}", f"l{l}", MONDAY + i * 3600) for i, (u, l) in enumerate(pairs)]
    expected = brute_force_fixpoint(records, min_count)
    rs = record_set(records)
    if not expected:
        with pytest.raises(PreprocessError):
            filter_sparse(rs, min_count)
    else:
        got = filter_sparse(rs, min_count).records
        assert sorted((r.user_key, r.utc_seconds) for r in got) == sorted(
            (r.user_key, r.utc_seconds) for r in expected
        )


# ---------------------------------------------------------------------------
# merge_consecutive
# ---------------------------------------------------------------------------

def test_same_day_run_collapses_to_earliest():
    rs = record_set([rec("a", "X", MONDAY + 9 * 3600), rec("a", "X", MONDAY + 11 * 3600)])
    out = merge_consecutive(rs)
    assert [r.utc_seconds for r in out.records] == [MONDAY + 9 * 3600]


def test_interleaved_location_breaks_run():
    rs = record_set([
        rec("a", "X", MONDAY + 9 * 3600),
        rec("a", "Y", MONDAY + 10 * 3600),
        rec("a", "X", MONDAY + 11 * 3600),
    ])
    assert len(merge_consecutive(rs).records) == 3


def test_local_day_boundary_breaks_run():
    rs = record_set([
        rec("a", "X", MONDAY + 23 * 3600 + 50 * 60),
        rec("a", "X", MONDAY + DAY + 10 * 60),
    ])
    assert len(merge_consecutive(rs).records) == 2


def test_merge_uses_local_day():
    # 23:50 and next 00:10 UTC fall on one local day at offset -60 minutes
    rs = record_set([
        rec("a", "X", MONDAY + 23 * 3600 + 50 * 60, tz=-60),
        rec("a", "X", MONDAY + DAY + 10 * 60, tz=-60),
    ])
    assert len(merge_consecutive(rs).records) == 1


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 6 * 24)), max_size=25))
def test_filter_merge_idempotent(triples):
    records = [
        rec(f"u{u}", f"l{l}", MONDAY + h * 3600 + 60 * i)
        for i, (u, l, h) in enumerate(triples)
    ]
    rs = record_set(records)
    try:
        once = filter_and_merge(rs, 3)
    except PreprocessError:
        return
    twice = filter_and_merge(once, 3)
    assert twice.records == once.records


# ---------------------------------------------------------------------------
# build_sessions / split
# ---------------------------------------------------------------------------

def week_fixture(n_weeks=6, per_week=2, user="a"):
    records = []
    for w in range(n_weeks):
        for k in range(per_week):
            records.append(rec(user, f"L{k}", MONDAY + w * WEEK + k * DAY + 3600 * (9 + k)))
    return record_set(records)


def test_same_iso_week_one_session():
    rs = record_set([rec("a", "X", MONDAY), rec("a", "Y", MONDAY + DAY)])
    # user below min_sessions would be dropped; relax minimums to isolate grouping
    vocab, users = build_sessions(rs, min_session_records=2, min_sessions=1)
    assert len(users) == 1 and len(users[0].sessions) == 1
    assert len(users[0].sessions[0].records) == 2


def test_single_record_sessions_dropped_then_user_dropped():
    rs = record_set([rec("a", "X", MONDAY), rec("a", "X", MONDAY + WEEK)])
    with pytest.raises(PreprocessError):
        build_sessions(rs, min_session_records=2, min_sessions=1)


def test_min_sessions_enforced():
    rs = week_fixture(n_weeks=4)
    with pytest.raises(PreprocessError):
        build_sessions(rs, min_sessions=5)
    vocab, users = build_sessions(week_fixture(n_weeks=5), min_sessions=5)
    assert len(users[0].sessions) == 5


def test_monday_midnight_features():
    hour, dow, tow = local_fields(MONDAY, 0)
    assert (hour, dow, tow) == (0, 0, 0.0)


def test_local_fields_general():
    # Wednesday 15:30:36 local
    utc = MONDAY + 2 * DAY + 15 * 3600 + 30 * 60 + 36
    hour, dow, tow = local_fields(utc, 0)
    assert (hour, dow) == (15, 2)
    assert tow == pytest.approx((2 * 24 + 15 + 30 / 60 + 36 / 3600) / 168.0)
    # same instant seen from offset +60 is one hour later on the wall clock
    hour2, _, _ = local_fields(utc, 60)
    assert hour2 == 16


def test_vocab_contiguous_and_consistent():
    vocab, users = build_sessions(week_fixture(), min_sessions=5)
    assert vocab.user_key == ["a"]
    assert vocab.loc_key == sorted(vocab.loc_key)
    for u in users:
        for s in u.sessions:
            for r in s.records:
                assert 0 <= r.loc < vocab.n_locs
                assert 0 <= r.cat < vocab.n_cats
                assert vocab.loc_cat[r.loc] == r.cat


def test_split_points():
    for n, want in ((5, 4), (7, 6), (10, 8)):
        rs = week_fixture(n_weeks=n)
        vocab, users = build_sessions(rs, min_sessions=5)
        split_train_test(users, 0.8)
        assert users[0].split_point == want == math.ceil(0.8 * n)


def test_pipeline_record_conservation():
    records = []
    for u in range(3):
        for w in range(6):
            for k in range(3):
                records.append(rec(f"u{u}", f"l{(u + k) % 4}", MONDAY + w * WEEK + k * DAY + u * 3600))
    result = run_pipeline(record_set(records), min_count=5)
    total = sum(len(s.records) for user in result.users for s in user.sessions)
    assert total == result.final.records


def saved_dataset(tmp_path):
    """Three users of six three-record sessions, saved; returns the run's
    result and the vocabulary and processed-file paths."""
    records = []
    for u in range(3):
        for w in range(6):
            for k in range(3):
                records.append(rec(f"u{u}", f"l{(u + k) % 4}", MONDAY + w * WEEK + k * DAY + u * 3600))
    result = run_pipeline(record_set(records), min_count=5)
    save_vocab(tmp_path / "vocab.txt", result.vocab)
    save_processed(tmp_path / "proc.txt", result.vocab, result.users)
    return result, tmp_path / "vocab.txt", tmp_path / "proc.txt"


def plain_users(users):
    """Each user's fields, with every session's records as a list."""
    return [(u.user_index, u.split_point, [(s.week_id, list(s.records)) for s in u.sessions]) for u in users]


def test_save_load_round_trip(tmp_path):
    result, vocab_path, proc_path = saved_dataset(tmp_path)
    vocab2 = load_vocab(vocab_path)
    users2 = load_processed(proc_path, vocab2)
    assert vocab2 == result.vocab
    assert plain_users(users2) == plain_users(result.users)


@pytest.mark.parametrize("cut,why", [
    (1, "declares 3 records, found 2"),
    (4, "declares 6 sessions, found 5"),
    (25, "header declares users=3, found 2"),  # exactly the last user's block
    (40, "declares 6 sessions, found 3"),
])
def test_load_rejects_truncated_file(tmp_path, cut, why):
    result, vocab_path, proc_path = saved_dataset(tmp_path)
    lines = proc_path.read_text().splitlines(keepends=True)
    proc_path.write_text("".join(lines[:-cut]))
    with pytest.raises(PreprocessError, match=why):
        load_processed(proc_path, result.vocab)


def test_load_rejects_misplaced_lines(tmp_path):
    result, vocab_path, proc_path = saved_dataset(tmp_path)
    lines = proc_path.read_text().splitlines(keepends=True)
    u_at = [i for i, line in enumerate(lines) if line.startswith("U\t")]
    r_line = next(line for line in lines if line.startswith("R\t"))
    cases = [
        (lines[:1] + [lines[2]] + lines[1:], "S line before any U line"),
        (lines[:2] + [r_line] + lines[2:], "R line outside a session block"),
        (lines[:u_at[1] + 2] + [r_line] + lines[u_at[1] + 2:], "R line of user 'u0' in another user's block"),
        ([line.replace("\tl1\t", "\tl9\t") for line in lines], "key 'l9' not in the vocabulary"),
        (lines + ["R\tu2\n"], "malformed R line"),
    ]
    for text, why in cases:
        proc_path.write_text("".join(text))
        with pytest.raises(PreprocessError, match=why):
            load_processed(proc_path, result.vocab)


@pytest.mark.parametrize("split", ["-1", "7"])
def test_load_rejects_split_point_outside_sessions(tmp_path, split):
    result, vocab_path, proc_path = saved_dataset(tmp_path)
    text = proc_path.read_text().replace("U\tu0\t5\t6\n", f"U\tu0\t{split}\t6\n")
    proc_path.write_text(text)
    with pytest.raises(PreprocessError, match=rf"split point {split} outside \[0, 6\]"):
        load_processed(proc_path, result.vocab)


@pytest.mark.parametrize("field,wrong", [("locs", "locs=5"), ("cats", "cats=0")])
def test_load_rejects_header_counts_other_than_the_vocabulary(tmp_path, field, wrong):
    result, vocab_path, proc_path = saved_dataset(tmp_path)
    lines = proc_path.read_text().splitlines(keepends=True)
    lines[0] = lines[0].replace(f"{field}={getattr(result.vocab, 'n_' + field)}", wrong)
    proc_path.write_text("".join(lines))
    with pytest.raises(PreprocessError, match=f"header declares {wrong}, the vocabulary has"):
        load_processed(proc_path, result.vocab)


@pytest.mark.parametrize("utc,tz", [("99999999999999999999", "0"), ("1672617600", "1441")])
def test_load_rejects_times_outside_the_calendar(tmp_path, utc, tz):
    result, vocab_path, proc_path = saved_dataset(tmp_path)
    lines = proc_path.read_text().splitlines(keepends=True)
    r_at = next(i for i, line in enumerate(lines) if line.startswith("R\t"))
    lines[r_at] = "\t".join(lines[r_at].split("\t")[:6] + [utc, tz]) + "\n"
    proc_path.write_text("".join(lines))
    with pytest.raises(PreprocessError, match=f":{r_at + 1}: malformed R line"):
        load_processed(proc_path, result.vocab)


def load_with_first_r_field(tmp_path, column: int, text: str):
    """Load the saved dataset with column `column` of its first `R` line set
    to `text`; returns the line number and the loaded users."""
    result, vocab_path, proc_path = saved_dataset(tmp_path)
    lines = proc_path.read_text().splitlines(keepends=True)
    r_at = next(i for i, line in enumerate(lines) if line.startswith("R\t"))
    fields = lines[r_at].split("\t")
    fields[column] = text
    lines[r_at] = "\t".join(fields)
    proc_path.write_text("".join(lines))
    return r_at + 1, lambda: load_processed(proc_path, result.vocab)


@pytest.mark.parametrize("text,why", [
    ("999", "category id 999 is not 0, its location's"),
    ("-1", "category id -1 is not 0, its location's"),
    ("cafe", "category id 'cafe' is not an integer"),
])
def test_load_rejects_category_id_other_than_the_locations(tmp_path, text, why):
    lineno, load = load_with_first_r_field(tmp_path, 3, text)
    with pytest.raises(PreprocessError, match=f":{lineno}: R line {why}"):
        load()


@pytest.mark.parametrize("text,why", [
    ("not-a-lat", "lat 'not-a-lat' is not a number"),
    ("nan", "lat nan is not finite"),
    ("-inf", "lat -inf is not finite"),
    ("90.5", r"lat 90.5 outside \[-90, 90\]"),
    ("40.6", "lat 40.6 is not 40.7, its location's"),
])
def test_load_rejects_lat_other_than_the_locations(tmp_path, text, why):
    lineno, load = load_with_first_r_field(tmp_path, 4, text)
    with pytest.raises(PreprocessError, match=f":{lineno}: R line {why}"):
        load()


@pytest.mark.parametrize("text,why", [
    ("west", "lon 'west' is not a number"),
    ("inf", "lon inf is not finite"),
    ("-180.5", r"lon -180.5 outside \[-180, 180\]"),
    ("74.0", "lon 74.0 is not -74.0, its location's"),
])
def test_load_rejects_lon_other_than_the_locations(tmp_path, text, why):
    lineno, load = load_with_first_r_field(tmp_path, 5, text)
    with pytest.raises(PreprocessError, match=f":{lineno}: R line {why}"):
        load()


def test_load_rejects_r_line_with_an_extra_field(tmp_path):
    lineno, load = load_with_first_r_field(tmp_path, 5, "-74.0\t0")
    with pytest.raises(PreprocessError, match=f":{lineno}: malformed R line"):
        load()


@pytest.mark.parametrize("column,text", [(3, "00"), (4, "40.70"), (5, "-7.4e1")])
def test_load_accepts_location_fields_written_otherwise(tmp_path, column, text):
    _, load = load_with_first_r_field(tmp_path, column, text)
    assert len(load()) == 3


def fixture_lines(tmp_path):
    """The fixture file prepared with min_count 2 and min_sessions 2 and
    saved: its vocabulary, processed-file path and lines. Lines 3 and 8
    (counted from 1) start its first user's first two sessions, of four
    records each."""
    result = run_pipeline(parse_foursquare(FIXTURE), min_count=2, min_sessions=2)
    path = tmp_path / "processed.txt"
    save_processed(path, result.vocab, result.users)
    lines = path.read_text().splitlines(keepends=True)
    assert (lines[2], lines[7]) == ("S\t201214\t4\n", "S\t201215\t4\n")
    assert len(load_processed(path, result.vocab)) == 6
    return result.vocab, path, lines


def with_field(line: str, column: int, text: str) -> str:
    fields = line.rstrip("\n").split("\t")
    fields[column] = text
    return "\t".join(fields) + "\n"


def assert_refused(vocab, path, lines, why):
    path.write_text("".join(lines))
    with pytest.raises(PreprocessError, match=why):
        load_processed(path, vocab)


def test_load_rejects_records_swapped_within_a_session(tmp_path):
    vocab, path, lines = fixture_lines(tmp_path)
    lines[3], lines[4] = lines[4], lines[3]
    assert_refused(vocab, path, lines, ":5: R line utc 1333359798 is earlier than the previous record's, 1333364188")


def test_load_rejects_a_record_moved_30_days(tmp_path):
    vocab, path, lines = fixture_lines(tmp_path)
    lines[8] = with_field(lines[8], 6, str(int(lines[8].split("\t")[6]) + 30 * DAY))
    assert_refused(vocab, path, lines, ":9: R line local week 201219 is not its session's, 201215")


def test_load_rejects_a_record_at_utc_3(tmp_path):
    vocab, path, lines = fixture_lines(tmp_path)
    lines[8] = with_field(lines[8], 6, "3")
    assert_refused(vocab, path, lines, ":9: R line local week 197001 is not its session's, 201215")


def test_load_rejects_a_session_week_id_of_999999(tmp_path):
    vocab, path, lines = fixture_lines(tmp_path)
    lines[7] = with_field(lines[7], 1, "999999")
    assert_refused(vocab, path, lines, ":9: R line local week 201215 is not its session's, 999999")


def test_load_rejects_a_negated_session_week_id(tmp_path):
    vocab, path, lines = fixture_lines(tmp_path)
    lines[7] = with_field(lines[7], 1, "-201215")
    assert_refused(vocab, path, lines, ":9: R line local week 201215 is not its session's, -201215")


def test_load_rejects_sessions_out_of_week_order(tmp_path):
    vocab, path, lines = fixture_lines(tmp_path)
    lines[2:12] = lines[7:12] + lines[2:7]
    assert_refused(vocab, path, lines, ":8: S line week 201214 does not follow its user's last, 201215")


def test_load_rejects_a_user_block_given_twice(tmp_path):
    vocab, path, lines = fixture_lines(tmp_path)
    last = max(i for i, line in enumerate(lines) if line.startswith("U\t"))
    key = lines[last].split("\t")[1]
    assert "\tusers=6" in lines[0]
    lines[0] = lines[0].replace("\tusers=6", "\tusers=7")
    repeat = len(lines) + 1  # the appended block's U line, counted from 1
    lines += lines[last:]
    assert_refused(vocab, path, lines, f":{repeat}: U line repeats user '{key}' of line {last + 1}")


@pytest.mark.parametrize("tag", ["USER", "LOC", "CAT"])
def test_load_vocab_checks_the_index_column(tmp_path, tag):
    result, vocab_path, proc_path = saved_dataset(tmp_path)
    lines = vocab_path.read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith(tag + "\t"))
    if tag == "CAT":  # the dataset's only category
        lines[first] = lines[first].replace("CAT\t0\t", "CAT\t1\t")
    else:  # two rows swapped
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
    vocab_path.write_text("".join(lines))
    with pytest.raises(PreprocessError, match=f":{first + 1}: {tag} line has index 1, expected 0"):
        load_vocab(vocab_path)


def test_load_vocab_rejects_malformed_lines(tmp_path):
    result, vocab_path, proc_path = saved_dataset(tmp_path)
    vocab_path.write_text(vocab_path.read_text() + "LOC\t4\tl9\n")
    with pytest.raises(PreprocessError, match="malformed LOC line"):
        load_vocab(vocab_path)


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 253402214400), st.integers(-1440, 1440)), min_size=1, max_size=20))
def test_calendar_fields_of_arrays_match_scalars_and_datetime(times):
    from datetime import datetime, timezone

    utc = np.array([t for t, _ in times], dtype=np.int64)
    tz = np.array([z for _, z in times], dtype=np.int64)
    hour, dow, tow = local_fields(utc, tz)
    assert list(zip(hour.tolist(), dow.tolist(), tow.tolist())) == [local_fields(t, z) for t, z in times]
    iso = [datetime.fromtimestamp(t + 60 * z, tz=timezone.utc).isocalendar() for t, z in times]
    assert local_week_id(utc, tz).tolist() == [y * 100 + w for y, w, _ in iso]
