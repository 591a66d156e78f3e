"""The columnar check-in pipeline against the row-wise one it replaced.

`reference_prepare.py` keeps the record-at-a-time parsers, stages, writers,
loader and instance builder. On the same raw file both must give
byte-identical canonical.txt, processed.txt, vocab.txt and stats.txt, the
same rejects (line number and reason) and location conflicts, and the same
training instances, in the same order. The inputs are hypothesis-generated
foursquare and gowalla files full of malformed lines, the test fixture, and
a 60-user NYC-shaped file from perfbench/nycgen.py.
"""

import dataclasses
import datetime
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import reference_prepare as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc import ingest, preprocess, trainer

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "checkins_foursquare.txt"
ARTIFACTS = ("canonical.txt", "processed.txt", "vocab.txt", "stats.txt")

NEW = SimpleNamespace(
    parse_foursquare=ingest.parse_foursquare, parse_gowalla=ingest.parse_gowalla,
    write_canonical=ingest.write_canonical, run_pipeline=preprocess.run_pipeline,
    save_processed=preprocess.save_processed, save_vocab=preprocess.save_vocab,
    load_vocab=preprocess.load_vocab, load_processed=preprocess.load_processed,
    make_instances=trainer.make_instances,
)


def prepare(impl, raw: Path, out: Path, fmt="foursquare", tz=0, min_count=10, min_session_records=2,
            min_sessions=5, train_ratio=0.8) -> dict:
    """What one implementation makes of `raw`: the parsed records, rejects
    and conflicts, the artifact bytes, and the reloaded train and test
    instances; or the error that stopped it."""
    rs = impl.parse_foursquare(raw) if fmt == "foursquare" else impl.parse_gowalla(raw, tz)
    got = {
        "records": [tuple(r) if isinstance(r, tuple) else dataclasses.astuple(r) for r in rs.records],
        "locations": {k: (v.lat, v.lon, v.category_name) for k, v in rs.locations.items()},
        "rejects": rs.rejects,
        "location_conflicts": rs.location_conflicts,
    }
    impl.write_canonical(rs, out / "canonical.txt", header_lines=["h"])
    got["canonical.txt"] = (out / "canonical.txt").read_bytes()
    try:
        result = impl.run_pipeline(rs, min_count, min_session_records, min_sessions, train_ratio)
    except preprocess.PreprocessError as e:
        got["error"] = str(e)
        return got
    except KeyError as e:  # the row-wise sessionizer's crash, see assert_same
        got["crash"] = repr(e)
        return got
    impl.save_processed(out / "processed.txt", result.vocab, result.users, header_lines=["h"])
    impl.save_vocab(out / "vocab.txt", result.vocab, header_lines=["h"])
    (out / "stats.txt").write_text(preprocess.stats_report(result, (3, 4, 5)), encoding="utf-8")
    for name in ARTIFACTS:
        got[name] = (out / name).read_bytes()
    vocab = impl.load_vocab(out / "vocab.txt")
    users = impl.load_processed(out / "processed.txt", vocab)
    got["train"] = instance_fields(impl.make_instances(users, "train"))
    got["test"] = instance_fields(impl.make_instances(users, "test"))
    return got


def instance_fields(instances) -> list[tuple]:
    """Each instance as (user, history, prefix, target time, category,
    location), its records as lists, so the reference's instances and the
    column views compare field by field."""
    histories = {}  # a session's instances share their history
    return [
        (i.user_index, histories.setdefault(id(i.history), list(i.history)), list(i.prefix), i.target_t,
         i.target_cat, i.target_loc)
        for i in instances
    ]


def assert_same(raw: Path, **kw) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        old_out, new_out = Path(tmp, "old"), Path(tmp, "new")
        old_out.mkdir()
        new_out.mkdir()
        old = prepare(ref, raw, old_out, **kw)
        new = prepare(NEW, raw, new_out, **kw)
    if "crash" in old:
        # the row-wise sessionizer crashed when a kept location's first-seen
        # category occurred in no kept record; the columnar one counts that
        # category among the ingest-level ids
        assert "error" not in new and "crash" not in new
        del old["crash"]
        new = {k: v for k, v in new.items() if k in old}
    assert new.keys() == old.keys()
    for key in old:
        assert new[key] == old[key], key
    return new


# ---------------------------------------------------------------------------
# hypothesis-generated raw files
# ---------------------------------------------------------------------------

DAYS = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"]
MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
# Sunday 2023-01-01 22:00:00 UTC: an hour or two from an ISO week boundary
START = 1672610400
# a0 sorts first, so its rare records are the first seen of their venues
USERS = ["u0", "u0", "u1", "u1", "u2", "u2", "a0"]
STEPS = [0, 0, 60, 3600, 7200, 86400, 2 * 86400, 7 * 86400]  # 0 gives ties in (user, utc)
# a venue's usual (lat, lon, category) and a conflicting one; 40.70 and 40.7
# are one float, -0.0 equals 0.0 but prints differently, and Pub and Zoo
# occur only in conflicting lines
VENUES = {
    "v0": (("40.7", "-74.0", "Bar"), ("40.70", "-74.0", "Zoo")),
    "v1": (("40.71", "0.0", "Cafe"), ("40.71", "-0.0", "Cafe")),
    "v2": (("-0.0", "-73.98", "Gym"), ("0.0", "-73.98", "Gym")),
    "v3": (("40.73", "-74.01", "Park"), ("40.73", "-74.01", "Pub")),
    "v4": (("40.75", "-74.02", "Cafe"), ("40.76", "-74.03", "Cafe")),
}
BAD = {  # how a foursquare line goes wrong: which field gets what
    "short": (None, None),
    "long": (None, None),
    "month": (7, lambda t: t.replace(t[4:7], "Foo")),
    "zone": (7, lambda t: t.replace(t[20:25], "+00x0")),
    "zone sign": (7, lambda t: t.replace(t[20:25], "00000")),
    "clock": (7, lambda t: t.replace(t[11:13], "1x")),
    "clock parts": (7, lambda t: t.replace(t[11:19], "18:00")),
    "year": (7, lambda t: t[:26] + "0000"),
    "stamp": (7, lambda t: t[:10]),
    "weekday": (7, lambda t: "Xyz" + t[3:]),
    "lat": (4, lambda _: "91.0"),
    "lon": (5, lambda _: "-180.5"),
    "nan": (4, lambda _: "nan"),
    "float": (5, lambda _: "x"),
    "offset": (6, lambda _: "-24O"),
    "old": (7, lambda t: t[:26] + "1969"),
}


def fsq_time(utc: int, zone_min: int) -> str:
    """`Tue Apr 03 18:00:06 +0000 2012` for the instant, written in the zone."""
    days, rem = divmod(utc + 60 * zone_min, 86400)
    d = datetime.date(1970, 1, 1) + datetime.timedelta(days=days)
    hh, rem = divmod(rem, 3600)
    sign = "+" if zone_min >= 0 else "-"
    return (f"{DAYS[d.weekday()]} {MONTHS[d.month - 1]} {d.day:02d} {hh:02d}:{rem // 60:02d}:{rem % 60:02d}"
            f" {sign}{abs(zone_min) // 60:02d}{abs(zone_min) % 60:02d} {d.year}")


@st.composite
def foursquare_files(draw):
    lines, t = [], START
    for _ in range(draw(st.integers(0, 40))):
        t += draw(st.sampled_from(STEPS))
        kind = draw(st.sampled_from(["good"] * 12 + ["conflict"] * 2 + ["blank"] + list(BAD)))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        venue = draw(st.sampled_from(sorted(VENUES)))
        lat, lon, cat = VENUES[venue][kind == "conflict"]
        zone = draw(st.sampled_from([0, 0, 90, -300]))
        offset = draw(st.sampled_from(["-240", "0", "330", "-300"]))
        fields = [draw(st.sampled_from(USERS)), venue, f"c{cat}", cat, lat, lon, offset,
                  fsq_time(t, zone)]
        if kind == "short":
            fields.pop()
        elif kind == "long":
            fields.append("x")
        elif kind in BAD:
            i, spoil = BAD[kind]
            fields[i] = spoil(fields[i])
        lines.append("\t".join(fields))
    return lines


@st.composite
def gowalla_files(draw):
    lines, t = [], START
    for _ in range(draw(st.integers(0, 40))):
        t += draw(st.sampled_from(STEPS))
        venue = draw(st.sampled_from(sorted(VENUES)))
        lat, lon, _ = VENUES[venue][draw(st.booleans())]
        stamp = fsq_time(t, 0)
        d = f"{int(stamp[26:]):04d}-{MONTHS.index(stamp[4:7]) + 1:02d}-{stamp[8:10]}T{stamp[11:19]}Z"
        fields = [draw(st.sampled_from(USERS)), d, lat, lon, venue]
        kind = draw(st.sampled_from(["good"] * 6 + ["blank", "short", "month", "stamp", "lat", "nan"]))
        if kind == "blank":
            fields = [""]
        elif kind == "short":
            fields.pop()
        elif kind == "month":
            fields[1] = d[:5] + "13" + d[7:]
        elif kind == "stamp":
            fields[1] = d[:-1]
        elif kind == "lat":
            fields[2] = "-90.5"
        elif kind == "nan":
            fields[3] = "nan"
        lines.append("\t".join(fields))
    return lines


def write_lines(lines) -> Path:
    fh = tempfile.NamedTemporaryFile("w", encoding="utf-8", suffix=".txt", delete=False)
    with fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return Path(fh.name)


@settings(max_examples=150, deadline=None)
@given(foursquare_files(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.sampled_from([0.5, 0.8]))
def test_generated_foursquare_files(lines, min_count, min_session_records, min_sessions, train_ratio):
    raw = write_lines(lines)
    try:
        assert_same(raw, min_count=min_count, min_session_records=min_session_records, min_sessions=min_sessions,
                    train_ratio=train_ratio)
    finally:
        raw.unlink()


@settings(max_examples=60, deadline=None)
@given(gowalla_files(), st.sampled_from([0, -360, 330]), st.integers(1, 2))
def test_generated_gowalla_files(lines, tz, min_count):
    raw = write_lines(lines)
    try:
        assert_same(raw, fmt="gowalla", tz=tz, min_count=min_count, min_session_records=2, min_sessions=1,
                    train_ratio=0.5)
    finally:
        raw.unlink()


# ---------------------------------------------------------------------------
# the test fixture and an NYC-shaped file
# ---------------------------------------------------------------------------

def test_fixture():
    got = assert_same(FIXTURE)
    assert len(got["rejects"]) == 6 and got["train"] and got["test"]


def test_nyc_shaped_file(tmp_path):
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]
    try:
        import nycgen
    finally:
        del sys.path[:2]
    raw = tmp_path / "nyc60.txt"
    nycgen.write_file(raw, seed=3, n_users=60)
    got = assert_same(raw)
    assert len(got["records"]) > 10_000 and len(got["train"]) > 1000


def test_first_seen_category_missing_from_kept_records(tmp_path):
    # v3 is first seen (user a9 sorts first) as a Pub; a9 is filtered out, so
    # no kept record is a Pub, but v3 keeps its first-seen category. The
    # row-wise sessionizer had no ingest-level id for it and raised KeyError.
    raw = tmp_path / "conflict.txt"
    lines = ["a9\tv3\tc1\tPub\t40.73\t-74.01\t0\tMon Jan 02 09:00:00 +0000 2023"]
    lines += [f"u0\tv3\tc0\tPark\t40.73\t-74.01\t0\t{fsq_time(START + d * 86400, 0)}" for d in (2, 3, 9, 10)]
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert prepare(ref, raw, tmp_path, min_count=2, min_sessions=1)["crash"] == "KeyError('Pub')"
    assert_same(raw, min_count=2, min_sessions=1)
    got = prepare(NEW, raw, tmp_path, min_count=2, min_sessions=1)
    assert b"CAT\t0\t1\tPub\n" in got["vocab.txt"] and got["train"]
