#!/usr/bin/env python3
"""Regenerate tests/data/checkins_foursquare.txt (200 lines, 6 malformed).

The file is committed; rerun this only when the fixture needs to change.
`python scripts/make_fixture.py [OUTPUT]` writes it to OUTPUT instead, for
a comparison with the committed file.
"""

import argparse
from pathlib import Path

import numpy as np

DAYS = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"]
MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]

# Monday 2012-04-02 00:00:00 UTC
WEEK0 = 1333324800
FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "data" / "checkins_foursquare.txt"

VENUES = [
    (f"v{i:02d}", cat, 40.70 + 0.01 * (i % 5), -74.00 + 0.012 * (i // 5))
    for i, cat in enumerate(
        ["Bar", "Cafe", "Cafe", "Gym", "Home", "Home", "Office", "Office", "Park", "Bar",
         "Cafe", "Gym", "Park", "Office"]
    )
]


def fmt_time(utc: int) -> str:
    days = utc // 86400
    rem = utc % 86400
    y, mo, d = civil_from_days(days)
    hh, rem = divmod(rem, 3600)
    mm, ss = divmod(rem, 60)
    dow = DAYS[(days + 3) % 7]
    return f"{dow} {MONTHS[mo - 1]} {d:02d} {hh:02d}:{mm:02d}:{ss:02d} +0000 {y}"


def civil_from_days(z: int) -> tuple[int, int, int]:
    z += 719468
    era = (z if z >= 0 else z - 146096) // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    y = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    d = doy - (153 * mp + 2) // 5 + 1
    mo = mp + 3 if mp < 10 else mp - 9
    return y + (mo <= 2), mo, d


def main(path: Path = FIXTURE) -> None:
    rng = np.random.default_rng(20120403)
    good = []
    # 6 active users, 4 weekly slots over 8 weeks = 192 records
    for u in range(6):
        slots = sorted({(int(rng.integers(7)), int(rng.integers(8, 23))) for _ in range(8)})[:4]
        for week in range(8):
            for day, hour in slots:
                venue = VENUES[(2 * u + day + hour) % 10]
                utc = WEEK0 + week * 604800 + day * 86400 + hour * 3600 + int(rng.integers(3600))
                good.append(
                    f"u{u:02d}\t{venue[0]}\t4bf58dd8d48988d1{u:x}0941735\t{venue[1]}"
                    f"\t{venue[2]}\t{venue[3]}\t-240\t{fmt_time(utc)}"
                )
    for u in (6, 7):  # single-record users, filtered out downstream
        venue = VENUES[12 + (u % 2)]
        utc = WEEK0 + u * 86400 + int(rng.integers(86400))
        good.append(
            f"u{u:02d}\t{venue[0]}\t4bf58dd8d48988d1{u:x}0941735\t{venue[1]}"
            f"\t{venue[2]}\t{venue[3]}\t-240\t{fmt_time(utc)}"
        )
    assert len(good) == 194, len(good)
    bad = [
        "u00\tv00\tcat\tBar\t95.0\t-74.0\t-240\t" + fmt_time(WEEK0),          # latitude
        "u01\tv01\tcat\tCafe\t40.7\t-190.0\t-240\t" + fmt_time(WEEK0),        # longitude
        "u02\tv02\tcat\tCafe\t40.7\t-74.0\t-240\tTue Foo 03 18:00:06 +0000 2012",  # month
        "u03\tv03\tcat\tGym\t40.7\t-74.0\t-240",                              # arity
        "u04\tv04\tcat\tHome\t40.7\t-74.0\tabc\t" + fmt_time(WEEK0),          # offset
        "u05\tv05\tcat\tHome\tnan?\t-74.0\t-240\t" + fmt_time(WEEK0),         # latitude text
    ]
    out = good + bad
    assert len(out) == 200, len(out)
    rng.shuffle(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(out)} lines)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the bundled 200-line test fixture.")
    parser.add_argument("output", nargs="?", type=Path, default=FIXTURE,
                        help="file to write (default: tests/data/checkins_foursquare.txt)")
    main(parser.parse_args().output)
