"""Seeded generator of an NYC-shaped raw check-in file (foursquare layout).

The shape follows the public TSMC2014 NYC file: about 228k check-ins by 1083
users over 45 weeks, at venues drawn from a pool of 38k (about 31k appear)
in 400 categories, with heavy-tailed user activity and venue popularity.
After ``nextloc prepare`` with the default filters it gives 1083 users,
about 3.8k locations and 151k records (the public file: 4638 and 139k), and
about 97k/21k train/test instances whose histories average about 112/243
records. The file is synthetic, so no download is needed, and one seed
always gives the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from make_fixture import fmt_time  # scripts/make_fixture.py

# Tuesday 2012-04-03 00:00:00 UTC, the first day of the public NYC file
START = 1333411200
WEEK = 604800
# 2012-11-04 06:00 UTC: New York leaves daylight saving time
DST_END = 1352008800

N_USERS = 1083
N_VENUES = 38333
N_CATS = 400
N_WEEKS = 45

# Accepted ranges of the prepared shape. `check_shape` fails when the
# generator drifts out of them, so a benchmark never silently measures a
# different workload.
SHAPE_RANGES = {
    "users": (1050, 1083),
    "locs": (3400, 4600),
    "train_instances": (90_000, 105_000),
    "test_instances": (19_000, 24_000),
    "train_history_mean": (100.0, 125.0),
    "test_history_mean": (220.0, 270.0),
}


def _zipf_probs(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** s
    return p / p.sum()


def _draw(cdf: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right"), len(cdf) - 1)


def generate_lines(seed: int, n_users: int = N_USERS, n_weeks: int = N_WEEKS) -> list[str]:
    """Raw foursquare lines in file order (chronological), no trailing newline.

    A fixed 0.01% of the lines are malformed, so the parser's reject path is
    exercised; every other line parses.
    """
    rng = np.random.default_rng([seed, 20120403])
    venue_cdf = np.cumsum(_zipf_probs(N_VENUES, 0.6)[rng.permutation(N_VENUES)])
    venue_cat = rng.choice(N_CATS, size=N_VENUES, p=_zipf_probs(N_CATS, 0.9))
    venue_lat = rng.uniform(40.55, 40.95, size=N_VENUES)
    venue_lon = rng.uniform(-74.25, -73.70, size=N_VENUES)
    cat_id = [f"4bf58dd8d48988d1{c:08x}" for c in range(N_CATS)]
    venue_fields = [
        f"4b{(v * 2654435761) % 16 ** 22:022x}\t{cat_id[c]}\tCategory {c:03d}\t{lat:.8f}\t{lon:.8f}"
        for v, (c, lat, lon) in enumerate(zip(venue_cat.tolist(), venue_lat.tolist(), venue_lon.tolist()))
    ]

    # heavy-tailed activity: check-in counts at fixed quantiles of a Lomax
    # (Pareto II) law, dealt to users at random, so every seed has the same
    # spread of heavy and light users
    quantiles = (np.arange(n_users) + 0.5) / n_users
    totals = rng.permutation(100 + (190 * ((1.0 - quantiles) ** (-1 / 2.7) - 1.0)).astype(int))
    utc_all, user_all, venue_all = [], [], []
    for u in range(n_users):
        total = int(totals[u])
        first = int(rng.integers(0, n_weeks // 3))
        last = int(rng.integers(2 * n_weeks // 3, n_weeks))
        weeks = rng.integers(first, last + 1, size=total)
        hours = rng.choice(24, size=total, p=_HOUR_P)
        days = rng.integers(0, 7, size=total)
        # New York local time to UTC (4 h in summer time; winter check-ins
        # shift by an hour, which the data does not need to avoid)
        utc = START + weeks * WEEK + days * 86400 + hours * 3600 + rng.integers(0, 3600, size=total) + 4 * 3600
        fav = np.unique(_draw(venue_cdf, rng, 60))[: int(rng.integers(5, 16))]
        from_fav = rng.random(total) < 0.62
        venues = np.where(
            from_fav,
            fav[rng.choice(len(fav), size=total, p=_zipf_probs(len(fav), 1.1))],
            _draw(venue_cdf, rng, total),
        )
        utc_all.append(utc)
        user_all.append(np.full(total, u))
        venue_all.append(venues)
    utc = np.concatenate(utc_all)
    user = np.concatenate(user_all)
    venue = np.concatenate(venue_all)
    order = np.lexsort((user, utc))

    lines = [
        f"{u + 1}\t{venue_fields[v]}\t{-240 if t < DST_END else -300}\t{fmt_time(t)}"
        for u, v, t in zip(user[order].tolist(), venue[order].tolist(), utc[order].tolist())
    ]
    for k in range(len(lines) // 10_000):
        i = (k * 7919) % len(lines)
        lines[i] = lines[i].rsplit("\t", 1)[0]  # drop the timestamp field
    return lines


# check-ins by local hour: quiet nights, lunch and evening peaks
_HOUR_P = np.array(
    [3, 2, 1, 1, 1, 1, 2, 4, 6, 6, 6, 7, 9, 8, 6, 6, 6, 7, 9, 10, 9, 7, 5, 4], dtype=np.float64
)
_HOUR_P /= _HOUR_P.sum()


def write_file(path, seed: int, **kw) -> int:
    """Write the generated file; returns its line count."""
    lines = generate_lines(seed, **kw)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


def shape_of(users, train, test) -> dict[str, float]:
    return {
        "users": len(users),
        "locs": len({r.loc for u in users for s in u.sessions for r in s.records}),
        "train_instances": len(train),
        "test_instances": len(test),
        "train_history_mean": float(np.mean([len(i.history) for i in train])),
        "test_history_mean": float(np.mean([len(i.history) for i in test])),
    }


def check_shape(shape: dict[str, float], ranges=SHAPE_RANGES) -> None:
    bad = [f"{k}={shape[k]} outside {lo}..{hi}" for k, (lo, hi) in ranges.items() if not lo <= shape[k] <= hi]
    if bad:
        raise ValueError("generated NYC-shaped corpus drifted: " + "; ".join(bad))
