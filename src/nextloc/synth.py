"""Synthetic check-in corpora with known structure, for experiments and the
verification suite.

`weekly_schedule_corpus` builds users who repeat a fixed weekly slot plan
where the activity category is a function of (hour, day) and the location a
function of (category, user) — a corpus a causal time->activity->location
predictor should recover almost perfectly.

`two_cluster_corpus` places locations in two clusters ~20 km apart and gives
users of the two clusters mirrored schedules, so an undertrained model makes
cross-cluster mistakes; it exercises the distance-weighted loss.

Both hold their records as the loaders do: one set of record columns, each
session's records a view of its rows (`preprocess.share_columns`).
"""

from __future__ import annotations

import numpy as np

from .preprocess import Session, SessionizedUser, SessRecord, Vocab, share_columns, split_train_test

# Monday 2023-01-02 00:00:00 UTC; every synthetic week starts here + 7d * w
_WEEK0 = 1672617600
_BASE_LAT, _BASE_LON = 40.70, -74.00


def _vocab(n_users: int, n_locs: int, n_cats: int, coords: list[tuple[float, float]], loc_cat: list[int]) -> Vocab:
    return Vocab(
        user_key=[f"u{i:03d}" for i in range(n_users)],
        loc_key=[f"l{i:03d}" for i in range(n_locs)],
        cat_name=[f"cat{i}" for i in range(n_cats)],
        cat_raw_id=list(range(n_cats)),
        loc_coord=coords,
        loc_cat=loc_cat,
    )


def _record(loc: int, cat: int, day: int, hour: int, week: int) -> SessRecord:
    utc = _WEEK0 + week * 604800 + day * 86400 + hour * 3600
    tow = (day * 24 + hour) / 168.0
    return SessRecord(loc, cat, hour, day, tow, utc, 0)


def weekly_schedule_corpus(
    n_users: int = 50,
    n_weeks: int = 12,
    n_locs: int = 20,
    n_cats: int = 6,
    slots_per_week: int = 5,
    train_ratio: float = 0.8,
) -> tuple[Vocab, list[SessionizedUser]]:
    """Deterministic corpus: category = f(hour, day), location = g(category, user)."""
    loc_cat = [l % n_cats for l in range(n_locs)]
    per_cat = [sum(1 for c in loc_cat if c == cat) for cat in range(n_cats)]
    coords = [
        (_BASE_LAT + 0.004 * (l // 5), _BASE_LON + 0.005 * (l % 5)) for l in range(n_locs)
    ]
    vocab = _vocab(n_users, n_locs, n_cats, coords, loc_cat)

    users = []
    for u in range(n_users):
        slots = sorted(
            ((u + 2 * k) % 7, (3 * u + 5 * k) % 24) for k in range(slots_per_week)
        )
        sessions = []
        for w in range(n_weeks):
            rows = []
            for day, hour in slots:
                cat = (hour // 4 + day) % n_cats
                loc = cat + n_cats * (u % per_cat[cat])
                rows.append(_record(loc, cat, day, hour, w))
            sessions.append(Session(week_id=202301 + w, records=rows))
        users.append(SessionizedUser(u, sessions))
    return vocab, split_train_test(share_columns(users), train_ratio)


def two_cluster_corpus(
    n_users: int = 20,
    n_weeks: int = 10,
    slots_per_week: int = 4,
    noise: float = 0.15,
    seed: int = 0,
) -> tuple[Vocab, list[SessionizedUser]]:
    """Two location clusters ~20 km apart; users of the two clusters follow
    the same slot plans over mirrored locations, distinguishable only by the
    user identity. `noise` replaces that fraction of visits with a random
    same-cluster location.
    """
    n_locs, n_cats = 20, 2
    rng = np.random.default_rng(seed)
    # cluster A: locations 0..9, cluster B: 10..19, ~20 km north
    dlat = 20.0 / 111.195
    coords = []
    for l in range(n_locs):
        base = _BASE_LAT if l < 10 else _BASE_LAT + dlat
        coords.append((base + 0.003 * ((l % 10) // 5), _BASE_LON + 0.004 * (l % 5)))
    loc_cat = [l % n_cats for l in range(n_locs)]
    vocab = _vocab(n_users, n_locs, n_cats, coords, loc_cat)

    users = []
    for u in range(n_users):
        cluster = 0 if u < n_users // 2 else 1
        base_loc = 10 * cluster
        pattern = u % (n_users // 2)
        slots = sorted(((pattern + 2 * k) % 7, (3 * pattern + 7 * k) % 24) for k in range(slots_per_week))
        sessions = []
        for w in range(n_weeks):
            rows = []
            for j, (day, hour) in enumerate(slots):
                loc = base_loc + (pattern + j) % 10
                if rng.random() < noise:
                    loc = base_loc + int(rng.integers(10))
                rows.append(_record(loc, loc_cat[loc], day, hour, w))
            sessions.append(Session(week_id=202301 + w, records=rows))
        users.append(SessionizedUser(u, sessions))
    return vocab, split_train_test(share_columns(users))
