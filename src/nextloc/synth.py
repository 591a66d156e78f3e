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

from .preprocess import Session, SessionizedUser, SessRecord, Vocab, local_fields, share_columns, split_train_test

# Monday 2023-01-02 00:00:00 UTC; every synthetic week starts here + 7d * w
_WEEK0 = 1672617600
_BASE_LAT, _BASE_LON = 40.70, -74.00


def _corpus(
    coords: list[tuple[float, float]], loc_cat: list[int], n_cats: int, n_weeks: int,
    plans: list[list[tuple[int, int]]], visit, train_ratio: float = 0.8,
) -> tuple[Vocab, list[SessionizedUser]]:
    """Locations at `coords` with categories `loc_cat`, and users who keep
    the sorted (day, hour) slots of `plans[u]` every week, on the hour, in
    UTC: in slot `j` of a week, user `u` visits location
    `visit(u, j, day, hour)`, which is called user by user, week by week,
    slot by slot. A record's category is its location's."""
    vocab = Vocab(
        user_key=[f"u{i:03d}" for i in range(len(plans))],
        loc_key=[f"l{i:03d}" for i in range(len(coords))],
        cat_name=[f"cat{i}" for i in range(n_cats)],
        cat_raw_id=list(range(n_cats)),
        loc_coord=coords,
        loc_cat=loc_cat,
    )
    users = []
    for u, slots in enumerate(plans):
        sessions = []
        for w in range(n_weeks):
            rows = []
            for j, (day, hour) in enumerate(slots):
                loc = visit(u, j, day, hour)
                utc = _WEEK0 + w * 604800 + day * 86400 + hour * 3600
                rows.append(SessRecord(loc, loc_cat[loc], *local_fields(utc, 0), utc, 0))
            sessions.append(Session(week_id=202301 + w, records=rows))
        users.append(SessionizedUser(u, sessions))
    return vocab, split_train_test(share_columns(users), train_ratio)


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
    plans = [
        sorted(((u + 2 * k) % 7, (3 * u + 5 * k) % 24) for k in range(slots_per_week)) for u in range(n_users)
    ]

    def visit(u, j, day, hour):
        cat = (hour // 4 + day) % n_cats
        return cat + n_cats * (u % per_cat[cat])

    return _corpus(coords, loc_cat, n_cats, n_weeks, plans, visit, train_ratio)


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
    patterns = [u % (n_users // 2) for u in range(n_users)]
    plans = [sorted(((p + 2 * k) % 7, (3 * p + 7 * k) % 24) for k in range(slots_per_week)) for p in patterns]

    def visit(u, j, day, hour):
        base_loc = 0 if u < n_users // 2 else 10  # the user's cluster
        loc = base_loc + (patterns[u] + j) % 10
        if rng.random() < noise:
            loc = base_loc + int(rng.integers(10))
        return loc

    return _corpus(coords, loc_cat, n_cats, n_weeks, plans, visit)
