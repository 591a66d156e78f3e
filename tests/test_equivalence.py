"""The fused GRU path reproduces the per-gate tape it replaced.

`data/equivalence.npz` holds, for every variant (and `cslsl_c` on a dataset
without categories), the time/category/location head outputs and every
parameter gradient of `total_loss` on one padded batch: ragged history and
prefix lengths, one row with no history. It was recorded with the per-gate
tape implementation (git f7b8fe8) by running this file as a script with that
checkout's `src` first on PYTHONPATH:

    PYTHONPATH=<old checkout>/src python tests/test_equivalence.py tests/data/equivalence.npz

Both paths sum in different orders, so arrays agree to 1e-12 relative to
their largest magnitude, not bit for bit.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from nextloc import autodiff as ad
from nextloc.model import VARIANTS, Batch, ModelConfig, build_params, forward
from nextloc.objective import LossWeights, total_loss

DATA = Path(__file__).parent / "data" / "equivalence.npz"
CASES = [(v, True) for v in VARIANTS] + [("cslsl_c", False)]
N_USERS, N_LOCS, N_CATS = 3, 7, 3
COORDS = [(40.70 + 0.013 * i, -74.00 + 0.007 * (i % 3)) for i in range(N_LOCS)]
HIST_LENGTHS = (3, 0, 5, 1)
PREF_LENGTHS = (2, 1, 3, 1)


def case_key(variant: str, has_categories: bool) -> str:
    return variant if has_categories else f"{variant}-nocat"


def padded_batch(has_categories: bool) -> Batch:
    rng = np.random.default_rng(20)
    n = len(HIST_LENGTHS)

    def seq(lengths):
        width = max(lengths)
        cols = [np.zeros((n, width), dtype=np.intp) for _ in range(4)]
        mask = np.zeros((n, width))
        for i, length in enumerate(lengths):
            cols[0][i, :length] = rng.integers(0, N_LOCS, size=length)
            cols[1][i, :length] = rng.integers(0, N_CATS, size=length) if has_categories else 0
            cols[2][i, :length] = rng.integers(0, 24, size=length)
            cols[3][i, :length] = rng.integers(0, 7, size=length)
            mask[i, :length] = 1.0
        return cols + [mask]

    h, p = seq(HIST_LENGTHS), seq(PREF_LENGTHS)
    return Batch(
        user=np.array([0, 2, 1, 2], dtype=np.intp),
        hist_loc=h[0], hist_cat=h[1], hist_hour=h[2], hist_day=h[3], hist_mask=h[4],
        pref_loc=p[0], pref_cat=p[1], pref_hour=p[2], pref_day=p[3], pref_mask=p[4],
        target_t=rng.uniform(0, 1, size=n),
        target_cat=rng.integers(0, N_CATS, size=n) if has_categories else np.zeros(n, dtype=np.intp),
        target_loc=rng.integers(0, N_LOCS, size=n),
    )


def outputs(variant: str, has_categories: bool) -> dict[str, np.ndarray]:
    """Head outputs and parameter gradients of one forward/backward."""
    cfg = ModelConfig(n_users=N_USERS, n_locs=N_LOCS, n_cats=N_CATS, variant=variant, d_loc=4, d_cat=3,
                      d_hour=2, d_day=3, d_user=2, hidden=5, has_categories=has_categories)
    store = build_params(cfg, seed=11)
    batch = padded_batch(has_categories)
    state = forward(store, cfg, batch)
    node, _ = total_loss(state, batch.target_t, batch.target_cat, batch.target_loc, LossWeights(), COORDS)
    ad.backward(node)
    out = {"loss": np.asarray(node.value), "loc_logits": state.loc_logits.value}
    if state.t_hat is not None:
        out["t_hat"] = state.t_hat.value
    if state.cat_logits is not None:
        out["cat_logits"] = state.cat_logits.value
    out.update({f"grad/{n}": store[n].grad for n in store.names()})
    return out


def record(path) -> None:
    arrays = {}
    for variant, has_categories in CASES:
        key = case_key(variant, has_categories)
        arrays.update({f"{key}/{name}": a for name, a in outputs(variant, has_categories).items()})
    np.savez_compressed(path, **arrays)


@pytest.mark.parametrize("variant,has_categories", CASES, ids=[case_key(*c) for c in CASES])
def test_matches_per_gate_tape(variant, has_categories):
    key = case_key(variant, has_categories)
    with np.load(DATA) as data:
        want = {name[len(key) + 1:]: data[name] for name in data.files if name.startswith(key + "/")}
    got = outputs(variant, has_categories)
    assert sorted(got) == sorted(want)
    for name, w in want.items():
        assert got[name].shape == w.shape, name
        assert np.abs(got[name] - w).max(initial=0.0) <= 1e-12 * np.abs(w).max(initial=0.0), name


if __name__ == "__main__":
    record(sys.argv[1])
