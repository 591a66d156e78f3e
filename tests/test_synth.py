"""The synthetic corpora, pinned by digest: criterion 4 and the benchmark's
synth-h64 workload train on them, so a refactor of `synth` must give them
bit for bit."""

import hashlib

import pytest

from nextloc.preprocess import SessRecord, user_rows
from nextloc.synth import two_cluster_corpus, weekly_schedule_corpus


def corpus_digest(vocab, users) -> str:
    """sha256 over the vocabulary, each user's index, split point, session
    week ids and sizes, and the bytes and dtype of every record column."""
    h = hashlib.sha256()
    h.update(repr((vocab.user_key, vocab.loc_key, vocab.cat_name, vocab.cat_raw_id, vocab.loc_coord,
                   vocab.loc_cat)).encode())
    for u in users:
        h.update(repr((u.user_index, u.split_point, [(s.week_id, len(s.records)) for s in u.sessions])).encode())
        columns, starts = user_rows(u.sessions)
        for name in SessRecord._fields:
            column = getattr(columns, name)[starts[0]:starts[-1]]
            h.update(f"{name}:{column.dtype.str}".encode())
            h.update(column.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("corpus,kwargs,digest", [
    (weekly_schedule_corpus, {},
     "2f0abd254effb22d7500eb70854709a68053d355b0d175472cc52dd488bb9320"),
    (weekly_schedule_corpus, {"n_users": 3, "n_weeks": 6, "slots_per_week": 3},
     "4a42234ef5e8b255b971b07bdb9bbe8a585d456252b5fee5e703774b8527ba46"),
    (weekly_schedule_corpus, {"n_users": 4, "n_weeks": 5, "n_locs": 9, "n_cats": 4, "slots_per_week": 2,
                              "train_ratio": 0.6},
     "e5d1e0be251ce6d684532e52bc103bc90b5d0b2ff13db7c97cc6164c1ed24669"),
    (two_cluster_corpus, {},
     "7db3ddcf97f6733ed873d32ca6a82c2fe67662a5fb0c46fb75072aebf8acfae0"),
    (two_cluster_corpus, {"noise": 0.4, "seed": 3},
     "24abdee8018209c409877899f07c1db7c21311822c1b29225141f678988143e9"),
], ids=["weekly-defaults", "weekly-3x6x3", "weekly-4x5-9locs", "two-cluster-defaults", "two-cluster-noise0.4-seed3"])
def test_synthetic_corpus_digest(corpus, kwargs, digest):
    assert corpus_digest(*corpus(**kwargs)) == digest
