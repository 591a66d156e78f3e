"""The benchmark reads the loaded users and instances through
`nycgen.shape_of` and `bench.history_counts`. On the record columns and
their views those must give what they give on plain `SessRecord` lists,
one shared history list per session, as the loader once built them.
(perfbench's own tests shrink the NYC-shaped file, so `check_shape`, and
with it `shape_of`, never runs there.)"""

import sys
from pathlib import Path
from types import SimpleNamespace

from nextloc.cli import main
from nextloc.preprocess import Session, SessionizedUser, load_processed, load_vocab
from nextloc.trainer import make_instances

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]
try:
    import bench
    import nycgen
finally:
    del sys.path[:2]


def test_shape_and_history_counts_match_plain_record_lists(tmp_path):
    raw = tmp_path / "nyc.txt"
    nycgen.write_file(raw, seed=5, n_users=40)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset_path = {raw}\ndataset_format = foursquare\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["prepare", "--config", str(cfg)]) == 0
    vocab = load_vocab(tmp_path / "out" / "vocab.txt")
    users = load_processed(tmp_path / "out" / "processed.txt", vocab)
    train, test = make_instances(users, "train"), make_instances(users, "test")
    assert type(train) is list and len(train) > 1000 and len(test) > 100

    plain_users = [
        SessionizedUser(u.user_index, [Session(s.week_id, list(s.records)) for s in u.sessions], u.split_point)
        for u in users
    ]
    histories: dict = {}

    def plain(instances):
        return [SimpleNamespace(history=histories.setdefault(id(i.history), list(i.history))) for i in instances]

    plain_train, plain_test = plain(train), plain(test)
    assert nycgen.shape_of(users, train, test) == nycgen.shape_of(plain_users, plain_train, plain_test)
    assert bench.history_counts(train + test) == bench.history_counts(plain_train + plain_test)
    # a session's instances share one history, so most history steps repeat
    total, unique_share = bench.history_counts(train + test)
    assert total > 0 and 0 < unique_share < 0.5
