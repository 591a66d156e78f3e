"""Every artifact is written all or nothing: a write that fails midway
leaves the previous file byte for byte, and no temporary file beside it."""

import builtins
from pathlib import Path

import pytest

from nextloc import atomic, cli, ingest, params, preprocess
from nextloc.cli import main
from nextloc.model import ModelConfig, build_params
from nextloc.synth import weekly_schedule_corpus

FIXTURE = Path(__file__).parent / "data" / "checkins_foursquare.txt"
PREVIOUS = b"the previous contents\n"


class FailingFile:
    """A file whose writes (or writelines) raise, as a full disk would,
    once `ok` of them have gone through."""

    def __init__(self, fh, ok: int):
        self.fh, self.ok = fh, ok

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def _count(self):
        if not self.ok:
            raise OSError(28, "No space left on device")
        self.ok -= 1

    def write(self, data):
        self._count()
        return self.fh.write(data)

    def writelines(self, lines):
        self._count()
        return self.fh.writelines(lines)


def fail_writes_to(monkeypatch, name: str, ok: int = 1) -> None:
    """Make every temporary file that `atomic_write` opens for `name` fail
    after `ok` writes."""
    def fake_open(path, *args, **kwargs):
        fh = builtins.open(path, *args, **kwargs)
        return FailingFile(fh, ok) if Path(path).name.startswith(f".{name}.") else fh

    monkeypatch.setattr(atomic, "open", fake_open, raising=False)


def small_store():
    cfg = ModelConfig(n_users=3, n_locs=5, n_cats=2, variant="lsl", d_loc=2, d_cat=2, d_hour=2, d_day=2, d_user=2,
                      hidden=3)
    return build_params(cfg, seed=0)


def _corpus():
    return weekly_schedule_corpus(n_users=3, n_weeks=6, slots_per_week=3)


WRITERS = {
    "processed.txt": lambda path: preprocess.save_processed(path, *_corpus(), header_lines=["h"]),
    "vocab.txt": lambda path: preprocess.save_vocab(path, _corpus()[0], header_lines=["h"]),
    "canonical.txt": lambda path: ingest.write_canonical(ingest.parse_foursquare(FIXTURE), path, header_lines=["h"]),
    "best.ckpt": lambda path: params.save_checkpoint(path, small_store(), {"epoch": 0}),
    "epochs.csv": lambda path: cli._write_csv(path, "h", ["epoch", "x"], [(0, 1.5), (1, 2.5)]),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_write_failing_midway_leaves_the_previous_file(tmp_path, monkeypatch, name):
    target = tmp_path / name
    target.write_bytes(PREVIOUS)
    fail_writes_to(monkeypatch, name)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[name](target)
    assert target.read_bytes() == PREVIOUS
    assert [p.name for p in tmp_path.iterdir()] == [name]
    monkeypatch.undo()
    WRITERS[name](target)  # the same write, not failing, replaces the file
    assert target.read_bytes() != PREVIOUS
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_prepare_failing_to_write_stats_keeps_the_previous_stats(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset_path = {FIXTURE}\ndataset_format = foursquare\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["prepare", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    fail_writes_to(monkeypatch, "stats.txt", ok=0)  # the report is one write
    capsys.readouterr()
    # the reference triple changes the report, not the artifacts' config hash
    assert main(["prepare", "--config", str(cfg), "--set", "reference_counts=1,2,3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nextloc-error: io:") and len(err.splitlines()) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before

