import json
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from nextloc.cli import main

FIXTURE = Path(__file__).parent / "data" / "checkins_foursquare.txt"

BASE_CONFIG = """
dataset_path = {dataset}
dataset_format = foursquare
min_count = 10
variant = cslsl
d_loc = 6
d_cat = 4
d_hour = 3
d_day = 3
d_user = 3
hidden = 8
lambda_t = 10
lambda_c = 10
lambda_s = 10
learning_rate = 0.002
batch_size = 32
epochs = 2
patience = 10
seed = 1
output_dir = {out}
"""


def write_config(tmp_path, **kw):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG.format(dataset=FIXTURE, out=tmp_path / "out", **kw))
    return path


# ---------------------------------------------------------------------------
# independent pipeline oracle (plain dict/loop implementation)
# ---------------------------------------------------------------------------

def oracle_counts(path, min_count=10, min_session_records=2, min_sessions=5):
    records = []
    rejects = 0
    for line in open(path, encoding="utf-8"):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        try:
            if len(parts) != 8:
                raise ValueError
            user, venue, _cid, _cname, lat, lon, off, when = parts
            lat, lon, off = float(lat), float(lon), int(off)
            if not (-90 <= lat <= 90 and -180 <= lon <= 180):
                raise ValueError
            dt = datetime.strptime(when, "%a %b %d %H:%M:%S %z %Y")
            records.append((user, venue, int(dt.timestamp()), off))
        except ValueError:
            rejects += 1
    raw = (len({r[0] for r in records}), len({r[1] for r in records}), len(records))

    def one_round(recs):
        lc = Counter(r[1] for r in recs)
        recs = [r for r in recs if lc[r[1]] >= min_count]
        uc = Counter(r[0] for r in recs)
        recs = [r for r in recs if uc[r[0]] >= min_count]
        recs.sort(key=lambda r: (r[0], r[2]))
        merged = []
        for r in recs:
            local_day = (
                datetime.fromtimestamp(r[2], tz=timezone.utc) + timedelta(minutes=r[3])
            ).date()
            if merged and merged[-1][0] == r[0] and merged[-1][1] == r[1] and merged[-1][4] == local_day:
                continue
            merged.append((r[0], r[1], r[2], r[3], local_day))
        return [(u, v, t, o) for u, v, t, o, _ in merged]

    current = records
    while True:
        nxt = one_round(current)
        if nxt == current:
            break
        current = nxt
    processed = (len({r[0] for r in current}), len({r[1] for r in current}), len(current))

    survivors = []
    n_sessions = 0
    for user in sorted({r[0] for r in current}):
        weeks = {}
        for r in current:
            if r[0] != user:
                continue
            local = datetime.fromtimestamp(r[2], tz=timezone.utc) + timedelta(minutes=r[3])
            weeks.setdefault(local.isocalendar()[:2], []).append(r)
        kept = [v for _, v in sorted(weeks.items()) if len(v) >= min_session_records]
        if len(kept) >= min_sessions:
            survivors.append((user, kept))
            n_sessions += len(kept)
    final_records = sum(len(s) for _, kept in survivors for s in kept)
    final = (
        len(survivors),
        len({r[1] for _, kept in survivors for s in kept for r in s}),
        final_records,
    )
    return {"raw": raw, "processed": processed, "final": final,
            "rejects": rejects, "sessions": n_sessions}


def read_stats(out_dir):
    table = {}
    for line in (out_dir / "stats.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        table[parts[0]] = tuple(int(p) for p in parts[1:]) if parts[0] != "stage" else parts[1:]
    return table


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def test_prepare_matches_hand_count_oracle(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    want = oracle_counts(FIXTURE)
    got = read_stats(out)
    assert got["raw"] == want["raw"]
    assert got["processed"] == want["processed"]
    assert got["final"] == want["final"]
    assert got["rejected_lines"] == (want["rejects"],)
    assert got["sessions"] == (want["sessions"],)
    for artifact in ("canonical.txt", "processed.txt", "vocab.txt", "stats.txt"):
        head = (out / artifact).read_text().splitlines()[:2]
        assert any("config_hash=" in line and "seed=1" in line for line in head)


def test_prepare_reports_reference_deviation(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg), "--set", "reference_counts=6,7,160"]) == 0
    stats = (tmp_path / "out" / "stats.txt").read_text()
    assert "reference_deviation_users\t+0.0000" in stats


def test_prepare_missing_dataset_fails(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["prepare", "--config", str(cfg), "--set", "dataset_path=/no/such/file"])
    assert rc != 0
    assert "nextloc-error: missing-input" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_unknown_and_invalid_keys_enumerated(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("output_dir = out\nbogus_key = 1\nepochs = 0\ntrain_ratio = 7\n")
    rc = main(["prepare", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bogus_key" in err and "epochs" in err and "train_ratio" in err


def test_missing_output_dir_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = 3\n")
    assert main(["prepare", "--config", str(cfg)]) == 2
    assert "output_dir" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / evaluate / analyze
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli-run")
    cfg = write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    return tmp_path, cfg


def test_train_writes_checkpoint_and_log(trained):
    tmp_path, _cfg = trained
    out = tmp_path / "out"
    assert (out / "best.ckpt").exists()
    lines = (out / "epochs.csv").read_text().splitlines()
    assert lines[0].startswith("#config_hash=")
    assert lines[1] == "epoch,L_l,L_t,L_c,L_s,recall_at_1,recall_at_5,recall_at_10"
    assert len(lines) == 2 + 2  # two epochs


def test_evaluate_deterministic_bytes(trained, capsys):
    tmp_path, cfg = trained
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(cfg), "--checkpoint", str(out / "best.ckpt")]) == 0
    first = (out / "metrics.json").read_bytes()
    # retrain from scratch with the same seed, then evaluate again
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["evaluate", "--config", str(cfg), "--checkpoint", str(out / "best.ckpt")]) == 0
    assert (out / "metrics.json").read_bytes() == first
    payload = json.loads(first)
    assert set(payload) >= {"recall_loc", "recall_cat", "joint_matrix", "config_hash", "seed"}


def test_evaluate_missing_checkpoint(trained, capsys):
    tmp_path, cfg = trained
    missing = tmp_path / "out" / "nope.ckpt"
    rc = main(["evaluate", "--config", str(cfg), "--checkpoint", str(missing)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "missing-artifact" in err and "nope.ckpt" in err


def test_evaluate_refuses_mismatched_config(trained, capsys):
    tmp_path, cfg = trained
    ckpt = tmp_path / "out" / "best.ckpt"
    rc = main(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt), "--set", "hidden=16"])
    err = capsys.readouterr().err
    assert rc == 1 and "config-mismatch" in err


def test_evaluate_accepts_other_seed_same_config(trained, capsys):
    # the config hash deliberately excludes the seed
    tmp_path, cfg = trained
    ckpt = tmp_path / "out" / "best.ckpt"
    assert main(["evaluate", "--config", str(cfg), "--checkpoint", str(ckpt), "--set", "seed=99"]) == 0


def test_analyze_writes_csvs(trained):
    tmp_path, cfg = trained
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(cfg), "--checkpoint", str(out / "best.ckpt")]) == 0
    for name in ("joint_matrix.csv", "distance_hist.csv", "displacement.csv", "attractiveness.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0].startswith("#config_hash=") and len(lines) >= 3
    # displacement probabilities sum to one
    rows = [line.split(",") for line in (out / "displacement.csv").read_text().splitlines()[2:]]
    assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-9)
    assert sum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_sweep_tiny_grid(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == 0
    rc = main([
        "sweep", "--config", str(cfg), "--lambda-grid", "lambda_s=0,10", "--seeds", "1",
        "--set", "epochs=1",
    ])
    assert rc == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[1] == "lambda_s,mean_recall_at_1,sd,n_seeds"
    assert len(lines) == 4


def test_train_without_prepare_names_missing_artifact(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["train", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1 and "missing-artifact" in err and "vocab.txt" in err


# ---------------------------------------------------------------------------
# every failure ends in one nextloc-error line
# ---------------------------------------------------------------------------

def single_error_line(err: str) -> str:
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("nextloc-error:")]
    assert len(lines) == 1, err
    return lines[0]


def gowalla_copy(tmp_path) -> Path:
    """The fixture's parseable records in the gowalla layout (no categories)."""
    lines = []
    for line in FIXTURE.read_text(encoding="utf-8").splitlines():
        parts = line.split("\t")
        try:
            when = datetime.strptime(parts[7], "%a %b %d %H:%M:%S %z %Y")
        except (IndexError, ValueError):
            continue
        lines.append(f"{parts[0]}\t{when.strftime('%Y-%m-%dT%H:%M:%SZ')}\t{parts[4]}\t{parts[5]}\t{parts[1]}")
    path = tmp_path / "gowalla.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_sweep_category_variant_on_gowalla_data_fails_cleanly(tmp_path, capsys):
    cfg = write_config(tmp_path)
    gowalla = ["--set", f"dataset_path={gowalla_copy(tmp_path)}", "--set", "dataset_format=gowalla"]
    assert main(["prepare", "--config", str(cfg), *gowalla]) == 0
    capsys.readouterr()
    rc = main(["sweep", "--config", str(cfg), "--lambda-grid", "lambda_s=0,10", *gowalla])
    assert rc == 1
    line = single_error_line(capsys.readouterr().err)
    assert line.startswith("nextloc-error: config-invalid:") and "categories" in line


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["lambda_t", "lambda_c", "lambda_s", "learning_rate", "clip_norm"])
def test_non_finite_config_value_rejected(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path)
    rc = main(["train", "--config", str(cfg), "--set", f"{key}={value}"])
    assert rc == 2
    assert single_error_line(capsys.readouterr().err).startswith(f"nextloc-error: config-invalid: {key}:")


def test_negative_seed_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["train", "--config", str(cfg), "--seed", "-1"])
    assert rc == 2
    assert single_error_line(capsys.readouterr().err).startswith("nextloc-error: config-invalid: seed:")


def test_non_finite_sweep_grid_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == 0
    capsys.readouterr()
    rc = main(["sweep", "--config", str(cfg), "--lambda-grid", "lambda_s=0,nan"])
    assert rc == 1
    assert single_error_line(capsys.readouterr().err).startswith("nextloc-error: bad-grid:")


def test_train_rejects_truncated_processed_file(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == 0
    capsys.readouterr()
    processed = tmp_path / "out" / "processed.txt"
    processed.write_text("".join(processed.read_text().splitlines(keepends=True)[:-40]))
    rc = main(["train", "--config", str(cfg)])
    assert rc == 1
    line = single_error_line(capsys.readouterr().err)
    assert line.startswith("nextloc-error: pipeline:") and "declares" in line


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_sweep_fails_cleanly(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == 0
    capsys.readouterr()
    rc = main(["sweep", "--config", str(cfg), "--lambda-grid", "lambda_s=10", "--set", "epochs=1",
               "--set", "learning_rate=1e300"])
    assert rc == 1
    assert single_error_line(capsys.readouterr().err).startswith("nextloc-error: diverged: non-finite loss")


@pytest.mark.parametrize("blob,why", [
    (b"NLCKPT01" + (5).to_bytes(8, "little") + b"\xff\xfe{{x", "unreadable header"),
    (b"NLCKPT01" + (6).to_bytes(8, "little") + b"[1, 2]", "unreadable header"),
    (b"NLCKPT01" + (14).to_bytes(8, "little") + b"{\"version\": 1}", "unreadable header"),
], ids=["not-utf8", "not-an-object", "missing-keys"])
def test_evaluate_rejects_bad_checkpoint_header(trained, capsys, blob, why):
    tmp_path, cfg = trained
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob)
    rc = main(["evaluate", "--config", str(cfg), "--checkpoint", str(bad)])
    assert rc == 1
    line = single_error_line(capsys.readouterr().err)
    assert line.startswith("nextloc-error: pipeline:") and why in line


def test_evaluate_rejects_trailing_checkpoint_bytes(trained, capsys):
    tmp_path, cfg = trained
    padded = tmp_path / "padded.ckpt"
    padded.write_bytes((tmp_path / "out" / "best.ckpt").read_bytes() + b"\0")
    rc = main(["evaluate", "--config", str(cfg), "--checkpoint", str(padded)])
    assert rc == 1
    assert "trailing bytes" in single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("seeds", ["1,x", "", "1,-1"])
def test_sweep_rejects_bad_seed_list(tmp_path, capsys, seeds):
    cfg = write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == 0
    capsys.readouterr()
    rc = main(["sweep", "--config", str(cfg), "--lambda-grid", "lambda_s=0", "--seeds", seeds])
    assert rc == 1
    assert single_error_line(capsys.readouterr().err).startswith("nextloc-error: bad-seeds:")


@pytest.fixture(scope="module")
def checkpoint_of_other_data(tmp_path_factory):
    """best.ckpt trained on the fixture, then the same dataset_path
    re-prepared from the records of half the users."""
    tmp_path = tmp_path_factory.mktemp("cli-other-data")
    data = tmp_path / "checkins.txt"
    lines = FIXTURE.read_text(encoding="utf-8").splitlines(keepends=True)
    data.write_text("".join(lines), encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CONFIG.format(dataset=data, out=tmp_path / "out"))
    assert main(["prepare", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    data.write_text("".join(line for line in lines if line.split("\t")[0] in ("u00", "u01", "u02")),
                    encoding="utf-8")
    assert main(["prepare", "--config", str(cfg)]) == 0
    return cfg, tmp_path / "out" / "best.ckpt"


@pytest.mark.parametrize("command", ["evaluate", "analyze", "train"])
def test_checkpoint_for_other_data_refused(checkpoint_of_other_data, capsys, command):
    cfg, ckpt = checkpoint_of_other_data
    capsys.readouterr()
    flag = "--resume" if command == "train" else "--checkpoint"
    rc = main([command, "--config", str(cfg), flag, str(ckpt)])
    assert rc == 1
    line = single_error_line(capsys.readouterr().err)
    assert line.startswith("nextloc-error: config-mismatch:") and "shape" in line
