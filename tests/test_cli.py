import json
import math
import shutil
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from test_autodiff import checkpoint_listing_w_twice, checkpoint_with_shape

from nextloc.cli import main
from nextloc.config import parse_config
from nextloc.params import load_checkpoint, save_checkpoint

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


def test_prepare_rejects_line_with_absurd_tz_offset(tmp_path, capsys):
    absurd = "u00\tv03\t4bf58dd8d48988d100941735\tGym\t40.730000000000004\t-74.0\t9999999999\tThu May 17 21:27:17 +0000 2012"
    data = tmp_path / "checkins.txt"
    data.write_text(FIXTURE.read_text(encoding="utf-8") + absurd + "\n", encoding="utf-8")
    cfg = write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg), "--set", f"dataset_path={data}"]) == 0
    assert read_stats(tmp_path / "out")["rejected_lines"] == (oracle_counts(FIXTURE)["rejects"] + 1,)


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


def test_key_given_twice_in_one_file_rejected(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("output_dir = out\nhidden = 600\nepochs = 0\n\nhidden = 8\n")
    rc = main(["prepare", "--config", str(cfg)])
    assert rc == 2
    line = single_error_line(capsys.readouterr().err)
    assert line.startswith("nextloc-error: config-invalid:")
    assert "hidden: given twice (lines 2 and 5)" in line and "epochs: must be >= 1" in line
    cfg.write_text("output_dir = out\nhidden = 600\n")
    assert parse_config(cfg, {"hidden": "8"}).hidden == 8  # --set still overrides the file


def test_a_key_given_twice_among_the_flags_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["prepare", "--config", str(cfg), "--set", "epochs=0", "--set", "hidden=0", "--set", "epochs=1"])
    assert rc == 2
    line = single_error_line(capsys.readouterr().err)
    assert line.startswith("nextloc-error: config-invalid:")
    assert "epochs: given twice on the command line" in line and "hidden: must be >= 1" in line
    assert not (tmp_path / "out").exists()


def test_seed_flag_and_set_seed_are_one_key(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["train", "--config", str(cfg), "--seed", "3", "--set", "seed=4"])
    assert rc == 2
    line = single_error_line(capsys.readouterr().err)
    assert line.startswith("nextloc-error: config-invalid:") and "seed: given twice on the command line" in line


@pytest.mark.parametrize("offset", ["1441", "-1441", "9999999999"])
def test_gowalla_tz_offset_out_of_range_rejected(tmp_path, capsys, offset):
    cfg = write_config(tmp_path)
    rc = main(["prepare", "--config", str(cfg), "--set", f"gowalla_tz_offset_minutes={offset}"])
    assert rc == 2
    line = single_error_line(capsys.readouterr().err)
    assert line.startswith("nextloc-error: config-invalid: gowalla_tz_offset_minutes: must be within [-1440, 1440]")


def test_prepare_with_output_dir_below_a_file_fails_in_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path)
    (tmp_path / "plain").write_text("not a directory\n")
    rc = main(["prepare", "--config", str(cfg), "--set", f"output_dir={tmp_path / 'plain' / 'out'}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert single_error_line(err).startswith("nextloc-error: io:") and len(err.splitlines()) == 1


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
    for line in lines[2:]:
        assert all(math.isfinite(float(field)) for field in line.split(","))


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


def test_evaluate_with_a_directory_as_checkpoint_fails_in_one_line(trained, capsys):
    tmp_path, cfg = trained
    rc = main(["evaluate", "--config", str(cfg), "--checkpoint", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert single_error_line(err).startswith("nextloc-error: io:") and len(err.splitlines()) == 1


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


def test_evaluate_accepts_a_report_only_override(trained, capsys):
    # reference_counts is only reported, so the config hash leaves it out
    tmp_path, cfg = trained
    out = tmp_path / "out"
    ckpt = ["--checkpoint", str(out / "best.ckpt")]
    assert main(["evaluate", "--config", str(cfg), *ckpt]) == 0
    plain = (out / "metrics.json").read_bytes()
    assert main(["evaluate", "--config", str(cfg), *ckpt, "--set", "reference_counts=1,2,3"]) == 0
    assert (out / "metrics.json").read_bytes() == plain


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


def test_evaluate_in_a_copied_run_directory(trained, tmp_path, capsys):
    # the config hash leaves output_dir out, so a moved run keeps its checkpoint
    run, cfg = trained
    assert main(["evaluate", "--config", str(cfg), "--checkpoint", str(run / "out" / "best.ckpt")]) == 0
    shutil.copytree(run / "out", tmp_path / "copy")
    moved = ["--config", str(cfg), "--set", f"output_dir={tmp_path / 'copy'}"]
    assert main(["evaluate", *moved, "--checkpoint", str(tmp_path / "copy" / "best.ckpt")]) == 0
    assert (tmp_path / "copy" / "metrics.json").read_bytes() == (run / "out" / "metrics.json").read_bytes()


def train_then_resume(tmp_path, capsys, *overrides):
    """Train on the fixture, then resume from the run's best.ckpt; returns
    best.ckpt and epochs.csv before and after the resume, and its output."""
    cfg = write_config(tmp_path)
    sets = [a for kv in overrides for a in ("--set", kv)]
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg), *sets]) == 0
    before = [(out / name).read_bytes() for name in ("best.ckpt", "epochs.csv")]
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), *sets, "--resume", str(out / "best.ckpt")]) == 0
    after = [(out / name).read_bytes() for name in ("best.ckpt", "epochs.csv")]
    return before, after, capsys.readouterr().out


def test_resume_past_the_last_epoch_writes_nothing(tmp_path, capsys):
    before, after, printed = train_then_resume(tmp_path, capsys, "epochs=1")
    assert after == before
    assert printed.splitlines() == [f"nothing left to train: {tmp_path / 'out' / 'best.ckpt'} holds epoch 0 of 1"]


def test_resume_keeps_the_early_stopping_record(tmp_path, capsys):
    # at this learning rate all three epochs tie on recall@1, so epoch 0
    # stays the best and the resumed epochs 1-2 only rewrite the same rows
    before, after, printed = train_then_resume(tmp_path, capsys, "epochs=3", "learning_rate=0.0001")
    assert load_checkpoint(tmp_path / "out" / "best.ckpt", moments=False)[1]["epoch"] == 0
    assert [line.split(":")[0] for line in printed.splitlines()] == ["epoch 1", "epoch 2", "best epoch 0"]
    assert after == before


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


@pytest.mark.parametrize("grid,why", [
    ("lambda_s=1,5;lambda_s=2", "named twice"),
    ("lambda_s=1,1", "repeat a value"),
], ids=["weight-twice", "value-twice"])
def test_sweep_grid_naming_a_point_twice_rejected(tmp_path, capsys, grid, why):
    cfg = write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == 0
    capsys.readouterr()
    rc = main(["sweep", "--config", str(cfg), "--lambda-grid", grid])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert single_error_line(err).startswith("nextloc-error: bad-grid:") and why in err
    assert not (tmp_path / "out" / "sweep.csv").exists()


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


@pytest.mark.parametrize("field, value, why", [
    (5, "999", "category 999 is not -1 or in [0, "),
    (5, "-3", "category -3 is not -1 or in [0, "),
    (3, "nan", "lat nan is not finite"),
    (3, "91.5", "lat 91.5 outside [-90, 90]"),
    (4, "-inf", "lon -inf is not finite"),
    (4, "180.25", "lon 180.25 outside [-180, 180]"),
])
def test_train_rejects_vocab_location_out_of_range(tmp_path, capsys, field, value, why):
    cfg = write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == 0
    capsys.readouterr()
    vocab = tmp_path / "out" / "vocab.txt"
    lines = vocab.read_text().splitlines(keepends=True)
    first_loc = next(i for i, line in enumerate(lines) if line.startswith("LOC\t"))
    fields = lines[first_loc].rstrip("\n").split("\t")
    fields[field] = value
    lines[first_loc] = "\t".join(fields) + "\n"
    vocab.write_text("".join(lines))
    rc = main(["train", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 1 and len(err.splitlines()) == 1
    line = single_error_line(err)
    assert line.startswith("nextloc-error: pipeline:") and f"vocab.txt:{first_loc + 1}: LOC line {why}" in line


def test_train_rejects_split_point_outside_sessions(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == 0
    capsys.readouterr()
    processed = tmp_path / "out" / "processed.txt"
    lines = processed.read_text().splitlines(keepends=True)
    first_user = next(i for i, line in enumerate(lines) if line.startswith("U\t"))
    fields = lines[first_user].split("\t")
    lines[first_user] = "\t".join([fields[0], fields[1], "-1", fields[3]])
    processed.write_text("".join(lines))
    rc = main(["train", "--config", str(cfg)])
    assert rc == 1
    line = single_error_line(capsys.readouterr().err)
    assert line.startswith("nextloc-error: pipeline:") and "split point -1 outside" in line


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


@pytest.mark.parametrize("shape", [[-2, -3], [-1, 2], [0, -1]])
def test_evaluate_rejects_negative_checkpoint_dimensions(trained, capsys, shape):
    tmp_path, cfg = trained
    bad = tmp_path / "negative.ckpt"
    bad.write_bytes(checkpoint_with_shape(shape))
    rc = main(["evaluate", "--config", str(cfg), "--checkpoint", str(bad)])
    assert rc == 1
    line = single_error_line(capsys.readouterr().err)
    assert line.startswith("nextloc-error: pipeline:") and "negative dimensions" in line


def test_evaluate_rejects_checkpoint_listing_a_tensor_twice(trained, capsys):
    tmp_path, cfg = trained
    bad = tmp_path / "twice.ckpt"
    bad.write_bytes(checkpoint_listing_w_twice())
    rc = main(["evaluate", "--config", str(cfg), "--checkpoint", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert single_error_line(err).startswith("nextloc-error: pipeline:") and "listed twice" in err


@pytest.mark.parametrize("key,value", [
    ("epoch", "not-a-number"), ("epoch", math.inf), ("best_recall_at_1", "not-a-number"),
    ("best_recall_at_1", math.nan),
])
def test_resume_from_a_checkpoint_with_non_numeric_meta_fails_in_one_line(trained, capsys, key, value):
    tmp_path, cfg = trained
    store, meta = load_checkpoint(tmp_path / "out" / "best.ckpt")
    bad = tmp_path / "bad-meta.ckpt"
    save_checkpoint(bad, store, dict(meta, **{key: value}))
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg), "--resume", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert single_error_line(err).startswith("nextloc-error: pipeline:") and "must be finite numbers" in err


@pytest.mark.parametrize("command", ["evaluate", "analyze"])
def test_inference_refuses_a_checkpoint_with_a_nan_value(trained, capsys, command):
    tmp_path, cfg = trained
    store, meta = load_checkpoint(tmp_path / "out" / "best.ckpt")
    store["pred.loc.b"].value[:] = math.nan
    bad = tmp_path / "nan.ckpt"
    save_checkpoint(bad, store, meta)
    metrics = tmp_path / "out" / "metrics.json"
    before = metrics.read_bytes() if metrics.exists() else None
    capsys.readouterr()
    rc = main([command, "--config", str(cfg), "--checkpoint", str(bad)])
    assert rc == 1
    line = single_error_line(capsys.readouterr().err)
    assert line.startswith("nextloc-error: pipeline:") and "tensor pred.loc.b holds non-finite values" in line
    assert (metrics.read_bytes() if metrics.exists() else None) == before


def test_evaluate_rejects_checkpoint_declaring_huge_tensors(trained, capsys):
    tmp_path, cfg = trained
    bad = tmp_path / "huge.ckpt"
    bad.write_bytes(checkpoint_with_shape([10**12], n_bytes=64))
    rc = main(["evaluate", "--config", str(cfg), "--checkpoint", str(bad)])
    assert rc == 1
    line = single_error_line(capsys.readouterr().err)
    assert line.startswith("nextloc-error: pipeline:") and "truncated tensor w" in line


@pytest.mark.parametrize("seeds", ["1,x", "", "1,-1", "1,1"])
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
