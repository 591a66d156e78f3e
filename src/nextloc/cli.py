"""Command-line entry point.

Subcommands (all driven by one config file; see config.py for the schema):

* ``prepare --config F``                 parse + preprocess; writes canonical.txt,
  processed.txt, vocab.txt, stats.txt into output_dir
* ``train --config F [--seed N] [--resume CKPT]``   writes best.ckpt (the
  best epoch's parameters) and epochs.csv; ``--resume`` continues a run from
  its best.ckpt, which stays the best until an epoch beats its recall@1
* ``evaluate --config F --checkpoint C`` writes metrics.json
* ``analyze --config F --checkpoint C``  writes joint_matrix.csv,
  distance_hist.csv, displacement.csv, attractiveness.csv
* ``sweep --config F --lambda-grid SPEC [--seeds LIST]``  writes sweep.csv

``--set key=value`` (repeatable, once per key; ``--seed`` counts as ``seed``)
overrides config file values. Every artifact
carries a ``config_hash=... seed=...`` header; evaluate, analyze and
``train --resume`` refuse checkpoints whose hash does not match the active
config or whose tensor names and shapes do not fit the prepared data. Grid
SPEC example: ``lambda_s=0,1,5,10;lambda_t=1,10`` (cross product). Exit status is 0 on
success; failures print one machine-readable ``nextloc-error: <kind>: <msg>``
line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import evaluate as ev
from . import ingest, preprocess
from .atomic import atomic_write
from .config import ConfigFileError, RunConfig, config_hash, parse_config
from .model import ConfigError, ModelConfig, param_shapes
from .objective import LossWeights
from .params import CheckpointError, load_checkpoint, save_checkpoint
from .trainer import TrainHyper, TrainingDiverged, fit, make_instances


class CliError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _out(cfg: RunConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _header(cfg: RunConfig) -> str:
    return f"config_hash={config_hash(cfg)} seed={cfg.seed}"


def _model_config(cfg: RunConfig, vocab: preprocess.Vocab) -> ModelConfig:
    return ModelConfig(
        n_users=vocab.n_users,
        n_locs=vocab.n_locs,
        n_cats=max(vocab.n_cats, 1),
        variant=cfg.variant,
        d_loc=cfg.d_loc,
        d_cat=cfg.d_cat,
        d_hour=cfg.d_hour,
        d_day=cfg.d_day,
        d_user=cfg.d_user,
        hidden=cfg.hidden,
        has_categories=vocab.n_cats > 0,
    )


def _load_dataset(cfg: RunConfig):
    out = _out(cfg)
    vocab_path, processed_path = out / "vocab.txt", out / "processed.txt"
    for p in (vocab_path, processed_path):
        if not p.exists():
            raise CliError("missing-artifact", f"{p} not found; run prepare first")
    vocab = preprocess.load_vocab(vocab_path)
    users = preprocess.load_processed(processed_path, vocab)
    return vocab, users


def _load_matching_checkpoint(cfg: RunConfig, path, mc: ModelConfig, moments: bool):
    """Load a checkpoint made with the run config (same hash) whose tensors
    are the ones the model needs on the prepared data (same names and
    shapes; the hash does not cover the data). Without `moments` only the
    parameter values are read, which is all inference needs."""
    if not Path(path).exists():
        raise CliError("missing-artifact", f"checkpoint {path} not found")
    store, meta = load_checkpoint(path, moments=moments)
    want = config_hash(cfg)
    got = meta.get("config_hash")
    if got != want:
        raise CliError("config-mismatch", f"checkpoint {path} has config_hash={got}, run config has {want}")
    have = {name: store[name].value.shape for name in store.names()}
    need = dict(param_shapes(mc))
    for name in sorted(need.keys() | have.keys()):
        if have.get(name) != need.get(name):
            raise CliError(
                "config-mismatch",
                f"checkpoint {path} does not fit the prepared data: tensor {name} has shape "
                f"{have.get(name)}, the model needs {need.get(name)}",
            )
    return store, meta


def cmd_prepare(cfg: RunConfig) -> None:
    src = Path(cfg.dataset_path)
    if not cfg.dataset_path or not src.exists():
        raise CliError("missing-input", f"dataset_path {cfg.dataset_path!r} not found")
    if cfg.dataset_format == "foursquare":
        rs = ingest.parse_foursquare(src)
    else:
        rs = ingest.parse_gowalla(src, tz_offset_minutes=cfg.gowalla_tz_offset_minutes)
    result = preprocess.run_pipeline(
        rs,
        min_count=cfg.min_count,
        min_session_records=cfg.min_session_records,
        min_sessions=cfg.min_sessions,
        train_ratio=cfg.train_ratio,
    )
    out = _out(cfg)
    header = _header(cfg)
    ingest.write_canonical(rs, out / "canonical.txt", header_lines=[header])
    preprocess.save_processed(out / "processed.txt", result.vocab, result.users, header_lines=[header])
    preprocess.save_vocab(out / "vocab.txt", result.vocab, header_lines=[header])
    report = f"#{header}\n" + preprocess.stats_report(result, cfg.reference_triple())
    with atomic_write(out / "stats.txt") as fh:
        fh.write(report)
    sys.stdout.write(report)


EPOCH_COLUMNS = ["epoch", "L_l", "L_t", "L_c", "L_s", "recall_at_1", "recall_at_5", "recall_at_10"]


def _logged_epochs(path: Path, header: str, last_epoch: int) -> list[list[str]]:
    """The rows of an earlier epochs.csv of this run (same header line) for
    epochs up to `last_epoch`, as written; none for another run's file."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return []
    if lines[:2] != [f"#{header}", ",".join(EPOCH_COLUMNS)]:
        return []
    rows = [line.split(",") for line in lines[2:]]
    return [r for r in rows if r[0].isdigit() and int(r[0]) <= last_epoch]


def cmd_train(cfg: RunConfig, resume: str | None) -> None:
    vocab, users = _load_dataset(cfg)
    mc = _model_config(cfg, vocab)
    weights = LossWeights(cfg.lambda_t, cfg.lambda_c, cfg.lambda_s)
    hyper = TrainHyper(cfg.learning_rate, cfg.batch_size, cfg.epochs, cfg.patience, cfg.clip_norm)
    out = _out(cfg)
    initial, start_epoch, best_recall, logged = None, 0, -1.0, []
    if resume:
        initial, meta = _load_matching_checkpoint(cfg, resume, mc, moments=True)
        try:
            start_epoch = int(meta.get("epoch", -1)) + 1
            best_recall = float(meta.get("best_recall_at_1", -1.0))
            if not math.isfinite(best_recall):  # no recall would beat a NaN best
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise CheckpointError(f"{resume}: meta epoch {meta.get('epoch')!r} and best_recall_at_1 "
                                  f"{meta.get('best_recall_at_1')!r} must be finite numbers") from None
        if start_epoch >= cfg.epochs:
            print(f"nothing left to train: {resume} holds epoch {start_epoch - 1} of {cfg.epochs}")
            return
        logged = _logged_epochs(out / "epochs.csv", _header(cfg), start_epoch - 1)

    def log(row):
        r = row.recall
        print(
            f"epoch {row.epoch}: L_l={row.losses.loc:.4f} L_t={row.losses.time:.4f} "
            f"L_c={row.losses.cat:.4f} L_s={row.losses.spatial:.4f} "
            f"recall@1={r[1]:.4f} @5={r[5]:.4f} @10={r[10]:.4f}"
        )

    result = fit(users, vocab, mc, weights, hyper, cfg.seed, initial=initial, start_epoch=start_epoch,
                 best_recall=best_recall, log=log)
    meta = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "variant": cfg.variant,
        "epoch": result.best_epoch,
        "best_recall_at_1": result.best_recall,
    }
    save_checkpoint(out / "best.ckpt", result.store, meta)
    _write_csv(
        out / "epochs.csv", _header(cfg), EPOCH_COLUMNS,
        logged + [
            (row.epoch, row.losses.loc, row.losses.time, row.losses.cat, row.losses.spatial,
             row.recall[1], row.recall[5], row.recall[10])
            for row in result.history
        ],
    )
    print(f"best epoch {result.best_epoch}: location recall@1 = {result.best_recall:.4f}")


def cmd_evaluate(cfg: RunConfig, checkpoint: str) -> None:
    vocab, users = _load_dataset(cfg)
    mc = _model_config(cfg, vocab)
    store, _meta = _load_matching_checkpoint(cfg, checkpoint, mc, moments=False)
    instances = make_instances(users, "test")
    report = ev.build_report(store, mc, users, instances, vocab=vocab)
    payload = {"config_hash": config_hash(cfg), "seed": cfg.seed, **report.to_json_dict()}
    out = _out(cfg) / "metrics.json"
    with atomic_write(out) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    print(json.dumps({k: payload[k] for k in ("recall_loc", "recall_cat")}, sort_keys=True))
    print(f"wrote {out}")


def _write_csv(path, header: str, columns: list[str], rows) -> None:
    with atomic_write(path) as fh:
        fh.write(f"#{header}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")


def cmd_analyze(cfg: RunConfig, checkpoint: str) -> None:
    vocab, users = _load_dataset(cfg)
    mc = _model_config(cfg, vocab)
    store, _meta = _load_matching_checkpoint(cfg, checkpoint, mc, moments=False)
    instances = make_instances(users, "test")
    preds = ev.predict(store, mc, instances, vocab=vocab)
    out = _out(cfg)
    header = _header(cfg)

    if preds.cat_ranked is not None:
        joint = ev.joint_causal_analysis(preds)
        _write_csv(out / "joint_matrix.csv", header, ["outcome", "fraction"], sorted(joint.items()))

    hist = ev.pred_target_distance_hist(preds, vocab, ev.displacement_edges())
    _write_csv(
        out / "distance_hist.csv", header, ["lo_km", "hi_km", "count"],
        [(float(hist.edges[i]), float(hist.edges[i + 1]), int(hist.counts[i])) for i in range(len(hist.counts))],
    )

    hp, ht = ev.displacement_comparison(preds, vocab)
    _write_csv(
        out / "displacement.csv", header, ["lo_km", "hi_km", "p_predicted", "p_actual"],
        [
            (float(hp.edges[i]), float(hp.edges[i + 1]), float(hp.counts[i]), float(ht.counts[i]))
            for i in range(len(hp.counts))
        ],
    )

    cells = ev.attractiveness_error(preds, vocab, ev.dataset_grid(vocab))
    _write_csv(
        out / "attractiveness.csv", header, ["row", "col", "predicted", "actual", "abs_error"],
        [(c.row, c.col, c.predicted, c.actual, c.abs_error) for c in cells],
    )
    print(f"wrote analysis CSVs to {out}")


def _parse_grid(spec: str) -> list[dict[str, float]]:
    axes: list[tuple[str, list[float]]] = []
    for part in spec.split(";"):
        if not part.strip():
            continue
        name, _, values = part.partition("=")
        name = name.strip()
        if name not in ("lambda_t", "lambda_c", "lambda_s"):
            raise CliError("bad-grid", f"unknown sweep weight {name!r}")
        if name in (n for n, _ in axes):
            raise CliError("bad-grid", f"sweep weight {name!r} is named twice")
        try:
            axes.append((name, [float(v) for v in values.split(",")]))
        except ValueError:
            raise CliError("bad-grid", f"cannot parse values for {name!r}") from None
        if not all(0 <= v < math.inf for v in axes[-1][1]):
            raise CliError("bad-grid", f"values for {name!r} must be finite and >= 0")
        if len(set(axes[-1][1])) < len(axes[-1][1]):
            raise CliError("bad-grid", f"values for {name!r} repeat a value")
    if not axes:
        raise CliError("bad-grid", "empty lambda grid")
    points = [{}]
    for name, values in axes:
        points = [dict(p, **{name: v}) for p in points for v in values]
    return points


def _parse_seeds(spec: str) -> list[int]:
    try:
        seeds = [int(s) for s in spec.split(",")]
    except ValueError:
        raise CliError("bad-seeds", f"cannot parse seed list {spec!r}; expected comma-separated integers") from None
    if any(s < 0 for s in seeds):
        raise CliError("bad-seeds", f"seeds must be >= 0, got {spec!r}")
    if len(set(seeds)) < len(seeds):
        raise CliError("bad-seeds", f"seed list {spec!r} repeats a seed")
    return seeds


def cmd_sweep(cfg: RunConfig, grid_spec: str, seeds: list[int]) -> None:
    vocab, users = _load_dataset(cfg)
    mc = _model_config(cfg, vocab)
    base = LossWeights(cfg.lambda_t, cfg.lambda_c, cfg.lambda_s)
    hyper = TrainHyper(cfg.learning_rate, cfg.batch_size, cfg.epochs, cfg.patience, cfg.clip_norm)
    points = _parse_grid(grid_spec)

    def log(point, seed, value):
        print(f"{point} seed={seed}: recall@1={value:.4f}")

    rows = ev.sensitivity_sweep(users, vocab, mc, base, hyper, points, seeds, log=log)
    out = _out(cfg) / "sweep.csv"
    names = sorted({k for row in rows for k in row.point})
    _write_csv(
        out,
        _header(cfg),
        names + ["mean_recall_at_1", "sd", "n_seeds"],
        [
            tuple(row.point.get(n, "") for n in names) + (row.mean, row.sd, len(row.seeds))
            for row in rows
        ],
    )
    print(f"wrote {out}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="nextloc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="key=value configuration file")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config value (repeatable)")
    sub.add_parser("prepare", parents=[common])
    p_train = sub.add_parser("train", parents=[common])
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--resume", default=None, help="checkpoint to continue from")
    for name in ("evaluate", "analyze"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--checkpoint", required=True)
    p_sweep = sub.add_parser("sweep", parents=[common])
    p_sweep.add_argument("--lambda-grid", required=True, help='e.g. "lambda_s=0,1,5,10"')
    p_sweep.add_argument("--seeds", default="1", help="comma-separated seed list")
    args = parser.parse_args(argv)

    try:
        overrides = []  # in flag order: parse_config refuses a key given twice
        for item in args.set:
            key, _, value = item.partition("=")
            overrides.append((key.strip(), value.strip()))
        if getattr(args, "seed", None) is not None:
            overrides.append(("seed", str(args.seed)))
        cfg = parse_config(args.config, overrides)
        if args.command == "prepare":
            cmd_prepare(cfg)
        elif args.command == "train":
            cmd_train(cfg, args.resume)
        elif args.command == "evaluate":
            cmd_evaluate(cfg, args.checkpoint)
        elif args.command == "analyze":
            cmd_analyze(cfg, args.checkpoint)
        elif args.command == "sweep":
            cmd_sweep(cfg, args.lambda_grid, _parse_seeds(args.seeds))
    except ConfigFileError as e:
        return _fail("config-invalid", "; ".join(str(e).splitlines()), status=2)
    except CliError as e:
        return _fail(e.kind, e)
    except ConfigError as e:
        return _fail("config-invalid", e)
    except TrainingDiverged as e:
        return _fail("diverged", e)
    except (ingest.IngestError, preprocess.PreprocessError, CheckpointError) as e:
        return _fail("pipeline", e)
    except OSError as e:
        return _fail("io", e)
    return 0


def _fail(kind: str, message, status: int = 1) -> int:
    print(f"nextloc-error: {kind}: {message}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
