"""Run configuration: one key=value file drives every command.

File syntax: ``key = value`` per line, ``#`` comments, blank lines ignored.
Unknown keys, and a key given twice in one file, are rejected. Command-line
``--set key=value`` flags override file values; a key given twice among the
flags is rejected too (``train --seed N`` counts as ``--set seed=N``). All
keys and defaults:

dataset_path          (no default; path to the raw check-in file)
dataset_format        foursquare | gowalla
gowalla_tz_offset_minutes  0      (fixed local-time offset for gowalla input,
                                   within +-1440)
reference_counts      ""          (optional "users,locs,records" expected after
                                   filtering+merging; reported, never asserted)
min_count             10          (per-user and per-location record minimum)
min_session_records   2
min_sessions          5
train_ratio           0.8
variant               cslsl       (lsl|sblsl|slsl|hlsl|clsl|clsl_ctl|cslsl|cslsl_t|cslsl_c)
d_loc, d_cat, d_hour, d_day, d_user   200, 100, 10, 20, 20
hidden                600
lambda_t, lambda_c, lambda_s          10, 10, 10
learning_rate         0.0001
batch_size            32
epochs                50
patience              10
clip_norm             5.0
seed                  1
output_dir            (no default; artifact directory)

The config hash identifies a run's configuration in artifact headers; it
covers every key except ``seed``, ``output_dir`` and ``reference_counts``,
so reruns with another seed still pair with their artifacts, a run
directory moved elsewhere keeps its checkpoints, and a report-only
reference triple does not refuse the run's own checkpoint. The hashed keys
are ``dataset_path``, ``dataset_format``, ``gowalla_tz_offset_minutes``,
``min_count``, ``min_session_records``, ``min_sessions``, ``train_ratio``,
``variant``, the five ``d_*`` sizes, ``hidden``, the three ``lambda_*``
weights, ``learning_rate``, ``batch_size``, ``epochs``, ``patience`` and
``clip_norm``. ``dataset_path`` stays in: the hash does not cover the data
itself.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .ingest import MAX_TZ_OFFSET_MINUTES
from .model import VARIANTS


class ConfigFileError(Exception):
    """Raised with every violated key listed, one per line."""


@dataclass
class RunConfig:
    dataset_path: str = ""
    dataset_format: str = "foursquare"
    gowalla_tz_offset_minutes: int = 0
    reference_counts: str = ""
    min_count: int = 10
    min_session_records: int = 2
    min_sessions: int = 5
    train_ratio: float = 0.8
    variant: str = "cslsl"
    d_loc: int = 200
    d_cat: int = 100
    d_hour: int = 10
    d_day: int = 20
    d_user: int = 20
    hidden: int = 600
    lambda_t: float = 10.0
    lambda_c: float = 10.0
    lambda_s: float = 10.0
    learning_rate: float = 1e-4
    batch_size: int = 32
    epochs: int = 50
    patience: int = 10
    clip_norm: float = 5.0
    seed: int = 1
    output_dir: str = ""

    def reference_triple(self) -> tuple[int, int, int] | None:
        if not self.reference_counts:
            return None
        parts = self.reference_counts.split(",")
        return int(parts[0]), int(parts[1]), int(parts[2])


_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELDS[key]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def parse_config(path, overrides: dict[str, str] | list[tuple[str, str]] | None = None) -> RunConfig:
    """The run configuration of the file at `path`, with `overrides`, the
    command line's (key, value) pairs, over its values. Every problem found
    is raised at once, one per line of a `ConfigFileError`."""
    problems: list[str] = []
    values: dict[str, object] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as e:
        raise ConfigFileError(f"config: cannot read {path}: {e}") from e
    pairs: list[tuple[str, str]] = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected key = value")
            continue
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in first_line:
            problems.append(f"{key}: given twice (lines {first_line[key]} and {lineno})")
        first_line.setdefault(key, lineno)
        pairs.append((key, raw))
    flags = list(overrides.items()) if isinstance(overrides, dict) else list(overrides or ())
    flag_keys = [key for key, _ in flags]
    problems += [f"{key}: given twice on the command line"
                 for key in sorted(set(flag_keys)) if flag_keys.count(key) > 1]
    for key, raw in pairs + sorted(dict(flags).items()):
        if key not in _FIELDS:
            problems.append(f"{key}: unknown key")
            continue
        try:
            values[key] = _coerce(key, raw)
        except ValueError:
            problems.append(f"{key}: cannot parse {raw!r} as {_FIELDS[key]}")
    cfg = RunConfig(**values)
    problems += validation_problems(cfg)
    if problems:
        raise ConfigFileError("\n".join(problems))
    return cfg


def validation_problems(cfg: RunConfig) -> list[str]:
    problems = []
    if cfg.dataset_format not in ("foursquare", "gowalla"):
        problems.append("dataset_format: must be foursquare or gowalla")
    if cfg.variant not in VARIANTS:
        problems.append(f"variant: must be one of {', '.join(VARIANTS)}")
    for name in ("min_count", "min_session_records", "min_sessions", "batch_size", "epochs", "hidden",
                 "d_loc", "d_cat", "d_hour", "d_day", "d_user"):
        if getattr(cfg, name) < 1:
            problems.append(f"{name}: must be >= 1")
    if not (0.0 < cfg.train_ratio <= 1.0):
        problems.append("train_ratio: must be in (0, 1]")
    for name in ("lambda_t", "lambda_c", "lambda_s"):
        if not (0 <= getattr(cfg, name) < math.inf):
            problems.append(f"{name}: must be finite and >= 0")
    for name in ("learning_rate", "clip_norm"):
        if not (0 < getattr(cfg, name) < math.inf):
            problems.append(f"{name}: must be finite and > 0")
    if cfg.patience < 0:
        problems.append("patience: must be >= 0")
    if cfg.seed < 0:
        problems.append("seed: must be >= 0")
    if not -MAX_TZ_OFFSET_MINUTES <= cfg.gowalla_tz_offset_minutes <= MAX_TZ_OFFSET_MINUTES:
        problems.append(
            f"gowalla_tz_offset_minutes: must be within [-{MAX_TZ_OFFSET_MINUTES}, {MAX_TZ_OFFSET_MINUTES}]"
        )
    if cfg.reference_counts:
        try:
            triple = cfg.reference_counts.split(",")
            if len(triple) != 3:
                raise ValueError
            [int(x) for x in triple]
        except ValueError:
            problems.append('reference_counts: expected "users,locs,records"')
    if not cfg.output_dir:
        problems.append("output_dir: required")
    return problems


# keys that change no number a run computes or compares against: the seed
# is in every header beside the hash, and reference_counts is only reported
UNHASHED_KEYS = ("seed", "output_dir", "reference_counts")


def config_hash(cfg: RunConfig) -> str:
    """12-hex digest over all keys except `UNHASHED_KEYS`, in sorted key
    order."""
    text = "\n".join(
        f"{f.name}={getattr(cfg, f.name)}" for f in sorted(fields(RunConfig), key=lambda f: f.name)
        if f.name not in UNHASHED_KEYS
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
