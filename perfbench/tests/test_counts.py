"""The traced run's exact counts repeat for a fixed seed.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src"), str(BENCH_DIR.parent / "scripts")]

import bench  # noqa: E402
import spec  # noqa: E402

EXACT = (
    "autodiff.tape_nodes",
    "autodiff.tape_mb",
    "model.gru_gflop_padded",
    "model.gru_gflop_useful",
    "trainer.step_fill",
    "trainer.history_steps",
    "trainer.history_unique_share",
    "ingest.lines",
    "ingest.rejects",
)

# nyc-h256 shrunk to 60 users, hidden 16 and two steps
SMALL = dataclasses.replace(
    spec.WORKLOADS["nyc-h256"],
    hidden=16, dims=spec.SMALL_DIMS, round_steps=2, eval_size=4, corpus_users=60,
)


def traced_run(work: Path, seed: int):
    work.mkdir()
    run = bench.Run(SMALL, seed, 0.0, work)
    run.setup()
    run.run_loop()
    metrics, _tracer = run.traced()
    return run, metrics


def test_exact_counts_repeat_for_a_fixed_seed(tmp_path):
    run_a, a = traced_run(tmp_path / "a", 3)
    run_b, b = traced_run(tmp_path / "b", 3)
    assert sum(run_a.failed.values()) == 0 and sum(run_b.failed.values()) == 0, run_a.problems + run_b.problems
    for name in EXACT:
        assert a[name] == b[name], name
        assert a[name] > 0 or name == "ingest.rejects", name
    assert a["ingest.lines"] == run_a.n_lines
    assert 0.0 < a["trainer.step_fill"] <= 1.0
    assert a["model.gru_gflop_useful"] <= a["model.gru_gflop_padded"]


def test_another_seed_gives_other_inputs(tmp_path):
    run_a, _ = traced_run(tmp_path / "a", 3)
    run_b, _ = traced_run(tmp_path / "b", 4)
    assert run_a.raw.read_bytes() != run_b.raw.read_bytes()
    assert run_a.step_losses != run_b.step_losses
