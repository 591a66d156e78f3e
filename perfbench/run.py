#!/usr/bin/env python3
"""nextloc benchmark.

    python3 perfbench/run.py --workload synth-h64 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Run from the repository root. With --trace 0 the last stdout line is a JSON
object with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced replay, and the spans go to perfbench/out/. Every line
before it is a human-readable report: the environment, each metric with its
unit, and the operation counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _environment(seed: int) -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import spec

    if args.write_spec:
        print(f"wrote {spec.write_benchmark_json(ROOT)}")
        return 0
    if args.workload not in spec.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(spec.WORKLOADS)}")
    for need in (ROOT / "src" / "nextloc" / "__init__.py", ROOT / "scripts" / "make_fixture.py"):
        if not need.is_file():
            print(f"perfbench: {need.relative_to(ROOT)} not found; run from a nextloc checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    import bench

    wl = spec.WORKLOADS[args.workload]
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    work = HERE / ".work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = bench.Run(wl, args.seed, seconds, work)
        run.setup()
        run.run_loop()
        if args.trace:
            metrics, tracer = run.traced()
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"trace-{wl.name}-seed{args.seed}.jsonl", {"workload": wl.name, **_environment(args.seed)})
        else:
            metrics = run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = [m[0] for m in (spec.PER_LAYER if args.trace else spec.END_TO_END + spec.REPORT_ONLY)]
    if sorted(metrics) != sorted(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match the declared {sorted(declared)}")

    print(f"workload {wl.name}: seed={args.seed} seconds={seconds} trace={args.trace}")
    print("env " + json.dumps(_environment(args.seed), sort_keys=True))
    for line in run.report_lines():
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {spec.UNITS[name]}")
    for name, _unit in spec.REPORT_ONLY:
        metrics.pop(name, None)
    attempted, failed = sum(run.attempted.values()), sum(run.failed.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": spec.UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
