"""The test suite's own configuration, and the files generated from the
repository's sources."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    """hypothesis's failure reporter imports libcst, which warns that
    mypy_extensions.TypedDict is deprecated; under the suite's
    DeprecationWarning-as-error filter that must not hide the failure."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out


def test_benchmark_json_matches_its_source():
    """BENCHMARK.json is what `perfbench/run.py --write-spec` writes from
    perfbench/spec.py."""
    spec = runpy.run_path(str(ROOT / "perfbench" / "spec.py"))
    want = json.dumps(spec["benchmark_json"](), indent=2) + "\n"
    assert (ROOT / "BENCHMARK.json").read_text(encoding="utf-8") == want


def test_fixture_regenerates_byte_for_byte(tmp_path):
    """tests/data/checkins_foursquare.txt is what scripts/make_fixture.py
    writes."""
    out = tmp_path / "checkins.txt"
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "make_fixture.py"), str(out)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == (ROOT / "tests" / "data" / "checkins_foursquare.txt").read_bytes()


def test_synthetic_demo_runs_end_to_end():
    """scripts/run_synthetic.py trains and reports both of its variants on
    a small corpus."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_synthetic.py"), "--users", "6", "--weeks", "6",
                           "--hidden", "8", "--epochs", "1"], capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for variant in ("cslsl", "lsl"):
        assert sum(line.startswith(f"{variant}: best recall@1=") for line in lines) == 1, done.stdout
