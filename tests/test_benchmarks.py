"""The benchmark scripts still import: each one's --help runs and exits 0.
The ingest and kernel benchmarks also run end to end on small inputs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "benchmarks").glob("*.py"))


def test_there_are_benchmark_scripts():
    assert SCRIPTS


def run_script(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(script), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_benchmark_script_help_runs(script):
    out = run_script(script, "--help")
    assert out.startswith("usage:"), out


def test_ingest_benchmark_agrees_with_the_oracles_on_a_small_day():
    result = json.loads(run_script(ROOT / "benchmarks" / "bench_ingest.py",
                                   "--posts", "800", "--repeat", "1"))
    assert result["posts"] == 800 and result["hashtags"] > 0
    flags = {k: v for k, v in result.items() if k.endswith("_agree")}
    for section in ("knn", "triplets"):
        flags |= {f"{section}.{view}.agree": layer["agree"]
                  for view, layer in result[section].items()}
    assert len(flags) == 12 and all(flags.values()), flags
    assert flags["records_agree"]


def test_kernel_benchmark_agrees_with_the_references_on_a_small_graph():
    result = json.loads(run_script(ROOT / "benchmarks" / "bench_kernels.py",
                                   "--n", "120", "--repeat", "1"))
    assert result["n"] == 120 and result["edges"] > 0
    flags = {k: v for k, v in result.items() if k.endswith(("_agree", "_agrees"))}
    expected = 6 if result["backend"] == "c" else 5  # no restart timing without C
    assert len(flags) == expected and all(flags.values()), flags
