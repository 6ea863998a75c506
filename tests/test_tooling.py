"""The benchmark's output checks, the experiment scripts, the package
metadata and the pytest configuration, run in Tier-1.

Each workload in `perfbench/workloads.py` runs at its tiny size through
`cli.main`, and its own check must find no problem with the outputs.  The
module is read from `perfbench/`; nothing there is changed.  Each script in
`scripts/` runs at a tiny size, so a library name it imports cannot be
deleted unnoticed.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arnoldgas import cli

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_tiny_run_passes_its_check(name, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    argv = workload.argv(workload.tiny, 0, min(2, os.cpu_count() or 1))
    assert cli.main(argv) == 0
    assert workload.check(tmp_path, workload.tiny) == []


@pytest.mark.parametrize("script,args,header", [
    ("dilation_table.py", ["--max-stages", "4"],
     "  n     geo_mean   arith_mean   gas_dilation  bound 2^(n/2)    rel_gap"),
    ("fluctuation_ensemble.py", ["--particles", "256", "--seeds", "2", "--steps", "8"],
     "mode (1, 0)  N=256  pairing=tree  seeds=2  window=(2, 8)"),
], ids=["dilation_table", "fluctuation_ensemble"])
def test_experiment_script_runs(script, args, header):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == header


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_fluctuation_ensemble_refuses_no_seeds(seeds):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "fluctuation_ensemble.py"),
                             "--particles", "256", "--seeds", seeds],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 2
    assert "--seeds must be at least 1" in result.stderr
    assert result.stdout == ""


def test_pyproject_version_matches_package():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with (ROOT / "pyproject.toml").open("rb") as fh:
        pyproject = tomllib.load(fh)
    # setuptools reads the version from the package, so it is written once
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "arnoldgas.__version__"}


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    """Under the project's warning filters, a failing @given test prints its
    falsifying example and the session runs on, with no INTERNALERROR."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 10\n\n\n"
        "def test_later():\n"
        "    pass\n")
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                             "test_fails.py"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in result.stdout
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in result.stdout
