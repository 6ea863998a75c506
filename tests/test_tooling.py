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

from arnoldgas import cli, spectral, tree

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


@pytest.mark.parametrize("steps", ["0", "3", "4"])
def test_fluctuation_ensemble_refuses_too_few_steps(steps):
    # fewer than 5 steps leave a fit window shorter than 3 steps
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "fluctuation_ensemble.py"),
                             "--particles", "256", "--seeds", "2", "--steps", steps],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 2
    assert result.stderr.splitlines()[-1].endswith(f"error: --steps must be at least 5, "
                                                   f"got {steps}")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("stages,message", [
    ("25", f"error: --max-stages must be in 0..{tree.DEFAULT_MAX_STAGES}, got 25"),
    ("-1", f"error: --max-stages must be in 0..{tree.DEFAULT_MAX_STAGES}, got -1"),
    ("1_0", "argument --max-stages: invalid integer value: '1_0'"),  # not 10 stages
], ids=["25", "-1", "1_0"])
def test_dilation_table_refuses_stages_out_of_range(stages, message):
    # refused before any row, so 25 stages never build the 2^24-leaf tree
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "dilation_table.py"),
                             "--max-stages", stages],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 2
    assert result.stderr.splitlines()[-1].endswith(message)
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("args,message", [
    (["--particles", "1"], "need at least 2 particles"),
    (["--mode", "0", "0"], "--mode 0 0 is the conserved normalization"),
    (["--particles", "1_024"], "invalid integer value: '1_024'"),
    (["--mode", "1", " 0"], "invalid integer value: ' 0'"),
], ids=["one-particle", "zero-mode", "underscored-particles", "spaced-mode"])
def test_fluctuation_ensemble_refuses_bad_run(args, message):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "fluctuation_ensemble.py"),
                             "--seeds", "2", "--steps", "8", *args],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 2
    assert message in result.stderr.splitlines()[-1]
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("failing_seeds", [{0}, {0, 1}], ids=["one", "all"])
def test_fluctuation_ensemble_counts_failed_fits(failing_seeds, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "fluctuation_ensemble", ROOT / "scripts" / "fluctuation_ensemble.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    fits = iter(range(2))  # one fit per seed, in seed order
    fit_growth = spectral.fit_growth

    def failing_fit(deltas, window):
        if next(fits) in failing_seeds:
            raise ValueError("fit window contains zeros of |delta|; shrink the window")
        return fit_growth(deltas, window)

    monkeypatch.setattr(spectral, "fit_growth", failing_fit)
    monkeypatch.setattr(sys, "argv", ["fluctuation_ensemble.py", "--particles", "256",
                                      "--seeds", "2", "--steps", "8"])
    if failing_seeds == {0, 1}:
        with pytest.raises(SystemExit, match="no seed's fit succeeded"):
            script.main()
    else:
        script.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == (f"fit failed: {len(failing_seeds)} of 2 seeds (seed 0: fit window "
                        f"contains zeros of |delta|; shrink the window)")
    assert any(line.startswith("slope: ") for line in lines) == (failing_seeds == {0})
    assert lines[-1].startswith("two-term exponent at t=8: median ")


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
