"""The rerun invariant as a test: output bytes change only with the version.

`tests/golden_digests.json` records `__version__`, the SHA-256 of the CSV
body each command in `scripts/golden_digests.py` writes (gas trajectories
and tree leaves) and the SHA-256 of each tree command's whole summary, bytes
that do not depend on numpy's CPU dispatch.  Each command reruns in process
here.  A change that alters any of these bytes bumps `__version__` and
regenerates the file with `scripts/golden_digests.py --write`.

The same gas commands also check that `spectrum` refits a run's spectrum CSV
to the very numbers its summary reports.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import arnoldgas

ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "golden_digests", ROOT / "scripts" / "golden_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT = _load_script()
GOLDEN = json.loads(SCRIPT.GOLDEN.read_text())
GAS_WITH_MODES = [command for command in SCRIPT.COMMANDS
                  if command.startswith("gas") and "--modes 0" not in command]
FIT_FIELDS = ("m1", "m2", "slope", "intercept", "r2", "fit_error")


def test_recorded_version_and_commands_are_current():
    assert GOLDEN["__version__"] == arnoldgas.__version__
    assert list(GOLDEN["commands"]) == SCRIPT.COMMANDS
    assert list(GOLDEN["summaries"]) == SCRIPT.SUMMARY_COMMANDS


def test_write_refuses_a_changed_digest_under_the_recorded_version():
    recorded = {"__version__": "1.0", "commands": {"a": "1", "b": "2"},
                "summaries": {"b": "3"}}
    same = {"__version__": "1.0", "commands": {"a": "1", "b": "2", "new": "4"},
            "summaries": {"b": "3", "new": "5"}}
    assert SCRIPT.changed_commands(recorded, same) == []  # new commands are allowed
    changed = {**same, "commands": {"a": "9", "b": "2"}, "summaries": {"b": "8"}}
    assert SCRIPT.changed_commands(recorded, changed) == ["a", "b"]
    assert SCRIPT.changed_commands(recorded, {**changed, "__version__": "1.1"}) == []


@pytest.mark.parametrize("command", list(GOLDEN["commands"]))
def test_body_digest_matches_the_golden_one(command):
    assert SCRIPT.output_digests(command)["body"] == GOLDEN["commands"][command]


@pytest.mark.parametrize("command", list(GOLDEN["summaries"]))
def test_summary_digest_matches_the_golden_one(command):
    assert SCRIPT.output_digests(command)["summary"] == GOLDEN["summaries"][command]


@pytest.mark.parametrize("command", GAS_WITH_MODES)
def test_spectrum_refit_matches_the_gas_summary(tmp_path, command):
    """`spectrum` without --window fits the summary's window to the CSV's
    magnitudes, so every fit field equals the summary's bit for bit."""
    out = tmp_path / "g.csv"
    SCRIPT.run(command, out)
    use = "twin" if "--twin on" in command else "linear"
    SCRIPT.run(f"spectrum --in {out.with_suffix('.spectrum.csv')} --use {use}",
               tmp_path / "refit.json")
    summary = json.loads(out.with_suffix(".summary.json").read_text())["summary"]
    refit = json.loads((tmp_path / "refit.json").read_text())
    assert refit["fit_window"] == summary["fit_window"]

    def fits(reports):
        return {(r["m1"], r["m2"]): {k: r[k] for k in FIT_FIELDS if k in r}
                for r in reports}
    assert fits(refit["modes"]) == fits(summary["modes"])
