"""The rerun invariant as a test: output bytes change only with the version.

`tests/golden_digests.json` records `__version__` and the SHA-256 of the CSV
body each command in `scripts/golden_digests.py` writes: gas trajectories
and tree leaves, whose bytes do not depend on numpy's CPU dispatch.  Each
command reruns in process here.  A change that alters any of these bytes
bumps `__version__` and regenerates the file with
`scripts/golden_digests.py --write`.
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


def test_recorded_version_and_commands_are_current():
    assert GOLDEN["__version__"] == arnoldgas.__version__
    assert list(GOLDEN["commands"]) == SCRIPT.COMMANDS


@pytest.mark.parametrize("command", list(GOLDEN["commands"]))
def test_body_digest_matches_the_golden_one(command):
    assert SCRIPT.body_digest(command) == GOLDEN["commands"][command]
