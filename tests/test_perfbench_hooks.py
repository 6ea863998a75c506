"""The benchmark's traced run wraps arnoldgas module attributes by name.

`perfbench/spans.py` lists them in SPAN_POINTS and WRITERS; a rename in the
package would make the traced run crash, so every listed name must resolve.
Each workload's tiny size also runs traced through `perfbench/child.py` in a
subprocess, which catches any change that breaks the traced run's contract
(a wrapper's hook reading a deleted field, say).  Nothing under
`perfbench/` is changed.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


SPANS = _load("spans")
WORKLOADS = _load("workloads").WORKLOADS
HOOKS = [(mod, attr) for mod, attr, _name in SPANS.SPAN_POINTS] + list(SPANS.WRITERS)


def test_hook_list_not_empty():
    assert len(SPANS.SPAN_POINTS) > 0
    assert len(SPANS.WRITERS) > 0


@pytest.mark.parametrize("mod,attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_hooked_attribute_resolves(mod, attr):
    module = importlib.import_module(f"arnoldgas.{mod}")
    assert callable(getattr(module, attr, None))


# the spans that a traced run of each workload must record
TRACED_SPANS = {"gas-spectral": {"gas.step", "spectral.delta_series"},
                "tree-csv": {"tree.leaf_records"}}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_tiny_run(name, tmp_path):
    workload = WORKLOADS[name]
    spec = {"mode": "run", "src": str(SRC), "trace": True,
            "argv": workload.argv(workload.tiny, 0, 2)}
    result = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), json.dumps(spec)],
                            cwd=tmp_path, env={"PYTHONPATH": str(SRC)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["exit_code"] == 0
    names = {span[1] for span in report["trace"]["spans"]}
    assert TRACED_SPANS[name] <= names, sorted(names)
