"""The benchmark's traced run wraps arnoldgas module attributes by name.

`perfbench/spans.py` lists them in SPAN_POINTS and WRITERS; a rename in the
package would make the traced run crash, so every listed name must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
HOOKS = [(mod, attr) for mod, attr, _name in SPANS.SPAN_POINTS] + list(SPANS.WRITERS)


def test_hook_list_not_empty():
    assert len(SPANS.SPAN_POINTS) > 0
    assert len(SPANS.WRITERS) > 0


@pytest.mark.parametrize("mod,attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_hooked_attribute_resolves(mod, attr):
    module = importlib.import_module(f"arnoldgas.{mod}")
    assert callable(getattr(module, attr, None))
