"""Span recording around the package's layer boundaries, and span arithmetic.

The tracer wraps module attributes at the name each caller looks up, so the
program under test is not edited: `cli.main` finds `cmd_gas` through the
parser that `build_parser` makes, `cmd_gas` calls `gas.run_paired` and
`spectral.delta_series`, `run_paired` calls the `step` and `init_gas`
globals of `gas`, and `gas` calls `torus_diff_arrays` and `_wrap_unit`
under the names it imported from `maps`.

Spans are kept in memory as (id, name, start, end, thread, parent) and
handed over at the end of the run.  A span opened on a thread with no open
span of its own (a worker of the mode-analysis pool) takes as parent the
innermost open span of the main thread, which is waiting for it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

MIB = 2**20

# (module, attribute as the caller looks it up, span name)
SPAN_POINTS = [
    ("cli", "cmd_gas", "cli.cmd_gas"),
    ("cli", "cmd_tree", "cli.cmd_tree"),
    ("gas", "run_paired", "gas.run_paired"),
    ("gas", "init_gas", "gas.init_gas"),
    ("gas", "step", "gas.step"),
    ("gas", "torus_diff_arrays", "maps.torus_diff_arrays"),
    ("gas", "_wrap_unit", "maps._wrap_unit"),
    ("spectral", "delta_series", "spectral.delta_series"),
    ("spectral", "exponent_estimate", "spectral.exponent_estimate"),
    ("spectral", "fit_growth", "spectral.fit_growth"),
    ("tree", "run_tree", "tree.run_tree"),
    ("tree", "leaf_records", "tree.leaf_records"),
    ("tree", "mean_dilations", "tree.mean_dilations"),
    ("tree", "gas_dilation", "tree.gas_dilation"),
]

# (module, attribute) of the output writers; their first argument is the path
WRITERS = [("cli", "_write_csv"), ("cli", "_write_summary")]


class Tracer:
    """Collects spans and counters from wrapped module attributes."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int | None]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _parent(self, thread: int) -> int | None:
        own = self._stacks.setdefault(thread, [])
        if own:
            return own[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def span(self, module, attr: str, name: str, on_return=None) -> None:
        """Replace module.attr by a wrapper that records one span per call."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            thread = threading.get_ident()
            parent = self._parent(thread)
            sid = next(self._ids)
            stack = self._stacks[thread]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, thread, parent))
            if on_return is not None:
                on_return(result)
            return result

        setattr(module, attr, wrapper)

    def count_bytes(self, module, attr: str, counter: str) -> None:
        """Add the size of the file module.attr wrote (first argument) to counter."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            self.counters[counter] += path.stat().st_size
            return result

        setattr(module, attr, wrapper)

    def _history_mb(self, trajectory) -> None:
        histories = (trajectory.points_history, trajectory.tangents_history,
                     trajectory.affected_history, trajectory.twin_points_history)
        self.counters["gas.history_mb"] += sum(
            h.nbytes for h in histories if h is not None) / MIB

    def install(self) -> None:
        """Wrap every span point and writer of the imported arnoldgas package."""
        for mod, attr, name in SPAN_POINTS:
            module = importlib.import_module(f"arnoldgas.{mod}")
            on_return = self._history_mb if name == "gas.run_paired" else None
            self.span(module, attr, name, on_return)
        for mod, attr in WRITERS:
            self.count_bytes(importlib.import_module(f"arnoldgas.{mod}"), attr,
                             "cli.bytes_written")

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counters": dict(self.counters)}


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: summed time `s`, `self_s`, `union_s` and `calls`.

    A span's self time is its duration minus the union of its children's
    intervals clipped to it, so children that overlap on pool threads are
    not subtracted twice.  `union_s` is the time during which at least one
    span of that name was open.
    """
    children = defaultdict(list)
    for sid, _name, start, end, _thread, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    by_name: dict[str, list] = defaultdict(list)
    for sid, name, start, end, _thread, _parent in spans:
        covered = union_length(
            (max(s, start), min(e, end)) for s, e in children[sid] if e > start and s < end)
        by_name[name].append((start, end, end - start - covered))
    return {
        name: {
            "s": sum(end - start for start, end, _ in rows),
            "self_s": sum(own for _, _, own in rows),
            "union_s": union_length((start, end) for start, end, _ in rows),
            "calls": len(rows),
        }
        for name, rows in by_name.items()
    }
