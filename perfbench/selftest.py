"""Smoke self-test of the benchmark harness at tiny sizes.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

Runs every workload through the same session code the benchmark uses
(set-up samples, untraced runs, the traced run, output checks and the digest
comparison) at the workload's tiny size, checks that the output checks and
the digest comparison reject corrupted outputs, and checks the span
arithmetic on hand-made spans.  Exits 0 when everything passes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run
from spans import aggregate
from workloads import SUMMARY, WORKLOADS, read_summary

SELFTEST = run.WORK / "selftest"

# span name that must be active on each workload, and one that must not be
ACTIVE = {
    "gas-spectral": ("spectral.delta_series.calls", "tree.leaf_records.s"),
    "tree-csv": ("tree.leaf_records.s", "gas.step.calls"),
}


def check_span_arithmetic() -> None:
    # one parent [0, 10] on the main thread, two overlapping children on pool threads
    spans = [(2, "child", 1.0, 5.0, 11, 1), (3, "child", 3.0, 8.0, 12, 1),
             (1, "parent", 0.0, 10.0, 10, None)]
    layers = aggregate(spans)
    assert layers["child"] == {"s": 9.0, "self_s": 9.0, "union_s": 7.0, "calls": 2}, layers
    assert layers["parent"]["self_s"] == 3.0, layers


def edit_csv(run_dir, name: str, edit) -> None:
    """Apply edit(lines) to a CSV body and record the edited body's digest."""
    path = run_dir / name
    header, body = path.read_text().split("\n", 1)
    lines = body.splitlines()
    edit(lines)
    body = "\n".join(lines) + "\n"
    path.write_text(header + "\n" + body)
    payload = read_summary(run_dir)
    payload["output_digests"][name] = hashlib.sha256(body.encode()).hexdigest()
    (run_dir / SUMMARY).write_text(json.dumps(payload))


def edit_summary(run_dir, key: str, edit) -> None:
    payload = read_summary(run_dir)
    payload["summary"][key] = edit(payload["summary"][key])
    (run_dir / SUMMARY).write_text(json.dumps(payload))


def set_cell(lines, row: int, column: str, value: str) -> None:
    col = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)


# corruptions that keep every digest consistent, so only the checks can catch them
CORRUPTIONS = {
    "gas-spectral": [
        lambda d: edit_csv(d, "out.csv", lambda ls: set_cell(ls, 3, "twin_dist", "1e-3")),
        lambda d: edit_csv(d, "out.csv", lambda ls: set_cell(ls, 4, "twin_dist", "1.0")),
        lambda d: edit_summary(d, "saturation_step", lambda v: v + 1),
        lambda d: edit_summary(d, "modes", lambda v: v[:-1]),
    ],
    "tree-csv": [
        lambda d: edit_csv(d, "out.csv", lambda ls: ls.pop()),
        lambda d: edit_summary(d, "gas_dilation", lambda v: v * (1 + 1e-9)),
    ],
}


def check_wrap_crossing_accepted() -> None:
    """A twin jump late in the run is a wrap crossing, not a fault (see workloads)."""
    workload = WORKLOADS["gas-spectral"]
    run_dir = SELFTEST / "wrap-crossing"
    run.one_run(workload, workload.tiny, run_dir, workload.argv(workload.tiny, 5, 2), False)
    edit_csv(run_dir, "out.csv", lambda ls: set_cell(ls, len(ls) - 1, "twin_dist", "1.0"))
    assert workload.check(run_dir, workload.tiny) == []
    shutil.rmtree(run_dir)


def check_rejections(workload) -> None:
    argv = workload.argv(workload.tiny, 5, 2)
    for i, corrupt in enumerate([None, *CORRUPTIONS[workload.name]]):
        run_dir = SELFTEST / f"{workload.name}-{i}"
        good = run.one_run(workload, workload.tiny, run_dir, argv, False)
        assert not good.problems, (workload.name, good.problems)
        if corrupt is None:
            # a body that no longer matches its digest
            data = (run_dir / "out.csv").read_bytes()
            last = b"2" if data[-2:-1] == b"1" else b"1"
            (run_dir / "out.csv").write_bytes(data[:-2] + last + b"\n")
        else:
            corrupt(run_dir)
        problems = workload.check(run_dir, workload.tiny)
        assert problems, f"{workload.name}: corruption {i} not detected"
        shutil.rmtree(run_dir)


def check_digest_comparison() -> None:
    runs = [run.Run([], {"out.csv": digest}) for digest in ("f" * 64, "f" * 64, "0" * 64)]
    run.mark_disagreeing(runs)
    assert [bool(r.problems) for r in runs] == [False, False, True]


def check_session(workload) -> None:
    report = run.session(workload, seed=3, seconds=0, trace=True, size=workload.tiny)
    assert report["failed"] == 0, (workload.name, report["problems"])
    assert report["attempted"] == run.MIN_RUNS + 1
    end_to_end = run.result_line(report, trace=False)["metrics"]
    assert set(end_to_end) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in end_to_end.values()), end_to_end
    per_layer = run.result_line(report, trace=True)["metrics"]
    active, idle = ACTIVE[workload.name]
    assert per_layer[active]["value"] > 0, (workload.name, active)
    assert per_layer[idle]["value"] == 0, (workload.name, idle)


def main() -> int:
    check_span_arithmetic()
    check_digest_comparison()
    print("span arithmetic, digest comparison: ok")
    try:
        check_wrap_crossing_accepted()
        for workload in WORKLOADS.values():
            check_rejections(workload)
            check_session(workload)
            print(f"{workload.name}: ok")
    finally:
        shutil.rmtree(SELFTEST, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
