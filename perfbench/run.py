"""Benchmark of the arnoldgas command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload gas-spectral --seed 1 --seconds 60 --trace 0

Every run of the program is a fresh `python3` process (perfbench/child.py)
that imports `arnoldgas.cli` from `src/`, builds the parser and calls
`cli.main(argv)` once; processes run one at a time, in a closed loop.  After
one warm-up process that only imports and builds the parser, a session runs
the workload until `--seconds` have passed, and at least MIN_RUNS times; the
workloads are sized so that a 60 s session holds a dozen or more runs, and
every metric is the median over them.  It checks every run's outputs,
compares every run's output digests, and prints one line per metric with its
median, range and sample count, the environment, and as its last line a JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end medians:

    setup_s      interpreter start until the parser is built, every run process
    wall_s       one `cli.main(argv)` call
    cpu_s        user plus system CPU seconds of that call, all threads
    peak_rss_mb  ru_maxrss of the run process
    items_per_s  particle-steps (gas) or leaves (tree) per wall second

With `--trace 1` one more run is made with spans recorded around the
package's layer boundaries (perfbench/spans.py), and the metrics are the
per-layer ones from that run, plus the tracing overhead against the
untraced median.  A run fails when its exit code is not
0, an output check fails, or its output digests disagree with the session's
other runs; `failed` counts those runs.

The session's report, with every sample and the environment, is kept in
perfbench/_work/; run outputs are deleted once checked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from spans import aggregate
from workloads import WORKLOADS, Workload, read_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

MIN_RUNS = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "items_per_s": "1/s",
}

# (span name, statistic) pairs reported from the traced run, then counters
PER_LAYER_SPANS = [
    ("gas.run_paired", "s"), ("gas.run_paired", "self_s"), ("gas.step", "s"),
    ("gas.step", "calls"), ("gas.init_gas", "s"),
    ("maps.torus_diff_arrays", "s"), ("maps._wrap_unit", "s"), ("maps._wrap_unit", "calls"),
    ("spectral.delta_series", "s"), ("spectral.delta_series", "union_s"),
    ("spectral.delta_series", "calls"), ("spectral.exponent_estimate", "s"),
    ("spectral.fit_growth", "s"),
    ("tree.run_tree", "s"), ("tree.leaf_records", "s"), ("tree.mean_dilations", "s"),
    ("tree.gas_dilation", "s"),
    ("cli.cmd_tree", "self_s"), ("cli.cmd_gas", "self_s"),
]
PER_LAYER_COUNTERS = {"gas.history_mb": "MiB", "cli.bytes_written": "bytes"}


class NoResult(RuntimeError):
    """The program could not be run at all; no result line is printed."""


@dataclass
class Run:
    """One run of the program: what went wrong (nothing when it passed) and its sample."""

    problems: list[str]
    digests: dict | None = None
    sample: dict = field(default_factory=dict)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ARNOLDGAS_OUTDIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # the mode-analysis pool supplies the parallelism; BLAS threads stay at one
    # so that no run uses more threads than cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(run_dir: Path, mode: str, argv: Sequence[str] = (), trace: bool = False):
    """Start one run process; return (set-up seconds, exit code, stdout, stderr)."""
    spec = json.dumps({"mode": mode, "src": str(SRC), "argv": list(argv), "trace": trace})
    run_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), spec], cwd=run_dir,
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready":
        raise NoResult(f"run process did not start (exit {proc.returncode}): "
                       f"{(first + out + err).strip()[-2000:]}")
    return setup, proc.returncode, out, err


def one_run(workload: Workload, size: dict, run_dir: Path, argv: list[str],
            trace: bool) -> Run:
    setup, code, out, err = spawn(run_dir, "run", argv, trace)
    try:
        sample = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return Run([f"run process exit {code}, no result: {err.strip()[-500:]}"])
    sample["setup_s"] = setup
    if code != 0 or sample["exit_code"] != 0:
        return Run([f"exit code {sample['exit_code']}: {err.strip()[-500:]}"], sample=sample)
    try:
        problems = workload.check(run_dir, size)
        digests = read_summary(run_dir)["output_digests"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Run([f"outputs unreadable: {exc!r}"], sample=sample)
    return Run(problems, digests, sample)


def mark_disagreeing(runs: list[Run]) -> None:
    """Fail every run whose digests differ from those most runs report."""
    seen = Counter(json.dumps(r.digests, sort_keys=True) for r in runs if r.digests)
    if not seen:
        return
    majority = seen.most_common(1)[0][0]
    for r in runs:
        if r.digests and json.dumps(r.digests, sort_keys=True) != majority:
            r.problems.append("output digests disagree with the other runs")


def summarize(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unknown ({exc})"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    try:
        models = [line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")]
    except OSError:
        models = []
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.processor(),
        "caches": caches,
    }


def per_layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict:
    layers = aggregate(trace["spans"])
    metrics = {}
    for name, stat in PER_LAYER_SPANS:
        unit = "count" if stat == "calls" else "s"
        metrics[f"{name}.{stat}"] = {"value": layers.get(name, {}).get(stat, 0), "unit": unit}
    for name, unit in PER_LAYER_COUNTERS.items():
        metrics[name] = {"value": trace["counters"].get(name, 0), "unit": unit}
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    return metrics


def session(workload: Workload, seed: int, seconds: float, trace: bool,
            size: dict | None = None) -> dict:
    """Measure one workload; return the full report (see the module docstring)."""
    size = size or workload.full
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    argv = workload.argv(size, seed, env["nproc"])
    base = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
    try:
        spawn(base / "setup", "setup")  # warm-up: writes bytecode caches, fills the page cache
        setup: list[float] = []
        runs: list[Run] = []
        start = time.perf_counter()
        while True:
            run_dir = base / f"run{len(runs)}"
            runs.append(one_run(workload, size, run_dir, argv, False))
            setup += [runs[-1].sample["setup_s"]] if "setup_s" in runs[-1].sample else []
            shutil.rmtree(run_dir)
            walls = [r.sample["wall_s"] for r in runs if "wall_s" in r.sample]
            elapsed = time.perf_counter() - start
            if len(runs) >= MIN_RUNS and (
                    not walls or elapsed + statistics.median(walls) > seconds):
                break
        traced = None
        if trace:
            traced = one_run(workload, size, base / "traced", argv, True)
            runs.append(traced)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    mark_disagreeing(runs)
    untraced = [r.sample for r in runs if r is not traced and "wall_s" in r.sample]
    if not untraced:
        raise NoResult("no run produced a measurement: "
                          + "; ".join(p for r in runs for p in r.problems))
    env["numpy"] = untraced[0]["numpy"]
    samples = {
        "setup_s": setup,
        "wall_s": [s["wall_s"] for s in untraced],
        "cpu_s": [s["cpu_s"] for s in untraced],
        "peak_rss_mb": [s["peak_rss_mb"] for s in untraced],
        "items_per_s": [workload.items(size) / s["wall_s"] for s in untraced],
    }
    stats = {name: summarize(values) for name, values in samples.items()}

    failed = sum(bool(r.problems) for r in runs)
    report = {
        "workload": workload.name,
        "seed": seed,
        "argv": argv,
        "environment": env,
        "stats": stats,
        "samples": samples,
        "attempted": len(runs),
        "failed": failed,
        "error_rate": failed / len(runs),
        "problems": [p for r in runs for p in r.problems],
    }
    if traced is not None and "trace" in traced.sample:
        report["per_layer"] = per_layer_metrics(
            traced.sample["trace"], traced.sample["wall_s"], stats["wall_s"]["median"])
        report["spans"] = traced.sample["trace"]["spans"]
    return report


def result_line(report: dict, trace: bool) -> dict:
    if trace:
        metrics = report["per_layer"]
    else:
        metrics = {name: {"value": report["stats"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_report(report: dict, workload: Workload) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"argv: arnoldgas {' '.join(report['argv'])}")
    print(f"{'metric':<30} {'median':>14} {'min':>14} {'max':>14} {'n':>4}  unit")
    for name, unit in END_TO_END.items():
        shown = workload.item_name if name == "items_per_s" else name
        s = report["stats"][name]
        print(f"{shown:<30} {s['median']:>14.6g} {s['min']:>14.6g} {s['max']:>14.6g} "
              f"{s['n']:>4}  {unit}")
    print(f"{'error_rate':<30} {report['error_rate']:>14.6g} "
          f"({report['failed']} of {report['attempted']} runs failed)")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    for name, metric in report.get("per_layer", {}).items():
        print(f"{name:<30} {metric['value']:>14.6g}  {metric['unit']}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arnoldgas" / "cli.py").is_file():
        print(f"error: no arnoldgas source under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        report = session(workload, args.seed, args.seconds, bool(args.trace))
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace and "per_layer" not in report:
        print("error: the traced run produced no spans", file=sys.stderr)
        return 1

    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print_report(report, workload)
    print(f"report {path.relative_to(ROOT)}")
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
