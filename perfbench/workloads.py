"""The benchmark's workloads: CLI arguments, work counts and output checks.

Each workload has a full size, which the benchmark measures, and a tiny size,
which the self-test runs through the same code path in seconds.  A check
reads the files one run wrote and returns the problems it found; an empty
list means the outputs are correct.  Why each workload was chosen is
recorded next to its name in BENCHMARK.json.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

OUT = "out.csv"
SUMMARY = "out.summary.json"
SPECTRUM = "out.spectrum.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict
    tiny: dict
    argv: Callable[[dict, int, int], list[str]]  # (size, seed, nproc) -> argv
    items: Callable[[dict], int]  # work items of one run
    item_name: str
    check: Callable[[Path, dict], list[str]]  # (run dir, size) -> problems


def read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        if not fh.readline().startswith("# "):
            raise ValueError(f"{path.name} has no manifest line")
        return list(csv.DictReader(fh))


def read_summary(run_dir: Path) -> dict:
    return json.loads((run_dir / SUMMARY).read_text())


def digest_problems(run_dir: Path, summary: dict) -> list[str]:
    """Each CSV body must hash to the digest its summary records."""
    problems = []
    for name, digest in summary["output_digests"].items():
        data = (run_dir / name).read_bytes()
        body = data[data.index(b"\n") + 1:]
        if hashlib.sha256(body).hexdigest() != digest:
            problems.append(f"{name}: body does not match its recorded digest")
    return problems


def gas_argv(size: dict, seed: int, options: list[str]) -> list[str]:
    return ["gas", "--particles", str(size["particles"]), "--steps", str(size["steps"]),
            *options, "--seed", str(seed), "--out", OUT]


def check_gas_spectral(run_dir: Path, size: dict) -> list[str]:
    payload = read_summary(run_dir)
    summary = payload["summary"]
    problems = digest_problems(run_dir, payload)
    if set(payload["output_digests"]) != {OUT, SPECTRUM}:
        problems.append(f"digests cover {sorted(payload['output_digests'])}")
    rows = read_csv(run_dir / OUT)
    if len(rows) != size["steps"] + 1:
        problems.append(f"{len(rows)} trajectory rows, expected {size['steps'] + 1}")
    # K+ and K- have half-integer entries, so a collision is discontinuous where a
    # coordinate wraps.  A twin particle that crosses that boundary jumps by (0, 1/2)
    # or (1/2, 1/2), with its partner: twin_dist rises by 0.7 or more while norm stays
    # below 1e-4.  From that step on the twin is no longer a small perturbation and is
    # not compared.  With 2^16 particles this happened for one seed of 0-59, at t = 16.  In
    # the first half of the run so few particles carry so little displacement that a
    # jump there is taken as a fault.
    for row in rows[1:]:
        t, twin, norm = int(row["t"]), float(row["twin_dist"]), float(row["norm"])
        if twin - norm > 0.25 and t > size["steps"] // 2:
            break
        if not abs(twin / norm - 1.0) <= 1e-4:
            problems.append(f"t={t}: twin_dist/norm = {twin / norm!r}")
    # tree pairing doubles the affected set each step until all N are affected
    saturation = size["particles"].bit_length() - 1
    if summary["saturation_step"] != saturation:
        problems.append(f"saturation_step {summary['saturation_step']}, expected {saturation}")
    modes = summary.get("modes", [])
    if len(modes) != 24:
        problems.append(f"{len(modes)} mode reports, expected 24")
    for report in modes:
        if not math.isfinite(report.get("slope", math.nan)):
            problems.append(f"mode ({report['m1']},{report['m2']}) has no finite slope")
    spectrum_rows = len(read_csv(run_dir / SPECTRUM))
    if spectrum_rows != 24 * (size["steps"] + 1):
        problems.append(f"{spectrum_rows} spectrum rows, expected {24 * (size['steps'] + 1)}")
    return problems


def check_tree_csv(run_dir: Path, size: dict) -> list[str]:
    payload = read_summary(run_dir)
    summary = payload["summary"]
    problems = digest_problems(run_dir, payload)
    if set(payload["output_digests"]) != {OUT}:
        problems.append(f"digests cover {sorted(payload['output_digests'])}")
    leaves = 2 ** size["stages"]
    with (run_dir / OUT).open() as fh:
        data_rows = sum(1 for _ in fh) - 2  # manifest line and column line
    if data_rows != leaves:
        problems.append(f"{data_rows} leaf rows, expected {leaves}")
    enumerated, closed = summary["gas_dilation"], summary["gas_dilation_closed"]
    if not abs(enumerated - closed) <= 1e-10 * abs(closed):
        problems.append(f"gas_dilation {enumerated!r} vs closed form {closed!r}")
    return problems


WORKLOADS = {
    w.name: w
    for w in [
        # A session's medians are taken over a dozen or more runs, because on a
        # shared host the same run's time swings by 20-30% within a minute.  So
        # gas-spectral has 2^15 particles (about 3.5 s a run), which still saturate
        # the tree pairing (at t = 15) within the 16 steps; --modes 2 gives 24 modes.
        Workload(
            name="gas-spectral",
            full={"particles": 2**15, "steps": 16},
            tiny={"particles": 2**10, "steps": 16},
            argv=lambda size, seed, nproc: gas_argv(size, seed, [
                "--pairing", "tree", "--twin", "on", "--modes", "2",
                "--threads", str(min(2, nproc))]),
            items=lambda size: size["particles"] * size["steps"],
            item_name="particle_steps_per_s",
            check=check_gas_spectral,
        ),
        Workload(
            name="tree-csv",
            full={"stages": 18},
            tiny={"stages": 8},
            argv=lambda size, seed, nproc: ["tree", "--stages", str(size["stages"]),
                                            "--seed", str(seed), "--out", OUT],
            items=lambda size: 2 ** size["stages"],
            item_name="leaves_per_s",
            check=check_tree_csv,
        ),
    ]
}
