"""Release-gate checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion at its stated tolerance.  Scaled-down
ensembles stand in for the physical gas; the closed-form enumeration oracles
of criteria 1-4 anchor the full-scale claims.
"""

import json
import math

import numpy as np
import pytest

from arnoldgas import cli, gas, kinetics, spectral, tree, verify
from arnoldgas.gas import RunConfig
from arnoldgas.spectral import ModeIndex

SQRT5 = math.sqrt(5.0)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status} {name}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_spectral_constants(model):
    errors = [abs(got - want) for got, want in verify.spectral_constants(model).values()]
    ok = all(err <= 1e-12 for err in errors)
    report(1, "spectral constants to 1e-12", ok, f"max error {max(errors):.3g}")


def test_criterion_2_path_combinatorics(model):
    worst = max(verify.leaf_count_error(tree.run_tree(model, n)) for n in range(1, 13))
    report(2, "leaf counts equal C(n, n1) for n=1..12", worst == 0,
           f"max count deviation {worst}")


def test_criterion_3_mean_dilation(model):
    worst = max(verify.mean_dilation_error(tree.run_tree(model, n), model)
                for n in range(1, 13))
    base = model.dilation_product**0.5
    base_ok = abs(base - 1.2097627) < 1e-6
    report(3, "geometric mean dilation equals |kp*km|^(n/2) to 1e-10",
           worst <= 1e-10 and base_ok,
           f"max rel error {worst:.3g}, base {base:.7f}")


def test_criterion_4_gas_dilation_bound(model):
    stages = range(1, 13)
    worst = max(verify.gas_dilation_error(tree.run_tree(model, n), model) for n in stages)
    closed = [tree.gas_dilation_closed(model, n) for n in stages]
    anchor_ok = closed == pytest.approx([((9 + 3 * SQRT5) / 4) ** (n / 2) for n in stages],
                                        rel=1e-12)
    bound_ok = all(c >= 2 ** (n / 2) for n, c in zip(stages, closed))
    report(4, "gas dilation closed form matches enumeration and >= 2^(n/2)",
           worst <= 1e-10 and anchor_ok and bound_ok, f"max rel error {worst:.3g}")


def test_criterion_5_tangent_twin_consistency(model):
    worst = max(verify.tangent_twin_discrepancy(model, seed) for seed in range(25))
    report(5, "tangent vs twin displacement discrepancy < 1e-4 (N=64, 10 steps)",
           worst < 1e-4, f"worst rel discrepancy {worst:.3g}")


def test_criterion_6_significance_time(model):
    traj = gas.run_paired(RunConfig(n_particles=1024, steps=15, seed=0, pairing="tree"), model)
    tree_ok = traj.saturation_step == 10

    hits = 0
    for seed in range(100):
        traj = gas.run_paired(RunConfig(n_particles=1024, steps=30, seed=seed), model)
        t_sat = traj.saturation_step
        hits += (not math.isinf(t_sat)) and 10 <= t_sat <= 30
    report(6, "tree pairing saturates at step 10; random within [10, 30] for >= 90/100 seeds",
           tree_ok and hits >= 90, f"tree ok={tree_ok}, random hits={hits}/100")


def test_criterion_7_fluctuation_growth(model):
    slopes, r2s = [], []
    window = spectral.fit_window(2**16, 16)
    for seed in range(100):
        config = RunConfig(n_particles=2**16, steps=16, seed=seed, pairing="tree")
        series = spectral.delta_series(gas.evolve(config, model), [ModeIndex(1, 0)])[0]
        fit = spectral.fit_growth(series.deltas_linear, window)
        slopes.append(fit.slope)
        r2s.append(fit.r2)
    med_slope = float(np.median(slopes))
    med_r2 = float(np.median(r2s))
    threshold = math.log(1.2) - 0.05
    report(7, "median |delta ntilde| growth slope >= ln(1.2) - 0.05 with r2 >= 0.9",
           med_slope >= threshold and med_r2 >= 0.9,
           f"median slope {med_slope:.4f} (threshold {threshold:.4f}), median r2 {med_r2:.3f}")


def test_criterion_8_kinetic_estimates():
    derived = kinetics.derive(kinetics.KineticParams())
    checks = [
        abs(derived.n_particles / 2.5e19 - 1) <= 0.05,
        abs(derived.mean_free_path / 2e-7 - 1) <= 1e-12,
        abs(derived.mean_speed / 4e2 - 1) <= 1e-12,
        abs(derived.mean_free_time / 5e-10 - 1) <= 1e-12,
        abs(derived.collision_rate / 2e9 - 1) <= 1e-12,
    ]
    report(8, "kinetic defaults reproduce the reference quintet", all(checks),
           f"N={derived.n_particles:.4g}, l_m={derived.mean_free_path:.4g}, "
           f"v_m={derived.mean_speed:.4g}, t_m={derived.mean_free_time:.4g}, "
           f"rate={derived.collision_rate:.4g}")


def test_criterion_9_determinism(tmp_path):
    def body(path):
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# ")
        return "\n".join(lines[1:])

    args = ["gas", "--particles", "512", "--steps", "12", "--seed", "31",
            "--pairing", "tree", "--modes", "2", "--epsilon", "1e-9"]
    assert cli.main(args + ["--out", str(tmp_path / "a.csv"), "--threads", "1"]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b.csv"), "--threads", "8"]) == 0
    same_traj = body(tmp_path / "a.csv") == body(tmp_path / "b.csv")
    same_spec = body(tmp_path / "a.spectrum.csv") == body(tmp_path / "b.spectrum.csv")
    sa = json.loads((tmp_path / "a.summary.json").read_text())["summary"]
    sb = json.loads((tmp_path / "b.summary.json").read_text())["summary"]

    assert cli.main(["tree", "--stages", "8", "--out", str(tmp_path / "t1.csv")]) == 0
    assert cli.main(["tree", "--stages", "8", "--out", str(tmp_path / "t2.csv")]) == 0
    same_tree = body(tmp_path / "t1.csv") == body(tmp_path / "t2.csv")

    report(9, "re-runs give byte-identical CSV bodies, independent of --threads",
           same_traj and same_spec and same_tree and sa == sb,
           f"gas={same_traj}, spectrum={same_spec}, tree={same_tree}")
