"""Self-check suite: spectral constants, enumeration oracles, consistency.

Each check compares a measured quantity against an independent expectation
(closed form, brute-force enumeration, or a twin simulation) at a fixed
tolerance.  The CLI `verify` subcommand runs these and exits nonzero on any
failure.  Setting the environment variable ARNOLDGAS_VERIFY_CORRUPT to a
check name perturbs that check's measured value; this is a test hook for
confirming that failures are detected and named.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import gas, maps, spectral, tree

CORRUPT_ENV = "ARNOLDGAS_VERIFY_CORRUPT"


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    expected: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (
            f"{status} {self.name}: measured={self.measured:.12g} "
            f"expected={self.expected:.12g} tol={self.tolerance:g}{extra}"
        )


def _check(name: str, measured: float, expected: float, tolerance: float,
           corrupt: str | None, detail: str = "") -> CheckResult:
    if corrupt == name:
        measured = measured + max(abs(expected), 1.0) * 1e-3
        detail = (detail + "; " if detail else "") + "corrupted by test hook"
    passed = abs(measured - expected) <= tolerance
    return CheckResult(name, passed, measured, expected, tolerance, detail)


def run_checks(quick: bool = False, corrupt: str | None = None) -> list[CheckResult]:
    model = maps.default_model()
    sqrt5 = math.sqrt(5.0)
    results: list[CheckResult] = []

    # closed-form spectral constants
    results.append(_check("lambda-plus", model.lambda_plus, (3 + sqrt5) / 2, 1e-12, corrupt))
    results.append(_check("k-plus", model.kp, (5 + sqrt5) / 4, 1e-12, corrupt))
    results.append(_check("k-minus", model.km, -(1 + sqrt5) / 4, 1e-12, corrupt))
    results.append(_check("dilation-product", model.dilation_product,
                          1 + (3 / 8) * (sqrt5 - 1), 1e-12, corrupt,
                          detail="|kp*km|, rounds to 1.46"))

    # matrix identities (exact)
    ident_err = float(np.max(np.abs(model.k_plus + model.k_minus - np.eye(2))))
    diff_err = float(np.max(np.abs(model.k_plus - model.k_minus - model.m)))
    results.append(_check("k-matrix-identities", ident_err + diff_err, 0.0, 0.0, corrupt,
                          detail="K+ + K- = I and K+ - K- = M entrywise"))

    # eigen residuals
    res = max(
        float(np.linalg.norm(model.m @ model.xi_plus - model.lambda_plus * model.xi_plus)),
        float(np.linalg.norm(model.k_plus @ model.xi_plus - model.kp * model.xi_plus)),
        float(np.linalg.norm(model.k_minus @ model.xi_plus - model.km * model.xi_plus)),
    )
    results.append(_check("eigen-residuals", res, 0.0, 1e-12, corrupt))

    # pair map is area preserving in 4-D
    pair = np.block([[model.k_plus, model.k_minus], [model.k_minus, model.k_plus]])
    results.append(_check("pair-jacobian", float(np.linalg.det(pair)), 1.0, 1e-12, corrupt))

    # cat map permutes the rational grid Q=5
    grid = {(i, j) for i in range(5) for j in range(5)}
    image = set()
    for i, j in grid:
        out = maps.cat_apply(model, maps.PhasePoint(i / 5, j / 5))
        image.add((round(out.x * 5) % 5, round(out.p * 5) % 5))
    results.append(_check("grid-permutation", float(len(image & grid)), 25.0, 0.0, corrupt,
                          detail="Q=5 rational grid maps onto itself"))

    # pair-sum conservation mod 1 on random inputs
    rng = np.random.default_rng(12345)
    a, b = rng.random((64, 2)), rng.random((64, 2))
    a2, b2 = maps.collide_arrays(model, a, b)
    sum_err = float(np.max(np.abs(maps.torus_diff_arrays((a2 + b2) % 1.0, (a + b) % 1.0))))
    results.append(_check("pair-sum-conservation", sum_err, 0.0, 1e-12, corrupt))

    # Fourier conjugate symmetry
    pts = rng.random((256, 2))
    worst = 0.0
    for m1, m2 in product(range(-2, 3), repeat=2):
        if (m1, m2) == (0, 0):
            continue
        nk = spectral.fourier_component(pts, spectral.ModeIndex(m1, m2))
        nmk = spectral.fourier_component(pts, spectral.ModeIndex(-m1, -m2))
        worst = max(worst, abs(nmk - nk.conjugate()))
    results.append(_check("fourier-symmetry", worst, 0.0, 1e-9, corrupt,
                          detail="n_{-k} = conj(n_k)"))

    max_stage = 8 if quick else 12
    runs = {n: tree.run_tree(model, n, 1e-9) for n in range(1, max_stage + 1)}

    # binomial path combinatorics by enumeration
    worst_count = 0.0
    for n, run in runs.items():
        counts = np.bincount(run.n1, minlength=n + 1)
        expected = np.array([math.comb(n, k) for k in range(n + 1)])
        worst_count = max(worst_count, float(np.max(np.abs(counts - expected))))
    results.append(_check("binomial-leaves", worst_count, 0.0, 0.0, corrupt,
                          detail=f"leaf counts equal C(n, n1) for n <= {max_stage}"))

    # geometric-mean dilation vs closed form
    worst_rel = 0.0
    for n, run in runs.items():
        geo, _ = tree.mean_dilations(run, model)
        closed, _ = tree.mean_dilations_closed(model, n)
        worst_rel = max(worst_rel, abs(geo - closed) / closed)
    results.append(_check("geometric-mean-dilation", worst_rel, 0.0, 1e-10, corrupt))

    # whole-gas dilation: enumeration vs closed form, and the 2^(n/2) bound
    worst_rel = 0.0
    bound_ok = True
    for n, run in runs.items():
        brute = tree.gas_dilation(run)
        closed = tree.gas_dilation_closed(model, n)
        worst_rel = max(worst_rel, abs(brute - closed) / closed)
        bound_ok = bound_ok and (closed >= 2 ** (n / 2))
    results.append(_check("gas-dilation", worst_rel, 0.0, 1e-10, corrupt,
                          detail="enumeration vs closed form"))
    results.append(_check("gas-dilation-bound", 1.0 if bound_ok else 0.0, 1.0, 0.0, corrupt,
                          detail="closed form >= 2^(n/2)"))

    # tangent instrument vs fully nonlinear twin run
    config = gas.RunConfig(n_particles=64, steps=10, epsilon=1e-9, seed=2024, twin=True)
    traj = gas.run_paired(config, model)
    diff = maps.torus_diff_arrays(traj.twin_points_history[-1], traj.points_history[-1])
    tangents = traj.tangents_history[-1]
    rel = float(np.linalg.norm(diff - tangents) / np.linalg.norm(tangents))
    results.append(_check("tangent-twin-consistency", rel, 0.0, 1e-4, corrupt,
                          detail="N=64, eps=1e-9, 10 steps"))

    if not quick:
        # bit-identical reruns
        c = gas.RunConfig(n_particles=512, steps=12, seed=99)
        t1 = gas.run_paired(c, model)
        t2 = gas.run_paired(c, model)
        same = (np.array_equal(t1.points_history, t2.points_history)
                and np.array_equal(t1.tangents_history, t2.tangents_history))
        results.append(_check("determinism", 1.0 if same else 0.0, 1.0, 0.0, corrupt,
                              detail="identical config gives bit-identical trajectories"))

        # tree-faithful pairing saturates the affected set at exactly log2 N
        c = gas.RunConfig(n_particles=1024, steps=12, seed=7, pairing="tree",
                          record_points=False)
        t3 = gas.run_paired(c, model)
        results.append(_check("tree-pairing-saturation", float(t3.saturation_step),
                              10.0, 0.0, corrupt, detail="N=1024 saturates at step 10"))

    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
