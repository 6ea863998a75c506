"""Self-check suite: spectral constants, enumeration oracles, consistency.

Each check compares a measured quantity against an independent expectation
(closed form, brute-force enumeration, or a twin simulation) at a fixed
tolerance.  The CLI `verify` subcommand runs these and exits nonzero on any
failure.  The oracles are small functions of one model, tree run or seed, so
the acceptance tests and scripts/dilation_table.py apply the same oracles
over their own stage ranges, seeds and tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import gas, maps, spectral, tree


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    expected: float
    tolerance: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (
            f"{status} {self.name}: measured={self.measured:.12g} "
            f"expected={self.expected:.12g} tol={self.tolerance:g}{extra}"
        )


def _check(name: str, measured: float, expected: float, tolerance: float,
           detail: str = "") -> CheckResult:
    passed = abs(measured - expected) <= tolerance
    return CheckResult(name, passed, measured, expected, tolerance, detail)


def spectral_constants(model: maps.CollisionModel) -> dict[str, tuple[float, float]]:
    """(measured, closed form) per spectral constant of the default cat matrix."""
    sqrt5 = math.sqrt(5.0)
    return {
        "lambda-plus": (model.lambda_plus, (3 + sqrt5) / 2),
        "k-plus": (model.kp, (5 + sqrt5) / 4),
        "k-minus": (model.km, -(1 + sqrt5) / 4),
        "dilation-product": (model.dilation_product, 1 + (3 / 8) * (sqrt5 - 1)),
    }


def leaf_count_error(run: tree.TreeRun) -> int:
    """Largest deviation of the number of leaves with n1 direct collisions from C(n, n1)."""
    n = run.stages
    counts = np.bincount(run.n1, minlength=n + 1)
    expected = np.array([math.comb(n, k) for k in range(n + 1)])
    return int(np.max(np.abs(counts - expected)))


def mean_dilation_error(run: tree.TreeRun, model: maps.CollisionModel) -> float:
    """Relative error of the enumerated geometric-mean dilation against |kp*km|^(n/2)."""
    geometric, _ = tree.mean_dilations(run)
    closed, _ = tree.mean_dilations_closed(model, run.stages)
    return abs(geometric - closed) / closed


def gas_dilation_error(run: tree.TreeRun, model: maps.CollisionModel) -> float:
    """Relative error of the enumerated whole-gas dilation against (kp^2 + km^2)^(n/2)."""
    closed = tree.gas_dilation_closed(model, run.stages)
    return abs(tree.gas_dilation(run) - closed) / closed


def tangent_twin_discrepancy(model: maps.CollisionModel, seed: int) -> float:
    """Relative gap between the tangents and the twin gas's displacement.

    A random-pairing run of 64 particles for 10 steps with eps = 1e-9; the
    twin's displacement is the minimal-image difference at the last step.
    """
    config = gas.RunConfig(n_particles=64, steps=10, epsilon=1e-9, seed=seed, twin=True)
    *_, last = gas.evolve(config, model)
    diff = maps.torus_diff_arrays(last.twin_points, last.points)
    tangents = last.tangents
    return float(np.linalg.norm(diff - tangents) / np.linalg.norm(tangents))


def run_checks() -> list[CheckResult]:
    model = maps.default_model()
    results: list[CheckResult] = []

    # closed-form spectral constants
    for name, (measured, expected) in spectral_constants(model).items():
        detail = "|kp*km|, rounds to 1.46" if name == "dilation-product" else ""
        results.append(_check(name, measured, expected, 1e-12, detail))

    # matrix identities (exact)
    ident_err = float(np.max(np.abs(model.k_plus + model.k_minus - np.eye(2))))
    diff_err = float(np.max(np.abs(model.k_plus - model.k_minus - model.m)))
    results.append(_check("k-matrix-identities", ident_err + diff_err, 0.0, 0.0,
                          detail="K+ + K- = I and K+ - K- = M entrywise"))

    # eigen residuals
    res = max(
        float(np.linalg.norm(model.m @ model.xi_plus - model.lambda_plus * model.xi_plus)),
        float(np.linalg.norm(model.k_plus @ model.xi_plus - model.kp * model.xi_plus)),
        float(np.linalg.norm(model.k_minus @ model.xi_plus - model.km * model.xi_plus)),
    )
    results.append(_check("eigen-residuals", res, 0.0, 1e-12))

    # pair map is area preserving in 4-D
    pair = np.block([[model.k_plus, model.k_minus], [model.k_minus, model.k_plus]])
    results.append(_check("pair-jacobian", float(np.linalg.det(pair)), 1.0, 1e-12))

    # cat map permutes the rational grid Q=5, in integer arithmetic
    points = np.array(list(product(range(5), repeat=2)))
    grid = set(map(tuple, points.tolist()))
    image = set(map(tuple, (points @ model.m.T % 5).tolist()))
    results.append(_check("grid-permutation", float(len(image & grid)), 25.0, 0.0,
                          detail="Q=5 rational grid maps onto itself"))

    # pair-sum conservation mod 1 on random inputs
    rng = np.random.default_rng(12345)
    a, b = rng.random((64, 2)), rng.random((64, 2))
    a2, b2 = maps.collide_arrays(model, a, b)
    sum_err = float(np.max(np.abs(maps.torus_diff_arrays((a2 + b2) % 1.0, (a + b) % 1.0))))
    results.append(_check("pair-sum-conservation", sum_err, 0.0, 1e-12))

    # Fourier conjugate symmetry
    pts = rng.random((256, 2))
    worst = 0.0
    for m1, m2 in product(range(-2, 3), repeat=2):
        if (m1, m2) == (0, 0):
            continue
        nk = spectral.fourier_component(pts, spectral.ModeIndex(m1, m2))
        nmk = spectral.fourier_component(pts, spectral.ModeIndex(-m1, -m2))
        worst = max(worst, abs(nmk - nk.conjugate()))
    results.append(_check("fourier-symmetry", worst, 0.0, 1e-9, detail="n_{-k} = conj(n_k)"))

    # collision-tree enumeration against the closed forms
    max_stage = 12
    runs = [tree.run_tree(model, n) for n in range(1, max_stage + 1)]
    results.append(_check("binomial-leaves", float(max(map(leaf_count_error, runs))), 0.0, 0.0,
                          detail=f"leaf counts equal C(n, n1) for n <= {max_stage}"))
    results.append(_check("geometric-mean-dilation",
                          max(mean_dilation_error(run, model) for run in runs), 0.0, 1e-10))
    results.append(_check("gas-dilation", max(gas_dilation_error(run, model) for run in runs),
                          0.0, 1e-10, detail="enumeration vs closed form"))
    bound_ok = all(tree.gas_dilation_closed(model, run.stages)
                   >= tree.gas_dilation_bound(run.stages) for run in runs)
    results.append(_check("gas-dilation-bound", 1.0 if bound_ok else 0.0, 1.0, 0.0,
                          detail="closed form >= 2^(n/2)"))

    results.append(_check("tangent-twin-consistency", tangent_twin_discrepancy(model, 2024),
                          0.0, 1e-4, detail="N=64, eps=1e-9, 10 steps"))

    # bit-identical reruns
    c = gas.RunConfig(n_particles=512, steps=12, seed=99)
    same = all(np.array_equal(a.points, b.points) and np.array_equal(a.tangents, b.tangents)
               for a, b in zip(gas.evolve(c, model), gas.evolve(c, model)))
    results.append(_check("determinism", 1.0 if same else 0.0, 1.0, 0.0,
                          detail="identical config gives bit-identical trajectories"))

    # tree-faithful pairing saturates the affected set at exactly log2 N
    c = gas.RunConfig(n_particles=1024, steps=12, seed=7, pairing="tree")
    t3 = gas.run_paired(c, model)
    results.append(_check("tree-pairing-saturation", float(t3.saturation_step),
                          10.0, 0.0, detail="N=1024 saturates at step 10"))

    return results
