"""Collision arithmetic for a gas whose pair interactions are cat maps.

A two-body collision conserves the pair's sum (center of mass, mod 1 on the
unit 2-torus) and applies a hyperbolic toral automorphism M to the relative
coordinate:

    x0' + x1' = x0 + x1,      x0' - x1' = M (x0 - x1)

Equivalently each outgoing state is a linear combination of both incoming
states through the direct matrix K+ = (I + M)/2 and the switch matrix
K- = (I - M)/2.  The default M is [[1, 1], [1, 2]].  Since K+ = I - K-, the
pair update is computed row-wise as x0' = x0 + s, x1' = x1 - s with
s = K- (x1 - x0), and phase points wrap into [0, 1) as a - floor(a).

Displacements (tangent vectors) obey the same linear relations without any
additive constants and without mod-1 reduction: the tangent space is linear,
so tangent propagation is exact for this piecewise-linear dynamics.

All functions here are pure and never mutate their array arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_CAT_MATRIX = ((1, 1), (1, 2))


def _wrap_unit(values: np.ndarray) -> np.ndarray:
    """Reduce componentwise into [0, 1) as a - floor(a).

    For a tiny negative a the subtraction rounds to exactly 1.0, which would
    violate the half-open interval; those entries become 0.  The result is
    the same as numpy's ``% 1.0`` (both round the exact a - floor(a) once)
    at a fraction of its cost.
    """
    a = np.asarray(values, dtype=float)
    out = np.floor(a)
    np.subtract(a, out, out=out)
    np.copyto(out, 0.0, where=out == 1.0)
    return out


@dataclass(frozen=True)
class CollisionModel:
    """A hyperbolic unimodular collision matrix with its spectral data.

    Fields:
      m             2x2 integer matrix, det = 1, trace > 2
      k_plus        (I + M)/2, the direct matrix
      k_minus       (I - M)/2, the switch matrix
      lambda_plus   larger eigenvalue of M
      lambda_minus  smaller eigenvalue of M (= 1/lambda_plus)
      xi_plus       unit eigenvector for lambda_plus, first component > 0
      kp            eigenvalue of K+ on xi_plus, (1 + lambda_plus)/2
      km            eigenvalue of K- on xi_plus, (1 - lambda_plus)/2
    """

    m: np.ndarray
    k_plus: np.ndarray
    k_minus: np.ndarray
    lambda_plus: float
    lambda_minus: float
    xi_plus: np.ndarray
    kp: float
    km: float

    @property
    def dilation_product(self) -> float:
        """|kp * km|, the squared per-two-collision mean dilation."""
        return abs(self.kp * self.km)


def _unit_eigenvector(m: np.ndarray, eigenvalue: float) -> np.ndarray:
    # (M - lam I) v = 0; pick the nonzero row construction.
    if m[0, 1] != 0:
        v = np.array([m[0, 1], eigenvalue - m[0, 0]])
    else:
        v = np.array([eigenvalue - m[1, 1], m[1, 0]])
    v = v / math.sqrt(v[0] * v[0] + v[1] * v[1])
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        v = -v
    return v


def spectral_decompose(m) -> CollisionModel:
    """Build a CollisionModel from a 2x2 integer matrix.

    Eigenvalues come from the closed-form quadratic in the trace (det = 1
    forces lambda^2 - tr*lambda + 1 = 0), not an iterative solver, so the
    default matrix reproduces (3 +- sqrt(5))/2 to full precision.

    Raises ValueError naming the violated condition for non-integer,
    non-unimodular, or non-hyperbolic input.
    """
    m = np.asarray(m)
    if m.shape != (2, 2):
        raise ValueError(f"collision matrix must be 2x2, got shape {m.shape}")
    if not np.all(m == np.round(m)):
        raise ValueError("collision matrix must have integer entries")
    m = m.astype(np.int64)
    det = int(m[0, 0]) * int(m[1, 1]) - int(m[0, 1]) * int(m[1, 0])
    if det != 1:
        raise ValueError(f"collision matrix must be unimodular: det = {det}, expected 1")
    trace = int(m[0, 0]) + int(m[1, 1])
    if trace <= 2:
        raise ValueError(f"collision matrix must be hyperbolic: trace = {trace}, need trace > 2")

    root = math.sqrt(trace * trace - 4)
    lambda_plus = (trace + root) / 2.0
    lambda_minus = (trace - root) / 2.0

    mf = m.astype(float)
    identity = np.eye(2)
    k_plus = (identity + mf) / 2.0
    k_minus = (identity - mf) / 2.0

    xi_plus = _unit_eigenvector(mf, lambda_plus)

    kp = (1.0 + lambda_plus) / 2.0
    km = (1.0 - lambda_plus) / 2.0

    for arr in (m, k_plus, k_minus, xi_plus):
        arr.setflags(write=False)

    return CollisionModel(
        m=m,
        k_plus=k_plus,
        k_minus=k_minus,
        lambda_plus=lambda_plus,
        lambda_minus=lambda_minus,
        xi_plus=xi_plus,
        kp=kp,
        km=km,
    )


_DEFAULT_MODEL: CollisionModel | None = None


def default_model() -> CollisionModel:
    """The model for the standard cat matrix [[1, 1], [1, 2]]."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = spectral_decompose(DEFAULT_CAT_MATRIX)
    return _DEFAULT_MODEL


def apply_rows(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ row for every row of an (n, 2) array.

    Written as explicit multiply-adds per component, so each output row is a
    function of its own input row alone and rounds the same way whatever the
    batch (a matrix product through BLAS does not).
    """
    (k00, k01), (k10, k11) = matrix
    out = np.empty(rows.shape)
    out[:, 0] = k00 * rows[:, 0] + k01 * rows[:, 1]
    out[:, 1] = k10 * rows[:, 0] + k11 * rows[:, 1]
    return out


def collide_linear(
    model: CollisionModel, x0: np.ndarray, x1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pair update without mod-1 reduction, over (n, 2) arrays.

    With s = K- (x1 - x0), x0' = x0 + s and x1' = x1 - s, each row on its
    own (see apply_rows).  x1 - x0 is the plain difference of the stored
    values, not a minimal image: K+- have half-integer entries, so the
    collision depends on the lift.

    This is the whole collision for tangent vectors; phase points wrap its
    result (see collide_arrays).
    """
    s = apply_rows(model.k_minus, x1 - x0)
    return x0 + s, x1 - s


def collide_arrays(
    model: CollisionModel, x0: np.ndarray, x1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pair collision over (n, 2) arrays of phase points, mod 1.

    x0' = K+ x0 + K- x1 and x1' = K- x0 + K+ x1.
    """
    out0, out1 = collide_linear(model, x0, x1)
    return _wrap_unit(out0), _wrap_unit(out1)


def check_epsilon(epsilon: float) -> None:
    """Refuse an initial perturbation size that is not finite and positive."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")


def torus_diff_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized minimal-image difference on arrays of torus coordinates, in [-0.5, 0.5)."""
    return _wrap_unit(np.asarray(a, dtype=float) - np.asarray(b, dtype=float) + 0.5) - 0.5
