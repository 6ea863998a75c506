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

All functions here are pure and never mutate their array arguments, apart
from an `out=` array, which receives the result.  `out=` lets a caller work
in fixed scratch (see gas.PIECE); each formula is still written once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_CAT_MATRIX = ((1, 1), (1, 2))


def _wrap_unit(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Reduce componentwise into [0, 1) as a - floor(a), written to `out`
    when it is given; `out` must not share memory with `values`.

    For a tiny negative a the subtraction rounds to exactly 1.0, which would
    violate the half-open interval; those entries become 0.  The result is
    the same as numpy's ``% 1.0`` (both round the exact a - floor(a) once)
    at a fraction of its cost.
    """
    a = np.asarray(values, dtype=float)
    out = np.floor(a, out=out)
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
      xi_plus       unit eigenvector for lambda_plus, first component > 0
      kp            eigenvalue of K+ on xi_plus, (1 + lambda_plus)/2
      km            eigenvalue of K- on xi_plus, (1 - lambda_plus)/2
    """

    m: np.ndarray
    k_plus: np.ndarray
    k_minus: np.ndarray
    lambda_plus: float
    xi_plus: np.ndarray
    kp: float
    km: float

    @property
    def dilation_product(self) -> float:
        """|kp * km|, the squared per-two-collision mean dilation."""
        return abs(self.kp * self.km)


def _unit_eigenvector(m: np.ndarray, eigenvalue: float) -> np.ndarray:
    # (M - lam I) v = 0 from its first row.  m01 = 0 with det 1 would force
    # m00 = m11 = +-1 and trace +-2, which spectral_decompose refuses first,
    # so v[0] = m01 / |v| is never zero and its sign alone picks the vector.
    v = np.array([m[0, 1], eigenvalue - m[0, 0]])
    v = v / math.sqrt(v[0] * v[0] + v[1] * v[1])
    return -v if v[0] < 0 else v


def spectral_decompose(m) -> CollisionModel:
    """Build a CollisionModel from a 2x2 integer matrix.

    Eigenvalues come from the closed-form quadratic in the trace (det = 1
    forces lambda^2 - tr*lambda + 1 = 0), not an iterative solver, so the
    default matrix reproduces (3 +- sqrt(5))/2 to full precision.

    Raises ValueError naming the violated condition for an entry outside
    int64, or non-integer, non-unimodular, or non-hyperbolic input.
    """
    m = np.asarray(m, dtype=object)  # the entries as given, before any cast can wrap them
    if m.shape != (2, 2):
        raise ValueError(f"collision matrix must be 2x2, got shape {m.shape}")
    for entry in m.flat:
        if not -2**63 <= entry < 2**63:
            raise ValueError(f"collision matrix entries must lie in [-2**63, 2**63), got {entry}")
    if not all(entry == int(entry) for entry in m.flat):
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
        xi_plus=xi_plus,
        kp=kp,
        km=km,
    )


@functools.cache
def default_model() -> CollisionModel:
    """The model for the standard cat matrix [[1, 1], [1, 2]]."""
    return spectral_decompose(DEFAULT_CAT_MATRIX)


def apply_rows(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ row for every row of an (n, 2) array.

    Written as explicit multiply-adds per component, so each output row is a
    function of its own input row alone and rounds the same way whatever the
    batch (a matrix product through BLAS does not).
    """
    (k00, k01), (k10, k11) = matrix
    x, p = rows[:, 0], rows[:, 1]
    out = np.empty(rows.shape)
    np.add(k00 * x, k01 * p, out=out[:, 0])
    np.add(k10 * x, k11 * p, out=out[:, 1])
    return out


def row_norms(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|row| of each row of an (n, 2) float array, without underflow, written
    to the (n,) array `out` when it is given.

    Each row is scaled by the power of two 2^-e that brings its larger
    component into [0.5, 1), so its squares neither underflow nor overflow,
    and its norm is scaled back by 2^e.  Scaling by a power of two is exact,
    so the result equals np.linalg.norm(rows, axis=1) bit for bit wherever
    no square underflows there, and is right where one does.
    """
    x, p = rows[:, 0], rows[:, 1]
    _, e = np.frexp(np.maximum(np.abs(x), np.abs(p)))
    x, p = np.ldexp(x, -e), np.ldexp(p, -e)
    x *= x
    p *= p
    x += p
    return np.ldexp(np.sqrt(x, out=x), e, out=x if out is None else out)


def root_sum_squares(values: np.ndarray, index: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> float:
    """sqrt of the sum of squares of every entry of `values`, without underflow.

    As row_norms, with one power-of-two scale for the whole array, taken from
    its largest magnitude; the sum runs in the order of np.sum(values**2).
    With `index`, `values` is an (n, 2) array and the sum runs over the rows
    values[index], squared once per row of `values` and then gathered.  The
    scaled squares are formed in `out` when it is given, which may be
    `values` itself.  Raises ValueError, naming --epsilon, when the result
    overflows a float or is not finite because an entry is not.
    """
    # the largest magnitude, without an array of magnitudes
    _, e = np.frexp(max(np.max(values, initial=0.0), -np.min(values, initial=0.0)))
    squares = np.ldexp(values, -e, out=out)
    np.square(squares, out=squares)
    if index is not None:
        squares = np.take(squares, index, axis=0)
    try:
        total = math.ldexp(math.sqrt(np.sum(squares)), int(e))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError("a root sum of squares of the displacements overflows a float; "
                         "lower --epsilon")
    return total


def collide_linear(
    model: CollisionModel, x0: np.ndarray, x1: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The pair update without mod-1 reduction, over (n, 2) arrays.

    With s = K- (x1 - x0), x0' = x0 + s and x1' = x1 - s, each row on its
    own (see apply_rows).  x1 - x0 is the plain difference of the stored
    values, not a minimal image: K+- have half-integer entries, so the
    collision depends on the lift.  With out = (out0, out1) the results are
    written there, and out may be (x0, x1) itself.

    This is the whole collision for tangent vectors; phase points wrap its
    result.  gas.step collides with it; collide_arrays is the tests'
    whole-array reference.
    """
    s = apply_rows(model.k_minus, x1 - x0)
    if out is None:
        return x0 + s, x1 - s
    return np.add(x0, s, out=out[0]), np.subtract(x1, s, out=out[1])


def collide_arrays(
    model: CollisionModel, x0: np.ndarray, x1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pair collision over (n, 2) arrays of phase points, mod 1.

    x0' = K+ x0 + K- x1 and x1' = K- x0 + K+ x1.  The tests' whole-array
    reference for the collision that gas.step runs PIECE pairs at a time.
    """
    out0, out1 = collide_linear(model, x0, x1)
    return _wrap_unit(out0), _wrap_unit(out1)


def check_epsilon(epsilon: float) -> None:
    """Refuse an initial perturbation size that is not finite and positive."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")


def torus_diff_arrays(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized minimal-image difference on arrays of torus coordinates, in
    [-0.5, 0.5), written to `out` when it is given."""
    shifted = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    shifted += 0.5
    diff = _wrap_unit(shifted, out=out)
    diff -= 0.5
    return diff
