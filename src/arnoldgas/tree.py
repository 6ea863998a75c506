"""Staged collision-tree idealization of influence spreading.

A single perturbed particle collides with a fresh partner at every stage, and
so does every particle already carrying part of the perturbation, so the
influenced subsystem doubles each stage: 2^n particles after n stages.  Along
the path from the root to a leaf each collision is either "direct" (the
influence stays with the incumbent particle, factor K+) or "switch" (it jumps
to the fresh partner, factor K-).  A leaf with n1 direct and n2 switch
collisions therefore carries displacement (K+)^{n1} (K-)^{n2} d0, and the n1
counts over the 2^n leaves follow the binomial distribution C(n, n1).

The tree is expanded from the unit displacement xi_plus, the expanding
eigenvector, so its leaf magnitudes are |kp|^{n1} |km|^{n2}, with closed-form
aggregates that do not depend on the size of the initial displacement:

  geometric mean dilation  |kp*km|^{n/2}      (~ 1.2097627^n for the default)
  arithmetic mean dilation ((|kp|+|km|)/2)^n
  whole-gas dilation       (kp^2 + km^2)^{n/2} >= 2^{n/2}

That size enters once, as a factor on the leaf cells that leaf_records
writes.  K+ and K- are both polynomials in the collision matrix, so they
commute and a leaf depends on its n1 alone: a run keeps the n + 1 rows
(K+)^{n1} (K-)^{n - n1} xi_plus once, plus each leaf's n1 (see run_tree).
Every product is an explicit multiply-add per component, so the leaf bits do
not depend on the BLAS build or kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .maps import CollisionModel, apply_rows, root_sum_squares, row_norms

DEFAULT_MAX_STAGES = 24


class MemoryBudgetError(MemoryError):
    """Raised when explicit leaf storage would exceed the configured budget."""


@dataclass
class TreeRun:
    """The 2^n unit leaves of an n-stage collision tree, one row per n1.

    `distinct[k]` is the unit leaf with k direct collisions and `norms[k]`
    its norm, and `n1[i]` is leaf i's direct-collision count, so leaf i's
    displacement is `distinct[n1[i]]`.  `n1` is intp, numpy's index type, so
    no gather through it converts it first.
    """

    stages: int
    distinct: np.ndarray = field(repr=False)  # (n + 1, 2) leaf displacement by n1
    norms: np.ndarray = field(repr=False)  # (n + 1,) maps.row_norms of `distinct`
    n1: np.ndarray = field(repr=False)  # (2^n,) direct-collision count of each leaf


def _overflowing_leaves(norms: np.ndarray, stages: int) -> int:
    """The number of leaves whose norm, one per n1 in `norms`, is not finite."""
    return sum(math.comb(stages, k) for k in np.flatnonzero(~np.isfinite(norms)).tolist())


def run_tree(model: CollisionModel, stages: int) -> TreeRun:
    """Expand the unit collision tree to `stages` stages, one row per n1.

    The root displacement is xi_plus.  Each stage maps every leaf
    displacement d to the pair (K+ d, K- d): the direct factor goes to the
    incumbent particle, the switch factor to the fresh partner, and the
    leaves of the next stage are the direct children of all leaves followed
    by their switch children, so a leaf's n1 is its parent's plus one in the
    first half and its parent's in the second.

    K+ and K- commute, so every leaf with n1 direct collisions carries the
    same displacement, and row k of the run is K- applied n - k times and
    then K+ applied k times to xi_plus, row by row (maps.apply_rows).  Each
    stage prepends K- of row 0 to K+ of every row, so a stage costs O(n)
    arithmetic plus the doubling of `n1`, in place in its one 2^n-entry
    array.  Refuses stage counts over DEFAULT_MAX_STAGES, whose 2^n leaves
    would not fit in the output, and (ValueError) a matrix and stage count
    whose unit leaf norms overflow a float.
    """
    if stages < 0:
        raise ValueError("stages must be >= 0")
    if stages > DEFAULT_MAX_STAGES:
        raise MemoryBudgetError(
            f"{stages} stages needs 2^{stages} explicit leaves, over the "
            f"budget of {DEFAULT_MAX_STAGES} stages; use closed-form aggregates instead"
        )

    rows = model.xi_plus.reshape(1, 2)
    n1 = np.zeros(2**stages, dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing leaves are refused below
        for stage in range(stages):
            rows = np.concatenate([apply_rows(model.k_minus, rows[:1]),
                                   apply_rows(model.k_plus, rows)])
            leaves = 2**stage
            n1[leaves:2 * leaves] = n1[:leaves]  # switch children
            n1[:leaves] += 1  # direct children
        norms = row_norms(rows)
    overflows = _overflowing_leaves(norms, stages)
    if overflows:
        raise ValueError(f"--stages {stages} is too large for this matrix: {overflows} "
                         "leaves have a norm that overflows a float; lower --stages")

    return TreeRun(stages=stages, distinct=rows, norms=norms, n1=n1)


def mean_dilations(run: TreeRun) -> tuple[float, float]:
    """(geometric mean, arithmetic mean) of leaf dilations, by enumeration.

    The geometric mean equals |kp*km|^{n/2} (binomial symmetry puts the
    mean n1 at n/2) and the arithmetic mean equals ((|kp|+|km|)/2)^n.
    Each norm and log is taken once per n1 row; the means sum the per-leaf
    values over all 2^n leaves in leaf order.  The log and exp are
    `math`'s, so the means do not depend on numpy's SIMD loops.
    """
    logs = np.array([math.log(norm) for norm in run.norms.tolist()])
    geometric = math.exp(np.mean(logs[run.n1]))
    arithmetic = float(np.mean(run.norms[run.n1]))
    return geometric, arithmetic


def mean_dilations_closed(model: CollisionModel, stages: int) -> tuple[float, float]:
    """Closed-form (geometric, arithmetic) mean dilations of `run_tree`'s leaves."""
    geometric = model.dilation_product ** (stages / 2.0)
    arithmetic = ((abs(model.kp) + abs(model.km)) / 2.0) ** stages
    return geometric, arithmetic


def gas_dilation(run: TreeRun) -> float:
    """Whole-gas dilation sqrt(sum of squared unit leaf displacements).

    Squares once per n1 row and sums over all leaves in leaf order
    (maps.root_sum_squares).
    """
    return root_sum_squares(run.distinct, run.n1)


def gas_dilation_closed(model: CollisionModel, stages: int) -> float:
    """(kp^2 + km^2)^{n/2}; always >= 2^{n/2} since kp^2 + km^2 >= 2|kp*km| >= 2."""
    return (model.kp**2 + model.km**2) ** (stages / 2.0)


def gas_dilation_bound(stages: int) -> float:
    """2^{n/2}, the lower bound on the whole-gas dilation after n stages."""
    return 2.0 ** (stages / 2.0)


def leaf_records(run: TreeRun, epsilon: float) -> tuple[
        list[tuple[int, int, int, float, float, float]], np.ndarray]:
    """CSV rows (stage, n1, n2, dx, dp, |d|), one per n1, and the leaves' `n1`.

    Each displacement and norm is epsilon times the unit value, rounded once.
    The CSV lists leaf i as row n1[i], so each of the n + 1 rows is formatted
    once.  Raises ValueError, naming --epsilon and --stages, when a written
    norm overflows a float.
    """
    with np.errstate(over="ignore"):  # overflowing norms are refused below
        rows = epsilon * run.distinct
        norms = epsilon * run.norms
    overflows = _overflowing_leaves(norms, run.stages)
    if overflows:
        raise ValueError(f"--epsilon {epsilon} is too large for --stages {run.stages}: "
                         f"{overflows} leaves have a norm that overflows a float; "
                         "lower --epsilon or --stages")
    dx, dp = rows.T.tolist()
    n = run.stages
    return list(zip(repeat(n), range(n + 1), range(n, -1, -1), dx, dp, norms.tolist())), run.n1
