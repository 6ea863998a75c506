"""Staged collision-tree idealization of influence spreading.

A single perturbed particle collides with a fresh partner at every stage, and
so does every particle already carrying part of the perturbation, so the
influenced subsystem doubles each stage: 2^n particles after n stages.  Along
the path from the root to a leaf each collision is either "direct" (the
influence stays with the incumbent particle, factor K+) or "switch" (it jumps
to the fresh partner, factor K-).  A leaf with n1 direct and n2 switch
collisions therefore carries displacement (K+)^{n1} (K-)^{n2} d0, and the n1
counts over the 2^n leaves follow the binomial distribution C(n, n1).

For an initial displacement along the expanding eigenvector xi_plus the leaf
displacement magnitudes are |kp|^{n1} |km|^{n2} eps with closed-form
aggregates:

  geometric mean dilation  |kp*km|^{n/2}      (~ 1.2097627^n for the default)
  arithmetic mean dilation ((|kp|+|km|)/2)^n
  whole-gas dilation       (kp^2 + km^2)^{n/2} >= 2^{n/2}

The leaves are stored by distinct value: the 2^n leaves take n + 1 values
in exact arithmetic and a few hundred distinct bit patterns in floating
point, so a run keeps those rows once plus a 2^n-entry index of each leaf's
row (see run_tree).  Every product is an explicit multiply-add per
component, so the leaf bits do not depend on the BLAS build or kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .maps import CollisionModel, apply_rows, check_epsilon, root_sum_squares, row_norms

DEFAULT_MAX_STAGES = 24


class MemoryBudgetError(MemoryError):
    """Raised when explicit leaf storage would exceed the configured budget."""


@dataclass
class TreeRun:
    """The 2^n leaves of an n-stage collision tree, stored by distinct value.

    `distinct` holds each distinct leaf displacement once, with its n1 count
    in `distinct_n1`, and `leaf[i]` is the row of leaf i in `distinct`, so
    leaf i's displacement is `distinct[leaf[i]]`.  `n1` is the per-leaf view
    of `distinct_n1`, gathered through `leaf` on each access.
    """

    stages: int
    epsilon: float
    distinct: np.ndarray = field(repr=False)  # (k, 2) distinct tangent vectors
    distinct_n1: np.ndarray = field(repr=False)  # (k,) their direct-collision counts
    leaf: np.ndarray = field(repr=False)  # (2^n,) row of each leaf in `distinct`

    @property
    def n1(self) -> np.ndarray:
        return self.distinct_n1[self.leaf]


def _distinct_rows(rows: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first index of each distinct row, row of each input among them).

    Rows are keyed on the bit patterns of their floats and on their integer
    label, not compared as floats, so -0.0 and 0.0 stay apart and so do NaNs
    of different payloads, while rows of identical bits always merge.
    """
    keys = np.column_stack([rows.view(np.int64), labels])
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def run_tree(model: CollisionModel, stages: int, epsilon: float) -> TreeRun:
    """Expand the collision tree to `stages` stages over its distinct leaves.

    The root displacement is epsilon * xi_plus.  Each stage maps every leaf
    displacement d to the pair (K+ d, K- d): the direct factor goes to the
    incumbent particle, the switch factor to the fresh partner, and the
    leaves of the next stage are the direct children of all leaves followed
    by their switch children.  Both factors act on the distinct rows only,
    row by row (maps.apply_rows), so every leaf gets the bits that a full
    per-leaf expansion would give it; the candidates are then merged on
    their bits and n1 counts, and `leaf` is remapped through the merge.

    In exact arithmetic a leaf is kp^n1 km^n2 epsilon xi_plus, so the 2^n
    leaves take only n + 1 values.  Paths to the same value differ only in
    their rounding, a spread of a few ulps that widens slowly with the
    stage, so k grows about as n^2 / 2 (170 rows at 18 stages, 299 at 24
    with the default matrix), not as 2^n.  A stage costs O(k) arithmetic
    plus the O(2^n) remap of `leaf`.  Refuses stage counts over
    DEFAULT_MAX_STAGES, whose 2^n leaves would not fit in the output, and
    (ValueError) an epsilon so small that a leaf has a component that
    underflows to exactly zero: such leaves no longer carry the tree's
    factors, and their logs are undefined.
    """
    if stages < 0:
        raise ValueError("stages must be >= 0")
    check_epsilon(epsilon)
    if stages > DEFAULT_MAX_STAGES:
        raise MemoryBudgetError(
            f"{stages} stages needs 2^{stages} explicit leaves, over the "
            f"budget of {DEFAULT_MAX_STAGES} stages; use closed-form aggregates instead"
        )

    distinct = (epsilon * model.xi_plus).reshape(1, 2)
    distinct_n1 = np.zeros(1, dtype=np.int64)
    leaf = np.zeros(1, dtype=np.intp)
    for _ in range(stages):
        candidates = np.concatenate([apply_rows(model.k_plus, distinct),
                                     apply_rows(model.k_minus, distinct)])
        candidate_n1 = np.concatenate([distinct_n1 + 1, distinct_n1])
        first, inverse = _distinct_rows(candidates, candidate_n1)
        leaf = np.concatenate([inverse[:len(distinct)][leaf], inverse[len(distinct):][leaf]])
        distinct, distinct_n1 = candidates[first], candidate_n1[first]
    zeros = int(np.count_nonzero((distinct == 0).any(axis=1)))
    if zeros:
        raise ValueError(f"--epsilon {epsilon} is too small for --stages {stages}: "
                         f"{zeros} distinct leaf rows have a component that underflows "
                         "to zero; raise --epsilon or lower --stages")

    return TreeRun(
        stages=stages,
        epsilon=epsilon,
        distinct=distinct,
        distinct_n1=distinct_n1,
        leaf=leaf,
    )


def mean_dilations(run: TreeRun) -> tuple[float, float]:
    """(geometric mean, arithmetic mean) of leaf dilations, by enumeration.

    The geometric mean equals |kp*km|^{n/2} (binomial symmetry puts the
    mean n1 at n/2) and the arithmetic mean equals ((|kp|+|km|)/2)^n.
    Each norm and log is taken once per distinct row; the means sum the
    per-leaf values over all 2^n leaves in leaf order.  The log and exp are
    `math`'s, so the means do not depend on numpy's SIMD loops.
    """
    mags = row_norms(run.distinct) / run.epsilon
    logs = np.array([math.log(mag) for mag in mags.tolist()])
    geometric = math.exp(np.mean(logs[run.leaf]))
    arithmetic = float(np.mean(mags[run.leaf]))
    return geometric, arithmetic


def mean_dilations_closed(model: CollisionModel, stages: int) -> tuple[float, float]:
    """Closed-form (geometric, arithmetic) mean dilations of `run_tree`'s leaves."""
    geometric = model.dilation_product ** (stages / 2.0)
    arithmetic = ((abs(model.kp) + abs(model.km)) / 2.0) ** stages
    return geometric, arithmetic


def gas_dilation(run: TreeRun) -> float:
    """Whole-gas dilation sqrt(sum of squared leaf displacements) / eps.

    Squares once per distinct row and sums over all leaves in leaf order
    (maps.root_sum_squares).
    """
    return root_sum_squares(run.distinct, run.leaf) / run.epsilon


def gas_dilation_closed(model: CollisionModel, stages: int) -> float:
    """(kp^2 + km^2)^{n/2}; always >= 2^{n/2} since kp^2 + km^2 >= 2|kp*km| >= 2."""
    return (model.kp**2 + model.km**2) ** (stages / 2.0)


def gas_dilation_bound(stages: int) -> float:
    """2^{n/2}, the lower bound on the whole-gas dilation after n stages."""
    return 2.0 ** (stages / 2.0)


def leaf_records(run: TreeRun) -> tuple[list[tuple[int, int, int, float, float, float]],
                                        np.ndarray]:
    """CSV rows (stage, n1, n2, dx, dp, |d|) of the distinct leaves, and `leaf`.

    The CSV lists leaf i as row leaf[i], so each distinct row is formatted once.
    """
    dx, dp = run.distinct.T.tolist()
    norms = row_norms(run.distinct).tolist()
    n1 = run.distinct_n1.tolist()
    n2 = (run.stages - run.distinct_n1).tolist()
    return list(zip(repeat(run.stages), n1, n2, dx, dp, norms)), run.leaf
