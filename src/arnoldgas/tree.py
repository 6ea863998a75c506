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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .maps import CollisionModel, check_epsilon

DEFAULT_MAX_STAGES = 24


class MemoryBudgetError(MemoryError):
    """Raised when explicit leaf storage would exceed the configured budget."""


@dataclass
class TreeRun:
    """All 2^n leaves of an n-stage collision tree with exact tangents."""

    stages: int
    epsilon: float
    n1: np.ndarray = field(repr=False)  # (2^n,) direct-collision counts
    displacements: np.ndarray = field(repr=False)  # (2^n, 2) tangent vectors

    @property
    def n_leaves(self) -> int:
        return self.displacements.shape[0]

    @property
    def n2(self) -> np.ndarray:
        return self.stages - self.n1


def run_tree(model: CollisionModel, stages: int, epsilon: float) -> TreeRun:
    """Expand the collision tree to `stages` stages with explicit leaves.

    The root displacement is epsilon * xi_plus.  Each stage maps every leaf
    displacement d to the pair (K+ d, K- d): the direct factor goes to the
    incumbent particle, the switch factor to the fresh partner.  Refuses
    stage counts over DEFAULT_MAX_STAGES, whose 2^n leaves would not fit.
    """
    if stages < 0:
        raise ValueError("stages must be >= 0")
    check_epsilon(epsilon)
    if stages > DEFAULT_MAX_STAGES:
        raise MemoryBudgetError(
            f"{stages} stages needs 2^{stages} explicit leaves, over the "
            f"budget of {DEFAULT_MAX_STAGES} stages; use closed-form aggregates instead"
        )

    displacements = (epsilon * model.xi_plus).reshape(1, 2)
    n1 = np.zeros(1, dtype=np.int64)
    for _ in range(stages):
        direct = displacements @ model.k_plus.T
        switch = displacements @ model.k_minus.T
        displacements = np.concatenate([direct, switch])
        n1 = np.concatenate([n1 + 1, n1])

    return TreeRun(
        stages=stages,
        epsilon=epsilon,
        n1=n1,
        displacements=displacements,
    )


def mean_dilations(run: TreeRun) -> tuple[float, float]:
    """(geometric mean, arithmetic mean) of leaf dilations, by enumeration.

    The geometric mean equals |kp*km|^{n/2} (binomial symmetry puts the
    mean n1 at n/2) and the arithmetic mean equals ((|kp|+|km|)/2)^n.
    """
    mags = np.linalg.norm(run.displacements, axis=1) / run.epsilon
    geometric = float(np.exp(np.mean(np.log(mags))))
    arithmetic = float(np.mean(mags))
    return geometric, arithmetic


def mean_dilations_closed(model: CollisionModel, stages: int) -> tuple[float, float]:
    """Closed-form (geometric, arithmetic) mean dilations of `run_tree`'s leaves."""
    geometric = model.dilation_product ** (stages / 2.0)
    arithmetic = ((abs(model.kp) + abs(model.km)) / 2.0) ** stages
    return geometric, arithmetic


def gas_dilation(run: TreeRun) -> float:
    """Whole-gas dilation sqrt(sum of squared leaf displacements) / eps."""
    return float(np.sqrt(np.sum(run.displacements**2)) / run.epsilon)


def gas_dilation_closed(model: CollisionModel, stages: int) -> float:
    """(kp^2 + km^2)^{n/2}; always >= 2^{n/2} since kp^2 + km^2 >= 2|kp*km| >= 2."""
    return (model.kp**2 + model.km**2) ** (stages / 2.0)


def gas_dilation_bound(stages: int) -> float:
    """2^{n/2}, the lower bound on the whole-gas dilation after n stages."""
    return 2.0 ** (stages / 2.0)


def leaf_records(run: TreeRun) -> list[tuple[int, int, int, float, float, float]]:
    """Per-leaf rows (stage, n1, n2, dx, dp, |d|) for CSV output."""
    dx, dp = run.displacements.T.tolist()
    norms = np.linalg.norm(run.displacements, axis=1).tolist()
    return list(zip(repeat(run.stages), run.n1.tolist(), run.n2.tolist(), dx, dp, norms))
