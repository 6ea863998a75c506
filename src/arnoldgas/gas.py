"""Full N-particle gas with one pairwise collision per particle per step.

One step is one mean collision time: the particles are split into pairs,
every pair collides, and the per-particle tangent vectors propagate through
the same linearization (K+ for a particle's own prior displacement, K- for
its partner's).  Two pairing schedules are provided:

  random  -- a uniformly random perfect matching each step
  tree    -- "tree-faithful": every affected particle meets a fresh
             unaffected partner while supplies last, so the affected set
             doubles exactly each step until it saturates at N

A twin mode evolves a second, fully nonlinear copy of the gas whose particle
0 starts displaced by eps*xi_plus, through identical pairings, so the
exactness of the tangent instrument can be checked against minimal-image
trajectory differences.

Off the affected set (the particles the perturbation has reached) tangents
are exactly 0 and twin points equal the reference points bitwise.  Because
the pair kernel is row-wise, step collides tangents and twin points only on
pairs that touch the affected set; every other pair's result is known, and
the per-step diagnostics sum over the affected set alone.

The gas keeps O(N) memory, not its history: `evolve` yields each step's state
and a caller keeps what it needs.  `with_diagnostics` fills in the per-step
diagnostics as states pass, so `spectral.analyse_gas` analyses modes in
the same pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .maps import (CollisionModel, check_epsilon, collide_arrays, collide_linear,
                   root_sum_squares, row_items, row_norms, torus_diff_arrays, _wrap_unit)

RNG_NAME = "numpy.random.PCG64"


def check_seed(seed: int) -> None:
    """Refuse a negative generator seed, which numpy's seeding rejects."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one gas run; a fixed config gives a bit-identical run."""

    n_particles: int
    steps: int
    epsilon: float = 1e-9
    seed: int = 0
    pairing: str = "random"  # a key of PAIRINGS
    twin: bool = False

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ValueError("need at least 2 particles")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        check_epsilon(self.epsilon)
        check_seed(self.seed)
        if self.pairing not in PAIRINGS:
            raise ValueError(f"pairing must be one of {sorted(PAIRINGS)}, got {self.pairing!r}")


@dataclass
class GasState:
    """Parallel per-particle arrays at one time step."""

    points: np.ndarray  # (N, 2) in [0, 1)^2
    tangents: np.ndarray  # (N, 2), unbounded
    affected: np.ndarray  # (N,) bool, monotone in t
    t: int
    twin_points: np.ndarray | None = None

    @property
    def n_particles(self) -> int:
        return self.points.shape[0]


@dataclass
class Trajectory:
    """Per-step diagnostics of one run."""

    config: RunConfig
    affected_count: np.ndarray  # (steps+1,)
    norm: np.ndarray  # (steps+1,) sqrt(sum |dX_i|^2)
    max_disp: np.ndarray
    median_disp: np.ndarray
    twin_dist: np.ndarray  # nan when twin mode is off

    @property
    def saturation_step(self) -> int | float:
        """First step with every particle affected, or inf."""
        return _first_step(self.affected_count >= self.config.n_particles)


def init_gas(config: RunConfig, model: CollisionModel, rng: np.random.Generator) -> GasState:
    """i.i.d. uniform points drawn from rng; particle 0 carries the whole perturbation."""
    n = config.n_particles
    points = rng.random((n, 2))
    tangents = np.zeros((n, 2))
    tangents[0] = config.epsilon * model.xi_plus
    affected = np.zeros(n, dtype=bool)
    affected[0] = True
    twin_points = None
    if config.twin:
        twin_points = _wrap_unit(points + tangents)
    return GasState(
        points=points,
        tangents=tangents,
        affected=affected,
        t=0,
        twin_points=twin_points,
    )


def _random_matching(affected: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform perfect matching of all particles as a (k, 2) index array; odd leftover idles."""
    perm = rng.permutation(affected.size)
    return perm[: 2 * (perm.size // 2)].reshape(-1, 2)


def _tree_matching(affected: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Pair every affected particle with a fresh unaffected one if possible.

    Leftovers on either side are paired among themselves; one particle idles
    when the leftover count is odd.
    """
    idx_aff = np.nonzero(affected)[0]
    idx_un = np.nonzero(~affected)[0]
    rng.shuffle(idx_aff)
    rng.shuffle(idx_un)
    k = min(idx_aff.size, idx_un.size)
    mixed = np.stack([idx_aff[:k], idx_un[:k]], axis=1)
    rest = np.concatenate([idx_aff[k:], idx_un[k:]])
    rest = rest[: 2 * (rest.size // 2)].reshape(-1, 2)
    return np.concatenate([mixed, rest])


# pairing name -> matching(affected, rng), a (k, 2) array of pair indices
PAIRINGS = {"random": _random_matching, "tree": _tree_matching}


def _collide_rows(collide, model: CollisionModel, src: np.ndarray, dst: np.ndarray,
                  i: np.ndarray, j: np.ndarray) -> None:
    """dst[i], dst[j] = collide(model, src[i], src[j]) for (n, 2) float arrays.

    Rows are gathered by np.take and scattered as one complex item each
    (maps.row_items); i and j should be contiguous, since a strided index
    slows both at 2^20 rows.  dst must be C-ordered.
    """
    out_i, out_j = collide(model, np.take(src, i, axis=0), np.take(src, j, axis=0))
    rows = row_items(dst)
    rows[i], rows[j] = row_items(out_i), row_items(out_j)


def step(state: GasState, model: CollisionModel, rng: np.random.Generator,
         pairing: str) -> tuple[GasState, np.ndarray]:
    """Advance one mean collision time; returns (new state, pair indices).

    Every pair PAIRINGS[pairing] lists collides; positions wrap mod 1,
    tangents propagate linearly, and affected flags spread.  Tangents and twin
    points are collided only on pairs that touch the affected set.
    """
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing mode {pairing!r}")
    pairs = PAIRINGS[pairing](state.affected, rng)

    i, j = pairs.T.copy()  # contiguous columns: a strided index slows every gather
    was = state.affected
    hit = was[i] | was[j]
    ih, jh = i[hit], j[hit]

    # the pairs overwrite every row unless a particle idles (odd N)
    points = (np.empty_like(state.points, order="C") if 2 * len(i) == state.n_particles
              else state.points.copy())
    _collide_rows(collide_arrays, model, state.points, points, i, j)

    # A pair that touches no affected particle keeps tangents 0 and takes the
    # new reference points as its twin points (see the module docstring); an
    # affected particle that idles (odd N) keeps its tangent and twin point.
    tangents = state.tangents.copy()
    _collide_rows(collide_linear, model, state.tangents, tangents, ih, jh)

    affected = was.copy()
    affected[ih] = True
    affected[jh] = True

    twin_points = None
    if state.twin_points is not None:
        twin_points = points.copy()
        np.copyto(row_items(twin_points), row_items(state.twin_points), where=was)
        _collide_rows(collide_arrays, model, state.twin_points, twin_points, ih, jh)

    new_state = GasState(
        points=points,
        tangents=tangents,
        affected=affected,
        t=state.t + 1,
        twin_points=twin_points,
    )
    return new_state, pairs


def _diagnostics(state: GasState) -> tuple[int, float, float, float, float]:
    """(affected count, norm, max, median of |dX_i|, twin distance).

    Off the affected set every norm and twin difference is 0, so the sums
    and the max run over the affected set, and the median is read from the
    count of zero norms and the affected norms.
    """
    n = state.n_particles
    affected = state.affected
    norms = row_norms(np.compress(affected, state.tangents, axis=0))
    twin = math.nan
    if state.twin_points is not None:
        diff = torus_diff_arrays(np.compress(affected, state.twin_points, axis=0),
                                 np.compress(affected, state.points, axis=0))
        twin = root_sum_squares(diff)
    return (
        norms.size,
        root_sum_squares(norms),
        float(norms.max(initial=0.0)),
        _median_with_zeros(norms, n),
        twin,
    )


def _median_with_zeros(norms: np.ndarray, n: int) -> float:
    """np.median of `norms` padded with zeros to n values, without the padding.

    The middle of the sorted n values lies at positions lo and hi; a position
    below the zero count holds 0.  The norms are partitioned only when the
    zeros do not fill the middle.
    """
    zeros = n - np.count_nonzero(norms)
    lo, hi = (n - 1) // 2, n // 2
    if hi < zeros:
        return 0.0
    nonzero = np.partition(norms[norms > 0], (max(lo - zeros, 0), hi - zeros))
    low = nonzero[lo - zeros] if lo >= zeros else 0.0
    return float((low + nonzero[hi - zeros]) / 2)


def evolve(config: RunConfig, model: CollisionModel) -> Iterator[GasState]:
    """Yield the gas state at t = 0..config.steps, drawn from the generator of config.seed.

    Each state is a fresh set of arrays, and no array of a state is written
    after it is yielded, so a caller may keep states, or read them on other
    threads, while the gas advances.
    """
    rng = np.random.default_rng(config.seed)
    state = init_gas(config, model, rng)
    yield state
    for _ in range(config.steps):
        state, _pairs = step(state, model, rng, config.pairing)
        yield state


def with_diagnostics(config: RunConfig, states: Iterable[GasState]
                     ) -> tuple[Trajectory, Iterator[GasState]]:
    """Pass the states through, filling in the trajectory's row t as state t passes.

    The trajectory is complete once the returned iterator is exhausted.
    """
    n_rows = config.steps + 1
    # affected_count; norm, max_disp, median_disp; twin_dist
    traj = Trajectory(config, np.zeros(n_rows, dtype=np.int64), *np.zeros((3, n_rows)),
                      np.full(n_rows, math.nan))

    def passing() -> Iterator[GasState]:
        for state in states:
            t = state.t
            (traj.affected_count[t], traj.norm[t], traj.max_disp[t],
             traj.median_disp[t], traj.twin_dist[t]) = _diagnostics(state)
            yield state

    return traj, passing()


def run_paired(config: RunConfig, model: CollisionModel) -> Trajectory:
    """Evolve the gas for config.steps steps and return its per-step diagnostics."""
    traj, states = with_diagnostics(config, evolve(config, model))
    for _ in states:
        pass
    return traj


def significance_time(trajectory: Trajectory) -> int | float:
    """First step at which the median particle displacement reaches eps.

    Returns inf when the run never gets there (e.g. all-zero tangents).
    """
    return _first_step(trajectory.median_disp >= trajectory.config.epsilon)


def _first_step(reached: np.ndarray) -> int | float:
    """First step at which `reached` is true, or inf."""
    hits = np.nonzero(reached)[0]
    return int(hits[0]) if hits.size else math.inf
