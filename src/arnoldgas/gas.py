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
the same pass.  A run's memory is its live states plus fixed scratch: a step
holds the state it reads and the state it writes, and besides them its pair
rows (one C-contiguous (2, N // 2) index array whose rows 0 and 1 hold the
two sides of each pair) and a few flags per particle; it collides PIECE
pairs at a time in scratch that does not grow with N, and the diagnostics
read a state PIECE rows at a time into one norms array and one difference
array.  A caller that only drains the states (`run_paired`, or
`spectral.analyse_gas` without modes) drops each one before the next is
diagnosed, and the mode pass keeps at most threads + 1 (see
`spectral.delta_series`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .maps import (CollisionModel, check_epsilon, collide_linear, root_sum_squares,
                   row_items, row_norms, torus_diff_arrays, _wrap_unit)

RNG_NAME = "numpy.random.PCG64"
# pairs a step collides at once, and rows the diagnostics read at once: a
# constant, so that their scratch does not grow with N
PIECE = 16384


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
    """Uniform perfect matching, pair i = (perm[2i], perm[2i+1]); an odd leftover idles."""
    perm = rng.permutation(affected.size)
    return perm[: 2 * (perm.size // 2)].reshape(-1, 2).T.copy()


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
    pairs = np.empty((2, affected.size // 2), dtype=np.intp)
    pairs[0, :k], pairs[1, :k] = idx_aff[:k], idx_un[:k]
    leftover = idx_aff[k:] if k < idx_aff.size else idx_un[k:]  # one side is used up
    pairs[:, k:] = leftover[:2 * (pairs.shape[1] - k)].reshape(-1, 2).T
    return pairs


# pairing name -> matching(affected, rng), which returns the pair rows: one
# C-contiguous (2, N // 2) index array whose rows 0 and 1 hold the two sides
# of each pair, so every gather and scatter of a step reads a contiguous index
PAIRINGS = {"random": _random_matching, "tree": _tree_matching}


def _collide_pieces(model: CollisionModel, src: np.ndarray, dst: np.ndarray,
                    pairs: np.ndarray, rows: np.ndarray, wrap: bool) -> None:
    """dst[i], dst[j] = the collision of src[i] and src[j] for each pair (i, j)
    of the pair rows `pairs` (see PAIRINGS), wrapped into [0, 1) when `wrap`.

    PIECE pairs at a time: a piece's slice of the two pair rows is the
    contiguous index of its gathers and scatters (a strided one slows both at
    2^20 rows), and `rows`, (3, PIECE, 2) floats, takes the gathered rows,
    which collide in place (maps.collide_linear), and their wrapped images.
    Rows are gathered by np.take and scattered as one complex item each
    (maps.row_items).  The kernel is row-wise, so the pieces give the bits of
    one whole-array call.  dst must be C-ordered.
    """
    items = row_items(dst)
    for start in range(0, pairs.shape[1], PIECE):
        i, j = pairs[:, start:start + PIECE]
        n = i.size
        # mode="clip" takes straight into out; "raise" buffers a copy
        x0 = np.take(src, i, axis=0, mode="clip", out=rows[0, :n])
        x1 = np.take(src, j, axis=0, mode="clip", out=rows[1, :n])
        collide_linear(model, x0, x1, out=(x0, x1))
        if wrap:
            items[i] = row_items(_wrap_unit(x0, out=rows[2, :n]))
            items[j] = row_items(_wrap_unit(x1, out=rows[2, :n]))
        else:
            items[i], items[j] = row_items(x0), row_items(x1)


def step(state: GasState, model: CollisionModel, rng: np.random.Generator,
         pairing: str) -> tuple[GasState, np.ndarray]:
    """Advance one mean collision time; returns (new state, pair rows).

    Every pair of the pair rows that PAIRINGS[pairing] draws collides;
    positions wrap mod 1, tangents propagate linearly, and affected flags
    spread.  Tangents and twin points are collided only on the pair rows of
    the pairs that touch the affected set.  Each pair set collides PIECE
    pairs at a time (`_collide_pieces`), so beside the two states a step holds
    only its pair rows, a few flags per particle and scratch of fixed size.
    """
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing mode {pairing!r}")
    pairs = PAIRINGS[pairing](state.affected, rng)

    was = state.affected
    hit = was[pairs[0]] | was[pairs[1]]
    # np.compress keeps the rows contiguous; pairs[:, hit] would not
    hit_pairs = pairs if hit.all() else np.compress(hit, pairs, axis=1)
    rows = np.empty((3, min(PIECE, pairs.shape[1]), 2))

    # the pairs overwrite every row unless a particle idles (odd N), and the
    # hit pairs do too once every pair is hit
    every_row = 2 * pairs.shape[1] == state.n_particles
    every_hit_row = every_row and hit_pairs is pairs
    points = np.empty_like(state.points, order="C") if every_row else state.points.copy()
    _collide_pieces(model, state.points, points, pairs, rows, wrap=True)

    # A pair that touches no affected particle keeps tangents 0 and takes the
    # new reference points as its twin points (see the module docstring); an
    # affected particle that idles (odd N) keeps its tangent and twin point.
    tangents = (np.empty_like(state.tangents, order="C") if every_hit_row
                else state.tangents.copy())
    _collide_pieces(model, state.tangents, tangents, hit_pairs, rows, wrap=False)

    affected = was.copy()
    affected[hit_pairs] = True

    twin_points = None
    if state.twin_points is not None:
        if every_hit_row:
            twin_points = np.empty_like(state.twin_points, order="C")
        else:
            twin_points = points.copy()
            np.copyto(row_items(twin_points), row_items(state.twin_points), where=was)
        _collide_pieces(model, state.twin_points, twin_points, hit_pairs, rows, wrap=True)

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
    count of zero norms and the affected norms.  The affected rows are read
    PIECE at a time, as slices of a saturated state and gathered into
    scratch otherwise, into one difference array, whose squares are then
    formed in place, and one norms array.
    """
    n = state.n_particles
    index = None if state.affected.all() else np.flatnonzero(state.affected)
    count = n if index is None else index.size
    gathered = np.empty((0 if index is None else 2, min(PIECE, count), 2))

    def pieces(*arrays):
        """(lo, hi, the affected rows lo..hi of each array), PIECE rows at a time."""
        for lo in range(0, count, PIECE):
            hi = min(lo + PIECE, count)
            if index is None:
                yield lo, hi, [array[lo:hi] for array in arrays]
            else:
                yield lo, hi, [np.take(array, index[lo:hi], axis=0, mode="clip",
                                       out=rows[:hi - lo])
                               for array, rows in zip(arrays, gathered)]

    twin = math.nan
    if state.twin_points is not None:
        diff = np.empty((count, 2))
        for lo, hi, (twin_points, points) in pieces(state.twin_points, state.points):
            torus_diff_arrays(twin_points, points, out=diff[lo:hi])
        twin = root_sum_squares(diff, out=diff)
        del diff
    norms = np.empty(count)
    for lo, hi, (tangents,) in pieces(state.tangents):
        row_norms(tangents, out=norms[lo:hi])
    return (
        count,
        root_sum_squares(norms),
        float(norms.max(initial=0.0)),
        _median_with_zeros(norms, n),
        twin,
    )


def _median_with_zeros(norms: np.ndarray, n: int) -> float:
    """np.median of `norms` padded with zeros to n values, without the padding.

    The middle of the sorted n values lies at positions lo and hi; a position
    below the zero count holds 0.  The norms are partitioned only when the
    zeros do not fill the middle, in place when none of them is 0, so the
    caller must be done with their order.
    """
    positive = np.count_nonzero(norms)
    zeros = n - positive
    lo, hi = (n - 1) // 2, n // 2
    if hi < zeros:
        return 0.0
    nonzero = norms if positive == norms.size else norms[norms > 0]
    nonzero.partition((max(lo - zeros, 0), hi - zeros))
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
        state = step(state, model, rng, config.pairing)[0]  # keeps no pairs between steps
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
    deque(states, maxlen=0)  # drops each state before the next is diagnosed
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
