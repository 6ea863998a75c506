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

A state stores its rows in the pair order of the step that made it, with the
affected particles (those the perturbation has reached) first: they are rows
[0, n_affected).  From row n_affected on, tangents are exactly 0 and twin
points equal the points bitwise.  With h pairs that touch the affected set,
a step writes

  rows [0, h), [h, 2h)   side 0 and side 1 of those pairs
  row 2h                 the idle particle (odd N), if it is affected
  then                   the other pairs, side 0 then side 1
  last                   an unaffected idle particle

so n_affected = 2h + (1 if the idle particle is affected), and the pairs
follow from N and n_affected (`pair_blocks`).  A step gathers each array
once into its new row order, the tangents and twin points only on the new
affected rows, and collides contiguous halves in place: it never scatters.
Because the pair kernel is row-wise, tangents and twin points collide only
on the pairs that touch the affected set; every other pair's result is
known, and the per-step diagnostics read the affected rows alone.

The gas keeps O(N) memory, not its history: `evolve` yields each step's state
and a caller keeps what it needs.  `with_diagnostics` fills in the per-step
diagnostics as states pass, so `spectral.analyse_gas` analyses modes in
the same pass.  A run's memory is its live states plus fixed scratch: a step
holds the state it reads and the state it writes, and besides them its
gather order (N indices) and, while it draws that, the shuffled rows it is
made from; it collides PIECE pairs at a time in scratch that does not grow
with N, and the diagnostics read a state PIECE rows at a time into one
norms array and one difference array.  A caller that only drains the states
(`run_paired`, or `spectral.analyse_gas` without modes) drops each one
before the next is diagnosed, and the mode pass keeps at most threads + 1
(see `spectral.delta_series`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .maps import (CollisionModel, check_epsilon, collide_linear, root_sum_squares,
                   row_norms, torus_diff_arrays, _wrap_unit)

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
    """Per-particle arrays at one time step, the affected rows first (see
    the module docstring)."""

    points: np.ndarray  # (N, 2) in [0, 1)^2
    tangents: np.ndarray  # (N, 2), unbounded; 0 from row n_affected on
    n_affected: int  # monotone in t
    t: int
    twin_points: np.ndarray | None = None  # equal to points from row n_affected on

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
    """i.i.d. uniform points drawn from rng; particle 0, in row 0, carries the
    whole perturbation.

    Raises ValueError, naming --epsilon and --twin, when the twin cannot
    resolve the perturbation: when particle 0's twin point rounds to its point.
    """
    n = config.n_particles
    points = rng.random((n, 2))
    tangents = np.zeros((n, 2))
    tangents[0] = config.epsilon * model.xi_plus
    twin_points = None
    if config.twin:
        twin_points = _wrap_unit(points + tangents)
        if np.array_equal(twin_points[0], points[0]):
            raise ValueError(f"--epsilon {config.epsilon!r} is below what --twin on resolves: "
                             "particle 0's twin point rounds to its point; raise --epsilon "
                             "or use --twin off")
    return GasState(points=points, tangents=tangents, n_affected=1, t=0,
                    twin_points=twin_points)


def _random_matching(n: int, affected: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Uniform perfect matching: pair k = (perm[k], perm[N // 2 + k]) of a
    random permutation of the rows; an odd leftover idles."""
    perm = rng.permutation(n)
    half = n // 2
    sides = perm[:2 * half].reshape(2, half)
    hit = np.logical_or(sides[0] < affected, sides[1] < affected)
    h = int(np.count_nonzero(hit))
    spread = 2 * h + int(n % 2 == 1 and perm[-1] < affected)
    order = np.empty(n, dtype=np.intp)
    np.compress(hit, sides, axis=1, out=order[:2 * h].reshape(2, h))
    np.compress(~hit, sides, axis=1, out=order[spread:spread + 2 * (half - h)].reshape(2, -1))
    if n % 2:
        order[2 * h if spread % 2 else -1] = perm[-1]
    return order, spread


def _tree_matching(n: int, affected: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Pair every affected row with a fresh unaffected one while supplies last.

    The shuffled affected rows fill side 0, up to N // 2 of them, and the
    shuffled unaffected rows follow, so that leftovers on either side pair
    among themselves and an odd one idles last.
    """
    aff, unaff = np.arange(affected), np.arange(affected, n)
    rng.shuffle(aff)
    rng.shuffle(unaff)
    half = n // 2
    return np.concatenate([aff[:half], unaff, aff[half:]]), min(2 * affected, n)


# pairing name -> matching(N, n_affected, rng), which returns a step's gather
# order, whose row r is the row that new row r is gathered from, laid out as
# the module docstring describes, and the new n_affected
PAIRINGS = {"random": _random_matching, "tree": _tree_matching}


def pair_blocks(n_particles: int, n_affected: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(start, count) of each block of a stepped state's pairs: pair k of a
    block is rows start + k and start + count + k.  The first block holds
    the pairs that touch the affected set."""
    h = n_affected // 2
    return (0, h), (n_affected, n_particles // 2 - h)


def _collide_halves(model: CollisionModel, rows: np.ndarray,
                    blocks: Iterable[tuple[int, int]], scratch: np.ndarray, wrap: bool) -> None:
    """Collide the pairs of each (start, count) of `blocks` (see pair_blocks)
    in place in `rows`, wrapped into [0, 1) when `wrap`.

    PIECE pairs at a time: an unwrapped piece collides in place
    (maps.collide_linear), and a wrapped one into `scratch`, (2, PIECE, 2)
    floats, from which _wrap_unit, which cannot work in place, writes it
    back.  The kernel is row-wise, so the pieces give the bits of one
    whole-array call.
    """
    for start, count in blocks:
        for lo in range(start, start + count, PIECE):
            hi = min(lo + PIECE, start + count)
            x0, x1 = rows[lo:hi], rows[lo + count:hi + count]
            if wrap:
                y0, y1 = collide_linear(model, x0, x1, out=tuple(scratch[:, :hi - lo]))
                _wrap_unit(y0, out=x0)
                _wrap_unit(y1, out=x1)
            else:
                collide_linear(model, x0, x1, out=(x0, x1))


def step(state: GasState, model: CollisionModel, rng: np.random.Generator,
         pairing: str) -> tuple[GasState, np.ndarray]:
    """Advance one mean collision time; returns (new state, order), where the
    new state's row r is the old state's row order[r].

    PAIRINGS[pairing] draws the order, and every pair collides: positions
    wrap mod 1, tangents propagate linearly, and the affected set spreads.
    One np.take per array gathers all N points, and only the new affected
    rows of the tangents and twin points, which collide only on the pairs
    that touch the affected set; each block of pairs collides in place
    (`_collide_halves`).  So beside the two states a step holds only its
    order and scratch of fixed size.
    """
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing mode {pairing!r}")
    order, affected = PAIRINGS[pairing](state.n_particles, state.n_affected, rng)
    blocks = pair_blocks(state.n_particles, affected)
    scratch = np.empty((2, min(PIECE, state.n_particles // 2), 2))
    sources = order[:affected]  # the old rows of the new affected rows

    points = np.take(state.points, order, axis=0)
    _collide_halves(model, points, blocks, scratch, wrap=True)
    # calloc'd, so rows that stay 0 may never be touched
    tangents = np.zeros(points.shape)
    # mode="clip" takes straight into out; "raise" buffers a copy
    np.take(state.tangents, sources, axis=0, mode="clip", out=tangents[:affected])
    _collide_halves(model, tangents, blocks[:1], scratch, wrap=False)
    twin_points = None
    if state.twin_points is not None:
        twin_points = np.empty_like(points)
        np.take(state.twin_points, sources, axis=0, mode="clip", out=twin_points[:affected])
        _collide_halves(model, twin_points, blocks[:1], scratch, wrap=True)
        twin_points[affected:] = points[affected:]

    new_state = GasState(points=points, tangents=tangents, n_affected=affected,
                         t=state.t + 1, twin_points=twin_points)
    return new_state, order


def _diagnostics(state: GasState) -> tuple[int, float, float, float, float]:
    """(affected count, norm, max, median of |dX_i|, twin distance).

    From row n_affected on every norm and twin difference is 0, so the sums
    and the max run over the affected rows, and the median is read from the
    count of zero norms and the affected norms.  The affected rows are read
    PIECE at a time into one difference array, whose squares are then
    formed in place, and one norms array.
    """
    count = state.n_affected
    pieces = [slice(lo, min(lo + PIECE, count)) for lo in range(0, count, PIECE)]
    twin = math.nan
    if state.twin_points is not None:
        diff = np.empty((count, 2))
        for rows in pieces:
            torus_diff_arrays(state.twin_points[rows], state.points[rows], out=diff[rows])
        twin = root_sum_squares(diff, out=diff)
        del diff
    norms = np.empty(count)
    for rows in pieces:
        row_norms(state.tangents[rows], out=norms[rows])
    return (
        count,
        root_sum_squares(norms),
        float(norms.max(initial=0.0)),
        _median_with_zeros(norms, state.n_particles),
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
        state = step(state, model, rng, config.pairing)[0]  # keeps no order between steps
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
