"""Fourier components of the phase-space density and their growth.

For N particles in the unit square the density mode at wavevector
k = 2*pi*(m1, m2) is

    n_k(t) = sum_i exp(-i k . X_i(t)),      ntilde_k = n_k / N.

A one-particle perturbation of size eps shifts the modes by Delta ntilde_k.
Two instruments are provided: the exact difference of a twin (perturbed)
simulation against the reference, and the tangent-linear estimate

    Delta ntilde_k(t) ~= (-i/N) sum_i exp(-i k . X_i(t)) (k . dX_i(t)).

`delta_series` computes every requested mode in one pass over a run's gas
states, one row per state on its own pool of worker threads.  It draws the
states as `gas.evolve` yields them and keeps at most 2*threads + 1 of them
alive, not the whole run; perfbench traces it under that name.  k . v is
written once, in `ModeIndex.k_dot`, as multiply-adds, so no output byte
depends on BLAS.  Because k = 2*pi*(m1, m2) with integer m, each wave
factorises as exp(-i k . X) = z_x**m1 * z_p**m2 with z = exp(-2*pi*i*coord):
two `exp` calls per row serve every mode, positive powers come from repeated
multiplication and negative ones are conjugates.
The rounding error of z**m grows about linearly in |m|.

Only one mode of each +-k pair is summed: the canonical one, with m1 > 0, or
m1 = 0 and m2 > 0.  The other follows bit for bit, because its wave is the
conjugate and k . v(-m) = -(k . v(m)) exactly: its value, twin and phase sums
are (re, 0.0 - im) of the canonical mode's and its linear sum is
(0.0 - re, im).  The fill writes 0.0 - x, never -x, so that an exact zero
stays +0, as the direct sum gives it.  Each pool worker owns the N-sized
arrays of a row for the whole pass (coordinate column, powers of z and their
conjugates, wave product, gathered wave, one temporary, and the twin's
copies), writes every one with `out=` and slices them to the affected count,
so a row allocates no N-sized array.  On a saturated row, where every
particle is affected, the state's own tangents and twin points and the wave
itself stand in for the gathers, and the phase sum is the value sum.

Off the affected set of a row the tangents are exactly zero and the embedded
twin's points are bitwise equal to the reference points, so the tangent-linear
sum and the twin difference run over affected particles only.  The twin delta
is sum_{i affected} (w_twin,i - w_ref,i) / N rather than the difference of two
full N-particle sums, which avoids cancelling two O(1) sums to get an O(eps)
result.

The per-collision growth exponent of |Delta ntilde_k| is estimated either by
a least-squares fit of ln|Delta ntilde_k(t)| over the fit window
[2, min(steps, floor(log2 N))], widened to 5 steps (`fit_window`), or by the
two-term closed-form estimator whose state-independent part equals
ln sqrt|kp*km| ~= 0.190424 for the default collision matrix (often quoted
rounded as ln 1.2 ~= 0.18).  Its state-dependent part needs the phase sum
sum_{i affected} exp(-i k . X_i(t)) / N, which is the pass's fourth per-row
sum, so the estimator forms no wave itself.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .gas import GasState
from .maps import CollisionModel

TWO_PI = 2.0 * math.pi


class ModeIndex(NamedTuple):
    """Integer mode (m1, m2); the wavevector is 2*pi*(m1, m2) on the unit torus."""

    m1: int
    m2: int

    def k_dot(self, v, out=None, scratch=None) -> np.ndarray:
        """k . v over the last axis of v, as multiply-adds; written to `out`,
        with `scratch` for m2 * v[..., 1], when they are given."""
        total = np.add(np.multiply(self.m1, v[..., 0], out=out),
                       np.multiply(self.m2, v[..., 1], out=scratch), out=out)
        return np.multiply(TWO_PI, total, out=out)


def enumerate_modes(max_order: int) -> list[ModeIndex]:
    """All nonzero modes with max(|m1|, |m2|) <= max_order."""
    return [
        ModeIndex(m1, m2)
        for m1 in range(-max_order, max_order + 1)
        for m2 in range(-max_order, max_order + 1)
        if (m1, m2) != (0, 0)
    ]


def fourier_component(points, mode: ModeIndex) -> complex:
    """n_k = sum_i exp(-2*pi*i (m1 x_i + m2 p_i)); divide by N for ntilde_k."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("need at least one particle")
    return complex(np.exp(-1j * mode.k_dot(pts)).sum())


@dataclass
class SpectrumSeries:
    """Time series of one mode's normalized component and its perturbations."""

    mode: ModeIndex
    values: np.ndarray  # (steps+1,) complex ntilde_k(t) of the reference
    deltas_linear: np.ndarray  # (steps+1,) complex tangent-linear estimate
    phase_sums: np.ndarray  # (steps+1,) complex sum_{i affected} exp(-i k.X_i) / N
    deltas_twin: np.ndarray | None = None  # exact twin difference when available


def _canonical(mode: ModeIndex) -> ModeIndex:
    """The mode of mode's +-k pair with m1 > 0, or m1 = 0 and m2 > 0."""
    return mode if (mode.m1, mode.m2) > (0, 0) else ModeIndex(-mode.m1, -mode.m2)


class _Waves:
    """exp(-2*pi*i (m1 x + m2 p)) of up to n points, for canonical modes.

    Its arrays are sized at n once and sliced to the count of points loaded.
    For each axis, z**m with m > 0 comes by repeated multiplication, and
    z**m with m < 0 (only m2 of a canonical mode) is conj(z**-m).
    """

    def __init__(self, n: int, modes: Sequence[ModeIndex]):
        self.column = np.empty(n)
        self.product = np.empty(n, complex)
        self.powers = []  # per axis, {m: z**m}
        for exponents in ({m.m1 for m in modes}, {m.m2 for m in modes}):
            top = max(map(abs, exponents), default=0)
            needed = [*range(1, top + 1), *(m for m in exponents if m < 0)]
            self.powers.append({m: np.empty(n, complex) for m in needed})
        self.count = 0

    def load(self, points: np.ndarray) -> None:
        n = self.count = len(points)
        for axis, powers in enumerate(self.powers):
            if powers:
                scaled = np.multiply(TWO_PI, points[:, axis], out=self.column[:n])
                z = np.multiply(-1j, scaled, out=powers[1][:n])
                np.exp(z, out=z)
            for m, power in powers.items():
                if m > 1:
                    np.multiply(powers[m - 1][:n], z, out=power[:n])
                elif m < 0:
                    np.conjugate(powers[-m][:n], out=power[:n])

    def wave(self, mode: ModeIndex) -> np.ndarray:
        n = self.count
        zx, zp = self.powers
        if mode.m1 == 0:
            return zp[mode.m2][:n]
        if mode.m2 == 0:
            return zx[mode.m1][:n]
        return np.multiply(zx[mode.m1][:n], zp[mode.m2][:n], out=self.product[:n])


class _RowArrays:
    """The N-sized arrays that one worker thread reuses for every row."""

    def __init__(self, n: int, modes: Sequence[ModeIndex], twin: bool):
        self.points = _Waves(n, modes)
        self.twin = _Waves(n, modes) if twin else None
        self.tangents = np.empty((n, 2))
        self.twin_points = np.empty((n, 2)) if twin else None
        self.gathered = np.empty(n, complex)
        self.temp = np.empty(n, complex)
        self.k_dot = np.empty((2, n))

    def sums(self, state: GasState, modes: Sequence[ModeIndex]) -> np.ndarray:
        """Unnormalised (values, linear, twin, phase) sums of one state, one column per mode.

        On a saturated row every particle is affected, so the state's own
        arrays and the wave itself stand in for the gathers, and the phase
        sum is the value sum.
        """
        n_affected = int(np.count_nonzero(state.affected))
        saturated = n_affected == state.n_particles
        tangents, twin_points = state.tangents, state.twin_points
        if not saturated:  # mode="clip" takes straight into out; "raise" buffers a copy
            affected = np.flatnonzero(state.affected)
            tangents = np.take(tangents, affected, axis=0, mode="clip",
                               out=self.tangents[:n_affected])
            if self.twin is not None:
                twin_points = np.take(twin_points, affected, axis=0, mode="clip",
                                      out=self.twin_points[:n_affected])
        self.points.load(state.points)
        if self.twin is not None:
            self.twin.load(twin_points)
        temp = self.temp[:n_affected]
        sums = np.zeros((4, len(modes)), dtype=complex)
        for j, mode in enumerate(modes):
            wave = self.points.wave(mode)
            affected_wave = (wave if saturated else
                             np.take(wave, affected, mode="clip", out=self.gathered[:n_affected]))
            k_dot = mode.k_dot(tangents, out=self.k_dot[0, :n_affected],
                               scratch=self.k_dot[1, :n_affected])
            sums[0, j] = wave.sum()
            sums[1, j] = np.multiply(affected_wave, k_dot, out=temp).sum()
            if self.twin is not None:
                sums[2, j] = np.subtract(self.twin.wave(mode), affected_wave, out=temp).sum()
            sums[3, j] = sums[0, j] if saturated else affected_wave.sum()
        return sums


def delta_series(states: Iterable[GasState], modes: Sequence[ModeIndex],
                 threads: int = 1) -> list[SpectrumSeries]:
    """Per-step perturbation of every mode, tangent-linear and (when possible) exact.

    `states` are one run's states at t = 0, 1, ..., each read once; the exact
    route uses the run's embedded twin, when it has one.  The calling thread
    draws each state and submits its row to a pool of `threads` workers;
    once more than 2*threads rows are waiting it waits for the oldest, so
    at most 2*threads + 1 states are alive.  Rows are kept in the order
    drawn, so the result does not depend on the worker count.  Each worker
    sums the canonical mode of every +-k pair in arrays it owns for the
    call; the other mode of the pair is filled in from it.
    """
    if (0, 0) in modes:
        raise ValueError("the zero mode is the conserved normalization; pick a nonzero mode")
    canonical = list(dict.fromkeys(map(_canonical, modes)))
    workspace = threading.local()

    def row(state: GasState) -> np.ndarray:
        if not hasattr(workspace, "arrays"):  # one run's states share N and the twin
            workspace.arrays = _RowArrays(state.n_particles, canonical,
                                          state.twin_points is not None)
        return workspace.arrays.sums(state, canonical)

    rows, pending, state = [], deque(), None
    with ThreadPoolExecutor(threads) as pool:
        for state in states:
            pending.append(pool.submit(row, state))
            if len(pending) > 2 * threads:
                rows.append(pending.popleft().result())
        rows.extend(future.result() for future in pending)
    if state is None:
        raise ValueError("mode analysis needs at least one gas state")
    n, has_twin = state.n_particles, state.twin_points is not None
    column = {mode: j for j, mode in enumerate(canonical)}
    sums = np.stack(rows, axis=2)[:, [column[_canonical(mode)] for mode in modes]]
    # -k from k: k_dot(-m) = -k_dot(m) exactly, so the linear sum is (-re, im)
    # and the other three are conjugates.  0.0 - x gives +0 for an exact zero.
    mirrored = [j for j, mode in enumerate(modes) if _canonical(mode) != mode]
    fill = sums[:, mirrored]
    fill.imag[[0, 2, 3]] = 0.0 - fill.imag[[0, 2, 3]]
    fill.real[1] = 0.0 - fill.real[1]
    sums[:, mirrored] = fill
    values, linear, twin, phase = sums  # each (modes, steps+1)
    values = values / n
    linear = (-1j / n) * linear
    phase = phase / n
    twin = twin / n if has_twin else None
    return [SpectrumSeries(mode=mode, values=values[j], deltas_linear=linear[j],
                           phase_sums=phase[j],
                           deltas_twin=None if twin is None else twin[j])
            for j, mode in enumerate(modes)]


@dataclass(frozen=True)
class ExponentEstimate:
    """Two-term growth exponent: lam = term1 + term2.

    term1 is the state-dependent phase-sum term at time t; term2 is the
    state-independent ln sqrt|kp*km|.  `degenerate` flags an exactly zero
    phase sum (the log is singular there).
    """

    lam: float
    term1: float
    term2: float
    degenerate: bool = False


def exponent_term2(model: CollisionModel) -> float:
    """ln sqrt|kp*km|, which is 0.190424... for the default matrix."""
    return 0.5 * math.log(model.dilation_product)


def exponent_estimate(series: SpectrumSeries, model: CollisionModel,
                      t: int) -> ExponentEstimate:
    """Evaluate the two-term exponent of the series' mode at step t.

    term1 = (1/t) ln|phase_sums[t] (k.xi_plus)| with the series' phase sum
    sum_{i affected} exp(-i k.X_i(t)) / N; the sum runs over affected
    particles only, since unaffected ones carry zero displacement and cannot
    contribute to the response.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    phase_sum = series.phase_sums[t] * float(series.mode.k_dot(model.xi_plus))
    term2 = exponent_term2(model)
    if phase_sum == 0:
        return ExponentEstimate(lam=math.nan, term1=math.nan, term2=term2, degenerate=True)
    term1 = math.log(abs(phase_sum)) / t
    return ExponentEstimate(lam=term1 + term2, term1=term1, term2=term2)


class GrowthFit(NamedTuple):
    slope: float
    intercept: float
    r2: float


def fit_growth(deltas: Sequence[complex] | np.ndarray,
               window: tuple[int, int]) -> GrowthFit:
    """Least-squares line through (t, ln|delta_t|) for t in [t_a, t_b].

    Refuses windows shorter than 3 steps, reaching outside the series, or
    containing zeros of |delta|.
    """
    t_a, t_b = window
    if t_b - t_a < 3:
        raise ValueError("fit window must span at least 3 steps")
    if t_a < 0 or t_b >= len(deltas):
        raise ValueError(f"fit window [{t_a}, {t_b}] reaches outside the series' "
                         f"steps 0..{len(deltas) - 1}")
    mags = np.abs(np.asarray(deltas)[t_a : t_b + 1])
    if np.any(mags == 0):
        raise ValueError("fit window contains zeros of |delta|; shrink the window")
    ts = np.arange(t_a, t_b + 1, dtype=float)
    ys = np.log(mags)
    t_mean, y_mean = ts.mean(), ys.mean()
    dt = ts - t_mean
    slope = float(np.sum(dt * (ys - y_mean)) / np.sum(dt * dt))
    intercept = float(y_mean - slope * t_mean)
    resid = ys - (slope * ts + intercept)
    ss_tot = float(np.sum((ys - y_mean) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return GrowthFit(slope=slope, intercept=intercept, r2=r2)


def fit_window(n_particles: int, steps: int) -> tuple[int, int]:
    """[2, min(steps, log2 N)], the pre-saturation regime, widened to 5 steps.

    The affected set at most doubles per step, so no run of N particles
    saturates before step floor(log2 N), whatever its pairing.
    """
    upper = min(steps, int(math.floor(math.log2(n_particles))))
    return (2, max(upper, min(5, steps)))
