"""Fourier components of the phase-space density and their growth.

For N particles in the unit square the density mode at wavevector
k = 2*pi*(m1, m2) is

    n_k(t) = sum_i exp(-i k . X_i(t)),      ntilde_k = n_k / N.

A one-particle perturbation of size eps shifts the modes by Delta ntilde_k.
Two instruments are provided: the exact difference of a twin (perturbed)
simulation against the reference, and the tangent-linear estimate

    Delta ntilde_k(t) ~= (-i/N) sum_i exp(-i k . X_i(t)) (k . dX_i(t)).

`mode_series` computes every requested mode in one pass over a run's gas
states, one row per state, so it can read them as `gas.evolve` yields them.
Because k = 2*pi*(m1, m2) with integer m, each wave factorises as
exp(-i k . X) = z_x**m1 * z_p**m2 with z = exp(-2*pi*i*coord): two `exp`
calls per row serve every mode, positive powers come from repeated
multiplication and negative ones are conjugates.
The rounding error of z**m grows about linearly in |m|.

Off the affected set of a row the tangents are exactly zero and the embedded
twin's points are bitwise equal to the reference points, so the tangent-linear
sum and the twin difference run over affected particles only.  The twin delta
is sum_{i affected} (w_twin,i - w_ref,i) / N rather than the difference of two
full N-particle sums, which avoids cancelling two O(1) sums to get an O(eps)
result.

The per-collision growth exponent of |Delta ntilde_k| is estimated either by
a least-squares fit of ln|Delta ntilde_k(t)| or by the two-term closed-form
estimator whose state-independent part equals ln sqrt|kp*km| ~= 0.190424 for
the default collision matrix (often quoted rounded as ln 1.2 ~= 0.18).  Its
state-dependent part needs the phase sum sum_{i affected} exp(-i k . X_i(t)) / N,
which is the pass's fourth per-row sum, so the estimator forms no wave itself.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .gas import GasState, Trajectory
from .maps import CollisionModel

TWO_PI = 2.0 * math.pi


class ModeIndex(NamedTuple):
    """Integer mode (m1, m2); the wavevector is 2*pi*(m1, m2) on the unit torus."""

    m1: int
    m2: int

    @property
    def is_zero(self) -> bool:
        return self.m1 == 0 and self.m2 == 0


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
    phase = TWO_PI * (pts @ np.array([mode.m1, mode.m2], dtype=float))
    return complex(np.exp(-1j * phase).sum())


@dataclass
class SpectrumSeries:
    """Time series of one mode's normalized component and its perturbations."""

    mode: ModeIndex
    values: np.ndarray  # (steps+1,) complex ntilde_k(t) of the reference
    deltas_linear: np.ndarray  # (steps+1,) complex tangent-linear estimate
    phase_sums: np.ndarray  # (steps+1,) complex sum_{i affected} exp(-i k.X_i) / N
    deltas_twin: np.ndarray | None = None  # exact twin difference when available


def _powers(z: np.ndarray, exponents) -> dict[int, np.ndarray]:
    """z**m for each nonzero m in `exponents`; |z| = 1, so z**-m = conj(z**m)."""
    top = max(abs(m) for m in exponents)
    positive = [None, z]
    for _ in range(2, top + 1):
        positive.append(positive[-1] * z)
    return {m: positive[m] if m > 0 else np.conj(positive[-m])
            for m in exponents if m != 0}


def _waves(points: np.ndarray, modes: Sequence[ModeIndex]) -> Iterator[np.ndarray]:
    """exp(-2*pi*i (m1 x + m2 p)) of every point, one array per mode, in order."""
    m1s = {mode.m1 for mode in modes} - {0}
    m2s = {mode.m2 for mode in modes} - {0}
    zx = _powers(np.exp(-1j * (TWO_PI * points[:, 0])), m1s) if m1s else {}
    zp = _powers(np.exp(-1j * (TWO_PI * points[:, 1])), m2s) if m2s else {}
    for mode in modes:
        if mode.m1 == 0:
            yield zp[mode.m2]
        elif mode.m2 == 0:
            yield zx[mode.m1]
        else:
            yield zx[mode.m1] * zp[mode.m2]


def mode_series(states: Iterable[GasState], modes: Sequence[ModeIndex],
                executor: Executor | None = None) -> list[SpectrumSeries]:
    """Per-step perturbation of every mode, tangent-linear and (when possible) exact.

    `states` are one run's states at t = 0, 1, ..., each read once; the exact
    route uses the run's embedded twin, when it has one.  Rows are
    independent; with an `executor` each state's row is submitted as the
    states are drawn, and the rows are reassembled in order, so the result
    does not depend on the worker count.
    """
    if any(mode.is_zero for mode in modes):
        raise ValueError("the zero mode is the conserved normalization; pick a nonzero mode")
    states = iter(states)
    first = next(states, None)
    if first is None:
        raise ValueError("mode analysis needs at least one gas state")
    n, has_twin = first.n_particles, first.twin_points is not None
    kvecs = [TWO_PI * np.array([mode.m1, mode.m2], dtype=float) for mode in modes]

    def row(state: GasState) -> np.ndarray:
        """Unnormalised (values, linear, twin, phase) sums of one state, one column per mode."""
        affected = np.flatnonzero(state.affected)
        tangents = np.take(state.tangents, affected, axis=0)
        twin_waves = (_waves(np.take(state.twin_points, affected, axis=0), modes)
                      if has_twin else repeat(None))
        sums = np.zeros((4, len(modes)), dtype=complex)
        waves = _waves(state.points, modes)
        for j, (kvec, wave, twin_wave) in enumerate(zip(kvecs, waves, twin_waves)):
            affected_wave = wave[affected]
            sums[0, j] = wave.sum()
            sums[1, j] = (affected_wave * (tangents @ kvec)).sum()
            if twin_wave is not None:
                sums[2, j] = (twin_wave - affected_wave).sum()
            sums[3, j] = affected_wave.sum()
        return sums

    rows = (executor.map if executor is not None else map)(row, chain([first], states))
    values, linear, twin, phase = np.stack(list(rows), axis=2)  # each (modes, steps+1)
    values = values / n
    linear = (-1j / n) * linear
    phase = phase / n
    twin = twin / n if has_twin else None
    return [SpectrumSeries(mode=mode, values=values[j], deltas_linear=linear[j],
                           phase_sums=phase[j],
                           deltas_twin=None if twin is None else twin[j])
            for j, mode in enumerate(modes)]


def delta_series(states: Iterable[GasState], mode: ModeIndex) -> SpectrumSeries:
    """`mode_series` for a single mode."""
    return mode_series(states, [mode])[0]


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
    kvec = TWO_PI * np.array([series.mode.m1, series.mode.m2], dtype=float)
    phase_sum = series.phase_sums[t] * float(kvec @ model.xi_plus)
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
    slope, intercept = np.polyfit(ts, ys, 1)
    resid = ys - (slope * ts + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return GrowthFit(slope=float(slope), intercept=float(intercept), r2=r2)


def default_fit_window(trajectory: Trajectory) -> tuple[int, int]:
    """[2, min(saturation step, log2 N)]: the pre-saturation exponential regime."""
    log2n = int(math.floor(math.log2(trajectory.n_particles)))
    t_sat = trajectory.saturation_step
    upper = min(trajectory.steps, log2n)
    if not math.isinf(t_sat):
        upper = min(upper, int(t_sat))
    upper = max(upper, min(5, trajectory.steps))
    return (2, upper)
