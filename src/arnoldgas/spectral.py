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
one kernel call gives z on both axes of every point loaded, for every
mode; positive powers come from repeated multiplication and negative ones
are conjugates.
The rounding error of z**m grows about linearly in |m|.

The kernel (`_TurnKernel`, and `unit_wave` for a whole array) takes
exp(-2*pi*i*x) from a table of exp(-2*pi*i*j/M), M = 4096, kept in two parts,
and two short Taylor polynomials in the exact remainder of M x, after Tang,
ACM TOMS 15:144 (1989).  It uses real multiply, add, rint and a gather only,
errs by at most 2**-54 + 3e-18 in each component, and gives the same bits
whichever SIMD loops numpy picks.  `fourier_component` keeps `np.exp`: it is
the independent oracle of the tests.

A row forms each particle's waves once, for all modes at a time.  An
unaffected particle's waves feed the value sum only: the state is cut into
slices of CHUNK = 2 * BLOCK particles, BLOCK = 8192, and each slice's
unaffected points are compressed into one buffer and add one partial sum.
An affected particle's waves feed the other three sums: the affected
particles are gathered BLOCK at a time, each block's points beside its
twin's points in the same buffer, and the value sum ends with their phase
sum.  A saturated row, where every particle is affected, takes the same path
with an empty first pass.  Partial sums are added in order and BLOCK and
CHUNK are constants, so no sum depends on the worker count.  Each numpy call
spans up to CHUNK particles: with two or more workers, shorter calls spend
more time handing over the interpreter lock than working.  Each pool worker
owns CHUNK-sized arrays for the whole pass (powers of z and their
conjugates, wave product, the kernel's scratch, the point buffer, tangents
and one temporary), writes every one with `out=` and slices them, so its
memory is O(CHUNK * modes) whatever N is, and a row allocates no array that
grows with N but the index of its affected particles.

Only one mode of each +-k pair is summed: the canonical one, with m1 > 0, or
m1 = 0 and m2 > 0.  The other follows bit for bit, because its wave is the
conjugate and k . v(-m) = -(k . v(m)) exactly: its value, twin and phase sums
are (re, 0.0 - im) of the canonical mode's and its linear sum is
(0.0 - re, im).  The fill writes 0.0 - x, never -x, so that an exact zero
stays +0, as the direct sum gives it.

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

import functools
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
BLOCK = 8192  # particles per block of a mode row; a constant, so no sum depends on --threads
CHUNK = 2 * BLOCK  # points a worker's waves hold at once
TABLE_SIZE = 4096  # M: exp(-2*pi*i j/M) is tabulated for j = 0 .. M-1
# Taylor polynomials in u = M x - rint(M x), |u| <= 1/2, for theta = 2*pi*u/M:
# sin(theta) = u (S1 + S3 u^2) and 1 - cos(theta) = u^2 (C2 + C4 u^2).  With
# |theta| <= pi/M the first omitted terms are below 2.3e-18 and 3e-22.
_SIN1 = TWO_PI / TABLE_SIZE
_SIN3 = -_SIN1**3 / 6
_COS2 = _SIN1**2 / 2
_COS4 = -_SIN1**4 / 24
_PI = "3.14159265358979323846264338327950288419716939937510582097494459"
_TABLE_BITS = 170  # fixed-point fraction bits the table is computed with


@functools.cache
def _turn_table() -> np.ndarray:
    """Rows cos(2*pi*j/M), -sin(2*pi*j/M), each correctly rounded, then what
    each leaves over, correctly rounded: a (4, M) read-only array.

    Only the octant j <= M/8 is computed, in integers scaled by 2**170, by
    repeated rotation by exp(2*pi*i/M); its error stays below 2**-160, and an
    int / int quotient is correctly rounded.  The rest of the circle swaps and
    negates the octant, which is exact, so the quarter turns are exactly 1,
    -i, -1 and i.
    """
    one = 1 << _TABLE_BITS
    step = 2 * int(_PI.replace(".", "")) * one // 10 ** (len(_PI) - 2) // TABLE_SIZE
    rotate_c, rotate_s, term, k = one, 0, one, 0
    while term:  # Taylor series of exp(i step)
        k += 1
        term = term * step // one // k
        if k % 2:
            rotate_s += term if k % 4 == 1 else -term
        else:
            rotate_c += term if k % 4 == 0 else -term
    octant = TABLE_SIZE // 8
    rows = []  # cos hi, sin hi, cos lo, sin lo of each j
    c, s = one, 0
    for _ in range(octant + 1):
        hi_c, hi_s = c / one, s / one
        rows.append((hi_c, hi_s, (c - int(hi_c * one)) / one, (s - int(hi_s * one)) / one))
        c, s = ((c * rotate_c - s * rotate_s) >> _TABLE_BITS,
                (c * rotate_s + s * rotate_c) >> _TABLE_BITS)
    parts = np.array(rows).T
    # first quadrant: cos(pi/2 - a) = sin(a); then a quarter turn at a time.
    # 0.0 - x negates, so that every zero in the table is +0.
    cos_q = np.concatenate([parts[[0, 2]], parts[[1, 3], octant - 1:0:-1]], axis=1)
    sin_q = np.concatenate([parts[[1, 3]], parts[[0, 2], octant - 1:0:-1]], axis=1)
    cos = np.concatenate([cos_q, 0.0 - sin_q, 0.0 - cos_q, sin_q], axis=1)
    minus_sin = np.concatenate([0.0 - sin_q, 0.0 - cos_q, sin_q, cos_q], axis=1)
    table = np.stack([cos[0], minus_sin[0], cos[1], minus_sin[1]])
    table.flags.writeable = False
    return table


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
    deltas_twin: np.ndarray | None  # exact twin difference when available


def _canonical(mode: ModeIndex) -> ModeIndex:
    """The mode of mode's +-k pair with m1 > 0, or m1 = 0 and m2 > 0."""
    return mode if (mode.m1, mode.m2) > (0, 0) else ModeIndex(-mode.m1, -mode.m2)


class _TurnKernel:
    """exp(-2*pi*i*x) for up to `size` values of x at a time, in scratch arrays it owns.

    With M = TABLE_SIZE, j = rint(M x) and u = M x - j in [-1/2, 1/2] are exact,
    so exp(-2*pi*i*x) = T[j mod M] * exp(-i theta) with theta = 2*pi*u/M.  The
    table gives T and Taylor polynomials in u give s = sin(theta) and
    c = 1 - cos(theta); the product T * ((1 - c) - i s) is written out as

        re = Tr + ((tr + Ti s) - Tr c),    im = Ti + ((ti - Ti c) - Tr s),

    with T = (Tr + tr) + i (Ti + ti) in two parts, so each component is
    rounded once after its table value and errs by at most 2**-54 + 3e-18.
    Only real multiply, add, rint and a gather are used, so the bits do not
    depend on numpy's choice of SIMD loop.  x must be finite with
    |x| < 2**50, so that j fits the index array.
    """

    def __init__(self, size: int):
        self.table = _turn_table()
        self.scratch = np.empty((6, size))
        self.index = np.empty(size, np.intp)

    def __call__(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write exp(-2*pi*i*x) to out, a complex array of x's shape."""
        shape, size = out.shape, out.size
        turns, j, sin, t_re, t_im, rest = (row[:size].reshape(shape) for row in self.scratch)
        index = self.index[:size].reshape(shape)
        np.multiply(x, TABLE_SIZE, out=turns)
        np.rint(turns, out=j)
        u = np.subtract(turns, j, out=turns)
        np.copyto(index, j, casting="unsafe")
        np.bitwise_and(index, TABLE_SIZE - 1, out=index)
        u2 = np.multiply(u, u, out=j)
        np.multiply(u2, _SIN3, out=sin)
        np.add(sin, _SIN1, out=sin)
        np.multiply(sin, u, out=sin)
        one_minus_cos = np.multiply(u2, _COS4, out=turns)
        np.add(one_minus_cos, _COS2, out=one_minus_cos)
        np.multiply(one_minus_cos, u2, out=one_minus_cos)
        temp = j
        hi_re, hi_im, lo_re, lo_im = self.table
        # mode="clip" takes straight into out; "raise" buffers a copy
        np.take(hi_re, index, mode="clip", out=t_re)
        np.take(hi_im, index, mode="clip", out=t_im)
        np.take(lo_re, index, mode="clip", out=rest)
        np.add(rest, np.multiply(t_im, sin, out=temp), out=rest)
        np.subtract(rest, np.multiply(t_re, one_minus_cos, out=temp), out=rest)
        np.add(t_re, rest, out=out.real)
        np.take(lo_im, index, mode="clip", out=rest)
        np.subtract(rest, np.multiply(t_im, one_minus_cos, out=temp), out=rest)
        np.subtract(rest, np.multiply(t_re, sin, out=temp), out=rest)
        np.add(t_im, rest, out=out.imag)
        return out


def unit_wave(x) -> np.ndarray:
    """exp(-2*pi*i*x) of a float array, by the table kernel of the mode pass."""
    x = np.asarray(x, dtype=float)
    return _TurnKernel(x.size)(x, np.empty(x.shape, complex))


class _Waves:
    """exp(-2*pi*i (m1 x + m2 p)) for canonical modes, of up to CHUNK points.

    One kernel call gives z = exp(-2*pi*i coord) of every point on both axes;
    z**m with m > 0 comes by repeated multiplication, and conj(z_p**m) serves
    the negative m2 that a canonical mode can have.  The arrays are sized
    once and sliced to the points loaded.
    """

    def __init__(self, modes: Sequence[ModeIndex]):
        top = max((max(mode.m1, abs(mode.m2)) for mode in modes), default=1)
        self.kernel = _TurnKernel(2 * CHUNK)
        self.powers = np.empty((top, 2, CHUNK), complex)  # z**m at [m - 1, axis]
        self.conjugates = {m: np.empty(CHUNK, complex)
                           for m in sorted({-mode.m2 for mode in modes if mode.m2 < 0})}
        self.product = np.empty(CHUNK, complex)
        self.z = self.powers[:, :, :0]

    def load(self, points: np.ndarray) -> None:
        """Waves of the (n, 2) array points."""
        n = len(points)
        z = self.z = self.powers[:, :, :n]
        self.kernel(points.T, out=z[0])
        for m in range(1, len(z)):
            np.multiply(z[m - 1], z[0], out=z[m])
        for m, conjugate in self.conjugates.items():
            np.conjugate(z[m - 1, 1], out=conjugate[:n])

    def wave(self, mode: ModeIndex) -> np.ndarray:
        """The wave of `mode` at every loaded point, (n,)."""
        z = self.z
        if mode.m1 == 0:
            return z[mode.m2 - 1, 1]
        zx = z[mode.m1 - 1, 0]
        if mode.m2 == 0:
            return zx
        n = len(zx)
        zp = z[mode.m2 - 1, 1] if mode.m2 > 0 else self.conjugates[-mode.m2][:n]
        return np.multiply(zx, zp, out=self.product[:n])


class _RowArrays:
    """The CHUNK-sized arrays that one worker thread reuses for every row."""

    def __init__(self, modes: Sequence[ModeIndex]):
        self.modes = modes
        self.waves = _Waves(modes)
        self.points = np.empty((CHUNK, 2))  # unaffected points, or affected then twin points
        self.tangents = np.empty((BLOCK, 2))
        self.temp = np.empty(BLOCK, complex)
        self.k_dot = np.empty((2, BLOCK))

    def sums(self, state: GasState) -> np.ndarray:
        """Unnormalised (values, linear, twin, phase) sums of one state, one column per mode.

        Each particle's waves are formed once.  An unaffected particle's feed
        the value sum only, one partial sum per CHUNK slice of the state; an
        affected particle's, gathered BLOCK at a time beside its twin's, feed
        the other three, and the value sum ends with the phase sum.  Each sum
        adds its partial sums in order to 0; the twin sum stays 0 when the
        state has no twin.
        """
        sums = np.zeros((4, len(self.modes)), dtype=complex)
        values, linear, twin, phase = sums
        for start in range(0, state.n_particles, CHUNK):
            unaffected = ~state.affected[start:start + CHUNK]
            self.waves.load(np.compress(unaffected, state.points[start:start + CHUNK], axis=0,
                                        out=self.points[:np.count_nonzero(unaffected)]))
            for j, mode in enumerate(self.modes):
                values[j] += self.waves.wave(mode).sum()
        has_twin = state.twin_points is not None
        point_sets = [state.points, state.twin_points] if has_twin else [state.points]
        affected = np.flatnonzero(state.affected)
        for start in range(0, len(affected), BLOCK):
            index = affected[start:start + BLOCK]
            n = len(index)
            # mode="clip" takes straight into out; "raise" buffers a copy
            for k, points in enumerate(point_sets):
                np.take(points, index, axis=0, mode="clip", out=self.points[k * n:(k + 1) * n])
            tangents = np.take(state.tangents, index, axis=0, mode="clip",
                               out=self.tangents[:n])
            self.waves.load(self.points[:len(point_sets) * n])
            temp = self.temp[:n]
            for j, mode in enumerate(self.modes):
                waves = self.waves.wave(mode)
                wave = waves[:n]
                k_dot = mode.k_dot(tangents, out=self.k_dot[0, :n], scratch=self.k_dot[1, :n])
                phase[j] += wave.sum()
                linear[j] += np.multiply(wave, k_dot, out=temp).sum()
                if has_twin:
                    twin[j] += np.subtract(waves[n:], wave, out=temp).sum()
        values += phase
        return sums


def delta_series(states: Iterable[GasState], modes: Sequence[ModeIndex],
                 threads: int = 1) -> list[SpectrumSeries]:
    """Per-step perturbation of every mode, tangent-linear and (when possible) exact.

    `states` are one run's states at t = 0, 1, ..., each read once; each row
    takes the exact route from its own state's twin points, when it has
    them.  The calling thread draws each state and submits its row to a
    pool of `threads` workers; once more than 2*threads rows are waiting it
    waits for the oldest, so at most 2*threads + 1 states are alive.  Rows
    are kept in the order drawn, so the result does not depend on the
    worker count.  Each worker sums, under the caller's np.errstate, the
    canonical mode of every +-k pair in arrays it owns for the call; the
    other mode of the pair is filled in from it.
    """
    if (0, 0) in modes:
        raise ValueError("the zero mode is the conserved normalization; pick a nonzero mode")
    canonical = list(dict.fromkeys(map(_canonical, modes)))
    _turn_table()  # build the kernel's table once, before the workers ask for it
    workspace = threading.local()
    errors = np.geterr()  # pool threads do not inherit the caller's np.errstate

    def row(state: GasState) -> np.ndarray:
        if not hasattr(workspace, "arrays"):
            workspace.arrays = _RowArrays(canonical)
        with np.errstate(**errors):
            return workspace.arrays.sums(state)

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

    |delta_t| is the scalar `abs` of each value and its log is `math.log`,
    the libm routines, so the fit does not depend on numpy's SIMD loops and
    fitting the magnitudes a spectrum CSV holds gives the same bits as
    fitting the complex deltas they were written from.  Refuses windows
    shorter than 3 steps, reaching outside the series, or containing zeros
    or non-finite values of |delta|.
    """
    t_a, t_b = window
    if t_b - t_a < 3:
        raise ValueError("fit window must span at least 3 steps")
    if t_a < 0 or t_b >= len(deltas):
        raise ValueError(f"fit window [{t_a}, {t_b}] reaches outside the series' "
                         f"steps 0..{len(deltas) - 1}")
    mags = [abs(delta) for delta in deltas[t_a : t_b + 1]]
    if not all(map(math.isfinite, mags)):
        raise ValueError("fit window contains non-finite |delta|")
    if 0 in mags:
        raise ValueError("fit window contains zeros of |delta|; shrink the window")
    ts = np.arange(t_a, t_b + 1, dtype=float)
    ys = np.array([math.log(mag) for mag in mags])
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
