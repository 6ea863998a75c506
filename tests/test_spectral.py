import hashlib
import itertools
import math
import os
import subprocess
import sys
import weakref
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from arnoldgas import gas, spectral
from arnoldgas.gas import RunConfig
from arnoldgas.spectral import ModeIndex


class TestFourierComponent:
    def test_single_particle_quarter_turn(self):
        value = spectral.fourier_component(np.array([[0.25, 0.0]]), ModeIndex(1, 0))
        assert value == pytest.approx(-1j, abs=1e-12)

    def test_no_points_refused(self):
        with pytest.raises(ValueError, match="at least one particle"):
            spectral.fourier_component(np.empty((0, 2)), ModeIndex(1, 0))

    def test_zero_mode_counts_particles(self):
        pts = np.random.default_rng(0).random((37, 2))
        value = spectral.fourier_component(pts, ModeIndex(0, 0))
        assert value == pytest.approx(37.0, abs=1e-9)

    def test_uniform_gas_modes_are_small(self):
        # random-phase sum: |ntilde_k| < 5/sqrt(N) essentially always
        n = 10_000
        hits = 0
        for seed in range(100):
            pts = np.random.default_rng(seed).random((n, 2))
            value = spectral.fourier_component(pts, ModeIndex(1, 0)) / n
            hits += abs(value) < 5 / math.sqrt(n)
        assert hits >= 99

    def test_conjugate_symmetry(self):
        pts = np.random.default_rng(3).random((128, 2))
        for m1, m2 in [(1, 0), (0, 1), (2, -3), (-4, 4)]:
            nk = spectral.fourier_component(pts, ModeIndex(m1, m2))
            nmk = spectral.fourier_component(pts, ModeIndex(-m1, -m2))
            assert nmk == pytest.approx(nk.conjugate(), abs=1e-9)

    def test_magnitude_bounded_by_n(self):
        pts = np.random.default_rng(4).random((64, 2))
        for mode in spectral.enumerate_modes(2):
            assert abs(spectral.fourier_component(pts, mode)) <= 64 + 1e-9


class TestDeltaSeries:
    def test_zero_tangents_give_zero_linear_estimate(self, model):
        states = list(gas.evolve(RunConfig(n_particles=16, steps=4, seed=0), model))
        for state in states:
            state.tangents[:] = 0.0
        series = spectral.delta_series(states, [ModeIndex(1, 0)])[0]
        assert np.all(series.deltas_linear == 0)

    def test_initial_single_particle_magnitude(self, model):
        eps = 1e-9
        config = RunConfig(n_particles=64, steps=2, epsilon=eps, seed=1)
        series = spectral.delta_series(gas.evolve(config, model), [ModeIndex(1, 0)])[0]
        kvec = 2 * math.pi * np.array([1.0, 0.0])
        expected = abs(kvec @ (eps * model.xi_plus)) / 64
        assert abs(series.deltas_linear[0]) == pytest.approx(expected, rel=1e-12)

    def test_zero_mode_rejected(self, model):
        states = gas.evolve(RunConfig(n_particles=8, steps=2, seed=0), model)
        with pytest.raises(ValueError, match="zero mode"):
            spectral.delta_series(states, [ModeIndex(0, 0)])

    def test_no_modes_give_no_series(self, model):
        states = gas.evolve(RunConfig(n_particles=8, steps=2, seed=0, twin=True), model)
        assert spectral.delta_series(states, []) == []

    def test_no_states_rejected(self):
        with pytest.raises(ValueError, match="at least one gas state"):
            spectral.delta_series([], [ModeIndex(1, 0)])

    def test_normalization_mode_value(self, model):
        states = gas.evolve(RunConfig(n_particles=32, steps=3, seed=2), model)
        series = spectral.delta_series(states, [ModeIndex(1, 1)])[0]
        assert np.all(np.abs(series.values) <= 1 + 1e-12)

    def test_linear_matches_twin(self, model):
        config = RunConfig(n_particles=64, steps=10, epsilon=1e-9, seed=6, twin=True)
        series = spectral.delta_series(gas.evolve(config, model), [ModeIndex(1, 0)])[0]
        for t in range(11):
            twin, lin = series.deltas_twin[t], series.deltas_linear[t]
            assert abs(lin - twin) < 1e-3 * max(abs(twin), 1e-15)


def _longdouble_wave(points, mode):
    two_pi = 8 * np.arctan(np.longdouble(1))
    pts = points.astype(np.longdouble)
    phase = two_pi * (mode.m1 * pts[:, 0] + mode.m2 * pts[:, 1])
    return np.cos(phase), -np.sin(phase)


class TestModeSeries:
    def test_matches_per_mode_exp_oracle(self, model):
        # The power recursion and the oracle's rounded phase 2*pi*(m . X) both
        # err by a few ulp per unit of |m1| + |m2|, so the bound grows linearly in it.
        eps = np.finfo(float).eps
        states = list(gas.evolve(RunConfig(n_particles=200, steps=8, seed=3, twin=True), model))
        n = 200
        modes = spectral.enumerate_modes(8)
        for series in spectral.delta_series(states, modes):
            mode = series.mode
            order = abs(mode.m1) + abs(mode.m2)
            kvec = 2 * math.pi * np.array([mode.m1, mode.m2], dtype=float)
            for t, state in enumerate(states):
                pts, tangents = state.points, state.tangents
                value = spectral.fourier_component(pts, mode) / n
                assert abs(series.values[t] - value) <= 8 * order * eps
                k_dot_d = tangents @ kvec
                linear = (-1j / n) * (np.exp(-1j * (pts @ kvec)) * k_dot_d).sum()
                scale = np.abs(k_dot_d).mean()
                assert abs(series.deltas_linear[t] - linear) <= 8 * order * eps * scale
                affected = state.affected
                phase = np.exp(-1j * (pts[affected] @ kvec)).sum() / n
                assert abs(series.phase_sums[t] - phase) <= 8 * order * eps

    def test_twin_delta_no_farther_from_extended_precision_than_full_sums(self, model):
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("np.longdouble has no extra precision on this platform")
        config = RunConfig(n_particles=1024, steps=10, seed=0, pairing="tree", twin=True)
        states = list(gas.evolve(config, model))
        n = config.n_particles
        worst_new = worst_full = 0.0
        for series in spectral.delta_series(states, spectral.enumerate_modes(2)):
            mode = series.mode
            kvec = 2 * math.pi * np.array([mode.m1, mode.m2], dtype=float)
            for t, state in enumerate(states):
                ref, twin = state.points, state.twin_points
                ref_re, ref_im = _longdouble_wave(ref, mode)
                twin_re, twin_im = _longdouble_wave(twin, mode)
                exact = complex(float((twin_re - ref_re).sum() / n),
                                float((twin_im - ref_im).sum() / n))
                full = (np.exp(-1j * (twin @ kvec)).sum() / n
                        - np.exp(-1j * (ref @ kvec)).sum() / n)
                worst_new = max(worst_new, abs(series.deltas_twin[t] - exact) / abs(exact))
                worst_full = max(worst_full, abs(full - exact) / abs(exact))
        assert worst_new <= worst_full

    def test_executor_gives_identical_result(self, model):
        states = list(gas.evolve(RunConfig(n_particles=128, steps=6, seed=2, twin=True), model))
        modes = spectral.enumerate_modes(2)
        serial = spectral.delta_series(states, modes)
        pooled = spectral.delta_series(states, modes, threads=4)
        assert_same_series(serial, pooled)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_shot_generator_equals_list(self, model, threads):
        # the gas advances while pool workers still read earlier states
        config = RunConfig(n_particles=255, steps=9, seed=4, pairing="tree", twin=True)
        modes = spectral.enumerate_modes(2)
        from_list = spectral.delta_series(list(gas.evolve(config, model)), modes)
        streamed = spectral.delta_series(gas.evolve(config, model), modes, threads)
        assert_same_series(from_list, streamed)

    @pytest.mark.parametrize("threads", [1, 2], ids=["threads=1", "threads=2"])
    def test_pass_holds_few_states(self, model, threads):
        # GasState cannot be hashed, so each drawn state gets a finalizer, which
        # stays alive as long as its state does
        config = RunConfig(n_particles=4096, steps=24, seed=1, pairing="tree", twin=True)
        finalizers, peak = [], 0

        def counted_states():
            nonlocal peak
            for state in gas.evolve(config, model):
                finalizers.append(weakref.finalize(state, lambda: None))
                peak = max(peak, sum(f.alive for f in finalizers))
                yield state

        series = spectral.delta_series(counted_states(), spectral.enumerate_modes(4), threads)
        assert len(series[0].values) == 25
        assert peak <= 2 * threads + 1


def assert_same_series(expected, got):
    """Bit for bit, so that +0 and -0 differ."""
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert a.mode == b.mode
        for name in ("values", "deltas_linear", "phase_sums", "deltas_twin"):
            want, have = getattr(a, name), getattr(b, name)
            assert (want is None) == (have is None), (a.mode, name)
            if want is not None:
                assert want.tobytes() == have.tobytes(), (a.mode, name)


def _reference_powers(z, exponents):
    top = max(abs(m) for m in exponents)
    positive = [None, z]
    for _ in range(2, top + 1):
        positive.append(positive[-1] * z)
    return {m: positive[m] if m > 0 else np.conj(positive[-m])
            for m in exponents if m != 0}


def _reference_waves(points, modes):
    m1s = {mode.m1 for mode in modes} - {0}
    m2s = {mode.m2 for mode in modes} - {0}
    zx = _reference_powers(spectral.unit_wave(points[:, 0]), m1s) if m1s else {}
    zp = _reference_powers(spectral.unit_wave(points[:, 1]), m2s) if m2s else {}
    for mode in modes:
        if mode.m1 == 0:
            yield zp[mode.m2]
        elif mode.m2 == 0:
            yield zx[mode.m1]
        else:
            yield zx[mode.m1] * zp[mode.m2]


def _block_sum(values):
    """0 + s_0 + s_1 + ... over consecutive blocks of BLOCK values, in order."""
    total = 0j
    for start in range(0, len(values), spectral.BLOCK):
        total += values[start:start + spectral.BLOCK].sum()
    return total


def _chunk_sum(waves, unaffected):
    """0 + s_0 + s_1 + ... where s_c sums the unaffected waves of the c-th
    CHUNK slice of the particles."""
    total = 0j
    for start in range(0, len(waves), spectral.CHUNK):
        chunk = slice(start, start + spectral.CHUNK)
        total += waves[chunk][unaffected[chunk]].sum()
    return total


def reference_series(states, modes):
    """Every mode summed on its own, over fresh whole-row arrays and full
    gathers cut into slices only for the sums: the reference that the +-k
    fill and the reused block arrays must match bit for bit.  The value sum
    is the unaffected waves' partial sums per CHUNK slice, then the affected
    waves' block sums.  Its waves come from the same kernel, so that the
    bits can agree at all; the kernel has its own tests against decimal
    arithmetic."""
    rows = []
    for state in states:
        affected = np.flatnonzero(state.affected)
        tangents = np.take(state.tangents, affected, axis=0)
        has_twin = state.twin_points is not None
        twin_waves = (list(_reference_waves(np.take(state.twin_points, affected, axis=0), modes))
                      if has_twin else [None] * len(modes))
        sums = np.zeros((4, len(modes)), dtype=complex)
        for j, (mode, wave, twin_wave) in enumerate(
                zip(modes, _reference_waves(state.points, modes), twin_waves)):
            affected_wave = wave[affected]
            k_dot = 2.0 * math.pi * (mode.m1 * tangents[..., 0] + mode.m2 * tangents[..., 1])
            sums[1, j] = _block_sum(affected_wave * k_dot)
            if twin_wave is not None:
                sums[2, j] = _block_sum(twin_wave - affected_wave)
            sums[3, j] = _block_sum(affected_wave)
            sums[0, j] = _chunk_sum(wave, ~state.affected) + sums[3, j]
        rows.append(sums)
    n = states[-1].n_particles
    values, linear, twin, phase = np.stack(rows, axis=2)
    return [spectral.SpectrumSeries(
        mode=mode, values=(values / n)[j], deltas_linear=((-1j / n) * linear)[j],
        phase_sums=(phase / n)[j], deltas_twin=(twin / n)[j] if has_twin else None)
        for j, mode in enumerate(modes)]


MODE_LISTS = {
    "order 4": spectral.enumerate_modes(4),
    "(-1,0) alone": [ModeIndex(-1, 0)],
    "mirrored only": [ModeIndex(0, -2), ModeIndex(1, -1)],
    "pair": [ModeIndex(2, 1), ModeIndex(-2, -1)],
    "order 2 reversed": spectral.enumerate_modes(2)[::-1],
}


class TestConjugateFill:
    """One mode of each +-k pair is summed and the other filled in; the
    per-worker arrays are reused across rows.  Neither may change a bit."""

    @pytest.mark.parametrize("modes", MODE_LISTS.values(), ids=MODE_LISTS.keys())
    @pytest.mark.parametrize("n", [255, 256, 4096])
    @pytest.mark.parametrize("pairing,twin", [("random", True), ("tree", True),
                                              ("tree", False)])
    def test_bitwise_equal_to_per_mode_sums(self, model, modes, n, pairing, twin):
        # tree pairing saturates by step log2(n) + 1, so later rows are saturated
        config = RunConfig(n_particles=n, steps=14, seed=n, pairing=pairing, twin=twin)
        states = list(gas.evolve(config, model))
        assert_same_series(reference_series(states, modes),
                          spectral.delta_series(states, modes, threads=2))

    def test_lattice_states_keep_exact_zeros_positive(self):
        # On the quarter grid every wave is one of 1, -i, -1, i, so many sums
        # are exact zeros; filling -x in place of 0.0 - x would give -0.
        rng = np.random.default_rng(16)
        modes = spectral.enumerate_modes(3)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            states = []
            for t in range(15):
                affected = rng.random(n) < rng.choice([0.0, 0.5, 1.0])
                points = rng.integers(0, 4, (n, 2)) / 4
                tangents = np.where(affected[:, None], rng.integers(-4, 5, (n, 2)) / 4, 0.0)
                twin = np.where(affected[:, None], rng.integers(0, 4, (n, 2)) / 4, points)
                states.append(gas.GasState(points=points, tangents=tangents,
                                           affected=affected, t=t, twin_points=twin))
            assert_same_series(reference_series(states, modes),
                              spectral.delta_series(states, modes))

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_no_stale_arrays_between_calls(self, model, threads):
        modes = spectral.enumerate_modes(2)
        for n in (64, 33, 64):
            config = RunConfig(n_particles=n, steps=8, seed=n, pairing="tree", twin=True)
            assert_same_series(spectral.delta_series(gas.evolve(config, model), modes),
                              spectral.delta_series(gas.evolve(config, model), modes, threads))


B = spectral.BLOCK
C = spectral.CHUNK


class TestBlockedRow:
    """Rows longer than one block: unaffected particles in CHUNK slices and
    affected ones gathered BLOCK at a time, each particle's waves formed once."""

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 3],
                             ids=["B-1", "B", "B+1", "2B+3"])
    @pytest.mark.parametrize("pairing", ["tree", "random"])
    @pytest.mark.parametrize("twin", [True, False], ids=["twin", "no-twin"])
    def test_bitwise_equal_to_per_mode_sums(self, model, n, pairing, twin):
        # Tree pairing saturates by step floor(log2 n) + 1.  At 2B+3 the row
        # before that has 2**14 = 2B affected particles, two gathered blocks,
        # and every unsaturated row's unaffected particles fall in one CHUNK slice
        # and a 3-particle tail.
        config = RunConfig(n_particles=n, steps=16, seed=n, pairing=pairing, twin=twin)
        states = list(gas.evolve(config, model))
        modes = MODE_LISTS["order 2 reversed"]
        assert_same_series(reference_series(states, modes),
                          spectral.delta_series(states, modes, threads=2))

    def test_value_blocks_added_in_order(self, model):
        # The unaffected particles span two full CHUNK slices and a tail, so
        # the order of the per-slice partial sums shows; the rows stay
        # unsaturated.
        config = RunConfig(n_particles=2 * C + 3, steps=4, seed=9, pairing="tree", twin=True)
        states = list(gas.evolve(config, model))
        assert all((~state.affected[:2 * C]).any() and (~state.affected[2 * C:]).any()
                   for state in states)
        modes = spectral.enumerate_modes(1)
        assert_same_series(reference_series(states, modes), spectral.delta_series(states, modes))

    @pytest.mark.parametrize("pairing", ["tree", "random"])
    @pytest.mark.parametrize("twin", [True, False], ids=["twin", "no-twin"])
    def test_each_wave_formed_once_per_row(self, model, monkeypatch, pairing, twin):
        # every particle's point, and an affected particle's twin point,
        # passes through the kernel once, on both axes
        counted = []
        call = spectral._TurnKernel.__call__

        def counting(kernel, x, out):
            counted.append(x.size)
            return call(kernel, x, out)

        monkeypatch.setattr(spectral._TurnKernel, "__call__", counting)
        n = 2 * B + 3
        config = RunConfig(n_particles=n, steps=16, seed=3, pairing=pairing, twin=twin)
        modes = spectral.enumerate_modes(2)
        for state in gas.evolve(config, model):
            counted.clear()
            spectral.delta_series([state], modes)
            affected = int(state.affected.sum())
            assert sum(counted) == 2 * ((n - affected) + affected * (1 + twin))

    def test_threads_give_identical_series(self, model):
        config = RunConfig(n_particles=2 * B + 3, steps=16, seed=5, pairing="tree", twin=True)
        states = list(gas.evolve(config, model))
        modes = spectral.enumerate_modes(2)
        serial = spectral.delta_series(states, modes, threads=1)
        for threads in (2, 4):
            assert_same_series(serial, spectral.delta_series(states, modes, threads))


def _machin_pi(digits):
    """pi = 16 atan(1/5) - 4 atan(1/239), each by its Taylor series: a value
    that does not come from the library's own constant."""
    def atan_inverse(x):
        term = total = 1 / Decimal(x)
        k = 1
        while abs(term) > Decimal(10) ** -(digits + 4):
            term, k = -term / (x * x), k + 2
            total += term / k
        return total

    with localcontext() as ctx:
        ctx.prec = digits + 8
        return 16 * atan_inverse(5) - 4 * atan_inverse(239)


PI = _machin_pi(60)
SPLIT = 1024  # the decimal reference's own table: exp(2*pi*i a/SPLIT)


def _decimal_cos_sin(phi, digits):
    """cos and sin of each Decimal in the object array phi by Taylor series,
    summed until the terms fall below 10**-digits."""
    cos, sin, term, k = np.full(len(phi), Decimal(1), dtype=object), phi, phi, 1
    while max(map(abs, term)) > Decimal(10) ** -digits:
        k += 1
        term = term * phi / k
        if k % 2 == 0:
            cos = cos + term if k % 4 == 0 else cos - term
        else:
            sin = sin + term if k % 4 == 1 else sin - term
    return cos, sin


def decimal_unit_wave(x, digits=30):
    """cos(2*pi*x) and -sin(2*pi*x) of each float x, as Decimals to about
    `digits` digits: x = a/SPLIT + b with a = floor(SPLIT x), and
    exp(2*pi*i x) is the product of the series at 2*pi*a/SPLIT and 2*pi*b."""
    with localcontext() as ctx:
        ctx.prec = digits + 8
        heads = np.array([Decimal(a) for a in range(SPLIT)], dtype=object) * (2 * PI / SPLIT)
        head_cos, head_sin = _decimal_cos_sin(heads, digits + 4)
        a = np.floor(np.asarray(x) * SPLIT)
        rest = np.array([Decimal(v) - Decimal(int(u)) / SPLIT for v, u in zip(x, a)],
                        dtype=object)
        rest_cos, rest_sin = _decimal_cos_sin(rest * (2 * PI), digits + 4)
        index = a.astype(np.int64) % SPLIT
        cos_a, sin_a = head_cos[index], head_sin[index]
        return cos_a * rest_cos - sin_a * rest_sin, -(sin_a * rest_cos + cos_a * rest_sin)


def _max_error(got, want):
    return max(abs(Decimal(g) - w) for g, w in zip(got, want))


class TestUnitWave:
    """The table kernel behind every mode wave, against decimal arithmetic."""

    M = spectral.TABLE_SIZE

    def test_error_at_most_2_to_minus_53_against_decimal(self):
        grid = np.arange(self.M) / self.M
        x = np.concatenate([np.random.default_rng(18).random(10**5), [0.0, 1 - 2.0**-53],
                            np.nextafter(grid, -1), np.nextafter(grid, 2)])
        wave = spectral.unit_wave(x)
        cos, minus_sin = decimal_unit_wave(x)
        # the documented bound: one rounding after the two-part table value,
        # plus the polynomials' truncation and the small terms' roundings
        bound = Decimal(2) ** -54 + Decimal("3e-18")
        assert bound < Decimal(2) ** -53
        assert _max_error(wave.real, cos) <= bound
        assert _max_error(wave.imag, minus_sin) <= bound

    def test_quarter_turns_are_exact(self):
        # bit for bit, so that every zero is +0
        wave = spectral.unit_wave([0.0, 0.25, 0.5, 0.75])
        expected = np.array([complex(1, 0), complex(0, -1), complex(-1, 0), complex(0, 1)])
        assert wave.tobytes() == expected.tobytes()

    def test_every_table_entry_is_correctly_rounded(self):
        table = spectral._turn_table()
        cos, minus_sin = decimal_unit_wave(np.arange(self.M) / self.M, digits=45)
        # Only the quarter turns have exact values, 0 and +-1, where the series
        # leaves a residue of about 1e-52: snap those to 0.
        def snapped(v):
            return Decimal(0) if abs(v) < Decimal(10) ** -40 else v

        for hi, lo, exact in [(table[0], table[2], cos), (table[1], table[3], minus_sin)]:
            rounded = np.array([float(snapped(v)) for v in exact])
            with localcontext() as ctx:
                ctx.prec = 60
                rest = np.array([float(snapped(v - Decimal(h)))
                                 for v, h in zip(exact, rounded.tolist())])
            # bit for bit, so that every zero is +0
            assert hi.tobytes() == rounded.tobytes()
            assert lo.tobytes() == rest.tobytes()

    def test_bits_independent_of_cpu_dispatch(self):
        code = ("import hashlib, sys, numpy as np; from arnoldgas import spectral; "
                "x = np.random.default_rng(7).random(10**5) * 4 - 2; "
                "sys.stdout.write(hashlib.sha256(spectral.unit_wave(x).tobytes()).hexdigest())")
        x = np.random.default_rng(7).random(10**5) * 4 - 2
        here = hashlib.sha256(spectral.unit_wave(x).tobytes()).hexdigest()
        src = Path(__file__).resolve().parents[1] / "src"
        for disabled in (None, "AVX512_SPR AVX512_ICL X86_V4 X86_V3"):
            env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
            env["PYTHONPATH"] = str(src)
            if disabled is not None:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            result = subprocess.run([sys.executable, "-c", code], env=env,
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            assert result.stdout == here, disabled


class TestExponentEstimate:
    def test_term2_closed_form(self, model):
        term2 = spectral.exponent_term2(model)
        assert term2 == pytest.approx(0.5 * math.log((5 + 3 * math.sqrt(5)) / 8), abs=1e-15)
        assert term2 == pytest.approx(0.1904241, abs=1e-7)
        # the commonly quoted rounded value
        assert term2 == pytest.approx(math.log(1.2), abs=0.01)

    def test_aligned_phases_term1(self, model):
        # all affected particles at the origin: the phase sum has modulus
        # (count/N) |k . xi_plus|, so term1 is computable by hand
        config = RunConfig(n_particles=8, steps=2, seed=0)
        states = list(gas.evolve(config, model))
        states[2].points[:] = 0.0
        states[2].affected[:] = True
        series = spectral.delta_series(states, [ModeIndex(1, 0)])[0]
        est = spectral.exponent_estimate(series, model, 2)
        k_dot_xi = 2 * math.pi * model.xi_plus[0]
        assert est.term1 == pytest.approx(math.log(abs(k_dot_xi)) / 2, rel=1e-12)
        assert est.lam == pytest.approx(est.term1 + est.term2, abs=1e-15)
        assert not est.degenerate

    def test_degenerate_zero_sum_flagged(self, model):
        states = list(gas.evolve(RunConfig(n_particles=8, steps=2, seed=0), model))
        states[2].affected[:] = False  # empty sum is exactly zero
        series = spectral.delta_series(states, [ModeIndex(1, 0)])[0]
        est = spectral.exponent_estimate(series, model, 2)
        assert est.degenerate
        assert math.isnan(est.lam)

    def test_requires_positive_time_and_nonzero_mode(self, model):
        states = list(gas.evolve(RunConfig(n_particles=8, steps=2, seed=0), model))
        series = spectral.delta_series(states, [ModeIndex(1, 0)])[0]
        with pytest.raises(ValueError):
            spectral.exponent_estimate(series, model, 0)
        # the estimate reads a mode's series, and the zero mode has none
        with pytest.raises(ValueError, match="zero mode"):
            spectral.delta_series(states, [ModeIndex(0, 0)])

    def test_large_tree_faithful_run_reports_both_terms(self, model):
        # The state-dependent term dominates negatively pre-saturation at this
        # scale; the estimator reports both terms so the asymptotic claim can
        # be examined rather than assumed.
        config = RunConfig(n_particles=2**16, steps=12, seed=0, pairing="tree")
        series = spectral.delta_series(gas.evolve(config, model), [ModeIndex(1, 0)])[0]
        est = spectral.exponent_estimate(series, model, 12)
        assert math.isfinite(est.lam)
        assert est.lam == pytest.approx(est.term1 + est.term2, abs=1e-15)
        assert est.term2 > 0
        assert est.term1 < 0  # phase sum over N particles is far below 1


class TestFitGrowth:
    def test_exact_exponential(self):
        ts = np.arange(0, 12)
        deltas = 1e-9 * np.exp(0.18 * ts)
        fit = spectral.fit_growth(deltas, (0, 11))
        assert fit.slope == pytest.approx(0.18, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_exponential_with_unit_phases(self):
        rng = np.random.default_rng(0)
        ts = np.arange(0, 15)
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, ts.size))
        deltas = 1e-9 * np.exp(0.53 * ts) * phases
        fit = spectral.fit_growth(deltas, (0, 14))
        assert fit.slope == pytest.approx(0.53, abs=1e-12)

    @pytest.mark.parametrize("seed,window", [(0, (0, 11)), (1, (2, 9)), (2, (5, 30)),
                                             (3, (17, 21))])
    def test_closed_form_matches_polyfit_oracle(self, seed, window):
        rng = np.random.default_rng(seed)
        ts = np.arange(0, 32)
        deltas = (1e-9 * np.exp(0.4 * ts + rng.normal(0, 0.5, ts.size))
                  * np.exp(1j * rng.uniform(0, 2 * math.pi, ts.size)))
        fit = spectral.fit_growth(deltas, window)
        t_a, t_b = window
        t = np.arange(t_a, t_b + 1, dtype=float)
        y = np.log(np.abs(deltas[t_a : t_b + 1]))
        slope, intercept = np.polyfit(t, y, 1)
        resid = y - (slope * t + intercept)
        r2 = 1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
        assert fit.slope == pytest.approx(slope, rel=1e-12)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12)
        assert fit.r2 == pytest.approx(r2, rel=1e-12)

    def test_refuses_short_window(self):
        with pytest.raises(ValueError, match="at least 3"):
            spectral.fit_growth(np.ones(10), (2, 4))

    @pytest.mark.parametrize("window", [(2, 100), (-3, 3)])
    def test_refuses_window_outside_series(self, window):
        with pytest.raises(ValueError, match="outside the series"):
            spectral.fit_growth(np.ones(4), window)

    def test_refuses_zeros(self):
        deltas = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="zeros"):
            spectral.fit_growth(deltas, (0, 5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_non_finite(self, bad):
        deltas = np.array([1.0, 2.0, bad, 8.0, 16.0, 32.0])
        with pytest.raises(ValueError, match="non-finite"):
            spectral.fit_growth(deltas, (0, 5))

    def test_tree_faithful_ensemble_slope(self, model):
        # pre-saturation growth of |delta ntilde_(1,0)| across seeds
        slopes = []
        window = spectral.fit_window(2**10, 10)
        for seed in range(40):
            config = RunConfig(n_particles=2**10, steps=10, seed=seed, pairing="tree")
            series = spectral.delta_series(gas.evolve(config, model), [ModeIndex(1, 0)])[0]
            slopes.append(spectral.fit_growth(series.deltas_linear, window).slope)
        assert np.median(slopes) >= math.log(1.2) - 0.05

    @pytest.mark.parametrize("pairing", ["random", "tree"])
    def test_fit_window_needs_no_trajectory(self, model, pairing):
        # The window once also took min with the run's saturation step.  The
        # affected set at most doubles per step, so no run saturates before
        # step floor(log2 N) and that clause never binds; it is the oracle here.
        for n, steps in itertools.product([2, 3, 8, 255, 256, 1000, 1024], [0, 1, 4, 12, 30]):
            traj = gas.run_paired(RunConfig(n_particles=n, steps=steps, pairing=pairing),
                                  model)
            upper = max(min(steps, math.floor(math.log2(n)), traj.saturation_step),
                        min(5, steps))
            assert spectral.fit_window(n, steps) == (2, upper)


def test_every_low_mode_grows_in_tree_mode(model):
    """Ensemble-median slope is positive for every nonzero mode |m| <= 4."""
    modes = spectral.enumerate_modes(4)
    n_seeds = 100
    slopes = np.zeros((n_seeds, len(modes)))
    for s in range(n_seeds):
        config = RunConfig(n_particles=2**8, steps=8, seed=s, pairing="tree")
        traj, states = gas.with_diagnostics(config, gas.evolve(config, model))
        all_series = spectral.delta_series(states, modes)
        # window from first step with >= 4 affected particles to saturation
        t_lo = int(np.nonzero(traj.affected_count >= 4)[0][0])
        t_hi = int(traj.saturation_step)
        for k, series in enumerate(all_series):
            slopes[s, k] = spectral.fit_growth(series.deltas_linear, (t_lo, t_hi)).slope
    assert np.all(np.median(slopes, axis=0) > 0)


def test_enumerate_modes_count():
    assert len(spectral.enumerate_modes(4)) == (2 * 4 + 1) ** 2 - 1
