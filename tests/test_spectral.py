import math
import weakref

import numpy as np
import pytest

from arnoldgas import gas, spectral
from arnoldgas.gas import RunConfig
from arnoldgas.spectral import ModeIndex


class TestFourierComponent:
    def test_single_particle_quarter_turn(self):
        value = spectral.fourier_component(np.array([[0.25, 0.0]]), ModeIndex(1, 0))
        assert value == pytest.approx(-1j, abs=1e-12)

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
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert a.mode == b.mode
        for name in ("values", "deltas_linear", "phase_sums", "deltas_twin"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


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

    def test_tree_faithful_ensemble_slope(self, model):
        # pre-saturation growth of |delta ntilde_(1,0)| across seeds
        slopes = []
        for seed in range(40):
            config = RunConfig(n_particles=2**10, steps=10, seed=seed, pairing="tree")
            traj, states = gas.with_diagnostics(config, gas.evolve(config, model))
            series = spectral.delta_series(states, [ModeIndex(1, 0)])[0]
            window = spectral.default_fit_window(traj)
            slopes.append(spectral.fit_growth(series.deltas_linear, window).slope)
        assert np.median(slopes) >= math.log(1.2) - 0.05


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
