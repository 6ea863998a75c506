import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnoldgas import gas, maps, spectral
from arnoldgas.gas import GasState, RunConfig


class TestInitGas:
    def test_deterministic_for_fixed_seed(self, model):
        config = RunConfig(n_particles=2, steps=0, seed=42)
        a = gas.init_gas(config, model, np.random.default_rng(config.seed))
        b = gas.init_gas(config, model, np.random.default_rng(config.seed))
        assert np.array_equal(a.points, b.points)

    def test_single_affected_particle(self, model):
        state = gas.init_gas(RunConfig(n_particles=100, steps=0, seed=1), model,
                             np.random.default_rng(1))
        assert np.count_nonzero(state.affected) == 1
        assert state.affected[0]

    def test_tangent_norm_sum_is_epsilon(self, model):
        eps = 3e-7
        state = gas.init_gas(RunConfig(n_particles=16, steps=0, epsilon=eps, seed=5), model,
                             np.random.default_rng(5))
        norms = np.linalg.norm(state.tangents, axis=1)
        assert norms.sum() == pytest.approx(eps, rel=1e-12)

    def test_rejects_tiny_gas(self, model):
        with pytest.raises(ValueError):
            RunConfig(n_particles=1, steps=0)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            RunConfig(n_particles=2, steps=-1)


class TestStep:
    def test_zero_tangents_stay_zero(self, model):
        state = gas.init_gas(RunConfig(n_particles=16, steps=0, seed=3), model,
                             np.random.default_rng(3))
        state.tangents[:] = 0.0
        rng = np.random.default_rng(0)
        new, _ = gas.step(state, model, rng, "random")
        assert np.all(new.tangents == 0.0)

    def test_two_particles_both_affected_after_one_step(self, model):
        state = gas.init_gas(RunConfig(n_particles=2, steps=0, seed=3), model,
                             np.random.default_rng(3))
        new, pairs = gas.step(state, model, np.random.default_rng(0), "random")
        assert np.all(new.affected)
        assert pairs.shape == (2, 1)

    def test_affected_doubling_bound(self, model):
        config = RunConfig(n_particles=256, steps=0, seed=11)
        state = gas.init_gas(config, model, np.random.default_rng(config.seed))
        rng = np.random.default_rng(11)
        for t in range(1, 12):
            state, _ = gas.step(state, model, rng, "random")
            assert np.count_nonzero(state.affected) <= min(2**t, 256)

    def test_odd_particle_idles(self, model):
        state = gas.init_gas(RunConfig(n_particles=7, steps=0, seed=2), model,
                             np.random.default_rng(2))
        new, pairs = gas.step(state, model, np.random.default_rng(2), "random")
        assert pairs.shape == (2, 3)
        idle = set(range(7)) - set(pairs.ravel().tolist())
        assert len(idle) == 1
        i = idle.pop()
        assert np.array_equal(new.points[i], state.points[i])

    def test_points_stay_in_unit_square(self, model):
        state = gas.init_gas(RunConfig(n_particles=64, steps=0, seed=9), model,
                             np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for _ in range(20):
            state, _ = gas.step(state, model, rng, "random")
        assert np.all(state.points >= 0.0) and np.all(state.points < 1.0)


class TestPairings:
    @pytest.mark.parametrize("name", ["random", "tree", "Random", "tree ", "", "full"])
    def test_config_accepts_exactly_the_table_keys(self, name):
        if name in gas.PAIRINGS:
            assert RunConfig(n_particles=4, steps=1, pairing=name).pairing == name
        else:
            with pytest.raises(ValueError, match="pairing must be one of"):
                RunConfig(n_particles=4, steps=1, pairing=name)

    def test_step_refuses_an_unknown_name(self, model):
        config = RunConfig(n_particles=4, steps=1)
        state = gas.init_gas(config, model, np.random.default_rng(config.seed))
        with pytest.raises(ValueError, match="unknown pairing mode 'full'"):
            gas.step(state, model, np.random.default_rng(0), "full")

    @pytest.mark.parametrize("pairing", ["random", "tree"])
    @pytest.mark.parametrize("n", [255, 256])
    def test_matching_returns_contiguous_pair_rows(self, model, monkeypatch, pairing, n):
        state = twin_state(n, n // 2, seed=n)
        pairs = gas.PAIRINGS[pairing](state.affected, np.random.default_rng(n))
        assert pairs.shape == (2, n // 2)
        assert pairs.dtype == np.intp and pairs.flags.c_contiguous
        assert np.unique(pairs).size == pairs.size
        assert pairs.min() >= 0 and pairs.max() < n
        assert n - pairs.size == n % 2  # an odd particle idles

        # the point, tangent and twin pair sets, each in many pieces
        handed = []
        collide_pieces = gas._collide_pieces

        def spy(model, src, dst, pairs, rows, wrap):
            handed.append(pairs.flags.c_contiguous)
            collide_pieces(model, src, dst, pairs, rows, wrap=wrap)

        monkeypatch.setattr(gas, "PIECE", 5)
        monkeypatch.setattr(gas, "_collide_pieces", spy)
        gas.step(state, model, np.random.default_rng(n), pairing)
        assert handed == [True] * 3


def full_update(model, state, pairs):
    """One step that collides points, tangents and twin points on every pair."""
    i, j = pairs
    out = []
    for arr, collide in ((state.points, maps.collide_arrays),
                         (state.tangents, maps.collide_linear),
                         (state.twin_points, maps.collide_arrays)):
        arr = arr.copy()
        arr[i], arr[j] = collide(model, arr[i], arr[j])
        out.append(arr)
    affected = state.affected.copy()
    affected[i] |= state.affected[j]
    affected[j] |= state.affected[i]
    return (*out, affected)


def full_diagnostics(state):
    """The per-step diagnostics over all N particles."""
    norms = np.linalg.norm(state.tangents, axis=1)
    diff = maps.torus_diff_arrays(state.twin_points, state.points)
    return (np.count_nonzero(state.affected), np.sqrt(np.sum(norms**2)), norms.max(),
            np.median(norms), np.sqrt(np.sum(diff**2)))


def assert_diagnostics_match(state):
    count, norm, max_disp, median, twin = gas._diagnostics(state)
    ref = full_diagnostics(state)
    assert (count, max_disp, median) == (ref[0], ref[2], ref[3])
    # the sums run over fewer terms, in another order
    assert norm == pytest.approx(ref[1], rel=1e-14, abs=0.0)
    assert twin == pytest.approx(ref[4], rel=1e-14, abs=0.0)


def bits(a):
    return a.view(np.uint64) if a.dtype == float else a


class TestAffectedSetStep:
    """step collides tangents and twin points only on pairs that touch the
    affected set; the result must equal a full update bit for bit."""

    @pytest.mark.parametrize("pairing", ["random", "tree"])
    @pytest.mark.parametrize("n", [255, 256])
    def test_matches_full_update(self, model, pairing, n):
        config = RunConfig(n_particles=n, steps=0, seed=6, pairing=pairing, twin=True)
        rng = np.random.default_rng(config.seed)
        state = gas.init_gas(config, model, rng)
        partial = saturated = 0
        for _ in range(24):
            new, pairs = gas.step(state, model, rng, pairing)
            expected = full_update(model, state, pairs)
            got = (new.points, new.tangents, new.twin_points, new.affected)
            for g, e in zip(got, expected):
                assert np.array_equal(bits(g), bits(e))
            assert_diagnostics_match(new)
            state = new
            if state.affected.all():
                saturated += 1
            else:
                partial += 1
        assert partial >= 5 and saturated >= 5

    @pytest.mark.parametrize("pairing", ["random", "tree"])
    @pytest.mark.parametrize("n", [255, 256])
    def test_matches_full_update_in_pieces_of_5(self, model, monkeypatch, pairing, n):
        # every pair set and every diagnostics pass then spans many pieces,
        # the last one short
        monkeypatch.setattr(gas, "PIECE", 5)
        self.test_matches_full_update(model, pairing, n)

    @pytest.mark.parametrize("n", [255, 256])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_diagnostics_match_full_arrays(self, model, n, shift):
        # affected counts around N/2 put the median's middle positions on
        # either side of the zero norms of the unaffected particles
        assert_diagnostics_match(twin_state(n, n // 2 + shift, seed=n + shift))

    @pytest.mark.parametrize("n", [255, 256])
    @pytest.mark.parametrize("shift", [-1, 0, 1, "saturated"])
    def test_diagnostics_in_pieces_of_5(self, model, monkeypatch, n, shift):
        # a saturated state is read in slices, any other is gathered
        state = (twin_state(n, n, seed=n) if shift == "saturated"
                 else twin_state(n, n // 2 + shift, seed=n + shift))
        whole = gas._diagnostics(state)
        monkeypatch.setattr(gas, "PIECE", 5)
        assert_diagnostics_match(state)
        assert np.array(gas._diagnostics(state)).tobytes() == np.array(whole).tobytes()


def twin_state(n, count, seed):
    """A twin state of n particles, count of them affected."""
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    tangents = np.zeros((n, 2))
    affected = np.zeros(n, dtype=bool)
    chosen = rng.permutation(n)[:count]
    affected[chosen] = True
    tangents[chosen] = rng.normal(size=(count, 2)) * 1e-9
    tangents[chosen[0]] = 0.0  # an affected particle may carry no displacement
    twin_points = maps._wrap_unit(points + tangents)
    return GasState(points=points, tangents=tangents, affected=affected, t=0,
                    twin_points=twin_points)


class TestBoundedMemory:
    """A run holds its live states plus fixed scratch."""

    def test_step_and_diagnostics_transients_below_the_state(self, model):
        # the arrays a saturated twin step or its diagnostics allocate beyond
        # the states they return; scratch of PIECE rows is a third of the
        # state at this size
        config = RunConfig(n_particles=2**16, steps=0, seed=1, pairing="tree", twin=True)
        rng = np.random.default_rng(config.seed)
        state = gas.init_gas(config, model, rng)
        while not state.affected.all():
            state, _ = gas.step(state, model, rng, config.pairing)
        state_bytes = sum(array.nbytes for array in (state.points, state.tangents,
                                                     state.affected, state.twin_points))
        tracemalloc.start()
        try:
            new, pairs = gas.step(state, model, rng, config.pairing)
            current, peak = tracemalloc.get_traced_memory()
            step_transient = peak - current
            tracemalloc.reset_peak()
            gas._diagnostics(new)
            current, peak = tracemalloc.get_traced_memory()
            diagnostics_transient = peak - current
        finally:
            tracemalloc.stop()
        assert step_transient < 0.75 * state_bytes
        assert diagnostics_transient < 0.75 * state_bytes

    @pytest.mark.parametrize("drain", ["run_paired", "analyse_gas"])
    def test_draining_a_run_keeps_two_states(self, model, monkeypatch, drain):
        # GasState cannot be hashed, so each state gets a finalizer, which
        # stays alive as long as its state does
        finalizers, alive_after_step, alive_in_diagnostics = [], [], []
        init_gas, step, diagnostics = gas.init_gas, gas.step, gas._diagnostics

        def tracked_init_gas(*args):
            state = init_gas(*args)
            finalizers.append(weakref.finalize(state, lambda: None))
            return state

        def tracked_step(*args):
            new, pairs = step(*args)
            finalizers.append(weakref.finalize(new, lambda: None))
            alive_after_step.append(sum(f.alive for f in finalizers))
            return new, pairs

        def tracked_diagnostics(state):
            alive_in_diagnostics.append(sum(f.alive for f in finalizers))
            return diagnostics(state)

        monkeypatch.setattr(gas, "init_gas", tracked_init_gas)
        monkeypatch.setattr(gas, "step", tracked_step)
        monkeypatch.setattr(gas, "_diagnostics", tracked_diagnostics)
        config = RunConfig(n_particles=256, steps=12, seed=1, pairing="tree", twin=True)
        if drain == "run_paired":
            gas.run_paired(config, model)
        else:
            spectral.analyse_gas(config, model, [])
        assert len(finalizers) == 13
        # the state a step reads and the one it makes; then the new one alone
        assert max(alive_after_step) == 2
        assert alive_in_diagnostics == [1] * 13


class TestRunPaired:
    def test_step_zero_norm_is_epsilon(self, model):
        traj = gas.run_paired(RunConfig(n_particles=8, steps=0, epsilon=2e-8, seed=1), model)
        assert traj.norm[0] == pytest.approx(2e-8, rel=1e-12)

    def test_determinism_bit_identical(self, model):
        config = RunConfig(n_particles=128, steps=8, seed=77)
        a = list(gas.evolve(config, model))
        b = list(gas.evolve(config, model))
        assert len(a) == len(b) == 9
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.points, sb.points)
            assert np.array_equal(sa.tangents, sb.tangents)
        assert np.array_equal(gas.run_paired(config, model).affected_count,
                              gas.run_paired(config, model).affected_count)

    def test_pair_sums_conserved_every_step(self, model):
        config = RunConfig(n_particles=64, steps=0, seed=4)
        rng = np.random.default_rng(config.seed)
        state = gas.init_gas(config, model, rng)
        for _ in range(10):
            new, pairs = gas.step(state, model, rng, "random")
            i, j = pairs
            before = (state.points[i] + state.points[j]) % 1.0
            after = (new.points[i] + new.points[j]) % 1.0
            assert np.max(np.abs(maps.torus_diff_arrays(after, before))) < 1e-12
            state = new

    def test_affected_monotone(self, model):
        config = RunConfig(n_particles=64, steps=15, seed=8)
        traj = gas.run_paired(config, model)
        assert np.all(np.diff(traj.affected_count) >= 0)
        states = list(gas.evolve(config, model))
        for before, after in zip(states, states[1:]):
            assert np.all(after.affected | ~before.affected)

    @pytest.mark.parametrize("n", [255, 256])
    def test_yielded_states_are_never_written(self, model, n):
        # callers keep states, and pool threads read them while the gas advances
        config = RunConfig(n_particles=n, steps=12, seed=2, twin=True)
        kept, copies = [], []
        for state in gas.evolve(config, model):
            kept.append(state)
            copies.append([state.points.copy(), state.tangents.copy(),
                           state.affected.copy(), state.twin_points.copy()])
        for state, copy in zip(kept, copies):
            got = [state.points, state.tangents, state.affected, state.twin_points]
            for g, c in zip(got, copy):
                assert np.array_equal(bits(g), bits(c))

    def test_with_diagnostics_fills_rows_as_states_pass(self, model):
        config = RunConfig(n_particles=64, steps=6, seed=3, twin=True)
        states = list(gas.evolve(config, model))
        traj, passing = gas.with_diagnostics(config, states)
        for t, state in enumerate(passing):
            assert state is states[t]
            assert traj.affected_count[t] == np.count_nonzero(state.affected)
        expected = gas.run_paired(config, model)
        for name in ("affected_count", "norm", "max_disp", "median_disp", "twin_dist"):
            assert np.array_equal(getattr(traj, name), getattr(expected, name))

    def test_tree_pairing_doubles_exactly(self, model):
        traj = gas.run_paired(
            RunConfig(n_particles=1024, steps=12, seed=5, pairing="tree"), model)
        expected = [min(2**t, 1024) for t in range(13)]
        assert traj.affected_count.tolist() == expected
        assert traj.saturation_step == 10

    def test_random_pairing_saturates_within_twice_ideal(self, model):
        # ideal rate is log2 N = 10; saturation within 2*log2 N for >= 95% of seeds
        hits = 0
        seeds = range(100)
        for seed in seeds:
            traj = gas.run_paired(RunConfig(n_particles=1024, steps=20, seed=seed), model)
            hits += not math.isinf(traj.saturation_step)
        assert hits >= 95

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_twin_matches_tangents(self, model, seed):
        config = RunConfig(n_particles=64, steps=10, epsilon=1e-9, seed=seed, twin=True)
        *_, last = gas.evolve(config, model)
        diff = maps.torus_diff_arrays(last.twin_points, last.points)
        tangents = last.tangents
        rel = np.linalg.norm(diff - tangents) / np.linalg.norm(tangents)
        assert rel < 1e-4

    @pytest.mark.parametrize("pairing", ["random", "tree"])
    @pytest.mark.parametrize("n", [255, 256])
    def test_unaffected_particles_carry_no_perturbation(self, model, pairing, n):
        # spectral.delta_series sums tangents and twin differences over the
        # affected set only, which is exact because of these two facts
        config = RunConfig(n_particles=n, steps=7, seed=4, pairing=pairing, twin=True)
        states = list(gas.evolve(config, model))
        assert not states[-1].affected.all()
        for state in states:
            off = ~state.affected
            twin = state.twin_points[off]
            ref = state.points[off]
            assert np.array_equal(twin.view(np.uint64), ref.view(np.uint64))
            assert not np.any(state.tangents[off])

    def test_norm_growth_exponent_at_least_paper_rate(self, model):
        # ensemble-median per-step log growth of the gas norm, pre-saturation
        rates = []
        for seed in range(20):
            traj = gas.run_paired(RunConfig(n_particles=4096, steps=12, seed=seed), model)
            t_sat = traj.saturation_step
            upper = 12 if math.isinf(t_sat) else min(12, int(t_sat))
            logs = np.log(traj.norm[1 : upper + 1])
            rates.append(np.polyfit(np.arange(1, upper + 1), logs, 1)[0])
        assert np.median(rates) >= 0.18


class TestSignificanceTime:
    def test_two_particles(self, model):
        traj = gas.run_paired(RunConfig(n_particles=2, steps=3, epsilon=1e-9, seed=0), model)
        # after one collision the displacements are kp*eps and |km|*eps, whose
        # median 1.309*eps already exceeds eps
        assert gas.significance_time(traj) == 1

    def test_all_zero_tangents_sentinel(self, model):
        traj = gas.run_paired(RunConfig(n_particles=16, steps=5, seed=0), model)
        traj.median_disp[:] = 0.0
        assert gas.significance_time(traj) == math.inf

    def test_ensemble_within_paper_window(self, model):
        # paper's ideal time is log2 N = 10 steps; random matching is slower
        hits = 0
        for seed in range(30):
            traj = gas.run_paired(RunConfig(n_particles=1024, steps=30, seed=seed), model)
            t_s = gas.significance_time(traj)
            hits += (not math.isinf(t_s)) and 10 <= t_s <= 30
        assert hits >= 27  # >= 90% of seeds
