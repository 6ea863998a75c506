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
        assert state.n_affected == 1
        assert np.any(state.tangents[0]) and not np.any(state.tangents[1:])

    def test_tangent_norm_sum_is_epsilon(self, model):
        eps = 3e-7
        state = gas.init_gas(RunConfig(n_particles=16, steps=0, epsilon=eps, seed=5), model,
                             np.random.default_rng(5))
        norms = np.linalg.norm(state.tangents, axis=1)
        assert norms.sum() == pytest.approx(eps, rel=1e-12)

    def test_refuses_a_twin_that_cannot_resolve_epsilon(self, model):
        # at this seed particle 0's coordinates are too large for 1e-17 * xi+
        # to move them, so the twin would read 0 at every step
        config = RunConfig(n_particles=256, steps=8, epsilon=1e-17, pairing="tree", twin=True)
        with pytest.raises(ValueError, match="--epsilon 1e-17 .*--twin"):
            gas.init_gas(config, model, np.random.default_rng(config.seed))
        # without the twin the tangents carry any epsilon
        config = RunConfig(n_particles=256, steps=8, epsilon=1e-17, pairing="tree")
        assert gas.run_paired(config, model).norm[0] == pytest.approx(1e-17, rel=1e-12)

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
        new, order = gas.step(state, model, np.random.default_rng(0), "random")
        assert new.n_affected == 2
        assert sorted(order.tolist()) == [0, 1]

    def test_affected_doubling_bound(self, model):
        config = RunConfig(n_particles=256, steps=0, seed=11)
        state = gas.init_gas(config, model, np.random.default_rng(config.seed))
        rng = np.random.default_rng(11)
        for t in range(1, 12):
            state, _ = gas.step(state, model, rng, "random")
            assert state.n_affected <= min(2**t, 256)

    def test_odd_particle_idles(self, model):
        state = gas.init_gas(RunConfig(n_particles=7, steps=0, seed=2), model,
                             np.random.default_rng(2))
        new, order = gas.step(state, model, np.random.default_rng(2), "random")
        i, j = pair_rows(7, new.n_affected)
        assert i.size == 3
        idle = set(range(7)) - set(i.tolist()) - set(j.tolist())
        assert idle == {6 - 4 * (new.n_affected % 2)}  # row 2h if affected, else last
        i = idle.pop()
        assert np.array_equal(new.points[i], state.points[order[i]])

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
    def test_matching_returns_contiguous_pair_rows(self, pairing, n):
        # a gather order whose pairs are contiguous halves of the rows, the
        # ones that touch the affected set first; fewer and more affected
        # rows than unaffected ones
        for count in (n // 3, 2 * n // 3):
            rng = np.random.default_rng(n + count)
            order, affected = gas.PAIRINGS[pairing](n, count, rng)
            assert order.dtype == np.intp and order.shape == (n,)
            assert np.array_equal(np.sort(order), np.arange(n))
            was = order < count
            i, j = pair_rows(n, affected)
            assert i.size == n // 2
            assert (np.arange(i.size) < affected // 2).tolist() == (was[i] | was[j]).tolist()
            assert np.count_nonzero(was[:affected]) == count
            assert affected % 2 == 0 or was[affected - 1]  # an affected idle row
            if pairing == "tree":
                # every affected row meets an unaffected one while supplies last
                assert np.count_nonzero(was[i] != was[j]) == min(count, n - count)


def pair_rows(n, affected):
    """(i, j): the rows of each pair of a stepped state, read back from N
    and its n_affected."""
    return np.array([(start + k, start + count + k) for start, count in
                     gas.pair_blocks(n, affected) for k in range(count)],
                    dtype=np.intp).reshape(-1, 2).T


def full_update(model, state, new, order):
    """One step that collides points, tangents and twin points on every pair
    read back from the new state, gathered from the old rows by `order`;
    and the affected flags it spreads, in the new row order."""
    i, j = pair_rows(new.n_particles, new.n_affected)
    out = []
    for arr, collide in ((state.points, maps.collide_arrays),
                         (state.tangents, maps.collide_linear),
                         (state.twin_points, maps.collide_arrays)):
        arr = arr[order]
        arr[i], arr[j] = collide(model, arr[i], arr[j])
        out.append(arr)
    was = order < state.n_affected
    affected = was.copy()
    affected[i] |= was[j]
    affected[j] |= was[i]
    return (*out, affected)


def full_diagnostics(state):
    """The per-step diagnostics over all N particles."""
    norms = np.linalg.norm(state.tangents, axis=1)
    diff = maps.torus_diff_arrays(state.twin_points, state.points)
    return (state.n_affected, np.sqrt(np.sum(norms**2)), norms.max(),
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
    affected set, in the layout of the module docstring; the result must
    equal a full update bit for bit."""

    @pytest.mark.parametrize("pairing", ["random", "tree"])
    @pytest.mark.parametrize("n", [255, 256])
    def test_matches_full_update(self, model, pairing, n):
        config = RunConfig(n_particles=n, steps=0, seed=6, pairing=pairing, twin=True)
        rng = np.random.default_rng(config.seed)
        state = gas.init_gas(config, model, rng)
        partial = saturated = 0
        for _ in range(24):
            new, order = gas.step(state, model, rng, pairing)
            assert np.array_equal(np.sort(order), np.arange(n))
            expected = full_update(model, state, new, order)
            got = (new.points, new.tangents, new.twin_points, np.arange(n) < new.n_affected)
            for g, e in zip(got, expected):
                assert np.array_equal(bits(g), bits(e))
            # the layout: nothing from row n_affected on carries a perturbation
            assert not np.any(new.tangents[new.n_affected:])
            assert np.array_equal(bits(new.twin_points[new.n_affected:]),
                                  bits(new.points[new.n_affected:]))
            assert_diagnostics_match(new)
            state = new
            if state.n_affected == n:
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
        # a partial and a saturated state are read in slices of 5
        state = (twin_state(n, n, seed=n) if shift == "saturated"
                 else twin_state(n, n // 2 + shift, seed=n + shift))
        whole = gas._diagnostics(state)
        monkeypatch.setattr(gas, "PIECE", 5)
        assert_diagnostics_match(state)
        assert np.array(gas._diagnostics(state)).tobytes() == np.array(whole).tobytes()


def twin_state(n, count, seed):
    """A twin state of n particles, the first count of them affected."""
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    tangents = np.zeros((n, 2))
    tangents[:count] = rng.normal(size=(count, 2)) * 1e-9
    tangents[count // 2] = 0.0  # an affected particle may carry no displacement
    twin_points = maps._wrap_unit(points + tangents)
    return GasState(points=points, tangents=tangents, n_affected=count, t=0,
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
        while state.n_affected < config.n_particles:
            state, _ = gas.step(state, model, rng, config.pairing)
        state_bytes = sum(array.nbytes for array in (state.points, state.tangents,
                                                     state.twin_points))
        tracemalloc.start()
        try:
            new, order = gas.step(state, model, rng, config.pairing)
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
            new, order = step(*args)
            finalizers.append(weakref.finalize(new, lambda: None))
            alive_after_step.append(sum(f.alive for f in finalizers))
            return new, order

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
            new, order = gas.step(state, model, rng, "random")
            i, j = pair_rows(64, new.n_affected)
            before = (state.points[order[i]] + state.points[order[j]]) % 1.0
            after = (new.points[i] + new.points[j]) % 1.0
            assert np.max(np.abs(maps.torus_diff_arrays(after, before))) < 1e-12
            state = new

    def test_affected_monotone(self, model):
        config = RunConfig(n_particles=64, steps=15, seed=8)
        traj = gas.run_paired(config, model)
        assert np.all(np.diff(traj.affected_count) >= 0)
        rng = np.random.default_rng(config.seed)
        before = gas.init_gas(config, model, rng)
        for _ in range(config.steps):
            after, order = gas.step(before, model, rng, config.pairing)
            # every affected row is gathered into the new affected rows
            assert np.all(order[after.n_affected:] >= before.n_affected)
            before = after

    @pytest.mark.parametrize("n", [255, 256])
    def test_yielded_states_are_never_written(self, model, n):
        # callers keep states, and pool threads read them while the gas advances
        config = RunConfig(n_particles=n, steps=12, seed=2, twin=True)
        kept, copies = [], []
        for state in gas.evolve(config, model):
            kept.append(state)
            copies.append([state.points.copy(), state.tangents.copy(),
                           state.twin_points.copy()])
        for state, copy in zip(kept, copies):
            got = [state.points, state.tangents, state.twin_points]
            for g, c in zip(got, copy):
                assert np.array_equal(bits(g), bits(c))

    def test_with_diagnostics_fills_rows_as_states_pass(self, model):
        config = RunConfig(n_particles=64, steps=6, seed=3, twin=True)
        states = list(gas.evolve(config, model))
        traj, passing = gas.with_diagnostics(config, states)
        for t, state in enumerate(passing):
            assert state is states[t]
            assert traj.affected_count[t] == state.n_affected
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
        assert states[-1].n_affected < n
        for state in states:
            off = slice(state.n_affected, None)
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
