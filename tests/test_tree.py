import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arnoldgas import gas, maps, tree


class TestRunTree:
    def test_zero_stages_single_leaf(self, model):
        run = tree.run_tree(model, 0)
        assert run.n1.size == 1
        assert run.distinct[run.n1][0] == pytest.approx(model.xi_plus, rel=1e-12)

    def test_two_stage_multipliers(self, model):
        run = tree.run_tree(model, 2)
        mults = sorted(run.distinct[run.n1] @ model.xi_plus)
        expected = sorted([model.kp**2, model.kp * model.km,
                           model.km * model.kp, model.km**2])
        assert mults == pytest.approx(expected, rel=1e-12)
        assert sorted(abs(m) for m in mults) == pytest.approx(
            sorted([0.65451, 1.46353, 1.46353, 3.27254]), abs=1e-5)

    def test_three_stage_binomial_counts(self, model):
        run = tree.run_tree(model, 3)
        counts = np.bincount(run.n1, minlength=4)
        assert counts.tolist() == [1, 3, 3, 1]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_binomial_counts_exact(self, model, n):
        run = tree.run_tree(model, n)
        counts = np.bincount(run.n1, minlength=n + 1)
        assert counts.tolist() == [math.comb(n, k) for k in range(n + 1)]

    @pytest.mark.parametrize("n", range(0, 13))
    def test_leaf_displacement_closed_form_with_sign(self, model, n):
        # each leaf equals kp^n1 * km^n2 along xi_plus, sign (-1)^n2
        run = tree.run_tree(model, n)
        along = run.distinct[run.n1] @ model.xi_plus
        n2 = run.stages - run.n1
        expected = (model.kp ** run.n1.astype(float)) * (model.km ** n2.astype(float))
        assert along == pytest.approx(expected, rel=1e-12)
        signs = np.sign(along)
        assert np.array_equal(signs, (-1.0) ** n2)

    def test_memory_budget_refusal(self, model):
        with pytest.raises(tree.MemoryBudgetError, match="budget"):
            tree.run_tree(model, 40)

    def test_unit_norm_overflow_names_stages(self):
        # the unit leaves of this matrix overflow a float within the leaf budget
        model = maps.spectral_decompose([[9 * 10**18, 1], [9 * 10**18 - 1, 1]])
        with pytest.raises(ValueError, match="--stages 17 is too large") as info:
            tree.run_tree(model, 17)
        assert "--epsilon" not in str(info.value)
        tree.run_tree(model, 16)

    def test_invalid_args(self, model):
        with pytest.raises(ValueError):
            tree.run_tree(model, -1)


def times(k, d):
    """k @ row for every row of the (m, 2) array d, as explicit multiply-adds."""
    return np.column_stack([k[0, 0] * d[:, 0] + k[0, 1] * d[:, 1],
                            k[1, 0] * d[:, 0] + k[1, 1] * d[:, 1]])


def full_expansion(model, stages):
    """Every unit leaf of the tree, one row per leaf, as explicit multiply-adds."""
    d = model.xi_plus.reshape(1, 2)
    n1 = np.zeros(1, dtype=np.int64)
    for _ in range(stages):
        d = np.concatenate([times(model.k_plus, d), times(model.k_minus, d)])
        n1 = np.concatenate([n1 + 1, n1])
    return d, n1


def n1_rows(model, stages):
    """Row k: K- applied stages - k times, then K+ applied k times, to xi_plus."""
    rows = []
    for n1 in range(stages + 1):
        d = model.xi_plus.reshape(1, 2)
        for k in [model.k_minus] * (stages - n1) + [model.k_plus] * n1:
            d = times(k, d)
        rows.append(d)
    return np.concatenate(rows)


def written_leaves(run, eps):
    """(2^n, 2) leaf displacements as leaf_records writes them at eps."""
    records, n1 = tree.leaf_records(run, eps)
    return np.array([record[3:5] for record in records])[n1]


class TestDistinctLeaves:
    """The tree keeps one row per n1, each the multiply-adds of K- then K+;
    it expands to a full per-leaf expansion within rounding, with the same n1
    for every leaf, and leaf_records writes eps times those rows, rounded once."""

    @pytest.mark.parametrize("matrix", [[[1, 1], [1, 2]], [[2, 1], [1, 1]]],
                             ids=["default", "2,1,1,1"])
    @pytest.mark.parametrize("eps", [1e-9, 1.0])
    def test_expands_to_full_oracle_bitwise(self, matrix, eps):
        model = maps.spectral_decompose(matrix)
        for stages in range(15):
            run = tree.run_tree(model, stages)
            rows = n1_rows(model, stages)
            assert np.array_equal(run.distinct.view(np.uint64), rows.view(np.uint64)), stages
            d, n1 = full_expansion(model, stages)
            assert np.array_equal(run.n1, n1), stages
            leaves = run.distinct[run.n1]
            assert np.all(np.abs(leaves - d) <= 2e-15 * np.abs(d)), stages
            written = written_leaves(run, eps)
            assert np.array_equal(written.view(np.uint64),
                                  (eps * rows)[n1].view(np.uint64)), stages


class TestPathDilation:
    """|d| of a unit leaf is the product of |kp| per direct and |km| per switch."""

    @staticmethod
    def leaf_dilations(model, stages, n1):
        run = tree.run_tree(model, stages)
        return np.linalg.norm(run.distinct[run.n1][run.n1 == n1], axis=1)

    def test_two_direct(self, model):
        assert self.leaf_dilations(model, 2, 2) == pytest.approx([3.2725424859], abs=1e-9)

    def test_one_each_matches_product(self, model):
        assert self.leaf_dilations(model, 2, 1) == pytest.approx([1.4635254916] * 2, abs=1e-9)

    def test_empty_product(self, model):
        run = tree.run_tree(model, 0)
        assert np.linalg.norm(run.distinct[run.n1][0]) == pytest.approx(1.0)


class TestMeanDilations:
    def test_zero_stages(self, model):
        run = tree.run_tree(model, 0)
        assert tree.mean_dilations(run) == pytest.approx((1.0, 1.0), rel=1e-12)

    def test_two_stage_geometric(self, model):
        run = tree.run_tree(model, 2)
        geo, _ = tree.mean_dilations(run)
        assert geo == pytest.approx(1.4635254916, abs=1e-9)
        assert geo == pytest.approx(1.2097627**2, abs=1e-6)

    def test_four_stage_geometric_by_enumeration(self, model):
        run = tree.run_tree(model, 4)
        geo, _ = tree.mean_dilations(run)
        assert geo == pytest.approx(2.1419069, abs=1e-6)
        assert geo == pytest.approx(model.dilation_product**2, rel=1e-10)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_closed_forms(self, model, n):
        run = tree.run_tree(model, n)
        geo, arith = tree.mean_dilations(run)
        geo_c, arith_c = tree.mean_dilations_closed(model, n)
        assert geo == pytest.approx(geo_c, rel=1e-10)
        assert arith == pytest.approx(arith_c, rel=1e-10)
        # arithmetic mean is ((|kp|+|km|)/2)^n
        assert arith_c == pytest.approx(((abs(model.kp) + abs(model.km)) / 2) ** n, rel=1e-12)


class TestGasDilation:
    def test_zero_stages(self, model):
        run = tree.run_tree(model, 0)
        assert tree.gas_dilation(run) == pytest.approx(1.0, rel=1e-12)

    def test_four_stages_exceeds_bound(self, model):
        run = tree.run_tree(model, 4)
        value = tree.gas_dilation(run)
        assert value == pytest.approx(15.4217, abs=1e-3)
        assert value == pytest.approx(3.92705098**2, abs=1e-4)
        assert value >= 2**2

    def test_ten_stages_closed_form(self, model):
        # closed form (kp^2 + km^2)^(n/2) = ((9 + 3 sqrt5)/4)^(n/2)
        closed = tree.gas_dilation_closed(model, 10)
        assert closed == pytest.approx(((9 + 3 * math.sqrt(5)) / 4) ** 5, rel=1e-12)
        run = tree.run_tree(model, 10)
        assert tree.gas_dilation(run) == pytest.approx(closed, rel=1e-10)
        assert closed >= 2**5

    @pytest.mark.parametrize("n", [12, 16, 18])
    def test_bits_of_the_plain_formula(self, model, n):
        run = tree.run_tree(model, n)
        plain = float(np.sqrt(np.sum((run.distinct**2)[run.n1])))
        assert tree.gas_dilation(run) == plain

    @pytest.mark.parametrize("n", range(1, 13))
    def test_growth_ratio_and_bound(self, model, n):
        ratio = tree.gas_dilation_closed(model, n) / tree.gas_dilation_closed(model, n - 1)
        assert ratio == pytest.approx(1.9816787, abs=1e-6)
        assert ratio == pytest.approx(math.sqrt(model.kp**2 + model.km**2), rel=1e-10)
        assert tree.gas_dilation_closed(model, n) >= 2 ** (n / 2)


class TestSignificanceStage:
    """An ideal tree saturates N particles at stage ceil(log2 N); the
    tree-faithful gas realises it."""

    @pytest.mark.parametrize("n_particles,expected", [(2, 1), (1000, 10), (1024, 10), (1025, 11)])
    def test_saturation_stage(self, model, n_particles, expected):
        config = gas.RunConfig(n_particles=n_particles, steps=12, pairing="tree")
        assert gas.run_paired(config, model).saturation_step == expected

    def test_dilation_stage_reaches_sqrt_n(self, model):
        n = 0
        while tree.gas_dilation_closed(model, n) < math.sqrt(1024):
            n += 1
        # whole-gas dilation grows faster than 2^(n/2), so it reaches sqrt(N)
        # no later than the saturation stage log2 1024 = 10
        assert n <= 10


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_tree_matches_full_twin_simulation(seed):
    """Leaf tangents agree with two fully simulated trajectory ensembles.

    The same staged collision schedule is run on real phase points: every
    particle collides with a fresh uniformly drawn partner at each stage,
    identically in the reference and the eps-displaced twin ensemble.
    """
    model = maps.default_model()
    stages, eps = 12, 1e-9
    rng = np.random.default_rng(seed)

    ref = rng.random((1, 2))
    twin = (ref + eps * model.xi_plus) % 1.0
    for _ in range(stages):
        partners = rng.random((ref.shape[0], 2))
        r0, r1 = maps.collide_arrays(model, ref, partners)
        t0, t1 = maps.collide_arrays(model, twin, partners)
        ref = np.concatenate([r0, r1])
        twin = np.concatenate([t0, t1])

    run = tree.run_tree(model, stages)
    measured = maps.torus_diff_arrays(twin, ref)
    leaves = written_leaves(run, eps)
    rel = np.linalg.norm(measured - leaves) / np.linalg.norm(leaves)
    assert rel < 1e-4


@given(st.integers(min_value=0, max_value=14), st.integers(min_value=-1000, max_value=900))
@settings(max_examples=50, deadline=None)
def test_power_of_two_epsilon_scales_the_unit_cells_exactly(stages, k):
    """leaf_records at eps = 2^k writes the eps = 1 cells times 2^k, bit for bit."""
    run = tree.run_tree(maps.default_model(), stages)
    unit, n1 = tree.leaf_records(run, 1.0)
    records, scaled_n1 = tree.leaf_records(run, 2.0**k)
    assert scaled_n1 is n1
    assert [record[:3] for record in records] == [record[:3] for record in unit]
    cells = np.array([record[3:] for record in records])
    expected = np.array([[math.ldexp(cell, k) for cell in record[3:]] for record in unit])
    assert np.array_equal(cells.view(np.uint64), expected.view(np.uint64))
