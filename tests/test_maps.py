import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arnoldgas import maps, tree

SQRT5 = math.sqrt(5.0)

unit_coord = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                       allow_nan=False, allow_infinity=False)
phase_points = st.tuples(unit_coord, unit_coord).map(np.array)


@st.composite
def hyperbolic_unimodular(draw):
    """An integer [[a, b], [c, d]] with det 1 and trace > 2, off-diagonal entries
    of either sign: b runs over the divisors of a d - 1 and c = (a d - 1) / b."""
    a, d = draw(st.tuples(st.integers(-20, 20), st.integers(-20, 20))
                .filter(lambda ad: sum(ad) > 2))
    n = a * d - 1  # nonzero, since a d = 1 would force trace +-2
    b = draw(st.sampled_from([b for b in range(1, abs(n) + 1) if n % b == 0]))
    b *= draw(st.sampled_from([1, -1]))
    return np.array([[a, b], [n // b, d]])


def pair(x0, x1):
    """One pair as two (1, 2) arrays."""
    return np.array([x0], dtype=float), np.array([x1], dtype=float)


def relative_after_collision(model, x0, x1):
    """x0' - x1' mod 1, which the collision makes M (x0 - x1) mod 1."""
    out0, out1 = maps.collide_arrays(model, *pair(x0, x1))
    return (out0 - out1)[0] % 1.0


class TestDefaultModelConstants:
    def test_eigenvalues_closed_form(self, model):
        assert model.lambda_plus == pytest.approx((3 + SQRT5) / 2, abs=1e-12)

    def test_k_eigenvalues_closed_form(self, model):
        assert model.kp == pytest.approx((5 + SQRT5) / 4, abs=1e-12)
        assert model.km == pytest.approx(-(1 + SQRT5) / 4, abs=1e-12)

    def test_dilation_product(self, model):
        # |kp * km| = 1 + (3/8)(sqrt(5) - 1), which rounds to 1.46
        assert model.dilation_product == pytest.approx(1 + 0.375 * (SQRT5 - 1), abs=1e-12)
        assert model.dilation_product == pytest.approx(1.46, abs=5e-3)

    def test_matrix_identities_exact(self, model):
        assert np.array_equal(model.k_plus + model.k_minus, np.eye(2))
        assert np.array_equal(model.k_plus - model.k_minus, model.m)

    def test_eigenvector_residuals(self, model):
        assert np.linalg.norm(model.m @ model.xi_plus - model.lambda_plus * model.xi_plus) < 1e-12
        assert np.linalg.norm(model.k_plus @ model.xi_plus - model.kp * model.xi_plus) < 1e-12
        assert np.linalg.norm(model.k_minus @ model.xi_plus - model.km * model.xi_plus) < 1e-12

    def test_expanding_eigenvector_value(self, model):
        assert model.xi_plus == pytest.approx([0.5257311121, 0.8506508084], abs=1e-9)
        assert np.linalg.norm(model.xi_plus) == pytest.approx(1.0, abs=1e-12)
        assert model.xi_plus[0] > 0


class TestSpectralDecompose:
    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError, match="hyperbolic"):
            maps.spectral_decompose([[1, 0], [0, 1]])

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="unimodular"):
            maps.spectral_decompose([[2, 0], [0, 2]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"must be 2x2, got shape \(4,\)"):
            maps.spectral_decompose([1, 1, 1, 2])

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="integer"):
            maps.spectral_decompose([[1.5, 1], [1, 2]])

    def test_generalized_matrix(self):
        # another hyperbolic unimodular matrix: [[2,1],[1,1]], trace 3
        m = maps.spectral_decompose([[2, 1], [1, 1]])
        assert m.lambda_plus == pytest.approx((3 + SQRT5) / 2, abs=1e-12)
        assert np.linalg.norm(m.m @ m.xi_plus - m.lambda_plus * m.xi_plus) < 1e-12

    @given(hyperbolic_unimodular())
    @example(np.array([[1, 1], [1, 2]]))
    @example(np.array([[2, -1], [-1, 1]]))
    @example(np.array([[20, -1], [1, 0]]))
    def test_xi_plus_is_a_unit_eigenvector_with_positive_first_component(self, m):
        model = maps.spectral_decompose(m)
        xi = model.xi_plus
        assert np.linalg.norm(model.m @ xi - model.lambda_plus * xi) < 1e-12
        assert abs(math.hypot(*xi) - 1.0) < 1e-12
        assert xi[0] > 0

    @given(st.sampled_from([1, -1]), st.integers(-10**6, 10**6))
    def test_det_one_with_zero_m01_is_non_hyperbolic(self, diagonal, c):
        # with m01 = 0, det 1 is m00 m11 = 1, so m00 = m11 = +-1 and trace +-2:
        # the first-row eigenvector construction never meets m01 = 0
        with pytest.raises(ValueError, match="must be hyperbolic: trace = "):
            maps.spectral_decompose([[diagonal, 0], [c, diagonal]])


class TestCatApply:
    """The collision applies the cat map M to the pair's relative coordinate."""

    def test_fixed_point_origin(self, model):
        assert relative_after_collision(model, (0, 0), (0, 0)).tolist() == [0.0, 0.0]

    def test_no_wrap(self, model):
        out = relative_after_collision(model, (0.2, 0.3), (0, 0))
        assert out == pytest.approx([0.5, 0.8], abs=1e-15)

    def test_wrap(self, model):
        out = relative_after_collision(model, (0.9, 0.8), (0.2, 0.2))
        assert out == pytest.approx([0.3, 0.9], abs=1e-12)

    def test_permutes_rational_grid(self, model):
        q = 5
        grid = {(i, j) for i in range(q) for j in range(q)}
        image = set()
        for i, j in grid:
            out = relative_after_collision(model, (i / q, j / q), (1 / q, 3 / q))
            image.add(tuple(np.round(out * q).astype(int) % q))
        assert image == grid

    @given(phase_points, phase_points)
    def test_output_in_unit_square(self, model, a, b):
        for out in maps.collide_arrays(model, a[None, :], b[None, :]):
            assert np.all((0 <= out) & (out < 1))


class TestCollide:
    def test_equal_inputs_fixed(self, model):
        p = np.array([[0.4, 0.7]])
        out0, out1 = maps.collide_arrays(model, p, p)
        assert out0 == pytest.approx(p, abs=1e-12)
        assert out1 == pytest.approx(p, abs=1e-12)

    def test_hand_computed_pair(self, model):
        out0, out1 = maps.collide_arrays(model, *pair((0.5, 0.5), (0.1, 0.3)))
        assert out0[0] == pytest.approx([0.6, 0.8], abs=1e-12)
        assert out1[0] == pytest.approx([0.0, 0.0], abs=1e-12)

    @given(phase_points, phase_points)
    @settings(max_examples=200)
    def test_pair_sum_conserved_mod_1(self, model, a, b):
        out0, out1 = maps.collide_arrays(model, a[None, :], b[None, :])
        before = (a + b) % 1.0
        after = (out0[0] + out1[0]) % 1.0
        gap = maps.torus_diff_arrays(after, before)
        assert np.max(np.abs(gap)) < 1e-12

    def test_pair_jacobian_is_one(self, model):
        pair = np.block([[model.k_plus, model.k_minus],
                         [model.k_minus, model.k_plus]])
        assert np.linalg.det(pair) == pytest.approx(1.0, abs=1e-12)


class TestPropagateTangent:
    """A displacement met by an undisplaced partner: the incumbent carries
    K+ d (direct), the partner K- d (switch)."""

    def test_direct_on_expanding_eigenvector(self, model):
        eps = 1e-9
        d = eps * model.xi_plus[None, :]
        direct, _ = maps.collide_linear(model, d, np.zeros_like(d))
        expected = 1.8090169944 * eps * model.xi_plus
        assert direct[0] == pytest.approx(expected, rel=1e-9)

    def test_switch_on_expanding_eigenvector(self, model):
        eps = 1e-9
        d = eps * model.xi_plus[None, :]
        _, switch = maps.collide_linear(model, d, np.zeros_like(d))
        expected = -0.8090169944 * eps * model.xi_plus
        assert switch[0] == pytest.approx(expected, rel=1e-9)

    def test_zero_stays_zero(self, model):
        zero = np.zeros((1, 2))
        for out in maps.collide_linear(model, zero, zero):
            assert out.tolist() == [[0.0, 0.0]]


class TestTorusDiff:
    def test_identical_points(self):
        assert maps.torus_diff_arrays([0.3, 0.8], [0.3, 0.8]).tolist() == [0.0, 0.0]

    def test_minimal_image_across_wrap(self):
        d = maps.torus_diff_arrays([0.95, 0.1], [0.05, 0.1])
        assert d == pytest.approx([-0.10, 0.0], abs=1e-12)

    def test_componentwise(self):
        d = maps.torus_diff_arrays([0.3, 0.8], [0.1, 0.1])
        assert d == pytest.approx([0.2, -0.3], abs=1e-12)

    @given(phase_points, phase_points)
    @settings(max_examples=200)
    def test_bounded_by_half_diagonal(self, a, b):
        d = maps.torus_diff_arrays(a, b)
        assert np.all((-0.5 <= d) & (d < 0.5))
        assert np.linalg.norm(d) <= math.sqrt(2) / 2


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.lists(st.booleans(), min_size=0, max_size=12))
@settings(max_examples=50, deadline=None)
def test_tangent_propagation_matches_twin_collision_chain(seed, roles):
    """Tangent vs minimal-image difference along a random collision chain.

    Two full simulations separated by eps = 1e-9 along xi_plus, colliding
    with the same random partners; after each collision the tracked particle
    either stays (direct) or switches to the partner.
    """
    model = maps.default_model()
    rng = np.random.default_rng(seed)
    ref = rng.random(2)
    twin = (ref + 1e-9 * model.xi_plus) % 1.0
    tangent = 1e-9 * model.xi_plus.copy()

    for stay in roles:
        partner = rng.random(2)
        r0, r1 = maps.collide_arrays(model, ref[None, :], partner[None, :])
        t0, t1 = maps.collide_arrays(model, twin[None, :], partner[None, :])
        if stay:
            ref, twin = r0[0], t0[0]
            tangent = model.k_plus @ tangent
        else:
            ref, twin = r1[0], t1[0]
            tangent = model.k_minus @ tangent

    measured = maps.torus_diff_arrays(twin, ref)
    assert np.linalg.norm(measured - tangent) <= 1e-4 * max(np.linalg.norm(tangent), 1e-9)


class TestRowWise:
    """Each output row of the pair kernel depends on its own input row alone,
    bit for bit, whatever the batch it comes in."""

    def test_row_independent_of_batch(self, model):
        rng = np.random.default_rng(2024)
        n = 512
        points = (rng.random((n, 2)), rng.random((n, 2)))
        scale = 10.0 ** rng.uniform(-12, 2, size=(n, 1))
        tangents = (rng.normal(size=(n, 2)) * scale, rng.normal(size=(n, 2)) * scale)
        perm = rng.permutation(n)
        for collide, (x0, x1) in ((maps.collide_arrays, points),
                                  (maps.collide_linear, tangents)):
            full = np.stack(collide(model, x0, x1))
            permuted = np.stack(collide(model, x0[perm], x1[perm]))
            assert permuted.tobytes() == full[:, perm].tobytes()
            for r in range(n):
                one = np.stack(collide(model, x0[r:r + 1], x1[r:r + 1]))
                assert one.tobytes() == full[:, r:r + 1].tobytes()


class TestRowNorms:
    """maps.row_norms and maps.root_sum_squares against numpy's own formulas,
    bit for bit where no square underflows, and right where one does."""

    MATRICES = [[[1, 1], [1, 2]], [[2, 1], [1, 1]], [[2, -1], [-1, 1]], [[3, 2], [1, 1]]]

    @staticmethod
    def random_rows(n, seed=7):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-150, 150, size=(n, 1))

    def test_row_norms_equal_linalg_norm_on_random_rows(self):
        rows = self.random_rows(100_000)
        assert maps.row_norms(rows).tobytes() == np.linalg.norm(rows, axis=1).tobytes()

    def test_row_norms_of_signed_zero_rows(self):
        rows = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [-0.0, 3.0]])
        assert maps.row_norms(rows).tobytes() == np.linalg.norm(rows, axis=1).tobytes()
        assert not np.signbit(maps.row_norms(rows)).any()

    @pytest.mark.parametrize("matrix", MATRICES)
    def test_row_norms_equal_linalg_norm_on_tree_rows(self, matrix):
        run = tree.run_tree(maps.spectral_decompose(matrix), 16)
        assert (maps.row_norms(run.distinct).tobytes()
                == np.linalg.norm(run.distinct, axis=1).tobytes())

    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300, 1e-310])
    def test_row_norms_where_squares_underflow(self, scale):
        rows = np.array([[3.0, 4.0], [-4.0, 3.0], [0.0, -5.0]]) * scale
        assert maps.row_norms(rows) == pytest.approx(5 * scale, rel=1e-12, abs=0)
        assert abs(np.linalg.norm(rows, axis=1)[0] - 5 * scale) > 1e-6 * scale

    def test_root_sum_squares_equals_numpy_formula(self):
        rows = self.random_rows(4096, seed=8) * 1e-140
        for values in (rows, rows[:, 0], np.abs(rows[:, 1])):
            assert maps.root_sum_squares(values) == float(np.sqrt(np.sum(values**2)))

    def test_root_sum_squares_of_gathered_rows(self):
        rows = self.random_rows(170, seed=9) * 1e-140
        index = np.random.default_rng(10).integers(0, 170, size=70_000)
        assert (maps.root_sum_squares(rows, index)
                == float(np.sqrt(np.sum((rows**2)[index]))))

    def test_root_sum_squares_where_squares_underflow(self):
        values = np.array([[3.0, 0.0], [0.0, -4.0]]) * 1e-200
        assert maps.root_sum_squares(values) == pytest.approx(5e-200, rel=1e-15, abs=0)
        assert maps.root_sum_squares(values, np.array([0, 1, 1, 1])) == pytest.approx(
            math.sqrt(57) * 1e-200, rel=1e-15, abs=0)
        assert maps.root_sum_squares(np.zeros(0)) == 0.0


def wrap_reference(a):
    """numpy's % 1.0, with the 1.0 it can return for tiny negatives set to 0."""
    out = a % 1.0
    return np.where(out >= 1.0, out - 1.0, out)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=8))
@example([-1e-20])
@example([-5e-324, -0.0, 0.0])
@example([math.nextafter(k, -math.inf) for k in (1.0, 2.0, 3.0, -1.0, -2.0, 1e6)])
def test_wrap_unit_maps_into_unit_interval(values):
    a = np.array(values)
    out = maps._wrap_unit(a)
    assert np.all((0.0 <= out) & (out < 1.0))
    assert out.tobytes() == wrap_reference(a).tobytes()


def torus_diff_reference(a, b):
    """The minimal image as % 1.0 shifted by one half, with d = 0.5 folded to -0.5."""
    d = (a - b + 0.5) % 1.0 - 0.5
    return np.where(d >= 0.5, d - 1.0, d)


torus_pairs = st.lists(st.tuples(st.floats(min_value=-4.0, max_value=4.0),
                                 st.floats(min_value=-4.0, max_value=4.0)),
                       min_size=1, max_size=8)


@given(torus_pairs)
@example([(0.5, 0.0), (0.0, 0.5), (0.75, 0.25), (0.25, 0.75)])
@example([(math.nextafter(0.5, k), 0.0) for k in (-math.inf, math.inf)]
         + [(math.nextafter(-0.5, k), 0.0) for k in (-math.inf, math.inf)])
@example([(1e-20, 0.0), (-1e-20, 0.0), (0.0, 1e-20), (0.0, -1e-20)])
def test_torus_diff_matches_two_step_formula(pairs):
    a, b = np.array(pairs).T
    assert maps.torus_diff_arrays(a, b).tobytes() == torus_diff_reference(a, b).tobytes()
