import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hyposhift import principal
from hyposhift.errors import (
    EvaluationInsideDisc,
    OnEssentialSpectrum,
    TooCloseToCurve,
)
from hyposhift.mobius import MobiusMap, mobius_eval
from hyposhift.principal import (
    WINDING_CHUNK,
    GridFunction,
    closed_form_oracle,
    constant_grid,
    disc_cauchy_exponential,
    pincus_consistency,
    principal_value_at,
    winding_numbers,
)
from hyposhift.shifts import rational_family, tabulated, unilateral


def unit_circle(samples, loops=1):
    k = np.arange(samples)
    return np.exp(2j * np.pi * loops * k / samples)


class TestGridFunction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GridFunction(2, 3, np.zeros((3, 2)))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            GridFunction(2, 2, np.full((2, 2), 1.5))
        with pytest.raises(ValueError):
            GridFunction(2, 2, np.full((2, 2), -0.1))

    def test_rejects_nan(self):
        values = np.full((2, 2), 0.5)
        values[1, 0] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            GridFunction(2, 2, values)

    def test_midpoint_nodes(self):
        g = constant_grid(1.0, 2, 4)
        np.testing.assert_allclose(g.radii(), [0.25, 0.75])
        np.testing.assert_allclose(g.angles(), np.pi * np.array([0.25, 0.75, 1.25, 1.75]))
        nodes = g.nodes()
        assert nodes.shape == (2, 4)
        assert np.max(np.abs(nodes)) < 1.0

    def test_cell_measure_sums_to_disc_area(self):
        g = constant_grid(1.0, 50, 50)
        assert np.sum(g.cell_measure()) == pytest.approx(np.pi, abs=1e-12)


class TestWindingNumber:
    def test_origin_inside(self):
        assert int(winding_numbers(unit_circle(256), 0.0)) == 1

    def test_point_outside(self):
        assert int(winding_numbers(unit_circle(256), 2.0 + 1j)) == 0

    def test_double_loop(self):
        assert int(winding_numbers(unit_circle(512, loops=2), 0.1)) == 2

    def test_reversed_orientation(self):
        assert int(winding_numbers(unit_circle(256)[::-1], 0.0)) == -1

    def test_margin_enforced(self):
        with pytest.raises(TooCloseToCurve):
            winding_numbers(unit_circle(64), 0.95)

    @given(st.floats(0.0, 2 * np.pi), st.floats(0.0, 0.6))
    @settings(max_examples=40, deadline=None)
    def test_any_interior_point(self, theta, r):
        point = r * np.exp(1j * theta)
        assert int(winding_numbers(unit_circle(1024), point)) == 1


def oracle_windings(curve, points):
    return [oracles.winding_number(curve, p) for p in points]


class TestWindingNumbers:
    """The batched winding against the one-point division-form oracle."""

    @given(
        st.floats(0.0, 2 * np.pi),
        st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
        st.sampled_from([(1, False), (1, True), (2, False), (2, True)]),
        st.lists(
            st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=3 * WINDING_CHUNK,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_on_mobius_images(self, beta_arg, a, variant, points):
        loops, reverse = variant
        curve = mobius_eval(MobiusMap(beta=np.exp(1j * beta_arg), a=a), unit_circle(2048, loops))
        if reverse:
            curve = curve[::-1]
        try:
            expected = oracle_windings(curve, points)
        except TooCloseToCurve:
            with pytest.raises(TooCloseToCurve):
                winding_numbers(curve, points)
            return
        got = winding_numbers(curve, points)
        assert got.dtype.kind == "i"
        assert got.tolist() == expected

    def test_no_points(self):
        got = winding_numbers(unit_circle(256), [])
        assert got.shape == (0,)
        assert got.dtype.kind == "i"

    @pytest.mark.parametrize("count", [1, WINDING_CHUNK, WINDING_CHUNK + 1])
    def test_chunk_boundaries(self, count):
        curve = unit_circle(512)
        k = np.arange(count)
        # alternate inside and outside points, so each chunk holds both windings
        points = np.where(k % 2 == 0, 0.3, 1.7) * np.exp(0.7j * k)
        got = winding_numbers(curve, points)
        assert got.shape == (count,)
        assert got.tolist() == oracle_windings(curve, points)

    def test_keeps_2d_shape(self):
        curve = unit_circle(512, loops=2)
        points = np.array([[0.0, 0.5j, 2.0], [-0.4, 3.0 + 1j, 0.2 - 0.2j]])
        got = winding_numbers(curve, points)
        assert got.shape == (2, 3)
        assert got.tolist() == [[2, 2, 0], [2, 0, 2]]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("center", [0.0, 5.0 - 2.0j])
    def test_far_points_wind_zero(self, center):
        # products of differences near 1e300 overflow; past the bounding circle the winding is 0
        curve = unit_circle(4096) + center
        points = [center, 1e300 + 1e300j, center + 0.5j, -1e300j, center + 3.0]
        assert winding_numbers(curve, points).tolist() == [1, 0, 1, 0, 0]
        assert winding_numbers(curve, 1e300 + 1e300j) == 0

    def test_names_first_close_point_in_input_order(self):
        points = [0.0] * (WINDING_CHUNK + 2) + [0.99, 1.01]
        points[WINDING_CHUNK + 1] = 1.0 + 1e-3j
        with pytest.raises(TooCloseToCurve, match=r"point \(1\+0\.001j\)"):
            winding_numbers(unit_circle(256), points)

    def test_names_first_close_point_after_far_chunks(self):
        # the centre winds on a strided curve; the chunk holding the close
        # points starts with far ones, and a far chunk follows
        points = [0.0] * WINDING_CHUNK + [0.5, -0.3j, 1.0 + 1e-3j, 0.999] + [0.1] * WINDING_CHUNK
        with pytest.raises(TooCloseToCurve, match=r"point \(1\+0\.001j\)"):
            winding_numbers(unit_circle(8192), points)

    @pytest.mark.parametrize(
        "curve, points",
        [
            (unit_circle(256), [0.5, np.nan]),
            (unit_circle(256), [complex(np.inf, 0.0)]),
            (unit_circle(256), np.nan + 0j),
            (np.append(unit_circle(256), np.nan), [0.0]),
        ],
        ids=["nan_point", "inf_point", "nan_scalar", "nan_curve"],
    )
    def test_rejects_non_finite(self, curve, points):
        with pytest.raises(ValueError, match="finite"):
            winding_numbers(curve, points)


# distances from the unit circle that span every stride of these curves, from inside
# the winding margin to far off
STRIDE_DISTANCES = (1e-3, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 0.95)


class TestStrideWinding:
    """Strided windings of long curves against the full-curve division-form oracle."""

    @given(
        st.sampled_from([4096, 6000, 8192, 16384]),
        st.floats(0.0, 2 * np.pi),
        st.complex_numbers(max_magnitude=0.6, allow_nan=False, allow_infinity=False),
        st.sampled_from([(1, False), (1, True), (2, False), (2, True)]),
        st.lists(
            st.tuples(
                st.sampled_from(STRIDE_DISTANCES),
                st.sampled_from([-1.0, 1.0, 3.0]),
                st.floats(0.0, 2 * np.pi),
            ),
            min_size=1,
            max_size=3 * WINDING_CHUNK,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, samples, beta_arg, a, variant, offsets):
        loops, reverse = variant
        curve = mobius_eval(MobiusMap(beta=np.exp(1j * beta_arg), a=a), unit_circle(samples, loops))
        if reverse:
            curve = curve[::-1]
        # inside (-1), just outside (+1) or far outside (+3) the circle, by the chosen distance
        points = [
            (1.0 + side * dist if side != 3.0 else 1.0 + side / dist) * np.exp(1j * theta)
            for dist, side, theta in offsets
        ]
        clear, refusals = [], []
        for p in points:
            try:
                clear.append((p, oracles.winding_number(curve, p)))
            except TooCloseToCurve as exc:
                refusals.append(str(exc))
        if refusals:
            # the first close point, with its full-curve distance and margin
            with pytest.raises(TooCloseToCurve) as info:
                winding_numbers(curve, points)
            assert str(info.value) == refusals[0]
        got = winding_numbers(curve, [p for p, _ in clear])
        assert got.tolist() == [expected for _, expected in clear]

    def test_strided_kernel_agrees_with_full_curve(self, monkeypatch):
        # the same kernel with every stride forced to 1, on points of all strides
        curve = mobius_eval(MobiusMap(beta=1.0, a=0.4 - 0.2j), unit_circle(16384, loops=2))
        points = np.outer(1.0 + np.array([-0.95, -0.5, -0.2, -0.06, 0.06, 0.2, 0.5, 2.0]),
                          np.exp(0.37j * np.arange(8) * np.pi)).T
        strided = winding_numbers(curve, points)
        monkeypatch.setattr(principal, "COARSE_STRIDE", curve.size + 1)
        assert winding_numbers(curve, points).tolist() == strided.tolist()
        assert set(strided.ravel().tolist()) == {0, 2}


class TestPrincipalValue:
    def test_interior_is_one(self):
        model = unilateral()
        for zeta in (0.0, 0.5, -0.3 + 0.4j, 0.8j):
            assert principal_value_at(model, zeta) == 1

    def test_exterior_is_zero(self):
        model = unilateral()
        for zeta in (1.5, -2.0, 1.1 + 1.1j):
            assert principal_value_at(model, zeta) == 0

    def test_rational_family_same_values(self):
        for lam in (1.5, 2.0, 5.0):
            model = rational_family(lam)
            assert principal_value_at(model, 0.3 + 0.2j) == 1
            assert principal_value_at(model, 2.0) == 0

    def test_smaller_essential_radius(self):
        model = tabulated([0.9, 0.7], limit=0.5)
        assert principal_value_at(model, 0.1) == 1
        assert principal_value_at(model, 0.75) == 0

    def test_on_circle_raises(self):
        with pytest.raises(OnEssentialSpectrum):
            principal_value_at(unilateral(), 1.0)


class TestDiscCauchyExponential:
    @pytest.mark.parametrize("n_theta", [1, 2, 37, 400])
    @pytest.mark.parametrize("modulus", [1.0 + 1e-4, 1e8])
    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_ring_sums_match_node_sum(self, n_theta, modulus, c):
        g = constant_grid(c, 400, n_theta)
        z = modulus * np.exp(0.3j)
        for w in (modulus * np.exp(-1.1j), 2.5, -1.5j):
            got = disc_cauchy_exponential(g, z, w)
            assert abs(got - oracles.disc_cauchy_exponential(g, z, w)) <= 1e-13

    def test_ring_varying_values_match_node_sum(self):
        ring = np.random.default_rng(11).uniform(0.0, 1.0, 64)
        g = GridFunction(64, 37, np.repeat(ring[:, None], 37, axis=1))
        for z, w in ((1.0 + 1e-4, 1.2 + 0.3j), (3.0 - 1j, -2.5), (1e8j, 1.05)):
            got = disc_cauchy_exponential(g, z, w)
            assert abs(got - oracles.disc_cauchy_exponential(g, z, w)) <= 1e-13

    def test_rejects_values_varying_on_a_ring(self):
        values = np.ones((4, 8))
        values[2, 5] = 0.5
        with pytest.raises(ValueError, match="constant on each ring"):
            disc_cauchy_exponential(GridFunction(4, 8, values), 2.0, 3.0)

    @pytest.mark.parametrize(
        "z, w",
        [(np.nan, 2.0), (2.0, complex(np.nan, 1.0)), (np.inf, 2.0), (2.0, complex(0.0, -np.inf))],
    )
    def test_rejects_non_finite(self, z, w):
        with pytest.raises(ValueError, match="finite"):
            disc_cauchy_exponential(constant_grid(1.0, 8, 8), z, w)

    def test_rejects_disc_points(self):
        g = constant_grid(1.0, 16, 16)
        with pytest.raises(EvaluationInsideDisc):
            disc_cauchy_exponential(g, 0.5, 2.0)
        with pytest.raises(EvaluationInsideDisc):
            disc_cauchy_exponential(g, 2.0, 1.0)

    def test_zero_grid_gives_one(self):
        g = constant_grid(0.0, 32, 32)
        assert disc_cauchy_exponential(g, 2.0, 3.0) == pytest.approx(1.0)

    def test_matches_closed_form(self):
        g = constant_grid(1.0, 400, 400)
        for z, w in ((2.0, 2.0), (2.0, 3.0), (2j, 2j), (3.0 - 1j, -2.5)):
            quad = disc_cauchy_exponential(g, z, w)
            assert quad == pytest.approx(closed_form_oracle(z, w, 1.0), abs=5e-3)

    def test_fractional_exponent(self):
        g = constant_grid(0.5, 400, 400)
        quad = disc_cauchy_exponential(g, 2.0, 3.0)
        assert quad == pytest.approx(closed_form_oracle(2.0, 3.0, 0.5), abs=5e-3)


class TestClosedFormOracle:
    def test_value_at_two_two(self):
        assert closed_form_oracle(2.0, 2.0) == pytest.approx(0.75, abs=1e-14)

    def test_value_at_two_three(self):
        assert closed_form_oracle(2.0, 3.0) == pytest.approx(5.0 / 6.0, abs=1e-14)

    def test_imaginary_pair(self):
        # conj(2i) = -2i, so z conj(w) = 4 and the value is 3/4
        assert closed_form_oracle(2j, 2j) == pytest.approx(0.75, abs=1e-14)

    def test_exponent_law(self):
        base = closed_form_oracle(2.0, 2.0, 1.0)
        for c in (0.25, 0.5, 0.9):
            assert closed_form_oracle(2.0, 2.0, c) == pytest.approx(base**c, abs=1e-13)

    def test_rejects_inside(self):
        with pytest.raises(EvaluationInsideDisc):
            closed_form_oracle(1.0, 1.0)

    @given(
        st.floats(1.2, 10.0),
        st.floats(1.2, 10.0),
        st.floats(0.0, 2 * np.pi),
        st.floats(0.0, 2 * np.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_against_numpy_power(self, rz, rw, tz, tw):
        z = rz * np.exp(1j * tz)
        w = rw * np.exp(1j * tw)
        oracle = closed_form_oracle(z, w, 1.0)
        assert oracle == pytest.approx(1.0 - 1.0 / (z * np.conj(w)), abs=1e-13)


class TestPincusConsistency:
    def test_triangle_passes(self):
        model = unilateral()
        checks = pincus_consistency(model, 2.0, 3.0, n=64, n_r=200, n_theta=200)
        assert len(checks) == 3
        assert all(c.passed for c in checks)

    @pytest.mark.parametrize("c, z, w", [(0.5, 2.0, 2.0), (1.5, 2.0, 3.0j), (1.5, 1.6, -1.7)])
    def test_constant_weight_scales_the_disc(self, c, z, w):
        # g = 1 on the disc of radius c: the determinant is 1 - c^2/(z conj(w))
        checks = pincus_consistency(tabulated([c], limit=c), z, w, n=64)
        assert all(check.passed for check in checks)
        assert checks[0].lhs == pytest.approx(1.0 - c * c / (z * np.conj(w)), abs=1e-12)
