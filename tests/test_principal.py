import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hyposhift import homogeneity, principal
from hyposhift.errors import DomainError, SpectrumHit, TooCloseToCurve
from hyposhift.mobius import MobiusMap, mobius_eval
from hyposhift.principal import (
    GridFunction,
    closed_form_oracle,
    constant_grid,
    determining_det,
    disc_cauchy_exponential,
    disc_indices,
    pincus_consistency,
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
        # zero-stride stores: one value for the grid, and one per ring
        for stored in (1.5, -0.1, [[1.5], [0.5]], [[-0.1], [0.5]]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                GridFunction(2, 2, np.broadcast_to(stored, (2, 2)))

    def test_rejects_nan(self):
        values = np.full((2, 2), 0.5)
        values[1, 0] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            GridFunction(2, 2, values)
        for stored in (np.nan, [[np.nan], [0.5]]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                GridFunction(2, 2, np.broadcast_to(stored, (2, 2)))

    def test_midpoint_nodes(self):
        g = constant_grid(1.0, 2, 4)
        np.testing.assert_allclose(g.radii(), [0.25, 0.75])
        np.testing.assert_allclose(g.angles(), np.pi * np.array([0.25, 0.75, 1.25, 1.75]))
        nodes = g.nodes()
        assert nodes.shape == (2, 4)
        assert np.max(np.abs(nodes)) < 1.0

    def test_cell_measure_sums_to_disc_area(self):
        g = constant_grid(1.0, 50, 50)
        assert np.sum(oracles.cell_measure(g)) == pytest.approx(np.pi, abs=1e-12)


class TestWindingNumber:
    """The division-form polygon winding that the test oracles sample."""

    def test_origin_inside(self):
        assert oracles.winding_number(unit_circle(256), 0.0) == 1

    def test_point_outside(self):
        assert oracles.winding_number(unit_circle(256), 2.0 + 1j) == 0

    def test_double_loop(self):
        assert oracles.winding_number(unit_circle(512, loops=2), 0.1) == 2

    def test_reversed_orientation(self):
        assert oracles.winding_number(unit_circle(256)[::-1], 0.0) == -1

    def test_margin_enforced(self):
        with pytest.raises(TooCloseToCurve):
            oracles.winding_number(unit_circle(64), 0.95)

    @given(st.floats(0.0, 2 * np.pi), st.floats(0.0, 0.6))
    @settings(max_examples=40, deadline=None)
    def test_any_interior_point(self, theta, r):
        point = r * np.exp(1j * theta)
        assert oracles.winding_number(unit_circle(1024), point) == 1


class TestWindingNumbers:
    """The windings of a circle about many points in closed form, disc_indices."""

    @given(
        st.floats(0.0, 2 * np.pi),
        st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
        st.sampled_from([(1, False), (1, True), (2, False), (2, True)]),
        st.lists(
            st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=24,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_on_mobius_images(self, beta_arg, a, variant, points):
        # the polygon winds loops times about the image disc, reversed -loops times
        loops, reverse = variant
        phi = MobiusMap(beta=np.exp(1j * beta_arg), a=a)
        curve = mobius_eval(phi, unit_circle(2048, loops))
        if reverse:
            curve = curve[::-1]
        m, rho = homogeneity._image_disc(phi, 1.0)
        for p in points:
            try:
                expected = oracles.winding_number(curve, p)
            except TooCloseToCurve:
                continue
            index = disc_indices(np.array([p]), m, rho)
            assert [(-1 if reverse else 1) * loops * i for i in index] == [expected]

    def test_no_points(self):
        assert disc_indices(np.zeros(0, dtype=complex), 0.0, 1.0) == []

    def test_keeps_2d_shape(self):
        points = np.array([[0.0, 0.5j, 2.0], [-0.4, 3.0 + 1j, 0.2 - 0.2j]])
        assert disc_indices(points, 0.0, 1.0) == [[1, 1, 0], [1, 0, 1]]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("center", [0.0, 5.0 - 2.0j])
    def test_far_points_wind_zero(self, center):
        # points near 1e300 are far outside; no difference or modulus overflows
        points = np.array([center, 1e300 + 1e300j, center + 0.5j, -1e300j, center + 3.0])
        assert disc_indices(points, center, 1.0) == [1, 0, 1, 0, 0]
        assert disc_indices(np.array(1e300 + 1e300j), center, 1.0) == 0

    def test_names_first_close_point_in_input_order(self):
        points = np.array([0.0] * 300 + [0.99, 1j, 1.01, -1.0])
        with pytest.raises(TooCloseToCurve, match=r"point 1j is 0\.000e\+00 from the circle"):
            disc_indices(points, 0.0, 1.0)
        # the first in row-major order of a 2-d array
        with pytest.raises(TooCloseToCurve, match=r"point \(-1\+0j\)"):
            disc_indices(np.array([[0.5, 2.0], [-1.0, 1j]]), 0.0, 1.0)

    @pytest.mark.parametrize(
        "points",
        [[0.5, np.nan], [complex(np.inf, 0.0)], np.nan + 0j],
        ids=["nan_point", "inf_point", "nan_scalar"],
    )
    def test_rejects_non_finite(self, points):
        with pytest.raises(ValueError, match="finite"):
            disc_indices(np.asarray(points, dtype=complex), 0.0, 1.0)


class TestPrincipalValue:
    def test_interior_is_one(self):
        model = unilateral()
        for zeta in (0.0, 0.5, -0.3 + 0.4j, 0.8j):
            assert oracles.principal_value_at(model, zeta) == 1

    def test_exterior_is_zero(self):
        model = unilateral()
        for zeta in (1.5, -2.0, 1.1 + 1.1j):
            assert oracles.principal_value_at(model, zeta) == 0

    def test_rational_family_same_values(self):
        for lam in (1.5, 2.0, 5.0):
            model = rational_family(lam)
            assert oracles.principal_value_at(model, 0.3 + 0.2j) == 1
            assert oracles.principal_value_at(model, 2.0) == 0

    def test_smaller_essential_radius(self):
        model = tabulated([0.9, 0.7], limit=0.5)
        assert oracles.principal_value_at(model, 0.1) == 1
        assert oracles.principal_value_at(model, 0.75) == 0

    def test_on_circle_raises(self):
        with pytest.raises(TooCloseToCurve):
            oracles.principal_value_at(unilateral(), 1.0)


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
        view = GridFunction(64, 37, np.broadcast_to(ring[:, None], (64, 37)))
        for z, w in ((1.0 + 1e-4, 1.2 + 0.3j), (3.0 - 1j, -2.5), (1e8j, 1.05)):
            got = disc_cauchy_exponential(g, z, w)
            assert abs(got - oracles.disc_cauchy_exponential(g, z, w)) <= 1e-13
            assert disc_cauchy_exponential(view, z, w) == got

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
        st.none() | st.sampled_from([-0.1, 1.5, np.nan]),
        st.integers(0, 11),
        st.integers(1, 40),
        st.complex_numbers(min_magnitude=0.9, max_magnitude=100.0),
        st.complex_numbers(min_magnitude=0.9, max_magnitude=100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_a_zero_stride_grid_decides_as_its_dense_copy(self, ring, bad, at, n_theta, z, w):
        # one value per ring, stored once per ring and as a dense copy: the
        # same refusal of the values or of (z, w), or the same bits
        if bad is not None:
            ring[at % len(ring)] = bad
        view = np.broadcast_to(np.array(ring)[:, None], (len(ring), n_theta))

        def outcome(values):
            try:
                return disc_cauchy_exponential(GridFunction(len(ring), n_theta, values), z, w)
            except (ValueError, SpectrumHit) as exc:
                return type(exc), str(exc)

        assert outcome(view) == outcome(view.copy())

    def test_a_constant_grid_is_one_stored_value(self):
        # a dense 1000 x 1000 float store would take 8 MB; the largest
        # temporary left is the ring check's 1 MB of booleans
        g = constant_grid(1.0, 1000, 1000)
        assert g.values.strides == (0, 0)
        with pytest.raises(ValueError, match="read-only"):
            g.values[0, 0] = 0.5
        tracemalloc.start()
        try:
            disc_cauchy_exponential(constant_grid(1.0, 1000, 1000), 2.0, 3.0 + 1j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

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
        with pytest.raises(SpectrumHit):
            disc_cauchy_exponential(g, 0.5, 2.0)
        with pytest.raises(SpectrumHit):
            disc_cauchy_exponential(g, 2.0, 1.0)

    def test_zero_grid_gives_one(self):
        g = constant_grid(0.0, 32, 32)
        assert disc_cauchy_exponential(g, 2.0, 3.0) == pytest.approx(1.0)

    def test_matches_closed_form(self):
        g = constant_grid(1.0, 400, 400)
        for z, w in ((2.0, 2.0), (2.0, 3.0), (2j, 2j), (3.0 - 1j, -2.5)):
            quad = disc_cauchy_exponential(g, z, w)
            assert quad == pytest.approx(closed_form_oracle(z, w), abs=5e-3)

    def test_fractional_exponent(self):
        g = constant_grid(0.5, 400, 400)
        quad = disc_cauchy_exponential(g, 2.0, 3.0)
        assert quad == pytest.approx(closed_form_oracle(2.0, 3.0) ** 0.5, abs=5e-3)


class TestClosedFormOracle:
    def test_value_at_two_two(self):
        assert closed_form_oracle(2.0, 2.0) == pytest.approx(0.75, abs=1e-14)

    def test_value_at_two_three(self):
        assert closed_form_oracle(2.0, 3.0) == pytest.approx(5.0 / 6.0, abs=1e-14)

    def test_imaginary_pair(self):
        # conj(2i) = -2i, so z conj(w) = 4 and the value is 3/4
        assert closed_form_oracle(2j, 2j) == pytest.approx(0.75, abs=1e-14)

    def test_rejects_inside(self):
        with pytest.raises(SpectrumHit):
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
        oracle = closed_form_oracle(z, w)
        assert oracle == pytest.approx(1.0 - 1.0 / (z * np.conj(w)), abs=1e-13)


class TestPincusConsistency:
    def test_triangle_passes(self):
        model = unilateral()
        checks = pincus_consistency(model, [2.0, 3.0], n=64, n_r=200, n_theta=200)
        # three checks for each of the pairs (2, 2), (2, 3) and (3, 3)
        assert len(checks) == 9
        assert all(c.passed for c in checks)
        assert [c.name.split("[")[1] for c in checks[::3]] == [
            "z=2.0, w=2.0]", "z=2.0, w=3.0]", "z=3.0, w=3.0]",
        ]

    @pytest.mark.parametrize("c, z, w", [(0.5, 2.0, 2.0), (1.5, 2.0, 3.0j), (1.5, 1.6, -1.7)])
    def test_constant_weight_scales_the_disc(self, c, z, w):
        # g = 1 on the disc of radius c: the determinant is 1 - c^2/(z conj(w))
        checks = pincus_consistency(tabulated([c], limit=c), [z, w], n=64)
        assert all(check.passed for check in checks)
        # the pair (z, w) comes after (z, z)
        assert checks[3].lhs == pytest.approx(1.0 - c * c / (z * np.conj(w)), abs=1e-12)

    @given(
        st.floats(0.1, 4.0),
        st.lists(st.tuples(st.floats(1.01, 4.0), st.floats(-np.pi, np.pi)), min_size=1, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_one_solve_per_point_keeps_the_bits(self, c, polar):
        # each pair's determinant, from the two solves of its points, has the
        # bits that determining_det gives from its own two solves
        model = tabulated([c], limit=c)
        points = [c * r * np.exp(1j * t) for r, t in polar]
        checks = pincus_consistency(model, points, n=32, n_r=16, n_theta=16)
        x = np.zeros(32, dtype=np.complex128)
        x[0] = c
        pairs = [(z, w) for i, z in enumerate(points) for w in points[i:]]
        assert len(checks) == 3 * len(pairs)
        for check, (z, w) in zip(checks[::3], pairs):
            assert check.name.startswith("determinant vs closed form")
            want = determining_det(model, x, z, w)
            assert (check.lhs.real.hex(), check.lhs.imag.hex()) == (want.real.hex(), want.imag.hex())

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_solve_per_point(self, monkeypatch, k):
        # k points make k(k + 1)/2 pairs, and k O(n) solves
        solves = []
        solve = principal.adjoint_resolvent_solve
        monkeypatch.setattr(
            principal, "adjoint_resolvent_solve", lambda *a: solves.append(a[1]) or solve(*a)
        )
        points = [2.0, 3.0j, -2.5, 1.5 + 1.5j][:k]
        checks = pincus_consistency(unilateral(), points, n=32, n_r=16, n_theta=16)
        assert len(checks) == 3 * k * (k + 1) // 2
        assert solves == points

    @pytest.mark.parametrize(
        "model, points",
        [(tabulated([1e-310], limit=1e-310), [2.0, 3.0]), (unilateral(), [2.0, 1e300 + 1e300j])],
        ids=["tiny_limit", "huge_point"],
    )
    def test_refuses_overflowing_scaled_point(self, monkeypatch, model, points):
        # p/c (tiny c) or |p/c|^2 (huge p) overflows: refused before any solve,
        # so that no pair's (z/c) conj(w/c) overflows on the way to a verdict;
        # a solve would call None
        monkeypatch.setattr(principal, "adjoint_resolvent_solve", None)
        with np.errstate(all="raise"):
            with pytest.raises(DomainError, match=r"\|p/c\|\^2 must be finite"):
                pincus_consistency(model, points, n=16)
