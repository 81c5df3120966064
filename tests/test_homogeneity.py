import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyposhift.errors import DomainError, SpectrumHit
from hyposhift.homogeneity import (
    DEFAULT_MAP_GRID,
    DEFAULT_WITNESS_GRID,
    change_of_variable_check,
    constancy_check,
    default_exterior_points,
    default_interior_points,
    inequality_gap,
    resolvent_norm_probe,
    t_lambda_trace_check,
    theorem_inequality_eval,
    transformed_symbol_curve,
    witness_search,
)
from hyposhift.mobius import MobiusMap
from hyposhift.shifts import rational_family, symbol_curve, unilateral


class TestInequality:
    def test_worked_example(self):
        probe = theorem_inequality_eval(0.5, 2.0)
        assert probe.lhs == pytest.approx(0.875, abs=1e-15)
        assert probe.rhs == pytest.approx(0.8660254, abs=1e-7)
        assert probe.lhs > probe.rhs + 8e-3

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            theorem_inequality_eval(0.0, 2.0)
        with pytest.raises(DomainError):
            theorem_inequality_eval(1.5, 2.0)
        with pytest.raises(DomainError):
            theorem_inequality_eval(0.5, 1.0)

    def test_witness_for_every_c_below_one(self):
        for c in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            r = witness_search(c)
            assert r is not None
            probe = theorem_inequality_eval(c, r)
            assert probe.lhs > probe.rhs

    def test_no_witness_at_one(self):
        assert witness_search(1.0) is None

    @pytest.mark.parametrize("c", [0.9999999999999, 1.0 - 2.0**-52, 1.0 - 2.0**-53])
    def test_witness_just_below_one(self, c):
        # the true gap at r = 1.05 is about 0.69 (1 - c), far below a fixed 1e-12 margin
        assert witness_search(c) == DEFAULT_WITNESS_GRID[0]

    @pytest.mark.parametrize("r", [1.05, 2.0, 10.0])
    def test_gap_vanishes_at_one(self, r):
        assert inequality_gap(1.0, r) == (0.0, 0.0)

    @given(
        st.one_of(
            st.floats(1e-6, 1.0, exclude_max=True),
            st.integers(1, 2**30).map(lambda k: 1.0 - k * 2.0**-53),
        ),
        st.one_of(st.sampled_from(DEFAULT_WITNESS_GRID), st.floats(1.0001, 1e4)),
    )
    @settings(max_examples=200, deadline=None)
    def test_gap_within_bound_of_mpmath(self, c, r):
        gap, bound = inequality_gap(c, r)
        with mpmath.workprec(200):
            cm, rm = mpmath.mpf(c), mpmath.mpf(r)
            exact = (1 - cm / rm**2) - (1 - 1 / rm**2) ** cm
            assert abs(mpmath.mpf(gap) - exact) <= bound

    @given(st.floats(1.01, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_identity_at_c_one(self, r):
        probe = theorem_inequality_eval(1.0, r)
        assert abs(probe.lhs - probe.rhs) <= 1e-12

    def test_equality_gap_across_grid(self):
        worst = max(
            abs(theorem_inequality_eval(1.0, r).lhs - theorem_inequality_eval(1.0, r).rhs)
            for r in DEFAULT_WITNESS_GRID
        )
        assert worst <= 1e-12


class TestSymbolCurveTransport:
    def test_identity_map_fixes_curve(self):
        model = unilateral()
        np.testing.assert_allclose(
            transformed_symbol_curve(model, MobiusMap(), 64), symbol_curve(model, 64)
        )

    def test_image_stays_on_unit_circle(self):
        model = unilateral()
        for phi in DEFAULT_MAP_GRID:
            image = transformed_symbol_curve(model, phi, 256)
            np.testing.assert_allclose(np.abs(image), 1.0, atol=1e-12)

    def test_change_of_variable_default_points(self):
        model = unilateral()
        phi = MobiusMap(a=0.5)
        checks = change_of_variable_check(model, phi, default_interior_points())
        assert len(checks) == 20
        assert all(c.passed for c in checks)

    def test_change_of_variable_exterior(self):
        model = unilateral()
        phi = MobiusMap(beta=np.exp(1j * np.pi / 7), a=0.3j)
        checks = change_of_variable_check(model, phi, default_exterior_points())
        assert all(c.passed for c in checks)
        assert all(c.lhs == 0 for c in checks)

    def test_constancy_unilateral(self):
        checks = constancy_check(unilateral())
        assert len(checks) == len(DEFAULT_MAP_GRID) * 25
        assert all(c.passed for c in checks)

    def test_constancy_rational(self):
        for lam in (1.5, 2.0, 5.0):
            checks = constancy_check(
                rational_family(lam),
                maps=(MobiusMap(a=0.4),),
                interior_points=default_interior_points(8),
                exterior_points=default_exterior_points(3),
            )
            assert all(c.passed for c in checks)


class TestResolventProbe:
    def test_unilateral_at_two(self):
        probe = resolvent_norm_probe(unilateral(), 2.0, 128)
        assert probe.spectral_bound == pytest.approx(0.5)
        assert probe.distance_bound == pytest.approx(1.0)
        # the exact adjoint resolvent sends e_0 to -(1/conj(w)) e_0
        assert probe.vector_norm == pytest.approx(0.5, abs=1e-14)
        assert probe.operator_norm <= probe.distance_bound + 5e-2
        # the spectral bound underestimates the truncation's resolvent norm
        assert probe.operator_norm > probe.spectral_bound

    def test_rank_one_vector_is_scaled_by_first_weight(self):
        # x = w_0 e_0 and T* e_0 = 0, so the resolvent vector has norm w_0/|w|
        probe = resolvent_norm_probe(rational_family(2.0), 3.0, 32)
        assert probe.vector_norm == pytest.approx(0.5 / 3.0, abs=1e-14)

    def test_far_point_bounds_converge(self):
        probe = resolvent_norm_probe(unilateral(), 10.0, 128)
        assert probe.operator_norm <= probe.distance_bound + 1e-12
        assert probe.operator_norm == pytest.approx(probe.spectral_bound, abs=2e-2)

    def test_rejects_small_point(self):
        with pytest.raises(SpectrumHit):
            resolvent_norm_probe(unilateral(), 0.9, 32)


class TestTLambdaTrace:
    def test_worked_example(self):
        check = t_lambda_trace_check(2.0, 1000)
        assert check.lhs == pytest.approx(0.998003, abs=1e-6)
        assert check.passed

    def test_family_large_n(self):
        for lam in (1.5, 2.0, 5.0):
            check = t_lambda_trace_check(lam, 10**5)
            assert check.passed
            assert abs(check.lhs - 1.0) <= 2.0 * lam / 10**5

    def test_rejects_lambda_at_one(self):
        with pytest.raises(DomainError):
            t_lambda_trace_check(1.0, 100)
