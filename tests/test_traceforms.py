import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import warnings

from hyposhift import traceforms
from hyposhift.errors import DomainError, InvalidDimension
from hyposhift.principal import constant_grid
from hyposhift.shifts import exact_commutator_diagonal, rational_family, tabulated, unilateral
from hyposhift.traceforms import (
    BivariatePolynomial,
    berger_shaw_putnam_check,
    helton_howe_check,
    tracial_form,
)

from oracles import (
    Polynomial, adjoint, eval_poly_at_operator, full_finite_trace, helton_howe_area, materialize,
    monomial, wirtinger_jacobian,
)


small_coeffs = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    max_size=5,
)


class TestPolynomialAlgebra:
    def test_degrees(self):
        p = BivariatePolynomial.from_dict({(2, 1): 1.0, (0, 3): 2.0})
        assert p.deg_z == 2
        assert p.deg_zbar == 3

    def test_zero_polynomial(self):
        z = Polynomial()
        assert z.deg_z == 0 and z.deg_zbar == 0
        assert z.eval(1.5 + 1j) == 0

    def test_deriv_z(self):
        p = monomial(3, 1)
        d = p.deriv_z()
        assert d.as_dict() == {(2, 1): 3.0}

    def test_deriv_zbar(self):
        p = monomial(1, 2, 2.0)
        assert p.deriv_zbar().as_dict() == {(1, 1): 4.0}

    def test_mul_monomials(self):
        prod = monomial(1, 0) * monomial(0, 1)
        assert prod.as_dict() == {(1, 1): 1.0}

    def test_eval_example(self):
        # |z|^2 + 2 z at z = 1 + i
        p = monomial(1, 1) + monomial(1, 0, 2.0)
        assert p.eval(1 + 1j) == pytest.approx(2 + (2 + 2j))

    @given(small_coeffs, small_coeffs, st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_ring_laws_pointwise(self, d1, d2, z):
        p = Polynomial.from_dict(d1)
        q = Polynomial.from_dict(d2)
        assert (p + q).eval(z) == pytest.approx(p.eval(z) + q.eval(z), abs=1e-8)
        assert (p * q).eval(z) == pytest.approx(p.eval(z) * q.eval(z), abs=1e-6)
        assert (p - p).eval(z) == pytest.approx(0.0, abs=1e-10)

    def test_eval_grid_matches_eval(self):
        p = Polynomial.from_dict({(2, 0): 1.0, (1, 1): -0.5j, (0, 2): 2.0})
        zeta = np.array([0.3 + 0.1j, -0.5j, 0.9])
        grid = p.eval_grid(zeta)
        for i, z in enumerate(zeta):
            assert grid[i] == pytest.approx(p.eval(z), abs=1e-14)


class TestWirtingerJacobian:
    def test_conjugate_pair(self):
        assert wirtinger_jacobian(monomial(0, 1), monomial(1, 0)).as_dict() == {(0, 0): 1.0}

    def test_conjugate_vs_square(self):
        assert wirtinger_jacobian(monomial(0, 1), monomial(2, 0)).as_dict() == {(1, 0): 2.0}

    def test_squares(self):
        assert wirtinger_jacobian(monomial(0, 2), monomial(2, 0)).as_dict() == {(1, 1): 4.0}

    @given(small_coeffs, small_coeffs)
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry(self, d1, d2):
        p = BivariatePolynomial.from_dict(d1)
        q = BivariatePolynomial.from_dict(d2)
        lhs = wirtinger_jacobian(p, q)
        rhs = (-1) * wirtinger_jacobian(q, p)
        for z in (0.3, 0.5 - 0.2j):
            assert lhs.eval(z) == pytest.approx(rhs.eval(z), abs=1e-7)

    def test_self_jacobian_vanishes(self):
        p = BivariatePolynomial.from_dict({(1, 0): 1.0, (0, 1): 1.0, (2, 1): 0.5})
        assert wirtinger_jacobian(p, p).as_dict() == {}


class TestEvalAtOperator:
    def test_linear_monomials(self):
        t = materialize(unilateral(), 5)
        np.testing.assert_allclose(eval_poly_at_operator(monomial(1, 0), t), t)
        np.testing.assert_allclose(eval_poly_at_operator(monomial(0, 1), t), adjoint(t))

    def test_ordering_t_before_t_star(self):
        t = materialize(rational_family(2.0), 5)
        out = eval_poly_at_operator(monomial(1, 1), t)
        np.testing.assert_allclose(out, t @ adjoint(t), atol=1e-14)

    def test_constant_term(self):
        t = materialize(unilateral(), 4)
        out = eval_poly_at_operator(monomial(0, 0, 3.0), t)
        np.testing.assert_allclose(out, 3.0 * np.eye(4), atol=1e-14)

    def test_linearity(self):
        t = materialize(unilateral(), 6)
        p = monomial(2, 0) + monomial(0, 1, -1.5j)
        out = eval_poly_at_operator(p, t)
        np.testing.assert_allclose(out, t @ t - 1.5j * adjoint(t), atol=1e-14)


class TestTracialForm:
    def test_margin(self):
        # the margin is the combined degree of p and q; n must exceed 4 x margin
        for degree in (1, 2):
            p, q, margin = monomial(0, degree), monomial(degree, 0), 2 * degree
            with pytest.raises(InvalidDimension, match=f"margin {margin}, got {4 * margin}$"):
                tracial_form(p, q, unilateral(), 4 * margin)
            assert tracial_form(p, q, unilateral(), 4 * margin + 1) == pytest.approx(degree)

    def test_dimension_guard(self):
        with pytest.raises(InvalidDimension):
            tracial_form(monomial(0, 2), monomial(2, 0), unilateral(), 16)

    def test_full_trace_identically_zero(self):
        model = rational_family(2.0)
        val = full_finite_trace(monomial(0, 1), monomial(1, 0), model, 32)
        assert abs(val) <= 1e-13

    def test_conjugate_pair_gives_one(self):
        val = tracial_form(monomial(0, 1), monomial(1, 0), unilateral(), 64)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_mixed_pair_gives_zero(self):
        val = tracial_form(monomial(0, 1), monomial(2, 0), unilateral(), 64)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_squares_give_two(self):
        val = tracial_form(monomial(0, 2), monomial(2, 0), unilateral(), 64)
        assert val == pytest.approx(2.0, abs=1e-12)


class TestHeltonHoweCheck:
    def test_three_pairs_pass(self):
        model = unilateral()
        for p, q, tol in (
            (monomial(0, 1), monomial(1, 0), 1e-4),
            (monomial(0, 1), monomial(2, 0), 1e-8),
            (monomial(0, 2), monomial(2, 0), 1e-2),
        ):
            check = helton_howe_check(p, q, model, 128, tol, 200, 200)
            assert check.passed, f"{check.name}: {check.lhs} vs {check.rhs}"

    @given(
        small_coeffs,
        small_coeffs,
        st.sampled_from([1, 2, 3, 5, 16, 37]),
        st.sampled_from([1, 2, 7, 40]),
        st.sampled_from([0.5, 1.0, 1.5]),
    )
    # subnormal coefficients: the sides differed by two subnormal spacings
    # while 1e-13 * mass underflowed to 0
    @example({(0, 1): 2.2250738585e-313 + 0j}, {(1, 0): 1 + 0j}, 16, 1, 0.5)
    @settings(max_examples=200, deadline=None)
    def test_ring_moments_match_node_sum(self, d1, d2, n_theta, n_r, c):
        # exponents <= 3 give |s - t| <= 6, so n_theta <= 5 can alias
        p, q = BivariatePolynomial.from_dict(d1), BivariatePolynomial.from_dict(d2)
        rhs = helton_howe_check(p, q, tabulated([c], limit=c), 64, 0.0, n_r, n_theta).rhs
        want = helton_howe_area(p, q, constant_grid(1.0, n_r, n_theta), c)
        # each coefficient pair adds a b j k z^s zbar^t and subtracts a b i l z^s zbar^t,
        # and (1/pi) int |z^s zbar^t| dA over the disc of radius c is at most c^(s+t+2)
        mass = sum(
            abs(a * b) * (j * k + i * l) * c ** (i + j + k + l)
            for (i, j), a in p.coeffs
            for (k, l), b in q.coeffs
        )
        # relative accuracy ends at the normal range: allow a few subnormal
        # spacings of rounding per quadrature node
        assert abs(rhs - want) <= 1e-13 * mass + 4 * 2.0**-1074 * n_r * n_theta

    @pytest.mark.parametrize("n_theta", [1, 2, 3, 4])
    def test_aliased_terms_are_kept(self, n_theta):
        # J(zbar, z^5 + z) = 5 z^4 + 1 integrates to 1 over the unit disc, but
        # 5 z^4 has the angular sum n_theta (-1)^(4/n_theta) when n_theta divides 4
        p, q = monomial(0, 1), monomial(5, 0) + monomial(1, 0)
        check = helton_howe_check(p, q, unilateral(), 64, 1.0, 40, n_theta)
        want = helton_howe_area(p, q, constant_grid(1.0, 40, n_theta))
        assert check.rhs == pytest.approx(want, rel=1e-13)
        assert (abs(check.rhs - 1.0) > 1.0) == (4 % n_theta == 0)

    @pytest.mark.parametrize("c", [0.5, 1.5])
    def test_constant_weight_scales_the_disc(self, c):
        # (1/pi) int z^m zbar^m dA over the disc of radius c is c^(2m+2)/(m+1)
        for p, q, want in (
            (monomial(0, 1), monomial(1, 0), c**2),
            (monomial(0, 2), monomial(2, 0), 2.0 * c**4),
        ):
            check = helton_howe_check(p, q, tabulated([c], limit=c), 128, 1e-3)
            assert check.passed, f"{check.lhs} vs {check.rhs}"
            assert check.rhs == pytest.approx(want, rel=1e-4)

    def test_needs_a_declared_limit(self):
        # g is 1 on the disc of radius model.limit: every table declares it, and the
        # area side reads it, not the table
        with pytest.raises(TypeError):
            tabulated([1.0, 2.0])
        model = tabulated([1.0, 2.0], limit=3.0)
        rhs = helton_howe_check(monomial(0, 1), monomial(1, 0), model, 64, 1e-3).rhs
        assert rhs == pytest.approx(9.0, rel=1e-4)

    def test_area_side_overflow_is_refused(self):
        # c ** 2 overflows a float at c = 1e200: a refusal, not an OverflowError
        model = tabulated([1e200], limit=1e200)
        with pytest.raises(DomainError, match="trace formula"):
            helton_howe_check(monomial(0, 1), monomial(1, 0), model, 64, 1e-3)


class TestBergerShawPutnam:
    @pytest.mark.parametrize(
        "weights, limit",
        [([2.0, 1.0], 1.0), ([1.0, 2.0], 1.5)],
        ids=["decreasing_table", "limit_below_table"],
    )
    def test_refuses_a_model_that_is_not_hyponormal(self, weights, limit):
        # Putnam's bound holds for hyponormal T only: a refusal, never a Check
        with pytest.raises(DomainError, match="hyponormal"):
            berger_shaw_putnam_check(tabulated(weights, limit), np.pi)

    def test_shift_with_disc_area(self):
        checks = berger_shaw_putnam_check(unilateral(), np.pi)
        assert len(checks) == 2
        for c in checks:
            assert c.passed
            # equality case: trace = norm = 1 = area/pi
            assert c.lhs == pytest.approx(1.0, abs=1e-12)
            assert c.rhs == pytest.approx(1.0, abs=1e-12)

    def test_rational_family_strict_inequality(self):
        for lam in (1.5, 2.0, 5.0):
            checks = berger_shaw_putnam_check(rational_family(lam), np.pi)
            assert all(c.passed for c in checks)
            assert checks[1].lhs.real < 1.0  # norm strictly below the bound

    def test_undersized_area_fails(self):
        checks = berger_shaw_putnam_check(unilateral(), 1.0)
        assert not checks[0].passed

    def test_small_shift(self):
        # radius-1/2 shift inside a disc of area pi/4: both bounds tight
        model = tabulated([0.5], limit=0.5)
        checks = berger_shaw_putnam_check(model, np.pi / 4.0)
        assert all(c.passed for c in checks)
        assert checks[0].lhs == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("lam", [1.5, 5.0, 100.0, 8191.0, 20000.0])
    def test_rational_norm_is_the_diagonal_maximum(self, monkeypatch, lam):
        # the entries rise to one peak near k = lam/2 - 1 and fall after it
        model = rational_family(lam)
        want = float(np.max(exact_commutator_diagonal(model, 4 * int(lam) + 64)))
        read = []

        def spy(model, n, start=0):
            read.append(n - start)
            return exact_commutator_diagonal(model, n, start)

        monkeypatch.setattr(traceforms, "exact_commutator_diagonal", spy)
        assert berger_shaw_putnam_check(model, np.pi)[1].lhs.real == want
        assert sum(read) <= 5

    def test_overflow_is_refused_without_warnings(self):
        model = tabulated([1e200], limit=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be finite"):
                berger_shaw_putnam_check(model, 1.0)

    def test_tabulated_without_limit_raises(self):
        # the trace is w_inf^2: a table without a limit is refused when built, and
        # with one the trace reads the limit
        with pytest.raises(TypeError):
            tabulated([1.0, 2.0])
        assert berger_shaw_putnam_check(tabulated([1.0, 2.0], 3.0), 9 * np.pi)[0].lhs == 9.0
