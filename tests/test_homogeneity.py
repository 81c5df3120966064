import cmath
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from hyposhift import homogeneity, principal, shifts
from hyposhift.cli import parse_config, run_experiment
from hyposhift.errors import DomainError, HyposhiftError, PoleHit, SpectrumHit, TooCloseToCurve
from hyposhift.homogeneity import (
    DEFAULT_MAP_GRID,
    DEFAULT_WITNESS_GRID,
    change_of_variable_check,
    constancy_check,
    default_exterior_points,
    default_interior_points,
    inequality_gap,
    resolvent_probe_check,
    t_lambda_trace_check,
    theorem_inequality_check,
    witness_search,
)
from hyposhift.mobius import MobiusMap, mobius_eval, mobius_invert
from hyposhift.shifts import rational_family, tabulated, unilateral

EPS = sys.float_info.epsilon


def _naive_gap_at_one() -> float:
    """max |lhs - rhs| at c = 1 over the witness grid, each side evaluated as written."""
    sides = [oracles.inequality_sides(1.0, r) for r in DEFAULT_WITNESS_GRID]
    return max(abs(lhs - rhs) for lhs, rhs in sides)


class TestInequality:
    def test_worked_example(self):
        lhs, rhs = oracles.inequality_sides(0.5, 2.0)
        assert lhs == pytest.approx(0.875, abs=1e-15)
        assert rhs == pytest.approx(0.8660254, abs=1e-7)
        assert inequality_gap(0.5, 2.0)[0] == pytest.approx(lhs - rhs, abs=1e-15)
        assert inequality_gap(0.5, 2.0)[0] > 8e-3

    def test_domain_guards(self):
        for c, r in [(0.0, 2.0), (1.5, 2.0), (0.5, 1.0)]:
            with pytest.raises(DomainError):
                inequality_gap(c, r)

    def test_witness_for_every_c_below_one(self):
        for c in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            r = witness_search(c)
            assert r is not None
            lhs, rhs = oracles.inequality_sides(c, r)
            assert lhs > rhs

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
        lhs, rhs = oracles.inequality_sides(1.0, r)
        assert abs(lhs - rhs) <= 1e-12

    def test_equality_gap_across_grid(self):
        assert _naive_gap_at_one() <= 1e-12

    def test_check_records_each_witness(self):
        checks = theorem_inequality_check([0.5, 1.0])
        assert [c.name for c in checks] == [
            "witness exists for c=0.5", "no witness for c=1", "equality gap at c=1",
        ]
        assert all(c.passed for c in checks)
        r = witness_search(0.5)
        assert (checks[0].lhs, checks[0].rhs) == (r, r)
        assert (checks[1].lhs, checks[2].lhs, checks[2].rhs) == (0.0, 0.0, 0.0)
        # the equality row's gap is the naive row it replaces, exactly
        assert checks[2].lhs == _naive_gap_at_one()


class TestSymbolCurveTransport:
    def test_identity_map_fixes_curve(self):
        model = unilateral()
        curve = oracles.symbol_curve(model, 64)
        np.testing.assert_allclose(mobius_eval(MobiusMap(), curve), curve)

    def test_image_stays_on_unit_circle(self):
        model = unilateral()
        for phi in DEFAULT_MAP_GRID:
            image = mobius_eval(phi, oracles.symbol_curve(model, 256))
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

    @pytest.mark.parametrize(
        "zeta, refusing",
        [(-(1.0 + 200 * EPS), 0), (1.0 + 1000 * EPS, 1)],
        ids=["mapped", "pulled-back"],
    )
    def test_change_of_variable_too_close_on_either_side(self, zeta, refusing):
        # a = 0.9 maps the unit circle onto itself, and phi^{-1} stretches
        # distances to it 19-fold near -1 and shrinks them 19-fold near 1.  So
        # -1 - 200 eps lies inside the mapped side's band (640 eps) only, and
        # 1 + 1000 eps inside the pulled-back side's band only; either side
        # refuses its point as TooCloseToCurve
        model, phi = unilateral(), MobiusMap(a=0.9)
        sides = [homogeneity._mapped_indices, homogeneity._pulled_back_indices]
        points = np.array([zeta])
        assert sides[1 - refusing](phi, 1.0, points) == [0]  # the other side decides
        with pytest.raises(TooCloseToCurve):
            sides[refusing](phi, 1.0, points)
        with pytest.raises(TooCloseToCurve):
            change_of_variable_check(model, phi, [zeta])

    @pytest.mark.parametrize("zeta", [1e308, 3e200 + 3e200j, -1e308j])
    def test_change_of_variable_band_finite_at_a_zero(self, zeta):
        # |zeta| |q| overflows; at a = 0 the pulled-back band's lift is exactly 0, not 0 inf
        with np.errstate(all="raise"):
            checks = change_of_variable_check(unilateral(), MobiusMap(), [zeta])
        assert [(c.lhs, c.rhs) for c in checks] == [(0, 0)]

    def test_constancy_unilateral(self):
        checks = constancy_check(unilateral())
        assert len(checks) == len(DEFAULT_MAP_GRID) * 25
        assert all(c.passed for c in checks)

    def test_constancy_rational(self):
        for lam in (1.5, 2.0, 5.0):
            checks = constancy_check(rational_family(lam), maps=(MobiusMap(a=0.4),))
            assert len(checks) == 25
            assert all(c.passed for c in checks)

    # default points are np.complex128, config points Python complex; the
    # centres include signed zeros, which the names must keep.  Drawn points and
    # centres stay clear of the image circle's rounding band
    @given(
        st.one_of(
            st.just(default_interior_points()),
            st.lists(st.complex_numbers(max_magnitude=0.6), min_size=1, max_size=6),
        ),
        st.lists(
            st.one_of(
                st.sampled_from(
                    [0j, -0j, complex(0.0, -0.0), complex(0.3, -0.0), complex(-0.0, 0.5)]
                ),
                st.complex_numbers(max_magnitude=0.5),
            ).map(lambda a: MobiusMap(a=a)),
            min_size=1,
            max_size=3,
        ),
    )
    @example(default_interior_points(), list(DEFAULT_MAP_GRID))
    @settings(max_examples=40, deadline=None)
    def test_constancy_names_match_per_check_fstrings(self, points, maps):
        checks = constancy_check(unilateral(), maps=maps, interior_points=points)
        want = oracles.constancy_names(maps, points, default_exterior_points())
        assert [c.name for c in checks] == want

    @pytest.mark.parametrize("config", ["constancy.json", "change_of_variable.json"])
    def test_no_curve_sampled(self, monkeypatch, config):
        # both experiments decide each index from the image disc in closed
        # form: the library has no curve sampler or polygon winding to call,
        # and every index goes through principal.disc_indices
        for module in (shifts, principal, homogeneity):
            assert not hasattr(module, "symbol_curve")
            assert not hasattr(module, "winding_numbers")
        calls = []
        decide = principal.disc_indices
        monkeypatch.setattr(homogeneity, "disc_indices", lambda *a: calls.append(a) or decide(*a))
        text = (Path(__file__).resolve().parents[1] / "configs" / config).read_text()
        report = run_experiment(parse_config(text))
        assert report.checks and all(c.passed for c in report.checks)
        assert calls


def _map(c, frac, a_arg, beta_arg):
    """The map with |a| = frac min(1, 1/c) at angle a_arg: |a| c = frac for c >= 1."""
    return MobiusMap(beta=cmath.exp(1j * beta_arg), a=cmath.rect(frac * min(1.0, 1.0 / c), a_arg))


def _exact_disc(phi, c):
    """Centre and radius of phi's image of |z| < c, from the float inputs as given;
    call it under mpmath.workdps."""
    beta, a, c = mpmath.mpc(phi.beta), mpmath.mpc(phi.a), mpmath.mpf(c)
    shrink = 1 - abs(a) ** 2 * c**2
    return beta * a * (c**2 - 1) / shrink, abs(beta) * c * (1 - abs(a) ** 2) / shrink


def _exact_gaps(phi, c, zeta):
    """|zeta - m| - rho and |phi^{-1}(zeta)| - c at 50 digits."""
    with mpmath.workdps(50):
        m, rho = _exact_disc(phi, c)
        beta, a, z = mpmath.mpc(phi.beta), mpmath.mpc(phi.a), mpmath.mpc(zeta)
        q = (z + a * beta) / (beta + mpmath.conj(a) * z)
        return abs(z - m) - rho, abs(q) - c


_LIMITS = st.sampled_from([0.5, 0.9, 1.0, 1.2])
_ANGLES = st.floats(-np.pi, np.pi)


def _near_circle(phi, c, theta, offset):
    """m + rho (1 + offset) e^{i theta}, rounded once from 50 digits."""
    with mpmath.workdps(50):
        m, rho = _exact_disc(phi, c)
        return complex(m + rho * (1 + mpmath.mpf(offset)) * mpmath.expj(mpmath.mpf(theta)))


def _decide(side, phi, c, zeta):
    """The side's index at zeta, or None where it refuses the point."""
    try:
        return side(phi, c, np.array([zeta]))[0]
    except TooCloseToCurve:
        return None


class TestImageDisc:
    """The closed-form index against the sampled polygon and against 50 digits."""

    @given(
        _LIMITS, st.floats(0.0, 0.95), _ANGLES, _ANGLES,
        st.lists(st.tuples(st.floats(0.0, 2.0), _ANGLES), min_size=1, max_size=6),
    )
    @example(1.0, 0.9, 0.0, 0.0, [(0.72, 0.0), (1.31, 0.0)])
    @settings(max_examples=60, deadline=None)
    def test_polygon_agrees_where_it_decides(self, c, frac, a_arg, beta_arg, polar):
        phi = _map(c, frac, a_arg, beta_arg)
        curve = oracles.symbol_curve(tabulated([c], c), oracles.DEFAULT_CURVE_SAMPLES)
        mapped = mobius_eval(phi, curve)
        m, rho = homogeneity._image_disc(phi, c)
        for r, theta in polar:
            zeta = m + rho * r * cmath.exp(1j * theta)
            pulled_back = mobius_eval(mobius_invert(phi), zeta)
            for side, image, point in [
                (homogeneity._mapped_indices, mapped, zeta),
                (homogeneity._pulled_back_indices, curve, pulled_back),
            ]:
                try:
                    winding = oracles.winding_number(image, point)
                except TooCloseToCurve:
                    continue
                assert side(phi, c, np.array([zeta])) == [winding]

    @given(
        _LIMITS,
        st.one_of(st.floats(0.0, 1.0 - 1e-9), st.floats(-9.0, -1.0).map(lambda k: 1.0 - 10.0**k)),
        _ANGLES, _ANGLES, _ANGLES,
        st.floats(-17.0, -1.0), st.sampled_from([-1.0, 1.0]),
    )
    @example(1.0, 0.9, 0.0, 0.0, np.pi, np.log10(200 * EPS), 1.0)
    @example(1.0, 0.9, 0.0, 0.0, 0.0, np.log10(1000 * EPS), 1.0)
    @settings(max_examples=400, deadline=None)
    def test_decisions_match_mpmath_outside_the_band(
        self, c, frac, a_arg, beta_arg, theta, log_offset, sign
    ):
        phi = _map(c, frac, a_arg, beta_arg)
        zeta = _near_circle(phi, c, theta, sign * 10.0**log_offset)
        gaps = _exact_gaps(phi, c, zeta)
        for side, gap in zip([homogeneity._mapped_indices, homogeneity._pulled_back_indices], gaps):
            index = _decide(side, phi, c, zeta)
            assert index is None or index == int(gap < 0)

    @given(_LIMITS, st.floats(0.0, 0.99), _ANGLES, _ANGLES, _ANGLES, st.sampled_from([-1.0, 1.0]))
    @example(1.0, 0.99, 0.0, 0.0, np.pi, 1.0)
    @example(1.2, 0.99, 0.0, 0.0, 0.0, -1.0)
    @settings(max_examples=200, deadline=None)
    def test_band_below_1e_12_of_the_scale(self, c, frac, a_arg, beta_arg, theta, sign):
        # a point 1e-12 (|zeta| + |m| + rho) from the image circle is decided
        phi = _map(c, frac, a_arg, beta_arg)
        m, rho = homogeneity._image_disc(phi, c)
        on = m + rho * cmath.exp(1j * theta)
        offset = sign * 1e-12 * (abs(on) + abs(m) + rho) / rho
        zeta = _near_circle(phi, c, theta, offset)
        assert homogeneity._mapped_indices(phi, c, np.array([zeta])) == [int(sign < 0)]


    def test_beta_off_the_circle_is_stored_unimodular(self):
        # |beta| = 1 + 5e-13 is admitted; were it kept, both sides would read the
        # point 2.5e-13 outside the unit circle as outside an image circle that
        # |beta| widens past it.  Stored as beta/|beta|, both sides decide the
        # map that is stored, and agree with 50 digits of it.
        phi = MobiusMap(beta=1 + 5e-13, a=0.5)
        assert abs(phi.beta) == 1.0
        zeta = 1 + 2.5e-13
        gaps = _exact_gaps(phi, 1.0, zeta)
        for side, gap in zip([homogeneity._mapped_indices, homogeneity._pulled_back_indices], gaps):
            assert side(phi, 1.0, np.array([zeta])) == [int(gap < 0)]
        checks = change_of_variable_check(unilateral(), phi, [zeta])
        assert (checks[0].lhs, checks[0].rhs) == (int(gaps[0] < 0), int(gaps[1] < 0))


def _probe(model, w, n):
    """(operator norm, distance bound, vector norm) at one point, from resolvent_probe_check."""
    norm, vector = resolvent_probe_check(model, [w], n)
    return norm.lhs.real, norm.rhs.real, vector.lhs.real


class TestResolventProbe:
    def test_unilateral_at_two(self):
        op_norm, distance_bound, vector_norm = _probe(unilateral(), 2.0, 128)
        assert distance_bound == pytest.approx(1.0)
        # the exact adjoint resolvent sends e_0 to -(1/conj(w)) e_0
        assert vector_norm == pytest.approx(0.5, abs=1e-14)
        assert op_norm <= distance_bound + 5e-2
        # the spectral bound 1/|w| underestimates the truncation's resolvent norm
        assert op_norm > 0.5
        assert all(c.passed for c in resolvent_probe_check(unilateral(), [2.0], 128))

    def test_rank_one_vector_is_scaled_by_first_weight(self):
        # x = w_0 e_0 and T* e_0 = 0, so the resolvent vector has norm w_0/|w|
        _, vector = resolvent_probe_check(rational_family(2.0), [3.0], 32)
        assert vector.lhs.real == pytest.approx(0.5 / 3.0, abs=1e-14)
        assert vector.rhs.real == pytest.approx(0.5 / 3.0, abs=1e-15)
        assert vector.passed

    def test_far_point_bounds_converge(self):
        op_norm, distance_bound, _ = _probe(unilateral(), 10.0, 128)
        assert op_norm <= distance_bound + 1e-12
        assert op_norm == pytest.approx(1.0 / 10.0, abs=2e-2)

    def test_rejects_small_point(self):
        with pytest.raises(SpectrumHit):
            resolvent_probe_check(unilateral(), [0.9], 32)

    def test_distance_bound_is_past_sup(self):
        # ||T|| = sup w_k = 2: Neumann's 1/(|w| - 2) bounds the norm at |w| = 2.5
        op_norm, distance_bound, _ = _probe(tabulated([2.0], limit=2.0), 2.5, 128)
        assert distance_bound == 2.0
        assert op_norm <= distance_bound
        # inside sup w_k the bound is vacuous, and the probe refuses the point
        with pytest.raises(SpectrumHit, match="must exceed"):
            resolvent_probe_check(tabulated([3.0], limit=3.0), [2.0], 40)

    def test_floor_follows_sup_below_one(self):
        # sup w_k = 0.5: |w| = 0.9 lies past ||T||, where Neumann's bound is 1/0.4
        op_norm, distance_bound, _ = _probe(tabulated([0.5], limit=0.5), 0.9, 128)
        assert distance_bound == pytest.approx(2.5)
        assert op_norm <= distance_bound
        with pytest.raises(SpectrumHit):
            resolvent_probe_check(tabulated([0.5], limit=0.5), [0.5], 128)

    def test_refuses_huge_point_before_any_solve(self, monkeypatch):
        # the singular-value count squares |w|: past |w| = 1.34e154 the whole
        # list is refused, with no solve and no floating-point exception
        calls = []
        for name in ("adjoint_resolvent_smin", "adjoint_resolvent_solve"):
            monkeypatch.setattr(homogeneity, name, lambda *a, _n=name: calls.append(_n))
        with np.errstate(all="raise"), pytest.raises(DomainError, match=r"\|w\|\^2"):
            resolvent_probe_check(unilateral(), [2.0, 1.4e308], 16)
        assert calls == []
        with np.errstate(all="raise"), pytest.raises(DomainError, match=r"\|w\|\^2"):
            shifts.adjoint_resolvent_smin(unilateral(), 1.4e308j, 16)
        monkeypatch.undo()
        with np.errstate(all="raise"):
            assert all(c.passed for c in resolvent_probe_check(unilateral(), [1e154], 16))

    def test_two_checks_per_point_in_order(self):
        checks = resolvent_probe_check(unilateral(), [2.0 + 0j, 10.0 + 0j], 64)
        assert [c.name for c in checks] == [
            "resolvent norm vs 1/(|w|-sup w_k) at w=(2+0j)",
            "rank-one vector norm vs ||x||/|w| at w=(2+0j)",
            "resolvent norm vs 1/(|w|-sup w_k) at w=(10+0j)",
            "rank-one vector norm vs ||x||/|w| at w=(10+0j)",
        ]
        assert [c.tolerance for c in checks] == [5e-2, 1e-12] * 2


class TestTLambdaTrace:
    def test_worked_example(self):
        check = t_lambda_trace_check(rational_family(2.0), 1000)
        assert check.lhs == pytest.approx(0.998003, abs=1e-6)
        assert check.passed

    def test_family_large_n(self):
        for lam in (1.5, 2.0, 5.0):
            check = t_lambda_trace_check(rational_family(lam), 10**5)
            assert check.passed
            assert abs(check.lhs - 1.0) <= 2.0 * lam / 10**5

    def test_rejects_lambda_at_one(self):
        # the family's lam > 1 is the model's to enforce
        with pytest.raises(ValueError, match="lam > 1"):
            rational_family(1.0)

    @pytest.mark.parametrize("lam", [1.5, 2.0, 7.3, 1e3])
    def test_reads_the_model_weight(self, lam):
        n = 1000
        assert t_lambda_trace_check(rational_family(lam), n).lhs == (n / (n - 1 + lam)) ** 2


# pole 1/conj(a) at 2.19, inside the spectrum's disc of radius 2.8
_POLE_INSIDE = (tabulated([3.2], 2.8), MobiusMap(beta=np.exp(1.07j), a=0.4565))
# |a| limit = 1 exactly: the pole lies on the spectrum's boundary circle
_POLE_ON_BOUNDARY = (tabulated([2.0], 2.0), MobiusMap(a=0.5))


class TestLibraryRefusals:
    """Each claim refuses an input outside its hypotheses with a HyposhiftError;
    it never returns a Check that reads as a verdict on the claim."""

    @pytest.mark.parametrize(
        "claim, error",
        [
            pytest.param(lambda: t_lambda_trace_check(unilateral(), 256), DomainError,
                         id="t_lambda_requires_rational-shift"),
            pytest.param(lambda: t_lambda_trace_check(tabulated([0.5, 0.9], 1.0), 256),
                         DomainError, id="t_lambda_requires_rational-table"),
            pytest.param(lambda: change_of_variable_check(*_POLE_INSIDE, default_interior_points()),
                         PoleHit, id="change_of_variable_pole_inside"),
            pytest.param(
                lambda: change_of_variable_check(*_POLE_ON_BOUNDARY, default_interior_points()),
                PoleHit, id="change_of_variable_pole_on_boundary",
            ),
            pytest.param(lambda: constancy_check(_POLE_INSIDE[0], maps=(_POLE_INSIDE[1],)),
                         PoleHit, id="constancy_pole_inside"),
            pytest.param(
                lambda: constancy_check(_POLE_ON_BOUNDARY[0], maps=(_POLE_ON_BOUNDARY[1],)),
                PoleHit, id="constancy_pole_on_boundary",
            ),
            # the default map a = 0.7i has its pole at |z| = 1.43 < 1.5
            pytest.param(lambda: constancy_check(tabulated([1.5], 1.5)), PoleHit,
                         id="constancy_default_maps"),
            pytest.param(lambda: witness_search(1.5), DomainError, id="c_out_of_range"),
            pytest.param(lambda: theorem_inequality_check([0.5, 1.5]), DomainError,
                         id="theorem_inequality_c_out_of_range"),
            pytest.param(lambda: constancy_check(unilateral(), maps=()), DomainError,
                         id="constancy_no_maps"),
        ],
    )
    def test_refuses(self, claim, error):
        assert issubclass(error, HyposhiftError)
        with pytest.raises(error):
            claim()

    @pytest.mark.parametrize(
        "claim",
        [
            lambda: principal.pincus_consistency(unilateral(), [], 16),
            lambda: resolvent_probe_check(unilateral(), [], 16),
            lambda: theorem_inequality_check([]),
            lambda: constancy_check(unilateral(), interior_points=[]),
            lambda: change_of_variable_check(unilateral(), MobiusMap(a=0.5), []),
        ],
        ids=["pincus", "resolvent_probe", "theorem_inequality", "constancy", "change_of_variable"],
    )
    def test_refuses_an_empty_list(self, claim):
        # a list-taking experiment with nothing to check would report no checks, and pass
        with pytest.raises(DomainError, match="checks nothing"):
            claim()

    @given(
        st.floats(0.05, 5.0),
        st.floats(0.0, 0.999),
        st.floats(0.0, 2.0 * np.pi),
    )
    @example(2.0, 0.5, 0.0)
    @example(4.0, 0.25, 1.0)
    @example(2.8, 0.4565, 1.07)
    @settings(max_examples=100, deadline=None)
    def test_pole_refused_exactly_when_in_spectrum(self, limit, modulus, arg):
        # the pole is refused before the empty list of points, which is refused too
        phi = MobiusMap(a=modulus * np.exp(1j * arg))
        refusal = PoleHit if abs(phi.a) * limit >= 1.0 else DomainError
        with pytest.raises(refusal):
            change_of_variable_check(tabulated([limit], limit), phi, [])

    @pytest.mark.parametrize("point", [np.nan, complex(np.inf, 0.0), complex(0.5, -np.inf)],
                             ids=["nan", "inf", "inf_imag"])
    @pytest.mark.parametrize(
        "claim",
        [lambda p: constancy_check(unilateral(), interior_points=[0.5, p]),
         lambda p: change_of_variable_check(unilateral(), MobiusMap(a=0.5), [0.5, p])],
        ids=["constancy", "change_of_variable"],
    )
    def test_refuses_non_finite_point(self, claim, point):
        # a NaN is neither inside nor outside the circle: no check may read PASS
        with pytest.raises(ValueError, match="finite"):
            claim(point)
