"""Banded weighted-shift kernels against their dense n x n oracles.

Tolerances are fixed here, not tuned to the data: 1e-10 times the size of the
summed terms for traces, 1e-12 relative for the solve and the smallest
singular value, 1e-12 times max(1, |<u_w, u_z>|) for the determining determinant.
"""
import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from hyposhift import homogeneity, principal, shifts
from hyposhift.principal import determining_det
from hyposhift.errors import InvalidDimension, SpectrumHit
from hyposhift.shifts import (
    adjoint_resolvent_smin,
    adjoint_resolvent_solve,
    band,
    rational_family,
    tabulated,
    unilateral,
)
from hyposhift.traceforms import BivariatePolynomial, tracial_form

TRACE_TOL = 1e-10
REL_TOL = 1e-12
EPS = np.finfo(float).eps

positive_weight = st.floats(0.05, 3.0, allow_nan=False, allow_infinity=False)
coefficient = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
monomial_key = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda jk: sum(jk) <= 3)
polynomials = st.dictionaries(monomial_key, coefficient, min_size=1, max_size=4).map(
    BivariatePolynomial.from_dict
)


@st.composite
def tabulated_models(draw):
    table = draw(st.lists(positive_weight, min_size=1, max_size=12))
    return tabulated(table, limit=draw(positive_weight))


@st.composite
def outside_points(draw, radius):
    """|w| in [1.1, 4] x radius, so T_n* - conj(w) is well conditioned."""
    modulus = radius * draw(st.floats(1.1, 4.0))
    return modulus * np.exp(1j * draw(st.floats(-np.pi, np.pi)))


def random_vector(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestWeightVector:
    @pytest.mark.parametrize(
        "weights",
        [
            unilateral(),
            rational_family(2.0),
            rational_family(1.0 + 1e-9),
            rational_family(7.3),
            tabulated([0.5, 0.25, 3.0], limit=0.9),
        ],
        ids=["unilateral", "rational-2", "rational-near-1", "rational-7.3", "tabulated"],
    )
    def test_bit_equal_to_scalar_weights(self, weights):
        for n in (0, 1, 2, 3, 4, 17, 1000):
            vec = weights.weights(n)
            scalar = np.array([oracles.weight(weights, k) for k in range(n)])
            assert vec.dtype == np.float64
            assert np.array_equal(vec, scalar)

    def test_tabulated_without_limit_is_refused(self):
        # no table is left that the vector or the scalar rule could not extend
        with pytest.raises(TypeError):
            tabulated([0.5, 0.6])
        with pytest.raises(ValueError, match="limit"):
            shifts.WeightSequence(shifts.KIND_TABULATED, table=(0.5, 0.6))

    def test_materialize_places_band_on_subdiagonal(self):
        model = tabulated([0.5, 2.0], limit=1.5)
        np.testing.assert_array_equal(band(model, 5), [0.5, 2.0, 1.5, 1.5])
        np.testing.assert_array_equal(oracles.materialize(model, 5), np.diag(band(model, 5), -1))


@given(tabulated_models(), st.integers(8, 64), polynomials, polynomials)
@settings(max_examples=60, deadline=None)
def test_traces_match_dense_oracle(model, n, p, q):
    oracle_diag = oracles.commutator_diagonal(p, q, model, n)
    t = oracles.materialize(model, n)
    pm = oracles.eval_poly_at_operator(p, t)
    qm = oracles.eval_poly_at_operator(q, t)
    scale = max(1.0, float(np.sum(np.abs(np.diagonal(pm @ qm)) + np.abs(np.diagonal(qm @ pm)))))
    full = oracles.full_finite_trace(p, q, model, n)
    assert abs(full - np.sum(oracle_diag)) <= TRACE_TOL * scale
    assert abs(full) <= TRACE_TOL * scale
    margin = p.deg_z + p.deg_zbar + q.deg_z + q.deg_zbar  # the window: their combined degree
    if n <= 4 * margin:
        with pytest.raises(InvalidDimension):
            tracial_form(p, q, model, n)
    else:
        windowed = tracial_form(p, q, model, n)
        assert abs(windowed - np.sum(oracle_diag[: n - margin])) <= TRACE_TOL * scale


@given(st.data(), tabulated_models(), st.integers(8, 64), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_solve_and_smin_match_dense_oracle(data, model, n, seed):
    w = data.draw(outside_points(model.sup))
    x = random_vector(seed, n)
    u = adjoint_resolvent_solve(model, w, x)
    u_dense = oracles.adjoint_resolvent_solve(model, w, x)
    assert np.linalg.norm(u - u_dense) <= REL_TOL * np.linalg.norm(u_dense)
    s_min = adjoint_resolvent_smin(model, w, n)
    dense_min = oracles.adjoint_resolvent_svals(model, w, n)[-1]
    assert abs(s_min - dense_min) <= REL_TOL * dense_min


@given(st.data(), positive_weight, st.integers(8, 64), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_determining_det_matches_dense_oracle(data, weight, n, seed):
    # determining_det admits constant weights only (rank-one self-commutator)
    model = tabulated([weight], limit=weight)
    z = data.draw(outside_points(weight))
    w = data.draw(outside_points(weight))
    x = random_vector(seed, n)
    val = determining_det(model, x, z, w)
    oracle = oracles.determining_det(model, x, z, w)
    assert abs(val - oracle) <= REL_TOL * max(1.0, abs(1.0 - oracle))


class TestGuardEquivalence:
    """T_n* - conj(w) with all weights 3.  At w = 2, inside the weights, the dense
    solve's verdict turns on its 1e-13 cutoff (s_min ~ (2/3)^n crosses it between
    n = 60 and 80); the banded guard refuses every |w| < 3 whatever n is."""

    MODEL = tabulated([3.0], limit=3.0)

    # expected: the dense-SVD norms at |w| = max w_k = 3
    @pytest.mark.parametrize("n, expected", [(40, 8.594905632465817), (60, 12.83885935505373)])
    def test_norm_matches_dense_svd(self, n, expected):
        norm = 1.0 / adjoint_resolvent_smin(self.MODEL, 3.0, n)
        dense = 1.0 / oracles.adjoint_resolvent_svals(self.MODEL, 3.0, n)[-1]
        assert norm == pytest.approx(dense, rel=1e-12)
        assert norm == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [80, 100])
    def test_raises_like_dense_guard(self, n):
        with pytest.raises(oracles.SingularResolvent):
            oracles.adjoint_resolvent_solve(self.MODEL, 2.0, np.eye(n)[0])
        with pytest.raises(SpectrumHit, match="below the largest weight"):
            adjoint_resolvent_smin(self.MODEL, 2.0, n)
        with pytest.raises(SpectrumHit, match="below the largest weight"):
            adjoint_resolvent_solve(self.MODEL, 2.0, np.eye(n)[0])

    # the dense norms at w = 2 are finite, yet w = 2 lies inside the weights
    @pytest.mark.parametrize("n, dense_norm", [(40, 6634399.392562833), (60, 22061081230.15984)])
    def test_refused_where_dense_norm_is_finite(self, n, dense_norm):
        dense = 1.0 / oracles.adjoint_resolvent_svals(self.MODEL, 2.0, n)[-1]
        assert dense == pytest.approx(dense_norm, rel=1e-8)
        with pytest.raises(SpectrumHit, match="2.0 is below the largest weight 3.0"):
            adjoint_resolvent_smin(self.MODEL, 2.0, n)

    def test_zero_point_is_singular(self):
        for model in (unilateral(), rational_family(2.0), tabulated([0.5, 2.0, 0.7], limit=1.1)):
            with pytest.raises(SpectrumHit):
                adjoint_resolvent_smin(model, 0.0, 8)
            with pytest.raises(SpectrumHit):
                adjoint_resolvent_solve(model, 0j, np.eye(8)[0])

    def test_inside_point_above_threshold(self):
        # |w| below max w_k is refused, though the dense s_min there is far above 1e-13 s_max
        model = tabulated([0.5, 2.0, 0.7], limit=1.1)
        dense = oracles.adjoint_resolvent_svals(model, 1.05j, 50)
        assert dense[-1] > 1e-3 * dense[0]
        with pytest.raises(SpectrumHit, match="1.05 is below the largest weight 2.0"):
            adjoint_resolvent_smin(model, 1.05j, 50)


GUARD_MODELS = [
    unilateral(), rational_family(2.0), rational_family(1.0 + 1e-9),
    tabulated([0.5, 2.0, 0.7], limit=1.1), tabulated([0.2, 5.0, 0.3], limit=0.4),
]
GUARD_MODEL_IDS = ["shift", "rational-2", "rational-near-1", "tabulated", "isolated"]
# |w| / max w_k: the edge of the guard's domain, a few ulps past it, then well outside
GUARD_FACTORS = (1.0, 1.0 + 1e-15, 1.0001, 2.0)


def assert_guard_bounds_smin(model, n, factor, phase=0.0):
    """The guard's bound is at most s_min: no Sturm count below it, and the
    dense SVD agrees up to its own backward error."""
    sub = band(model, n)
    top = float(np.max(sub))
    w = top * factor * np.exp(1j * phase)
    if abs(w) < top:  # a phase can round the modulus below max w_k
        with pytest.raises(SpectrumHit):
            shifts._resolvent_guard(sub, w)
        return
    bound = shifts._resolvent_guard(sub, w)
    assert bound == max(abs(w) - top, abs(w) / n)
    assert shifts._count_below(shifts._golub_kahan_squares(sub, w), bound) == 0
    dense = oracles.adjoint_resolvent_svals(model, w, n)
    assert dense[-1] + 8 * EPS * dense[0] >= bound


class TestGuardBound:
    """On |w| >= top = max w_k, s_min >= max(|w| - top, |w|/n): Weyl's bound and
    the n-term Neumann series of the nilpotent T_n*."""

    @pytest.mark.parametrize("n", [2, 3, 10, 64, 256])
    @pytest.mark.parametrize("model", GUARD_MODELS, ids=GUARD_MODEL_IDS)
    def test_bound_is_below_dense_smin(self, model, n):
        for factor in GUARD_FACTORS:
            assert_guard_bounds_smin(model, n, factor)

    @given(
        tabulated_models(), st.sampled_from([2, 3, 10, 64, 256]),
        st.sampled_from(GUARD_FACTORS), st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_is_below_dense_smin_for_tables(self, model, n, factor, phase):
        assert_guard_bounds_smin(model, n, factor, phase)

    def test_guard_makes_no_sturm_count(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the guard made a Sturm count")

        monkeypatch.setattr(shifts, "_count_below", refuse)
        monkeypatch.setattr(shifts, "_golub_kahan_squares", refuse)
        for model in GUARD_MODELS:
            for n in (2, 1024):
                sub = band(model, n)
                top = float(np.max(sub))
                for w in (top, top * 1.0001j, -2.0 * top):
                    assert shifts._resolvent_guard(sub, w) == max(abs(w) - top, abs(w) / n)
                for w in (0.0, 0.5 * top, math.nextafter(top, 0.0)):
                    with pytest.raises(SpectrumHit):
                        shifts._resolvent_guard(sub, w)


def bisection_smin(model, w, n):
    """s_min by Sturm bisection over [0, |w|], with no bound from the guard."""
    e2 = shifts._golub_kahan_squares(band(model, n), w)
    return shifts._bisect_singular_value(e2, 1, 0.0, abs(w))


@st.composite
def smin_models(draw):
    kind = draw(st.sampled_from(["unilateral", "rational", "tabulated", "isolated"]))
    if kind == "unilateral":
        return unilateral()
    if kind == "rational":
        return rational_family(draw(st.floats(1.0, 6.0, exclude_min=True)))
    if kind == "tabulated":
        return draw(tabulated_models())
    # one large weight among small ones: s_min sits far above the Weyl bound
    small = st.lists(st.floats(0.05, 1.0), max_size=5)
    table = draw(small) + [draw(st.floats(2.0, 5.0))] + draw(small)
    return tabulated(table, limit=draw(st.floats(0.05, 1.2)))


class TestLaguerreSmin:
    """The Laguerre kernel returns bisection's s_min on the guard's whole domain."""

    # moduli from top = max w_k of the band on: the guard admits no other
    @given(smin_models(), st.integers(2, 300), st.floats(1.0, 4.0), st.floats(-np.pi, np.pi))
    @example(tabulated([0.5, 2.0, 0.7], limit=1.1), 50, 1.0, 0.0)  # |w| = top
    @example(tabulated([3.0], limit=3.0), 100, 1.0, 0.0)
    @example(unilateral(), 100, 1.0 + 1e-15, 0.0)
    @example(rational_family(2.0), 300, 1.0, np.pi)
    @settings(max_examples=150, deadline=None)
    def test_matches_full_bisection(self, model, n, scale, phase):
        top = float(np.max(band(model, n)))
        w = top * scale * np.exp(1j * phase)
        if abs(w) < top:  # a phase can round the modulus below top
            with pytest.raises(SpectrumHit):
                adjoint_resolvent_smin(model, w, n)
            return
        assert adjoint_resolvent_smin(model, w, n) == bisection_smin(model, w, n)

    @staticmethod
    def count_sweeps(monkeypatch):
        calls = Counter()
        for name in ("_laguerre_sweep", "_count_below"):
            def spy(*args, _fn=getattr(shifts, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(shifts, name, spy)
        return calls

    # the shift's constant band takes the closed-form seed: no Laguerre sweep
    @pytest.mark.parametrize("w", [1.55, 2.0, 3.9])
    def test_sweep_budget(self, monkeypatch, w):
        want = bisection_smin(unilateral(), w, 1024)
        calls = self.count_sweeps(monkeypatch)
        assert adjoint_resolvent_smin(unilateral(), w, 1024) == want
        assert calls["_laguerre_sweep"] == 0
        assert calls["_count_below"] <= 4

    # increasing weights are no constant band: Laguerre keeps its budget
    @pytest.mark.parametrize("w", [1.55, 2.0, 3.9])
    def test_rational_sweep_budget(self, monkeypatch, w):
        want = bisection_smin(rational_family(2.0), w, 1024)
        calls = self.count_sweeps(monkeypatch)
        assert adjoint_resolvent_smin(rational_family(2.0), w, 1024) == want
        assert calls["_laguerre_sweep"] <= 4
        assert calls["_count_below"] <= 3

    def test_creeping_iteration_falls_back_to_bisection(self, monkeypatch):
        # s_min = 8.8996 sits at the edge of a dense cluster, far above the Weyl
        # bound 8: Laguerre's steps shrink by only ~5 %
        model = tabulated([0.5, 2.0, 0.7], limit=1.1)
        want = bisection_smin(model, 10.0, 1024)
        calls = self.count_sweeps(monkeypatch)
        assert adjoint_resolvent_smin(model, 10.0, 1024) == want
        assert calls["_laguerre_sweep"] <= 2
        assert calls["_count_below"] > 8

    def test_integer_point_matches_complex_point(self):
        # an int |w| must not make the Golub-Kahan array integer: that
        # truncated every weight below 1 to 0
        model = rational_family(2.0)
        s_min = adjoint_resolvent_smin(model, 2, 64)
        assert s_min == adjoint_resolvent_smin(model, 2.0 + 0j, 64)
        dense = oracles.adjoint_resolvent_svals(model, 2.0, 64)[-1]
        assert s_min == pytest.approx(dense, rel=REL_TOL)


# squares that zero a pivot for the sampled lam (lam^2 after -lam), plus the
# extremes: zero, the smallest subnormal, huge and infinite entries
sturm_lam = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(5e-324, 1e300))
sturm_square = st.one_of(
    st.floats(min_value=0.0),
    st.sampled_from([0.0, 5e-324, 0.25, 1.0, 4.0, 1e300, math.inf]),
)


class TestSturmCount:
    """_count_below divides by each pivot with no zero test; a zero pivot still
    stands for -_PIVOT_FLOOR, as in the oracle that tests every pivot."""

    def test_zero_pivot_takes_the_floor(self):
        # q_0 = -1, q_1 = -1 - 1/-1 = 0.0 exactly, so q_2 divides by the floor
        assert shifts._count_below([1.0, 1.0, 1.0], 1.0) == 0
        assert oracles.count_below([1.0, 1.0, 1.0], 1.0) == 0

    @given(st.lists(sturm_square, max_size=12), sturm_lam)
    @example([1.0, 1.0, 1.0], 1.0)
    @example([0.0, 0.0, 0.0], 1.0)
    @example([0.25, 0.25, 0.25, 0.25], 0.5)
    @example([4.0, math.inf, 4.0, 4.0, 0.0], 2.0)
    @settings(max_examples=300, deadline=None)
    def test_matches_zero_tested_loop(self, e2, lam):
        assert shifts._count_below(e2, lam) == oracles.count_below(e2, lam)


class TestConstantBandSeed:
    """On a constant band c < |w| the closed-form seed replaces Laguerre's
    sweeps, and Sturm counts still return bisection's bits."""

    @given(
        st.floats(0.05, 3.0),
        st.floats(1.0, 4.0, exclude_min=True),
        st.integers(2, 300),
        st.floats(-np.pi, np.pi),
    )
    @example(1.0, 1.0 + 1e-4, 300, 0.0)
    @example(0.05, 1.0 + 1e-4, 2, np.pi / 3)
    @example(1.0, 1.0 + 1e-14, 150, 0.0)  # lo is the Neumann bound |w|/n, not |w| - c
    @example(3.0, 4.0, 300, -np.pi)
    @settings(max_examples=200, deadline=None)
    def test_matches_full_bisection_bit_for_bit(self, c, ratio, n, phase):
        model = tabulated([c], limit=c)
        w = c * ratio * np.exp(1j * phase)
        if abs(w) < c:  # a phase can round the modulus below c
            with pytest.raises(SpectrumHit):
                adjoint_resolvent_smin(model, w, n)
            return
        want = bisection_smin(model, w, n)
        with pytest.MonkeyPatch.context() as mp:
            calls = TestLaguerreSmin.count_sweeps(mp)
            got = adjoint_resolvent_smin(model, w, n)
        assert got == want
        if abs(w) > c:  # a ratio within an ulp or two of 1 can round |w| down to c
            assert calls["_laguerre_sweep"] == 0

    # a NaN seed would never bracket in the certification's widening loop,
    # and one at |w| leaves the bracket (lo, |w|): both must go to Laguerre
    @pytest.mark.parametrize("seed", ["nan", "modulus"])
    @pytest.mark.parametrize(
        "c, w, n", [(1.0, 1.55, 1024), (1.0, 3.9, 64), (0.3, 0.3 * (1 + 1e-4) * 1j, 200)]
    )
    def test_unusable_seed_falls_back_to_laguerre(self, monkeypatch, seed, c, w, n):
        model = tabulated([c], limit=c)
        want = bisection_smin(model, w, n)
        value = math.nan if seed == "nan" else abs(w)
        monkeypatch.setattr(shifts, "_constant_band_smin", lambda *args: value)
        calls = TestLaguerreSmin.count_sweeps(monkeypatch)
        assert adjoint_resolvent_smin(model, w, n) == want
        assert calls["_laguerre_sweep"] >= 1

    def test_seed_is_the_dense_smallest_singular_value(self):
        for c, a, n in [(1.0, 1.55, 40), (0.4, 0.4 * (1 + 1e-4), 25), (2.5, 9.0, 3)]:
            dense = oracles.adjoint_resolvent_svals(tabulated([c], limit=c), a, n)[-1]
            assert shifts._constant_band_smin(a, c, n) == pytest.approx(dense, rel=REL_TOL)

    @pytest.mark.parametrize("c", [0.37, 1.0, 2.9])
    @pytest.mark.parametrize("ratio", [1.0 + 1e-7, 1.0 + 1e-4, 1.01, 1.55, 3.9])
    @pytest.mark.parametrize("n", [2, 300, 10000])
    def test_seed_within_four_ulps_of_the_root(self, c, ratio, n):
        # the direct form of the closed form at 40 digits, phi bisected 140 times
        a = c * ratio
        with mpmath.workdps(40):
            big_a, big_c = mpmath.mpf(a), mpmath.mpf(c)
            lo, hi = mpmath.mpf(0), mpmath.pi / (n + 1)
            for _ in range(140):
                mid = (lo + hi) / 2
                if big_a * mpmath.sin((n + 1) * mid) > big_c * mpmath.sin(n * mid):
                    lo = mid
                else:
                    hi = mid
            gap, half = big_a - big_c, mpmath.sin(lo / 2)
            exact = float(mpmath.sqrt(gap * gap + 4 * big_a * big_c * half * half))
        assert abs(shifts._constant_band_smin(a, c, n) - exact) <= 4 * math.ulp(exact)


class TestSupportLimitedSolve:
    """The solve starts its recurrence at the last nonzero entry of x."""

    @given(smin_models(), st.integers(2, 200), st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_full_recurrence(self, model, n, data, seed):
        w = data.draw(outside_points(model.sup))
        support = data.draw(st.integers(0, n))
        x = random_vector(seed, n)
        x[support:] = 0.0
        got = adjoint_resolvent_solve(model, w, x)
        assert np.array_equal(got, oracles.adjoint_resolvent_recurrence(model, w, x))
        assert not np.any(got[support:])

    def test_guard_reads_the_whole_band(self):
        # x = e_0 needs one row and no weight, but w_1 = 3 > |w| = 2 is refused
        model = tabulated([0.5], limit=3.0)
        with pytest.raises(SpectrumHit, match="largest weight 3.0"):
            adjoint_resolvent_solve(model, 2.0, np.eye(80)[0])

    modulus = st.floats(1.1, 4.0)
    phase = st.floats(-np.pi, np.pi)

    @given(positive_weight, st.integers(8, 300), modulus, phase, modulus, phase)
    @example(1.0, 1024, 2.0, 0.5, 1.55, 0.0)
    @example(1.0, 1024, 3.9, np.pi / 2, 2.0, np.pi)
    @settings(max_examples=100, deadline=None)
    def test_rank_one_values_unchanged(self, c, n, rz, tz, rw, tw):
        # the full-length recurrence and bisection give the values from before the fast paths
        model = tabulated([c], limit=c)
        z, w = c * rz * np.exp(1j * tz), c * rw * np.exp(1j * tw)
        x = np.zeros(n, dtype=np.complex128)
        x[0] = c
        det = determining_det(model, x, z, w)
        probe = homogeneity.resolvent_probe_check(model, [w], n)
        full = oracles.adjoint_resolvent_recurrence
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(principal, "adjoint_resolvent_solve", full)
            mp.setattr(homogeneity, "adjoint_resolvent_solve", full)
            mp.setattr(homogeneity, "adjoint_resolvent_smin", bisection_smin)
            want = determining_det(model, x, z, w)
            reference = homogeneity.resolvent_probe_check(model, [w], n)
        assert (det.real.hex(), det.imag.hex()) == (want.real.hex(), want.imag.hex())
        # the operator norm, then the rank-one vector norm
        for got, ref in zip(probe, reference):
            assert got.lhs.real.hex() == ref.lhs.real.hex()


class TestGuardCutoff:
    """The guard's cutoff is |w| = top = max w_k of the band: every modulus below
    it is refused, and from it on s_min has the bits of full bisection."""

    CASES = [
        (unilateral(), 64, 0.3),
        (tabulated([3.0], limit=3.0), 70, 0.0),
        (rational_family(2.0), 100, 1.0),
        (tabulated([0.2, 5.0, 0.3], limit=0.4), 40, np.pi / 2),
    ]

    @pytest.mark.parametrize(
        "model, n, phase", CASES, ids=["shift", "weights-3", "rational", "isolated"]
    )
    def test_matches_full_bisection_near_cutoff(self, model, n, phase):
        top = float(np.max(band(model, n)))
        moduli = [top * f for f in (0.5, 0.9, 0.99, 0.999, 1.001, 1.01, 1.1)]
        r = top
        for _ in range(4):
            r = math.nextafter(r, 0.0)
        for _ in range(8):
            moduli.append(r)
            r = math.nextafter(r, math.inf)
        decisions = set()
        for modulus in moduli:
            w = modulus * np.exp(1j * phase)
            refused = abs(w) < top
            if refused:
                with pytest.raises(SpectrumHit):
                    adjoint_resolvent_smin(model, w, n)
            else:
                assert adjoint_resolvent_smin(model, w, n) == bisection_smin(model, w, n)
            decisions.add(refused)
        assert decisions == {True, False}
