import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hyposhift.errors import NotAContraction, PoleHit
from hyposhift.mobius import (
    CONTRACTION_TOL,
    MobiusMap,
    mobius_eval,
    mobius_invert,
    transformed_commutator_window,
)
from hyposhift.shifts import rational_family, tabulated, unilateral

from conftest import basis_vector, random_complex_matrix
from oracles import (
    SingularInput, ZeroCenter, adjoint, apply_to_operator, closed_form_selfcommutator,
    hermitian_min_eig, inverse_commutator_rank_one, materialize, mobius_compose, numerical_rank,
    self_commutator, singular_spectrum, trace,
)

MAP_GRID = [
    MobiusMap(a=0.3),
    MobiusMap(a=0.5 * np.exp(1j * np.pi / 4)),
    MobiusMap(a=0.7j),
    MobiusMap(beta=np.exp(1j * np.pi / 7), a=0.3),
    MobiusMap(beta=np.exp(1j * np.pi / 7), a=0.7j),
]


def disc_points():
    return [0.0, 0.3 + 0.1j, -0.8, 0.2 - 0.6j, 0.95j]


centers = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)
phases = st.floats(0.0, 2 * np.pi)


class TestMapAlgebra:
    def test_identity_map(self):
        phi = MobiusMap()
        assert mobius_eval(phi, 0.3 + 0.1j) == pytest.approx(0.3 + 0.1j)

    def test_center_maps_to_zero(self):
        phi = MobiusMap(a=0.5)
        assert mobius_eval(phi, 0.5) == pytest.approx(0.0)

    def test_invert_roundtrip_on_samples(self):
        phi = MobiusMap(beta=np.exp(0.4j), a=0.4 - 0.2j)
        inv = mobius_invert(phi)
        for z in disc_points():
            assert mobius_eval(inv, mobius_eval(phi, z)) == pytest.approx(z, abs=1e-12)

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(7)
        phi = MobiusMap(beta=np.exp(1.1j), a=0.6j)
        composed = mobius_compose(phi, mobius_invert(phi))
        pts = 0.95 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
        for z in pts:
            assert mobius_eval(composed, z) == pytest.approx(z, abs=1e-12)

    @given(phases, centers, phases, centers, st.sampled_from(disc_points()))
    @settings(max_examples=60, deadline=None)
    def test_compose_matches_pointwise(self, t1, a1, t2, a2, z):
        phi = MobiusMap(beta=np.exp(1j * t1), a=a1)
        psi = MobiusMap(beta=np.exp(1j * t2), a=a2)
        lhs = mobius_eval(mobius_compose(phi, psi), z)
        rhs = mobius_eval(phi, mobius_eval(psi, z))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(phases, centers)
    @settings(max_examples=60, deadline=None)
    def test_maps_disc_into_disc(self, t, a):
        phi = MobiusMap(beta=np.exp(1j * t), a=a)
        for z in disc_points():
            assert abs(mobius_eval(phi, z)) < 1.0 + 1e-12
        assert mobius_eval(phi, a) == pytest.approx(0.0, abs=1e-12)

    def test_compose_associative_sampled(self):
        phi = MobiusMap(a=0.3)
        psi = MobiusMap(beta=np.exp(0.5j), a=-0.4j)
        chi = MobiusMap(a=0.2 + 0.2j)
        left = mobius_compose(mobius_compose(phi, psi), chi)
        right = mobius_compose(phi, mobius_compose(psi, chi))
        for z in disc_points():
            assert mobius_eval(left, z) == pytest.approx(mobius_eval(right, z), abs=1e-12)


class TestArrayEval:
    @given(
        phases,
        centers,
        st.lists(
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        ),
    )
    # near the pole, where a vectorized complex product once rounded differently
    @example(0.0, 0.4061700800685726 + 0.05j, [2.625 + 0.125j])
    @settings(max_examples=60, deadline=None)
    def test_array_matches_scalar(self, t, a, zs):
        phi = MobiusMap(beta=np.exp(1j * t), a=a)
        # drop points too near the pole 1/conj(a), where the scalar call raises too
        zs = [z for z in zs if abs(1.0 - np.conj(phi.a) * z) >= 1e-6]
        got = mobius_eval(phi, np.array(zs, dtype=complex))
        assert got.shape == (len(zs),)
        for z, w in zip(zs, got):
            expected = mobius_eval(phi, z)
            assert abs(w - expected) <= 1e-15 * abs(expected)

    def test_keeps_shape_and_scalar_stays_scalar(self):
        phi = MobiusMap(beta=np.exp(0.3j), a=0.4 - 0.1j)
        zs = np.array([[0.0, 0.5j], [-0.7, 2.0 + 1j]])
        assert mobius_eval(phi, zs).shape == (2, 2)
        assert np.ndim(mobius_eval(phi, 0.5j)) == 0
        assert not isinstance(mobius_eval(phi, 0.5j), np.ndarray)

    def test_pole_in_array_raises(self):
        phi = MobiusMap(a=0.5)
        with pytest.raises(PoleHit, match=r"z = \(2\+0j\)"):
            mobius_eval(phi, np.array([0.1, 0.3j, 2.0, -0.4]))

    def test_pole_scalar_raises(self):
        with pytest.raises(PoleHit):
            mobius_eval(MobiusMap(a=0.5j), 1.0 / np.conj(0.5j))


class TestOperatorAction:
    def test_identity_fixes_operator(self):
        s = materialize(unilateral(), 8)
        np.testing.assert_allclose(apply_to_operator(MobiusMap(), s), s, atol=1e-14)

    def test_zero_operator(self):
        phi = MobiusMap(a=0.4 + 0.1j)
        out = apply_to_operator(phi, np.zeros((4, 4)))
        np.testing.assert_allclose(out, -(0.4 + 0.1j) * np.eye(4), atol=1e-14)

    def test_rejects_expansive_operator(self):
        with pytest.raises(NotAContraction):
            apply_to_operator(MobiusMap(a=0.5), 2.0 * np.eye(3))

    def test_transformed_shift_stays_hyponormal_on_window(self):
        s = materialize(unilateral(), 300)
        for phi in MAP_GRID:
            window = transformed_commutator_window(phi, s, 150)
            assert hermitian_min_eig(window, tol=1e-9) >= -1e-9

    def test_action_respects_composition_on_window(self):
        s = materialize(unilateral(), 300)
        phi = MobiusMap(a=0.3)
        psi = MobiusMap(beta=np.exp(0.7j), a=0.4j)
        lhs = apply_to_operator(mobius_compose(phi, psi), s)[:150, :150]
        rhs = apply_to_operator(phi, apply_to_operator(psi, s))[:150, :150]
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


ABOVE_ONE = 1.0 + 0.5 * CONTRACTION_TOL


def shift_with(at, value):
    """The 4 x 4 shift truncation with one entry overwritten."""
    t = materialize(unilateral(), 4)
    t[at] = value
    return t


weight_models = st.one_of(
    st.just(unilateral()),
    st.floats(1.01, 20.0).map(rational_family),
    st.lists(st.floats(1e-3, 1.0), min_size=63, max_size=63).map(lambda t: tabulated(t, t[-1])),
)


class TestBandedWindow:
    """transformed_commutator_window against the dense action and its guards."""

    @given(
        weight_models,
        st.integers(2, 64),
        st.data(),
        phases,
        st.one_of(st.just(0j), st.complex_numbers(max_magnitude=0.95, allow_nan=False)),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_oracle(self, model, n, data, t, a):
        window = data.draw(st.integers(1, n), label="window")
        phi = MobiusMap(beta=np.exp(1j * t), a=a)
        s = materialize(model, n)
        expected = self_commutator(apply_to_operator(phi, s))[:window, :window]
        got = transformed_commutator_window(phi, s, window)
        assert got.shape == (window, window)
        assert np.max(np.abs(got - expected)) <= 1e-12

    # exact-1 weights have zero defect, so the window keeps some indices of R
    # and drops others; 1 + CONTRACTION_TOL / 2 leaves a slightly negative defect
    @given(
        st.lists(st.sampled_from([1.0, ABOVE_ONE, 0.5, 0.3, 0.9]), min_size=1, max_size=12),
        st.sampled_from([1.0, ABOVE_ONE, 0.7]),
        st.integers(2, 40),
        st.data(),
        st.one_of(st.just(0j), st.complex_numbers(max_magnitude=0.95, allow_nan=False)),
    )
    @example([1.0, 0.5, 1.0, 1.0, 0.3], 1.0, 24, None, 0.5j)
    @example([ABOVE_ONE], ABOVE_ONE, 24, None, 0.7)
    @settings(max_examples=120, deadline=None)
    def test_partial_defect_support_matches_dense_oracle(self, table, limit, n, data, a):
        window = data.draw(st.integers(1, n), label="window") if data else n // 2
        phi = MobiusMap(a=a)
        s = materialize(tabulated(table, limit=limit), n)
        expected = self_commutator(apply_to_operator(phi, s))[:window, :window]
        assert np.max(np.abs(transformed_commutator_window(phi, s, window) - expected)) <= 1e-12

    @pytest.mark.parametrize(
        "n, window, a",
        [(2, 1, 0j), (2, 2, 0j), (2, 1, 0.6j), (7, 7, 0.5), (40, 40, -0.9j)],
    )
    @pytest.mark.parametrize("model", [unilateral(), rational_family(2.0)], ids=["shift", "rational"])
    def test_edges_match_dense_oracle(self, model, n, window, a):
        phi = MobiusMap(a=a)
        s = materialize(model, n)
        expected = self_commutator(apply_to_operator(phi, s))[:window, :window]
        got = transformed_commutator_window(phi, s, window)
        assert got.shape == (window, window)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_one_by_one_window_is_zero(self):
        # n = 1: R = I and no band below it; phi(T) = -a beta is normal
        got = transformed_commutator_window(MobiusMap(a=0.3), np.zeros((1, 1)), 1)
        assert got.shape == (1, 1) and got[0, 0] == 0

    @pytest.mark.parametrize("model", [unilateral(), rational_family(3.0)], ids=["shift", "rational"])
    def test_beta_drops_out(self, model):
        s = materialize(model, 50)
        for a in (0.0, 0.3, 0.5 * np.exp(1j * np.pi / 4), 0.7j):
            plain = transformed_commutator_window(MobiusMap(a=a), s, 30)
            turned = transformed_commutator_window(MobiusMap(beta=np.exp(1j * np.pi / 7), a=a), s, 30)
            assert np.array_equal(plain, turned)

    def test_expansive_weight_raises(self):
        s = materialize(tabulated([0.5, 1.0 + 2 * CONTRACTION_TOL, 0.5], 0.5), 6)
        with pytest.raises(NotAContraction):
            transformed_commutator_window(MobiusMap(a=0.3), s, 3)

    def test_weight_at_contraction_tolerance_passes(self):
        s = materialize(tabulated([0.5, 1.0 + 0.5 * CONTRACTION_TOL], 0.5), 6)
        assert transformed_commutator_window(MobiusMap(a=0.3), s, 3).shape == (3, 3)

    @pytest.mark.parametrize(
        "t",
        [0.5 * np.eye(4), np.eye(4, k=1), materialize(unilateral(), 4) + 1e-3 * np.eye(4, k=-2),
         shift_with((0, 3), 1e-300j), shift_with((3, 3), 3.0), shift_with((2, 3), 5e-324)],
        ids=["scalar", "upper-shift", "second-subdiagonal", "first-row", "corner", "subnormal"],
    )
    def test_non_shift_input_raises(self, t):
        with pytest.raises(ValueError, match="weighted shift"):
            transformed_commutator_window(MobiusMap(a=0.3), t, 2)
        # the window range is checked first
        with pytest.raises(ValueError, match="window"):
            transformed_commutator_window(MobiusMap(a=0.3), t, 5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)], ids=str)
    @pytest.mark.parametrize(
        "at", [(1, 0), (3, 2), (0, 0), (0, 3), (2, 0), (3, 3), (1, 3)],
        ids=["band-first", "band-last", "diagonal", "first-row", "second-subdiagonal", "corner",
             "above"],
    )
    def test_non_finite_entry_raises_non_finite(self, at, value):
        # a non-finite entry anywhere is reported as such, before any other check
        with pytest.raises(ValueError, match="non-finite"):
            transformed_commutator_window(MobiusMap(a=0.3), shift_with(at, value), 5)

    @pytest.mark.parametrize("window", [0, -1, 9])
    def test_bad_window_raises(self, window):
        with pytest.raises(ValueError, match="window"):
            transformed_commutator_window(MobiusMap(a=0.3), materialize(unilateral(), 8), window)

    def test_uses_no_dense_factorization(self, no_dense_linalg):
        s = materialize(unilateral(), 256)
        window = transformed_commutator_window(MobiusMap(a=0.7j), s, 128)
        powers = np.conj(0.7j) ** np.arange(128)
        closed = 0.51 * np.outer(powers, powers.conj())
        assert np.max(np.abs(window - closed)) <= 1e-12


class TestClosedFormCommutator:
    def test_matches_direct_on_window(self):
        n = 150
        internal = 2 * n + 2
        s = materialize(unilateral(), internal)
        x = basis_vector(internal, 0)
        for phi in MAP_GRID:
            direct = transformed_commutator_window(phi, s, n)
            closed = closed_form_selfcommutator(phi, s, x)[:n, :n]
            assert np.linalg.norm(direct - closed) <= 1e-6

    def test_rank_one_on_window(self):
        s = materialize(unilateral(), 300)
        for phi in MAP_GRID:
            window = transformed_commutator_window(phi, s, 150)
            sv = singular_spectrum(window)
            assert numerical_rank(window) == 1
            assert sv[1] / sv[0] <= 1e-6

    def test_trace_positive_real(self):
        s = materialize(unilateral(), 120)
        phi = MobiusMap(a=0.5)
        val = trace(closed_form_selfcommutator(phi, s, basis_vector(120, 0)))
        assert abs(val.imag) < 1e-12
        assert val.real > 0

    def test_zero_center_raises(self):
        s = materialize(unilateral(), 8)
        with pytest.raises(ZeroCenter):
            closed_form_selfcommutator(MobiusMap(), s, basis_vector(8, 0))

    def test_affine_branch_preserves_commutator(self):
        # a = 0: phi(T) = beta T and the commutator is invariant
        s = materialize(unilateral(), 20)
        phi = MobiusMap(beta=np.exp(1j * np.pi / 7))
        w = apply_to_operator(phi, s)
        np.testing.assert_allclose(self_commutator(w), self_commutator(s), atol=1e-13)


class TestInverseCommutator:
    def test_scalar_operator(self):
        out = inverse_commutator_rank_one(2.0 * np.eye(4), basis_vector(4, 0))
        np.testing.assert_allclose(out, rank_one_matrix(4) / 16.0, atol=1e-14)

    def test_rank_one_output(self, rng):
        t = random_complex_matrix(rng, 8) + 4.0 * np.eye(8)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert numerical_rank(inverse_commutator_rank_one(t, x)) == 1

    def test_matches_direct_commutator_of_inverses_on_window(self):
        # shifted truncation: [T*, T] = e_0 (x) e_0 up to a corner defect whose
        # influence on the leading window decays geometrically
        n, window = 80, 30
        t = materialize(unilateral(), n) + 1.5 * np.eye(n)
        ti = np.linalg.inv(t)
        direct = (adjoint(ti) @ ti - ti @ adjoint(ti))[:window, :window]
        formula = inverse_commutator_rank_one(t, basis_vector(n, 0))[:window, :window]
        assert np.linalg.norm(direct - formula) <= 1e-9

    def test_singular_operator_raises(self):
        # the truncated shift is nilpotent
        with pytest.raises(SingularInput):
            inverse_commutator_rank_one(materialize(unilateral(), 6), basis_vector(6, 0))

    def test_tiny_operator_counts_as_singular(self):
        # below unit scale the guard's cutoff 1e-13 is absolute, not relative to ||T||
        with pytest.raises(SingularInput):
            inverse_commutator_rank_one(5e-14 * np.eye(4), basis_vector(4, 0))


def rank_one_matrix(n):
    m = np.zeros((n, n), dtype=complex)
    m[0, 0] = 1.0
    return m
