import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyposhift.shifts import unilateral

from conftest import basis_vector, householder_unitary, random_complex_matrix
from oracles import (
    NonHermitianInput, SingularResolvent, adjoint, hermitian_deviation, hermitian_min_eig,
    materialize, numerical_rank, operator_norm, rank_one, resolvent_solve, self_commutator,
    singular_spectrum, trace, trace_norm,
)


def truncated_shift(n):
    return materialize(unilateral(), n)


class TestTrace:
    def test_identity(self):
        assert trace(np.eye(3)) == 3

    def test_rank_one_projector(self):
        assert trace(rank_one(basis_vector(5, 0))) == pytest.approx(1.0)

    def test_diagonal(self):
        assert trace(np.diag([0.1, -0.2])) == pytest.approx(-0.1)

    def test_cyclic(self, rng):
        a = random_complex_matrix(rng, 6)
        b = random_complex_matrix(rng, 6)
        assert trace(a @ b) == pytest.approx(trace(b @ a))


class TestSingularSpectrum:
    def test_rank_one_projector(self):
        s = singular_spectrum(rank_one(basis_vector(4, 0)))
        np.testing.assert_allclose(s, [1, 0, 0, 0], atol=1e-14)
        assert trace_norm(rank_one(basis_vector(4, 0))) == pytest.approx(1.0)
        assert numerical_rank(rank_one(basis_vector(4, 0))) == 1

    def test_zero_matrix(self):
        z = np.zeros((3, 3))
        np.testing.assert_allclose(singular_spectrum(z), 0.0)
        assert numerical_rank(z) == 0

    def test_truncated_shift_oracle(self):
        # oracle: s-numbers are sqrt of eigenvalues of M*M, computed separately
        for n in (3, 5, 8):
            s_n = truncated_shift(n)
            oracle = np.sqrt(np.sort(np.linalg.eigvalsh(adjoint(s_n) @ s_n))[::-1])
            np.testing.assert_allclose(singular_spectrum(s_n), oracle, atol=1e-12)
            np.testing.assert_allclose(singular_spectrum(s_n), [1.0] * (n - 1) + [0.0], atol=1e-12)

    def test_trace_norm_dominates_trace(self, rng):
        for _ in range(20):
            m = random_complex_matrix(rng, 5)
            assert trace_norm(m) >= abs(trace(m)) - 1e-10

    def test_unitary_invariance(self, rng):
        m = random_complex_matrix(rng, 7)
        u = householder_unitary(rng, 7)
        np.testing.assert_allclose(
            singular_spectrum(u @ m @ adjoint(u)), singular_spectrum(m), atol=1e-10
        )


class TestSelfCommutator:
    def test_normal_matrix(self):
        d = np.diag([1.0 + 2j, -0.5, 3j])
        np.testing.assert_allclose(self_commutator(d), 0.0, atol=1e-14)

    def test_truncated_shift(self):
        n = 6
        expected = np.zeros((n, n))
        expected[0, 0] = 1.0
        expected[n - 1, n - 1] = -1.0
        np.testing.assert_allclose(self_commutator(truncated_shift(n)), expected, atol=1e-14)

    def test_windowed_rank(self):
        # full commutator of the truncation has rank 2; the leading window has rank 1
        n = 8
        c = self_commutator(truncated_shift(n))
        assert numerical_rank(c) == 2
        assert numerical_rank(c[: n - 1, : n - 1]) == 1

    def test_always_traceless(self, rng):
        for _ in range(10):
            m = random_complex_matrix(rng, 6)
            scale = max(1.0, trace_norm(m))
            assert abs(trace(self_commutator(m))) <= 1e-12 * scale


class TestHermitianMinEig:
    def test_projector(self):
        assert hermitian_min_eig(rank_one(basis_vector(4, 0))) == pytest.approx(0.0, abs=1e-14)

    def test_signature_diagonal(self):
        d = np.diag([1.0, 0.0, 0.0, -1.0])
        assert hermitian_min_eig(d) == pytest.approx(-1.0)

    def test_exact_commutator_diagonal_positive(self):
        from hyposhift.shifts import exact_commutator_diagonal, rational_family

        diag = exact_commutator_diagonal(rational_family(2.0), 8)
        assert diag[0] == pytest.approx(0.25)
        assert np.max(diag) == pytest.approx(0.25)
        assert hermitian_min_eig(np.diag(diag)) > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            hermitian_min_eig(truncated_shift(4))


class TestResolventSolve:
    def test_shift_adjoint_closed_form(self):
        # (S* - conj(w))^{-1} e_0 = -(1/conj(w)) e_0, exact for every truncation
        for n in (2, 5, 33):
            s_adj = adjoint(truncated_shift(n))
            for w in (2.0, 3.0 - 1j, 0.5j + 2):
                u = resolvent_solve(s_adj, np.conj(w), basis_vector(n, 0))
                np.testing.assert_allclose(u, -basis_vector(n, 0) / np.conj(w), atol=1e-14)

    def test_zero_matrix(self):
        u = resolvent_solve(np.zeros((3, 3)), 1.0, basis_vector(3, 0))
        np.testing.assert_allclose(u, -basis_vector(3, 0), atol=1e-15)

    def test_chebyshev_tridiagonal(self):
        # eigensolve oracle: (S + S*)/2 has eigenvalues cos(j pi / (n+1))
        n = 12
        s = truncated_shift(n)
        a = (s + adjoint(s)) / 2.0
        eigs = np.sort(np.linalg.eigvalsh(a))
        oracle = np.sort(np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        np.testing.assert_allclose(eigs, oracle, atol=1e-12)
        v = basis_vector(n, 2)
        u = resolvent_solve(a, 2.0, v)
        np.testing.assert_allclose((a - 2.0 * np.eye(n)) @ u, v, atol=1e-10)

    def test_singular_raises(self):
        with pytest.raises(SingularResolvent):
            resolvent_solve(np.eye(3), 1.0, basis_vector(3, 0))

    def test_residual_bound(self, rng):
        for _ in range(10):
            m = random_complex_matrix(rng, 8)
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            lam = 20.0 + 3j  # far from the spectrum of a unit-scale random matrix
            u = resolvent_solve(m, lam, v)
            residual = np.linalg.norm((m - lam * np.eye(8)) @ u - v)
            assert residual <= 1e-10 * np.linalg.norm(v)


@given(
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_rank_one_properties(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    p = rank_one(x)
    assert hermitian_deviation(p) <= 1e-12 * max(1.0, np.linalg.norm(x) ** 2)
    assert trace(p) == pytest.approx(np.linalg.norm(x) ** 2)
    assert np.linalg.eigvalsh((p + adjoint(p)) / 2)[0] >= -1e-10 * max(1.0, np.linalg.norm(x) ** 2)


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_adjoint_involution(n, seed):
    rng = np.random.default_rng(seed)
    m = random_complex_matrix(rng, n)
    np.testing.assert_array_equal(adjoint(adjoint(m)), m)


def test_operator_norm_of_shift():
    assert operator_norm(truncated_shift(9)) == pytest.approx(1.0)
