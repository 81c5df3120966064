import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_complex_matrix(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def householder_unitary(rng, n):
    """Random Householder reflection I - 2 v v* with ||v|| = 1."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    return np.eye(n) - 2.0 * np.outer(v, v.conj())


def basis_vector(n, k):
    e = np.zeros(n, dtype=np.complex128)
    e[k] = 1.0
    return e


@pytest.fixture
def no_dense_linalg(monkeypatch):
    """Make every numpy.linalg factorization, solve and dense product raise in the test."""

    def forbidden(*args, **kwargs):
        raise AssertionError("dense factorization called")

    for name in ("svd", "solve", "inv", "lstsq", "eig", "eigh", "eigvals", "eigvalsh", "det",
                 "slogdet", "norm", "qr", "cholesky", "pinv", "matrix_power"):
        monkeypatch.setattr(np.linalg, name, forbidden)
