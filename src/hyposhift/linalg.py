"""Dense complex matrix algebra: traces, singular spectra, commutators.

Serves the paths that act on general matrices: Cartesian pairs, the
multiplicative-determinant tripwire, the closed-form Moebius commutators, and
the dense test oracles.  Weighted-shift resolvents, determinants, tracial
forms and the Moebius action on a shift do not come through here; they are
computed from the weight band (see shifts, traceforms and mobius).

Matrices are plain numpy complex arrays.  Every function is pure; nothing is
mutated in place.  Inner products follow the convention <u, v> = sum u_k conj(v_k)
(linear in the first argument).
"""
from __future__ import annotations

import numpy as np

from .errors import NonHermitianInput

HERMITIAN_TOL = 1e-12
RANK_TOL = 1e-8
# Singularity cutoff: s_min <= SINGULAR_CUTOFF * max(s_max, 1) for dense matrices
# (is_singular), s_min <= SINGULAR_CUTOFF * s_max for the banded shift resolvent.
SINGULAR_CUTOFF = 1e-13


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix and validate finiteness."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """<u, v> = sum_k u_k conj(v_k)."""
    return complex(np.vdot(v, u))


def rank_one(x) -> np.ndarray:
    """Matrix of the operator h -> <h, x> x.  Hermitian PSD with trace ||x||^2."""
    x = np.asarray(x, dtype=np.complex128)
    return np.outer(x, x.conj())


def trace(m: np.ndarray) -> complex:
    return complex(np.trace(m))


def singular_spectrum(m: np.ndarray) -> np.ndarray:
    """Singular values of m in non-increasing order (eigenvalues of (m*m)^{1/2})."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def trace_norm(m: np.ndarray) -> float:
    return float(np.sum(singular_spectrum(m)))


def operator_norm(m: np.ndarray) -> float:
    s = singular_spectrum(m)
    return float(s[0]) if s.size else 0.0


def is_singular(m: np.ndarray) -> bool:
    """Invertibility guard shared by the dense solves.

    Relative to s_max, with an absolute floor: below unit scale a smallest
    singular value under SINGULAR_CUTOFF counts as zero.
    """
    s = singular_spectrum(m)
    return bool(s[-1] <= SINGULAR_CUTOFF * max(float(s[0]), 1.0))


def numerical_rank(m: np.ndarray, tol: float = RANK_TOL) -> int:
    """Number of singular values above tol * s_1 (relative threshold)."""
    s = singular_spectrum(m)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def self_commutator(m: np.ndarray) -> np.ndarray:
    """m*m - mm*.  Hermitian, and traceless for every finite matrix."""
    m = as_matrix(m)
    ma = adjoint(m)
    return ma @ m - m @ ma


def hermitian_deviation(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - adjoint(m)))) if m.size else 0.0


def hermitian_min_eig(m: np.ndarray, tol: float = HERMITIAN_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    The input is symmetrized before the eigensolve; a deviation above tol
    raises NonHermitianInput instead.
    """
    m = as_matrix(m)
    if hermitian_deviation(m) > tol:
        raise NonHermitianInput(
            f"matrix deviates from Hermitian by {hermitian_deviation(m):.3e} > {tol:.1e}"
        )
    sym = (m + adjoint(m)) / 2.0
    return float(np.linalg.eigvalsh(sym)[0])

