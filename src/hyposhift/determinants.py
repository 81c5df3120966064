"""Determinant calculus for trace-class perturbations of the identity.

Covers the eigenvalue-product determinant of I + K, its log-series form for
||K||_1 < 1, the determining function E(z, w) of a Cartesian pair, and the
rank-one determinant 1 - <(T* - conj(w))^{-1} x, (T* - conj(z))^{-1} x> that a
shift with rank-one self-commutator produces.  That last one never forms a
matrix: both resolvent vectors are O(n) back-substitutions on the weight band
(shifts.adjoint_resolvent_solve).  The other functions act on general dense
matrices.

multiplicative_commutator_pitfall documents the trap this module is built
around: the determinant of the finite multiplicative commutator is identically
1 by multiplicativity, so the determining determinant has to be computed
through the rank-one perturbation, never through finite products.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPSD, NotRankOne, SeriesDivergent, SingularResolvent, SpectrumHit
from . import linalg
from .linalg import adjoint, as_matrix, inner, is_singular, trace, trace_norm
from .shifts import WeightSequence, adjoint_resolvent_solve, exact_commutator_diagonal

LOGSERIES_TERM_TOL = 1e-16
LOGSERIES_MAX_TERMS = 200
PSD_CLIP = 1e-12


@dataclass(frozen=True)
class CartesianPair:
    """T = A + iB with Hermitian A, B and a PSD self-commutator model D."""

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray


def cartesian_parts(t: np.ndarray, d: np.ndarray) -> CartesianPair:
    """Split T into A = (T + T*)/2, B = (T - T*)/(2i) and attach the PSD model D.

    Validates that D is Hermitian PSD and that 2i[A, B] reproduces the finite
    self-commutator of T (an exact algebraic identity).
    """
    t = as_matrix(t)
    d = as_matrix(d)
    if linalg.hermitian_deviation(d) > linalg.HERMITIAN_TOL:
        raise NotPSD("D is not Hermitian")
    if np.linalg.eigvalsh((d + adjoint(d)) / 2.0)[0] < -PSD_CLIP:
        raise NotPSD("D has a negative eigenvalue")
    a = (t + adjoint(t)) / 2.0
    b = (t - adjoint(t)) / 2j
    comm = 2j * (a @ b - b @ a)
    finite = linalg.self_commutator(t)
    scale = max(1.0, float(np.max(np.abs(finite))))
    if np.max(np.abs(comm - finite)) > 1e-12 * scale:
        raise AssertionError("2i[A, B] failed to reproduce T*T - TT*")
    return CartesianPair(a=a, b=b, d=d)


def det_eigenproduct(k: np.ndarray) -> complex:
    """prod_j (1 + lambda_j(K)) over all eigenvalues of K; 1 for K = 0."""
    return complex(np.prod(1.0 + np.linalg.eigvals(as_matrix(k))))


def det_logseries(k: np.ndarray) -> complex:
    """exp(tr log(I + K)) via log(I+K) = -sum (-1)^n K^n / n, valid for ||K||_1 < 1.

    Stops when the current term's trace norm drops below 1e-16 or after 200
    terms; the tail is geometric in ||K||_1.
    """
    k = as_matrix(k)
    tn = trace_norm(k)
    if tn >= 1.0:
        raise SeriesDivergent(f"||K||_1 = {tn} >= 1, log series diverges")
    power = k.copy()
    log_trace = 0.0 + 0.0j
    for n in range(1, LOGSERIES_MAX_TERMS + 1):
        log_trace += (-1.0) ** (n + 1) * trace(power) / n
        if trace_norm(power) < LOGSERIES_TERM_TOL:
            break
        power = power @ k
    return complex(np.exp(log_trace))


def determining_det(model: WeightSequence, x: np.ndarray, z: complex, w: complex, n: int) -> complex:
    """1 - <(T* - conj(w))^{-1} x, (T* - conj(z))^{-1} x> on the n-truncation.

    Only models whose infinite self-commutator is rank one (constant weights,
    [T*, T] = w_0^2 e_0 (x) e_0) are admitted; z, w must lie outside the closed
    disc of radius ||T||.
    """
    if abs(z) <= model.sup or abs(w) <= model.sup:
        raise SpectrumHit(f"|z| and |w| must exceed {model.sup}")
    diag = exact_commutator_diagonal(model, max(n, 8))
    if np.max(np.abs(diag[1:])) > 1e-14:
        raise NotRankOne("infinite-model self-commutator is not rank one")
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (n,):
        raise ValueError(f"x must have shape ({n},), got {x.shape}")
    u_w = adjoint_resolvent_solve(model, w, x)
    u_z = adjoint_resolvent_solve(model, z, x)
    return 1.0 - inner(u_w, u_z)


def _psd_sqrt(d: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((d + adjoint(d)) / 2.0)
    if vals[0] < -PSD_CLIP:
        raise NotPSD(f"smallest eigenvalue {vals[0]} below -{PSD_CLIP}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ adjoint(vecs)


def determining_function_E(pair: CartesianPair, z: complex, w: complex) -> np.ndarray:
    """E(z, w) = I - 2i D^{1/2} (A - z)^{-1} (B - w)^{-1} D^{1/2}."""
    n = pair.a.shape[0]
    eye = np.eye(n)
    for name, h, point in (("A", pair.a, z), ("B", pair.b, w)):
        if is_singular(h - point * eye):
            raise SpectrumHit(f"{point} is numerically in the spectrum of {name}")
    d_sqrt = _psd_sqrt(pair.d)
    inner_block = np.linalg.solve(pair.b - w * eye, d_sqrt)
    inner_block = np.linalg.solve(pair.a - z * eye, inner_block)
    return eye - 2j * d_sqrt @ inner_block


def determining_function_det(pair: CartesianPair, z: complex, w: complex) -> complex:
    e = determining_function_E(pair, z, w)
    return det_eigenproduct(e - np.eye(e.shape[0]))


def multiplicative_commutator_pitfall(t: np.ndarray, z: complex, w: complex) -> complex:
    """det of (T - z)(T* - conj(w))(T - z)^{-1}(T* - conj(w))^{-1} on a truncation.

    Always 1 for finite matrices by multiplicativity of det.  Kept as a
    tripwire: any pipeline that computes the determining determinant through
    finite products collapses to this constant.
    """
    t = as_matrix(t)
    n = t.shape[0]
    eye = np.eye(n)
    c1 = t - z * eye
    c2 = adjoint(t) - np.conj(w) * eye
    if is_singular(c1) or is_singular(c2):
        raise SingularResolvent("resolvent does not exist on the truncation")
    m = c1 @ c2 @ np.linalg.inv(c1) @ np.linalg.inv(c2)
    return complex(np.linalg.det(m))
