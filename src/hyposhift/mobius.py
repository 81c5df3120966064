"""Disc automorphisms z -> beta (z - a) / (1 - conj(a) z) and their action on operators.

Includes the closed-form self-commutator of the transformed operator when the
original self-commutator is the rank-one x (x) x, and the exact rank-one formula
for the commutator of inverses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAContraction, PoleHit, SingularInput, ZeroCenter
from .linalg import adjoint, as_matrix, is_singular, operator_norm, self_commutator

UNIMODULAR_TOL = 1e-12
CONTRACTION_TOL = 1e-10


@dataclass(frozen=True)
class MobiusMap:
    """z -> beta (z - a) / (1 - conj(a) z), |beta| = 1, |a| < 1."""

    beta: complex = 1.0 + 0j
    a: complex = 0.0 + 0j

    def __post_init__(self):
        beta = complex(self.beta)
        a = complex(self.a)
        if abs(abs(beta) - 1.0) > UNIMODULAR_TOL:
            raise ValueError(f"|beta| must be 1, got {abs(beta)}")
        if abs(a) >= 1.0:
            raise ValueError(f"|a| must be < 1, got {abs(a)}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "a", a)

    @property
    def is_identity(self) -> bool:
        return self.a == 0 and self.beta == 1


def mobius_eval(phi: MobiusMap, z):
    """phi(z), elementwise when z is an array; PoleHit if any z hits 1/conj(a)."""
    denom = 1.0 - np.conj(phi.a) * z
    hit = np.abs(denom) < 1e-15
    if np.any(hit):
        first = np.asarray(z).flat[np.argmax(hit)]
        raise PoleHit(f"1 - conj(a) z vanishes at z = {first}")
    return phi.beta * (z - phi.a) / denom


def mobius_invert(phi: MobiusMap) -> MobiusMap:
    # phi^{-1}(w) = (w + a beta) / (beta + conj(a) w) = conj(beta) (w - (-a beta)) / (1 - conj(-a beta) w)
    return MobiusMap(beta=np.conj(phi.beta), a=-phi.a * phi.beta)


def mobius_compose(phi: MobiusMap, psi: MobiusMap) -> MobiusMap:
    """(phi o psi)(z) = phi(psi(z)), via the 2x2 matrix representation."""
    m_phi = np.array([[phi.beta, -phi.beta * phi.a], [-np.conj(phi.a), 1.0]])
    m_psi = np.array([[psi.beta, -psi.beta * psi.a], [-np.conj(psi.a), 1.0]])
    m = m_phi @ m_psi
    a_mat, b_mat, c_mat, d_mat = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    beta = a_mat / d_mat
    beta = beta / abs(beta)
    a = -b_mat / a_mat
    # closure of the group guarantees -conj(a) = c/d up to roundoff
    return MobiusMap(beta=beta, a=a)


def apply_to_operator(phi: MobiusMap, t: np.ndarray) -> np.ndarray:
    """beta (T - aI)(I - conj(a) T)^{-1}; requires ||T|| <= 1 (up to tolerance)."""
    t = as_matrix(t)
    norm = operator_norm(t)
    if norm > 1.0 + CONTRACTION_TOL:
        raise NotAContraction(f"||T|| = {norm} exceeds 1")
    n = t.shape[0]
    eye = np.eye(n)
    numer = t - phi.a * eye
    denom = eye - np.conj(phi.a) * t
    # right division: X = numer @ denom^{-1}
    x = np.linalg.solve(denom.T, numer.T).T
    return phi.beta * x


def closed_form_selfcommutator(phi: MobiusMap, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Self-commutator of phi(T) when [T*, T] = x (x) x, in closed form.

    Equals |c|^2 ((T - 1/conj(a))(T* - 1/a))^{-1} (x(x)x) ((T* - 1/a)(T - 1/conj(a)))^{-1}
    with c = (a - 1/conj(a)) / conj(a).  Both resolvent products are Hermitian
    (each is the adjoint of itself, not of the other), so the result is
    |c|^2 y z* with two separately solved vectors; it is rank one, and Hermitian
    PSD when x (x) x really is the self-commutator of T.  a = 0 is the affine
    case where the commutator is unchanged; the formula divides by conj(a), so
    that branch raises ZeroCenter.
    """
    t = as_matrix(t)
    x = np.asarray(x, dtype=np.complex128)
    a = phi.a
    if a == 0:
        raise ZeroCenter("a = 0 is affine: the self-commutator equals [T*, T]")
    a_bar_inv = 1.0 / np.conj(a)
    c = (a - a_bar_inv) / np.conj(a)
    n = t.shape[0]
    eye = np.eye(n)
    left = (t - a_bar_inv * eye) @ (adjoint(t) - (1.0 / a) * eye)
    right = (adjoint(t) - (1.0 / a) * eye) @ (t - a_bar_inv * eye)
    y = np.linalg.solve(left, x)
    z = np.linalg.solve(right, x)  # right factor is Hermitian: (M^{-1})* x = M^{-1} x
    return abs(c) ** 2 * np.outer(y, z.conj())


def inverse_commutator_rank_one(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[(T*)^{-1}, T^{-1}] when [T*, T] = x (x) x: equals (TT*)^{-1}(x(x)x)(T*T)^{-1}."""
    t = as_matrix(t)
    x = np.asarray(x, dtype=np.complex128)
    if is_singular(t):
        raise SingularInput("T is numerically singular")
    ta = adjoint(t)
    y = np.linalg.solve(t @ ta, x)  # (TT*)^{-1} x
    z = np.linalg.solve(ta @ t, x)  # (T*T)^{-1} x
    return np.outer(y, z.conj())


def transformed_commutator_window(phi: MobiusMap, t: np.ndarray, window: int) -> np.ndarray:
    """Leading window of the self-commutator of phi(T).

    Compute on the full internal dimension of t, then cut: shift truncations
    agree with the infinite operator on the leading corner and the corner
    defect decays like |a|^(dim - window) into the window.
    """
    w = apply_to_operator(phi, t)
    return self_commutator(w)[:window, :window]
