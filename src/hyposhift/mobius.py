"""Disc automorphisms z -> beta (z - a) / (1 - conj(a) z) and their action on operators.

The action on a truncated weighted shift is built from its weight band: phi(T)
is a lower-triangular power series in T, so its self-commutator window needs
no factorization.  Also included: the closed-form self-commutator of the
transformed operator when the original self-commutator is the rank-one
x (x) x, and the exact rank-one formula for the commutator of inverses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAContraction, PoleHit, SingularInput, ZeroCenter
from .linalg import adjoint, as_matrix, is_singular

UNIMODULAR_TOL = 1e-12
CONTRACTION_TOL = 1e-10
# Offset diagonals of phi(T) are dropped once the geometric tail of their
# coefficients, (1 + |a|) |a|^(k-1), is at most this: below half an ulp of a
# unit entry, so the cut band equals phi(T) to working precision.
BAND_CUTOFF = 1e-17


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
    """phi(z), elementwise when z is an array; PoleHit if any z hits 1/conj(a).

    A scalar runs through the same array kernel as a batch, so a point maps to
    the same bits either way (numpy's vectorized complex product rounds
    differently from its scalar one, which shows near the pole).
    """
    z = np.asarray(z, dtype=np.complex128)
    denom = 1.0 - np.conj(phi.a) * z
    hit = np.abs(denom) < 1e-15
    if np.any(hit):
        first = z.flat[np.argmax(hit)]
        raise PoleHit(f"1 - conj(a) z vanishes at z = {first}")
    return (phi.beta * (z - phi.a) / denom)[()]


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
    """Leading window x window block of the self-commutator of phi(T).

    t is a truncated weighted shift as materialize builds it: a dense n x n
    matrix whose only nonzeros are its subdiagonal weights w_k; anything else,
    or a window outside [1, n], raises ValueError.  ||T|| = max |w_k|, so the
    contraction guard needs no SVD.

    phi(T) = -a beta I + sum_{k>=1} beta (1 - |a|^2) conj(a)^(k-1) T^k is lower
    triangular; its offset diagonal -k holds that coefficient times
    w_j ... w_{j+k-1}.  Offsets stop at n - 1 (T is nilpotent) or before the
    first k with (1 + |a|) |a|^(k-1) <= BAND_CUTOFF, leaving b of them, so the
    window of X*X - XX* needs only the first window columns and
    min(n, window + b) rows of X = phi(T).  The whole internal dimension of t
    enters through those rows: shift truncations agree with the infinite
    operator on the leading corner and the corner defect decays like
    |a|^(dim - window) into the window.
    """
    t = as_matrix(t)
    n = t.shape[0]
    if not 1 <= window <= n:
        raise ValueError(f"window must lie in [1, {n}], got {window}")
    sub = np.diagonal(t, -1)
    if np.count_nonzero(t) != np.count_nonzero(sub):
        raise ValueError("expected a truncated weighted shift: nonzeros only on the subdiagonal")
    norm = float(np.max(np.abs(sub), initial=0.0))
    if norm > 1.0 + CONTRACTION_TOL:
        raise NotAContraction(f"||T|| = {norm} exceeds 1")
    r = abs(phi.a)
    b = 0
    while b + 1 < n and (1.0 + r) * r**b > BAND_CUTOFF:
        b += 1
    rows = min(n, window + b)
    x = np.zeros((rows, window), dtype=np.complex128)
    flat = x.reshape(-1)
    flat[:: window + 1][:window] = -phi.a * phi.beta
    scale = phi.beta * (1.0 - r * r)
    prod = np.ones(window, dtype=np.complex128)
    for k in range(1, b + 1):
        length = min(window, rows - k)
        prod = prod[:length] * sub[k - 1 : k - 1 + length]
        flat[k * window :: window + 1][:length] = scale * np.conj(phi.a) ** (k - 1) * prod
    head = x[:window]
    return adjoint(x) @ x - head @ adjoint(head)
