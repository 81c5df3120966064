"""Disc automorphisms z -> beta (z - a) / (1 - conj(a) z) and their action on a shift.

The self-commutator window of phi(T) for a truncated weighted shift T comes
from the transfer of defect operators (Sz.-Nagy and Foias): with the
resolvent R = (I - conj(a) T)^-1, which commutes with T,

    I - phi(T)* phi(T) = (1 - |a|^2) R* (I - T* T) R,
    I - phi(T) phi(T)* = (1 - |a|^2) R (I - T T*) R*,

so [phi(T)*, phi(T)] = (1 - |a|^2) (R D1 R* - R* D2 R) with the diagonal
defects D1 = I - T T* and D2 = I - T* T.  R is a band of products of
consecutive weights, and only the indices where a defect is nonzero enter the
products; for the shift D1 = e_0 e_0* and D2 = e_(n-1) e_(n-1)*, so the window
is an outer product.  The dense action, map composition and the closed-form
rank-one commutators it is checked against are test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import NotAContraction, PoleHit

UNIMODULAR_TOL = 1e-12
CONTRACTION_TOL = 1e-10
# R = (I - conj(a) T)^-1 keeps its offset diagonals k <= b, b the number of
# k < n - 1 (T is nilpotent) with (1 + |a|) |a|^k, phi(T)'s coefficient bound
# on its diagonal k + 1, above this: dropped entries are below
# |a|^(b+1) < BAND_CUTOFF, under half an ulp of a unit entry, so the cut band
# gives the window to working precision.
BAND_CUTOFF = 1e-17


@dataclass(frozen=True)
class MobiusMap:
    """z -> beta (z - a) / (1 - conj(a) z), |beta| = 1, |a| < 1.

    A beta within UNIMODULAR_TOL of the unit circle is admitted and stored as
    beta/|beta|, so every use of the map reads one unimodular beta.
    """

    beta: complex = 1.0 + 0j
    a: complex = 0.0 + 0j

    def __post_init__(self):
        beta = complex(self.beta)
        a = complex(self.a)
        if abs(abs(beta) - 1.0) > UNIMODULAR_TOL:
            raise ValueError(f"|beta| must be 1, got {abs(beta)}")
        if abs(a) >= 1.0:
            raise ValueError(f"|a| must be < 1, got {abs(a)}")
        object.__setattr__(self, "beta", beta / abs(beta))
        object.__setattr__(self, "a", a)


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


def transformed_commutator_window(phi: MobiusMap, t: np.ndarray, window: int) -> np.ndarray:
    """Leading window x window block of the self-commutator of phi(T).

    t is a truncated weighted shift as a dense n x n matrix whose only
    nonzeros are its subdiagonal weights w_k; a non-square or non-finite
    matrix, any other nonzero, or a window outside [1, n] raises ValueError.
    ||T|| = max |w_k|, so the contraction guard needs no SVD.  One read of
    the n^2 entries checks them: the entries off the subdiagonal must be zero
    and the weights finite, and only a failed check looks for a non-finite
    entry elsewhere, which still takes precedence.

    phi(T) = beta (T - a) R with R = (I - conj(a) T)^-1 = sum_k conj(a)^k T^k,
    and R commutes with T.  Hence, with R^-1 = I - conj(a) T,
        R^-* R^-1 - (T - a)* (T - a) = (1 - |a|^2) (I - T* T),
    which is I - phi(T)* phi(T) between R* and R; the same lines with
    R (T - a) in place of (T - a) R give I - phi(T) phi(T)*.  Subtracting,
        [phi(T)*, phi(T)] = (1 - |a|^2) (R D1 R* - R* D2 R),
    D1 = I - T T* = diag(1, 1 - |w_0|^2, ...), D2 = I - T* T =
    diag(1 - |w_0|^2, ..., 1 - |w_(n-2)|^2, 1).  beta drops out.

    Offset diagonal k of R holds conj(a)^k w_j ... w_(j+k-1); it is cut after
    b offsets (see BAND_CUTOFF), so the window needs R's first window columns
    on min(n, window + b) rows.  A diagonal unitary U, u_(j+1) / u_j the phase
    of conj(a) w_j, makes U* R U real, so the band and the products run in
    real arithmetic and the window is U (...) U*.  Only columns c of R with
    (D1)_cc != 0 and rows with (D2)_rr != 0 enter: for the shift one of each
    (the row only when n - 1 < window + b), and the window is an outer
    product.  The cost is O(n^2) to read t, O(window b) for R's band and
    O(window^2 s) for the product, s <= 2 window + b the number of nonzero
    defects kept; the truncation's corner enters through D2's last entry.
    """
    t = np.asarray(t, dtype=np.complex128)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {t.shape}")
    n = t.shape[0]
    flat = t.reshape(-1)
    # rows of n + 1 entries that each end on a subdiagonal weight, then t[n-1, n-1]
    body = flat[: n * n - 1].reshape(n - 1, n + 1)
    sub = body[:, n]
    off_band = body[:, :n].view(np.float64).any() or flat[n * n - 1 :].any()
    if (off_band or not np.isfinite(sub).all()) and not np.isfinite(flat).all():
        raise ValueError("matrix has non-finite entries")
    if not 1 <= window <= n:
        raise ValueError(f"window must lie in [1, {n}], got {window}")
    if off_band:
        raise ValueError("expected a truncated weighted shift: nonzeros only on the subdiagonal")
    mod = np.abs(sub)
    norm = float(np.max(mod, initial=0.0))
    if norm > 1.0 + CONTRACTION_TOL:
        raise NotAContraction(f"||T|| = {norm} exceeds 1")
    r = abs(phi.a)
    b = int(np.count_nonzero((1.0 + r) * r ** np.arange(n - 1) > BAND_CUTOFF))
    rows = min(n, window + b)
    # defect[i] = (D1)_ii and defect[i + 1] = (D2)_ii
    defect = np.concatenate(([1.0], 1.0 - mod * mod, [1.0]))
    kept_cols = np.flatnonzero(defect[:window])
    kept_rows = np.flatnonzero(defect[1 : rows + 1])
    # rt[c, c + k] = |R[c + k, c]| = |conj(a) w_c| ... |conj(a) w_(c+k-1)|, zero past w_(n-2);
    # the band view's last entry, rt[window - 1, window - 1 + b], is rt's last
    v = np.zeros(window + b - 1)
    v[: n - 1] = r * mod[: window + b - 1]
    rt = np.zeros((window, window + b))
    s0, s1 = rt.strides
    band = as_strided(rt, shape=(window, b + 1), strides=(s0 + s1, s1))
    band[:, 0] = 1.0
    np.cumprod(sliding_window_view(v, b), axis=1, out=band[:, 1:])
    # kept columns of R (as rows), then kept rows of R, each on columns < window
    m = np.concatenate((rt[kept_cols, :window], rt[:, kept_rows].T))
    weights = (1.0 - r * r) * np.concatenate((defect[kept_cols], -defect[kept_rows + 1]))
    real = m.T @ (weights[:, None] * m)
    # u_j = phase of conj(a)^j w_0 ... w_(j-1), so R = U |R| U*
    turns = np.angle(np.conj(phi.a) * sub[: window - 1])
    u = np.exp(1j * np.concatenate(([0.0], np.cumsum(turns))))
    out = real * u[:, None]
    out *= u.conj()
    return out
