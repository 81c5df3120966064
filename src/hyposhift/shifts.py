"""Weighted unilateral shift models and their banded truncations.

The model is a WeightSequence: closed-form or tabulated weights together with
their limit value.  The n-truncation T_n is stored as its band: entry
(k+1, k) = w_k, zero elsewhere.  The adjoint resolvent (T_n* - conj(w))^{-1},
its singularity guard and its norm are computed from that band in O(n);
materialize builds the dense matrix that the Moebius window reads its band
from, and the dense oracles of the tests.

The exact infinite-model self-commutator data comes from closed forms, never
from truncations: the finite self-commutator is always traceless, so
truncating before commuting destroys every trace identity.  All trace and rank
claims therefore go through exact_commutator_diagonal.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimension, NoLimitDeclared, SingularResolvent
from .linalg import SINGULAR_CUTOFF

KIND_UNILATERAL = "unilateral"
KIND_RATIONAL = "rational"
KIND_TABULATED = "tabulated"

# Stand-in for an exactly zero Sturm pivot.
_PIVOT_FLOOR = sys.float_info.min


@dataclass(frozen=True)
class WeightSequence:
    """Weighted shift model: weights w_0, w_1, ... with a declared limit w_inf.

    kinds:
      unilateral  w_n = 1
      rational    w_n = (n+1)/(n+lam), lam > 1 (strictly increasing, sup 1)
      tabulated   finite list, constant equal to the declared limit beyond it
    """

    kind: str
    lam: float | None = None
    table: tuple[float, ...] = field(default=())
    limit: float | None = None

    def __post_init__(self):
        if self.kind == KIND_UNILATERAL:
            object.__setattr__(self, "limit", 1.0)
        elif self.kind == KIND_RATIONAL:
            if self.lam is None or self.lam <= 1.0:
                raise ValueError("rational weight family requires lam > 1")
            object.__setattr__(self, "limit", 1.0)
        elif self.kind == KIND_TABULATED:
            if not self.table:
                raise ValueError("tabulated weights need a non-empty table")
            if any(w <= 0 for w in self.table):
                raise ValueError("weights must be positive")
            if self.limit is not None and self.limit <= 0:
                raise ValueError("declared limit must be positive")
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    def weights(self, n: int) -> np.ndarray:
        """(w_0, ..., w_{n-1}); a tabulated table extends by its declared limit."""
        if self.kind == KIND_UNILATERAL:
            return np.ones(n)
        if self.kind == KIND_RATIONAL:
            k = np.arange(n, dtype=np.float64)
            return (k + 1.0) / (k + self.lam)
        stored = len(self.table)
        if n <= stored:
            return np.array(self.table[:n], dtype=np.float64)
        if self.limit is None:
            raise NoLimitDeclared(
                f"tabulated sequence of length {stored} has no declared "
                f"limit; cannot extend to index {stored}"
            )
        out = np.full(n, float(self.limit))
        out[:stored] = self.table
        return out

    @property
    def sup(self) -> float:
        if self.kind == KIND_UNILATERAL or self.kind == KIND_RATIONAL:
            return 1.0
        vals = list(self.table)
        if self.limit is not None:
            vals.append(self.limit)
        return max(vals)


def unilateral() -> WeightSequence:
    return WeightSequence(KIND_UNILATERAL)


def rational_family(lam: float) -> WeightSequence:
    return WeightSequence(KIND_RATIONAL, lam=lam)


def tabulated(weights, limit: float | None = None) -> WeightSequence:
    return WeightSequence(KIND_TABULATED, table=tuple(float(w) for w in weights), limit=limit)


def band(model: WeightSequence, n: int) -> np.ndarray:
    """Subdiagonal (w_0, ..., w_{n-2}) of the n-truncation: entry (k+1, k) = w_k."""
    if n < 2:
        raise InvalidDimension(f"truncation dimension must be >= 2, got {n}")
    return model.weights(n - 1)


def materialize(model: WeightSequence, n: int) -> np.ndarray:
    """N x N truncation: entry (k+1, k) = w_k, zero elsewhere.  Nilpotent."""
    sub = band(model, n)
    m = np.zeros((n, n), dtype=np.complex128)
    k = np.arange(n - 1)
    m[k + 1, k] = sub
    return m


def adjoint_resolvent_solve(model: WeightSequence, w: complex, x) -> np.ndarray:
    """u = (T_n* - conj(w))^{-1} x with n = len(x), by back-substitution.

    T_n* - conj(w) is upper bidiagonal (diagonal -conj(w), superdiagonal w_k),
    so u_{n-1} = -x_{n-1}/conj(w) and u_k = (x_k - w_k u_{k+1}) / (-conj(w)).
    The recurrence runs in sequence: its cumulative products would overflow.
    Raises SingularResolvent like the dense oracle (s_min <= 1e-13 s_max).
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got shape {x.shape}")
    sub = band(model, x.size)
    _resolvent_guard(sub, w)
    diag = -complex(np.conj(w))
    xs = x.tolist()
    ws = sub.tolist()
    acc = xs[-1] / diag
    u = [acc]
    for k in range(x.size - 2, -1, -1):
        acc = (xs[k] - ws[k] * acc) / diag
        u.append(acc)
    return np.array(u[::-1], dtype=np.complex128)


def adjoint_resolvent_smin(model: WeightSequence, w: complex, n: int) -> float:
    """Smallest singular value of T_n* - conj(w), i.e. 1 / ||(T_n* - conj(w))^{-1}||.

    Raises SingularResolvent when it is at most 1e-13 s_max.  Otherwise
    bisects with Sturm counts on the Golub-Kahan tridiagonal (see
    _count_below), to relative accuracy.
    """
    sub = band(model, n)
    lo = _resolvent_guard(sub, w)
    return _bisect_singular_value(_golub_kahan_squares(sub, w), 1, lo, abs(w))


def _resolvent_guard(sub: np.ndarray, w: complex) -> float:
    """Positive lower bound on s_min of T_n* - conj(w); raises SingularResolvent
    when s_min <= SINGULAR_CUTOFF * s_max.

    Weyl's inequality gives |w| - max w_k <= s_min and s_max <= |w| + max w_k,
    which decides the guard without matrix work once |w| clears the weights.
    Otherwise s_max is bisected and one Sturm count at the threshold decides.
    """
    a, top = abs(w), float(np.max(sub))
    if not math.isfinite(a):
        raise ValueError(f"resolvent point {w} is not finite")
    if a - top > SINGULAR_CUTOFF * (a + top):
        return a - top
    e2 = _golub_kahan_squares(sub, w)
    s_max = _bisect_singular_value(e2, sub.size + 1, max(a, top), a + top)
    threshold = SINGULAR_CUTOFF * s_max
    if _count_below(e2, threshold) > 0:
        raise SingularResolvent(f"T* - ({np.conj(w)})I is numerically singular")
    return threshold


def _golub_kahan_squares(sub: np.ndarray, w: complex) -> list:
    """Squared off-diagonal |w|, w_0, |w|, w_1, ..., |w| of the Golub-Kahan matrix.

    Diagonal unitaries take T_n* - conj(w) to the real bidiagonal with
    diagonal |w| and superdiagonal w_k, leaving its singular values alone;
    the Golub-Kahan tridiagonal [[0, B*], [B, 0]], reordered, has zero
    diagonal, these off-diagonal entries and eigenvalues +-s_j.
    """
    e = np.full(2 * sub.size + 1, abs(w))
    e[1::2] = sub
    return (e * e).tolist()


def _count_below(e2: list, lam: float) -> int:
    """Number of singular values below lam > 0 (Sturm count on the Golub-Kahan
    tridiagonal minus the n negative eigenvalues).

    The LDL* pivots of a zero-diagonal tridiagonal are computed to high
    relative accuracy, so bisection on this count resolves small singular
    values relative to themselves, not to s_max (Demmel and Kahan 1990).
    """
    lam = float(lam)
    negative = 1
    q = -lam
    for sq in e2:
        q = -lam - sq / (q if q != 0.0 else -_PIVOT_FLOOR)
        if q < 0.0:
            negative += 1
    return negative - (len(e2) + 1) // 2


def _bisect_singular_value(e2: list, k: int, lo: float, hi: float) -> float:
    """k-th smallest singular value in [lo, hi], to relative accuracy.

    Halves geometrically while the bracket spans more than a factor of two,
    then arithmetically until it stops shrinking in floating point.
    """
    while True:
        mid = math.sqrt(lo * hi) if lo > 0.0 and hi > 2.0 * lo else 0.5 * (lo + hi)
        if not lo < mid < hi:
            return 0.5 * (lo + hi)
        if _count_below(e2, mid) >= k:
            hi = mid
        else:
            lo = mid


def exact_commutator_diagonal(model: WeightSequence, n: int) -> np.ndarray:
    """First n diagonal entries of the INFINITE operator's [T*, T].

    (w_0^2, w_1^2 - w_0^2, ..., w_{n-1}^2 - w_{n-2}^2); partial sums telescope
    to w_{n-1}^2 exactly.  This is the quantity every trace identity uses; the
    finite truncation's commutator is traceless and must not be summed.
    """
    if n < 1:
        raise InvalidDimension(f"need n >= 1, got {n}")
    w2 = model.weights(n) ** 2
    diag = np.empty(n)
    diag[0] = w2[0]
    diag[1:] = w2[1:] - w2[:-1]
    return diag


def symbol_curve(model: WeightSequence, samples: int) -> np.ndarray:
    """Essential-spectrum circle w_inf * exp(2 pi i k / samples), k = 0..samples-1."""
    if samples < 3:
        raise ValueError(f"need at least 3 samples, got {samples}")
    w_inf = model.limit
    if w_inf is None:
        raise NoLimitDeclared("tabulated sequence has no declared limit")
    k = np.arange(samples)
    return w_inf * np.exp(2j * np.pi * k / samples)
