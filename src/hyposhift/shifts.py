"""Weighted unilateral shift models and their banded truncations.

The model is a WeightSequence: closed-form or tabulated weights together with
their limit value, which a table must declare, so that every model defines the
infinite operator on l^2.  The n-truncation T_n is stored as its band: entry
(k+1, k) = w_k, zero elsewhere.  The adjoint resolvent (T_n* - conj(w))^{-1},
its invertibility guard and its norm are computed from that band in O(n) per
sweep; no function here builds the dense matrix, which only the test oracles
need.  The guard is a proved bound, not a cutoff: it admits exactly the points
|w| >= max w_k of the band, where n terms of the Neumann series give
s_min >= |w|/n.  The solve back-substitutes from the last nonzero entry of its
right-hand side: every row below it is an exact zero.  The norm is 1/s_min,
and Sturm counts on the Golub-Kahan tridiagonal certify s_min to the ulp from
an estimate.  On a constant band (every weight c < |w|, as for the shift) the
estimate is the closed form of the constant bidiagonal's s_min; otherwise
Laguerre's iteration on the Sturm pivots closes in on it in a few sweeps.

The exact infinite-model self-commutator data comes from closed forms, never
from truncations: the finite self-commutator is always traceless, so
truncating before commuting destroys every trace identity.  All trace claims
therefore go through exact_commutator_diagonal, which works through the
weights in cache-sized blocks; the hypotheses hyponormal and rank one are
decided from the weights themselves.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidDimension, SpectrumHit

KIND_RATIONAL = "rational"
KIND_TABULATED = "tabulated"

# Stand-in for an exactly zero Sturm pivot.
_PIVOT_FLOOR = sys.float_info.min
_EPS = sys.float_info.epsilon

# A Laguerre step for s_min that is not this many times shorter than the one
# before it hands over to bisection: near s_min each step shrinks far more.
_LAGUERRE_SHRINK = 2.0

# Entries per block of exact_commutator_diagonal: its two 128 KB temporaries
# and the block of output stay in a core's L2 cache from the weights' first
# pass to the difference, in place of whole-length arrays streamed through
# memory; smaller blocks pay numpy's per-call cost more often.
_DIAGONAL_BLOCK = 16384


@dataclass(frozen=True)
class WeightSequence:
    """Weighted shift model: weights w_0, w_1, ... with their limit w_inf.

    kinds:
      rational    w_n = (n+1)/(n+lam), lam > 1 (strictly increasing, sup 1)
      tabulated   finite list, constant equal to the declared limit beyond it

    Every parameter must be finite, every weight and the limit positive: a
    model that builds defines the infinite operator.  A table must declare
    its limit; the NaN default is refused.
    """

    kind: str
    lam: float | None = None
    table: tuple[float, ...] = field(default=())
    limit: float = math.nan

    def __post_init__(self):
        # each test is written so that NaN fails it
        if self.kind == KIND_RATIONAL:
            if self.lam is None or not 1.0 < self.lam < math.inf:
                raise ValueError("rational weight family requires a finite lam > 1")
            object.__setattr__(self, "limit", 1.0)
        elif self.kind == KIND_TABULATED:
            if not self.table:
                raise ValueError("tabulated weights need a non-empty table")
            if not all(0.0 < w < math.inf for w in self.table):
                raise ValueError("weights must be positive and finite")
            if not 0.0 < self.limit < math.inf:
                raise ValueError(f"limit must be positive and finite, got {self.limit}")
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    def weights(self, n: int) -> np.ndarray:
        """(w_0, ..., w_{n-1}) in a fresh array that callers may overwrite; a
        tabulated table extends by its declared limit."""
        return self._weights(0, n)

    def _weights(self, start: int, stop: int) -> np.ndarray:
        """(w_start, ..., w_{stop-1}) in a fresh array, each entry the same
        float as in weights(stop)."""
        if self.kind == KIND_RATIONAL:
            k = np.arange(start, stop, dtype=np.float64)
            w = k + 1.0
            k += self.lam
            w /= k
            return w
        stored = len(self.table)
        if stop <= stored:
            return np.array(self.table[start:stop], dtype=np.float64)
        out = np.full(stop - start, float(self.limit))
        if start < stored:
            out[: stored - start] = self.table[start:]
        return out

    @property
    def hyponormal(self) -> bool:
        """Whether [T*, T] >= 0, that is, whether the weights never decrease.

        Decided exactly from the weights the model defines: the rational family
        increases; a table must be nondecreasing, and its limit, which every
        later weight equals, at least its last entry.
        """
        if self.kind == KIND_RATIONAL:
            return True
        table = self.table
        return self.limit >= table[-1] and all(a <= b for a, b in zip(table, table[1:]))

    @property
    def rank_one(self) -> bool:
        """Whether [T*, T] is the rank-one w_0^2 e_0 (x) e_0, that is, whether
        every weight equals w_0.

        Decided exactly from the weights the model defines: the rational family
        strictly increases; every table entry, and the limit, must equal the
        first entry.
        """
        if self.kind == KIND_RATIONAL:
            return False
        first = self.table[0]
        return self.limit == first and all(w == first for w in self.table)

    @property
    def sup(self) -> float:
        if self.kind == KIND_RATIONAL:
            return 1.0
        return max(*self.table, self.limit)


def unilateral() -> WeightSequence:
    """The unilateral shift: the constant weight 1, the one homogeneous member of
    the rank-one (constant-weight) family."""
    return tabulated((1.0,), limit=1.0)


def rational_family(lam: float) -> WeightSequence:
    return WeightSequence(KIND_RATIONAL, lam=lam)


def tabulated(weights, limit: float) -> WeightSequence:
    return WeightSequence(KIND_TABULATED, table=tuple(float(w) for w in weights), limit=limit)


def band(model: WeightSequence, n: int) -> np.ndarray:
    """Subdiagonal (w_0, ..., w_{n-2}) of the n-truncation: entry (k+1, k) = w_k."""
    if n < 2:
        raise InvalidDimension(f"truncation dimension must be >= 2, got {n}")
    return model.weights(n - 1)


def adjoint_resolvent_solve(model: WeightSequence, w: complex, x) -> np.ndarray:
    """u = (T_n* - conj(w))^{-1} x with n = len(x), by back-substitution.

    T_n* - conj(w) is upper bidiagonal (diagonal -conj(w), superdiagonal w_k),
    so u_{n-1} = -x_{n-1}/conj(w) and u_k = (x_k - w_k u_{k+1}) / (-conj(w)).
    Below the last nonzero x_m every u_k is exactly zero, so the recurrence
    starts at row m.  It runs in sequence: its cumulative products would
    overflow.  Raises SpectrumHit unless |w| >= max w_k over the full n x n
    band, whatever the support of x.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got shape {x.shape}")
    sub = band(model, x.size)
    _resolvent_guard(sub, w)
    u = np.zeros(x.size, dtype=np.complex128)
    support = np.flatnonzero(x)
    if support.size == 0:
        return u
    top = int(support[-1])
    diag = -complex(np.conj(w))
    xs = x[: top + 1].tolist()
    ws = sub[:top].tolist()
    acc = xs[top] / diag
    out = [acc]
    for k in range(top - 1, -1, -1):
        acc = (xs[k] - ws[k] * acc) / diag
        out.append(acc)
    u[: top + 1] = out[::-1]
    return u


def adjoint_resolvent_smin(model: WeightSequence, w: complex, n: int) -> float:
    """Smallest singular value of T_n* - conj(w), i.e. 1 / ||(T_n* - conj(w))^{-1}||.

    Raises SpectrumHit unless |w| >= max w_k (see _resolvent_guard), and
    DomainError if |w|^2, an entry of the Golub-Kahan squares, overflows.  Sturm
    counts on the Golub-Kahan tridiagonal certify s_min, to relative
    accuracy, from an estimate (see _certify_singular_value).  On a constant
    band c < |w| the estimate is _constant_band_smin; elsewhere, or when that
    estimate is not finite or not strictly inside the guard's bracket
    (lo, |w|), Laguerre's iteration runs up from the guard's lower bound (see
    _laguerre_singular_value).  Either way the bits are those of bisection.
    """
    sub = band(model, n)
    lo = _resolvent_guard(sub, w)
    a = abs(w)
    if not math.isfinite(a * a):
        raise DomainError(f"|w|^2 must be finite, got |w| = {a}")
    e2 = _golub_kahan_squares(sub, w)
    c = float(sub[0])
    if sub.min() == sub.max() and a > c:
        seed = _constant_band_smin(a, c, n)
        if lo < seed < a:  # False for a NaN seed too
            return _certify_singular_value(e2, seed, lo, a)
    return _laguerre_singular_value(e2, lo, a)


def _constant_band_smin(a: float, c: float, n: int) -> float:
    """Closed-form s_min of the n x n upper bidiagonal with diagonal a and
    superdiagonal c, 0 < c < a (Yueh, Appl. Math. E-Notes 5 (2005)).

    s_min^2 = (a - c)^2 + 4 a c sin^2(phi/2), where phi is the root in
    (0, pi/(n+1)] of a sin((n+1) phi) = c sin(n phi): the left side minus
    the right is positive near 0, since a (n+1) > c n, and -c sin(pi/(n+1))
    < 0 at pi/(n+1).  phi is bisected to adjacent floats on that difference
    written as (a - c) sin((n+1) phi) + 2 c cos((n+1/2) phi) sin(phi/2), whose
    terms do not cancel as a -> c (a - c is exact for a <= 2c): it lands
    within a few ulps of s_min, where the direct difference was off by
    thousands at a = 1.0001 c and n = 10^4.  The result is an estimate only;
    Sturm counts decide the bits.
    """
    gap = a - c
    lo, hi = 0.0, math.pi / (n + 1)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        difference = gap * math.sin((n + 1) * mid)
        difference += 2.0 * c * math.cos((n + 0.5) * mid) * math.sin(0.5 * mid)
        if difference > 0.0:
            lo = mid
        else:
            hi = mid
    half = math.sin(0.5 * lo)
    return math.sqrt(gap * gap + 4.0 * a * c * half * half)


def _resolvent_guard(sub: np.ndarray, w: complex) -> float:
    """Positive lower bound on s_min of T_n* - conj(w); raises SpectrumHit
    unless |w| >= top = max w_k of the band.

    On |w| >= top, T_n* - conj(w) = -conj(w) (I - T_n*/conj(w)) is inverted by
    n terms of its Neumann series, since T_n* is nilpotent with
    ||(T_n*)^k|| <= top^k <= |w|^k: so s_min >= |w|/n.  Weyl's inequality adds
    s_min >= |w| - top.  No count is made: the bound is proved, not measured.
    """
    a, top = abs(w), float(np.max(sub))
    if not math.isfinite(a):
        raise ValueError(f"resolvent point {w} is not finite")
    if a < top:
        raise SpectrumHit(f"|w| = {a} is below the largest weight {top} of the band")
    return max(a - top, a / (sub.size + 1))


def _golub_kahan_squares(sub: np.ndarray, w: complex) -> list:
    """Squared off-diagonal |w|, w_0, |w|, w_1, ..., |w| of the Golub-Kahan matrix.

    Diagonal unitaries take T_n* - conj(w) to the real bidiagonal with
    diagonal |w| and superdiagonal w_k, leaving its singular values alone;
    the Golub-Kahan tridiagonal [[0, B*], [B, 0]], reordered, has zero
    diagonal, these off-diagonal entries and eigenvalues +-s_j.
    """
    e = np.full(2 * sub.size + 1, float(abs(w)))
    e[1::2] = sub
    return (e * e).tolist()


def _count_below(e2: list, lam: float) -> int:
    """Number of singular values below lam > 0 (Sturm count on the Golub-Kahan
    tridiagonal minus the n negative eigenvalues).

    The LDL* pivots of a zero-diagonal tridiagonal are computed to high
    relative accuracy, so bisection on this count resolves small singular
    values relative to themselves, not to s_max (Demmel and Kahan 1990).
    A zero pivot stands for -_PIVOT_FLOOR: the loop divides with no test, and a
    ZeroDivisionError takes that one step with the floor, then resumes.
    """
    neg_lam = -float(lam)
    negative = 1
    q = neg_lam
    pivots = iter(e2)
    while True:
        try:
            for sq in pivots:
                q = neg_lam - sq / q
                if q < 0.0:
                    negative += 1
            return negative - (len(e2) + 1) // 2
        except ZeroDivisionError:
            q = neg_lam - sq / -_PIVOT_FLOOR
            if q < 0.0:
                negative += 1


def _laguerre_sweep(e2: list, lam: float) -> tuple[int, float, float]:
    """Number of singular values below lam > 0, with G = p'/p and
    H = -(p'/p)' at lam for p(lam) = det(GK - lam).

    p is the product of the LDL* pivots d_i, so G = sum r_i and
    H = sum r_i^2 - s_i with r_i = d_i'/d_i and s_i = d_i''/d_i.
    Differentiating d_i = -lam - e2_i / d_{i-1} with t = e2_i / d_{i-1} gives
    r_i = (t r_{i-1} - 1) / d_i and s_i = t (s_{i-1} - 2 r_{i-1}^2) / d_i.
    The pivots, the zero-pivot floor and the count are _count_below's, bit for
    bit.
    """
    neg_lam = -float(lam)
    negative = 1
    q = neg_lam
    r = -1.0 / q
    s = 0.0
    g = r
    h = r * r
    for sq in e2:
        t = sq / q
        q = neg_lam - t
        if q < 0.0:
            negative += 1
        elif q == 0.0:
            q = -_PIVOT_FLOOR
        inv = 1.0 / q
        s = (s - 2.0 * r * r) * t * inv
        r = (r * t - 1.0) * inv
        g += r
        h += r * r - s
    return negative - (len(e2) + 1) // 2, g, h


def _laguerre_singular_value(e2: list, lo: float, hi: float) -> float:
    """Smallest singular value in [lo, hi], to relative accuracy, given that
    none lies below lo.

    Laguerre's iteration on p(lam) = det(GK - lam) (Li and Zeng 1994) steps
    lam up by N / (sqrt((N-1)(N H - G^2)) - G), N = 2n.  The eigenvalues
    +-s_j are real, and Laguerre's two iterates from a point between adjacent
    eigenvalues bound an interval around it that holds none, so from lam below
    s_min the step lands at most on s_min: lam climbs monotonically and
    converges cubically, each step about the last one times the cube of their
    ratio.  It stops once that predicted next step is below an ulp.

    Rounding can still overshoot (G cancels badly at a lam far below every
    s_j), and Laguerre creeps when many eigenvalues crowd just beyond s_min,
    so each sweep keeps its Sturm count.
    A sweep that counts a singular value below lam, or whose step is not
    finite, leaves [lo, hi] or is not _LAGUERRE_SHRINK times shorter than the
    one before, hands the bracket to plain bisection.

    Laguerre only proposes lam; _certify_singular_value decides the answer.
    """
    big = len(e2) + 1
    lam, last = lo, math.inf
    while True:
        below, g, h = _laguerre_sweep(e2, lam)
        if below:
            return _bisect_singular_value(e2, 1, lo, lam)
        lo = lam
        disc = (big - 1) * (big * h - g * g)
        root = math.sqrt(disc) if 0.0 <= disc < math.inf else math.nan
        step = big / (root - g) if root > g else math.nan
        if not (_LAGUERRE_SHRINK * step <= last and lam + step < hi):
            return _bisect_singular_value(e2, 1, lo, hi)
        lam += step
        ratio = step / last if last < math.inf else 1.0
        if step * ratio**3 <= _EPS * lam:
            return _certify_singular_value(e2, lam, lo, hi)
        last = step


def _certify_singular_value(e2: list, lam: float, lo: float, hi: float) -> float:
    """Smallest singular value in [lo, hi], to relative accuracy, from an
    estimate lam strictly inside (lo, hi), given that none lies below lo.

    Counts at lam (1 -+ k eps) bracket s_min (k widens until they do), and
    _bisect_singular_value finishes that few-ulp bracket.  The count is
    monotone in its argument, so the result is the float where it turns to 1:
    the same bits that bisection from the original [lo, hi] returns.  A NaN
    lam would never bracket, so callers pass only a finite one.
    """
    k = 1.0
    while True:
        left, right = lam * (1.0 - k * _EPS), lam * (1.0 + k * _EPS)
        for x in (left, right):
            if lo < x < hi:
                if _count_below(e2, x):
                    hi = x
                else:
                    lo = x
        if lo >= left and hi <= right:
            return _bisect_singular_value(e2, 1, lo, hi)
        k *= 4.0


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


def exact_commutator_diagonal(model: WeightSequence, n: int, start: int = 0) -> np.ndarray:
    """Diagonal entries start, ..., n-1 of the INFINITE operator's [T*, T].

    (w_0^2, w_1^2 - w_0^2, ..., w_{n-1}^2 - w_{n-2}^2); partial sums telescope
    to w_{n-1}^2 exactly.  This is the quantity every trace identity uses; the
    finite truncation's commutator is traceless and must not be summed.  Each
    entry is the same float whatever start is.
    """
    if not 0 <= start < n:
        raise InvalidDimension(f"need 0 <= start < n, got start {start} and n {n}")
    diag = np.empty(n - start)
    for first in range(start, n, _DIAGONAL_BLOCK):
        # squares w_{lo}^2 .. w_{stop-1}^2, lo = first - 1 past entry 0: each
        # block recomputes the one square it differences against
        lo = max(first - 1, 0)
        w2 = model._weights(lo, min(first + _DIAGONAL_BLOCK, n))
        w2 *= w2
        np.subtract(w2[1:], w2[:-1], out=diag[lo + 1 - start : lo + w2.size - start])
        if first == 0:
            diag[0] = w2[0]
    return diag

