"""Bivariate polynomials in z, conj(z), the tracial bilinear form, and the
trace-formula checks (Helton-Howe, Berger-Shaw and Putnam).

The tracial form tr [p(T, T*), q(T, T*)] is estimated on a truncation by a
windowed trace: the full finite trace of any commutator is identically zero,
so the boundary-corrupted diagonal entries near the truncation corner must be
discarded.  The window margin equals the combined degree of p and q.

No n x n matrix is formed.  Each monomial T^j T*^k of the truncation lives on
the single diagonal at offset j - k, so p(T_n, T_n*) is a map from offset to
diagonal vector, built from the weight band with the truncation's corner
entries reproduced exactly, and only the main diagonal of [P, Q] is computed:
O(n |p| |q|) work.

The area side of the Helton-Howe formula is the midpoint polar rule summed by
ring moments of the Jacobian's monomials, taken from coefficient pairs: no
grid node is evaluated (see helton_howe_check).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidDimension
from .reporting import Check, make_bound_check, make_check
from .shifts import KIND_RATIONAL, WeightSequence, band, exact_commutator_diagonal


@dataclass(frozen=True)
class BivariatePolynomial:
    """Finite sum of a_{jk} z^j conj(z)^k, stored as sorted ((j, k), a_jk) pairs."""

    coeffs: tuple = field(default=())

    @classmethod
    def from_dict(cls, d: dict) -> "BivariatePolynomial":
        items = tuple(sorted((jk, complex(c)) for jk, c in d.items() if c != 0))
        return cls(items)

    @property
    def deg_z(self) -> int:
        return max((j for (j, _), _ in self.coeffs), default=0)

    @property
    def deg_zbar(self) -> int:
        return max((k for (_, k), _ in self.coeffs), default=0)


def _gather(v: np.ndarray, start: int, n: int) -> np.ndarray:
    """(v[start], ..., v[start + n - 1]), zero where the index leaves v."""
    out = np.zeros(n, dtype=v.dtype)
    lo, hi = max(start, 0), min(start + n, v.size)
    if lo < hi:
        out[lo - start : hi - start] = v[lo:hi]
    return out


def _offset_diagonals(p: BivariatePolynomial, sub: np.ndarray, n: int) -> dict:
    """p(T_n, T_n*) as {offset d: v} with v[c] = entry (c + d, c), zero off the matrix.

    Left multiplication by T_n* takes offset d to d - 1 with v[c] *= w_{c+d-1};
    by T_n it takes d to d + 1 with v[c] *= w_{c+d}; here w_i = 0 unless
    0 <= i <= n-2, which is where the truncation loses its corner entries.
    """
    out = {}
    for (j, k), c in p.coeffs:
        v, d = np.ones(n), 0
        for _ in range(k):
            v = v * _gather(sub, d - 1, n)
            d -= 1
        for _ in range(j):
            v = v * _gather(sub, d, n)
            d += 1
        out[d] = out.get(d, 0) + c * v
    return out


def _commutator_diagonal(
    p: BivariatePolynomial, q: BivariatePolynomial, model: WeightSequence, n: int
) -> np.ndarray:
    """Main diagonal of [p(T_n, T_n*), q(T_n, T_n*)]: (PQ)[c, c] = sum_e P_{-e}[c+e] Q_e[c]."""
    sub = band(model, n)
    pd, qd = _offset_diagonals(p, sub, n), _offset_diagonals(q, sub, n)
    diag = np.zeros(n, dtype=np.complex128)
    for e, qv in qd.items():
        if -e in pd:
            diag += _gather(pd[-e], e, n) * qv
    for e, pv in pd.items():
        if -e in qd:
            diag -= _gather(qd[-e], e, n) * pv
    return diag


def tracial_form(
    p: BivariatePolynomial, q: BivariatePolynomial, model: WeightSequence, n: int
) -> complex:
    """Windowed trace of [p(T_n, T_n*), q(T_n, T_n*)].

    Sums diagonal entries over indices 0 .. n-1-margin with margin the combined
    degree of p and q.  The full finite trace is identically zero (corner
    cancellation); the windowed trace estimates the infinite-model value.
    Raises InvalidDimension unless n > 4 x margin.
    """
    margin = p.deg_z + p.deg_zbar + q.deg_z + q.deg_zbar
    if n <= 4 * margin:
        raise InvalidDimension(f"truncation n must exceed 4 x window margin {margin}, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # make_check refuses what overflows
        return complex(np.sum(_commutator_diagonal(p, q, model, n)[: n - margin]))


def helton_howe_check(
    p: BivariatePolynomial, q: BivariatePolynomial, model: WeightSequence, n: int, tol: float,
    n_r: int = 400, n_theta: int = 400,
) -> Check:
    """Windowed commutator trace vs (1/pi) int J(p, q) g dA, g = 1 on the disc of radius c.

    The model's principal function is 1 on the disc of radius c = model.limit.
    The area side is the midpoint polar rule: node c r_i u_j, r_i = (i + 1/2)/n_r,
    u_j = exp(2 pi i (j + 1/2)/M), M = n_theta, cell measure c^2 r_i dr dtheta,
    dr = 1/n_r, dtheta = 2 pi/M.

    Jacobian.  J(p, q) = (dp/dzbar)(dq/dz) - (dp/dz)(dq/dzbar).  Monomials
    a z^i zbar^j of p and b z^k zbar^l of q contribute a b (j k - i l) z^s zbar^t
    with s = i + k - 1 and t = j + l - 1; when s or t is -1, j k - i l = 0.

    Ring moments.  At a node z^s zbar^t = (c r_i)^(s+t) u_j^(s-t).  The u_j are
    the roots of u^M = -1, so sum_j u_j^m = M (-1)^(m/M) when M divides m and 0
    otherwise.  Hence

        (1/pi) sum over nodes of z^s zbar^t c^2 r_i dr dtheta
            = c^(s+t+2) (-1)^((s-t)/M) (2/n_r) sum_i r_i^(s+t+1)  if M | s - t,

    and 0 otherwise.  The aliased terms, M | s - t with s != t, are kept, so the
    value is the node rule's own, not the exact integral.  O(n_r) per monomial pair.
    """
    c = model.limit
    lhs = tracial_form(p, q, model, n)
    radii = (np.arange(n_r) + 0.5) / n_r
    rhs = 0j
    for (i, j), a in p.coeffs:
        for (k, l), b in q.coeffs:
            s, t = i + k - 1, j + l - 1
            turns, rest = divmod(s - t, n_theta)
            if j * k == i * l or rest:  # no Jacobian term, or a vanishing angular sum
                continue
            moment = 2.0 * np.sum(radii ** (s + t + 1)) / n_r
            try:
                scale = c ** (s + t + 2)
            except OverflowError:  # make_check refuses the side that overflows
                scale = math.inf
            rhs += a * b * (j * k - i * l) * (-1) ** turns * scale * moment
    return make_check("trace formula", lhs, complex(rhs), tol)


def berger_shaw_putnam_check(model: WeightSequence, area: float | None = None) -> list[Check]:
    """Trace and norm bounds for the exact infinite-model self-commutator, to 1e-12.

    tr [T*, T] (telescoped closed form w_inf^2) against (m/pi) * area with
    multiplicity m = 1, and ||[T*, T]|| (largest exact diagonal entry) against
    area/pi.  The area of the spectrum defaults to pi limit^2, that of the
    disc of radius model.limit, taken as inf when it overflows
    (make_bound_check then refuses the bound with DomainError).
    Putnam's bound holds for hyponormal T only: any other model raises
    DomainError.  A table's diagonal is 0 from two past its end on, so the
    norm reads it whole.  The rational family's entry w_k^2 - w_{k-1}^2
    (w_{-1} = 0) is smooth in real k >= 0 with one critical point, a maximum
    at k* in (lam/2 - 1, lam/2 - 1/2], so the norm reads the integers next
    to k*, with one to spare on each side: O(1) entries for any lam.
    """
    if not model.hyponormal:
        raise DomainError(
            "Putnam's bound needs a hyponormal model: nondecreasing weights, "
            "with the limit at least the last one"
        )
    trace_val = model.limit * model.limit
    if area is None:
        try:
            area = math.pi * model.limit**2
        except OverflowError:
            area = math.inf
    if model.kind == KIND_RATIONAL:
        peak = int(model.lam / 2.0)
        start, stop = max(peak - 2, 0), peak + 3
    else:
        start, stop = 0, len(model.table) + 1
    with np.errstate(over="ignore", invalid="ignore"):  # make_bound_check refuses overflow
        norm_val = float(np.max(exact_commutator_diagonal(model, stop, start)))
    return [
        make_bound_check("commutator trace <= (m/pi) area", trace_val, 1 / math.pi * area, 1e-12),
        make_bound_check("commutator norm <= area/pi", norm_val, area / math.pi, 1e-12),
    ]
