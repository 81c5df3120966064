"""Bivariate polynomials in z, conj(z), the tracial bilinear form, and the
trace-inequality checks (Berger-Shaw and Putnam).

The tracial form tr [p(T, T*), q(T, T*)] is estimated on a truncation by a
windowed trace: the full finite trace of any commutator is identically zero,
so the boundary-corrupted diagonal entries near the truncation corner must be
discarded.  The window margin equals the combined degree of p and q.

No n x n matrix is formed.  Each monomial T^j T*^k of the truncation lives on
the single diagonal at offset j - k, so p(T_n, T_n*) is a map from offset to
diagonal vector, built from the weight band with the truncation's corner
entries reproduced exactly, and only the main diagonal of [P, Q] is computed:
O(n |p| |q|) work for the windowed and the full trace alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionTooSmall, NoLimitDeclared
from .reporting import Check, make_bound_check, make_check
from .shifts import WeightSequence, band, exact_commutator_diagonal


@dataclass(frozen=True)
class BivariatePolynomial:
    """Finite sum of a_{jk} z^j conj(z)^k, stored as {(j, k): a_jk}."""

    coeffs: tuple = field(default=())

    @staticmethod
    def from_dict(d: dict) -> "BivariatePolynomial":
        items = tuple(sorted((jk, complex(c)) for jk, c in d.items() if c != 0))
        return BivariatePolynomial(items)

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    @property
    def deg_z(self) -> int:
        return max((j for (j, _), _ in self.coeffs), default=0)

    @property
    def deg_zbar(self) -> int:
        return max((k for (_, k), _ in self.coeffs), default=0)

    def deriv_z(self) -> "BivariatePolynomial":
        out = {}
        for (j, k), c in self.coeffs:
            if j > 0:
                out[(j - 1, k)] = out.get((j - 1, k), 0) + j * c
        return BivariatePolynomial.from_dict(out)

    def deriv_zbar(self) -> "BivariatePolynomial":
        out = {}
        for (j, k), c in self.coeffs:
            if k > 0:
                out[(j, k - 1)] = out.get((j, k - 1), 0) + k * c
        return BivariatePolynomial.from_dict(out)

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out = self.as_dict()
        for jk, c in other.coeffs:
            out[jk] = out.get(jk, 0) + c
        return BivariatePolynomial.from_dict(out)

    def __mul__(self, other):
        if isinstance(other, BivariatePolynomial):
            out = {}
            for (j1, k1), c1 in self.coeffs:
                for (j2, k2), c2 in other.coeffs:
                    jk = (j1 + j2, k1 + k2)
                    out[jk] = out.get(jk, 0) + c1 * c2
            return BivariatePolynomial.from_dict(out)
        return BivariatePolynomial.from_dict(
            {jk: c * other for jk, c in self.coeffs}
        )

    __rmul__ = __mul__

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + (-1) * other

    def eval(self, z: complex) -> complex:
        zb = np.conj(z)
        return complex(sum(c * z**j * zb**k for (j, k), c in self.coeffs))

    def eval_grid(self, zeta: np.ndarray) -> np.ndarray:
        out = np.zeros_like(zeta, dtype=np.complex128)
        zb = np.conj(zeta)
        for (j, k), c in self.coeffs:
            out += c * zeta**j * zb**k
        return out


def monomial(j: int, k: int, coeff: complex = 1.0) -> BivariatePolynomial:
    return BivariatePolynomial.from_dict({(j, k): coeff})


def wirtinger_jacobian(p: BivariatePolynomial, q: BivariatePolynomial) -> BivariatePolynomial:
    """J(p, q) = (dp/dzbar)(dq/dz) - (dp/dz)(dq/dzbar), exact symbolic arithmetic."""
    return p.deriv_zbar() * q.deriv_z() - p.deriv_z() * q.deriv_zbar()


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


def window_margin(p: BivariatePolynomial, q: BivariatePolynomial) -> int:
    return p.deg_z + p.deg_zbar + q.deg_z + q.deg_zbar


def check_window(p: BivariatePolynomial, q: BivariatePolynomial, n: int) -> int:
    """The window margin of p and q; DimensionTooSmall unless n > 4 x margin."""
    margin = window_margin(p, q)
    if n <= 4 * margin:
        raise DimensionTooSmall(f"need n > {4 * margin}, got {n}")
    return margin


def tracial_form(
    p: BivariatePolynomial, q: BivariatePolynomial, model: WeightSequence, n: int
) -> complex:
    """Windowed trace of [p(T_n, T_n*), q(T_n, T_n*)].

    Sums diagonal entries over indices 0 .. n-1-margin with margin the combined
    degree of p and q.  The full finite trace is identically zero (corner
    cancellation); the windowed trace estimates the infinite-model value.
    """
    margin = check_window(p, q, n)
    return complex(np.sum(_commutator_diagonal(p, q, model, n)[: n - margin]))


def full_finite_trace(
    p: BivariatePolynomial, q: BivariatePolynomial, model: WeightSequence, n: int
) -> complex:
    """Unwindowed trace of the finite commutator; identically 0 by construction."""
    return complex(np.sum(_commutator_diagonal(p, q, model, n)))


def helton_howe_check(
    p: BivariatePolynomial,
    q: BivariatePolynomial,
    model: WeightSequence,
    g,
    n: int,
    tol: float,
    name: str | None = None,
) -> Check:
    """Windowed commutator trace vs (1/pi) int J(p, q) g dA over the unit disc."""
    lhs = tracial_form(p, q, model, n)
    jac = wirtinger_jacobian(p, q)
    zeta = g.nodes()
    rhs = complex(np.sum(jac.eval_grid(zeta) * g.values * g.cell_measure()) / np.pi)
    return make_check(name or "trace formula", lhs, rhs, tol)


def berger_shaw_putnam_check(
    model: WeightSequence,
    area: float,
    multiplicity: int = 1,
    diag_samples: int = 4096,
    tol: float = 1e-12,
) -> list[Check]:
    """Trace and norm bounds for the exact infinite-model self-commutator.

    tr [T*, T] (telescoped closed form w_inf^2) against (m/pi) * area, and
    ||[T*, T]|| (largest exact diagonal entry) against area/pi.  The area of
    the spectrum is supplied analytically by the caller.
    """
    w_inf = model.limit
    if w_inf is None:
        raise NoLimitDeclared("tabulated sequence has no declared limit")
    trace_val = w_inf * w_inf
    diag = exact_commutator_diagonal(model, diag_samples)
    norm_val = float(np.max(diag))
    return [
        make_bound_check(
            "commutator trace <= (m/pi) area", trace_val, multiplicity / math.pi * area, tol
        ),
        make_bound_check("commutator norm <= area/pi", norm_val, area / math.pi, tol),
    ]
