"""End-to-end experiments: change-of-variable law for the index, constancy
under disc automorphisms, the rational weighted-shift family, resolvent norm
probes, and the scalar inequality (1 - c/r^2) <= (1 - 1/r^2)^c that pins the
constant c = 1.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OnEssentialSpectrum, SpectrumHit, TooCloseToCurve
from .mobius import MobiusMap, mobius_eval, mobius_invert
from .principal import principal_value_at, winding_numbers
from .reporting import Check, make_check
from .shifts import WeightSequence, adjoint_resolvent_smin, adjoint_resolvent_solve, symbol_curve

# Default automorphism grid: center, two moduli, two phases.
DEFAULT_MAP_GRID = tuple(
    MobiusMap(beta=b, a=a)
    for b in (1.0, np.exp(1j * np.pi / 7))
    for a in (0.0, 0.3, 0.5 * np.exp(1j * np.pi / 4), 0.7j)
)

DEFAULT_WITNESS_GRID = tuple(1.05 + 0.05 * k for k in range(180))  # 1.05 .. 10.0
# resolvent_norm_probe needs |w| above this: the spectrum of T is the closed unit disc.
PROBE_MIN_MODULUS = 1.0 + 1e-6


@dataclass(frozen=True)
class InequalityProbe:
    c: float
    r: float
    lhs: float  # 1 - c/r^2
    rhs: float  # (1 - 1/r^2)^c


def _check_inequality_domain(c: float, r: float) -> None:
    if not (0.0 < c <= 1.0):
        raise DomainError(f"c must lie in (0, 1], got {c}")
    if r <= 1.0:
        raise DomainError(f"r must exceed 1, got {r}")


def theorem_inequality_eval(c: float, r: float) -> InequalityProbe:
    _check_inequality_domain(c, r)
    return InequalityProbe(c=c, r=r, lhs=1.0 - c / r**2, rhs=(1.0 - 1.0 / r**2) ** c)


def inequality_gap(c: float, r: float) -> tuple[float, float]:
    """(1 - c/r^2) - (1 - 1/r^2)^c without cancellation, and a bound on its rounding error.

    With d = 1 - c and u = 1/r^2 the gap is d u - (1 - u) expm1(-d log1p(-u)).
    Both terms are O(d), so the gap keeps its relative accuracy as c -> 1
    (subtracting the two sides directly leaves roundoff near 1e-16) and is
    exactly 0 at c = 1.  The rounding bound is 16 eps (d u + expm1(-d log1p(-u))):
    a few roundings per term, and the second term, the subtrahend over 1 - u,
    also covers the gap's sensitivity to the rounding of u.
    """
    _check_inequality_domain(c, r)
    d = 1.0 - c
    u = 1.0 / r**2
    growth = math.expm1(-d * math.log1p(-u))
    gap = d * u - (1.0 - u) * growth
    return gap, 16.0 * sys.float_info.epsilon * (d * u + growth)


def witness_search(c: float, r_grid=DEFAULT_WITNESS_GRID) -> float | None:
    """Smallest grid r where 1 - c/r^2 exceeds (1 - 1/r^2)^c beyond roundoff, or None.

    A witness exists for every c < 1 (the two sides differ at order r^{-4}
    with a strictly negative coefficient); at c = 1 the two sides coincide
    identically and the search must come up empty.  The decision compares
    inequality_gap with its rounding bound, so it stays honest for c within
    a few ulp of 1.
    """
    for r in r_grid:
        gap, bound = inequality_gap(c, r)
        if gap > bound:
            return float(r)
    return None


def transformed_symbol_curve(model: WeightSequence, phi: MobiusMap, samples: int = 4096) -> np.ndarray:
    """Image of the symbol curve under phi.

    phi(T) - mu is invertible exactly when T - phi^{-1}(mu) is, so the index
    of phi(T) - mu is the winding of the mapped curve; no operator needs to be
    materialized.
    """
    return mobius_eval(phi, symbol_curve(model, samples))


def change_of_variable_check(
    model: WeightSequence, phi: MobiusMap, points, samples: int = 4096
) -> list[Check]:
    """Index of phi(T) at zeta vs index of T at phi^{-1}(zeta), integer equality."""
    lhs = winding_numbers(transformed_symbol_curve(model, phi, samples), points)
    pulled_back = mobius_eval(mobius_invert(phi), np.asarray(points, dtype=np.complex128))
    try:
        rhs = winding_numbers(symbol_curve(model, samples), pulled_back)
    except TooCloseToCurve as exc:
        raise OnEssentialSpectrum(
            f"pulled-back point too close to the essential circle of radius "
            f"{model.limit}: {exc}"
        ) from exc
    return [
        make_check(f"index transport at zeta={zeta}", int(left), int(right), 0.0)
        for zeta, left, right in zip(points, lhs, rhs)
    ]


def constancy_check(
    model: WeightSequence,
    maps=DEFAULT_MAP_GRID,
    interior_points=None,
    exterior_points=None,
    samples: int = 4096,
) -> list[Check]:
    """The index is the same integer at every interior point, across all maps,
    and zero at every exterior point."""
    if interior_points is None:
        interior_points = default_interior_points()
    if exterior_points is None:
        exterior_points = default_exterior_points()
    base = principal_value_at(model, interior_points[0], samples)
    # one winding call per map: the curve's gap, margin and bounds are shared
    points = np.asarray(list(interior_points) + list(exterior_points), dtype=np.complex128)
    checks = []
    for phi in maps:
        windings = winding_numbers(transformed_symbol_curve(model, phi, samples), points)
        inside, outside = windings[: len(interior_points)], windings[len(interior_points) :]
        checks.extend(
            make_check(f"constant index at zeta={zeta}, a={phi.a}", int(w), base, 0.0)
            for zeta, w in zip(interior_points, inside)
        )
        checks.extend(
            make_check(f"zero index outside at zeta={zeta}, a={phi.a}", int(w), 0, 0.0)
            for zeta, w in zip(exterior_points, outside)
        )
    return checks


def default_interior_points(count: int = 20, radius: float = 0.8):
    """Deterministic spiral of interior sample points, bounded away from the circle."""
    k = np.arange(count)
    return list(radius * (k + 1) / count * np.exp(2j * np.pi * k / count))


def default_exterior_points(count: int = 5, start: float = 1.3):
    k = np.arange(count)
    return list((start + 0.4 * k) * np.exp(2j * np.pi * k / count))


@dataclass(frozen=True)
class ResolventProbe:
    w: complex
    operator_norm: float  # computed norm of (T_n* - conj(w))^{-1}
    spectral_bound: float  # 1/|w|
    distance_bound: float  # 1/(|w| - 1)
    vector_norm: float  # ||(T* - conj(w))^{-1} x|| for the rank-one vector x


def resolvent_norm_probe(model: WeightSequence, w: complex, n: int) -> ResolventProbe:
    """Report the resolvent norm of the truncated adjoint next to both candidate
    bounds, plus the exact rank-one vector norm (1/|w| scaled by w_0 for shifts).

    This probe reports rather than asserts: the two bounds differ and the data
    is the point.  Both numbers come from the weight band in O(n); raises
    SingularResolvent when T_n* - conj(w) is numerically singular.
    """
    if abs(w) <= PROBE_MIN_MODULUS:
        raise SpectrumHit(f"|w| must exceed 1, got {abs(w)}")
    op_norm = 1.0 / adjoint_resolvent_smin(model, w, n)
    x = np.zeros(n, dtype=np.complex128)
    x[0] = model.weights(1)[0]
    u = adjoint_resolvent_solve(model, w, x)
    return ResolventProbe(
        w=complex(w),
        operator_norm=op_norm,
        spectral_bound=1.0 / abs(w),
        distance_bound=1.0 / (abs(w) - 1.0),
        vector_norm=float(np.sqrt(np.vdot(u, u).real)),
    )


def t_lambda_trace_check(lam: float, n: int) -> Check:
    """Partial trace w_{n-1}(lam)^2 of the rational family against 1, within 2 lam / n.

    All members of the family share principal value 1 on the disc while being
    mutually inequivalent; the trace of the exact self-commutator is the shared
    invariant probed here.
    """
    if lam <= 1.0:
        raise DomainError(f"family parameter must exceed 1, got {lam}")
    w_last = n / (n - 1 + lam)
    return make_check(
        f"partial commutator trace (lam={lam}, n={n})", w_last**2, 1.0, 2.0 * lam / n
    )
