"""End-to-end experiments: change-of-variable law for the index, constancy
under disc automorphisms, the rational weighted-shift family, resolvent norm
probes, and the scalar inequality (1 - c/r^2) <= (1 - 1/r^2)^c that pins the
constant c = 1.

The two index experiments decide each index in closed form.  The essential
spectrum of every model here is the circle |z| = c = model.limit, and a disc
automorphism phi with |a| c < 1 maps its disc onto the disc with centre m and
radius rho (_image_disc), so the index of phi(T) - zeta is 1 when
|zeta - m| < rho and 0 when |zeta - m| > rho.  A point within a stated
rounding band of that circle is refused (principal.disc_indices); no curve is
sampled.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError, PoleHit, SpectrumHit, TooCloseToCurve
from .mobius import MobiusMap, mobius_eval, mobius_invert
from .principal import disc_indices
from .reporting import Check, make_bound_check, make_check
from .shifts import KIND_RATIONAL, WeightSequence, adjoint_resolvent_smin, adjoint_resolvent_solve

# Default automorphism grid: center, two moduli, two phases.
DEFAULT_MAP_GRID = tuple(
    MobiusMap(beta=b, a=a)
    for b in (1.0, np.exp(1j * np.pi / 7))
    for a in (0.0, 0.3, 0.5 * np.exp(1j * np.pi / 4), 0.7j)
)

DEFAULT_WITNESS_GRID = tuple(1.05 + 0.05 * k for k in range(180))  # 1.05 .. 10.0
# resolvent_probe_check needs |w| above sup w_k times this, where Neumann's
# bound 1/(|w| - ||T||) holds with ||T|| = sup w_k.
PROBE_MIN_MODULUS = 1.0 + 1e-6


def _refuse_exponent(c: float) -> None:
    if not (0.0 < c <= 1.0):
        raise DomainError(f"c must lie in (0, 1], got {c}")


def inequality_gap(c: float, r: float) -> tuple[float, float]:
    """(1 - c/r^2) - (1 - 1/r^2)^c without cancellation, and a bound on its rounding error.

    With d = 1 - c and u = 1/r^2 the gap is d u - (1 - u) expm1(-d log1p(-u)).
    Both terms are O(d), so the gap keeps its relative accuracy as c -> 1
    (subtracting the two sides directly leaves roundoff near 1e-16) and is
    exactly 0 at c = 1.  The rounding bound is 16 eps (d u + expm1(-d log1p(-u))):
    a few roundings per term, and the second term, the subtrahend over 1 - u,
    also covers the gap's sensitivity to the rounding of u.  DomainError
    unless 0 < c <= 1 and r > 1.
    """
    _refuse_exponent(c)
    if r <= 1.0:
        raise DomainError(f"r must exceed 1, got {r}")
    d = 1.0 - c
    u = 1.0 / r**2
    growth = math.expm1(-d * math.log1p(-u))
    gap = d * u - (1.0 - u) * growth
    return gap, 16.0 * sys.float_info.epsilon * (d * u + growth)


def witness_search(c: float) -> float | None:
    """Smallest grid r where 1 - c/r^2 exceeds (1 - 1/r^2)^c beyond roundoff, or None.

    A witness exists for every c < 1 (the two sides differ at order r^{-4}
    with a strictly negative coefficient); at c = 1 the two sides coincide
    identically and the search must come up empty.  The decision compares
    inequality_gap with its rounding bound, so it stays honest for c within
    a few ulp of 1.
    """
    for r in DEFAULT_WITNESS_GRID:
        gap, bound = inequality_gap(c, r)
        if gap > bound:
            return float(r)
    return None


def theorem_inequality_check(c_values) -> list[Check]:
    """A witness for each c < 1 and none at c = 1, plus the gap at c = 1 across the grid.

    Each witness check records the witness r, or -1.0 where none is found
    (0.0 at c = 1), on both sides, and passes exactly when the search agrees
    with the claim.  At c = 1 the largest |inequality_gap(1, r)| over
    DEFAULT_WITNESS_GRID is bounded by 1e-12; the gap is exactly 0 there by
    construction, so only the c < 1 checks can fail.  The whole list is
    refused before any search: DomainError for an empty list or a c outside
    (0, 1].
    """
    if len(c_values) == 0:
        raise DomainError("theorem-inequality: an empty list of c values checks nothing")
    for c in c_values:
        _refuse_exponent(c)
    checks = []
    for c in c_values:
        witness = witness_search(c)
        if c < 1.0:
            label, ok, miss = f"witness exists for c={c}", witness is not None, -1.0
        else:
            label, ok, miss = "no witness for c=1", witness is None, 0.0
        value = complex(miss if witness is None else witness)
        checks.append(Check(name=label, lhs=value, rhs=value, tolerance=0.0, passed=ok))
        if c == 1.0:
            worst = max(abs(inequality_gap(1.0, r)[0]) for r in DEFAULT_WITNESS_GRID)
            checks.append(make_bound_check("equality gap at c=1", worst, 0.0, 1e-12))
    return checks


def _refuse_poles_on_spectrum(model: WeightSequence, maps) -> None:
    """PoleHit unless every map is analytic on the spectrum, the closed disc of
    radius model.limit: its pole 1/conj(a) must lie outside, |a| limit < 1."""
    for phi in maps:
        if abs(phi.a) * model.limit >= 1.0:
            raise PoleHit(
                f"the pole 1/conj(a) of a = {phi.a} lies in the spectrum, "
                f"the disc of radius {model.limit}; need |a| * limit < 1"
            )


def _image_disc(phi: MobiusMap, c: float) -> tuple[complex, float]:
    """Centre m and radius rho of the image under phi of the disc |z| < c, for |a| c < 1.

    With t = |a| c, phi maps the circle |z| = c onto the circle |w - m| = rho,
        m = beta a (c^2 - 1) / (1 - t^2),    rho = c (1 - |a|^2) / (1 - t^2),
    and the disc inside onto the disc inside, as its pole 1/conj(a) lies
    outside.  1 - t^2, 1 - |a|^2 and c^2 - 1 are each formed as a product
    (1 - x)(1 + x), so no difference cancels as t -> 1: the rounding of t,
    amplified by 1/(1 - t), is the one error that grows there (disc_indices
    bounds it).  The product for m is grouped so that no factor overflows
    while m and rho are finite.  beta is unimodular, as MobiusMap stores it.
    DomainError unless |m| is finite and rho finite and positive, as they
    need not be for a limit near the largest float.
    """
    s = abs(phi.a)
    t = s * c
    shrink = (1.0 - t) * (1.0 + t)
    m = phi.beta * phi.a * (c - 1.0) * ((c + 1.0) / shrink)
    rho = c * ((1.0 - s) * (1.0 + s) / shrink)
    if not (math.isfinite(abs(m)) and 0.0 < rho < math.inf):
        raise DomainError(f"the image of |z| < {c} under a = {phi.a} has centre {m}, radius {rho}")
    return m, rho


def _mapped_indices(phi: MobiusMap, c: float, points: np.ndarray) -> list[int]:
    """Index of phi(T) - zeta at each point, T with essential spectrum |z| = c:
    1 inside phi's image disc and 0 outside."""
    m, rho = _image_disc(phi, c)
    return disc_indices(points, m, rho, 1.0 / (1.0 - abs(phi.a) * c))


def _pulled_back_indices(phi: MobiusMap, c: float, zeta: np.ndarray) -> list[int]:
    """Index of T - phi^{-1}(zeta) at each point, T with essential spectrum |z| = c:
    1 when |phi^{-1}(zeta)| < c and 0 when it exceeds c.

    q = phi^{-1}(zeta) = conj(beta) (zeta + a beta)/(1 + conj(a beta) zeta)
    comes from mobius_eval and mobius_invert.  Its rounding is about 12 u |q|
    from the operations, plus that of a beta and of conj(a beta) zeta,
    6 u |a| (1 + |zeta| |q|), over the denominator, whose modulus is
    (1 - |a|^2)/|1 - conj(a) q|.  So the band of disc_indices about the
    circle |q| = c takes the condition
        1 + |a| (1 + |zeta| |q|) |1 - conj(a) q| / ((1 - |a|^2)(|q| + c)).
    DomainError if q overflows, as it can for a finite zeta near the largest
    float.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = mobius_eval(mobius_invert(phi), zeta)
    if not np.isfinite(q).all():
        raise DomainError("change-of-variable: a pulled-back point phi^{-1}(zeta) overflows")
    s = abs(phi.a)
    size = np.abs(q)
    # s + s |zeta| |q| is exactly 0 at a = 0, where s (1 + |zeta| |q|) can be 0 inf
    lift = (s + s * np.abs(zeta) * size) * np.abs(1.0 - np.conj(phi.a) * q)
    try:
        return disc_indices(q, 0.0, c, 1.0 + lift / ((1.0 - s) * (1.0 + s) * (size + c)))
    except TooCloseToCurve as exc:
        raise TooCloseToCurve(f"zeta pulled back by phi^-1: {exc}") from None


def _complex_points(points, what: str) -> np.ndarray:
    """points as a complex array; DomainError for an empty list, which would check nothing."""
    if len(points) == 0:
        raise DomainError(f"{what}: an empty list of points checks nothing")
    return np.asarray(points, dtype=np.complex128)


def change_of_variable_check(model: WeightSequence, phi: MobiusMap, points) -> list[Check]:
    """Index of phi(T) at zeta vs index of T at phi^{-1}(zeta), integer equality.

    The essential spectrum of T is the circle |z| = c = model.limit, so the
    index of T - nu is 1 for |nu| < c and 0 for |nu| > c.  phi(T) - zeta is
    invertible exactly when T - phi^{-1}(zeta) is.  The left side is
    |zeta - m| < rho for phi's image disc (m, rho); the right side is
    |phi^{-1}(zeta)| < c.  These are two formulas for one disc, so the check
    tests phi, phi^{-1} and the image-disc formula against each other; it
    touches no operator.  Each side refuses a point within its own rounding
    band with TooCloseToCurve (disc_indices, _pulled_back_indices).

    Raises PoleHit unless phi is analytic on the spectrum, DomainError for an
    empty list of points, an image disc or a pulled-back point that
    overflows, and ValueError for a non-finite point.
    """
    _refuse_poles_on_spectrum(model, (phi,))
    zeta = _complex_points(points, "change-of-variable")
    lhs = _mapped_indices(phi, model.limit, zeta)
    rhs = _pulled_back_indices(phi, model.limit, zeta)
    return [
        make_check(f"index transport at zeta={z}", left, right, 0.0)
        for z, left, right in zip(points, lhs, rhs)
    ]


def constancy_check(model: WeightSequence, maps=DEFAULT_MAP_GRID, interior_points=None) -> list[Check]:
    """The index is the same integer at every interior point, across all maps,
    and zero at every default exterior point.

    Each index comes from the map's image disc (m, rho) of the spectrum's
    disc |z| < c, c = model.limit: 1 when |zeta - m| < rho and 0 when
    |zeta - m| > rho (see disc_indices, which refuses a point within its
    rounding band with TooCloseToCurve).  The constant is the first interior
    point's index about |z| = c.  Raises PoleHit unless every map in the
    sequence maps is analytic on the spectrum, DomainError for an empty
    sequence of maps, an empty list of interior points or an image disc that
    overflows, and ValueError for a non-finite point.
    """
    maps = tuple(maps)
    _refuse_poles_on_spectrum(model, maps)
    if not maps:
        raise DomainError("constancy: an empty sequence of maps checks nothing")
    if interior_points is None:
        interior_points = default_interior_points()
    exterior_points = default_exterior_points()
    interior = _complex_points(interior_points, "constancy: interior")
    c = model.limit
    base = disc_indices(interior[:1], 0.0, c)[0]
    # one decision per map: every point against the map's image disc
    points = np.concatenate((interior, exterior_points))
    # each point and each map is formatted once; a name is their concatenation
    heads = [f"constant index at zeta={zeta}, a=" for zeta in interior_points]
    heads += [f"zero index outside at zeta={zeta}, a=" for zeta in exterior_points]
    wants = [base] * len(interior_points) + [0] * len(exterior_points)
    checks = []
    for phi in maps:
        a = f"{phi.a}"
        indices = _mapped_indices(phi, c, points)
        checks.extend(make_check(h + a, i, want, 0.0) for h, i, want in zip(heads, indices, wants))
    return checks


def default_interior_points():
    """Deterministic spiral of 20 interior sample points, radii up to 0.8."""
    k = np.arange(20)
    return list(0.8 * (k + 1) / 20 * np.exp(2j * np.pi * k / 20))


def default_exterior_points():
    """5 exterior sample points, radii 1.3 to 2.9."""
    k = np.arange(5)
    return list((1.3 + 0.4 * k) * np.exp(2j * np.pi * k / 5))


def resolvent_probe_check(model: WeightSequence, points, n: int) -> list[Check]:
    """The resolvent norm of the truncated adjoint at each w against Neumann's
    bound, and the exact rank-one vector norm against ||x||/|w|.

    The first check bounds ||(T_n* - conj(w))^{-1}|| by 1/(|w| - ||T||) with
    ||T|| = sup w_k, within 5e-2; the bound holds for the truncation too,
    whose adjoint is T* restricted to the invariant span(e_0, ..., e_{n-1}).
    The second compares ||(T* - conj(w))^{-1} x|| for x = w_0 e_0 with
    w_0/|w| (T* e_0 = 0), within 1e-12.  Both numbers come from the weight
    band in O(n).  The whole list is refused before any solve: DomainError
    for an empty list, SpectrumHit unless every |w| > sup w_k
    PROBE_MIN_MODULUS, and DomainError for a w with |w|^2 not finite, which
    the singular-value count squares; past that floor Weyl's bound
    s_min >= |w| - sup w_k keeps T_n* - conj(w) invertible.
    """
    if len(points) == 0:
        raise DomainError("resolvent-probe: an empty list of points checks nothing")
    floor = model.sup * PROBE_MIN_MODULUS
    for w in points:
        if abs(w) <= floor:
            raise SpectrumHit(f"|w| must exceed {floor}, got {abs(w)}")
        if not math.isfinite(abs(w) * abs(w)):
            raise DomainError(f"resolvent-probe: |w|^2 must be finite, got |w| = {abs(w)}")
    w0 = model.weights(1)[0]
    x = np.zeros(n, dtype=np.complex128)
    x[0] = w0
    checks = []
    for w in points:
        op_norm = 1.0 / adjoint_resolvent_smin(model, w, n)
        u = adjoint_resolvent_solve(model, w, x)
        checks += [
            make_bound_check(
                f"resolvent norm vs 1/(|w|-sup w_k) at w={w}",
                op_norm, 1.0 / (abs(w) - model.sup), 5e-2,
            ),
            make_bound_check(
                f"rank-one vector norm vs ||x||/|w| at w={w}",
                float(np.sqrt(np.vdot(u, u).real)), w0 / abs(w), 1e-12,
            ),
        ]
    return checks


def t_lambda_trace_check(model: WeightSequence, n: int) -> Check:
    """Partial trace w_{n-1}^2 of a rational-family model against 1, within 2 lam / n.

    All members of the family share principal value 1 on the disc while being
    mutually inequivalent; the trace of the exact self-commutator is the shared
    invariant probed here.  Raises DomainError unless the model is of that family.
    """
    if model.kind != KIND_RATIONAL:
        raise DomainError(f"t-lambda trace needs the rational family, got a {model.kind} model")
    w_last = float(model._weights(n - 1, n)[0])
    lam = model.lam
    return make_check(f"partial commutator trace (lam={lam}, n={n})", w_last**2, 1.0, 2.0 * lam / n)
