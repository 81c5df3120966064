"""Principal function estimation and the determinantal identity's three corners.

The principal function of a weighted shift with convergent weights is minus
the Fredholm index of T - lambda, the winding of its essential-spectrum circle
|z| = c about lambda: 1 inside the circle and 0 outside.  disc_indices decides
that in closed form for a batch of points, from the gap |p - centre| - radius,
and refuses a point within a stated rounding band of the circle; no curve is
sampled.  homogeneity passes it the image discs of the Moebius experiments,
and the CLI's grid the circle |z| = c itself.

That principal function is radial (a weighted shift T is unitarily
equivalent to e^{i theta} T), so a GridFunction stores one value per ring of
its midpoint polar grid.  The disc integral
exp(-(1/pi) int g(zeta) / ((zeta - z)(conj(zeta) - conj(w))) dA) is computed
by midpoint polar quadrature, whose angular sums have a closed form (see
disc_cauchy_exponential), in O(n_r), and is cross-checked against the closed
form (1 - 1/(z conj(w)))^c, itself evaluated through an independent scalar
series.

The determining determinant 1 - <(T* - conj(w))^{-1} x, (T* - conj(z))^{-1} x>
of a shift whose infinite self-commutator is the rank-one x (x) x takes two
O(n) back-substitutions on the weight band (shifts.adjoint_resolvent_solve).
The finite multiplicative commutator's determinant is identically 1, so it
must go through the rank-one perturbation, never through finite products; the
dense tripwire that shows the collapse lives with the test oracles.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotRankOne, SpectrumHit, TooCloseToCurve
from .reporting import make_check
from .shifts import WeightSequence, adjoint_resolvent_solve

@dataclass(frozen=True)
class GridFunction:
    """A radial principal-function candidate on a midpoint polar grid.

    Node (i, j) sits at radius (i + 1/2)/n_r and angle 2 pi (j + 1/2)/n_theta,
    strictly interior to the unit disc.  values has shape (n_r,): values[i] is
    g on every node of ring i.  ValueError unless n_r, n_theta >= 1, values
    has that shape, and every value lies in [0, 1] (NaN refused).
    """

    n_r: int
    n_theta: int
    values: np.ndarray

    def __post_init__(self):
        if self.n_r < 1 or self.n_theta < 1:
            raise ValueError(f"a grid needs n_r, n_theta >= 1, got {self.n_r}, {self.n_theta}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.n_r,):
            raise ValueError(f"values shape {vals.shape} != ({self.n_r},): one value per ring")
        # written so that a NaN, which np.min and np.max propagate, fails too
        if not (np.min(vals) >= 0.0 and np.max(vals) <= 1.0):
            raise ValueError("grid values must lie in [0, 1]")
        object.__setattr__(self, "values", vals)

    def radii(self) -> np.ndarray:
        return (np.arange(self.n_r) + 0.5) / self.n_r

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * (np.arange(self.n_theta) + 0.5) / self.n_theta

    def nodes(self) -> np.ndarray:
        r = self.radii()[:, None]
        th = self.angles()[None, :]
        return r * np.exp(1j * th)


def constant_grid(value: float, n_r: int, n_theta: int) -> GridFunction:
    """g == value on the n_r x n_theta grid."""
    return GridFunction(n_r, n_theta, np.full(n_r, float(value)))


def disc_indices(points: np.ndarray, centre: complex, radius: float, condition=1.0) -> list:
    """1 for each point inside the circle |p - centre| = radius and 0 for each
    outside, as Python ints nested like points (tolist of its shape).

    The gap |p - centre| - radius decides.  A point whose computed gap is
    within the rounding band
        32 eps (|p| + |centre| + radius) condition
    of zero raises TooCloseToCurve.  A non-finite point, a non-finite centre
    and a radius that is not finite and positive each raise ValueError before
    anything is decided (a NaN gap would otherwise read as outside).
    condition is a scalar or one factor per point.

    The band bounds the rounding of the gap for a centre and radius from
    homogeneity._image_disc with condition = 1/(1 - t), t = |a| c.  Write u = eps/2 and
    S = |p| + |m| + rho; S >= c, since the image circle reaches modulus
    max |phi| >= c on |z| = c.  |a| and t carry 2 u and 3 u, so 1 - t is off
    by 3 u/(1 - t) relative; 1 - |a| by 2 u |a| absolute, which in rho is
    2 u |a| c (1 + |a|)/(1 - t^2) <= 4 u S/(1 - t); the other factors,
    products and quotients add 12 u relative to m and to rho.  So rho is off
    by at most 19 u S/(1 - t), and m by 16 u |m|/(1 - t).  |p - m| adds 3 u
    (|p| + |m|) for the subtraction and the modulus, and the gap u S.  The
    total is below 39 u S/(1 - t) = 19.5 eps S/(1 - t); 32 also covers the
    band's own rounding while 1 - t is above a few hundred eps.  Once
    1 - t <= 32 eps the band reaches S, which no gap exceeds, so every point
    is refused.
    The circle |z| = c itself (centre 0, radius c) has condition 1.  A
    caller with other inputs passes the factor that bounds their rounding
    relative to S, as homogeneity._pulled_back_indices does.
    """
    if not (cmath.isfinite(centre) and 0.0 < radius < math.inf):
        raise ValueError(f"the index needs a finite centre and radius > 0, got {centre}, {radius}")
    if not np.isfinite(points).all():
        raise ValueError("the index needs finite points")
    gap = np.abs(points - centre) - radius
    band = 32.0 * sys.float_info.epsilon * condition * (np.abs(points) + (abs(centre) + radius))
    close = np.abs(gap) <= band
    if close.any():
        i = np.unravel_index(close.argmax(), close.shape)  # the first, in C order
        raise TooCloseToCurve(
            f"point {complex(points[i])} is {abs(gap[i]):.3e} from the circle "
            f"|z - {complex(centre)}| = {radius}; need > {band[i]:.3e}"
        )
    return (gap < 0.0).astype(int).tolist()


def disc_cauchy_exponential(g: GridFunction, z: complex, w: complex) -> complex:
    """exp(-(1/pi) int_D g(zeta) / ((zeta - z)(conj(zeta) - conj(w))) dA(zeta)).

    Midpoint polar quadrature of the radial g; z and w must be finite
    (ValueError) and lie strictly outside the closed unit disc (SpectrumHit)
    so the kernel stays bounded on the grid.

    Ring sums.  On the ring of radius r the M = n_theta midpoint angles are
    u_j = exp(2 pi i (j + 1/2)/M), the roots of u^M = -1, and
    1/((r u - z)(r conj(u) - conj(w))) = u/((r u - z)(r - conj(w) u)).  Its
    partial fractions over the poles a = z/r and b = r/conj(w), summed with
    sum_j 1/(u_j - c) = -M c^(M-1)/(c^M + 1), give

        sum_j 1/((r u_j - z)(r conj(u_j) - conj(w)))
            = M (1 - A B) / ((z conj(w) - r^2)(1 + A)(1 + B)),

    with A = (r/z)^M and B = (r/conj(w))^M.  Since |z|, |w| > 1 > r both
    |A|, |B| < 1: no power of a number of modulus above 1 is formed, and no
    denominator comes near 0.  The whole quadrature takes O(n_r) time and
    memory.
    """
    z, w = complex(z), complex(w)
    if not (cmath.isfinite(z) and cmath.isfinite(w)):
        raise ValueError(f"z and w must be finite, got {z}, {w}")
    if abs(z) <= 1.0 or abs(w) <= 1.0:
        raise SpectrumHit("z and w must satisfy |z|, |w| > 1")
    r, m = g.radii(), g.n_theta
    inv_z, conj_w = 1.0 / z, w.conjugate()
    outer = (r * inv_z) ** m
    inner = (r / conj_w) ** m
    # 1/(z conj(w) - r^2) as (1/z)/(conj(w) - r^2/z): no product overflows
    ring_sums = m * inv_z / (conj_w - r * r * inv_z) * (1.0 - outer * inner)
    # (1 + outer)(1 + inner), formed in place: one ring array fewer at the peak
    outer += 1.0
    inner += 1.0
    ring_sums /= outer * inner
    # cell measure r dr dtheta with dr = 1/n_r and dtheta = 2 pi/M
    ring_sums *= g.values * r
    integral = np.sum(ring_sums) * (2.0 * np.pi / (r.size * m))
    return complex(np.exp(-integral / np.pi))


def closed_form_oracle(z: complex, w: complex) -> complex:
    """1 - 1/(z conj(w)) as the exponential of the scalar series for its logarithm.

    log(1 - u) = -sum_{m >= 1} u^m / m with u = 1/(z conj(w)), truncated when
    the term magnitude drops below 1e-15.  Independent of every matrix and
    quadrature path above.
    """
    u = 1.0 / (z * np.conj(w))
    if abs(u) >= 1.0:
        raise SpectrumHit("requires |z| |w| > 1")
    log_val = 0.0 + 0.0j
    term = u
    m = 1
    while abs(term) / m > 1e-15:
        log_val -= term / m
        term *= u
        m += 1
    return complex(np.exp(log_val))


def determining_det(model: WeightSequence, x: np.ndarray, z: complex, w: complex) -> complex:
    """1 - <(T* - conj(w))^{-1} x, (T* - conj(z))^{-1} x> on the len(x)-truncation.

    Only models whose infinite self-commutator is rank one (model.rank_one:
    constant weights, [T*, T] = w_0^2 e_0 (x) e_0) are admitted; z, w must lie
    outside the closed disc of radius ||T|| (_admit).  ValueError unless x is
    a vector.
    """
    _admit(model, (("z", z), ("w", w)))
    u_w = adjoint_resolvent_solve(model, w, x)
    u_z = adjoint_resolvent_solve(model, z, x)
    return 1.0 - complex(np.vdot(u_z, u_w))


def _admit(model: WeightSequence, named_points) -> None:
    """The determining determinant's domain, for (name, point) pairs: SpectrumHit
    for the first point with |point| <= sup w_k, then NotRankOne unless the
    model's infinite self-commutator is rank one."""
    for name, point in named_points:
        if abs(point) <= model.sup:
            raise SpectrumHit(f"|{name}| must exceed sup w_k = {model.sup}, got {abs(point)}")
    if not model.rank_one:
        raise NotRankOne("infinite-model self-commutator is not rank one")


def pincus_consistency(
    model: WeightSequence,
    points,
    n: int = 256,
    n_r: int = 400,
    n_theta: int = 400,
) -> list:
    """Triangle of oracles for the determinantal identity at every pair (z, w),
    w in points[i:] for z = points[i].

    Compares the resolvent-based determinant on the n-truncation, the disc
    quadrature, and the scalar closed form, pairwise.  A rank-one model has
    constant weights c = model.limit, and its principal function is g == 1 on
    the disc of radius c; substituting zeta = c eta turns that disc integral
    into the unit-disc one at (z/c, w/c), so both oracles run there and give
    1 - c^2/(z conj(w)).  The resolvent value matches the closed form to
    machine precision (tolerance 1e-12); the quadrature carries the grid
    tolerance 5e-3.

    The whole input is refused before the first solve: DomainError for an
    empty list, then determining_det's SpectrumHit and NotRankOne, naming
    points[0] z and every later point w, as in their pairs with points[0],
    then DomainError for a point p with p/c or |p/c|^2 not finite, so that no
    pair's (z/c) conj(w/c) overflows.  Each point's resolvent vector is solved
    once, and each pair's determinant is determining_det's expression on the
    two vectors.
    """
    if len(points) == 0:
        raise DomainError("pincus-check: an empty list of points checks nothing")
    _admit(model, [("z", points[0])] + [("w", w) for w in points[1:]])
    c = model.limit
    scaled = [p / c for p in points]
    for p, s in zip(points, scaled):
        if not math.isfinite(abs(s) * abs(s)):
            raise DomainError(f"pincus-check: |p/c|^2 must be finite, got p = {p} with c = {c}")
    x = np.zeros(n, dtype=np.complex128)
    x[0] = model.weights(1)[0]
    per_point = [(p, s, adjoint_resolvent_solve(model, p, x)) for p, s in zip(points, scaled)]
    g = constant_grid(1.0, n_r, n_theta)
    quad_tol = 5e-3
    checks = []
    for i, (z, z_c, u_z) in enumerate(per_point):
        for w, w_c, u_w in per_point[i:]:
            det_val = 1.0 - complex(np.vdot(u_z, u_w))
            quad_val = disc_cauchy_exponential(g, z_c, w_c)
            oracle_val = closed_form_oracle(z_c, w_c)
            tag = f"z={z}, w={w}"
            checks += [
                make_check(f"determinant vs closed form [{tag}]", det_val, oracle_val, 1e-12),
                make_check(f"quadrature vs closed form [{tag}]", quad_val, oracle_val, quad_tol),
                make_check(f"determinant vs quadrature [{tag}]", det_val, quad_val, quad_tol),
            ]
    return checks
