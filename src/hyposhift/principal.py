"""Principal function estimation and the disc-integral exponential.

The principal function of a weighted shift with convergent weights equals the
winding number of its symbol curve (the essential-spectrum circle) about the
evaluation point, i.e. minus the Fredholm index of T - lambda.  Windings are
computed for a batch of points on one shared sampled curve: the curve's
adjacent gaps, and with them the margin of CURVE_MARGIN_FACTOR x the largest
gap, are computed once, and the argument increments run over the points in
chunks of WINDING_CHUNK so that no points x samples matrix is ever formed.
A chunk far from the curve winds on the subsample curve[::k] instead of the
whole curve; the stride k is exact, not an approximation (see
winding_numbers).

The disc integral exp(-(1/pi) int g(zeta) / ((zeta - z)(conj(zeta) - conj(w))) dA)
is computed by midpoint polar quadrature for a g constant on each ring, whose
angular sums have a closed form (see disc_cauchy_exponential), and is
cross-checked against the closed form (1 - 1/(z conj(w)))^c, itself evaluated
through an independent scalar series.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .determinants import determining_det
from .errors import EvaluationInsideDisc, OnEssentialSpectrum, TooCloseToCurve
from .reporting import make_check
from .shifts import WeightSequence, symbol_curve

DEFAULT_CURVE_SAMPLES = 4096
CURVE_MARGIN_FACTOR = 10.0
WINDING_CHUNK = 8  # points per argument-increment pass; bounds each temporary to 8 x samples
COARSE_STRIDE = 64  # subsample step of the distance bound that picks each chunk's stride


@dataclass(frozen=True)
class GridFunction:
    """Values of a principal-function candidate on a midpoint polar grid.

    Node (i, j) sits at radius (i + 1/2)/n_r and angle 2 pi (j + 1/2)/n_theta,
    strictly interior to the unit disc.  Values must lie in [0, 1].
    """

    n_r: int
    n_theta: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.n_r, self.n_theta):
            raise ValueError(f"values shape {vals.shape} != ({self.n_r}, {self.n_theta})")
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
    return GridFunction(n_r, n_theta, np.full((n_r, n_theta), float(value)))


def winding_numbers(curve: np.ndarray, points) -> np.ndarray:
    """Windings of a closed sampled curve about each point, by argument increments.

    Every point must keep a distance of more than CURVE_MARGIN_FACTOR x the
    maximal adjacent-point spacing (gap) from the curve, which makes the
    rounded argument sum refinement-stable; otherwise TooCloseToCurve names the
    first offending point in input order.  Points beyond the curve's bounding
    circle plus that margin get winding 0 without the argument sum: the sampled
    polygon lies inside the circle, and the products of far differences would
    overflow.  Curve and points must be finite (ValueError).  Returns an int
    array shaped like points.

    Stride.  Every vertex of the polygon is at most COARSE_STRIDE/2 edges from
    a vertex of curve[::COARSE_STRIDE], so every point of the polygon lies
    within (COARSE_STRIDE/2 + 1) gap of that subsample, and
    d = min |p - curve[::COARSE_STRIDE]| - (COARSE_STRIDE/2 + 1) gap bounds the
    distance from p to the polygon from below.  A chunk of points winds on
    curve[::k], with k the largest power of two <= len(curve)/COARSE_STRIDE
    such that d > CURVE_MARGIN_FACTOR k gap for every point of the chunk
    (k = 1 when there is none).  The result is exact:

    * the polygon's winding about p is that of the strided polygon plus the
      windings of the dropped sub-loops, each made of at most k edges and the
      closing chord.  A sub-loop lies in the disc of radius k gap about its
      first vertex, which p is outside of, so it winds 0 about p;
    * the strided polygon's largest gap is at most k gap, so p keeps the
      refinement-stable margin on it too.

    Every chunk is checked against the margin, and only a chunk with k = 1,
    which winds on the whole curve, can fail the check: a point within the
    margin has d <= CURVE_MARGIN_FACTOR gap and forces k = 1.  So
    TooCloseToCurve fires on exactly the points that are too close.
    """
    curve = np.asarray(curve, dtype=np.complex128)
    points = np.asarray(points, dtype=np.complex128)
    if not (np.all(np.isfinite(curve)) and np.all(np.isfinite(points))):
        raise ValueError("winding needs a finite curve and finite points")
    flat = points.reshape(-1)
    following = np.roll(curve, -1)
    gap = float(np.max(np.abs(following - curve)))
    margin = CURVE_MARGIN_FACTOR * gap
    re, im = curve.real, curve.imag
    center = complex(np.max(re) + np.min(re), np.max(im) + np.min(im)) / 2.0
    radius = float(np.max(np.abs(curve - center)))
    near = np.flatnonzero(np.abs(flat - center) <= radius + margin)
    coarse = curve[::COARSE_STRIDE]
    slack = (COARSE_STRIDE // 2 + 1) * gap
    top_stride = 1 << max((curve.size // COARSE_STRIDE).bit_length() - 1, 0)
    strided = {1: (curve, following)}  # stride -> (curve[::k], its successors), built lazily
    out = np.zeros(flat.shape, dtype=np.int64)
    for start in range(0, near.size, WINDING_CHUNK):
        rows = near[start : start + WINDING_CHUNK]
        chunk = flat[rows, None]
        reach = float(np.min(np.abs(coarse - chunk))) - slack
        k = top_stride
        while k > 1 and reach <= margin * k:
            k //= 2
        if k not in strided:
            sub = curve[::k]
            strided[k] = (sub, np.roll(sub, -1))
        sub, sub_following = strided[k]
        rel = sub - chunk
        min_dist = np.min(np.abs(rel), axis=1)
        close = np.flatnonzero(min_dist <= margin)
        if close.size:
            i = close[0]
            raise TooCloseToCurve(
                f"point {complex(chunk[i, 0])} is {min_dist[i]:.3e} from the curve; "
                f"need > {margin:.3e}"
            )
        # arg((next - p) / (curve - p)) without the division, reusing the buffers
        step = sub_following - chunk
        step *= np.conjugate(rel, out=rel)
        turns = np.sum(np.angle(step), axis=1) / (2.0 * np.pi)
        out[rows] = np.rint(turns)
    return out.reshape(points.shape)


def principal_value_at(
    model: WeightSequence, point: complex, samples: int = DEFAULT_CURVE_SAMPLES
) -> int:
    """g(point) = minus the Fredholm index = winding of the symbol curve about the point."""
    curve = symbol_curve(model, samples)
    try:
        return int(winding_numbers(curve, point))
    except TooCloseToCurve as exc:
        raise OnEssentialSpectrum(
            f"{point} is too close to the essential circle of radius "
            f"{model.limit}"
        ) from exc


def disc_cauchy_exponential(g: GridFunction, z: complex, w: complex) -> complex:
    """exp(-(1/pi) int_D g(zeta) / ((zeta - z)(conj(zeta) - conj(w))) dA(zeta)).

    Midpoint polar quadrature of a g that is constant on each ring (ValueError
    otherwise); z and w must be finite (ValueError) and lie strictly outside
    the closed unit disc so the kernel stays bounded on the grid.

    Ring sums.  On the ring of radius r the M = n_theta midpoint angles are
    u_j = exp(2 pi i (j + 1/2)/M), the roots of u^M = -1, and
    1/((r u - z)(r conj(u) - conj(w))) = u/((r u - z)(r - conj(w) u)).  Its
    partial fractions over the poles a = z/r and b = r/conj(w), summed with
    sum_j 1/(u_j - c) = -M c^(M-1)/(c^M + 1), give

        sum_j 1/((r u_j - z)(r conj(u_j) - conj(w)))
            = M (1 - A B) / ((z conj(w) - r^2)(1 + A)(1 + B)),

    with A = (r/z)^M and B = (r/conj(w))^M.  Since |z|, |w| > 1 > r both
    |A|, |B| < 1: no power of a number of modulus above 1 is formed, and no
    denominator comes near 0.  Time and memory are O(n_r).
    """
    z, w = complex(z), complex(w)
    if not (cmath.isfinite(z) and cmath.isfinite(w)):
        raise ValueError(f"z and w must be finite, got {z}, {w}")
    if abs(z) <= 1.0 or abs(w) <= 1.0:
        raise EvaluationInsideDisc("z and w must satisfy |z|, |w| > 1")
    ring_values = g.values[:, 0]
    if np.any(g.values != ring_values[:, None]):
        raise ValueError("disc_cauchy_exponential needs g constant on each ring")
    m = g.n_theta
    r = g.radii()
    inv_z, conj_w = 1.0 / z, w.conjugate()
    outer = (r * inv_z) ** m
    inner = (r / conj_w) ** m
    # 1/(z conj(w) - r^2) as (1/z)/(conj(w) - r^2/z): no product overflows
    ring_sums = m * inv_z / (conj_w - r * r * inv_z) * (1.0 - outer * inner)
    ring_sums /= (1.0 + outer) * (1.0 + inner)
    # cell measure r dr dtheta with dr = 1/n_r and dtheta = 2 pi/M
    integral = np.sum(ring_values * r * ring_sums) * (2.0 * np.pi / (g.n_r * m))
    return complex(np.exp(-integral / np.pi))


def closed_form_oracle(z: complex, w: complex, c: float = 1.0) -> complex:
    """(1 - 1/(z conj(w)))^c via the scalar series for the logarithm.

    log(1 - u) = -sum_{m >= 1} u^m / m with u = 1/(z conj(w)), truncated when
    the term magnitude drops below 1e-15.  Independent of every matrix and
    quadrature path above.
    """
    u = 1.0 / (z * np.conj(w))
    if abs(u) >= 1.0:
        raise EvaluationInsideDisc("requires |z| |w| > 1")
    log_val = 0.0 + 0.0j
    term = u
    m = 1
    while abs(term) / m > 1e-15:
        log_val -= term / m
        term *= u
        m += 1
    return complex(np.exp(c * log_val))


def pincus_consistency(
    model: WeightSequence,
    z: complex,
    w: complex,
    n: int = 256,
    n_r: int = 400,
    n_theta: int = 400,
    quad_tol: float = 5e-3,
    exact_tol: float = 1e-12,
) -> list:
    """Triangle of oracles for the determinantal identity at one (z, w).

    Compares the resolvent-based determinant on the n-truncation, the disc
    quadrature, and the scalar closed form, pairwise.  A rank-one model has
    constant weights c = model.limit, and its principal function is g == 1 on
    the disc of radius c; substituting zeta = c eta turns that disc integral
    into the unit-disc one at (z/c, w/c), so both oracles run there and give
    1 - c^2/(z conj(w)).  The resolvent value matches the closed form to
    machine precision; the quadrature carries the grid tolerance.
    """
    x = np.zeros(n, dtype=np.complex128)
    x[0] = model.weights(1)[0]
    det_val = determining_det(model, x, z, w, n)
    c = model.limit
    quad_val = disc_cauchy_exponential(constant_grid(1.0, n_r, n_theta), z / c, w / c)
    oracle_val = closed_form_oracle(z / c, w / c, 1.0)
    tag = f"z={z}, w={w}"
    return [
        make_check(f"determinant vs closed form [{tag}]", det_val, oracle_val, exact_tol),
        make_check(f"quadrature vs closed form [{tag}]", quad_val, oracle_val, quad_tol),
        make_check(f"determinant vs quadrature [{tag}]", det_val, quad_val, quad_tol),
    ]
