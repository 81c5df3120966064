"""Principal function estimation and the disc-integral exponential.

The principal function of a weighted shift with convergent weights equals the
winding number of its symbol curve (the essential-spectrum circle) about the
evaluation point, i.e. minus the Fredholm index of T - lambda.  Windings are
computed for a batch of points on one shared sampled curve: the curve's
adjacent gaps, and with them the margin of CURVE_MARGIN_FACTOR x the largest
gap, are computed once.  The curve is cut into blocks of COARSE_STRIDE edges;
a block far from a point turns about it exactly as the chord between its end
knots does, so each point sums whole edges only in the few blocks near it
(see winding_numbers).  Points run in chunks so that no points x samples
matrix is ever formed.

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
from .errors import EvaluationInsideDisc, NoLimitDeclared, OnEssentialSpectrum, TooCloseToCurve
from .reporting import make_check
from .shifts import WeightSequence, symbol_curve

DEFAULT_CURVE_SAMPLES = 4096
CURVE_MARGIN_FACTOR = 10.0
WINDING_CHUNK = 4  # every winding temporary holds at most 4 x samples elements
COARSE_STRIDE = 64  # edges per block of the block-chord winding
_TWO_PI = 2.0 * np.pi


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
        return _ring_radii(self.n_r)

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * (np.arange(self.n_theta) + 0.5) / self.n_theta

    def nodes(self) -> np.ndarray:
        r = self.radii()[:, None]
        th = self.angles()[None, :]
        return r * np.exp(1j * th)


def _ring_radii(n_r: int) -> np.ndarray:
    """Midpoint radii (i + 1/2)/n_r of the rings of an n_r-ring polar grid."""
    return (np.arange(n_r) + 0.5) / n_r


def constant_grid(value: float, n_r: int, n_theta: int) -> GridFunction:
    return GridFunction(n_r, n_theta, np.full((n_r, n_theta), float(value)))


def winding_numbers(curve: np.ndarray, points) -> np.ndarray:
    """Windings of a closed sampled curve about each point, by argument increments.

    Every point must keep a distance of more than CURVE_MARGIN_FACTOR x the
    maximal adjacent-point spacing (gap) from the curve's vertices, which makes
    the rounded argument sum refinement-stable; otherwise TooCloseToCurve names
    the first offending point in input order.  Curve and points must be finite
    and the curve non-empty (ValueError).  Returns an int array shaped like
    points.

    Blocks.  The closed polygon is cut into blocks of COARSE_STRIDE edges (the
    last may be shorter; a curve of at most COARSE_STRIDE samples is one
    block).  Block j runs from the knot a_j = curve[j COARSE_STRIDE] to the
    next knot (the last block ends at curve[0]), and l_j is its path length.
    A point p and block j are far when |p - a_j| > l_j + margin (up to a
    relative rounding guard of 1e-12, which only moves pairs to near), and the
    block's turn about a far p is exact from its two knots alone:

    * the block's path and its closing chord lie in the disc of radius l_j
      about a_j, which p is outside of, so the loop they form winds 0 about
      p, and the block turns about p exactly as its chord does;
    * the chord is no longer than l_j < |p - a_j|, so it subtends less than
      pi/2 at p, and its turn is the wrapped difference of the knots'
      arguments about p;
    * every vertex of the block is within l_j of a_j, so it clears the
      margin.

    A near pair sums the exact edge increments of its block's vertices and
    takes their exact distances.  By the third point, a vertex within the
    margin always lies in a near block, so TooCloseToCurve fires on exactly
    the points that are too close, with the full curve's minimum distance.
    A point far from every block sums chord angles only and forms no product
    of differences, so no point is too far to wind.  Points run in chunks, and
    near pairs in batches, sized so that no temporary holds more than
    WINDING_CHUNK x samples elements.
    """
    curve = np.asarray(curve, dtype=np.complex128)
    points = np.asarray(points, dtype=np.complex128)
    if not (np.all(np.isfinite(curve)) and np.all(np.isfinite(points))):
        raise ValueError("winding needs a finite curve and finite points")
    if curve.size == 0:
        raise ValueError("winding needs a non-empty curve")
    flat = points.reshape(-1)
    samples = curve.size
    block = min(COARSE_STRIDE, samples)
    starts = np.arange(0, samples, block)
    # the curve closed by its first sample and padded with it up to whole
    # blocks: block j's vertices are closed[j block : (j + 1) block + 1], and
    # a short last block repeats its end vertex, which turns by exactly 0
    closed = np.concatenate([curve, np.full(starts.size * block + 1 - samples, curve[0])])
    edges = np.abs(closed[1 : samples + 1] - curve)
    gap = float(np.max(edges))
    margin = CURVE_MARGIN_FACTOR * gap
    reach = (np.add.reduceat(edges, starts) + margin) * (1.0 + 1e-12)
    knots = closed[starts]
    vertices = np.lib.stride_tricks.sliding_window_view(closed, block + 1)[::block]
    per_chunk = WINDING_CHUNK * samples // starts.size
    per_batch = WINDING_CHUNK * samples // (block + 1)
    out = np.empty(flat.shape, dtype=np.int64)
    for start in range(0, flat.size, per_chunk):
        chunk = flat[start : start + per_chunk]
        far, total = _chord_turns(knots, reach, chunk)
        min_dist = np.full(chunk.size, np.inf)
        owner, which = np.nonzero(~far)
        for lo in range(0, owner.size, per_batch):
            own = owner[lo : lo + per_batch]
            dist, turn = _edge_turns(vertices, which[lo : lo + per_batch], chunk[own])
            np.minimum.at(min_dist, own, dist)
            total += np.bincount(own, turn, chunk.size)
        close = np.flatnonzero(min_dist <= margin)
        if close.size:
            i = close[0]
            raise TooCloseToCurve(
                f"point {complex(chunk[i])} is {min_dist[i]:.3e} from the curve; "
                f"need > {margin:.3e}"
            )
        out[start : start + per_chunk] = np.rint(total / _TWO_PI)
    return out.reshape(points.shape)


def _chord_turns(knots: np.ndarray, reach: np.ndarray, points: np.ndarray):
    """Which blocks are far from each point, and the summed turns of the far blocks' chords."""
    rel = knots - points[:, None]
    far = np.abs(rel) > reach
    theta = np.angle(rel)
    del rel  # the complex buffer is the largest; free it before the real temporaries
    turn = np.roll(theta, -1, axis=1)
    turn -= theta
    # wrap to [-pi, pi], with theta as the scratch buffer
    turn -= _TWO_PI * np.rint(np.divide(turn, _TWO_PI, out=theta), out=theta)
    return far, np.sum(turn, axis=1, where=far)


def _edge_turns(vertices: np.ndarray, blocks: np.ndarray, points: np.ndarray):
    """Minimum vertex distance and summed edge turns of each block about its point."""
    rel = vertices[blocks]
    rel -= points[:, None]
    dist = np.min(np.abs(rel), axis=1)
    # arg((next - p) / (vertex - p)) without the division
    step = np.conjugate(rel[:, :-1])
    step *= rel[:, 1:]
    return dist, np.sum(np.angle(step), axis=1)


def principal_value_at(model: WeightSequence, point: complex) -> int:
    """g(point) = minus the Fredholm index = winding of the symbol curve about the point."""
    return int(_principal_values_on(symbol_curve(model, DEFAULT_CURVE_SAMPLES), model, point))


def _principal_values_on(curve: np.ndarray, model: WeightSequence, points) -> np.ndarray:
    """principal_value_at for a batch of points on an already sampled symbol
    curve of model; OnEssentialSpectrum names the first point too close to it."""
    try:
        return winding_numbers(curve, points)
    except TooCloseToCurve as exc:
        raise OnEssentialSpectrum(
            f"{exc}: too close to the essential circle of radius {model.limit}"
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
    z, w = _outside_unit_disc(z, w)
    ring_values = g.values[:, 0]
    if np.any(g.values != ring_values[:, None]):
        raise ValueError("disc_cauchy_exponential needs g constant on each ring")
    return _ring_cauchy_exponential(ring_values, g.n_theta, z, w)


def _outside_unit_disc(z: complex, w: complex) -> tuple[complex, complex]:
    """z and w as complex numbers; ValueError unless both are finite, and
    EvaluationInsideDisc unless both lie strictly outside the closed unit disc."""
    z, w = complex(z), complex(w)
    if not (cmath.isfinite(z) and cmath.isfinite(w)):
        raise ValueError(f"z and w must be finite, got {z}, {w}")
    if abs(z) <= 1.0 or abs(w) <= 1.0:
        raise EvaluationInsideDisc("z and w must satisfy |z|, |w| > 1")
    return z, w


def _ring_cauchy_exponential(ring_values: np.ndarray, m: int, z: complex, w: complex) -> complex:
    """disc_cauchy_exponential's quadrature from the value of g on each ring,
    with m angles per ring, for checked z and w."""
    r = _ring_radii(ring_values.size)
    inv_z, conj_w = 1.0 / z, w.conjugate()
    outer = (r * inv_z) ** m
    inner = (r / conj_w) ** m
    # 1/(z conj(w) - r^2) as (1/z)/(conj(w) - r^2/z): no product overflows
    ring_sums = m * inv_z / (conj_w - r * r * inv_z) * (1.0 - outer * inner)
    ring_sums /= (1.0 + outer) * (1.0 + inner)
    # cell measure r dr dtheta with dr = 1/n_r and dtheta = 2 pi/M
    integral = np.sum(ring_values * r * ring_sums) * (2.0 * np.pi / (r.size * m))
    return complex(np.exp(-integral / np.pi))


def closed_form_oracle(z: complex, w: complex) -> complex:
    """1 - 1/(z conj(w)) as the exponential of the scalar series for its logarithm.

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
    return complex(np.exp(log_val))


def pincus_consistency(
    model: WeightSequence,
    z: complex,
    w: complex,
    n: int = 256,
    n_r: int = 400,
    n_theta: int = 400,
) -> list:
    """Triangle of oracles for the determinantal identity at one (z, w).

    Compares the resolvent-based determinant on the n-truncation, the disc
    quadrature, and the scalar closed form, pairwise.  A rank-one model has
    constant weights c = model.limit, and its principal function is g == 1 on
    the disc of radius c; substituting zeta = c eta turns that disc integral
    into the unit-disc one at (z/c, w/c), so both oracles run there and give
    1 - c^2/(z conj(w)).  The resolvent value matches the closed form to
    machine precision (tolerance 1e-12); the quadrature carries the grid
    tolerance 5e-3.
    """
    c = model.limit
    if c is None:
        raise NoLimitDeclared("pincus_consistency needs a declared limit: g is 1 on its disc")
    x = np.zeros(n, dtype=np.complex128)
    x[0] = model.weights(1)[0]
    det_val = determining_det(model, x, z, w, n)
    # disc_cauchy_exponential of constant_grid(1.0, n_r, n_theta), from its ring values
    quad_val = _ring_cauchy_exponential(np.ones(n_r), n_theta, *_outside_unit_disc(z / c, w / c))
    oracle_val = closed_form_oracle(z / c, w / c)
    tag = f"z={z}, w={w}"
    quad_tol = 5e-3
    return [
        make_check(f"determinant vs closed form [{tag}]", det_val, oracle_val, 1e-12),
        make_check(f"quadrature vs closed form [{tag}]", quad_val, oracle_val, quad_tol),
        make_check(f"determinant vs quadrature [{tag}]", det_val, quad_val, quad_tol),
    ]
