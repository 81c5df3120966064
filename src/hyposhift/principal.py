"""Principal function estimation and the determinantal identity's three corners.

The principal function of a weighted shift with convergent weights equals the
winding number of its symbol curve (the essential-spectrum circle) about the
evaluation point, i.e. minus the Fredholm index of T - lambda.  Windings are
computed for a batch of points on one shared sampled curve: the curve's
adjacent gaps, and with them the margin of CURVE_MARGIN_FACTOR x the largest
gap, are computed once.  The curve is cut into blocks of COARSE_STRIDE edges;
a block far from a point winds about it exactly as the chord between its end
knots does, so a point's winding is the signed count of ray crossings by the
far blocks' chords and the few near blocks' edges: an exact integer, with no
angle summed and nothing rounded.  The chords are sorted by height, so a
binary search gives each point only the chords level with it, and no points x
blocks or points x samples matrix is ever formed (see winding_numbers).

The disc integral exp(-(1/pi) int g(zeta) / ((zeta - z)(conj(zeta) - conj(w))) dA)
is computed by midpoint polar quadrature for a g constant on each ring, whose
angular sums have a closed form (see disc_cauchy_exponential), and is
cross-checked against the closed form (1 - 1/(z conj(w)))^c, itself evaluated
through an independent scalar series.

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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotRankOne, SpectrumHit, TooCloseToCurve
from .reporting import make_check
from .shifts import WeightSequence, adjoint_resolvent_solve

CURVE_MARGIN_FACTOR = 10.0
WINDING_CHUNK = 4  # every winding temporary holds at most 4 x samples elements
COARSE_STRIDE = 64  # edges per block of the block-chord winding


@dataclass(frozen=True)
class GridFunction:
    """Values of a principal-function candidate on a midpoint polar grid.

    Node (i, j) sits at radius (i + 1/2)/n_r and angle 2 pi (j + 1/2)/n_theta,
    strictly interior to the unit disc.  Values must lie in [0, 1].  They may
    be a read-only zero-stride view, as constant_grid's are.
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
    """g == value on the n_r x n_theta grid, stored as one float: its values
    are a read-only view with strides (0, 0)."""
    return GridFunction(n_r, n_theta, np.broadcast_to(float(value), (n_r, n_theta)))


def winding_numbers(curve: np.ndarray, points) -> np.ndarray:
    """Windings of a closed sampled curve about each point, by signed ray crossings.

    Every point must keep a distance of more than CURVE_MARGIN_FACTOR x the
    maximal adjacent-point spacing (gap) from the curve's vertices, which makes
    the winding refinement-stable; otherwise TooCloseToCurve names the first
    offending point in input order.  Curve and points must be finite and the
    curve non-empty (ValueError).  Returns an int array shaped like points.

    Blocks.  The closed polygon is cut into blocks of COARSE_STRIDE edges (the
    last may be shorter; a curve of at most COARSE_STRIDE samples is one
    block).  Block j runs from the knot a_j = curve[j COARSE_STRIDE] to the
    next knot (the last block ends at curve[0]), and l_j is its path length.
    A point p and block j are far when |p - a_j| > reach_j = l_j + margin (up
    to a relative rounding guard of 1e-12, which only moves pairs to near), and
    near otherwise.  The block's path and its chord, the segment between its
    knots, lie in the disc of radius l_j about a_j, which a far p is outside
    of: the loop they form winds 0 about p, so swapping the block for its
    chord leaves the winding unchanged, and every vertex of the block clears
    the margin.  The winding about p is therefore that of the polygon made of
    the far blocks' chords and the near blocks' edges.  A vertex within the
    margin always lies in a near block, so TooCloseToCurve fires on exactly
    the points that are too close, with the full curve's minimum distance.

    Crossings.  The polygon's winding is the signed count of its segments that
    cross the ray {p + t : t > 0}: a segment crosses when exactly one end lies
    above p (Im > Im p, the half-open rule), counting +1 upward with p on its
    left and -1 downward with p on its right, as the sign of the cross product
    of its ends relative to p decides.  Each segment stays at least
    margin - gap/2 from p, more than a tenth of its length, so rounding cannot
    flip that sign.  The count is that of the knot polygon's chords
    plus, for each near block, its edges' crossings less its chord's:
    integers, with no angle and nothing to round.

    Windows.  The chords are sorted by the lower Im of their ends.  A chord is
    no taller than R = max reach_j, and a near knot has |Im(p - a_j)| <= R, so
    the lower end of every chord that crosses, and of every near block's chord,
    lies in [Im p - 2R, Im p + R] (widened to cover the rounding of its
    bounds).  Two binary searches per point find those few candidates, and
    the exact reach test on them finds the near blocks: the same set as a test
    of every pair would.  Points run in chunks of at most WINDING_CHUNK x
    samples candidates, and near pairs in batches of at most that many
    vertices.
    """
    curve = np.asarray(curve, dtype=np.complex128)
    points = np.asarray(points, dtype=np.complex128)
    if not np.isfinite(points).all():
        raise ValueError("winding needs a finite curve and finite points")
    if curve.size == 0:
        raise ValueError("winding needs a non-empty curve")
    flat = points.reshape(-1)
    samples = curve.size
    block = min(COARSE_STRIDE, samples)
    starts = np.arange(0, samples, block)
    # the curve closed by its first sample and padded with it up to whole
    # blocks: block j's vertices are closed[j block : (j + 1) block + 1], and
    # a short last block repeats its end vertex, an edge that never crosses
    closed = np.concatenate([curve, np.full(starts.size * block + 1 - samples, curve[0])])
    with np.errstate(invalid="ignore"):  # inf - inf: a curve refused just below
        edges = np.abs(closed[1 : samples + 1] - curve)
    gap = float(edges.max())
    # a non-finite vertex makes its edges, and so the gap, non-finite
    if not (math.isfinite(gap) or np.isfinite(curve).all()):
        raise ValueError("winding needs a finite curve and finite points")
    margin = CURVE_MARGIN_FACTOR * gap
    reach = (np.add.reduceat(edges, starts) + margin) * (1.0 + 1e-12)
    # chord j runs from knots[j] to knots[j + 1]; rank them by their lower end
    knots = closed[::block]
    order = np.minimum(knots[:-1].imag, knots[1:].imag).argsort()
    tail, head, reach = knots[order], knots[order + 1], reach[order]
    lower = np.minimum(tail.imag, head.imag)
    widest = float(reach.max())
    # a power of two near 1/R for _crossings, capped where 1/R would overflow
    scale = math.ldexp(1.0, min(1000, -math.frexp(widest)[1]))
    # a window that can hold a candidate has |Im p| <= max |Im a_j| + 2R, and
    # its bounds round by far less than 1e-12 of that
    pad = 1e-12 * (float(np.abs(knots.imag).max()) + 2.0 * widest)
    first = lower.searchsorted(flat.imag - (2.0 * widest + pad))
    sizes = lower.searchsorted(flat.imag + (widest + pad), "right") - first
    ends = sizes.cumsum()
    # the rank of candidate k, counted across all points, is shift[its point] + k
    shift = first - (ends - sizes)
    per_batch = WINDING_CHUNK * samples // (block + 1)
    vertex = np.arange(block + 1)
    out = np.empty(flat.shape, dtype=np.int64)
    start = 0
    while start < flat.size:
        done = int(ends[start] - sizes[start])
        stop = int(ends.searchsorted(done + WINDING_CHUNK * samples, "right"))
        size = sizes[start:stop]
        owner = np.repeat(np.arange(stop - start), size)
        rank = np.repeat(shift[start:stop], size)
        rank += np.arange(done, int(ends[stop - 1]))
        p = flat[start:stop][owner]
        rel = tail[rank]
        rel -= p
        turn = _crossings(rel, head[rank] - p, scale)
        near = np.flatnonzero(np.abs(rel) <= reach[rank])
        del rel
        for lo in range(0, near.size, per_batch):
            pair = near[lo : lo + per_batch]
            rel = closed[order[rank[pair], None] * block + vertex]
            rel -= p[pair, None]
            close = pair[np.min(np.abs(rel), axis=1) <= margin]
            if close.size:
                i = owner[close[0]]
                mine = order[rank[near[owner[near] == i]], None] * block + vertex
                dist = float(np.min(np.abs(closed[mine] - flat[start + i])))
                raise TooCloseToCurve(
                    f"point {complex(flat[start + i])} is {dist:.3e} from the curve; "
                    f"need > {margin:.3e}"
                )
            turn[pair] = np.sum(_crossings(rel[:, :-1], rel[:, 1:], scale), axis=1)
        out[start:stop] = np.bincount(owner, turn, stop - start)
        start = stop
    return out.reshape(points.shape)


def _crossings(a: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    """Signed crossings (+1, -1 or 0) of the ray {t > 0} by the segments from a
    to b, their ends taken relative to the ray's origin.

    The side comes from the cross product with both imaginary parts times
    scale, a power of two near 1/R, which changes no sign.  Every segment
    passed here has |Im| of at most about 2R at both ends, so those parts are
    O(1): a product cannot underflow on a tiny curve, nor overflow on a far
    point unless its real part is itself within a factor of 4 of overflow.
    """
    turn = np.subtract(b.imag > 0, a.imag > 0, dtype=np.int64)
    side = a.real * (b.imag * scale)
    side -= (a.imag * scale) * b.real
    side *= turn
    turn *= side > 0
    return turn


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
    denominator comes near 0.  The sums take O(n_r) time and memory; the
    ring check reads all n_r x n_theta values and holds a boolean for each.
    """
    z, w = _outside_unit_disc(z, w)
    ring_values = g.values[:, 0]
    if np.any(g.values != ring_values[:, None]):
        raise ValueError("disc_cauchy_exponential needs g constant on each ring")
    return _ring_cauchy_exponential(ring_values, g.n_theta, z, w)


def _outside_unit_disc(z: complex, w: complex) -> tuple[complex, complex]:
    """z and w as complex numbers; ValueError unless both are finite, and
    SpectrumHit unless both lie strictly outside the closed unit disc."""
    z, w = complex(z), complex(w)
    if not (cmath.isfinite(z) and cmath.isfinite(w)):
        raise ValueError(f"z and w must be finite, got {z}, {w}")
    if abs(z) <= 1.0 or abs(w) <= 1.0:
        raise SpectrumHit("z and w must satisfy |z|, |w| > 1")
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
    ones = np.ones(n_r)
    quad_tol = 5e-3
    checks = []
    for i, (z, z_c, u_z) in enumerate(per_point):
        for w, w_c, u_w in per_point[i:]:
            det_val = 1.0 - complex(np.vdot(u_z, u_w))
            # disc_cauchy_exponential of constant_grid(1.0, n_r, n_theta), from its ring values
            quad_val = _ring_cauchy_exponential(ones, n_theta, *_outside_unit_disc(z_c, w_c))
            oracle_val = closed_form_oracle(z_c, w_c)
            tag = f"z={z}, w={w}"
            checks += [
                make_check(f"determinant vs closed form [{tag}]", det_val, oracle_val, 1e-12),
                make_check(f"quadrature vs closed form [{tag}]", quad_val, oracle_val, quad_tol),
                make_check(f"determinant vs quadrature [{tag}]", det_val, quad_val, quad_tol),
            ]
    return checks
