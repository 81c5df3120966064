"""Principal function estimation and the disc-integral exponential.

The principal function of a weighted shift with convergent weights equals the
winding number of its symbol curve (the essential-spectrum circle) about the
evaluation point, i.e. minus the Fredholm index of T - lambda.  Windings are
computed for a batch of points on one shared sampled curve: the curve's
adjacent gaps, and with them the margin of CURVE_MARGIN_FACTOR x the largest
gap, are computed once, and the argument increments run over the points in
chunks of WINDING_CHUNK so that no points x samples matrix is ever formed.
The disc integral exp(-(1/pi) int g(zeta) / ((zeta - z)(conj(zeta) - conj(w))) dA)
is computed by midpoint polar quadrature and cross-checked against the closed
form (1 - 1/(z conj(w)))^c, itself evaluated through an independent scalar
series.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .determinants import determining_det
from .errors import EvaluationInsideDisc, OnEssentialSpectrum, TooCloseToCurve
from .reporting import make_check
from .shifts import WeightSequence, symbol_curve

DEFAULT_CURVE_SAMPLES = 4096
CURVE_MARGIN_FACTOR = 10.0
WINDING_CHUNK = 8  # points per argument-increment pass; bounds each temporary to 8 x samples


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
        if np.min(vals) < 0.0 or np.max(vals) > 1.0:
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

    def cell_measure(self) -> np.ndarray:
        """r dr dtheta weights, shape (n_r, n_theta)."""
        dr = 1.0 / self.n_r
        dth = 2.0 * np.pi / self.n_theta
        return np.broadcast_to(self.radii()[:, None] * dr * dth, (self.n_r, self.n_theta))


def constant_grid(value: float, n_r: int, n_theta: int) -> GridFunction:
    return GridFunction(n_r, n_theta, np.full((n_r, n_theta), float(value)))


def winding_numbers(curve: np.ndarray, points) -> np.ndarray:
    """Windings of a closed sampled curve about each point, by argument increments.

    Every point must keep a distance of more than CURVE_MARGIN_FACTOR x the
    maximal adjacent-point spacing from the curve, which makes the rounded
    argument sum refinement-stable; otherwise TooCloseToCurve names the first
    offending point in input order.  Points beyond the curve's bounding circle
    plus that margin get winding 0 without the argument sum: the sampled
    polygon lies inside the circle, and the products of far differences would
    overflow.  Returns an int array shaped like points.
    """
    curve = np.asarray(curve, dtype=np.complex128)
    points = np.asarray(points, dtype=np.complex128)
    flat = points.reshape(-1)
    following = np.roll(curve, -1)
    margin = CURVE_MARGIN_FACTOR * float(np.max(np.abs(following - curve)))
    re, im = curve.real, curve.imag
    center = complex(np.max(re) + np.min(re), np.max(im) + np.min(im)) / 2.0
    radius = float(np.max(np.abs(curve - center)))
    near = np.flatnonzero(np.abs(flat - center) <= radius + margin)
    out = np.zeros(flat.shape, dtype=np.int64)
    for start in range(0, near.size, WINDING_CHUNK):
        rows = near[start : start + WINDING_CHUNK]
        chunk = flat[rows, None]
        rel = curve - chunk
        min_dist = np.min(np.abs(rel), axis=1)
        close = np.flatnonzero(min_dist <= margin)
        if close.size:
            i = close[0]
            raise TooCloseToCurve(
                f"point {complex(chunk[i, 0])} is {min_dist[i]:.3e} from the curve; "
                f"need > {margin:.3e}"
            )
        # arg((next - p) / (curve - p)) without the division, reusing the buffers
        step = following - chunk
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

    Midpoint polar quadrature; z and w must lie strictly outside the closed
    unit disc so the kernel stays bounded on the grid.
    """
    if abs(z) <= 1.0 or abs(w) <= 1.0:
        raise EvaluationInsideDisc("z and w must satisfy |z|, |w| > 1")
    zeta = g.nodes()
    kernel = 1.0 / ((zeta - z) * (np.conj(zeta) - np.conj(w)))
    integral = np.sum(g.values * g.cell_measure() * kernel)
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
    quadrature with g == 1, and the scalar closed form, pairwise.  The
    resolvent value matches the closed form to machine precision for the
    unilateral shift; the quadrature carries the grid tolerance.
    """
    x = np.zeros(n, dtype=np.complex128)
    x[0] = model.weights(1)[0]
    det_val = determining_det(model, x, z, w, n)
    quad_val = disc_cauchy_exponential(constant_grid(1.0, n_r, n_theta), z, w)
    oracle_val = closed_form_oracle(z, w, 1.0)
    tag = f"z={z}, w={w}"
    return [
        make_check(f"determinant vs closed form [{tag}]", det_val, oracle_val, exact_tol),
        make_check(f"quadrature vs closed form [{tag}]", quad_val, oracle_val, quad_tol),
        make_check(f"determinant vs quadrature [{tag}]", det_val, quad_val, quad_tol),
    ]
