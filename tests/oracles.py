"""Dense general-matrix algebra: the one home of the oracles for the banded kernels.

materialize(model, n) builds the n-truncation of a weighted shift as a matrix.
The library's banded kernels are compared against the dense resolvents,
singular values, polynomial commutators and Moebius action on it; the matrix
helpers, the determining function E(z, w) of a Cartesian pair, the
multiplicative-determinant tripwire and the closed-form Moebius commutators
back the acceptance criteria.  All are O(n^3), for small n only.  Inner
products are <u, v> = sum u_k conj(v_k).  symbol_curve samples a model's
essential-spectrum circle, and winding_number is the one-point, division-form
winding about such a sampled polygon (refused within CURVE_MARGIN_FACTOR x
its largest gap) that the closed-form principal.disc_indices is compared
against where the polygon decides; principal_value_at is the principal
function at one point (the winding of the model's symbol curve) that
criterion 7 reads,
disc_cauchy_exponential the node-by-node disc quadrature behind the ring sums
of principal.disc_cauchy_exponential, helton_howe_area the
node-by-node Jacobian quadrature behind the ring moments of
traceforms.helton_howe_check (with Polynomial, the symbolic algebra it needs),
weight the scalar rule behind WeightSequence.weights, write_grid_csv and
write_checks_csv the row-by-row csv.writer dumps that reporting's writers match
byte for byte, report_json the indented json.dumps that
VerificationReport.to_json matches byte for byte, and constancy_names the
per-check f-strings that homogeneity.constancy_check's names match.
inequality_sides is the naive two-sided evaluation of the scalar inequality
that the witness search's cancellation-free gap is compared against, and
DEFAULT_CURVE_SAMPLES the symbol-curve sampling of the winding oracles.
count_below is the Sturm count that tests every pivot for zero before it
divides, which shifts._count_below matches count for count.
adjoint_resolvent_recurrence is the back-substitution over every row that
shifts.adjoint_resolvent_solve starts at the support of its right-hand side,
exact_commutator_diagonal the whole-length expression that
shifts.exact_commutator_diagonal evaluates block by block, and
full_finite_trace the unwindowed sum of traceforms' banded commutator
diagonal, which must vanish.
"""
import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from hyposhift import shifts, traceforms
from hyposhift.errors import HyposhiftError, NotAContraction, SpectrumHit, TooCloseToCurve
from hyposhift.mobius import CONTRACTION_TOL, MobiusMap
from hyposhift.shifts import KIND_RATIONAL, band
from hyposhift.traceforms import BivariatePolynomial


class NonHermitianInput(HyposhiftError):
    pass


class NotPSD(HyposhiftError):
    pass


class SeriesDivergent(HyposhiftError):
    pass


class SingularInput(HyposhiftError):
    pass


class SingularResolvent(HyposhiftError):
    """A dense solve whose matrix is numerically singular (see SINGULAR_CUTOFF)."""


class ZeroCenter(HyposhiftError):
    pass


# Singularity cutoff of the dense solves: s_min <= SINGULAR_CUTOFF * s_max.
SINGULAR_CUTOFF = 1e-13
HERMITIAN_TOL = 1e-12
RANK_TOL = 1e-8
LOGSERIES_TERM_TOL = 1e-16
LOGSERIES_MAX_TERMS = 200
PSD_CLIP = 1e-12
DEFAULT_CURVE_SAMPLES = 4096
# winding_number refuses a point within this many largest curve gaps of the curve
CURVE_MARGIN_FACTOR = 10.0


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix and validate finiteness."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """<u, v> = sum_k u_k conj(v_k)."""
    return complex(np.vdot(v, u))


def rank_one(x) -> np.ndarray:
    """Matrix of the operator h -> <h, x> x.  Hermitian PSD with trace ||x||^2."""
    x = np.asarray(x, dtype=np.complex128)
    return np.outer(x, x.conj())


def trace(m: np.ndarray) -> complex:
    return complex(np.trace(m))


def singular_spectrum(m: np.ndarray) -> np.ndarray:
    """Singular values of m in non-increasing order (eigenvalues of (m*m)^{1/2})."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def trace_norm(m: np.ndarray) -> float:
    return float(np.sum(singular_spectrum(m)))


def operator_norm(m: np.ndarray) -> float:
    s = singular_spectrum(m)
    return float(s[0]) if s.size else 0.0


def is_singular(m: np.ndarray) -> bool:
    """Invertibility guard shared by the dense solves.

    Relative to s_max, with an absolute floor: below unit scale a smallest
    singular value under SINGULAR_CUTOFF counts as zero.
    """
    s = singular_spectrum(m)
    return bool(s[-1] <= SINGULAR_CUTOFF * max(float(s[0]), 1.0))


def numerical_rank(m: np.ndarray, tol: float = RANK_TOL) -> int:
    """Number of singular values above tol * s_1 (relative threshold)."""
    s = singular_spectrum(m)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def self_commutator(m: np.ndarray) -> np.ndarray:
    """m*m - mm*.  Hermitian, and traceless for every finite matrix."""
    m = as_matrix(m)
    ma = adjoint(m)
    return ma @ m - m @ ma


def hermitian_deviation(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - adjoint(m)))) if m.size else 0.0


def hermitian_min_eig(m: np.ndarray, tol: float = HERMITIAN_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    The input is symmetrized before the eigensolve; a deviation above tol
    raises NonHermitianInput instead.
    """
    m = as_matrix(m)
    if hermitian_deviation(m) > tol:
        raise NonHermitianInput(
            f"matrix deviates from Hermitian by {hermitian_deviation(m):.3e} > {tol:.1e}"
        )
    sym = (m + adjoint(m)) / 2.0
    return float(np.linalg.eigvalsh(sym)[0])


def materialize(model, n: int) -> np.ndarray:
    """N x N truncation: entry (k+1, k) = w_k, zero elsewhere.  Nilpotent."""
    sub = band(model, n)
    m = np.zeros((n, n), dtype=np.complex128)
    k = np.arange(n - 1)
    m[k + 1, k] = sub
    return m


def weight(model, n: int) -> float:
    """w_n of the weight sequence, one index at a time."""
    if model.kind == KIND_RATIONAL:
        return (n + 1) / (n + model.lam)
    if n < len(model.table):
        return model.table[n]
    return model.limit


def resolvent_solve(m: np.ndarray, lam: complex, v: np.ndarray) -> np.ndarray:
    """Solve (m - lam I) u = v.

    Raises SingularResolvent when lam is numerically in the spectrum
    (smallest singular value of m - lam I below SINGULAR_CUTOFF * s_1).
    """
    m = as_matrix(m)
    v = np.asarray(v, dtype=np.complex128)
    shifted = m - lam * np.eye(m.shape[0])
    s = np.linalg.svd(shifted, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= SINGULAR_CUTOFF * s[0]:
        raise SingularResolvent(f"m - ({lam})I is numerically singular")
    return np.linalg.solve(shifted, v)


def eval_poly_at_operator(p, t: np.ndarray) -> np.ndarray:
    """sum a_{jk} T^j (T*)^k with every T-power to the left of every T*-power."""
    t = as_matrix(t)
    n = t.shape[0]
    ta = adjoint(t)
    t_powers = {0: np.eye(n, dtype=np.complex128)}
    ta_powers = {0: np.eye(n, dtype=np.complex128)}

    def power(cache, base, k):
        if k not in cache:
            cache[k] = power(cache, base, k - 1) @ base
        return cache[k]

    out = np.zeros((n, n), dtype=np.complex128)
    for (j, k), c in p.coeffs:
        out += c * (power(t_powers, t, j) @ power(ta_powers, ta, k))
    return out


def commutator_diagonal(p, q, model, n: int) -> np.ndarray:
    """Diagonal of [p(T_n, T_n*), q(T_n, T_n*)] from dense matrix products."""
    t = materialize(model, n)
    pm = eval_poly_at_operator(p, t)
    qm = eval_poly_at_operator(q, t)
    return np.diagonal(pm @ qm - qm @ pm)


def full_finite_trace(p, q, model, n: int) -> complex:
    """Unwindowed trace of the banded kernel's finite commutator diagonal:
    identically 0, since the finite commutator is traceless."""
    return complex(np.sum(traceforms._commutator_diagonal(p, q, model, n)))


def adjoint_resolvent_solve(model, w: complex, x: np.ndarray) -> np.ndarray:
    t = materialize(model, len(x))
    return resolvent_solve(adjoint(t), np.conj(w), x)


def adjoint_resolvent_svals(model, w: complex, n: int) -> np.ndarray:
    """Singular values of T_n* - conj(w), non-increasing."""
    t = materialize(model, n)
    return np.linalg.svd(adjoint(t) - np.conj(w) * np.eye(n), compute_uv=False)


def determining_det(model, x: np.ndarray, z: complex, w: complex) -> complex:
    return 1.0 - inner(adjoint_resolvent_solve(model, w, x), adjoint_resolvent_solve(model, z, x))


@dataclass(frozen=True)
class CartesianPair:
    """T = A + iB with Hermitian A, B and a PSD self-commutator model D."""

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray


def cartesian_parts(t: np.ndarray, d: np.ndarray) -> CartesianPair:
    """Split T into A = (T + T*)/2, B = (T - T*)/(2i) and attach the PSD model D.

    Validates that D is Hermitian PSD and that 2i[A, B] reproduces the finite
    self-commutator of T (an exact algebraic identity).
    """
    t = as_matrix(t)
    d = as_matrix(d)
    if hermitian_deviation(d) > HERMITIAN_TOL:
        raise NotPSD("D is not Hermitian")
    if np.linalg.eigvalsh((d + adjoint(d)) / 2.0)[0] < -PSD_CLIP:
        raise NotPSD("D has a negative eigenvalue")
    a = (t + adjoint(t)) / 2.0
    b = (t - adjoint(t)) / 2j
    comm = 2j * (a @ b - b @ a)
    finite = self_commutator(t)
    scale = max(1.0, float(np.max(np.abs(finite))))
    if np.max(np.abs(comm - finite)) > 1e-12 * scale:
        raise AssertionError("2i[A, B] failed to reproduce T*T - TT*")
    return CartesianPair(a=a, b=b, d=d)


def det_eigenproduct(k: np.ndarray) -> complex:
    """prod_j (1 + lambda_j(K)) over all eigenvalues of K; 1 for K = 0."""
    return complex(np.prod(1.0 + np.linalg.eigvals(as_matrix(k))))


def det_logseries(k: np.ndarray) -> complex:
    """exp(tr log(I + K)) via log(I+K) = -sum (-1)^n K^n / n, valid for ||K||_1 < 1.

    Stops when the current term's trace norm drops below 1e-16 or after 200
    terms; the tail is geometric in ||K||_1.
    """
    k = as_matrix(k)
    tn = trace_norm(k)
    if tn >= 1.0:
        raise SeriesDivergent(f"||K||_1 = {tn} >= 1, log series diverges")
    power = k.copy()
    log_trace = 0.0 + 0.0j
    for n in range(1, LOGSERIES_MAX_TERMS + 1):
        log_trace += (-1.0) ** (n + 1) * trace(power) / n
        if trace_norm(power) < LOGSERIES_TERM_TOL:
            break
        power = power @ k
    return complex(np.exp(log_trace))


def _psd_sqrt(d: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((d + adjoint(d)) / 2.0)
    if vals[0] < -PSD_CLIP:
        raise NotPSD(f"smallest eigenvalue {vals[0]} below -{PSD_CLIP}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ adjoint(vecs)


def determining_function_E(pair: CartesianPair, z: complex, w: complex) -> np.ndarray:
    """E(z, w) = I - 2i D^{1/2} (A - z)^{-1} (B - w)^{-1} D^{1/2}."""
    n = pair.a.shape[0]
    eye = np.eye(n)
    for name, h, point in (("A", pair.a, z), ("B", pair.b, w)):
        if is_singular(h - point * eye):
            raise SpectrumHit(f"{point} is numerically in the spectrum of {name}")
    d_sqrt = _psd_sqrt(pair.d)
    inner_block = np.linalg.solve(pair.b - w * eye, d_sqrt)
    inner_block = np.linalg.solve(pair.a - z * eye, inner_block)
    return eye - 2j * d_sqrt @ inner_block


def determining_function_det(pair: CartesianPair, z: complex, w: complex) -> complex:
    e = determining_function_E(pair, z, w)
    return det_eigenproduct(e - np.eye(e.shape[0]))


def multiplicative_commutator_pitfall(t: np.ndarray, z: complex, w: complex) -> complex:
    """det of (T - z)(T* - conj(w))(T - z)^{-1}(T* - conj(w))^{-1} on a truncation.

    Always 1 for finite matrices by multiplicativity of det.  Kept as a
    tripwire: any pipeline that computes the determining determinant through
    finite products collapses to this constant.
    """
    t = as_matrix(t)
    n = t.shape[0]
    eye = np.eye(n)
    c1 = t - z * eye
    c2 = adjoint(t) - np.conj(w) * eye
    if is_singular(c1) or is_singular(c2):
        raise SingularResolvent("resolvent does not exist on the truncation")
    m = c1 @ c2 @ np.linalg.inv(c1) @ np.linalg.inv(c2)
    return complex(np.linalg.det(m))


def mobius_compose(phi: MobiusMap, psi: MobiusMap) -> MobiusMap:
    """(phi o psi)(z) = phi(psi(z)), via the 2x2 matrix representation."""
    m_phi = np.array([[phi.beta, -phi.beta * phi.a], [-np.conj(phi.a), 1.0]])
    m_psi = np.array([[psi.beta, -psi.beta * psi.a], [-np.conj(psi.a), 1.0]])
    m = m_phi @ m_psi
    a_mat, b_mat, c_mat, d_mat = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    beta = a_mat / d_mat
    beta = beta / abs(beta)
    a = -b_mat / a_mat
    # closure of the group guarantees -conj(a) = c/d up to roundoff
    return MobiusMap(beta=beta, a=a)


def closed_form_selfcommutator(phi: MobiusMap, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Self-commutator of phi(T) when [T*, T] = x (x) x, in closed form.

    Equals |c|^2 ((T - 1/conj(a))(T* - 1/a))^{-1} (x(x)x) ((T* - 1/a)(T - 1/conj(a)))^{-1}
    with c = (a - 1/conj(a)) / conj(a).  Both resolvent products are Hermitian
    (each is the adjoint of itself, not of the other), so the result is
    |c|^2 y z* with two separately solved vectors; it is rank one, and Hermitian
    PSD when x (x) x really is the self-commutator of T.  a = 0 is the affine
    case where the commutator is unchanged; the formula divides by conj(a), so
    that branch raises ZeroCenter.
    """
    t = as_matrix(t)
    x = np.asarray(x, dtype=np.complex128)
    a = phi.a
    if a == 0:
        raise ZeroCenter("a = 0 is affine: the self-commutator equals [T*, T]")
    a_bar_inv = 1.0 / np.conj(a)
    c = (a - a_bar_inv) / np.conj(a)
    n = t.shape[0]
    eye = np.eye(n)
    left = (t - a_bar_inv * eye) @ (adjoint(t) - (1.0 / a) * eye)
    right = (adjoint(t) - (1.0 / a) * eye) @ (t - a_bar_inv * eye)
    y = np.linalg.solve(left, x)
    z = np.linalg.solve(right, x)  # right factor is Hermitian: (M^{-1})* x = M^{-1} x
    return abs(c) ** 2 * np.outer(y, z.conj())


def inverse_commutator_rank_one(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[(T*)^{-1}, T^{-1}] when [T*, T] = x (x) x: equals (TT*)^{-1}(x(x)x)(T*T)^{-1}."""
    t = as_matrix(t)
    x = np.asarray(x, dtype=np.complex128)
    if is_singular(t):
        raise SingularInput("T is numerically singular")
    ta = adjoint(t)
    y = np.linalg.solve(t @ ta, x)  # (TT*)^{-1} x
    z = np.linalg.solve(ta @ t, x)  # (T*T)^{-1} x
    return np.outer(y, z.conj())


def apply_to_operator(phi, t: np.ndarray) -> np.ndarray:
    """beta (T - aI)(I - conj(a) T)^{-1} by a dense solve; requires ||T|| <= 1 (up to tolerance)."""
    t = as_matrix(t)
    norm = operator_norm(t)
    if norm > 1.0 + CONTRACTION_TOL:
        raise NotAContraction(f"||T|| = {norm} exceeds 1")
    n = t.shape[0]
    eye = np.eye(n)
    numer = t - phi.a * eye
    denom = eye - np.conj(phi.a) * t
    # right division: X = numer @ denom^{-1}
    x = np.linalg.solve(denom.T, numer.T).T
    return phi.beta * x


def symbol_curve(model, samples: int) -> np.ndarray:
    """Essential-spectrum circle w_inf * exp(2 pi i k / samples), k = 0..samples-1."""
    if samples < 3:
        raise ValueError(f"need at least 3 samples, got {samples}")
    k = np.arange(samples)
    return model.limit * np.exp(2j * np.pi * k / samples)


def winding_number(curve: np.ndarray, point: complex) -> int:
    """Winding about one point by argument increments arg((next - p) / (curve - p))."""
    curve = np.asarray(curve, dtype=np.complex128)
    gaps = np.abs(np.roll(curve, -1) - curve)
    min_dist = float(np.min(np.abs(curve - point)))
    if min_dist <= CURVE_MARGIN_FACTOR * float(np.max(gaps)):
        raise TooCloseToCurve(
            f"point {point} is {min_dist:.3e} from the curve; need > "
            f"{CURVE_MARGIN_FACTOR * float(np.max(gaps)):.3e}"
        )
    rel = curve - point
    increments = np.angle(np.roll(rel, -1) / rel)
    total = float(np.sum(increments)) / (2.0 * np.pi)
    return int(np.rint(total))


def principal_value_at(model, point: complex) -> int:
    """g(point) = minus the Fredholm index = winding of the symbol curve about the point."""
    return winding_number(symbol_curve(model, DEFAULT_CURVE_SAMPLES), point)


def inequality_sides(c: float, r: float) -> tuple[float, float]:
    """(1 - c/r^2, (1 - 1/r^2)^c), each side evaluated as written."""
    return 1.0 - c / r**2, (1.0 - 1.0 / r**2) ** c


def disc_cauchy_exponential(g, z: complex, w: complex) -> complex:
    """exp(-(1/pi) int_D g / ((zeta - z)(conj(zeta) - conj(w))) dA) summed over every grid node."""
    if abs(z) <= 1.0 or abs(w) <= 1.0:
        raise SpectrumHit("z and w must satisfy |z|, |w| > 1")
    zeta = g.nodes()
    kernel = 1.0 / ((zeta - z) * (np.conj(zeta) - np.conj(w)))
    integral = np.sum(g.values * cell_measure(g) * kernel)
    return complex(np.exp(-integral / np.pi))


def cell_measure(g) -> np.ndarray:
    """r dr dtheta weights of g's midpoint polar grid, shape (n_r, n_theta)."""
    dr = 1.0 / g.n_r
    dth = 2.0 * np.pi / g.n_theta
    return np.broadcast_to(g.radii()[:, None] * dr * dth, (g.n_r, g.n_theta))


@dataclass(frozen=True)
class Polynomial(BivariatePolynomial):
    """A BivariatePolynomial with ring operations, Wirtinger derivatives and evaluation."""

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def deriv_z(self) -> "Polynomial":
        out = {}
        for (j, k), c in self.coeffs:
            if j > 0:
                out[(j - 1, k)] = out.get((j - 1, k), 0) + j * c
        return Polynomial.from_dict(out)

    def deriv_zbar(self) -> "Polynomial":
        out = {}
        for (j, k), c in self.coeffs:
            if k > 0:
                out[(j, k - 1)] = out.get((j, k - 1), 0) + k * c
        return Polynomial.from_dict(out)

    def __add__(self, other: BivariatePolynomial) -> "Polynomial":
        out = self.as_dict()
        for jk, c in other.coeffs:
            out[jk] = out.get(jk, 0) + c
        return Polynomial.from_dict(out)

    def __mul__(self, other):
        if isinstance(other, BivariatePolynomial):
            out = {}
            for (j1, k1), c1 in self.coeffs:
                for (j2, k2), c2 in other.coeffs:
                    jk = (j1 + j2, k1 + k2)
                    out[jk] = out.get(jk, 0) + c1 * c2
            return Polynomial.from_dict(out)
        return Polynomial.from_dict({jk: c * other for jk, c in self.coeffs})

    __rmul__ = __mul__

    def __sub__(self, other: BivariatePolynomial) -> "Polynomial":
        return self + (-1) * Polynomial(other.coeffs)

    def eval(self, z: complex) -> complex:
        zb = np.conj(z)
        return complex(sum(c * z**j * zb**k for (j, k), c in self.coeffs))

    def eval_grid(self, zeta: np.ndarray) -> np.ndarray:
        out = np.zeros_like(zeta, dtype=np.complex128)
        zb = np.conj(zeta)
        for (j, k), c in self.coeffs:
            out += c * zeta**j * zb**k
        return out


def monomial(j: int, k: int, coeff: complex = 1.0) -> Polynomial:
    return Polynomial.from_dict({(j, k): coeff})


def wirtinger_jacobian(p, q) -> Polynomial:
    """J(p, q) = (dp/dzbar)(dq/dz) - (dp/dz)(dq/dzbar), exact symbolic arithmetic."""
    p, q = Polynomial(p.coeffs), Polynomial(q.coeffs)
    return p.deriv_zbar() * q.deriv_z() - p.deriv_z() * q.deriv_zbar()


def helton_howe_area(p, q, g, c: float = 1.0) -> complex:
    """(1/pi) int J(p, q) g dA over the disc of radius c, summed over every node of g's grid.

    The node zeta of g's unit-disc grid stands for c zeta, and its cell for c^2 times its area.
    """
    jac = wirtinger_jacobian(p, q)
    terms = jac.eval_grid(c * g.nodes()) * g.values * (c * c) * cell_measure(g)
    return complex(np.sum(terms) / np.pi)


def write_grid_csv(grid, path: str) -> None:
    """reporting.write_grid_csv row by row through csv.writer, as the byte reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "theta", "re", "im", "g"])
        for i, r in enumerate(grid.radii()):
            for j, th in enumerate(grid.angles()):
                writer.writerow([r, th, r * math.cos(th), r * math.sin(th), grid.values[i, j]])


def write_checks_csv(report, path: str) -> None:
    """reporting.write_checks_csv row by row through csv.writer, as the byte reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "tol", "pass"])
        for c in report.checks:
            writer.writerow(
                [c.name, c.lhs.real, c.lhs.imag, c.rhs.real, c.rhs.imag, c.tolerance, c.passed]
            )


def constancy_names(maps, interior_points, exterior_points) -> list:
    """homogeneity.constancy_check's check names, one f-string per check."""
    names = []
    for phi in maps:
        names += [f"constant index at zeta={zeta}, a={phi.a}" for zeta in interior_points]
        names += [f"zero index outside at zeta={zeta}, a={phi.a}" for zeta in exterior_points]
    return names


def count_below(e2: list, lam: float) -> int:
    """shifts._count_below with a zero test at every pivot: a zero pivot is -_PIVOT_FLOOR."""
    lam = float(lam)
    negative = 1
    q = -lam
    for sq in e2:
        q = -lam - sq / (q if q != 0.0 else -shifts._PIVOT_FLOOR)
        if q < 0.0:
            negative += 1
    return negative - (len(e2) + 1) // 2


def report_json(report) -> str:
    """VerificationReport.to_json through json's indented encoder, as the byte reference."""
    data = {
        "experiment": report.experiment,
        "parameters": report.parameters,
        "checks": [
            {
                "name": c.name,
                "lhs": [c.lhs.real, c.lhs.imag],
                "rhs": [c.rhs.real, c.rhs.imag],
                "tolerance": c.tolerance,
                "pass": c.passed,
            }
            for c in report.checks
        ],
        "all_pass": report.all_pass,
        "runtime_ms": report.runtime_ms,
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def adjoint_resolvent_recurrence(model, w, x) -> np.ndarray:
    """(T_n* - conj(w))^{-1} x by back-substitution over all n rows, behind the guard."""
    x = np.asarray(x, dtype=np.complex128)
    sub = band(model, x.size)
    shifts._resolvent_guard(sub, w)
    diag = -complex(np.conj(w))
    xs = x.tolist()
    ws = sub.tolist()
    acc = xs[-1] / diag
    u = [acc]
    for k in range(x.size - 2, -1, -1):
        acc = (xs[k] - ws[k] * acc) / diag
        u.append(acc)
    return np.array(u[::-1], dtype=np.complex128)


def exact_commutator_diagonal(model, n: int) -> np.ndarray:
    """(w_0^2, w_1^2 - w_0^2, ..., w_{n-1}^2 - w_{n-2}^2) over whole-length arrays."""
    w2 = model.weights(n)
    w2 *= w2
    diag = np.empty(n)
    diag[0] = w2[0]
    np.subtract(w2[1:], w2[:-1], out=diag[1:])
    return diag
