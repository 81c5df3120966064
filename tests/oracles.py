"""Direct oracles for the library's structured and batched kernels.

The library computes resolvents, smallest singular values, determining
determinants, tracial forms and the Moebius action on a shift from the weight
band.  Most of these are the direct dense computations on materialize(model, n)
that the property tests compare them against; they are O(n^3) and meant for
small n only.
winding_number is the one-point, division-form winding that the batched
principal.winding_numbers is compared against, and weight the scalar weight
rule that the vectorized WeightSequence.weights is compared against.
"""
import numpy as np

from hyposhift.errors import NoLimitDeclared, NotAContraction, SingularResolvent, TooCloseToCurve
from hyposhift.linalg import SINGULAR_CUTOFF, adjoint, as_matrix, inner, operator_norm
from hyposhift.mobius import CONTRACTION_TOL
from hyposhift.principal import CURVE_MARGIN_FACTOR
from hyposhift.shifts import KIND_RATIONAL, KIND_UNILATERAL, materialize


def weight(model, n: int) -> float:
    """w_n of the weight sequence, one index at a time."""
    if model.kind == KIND_UNILATERAL:
        return 1.0
    if model.kind == KIND_RATIONAL:
        return (n + 1) / (n + model.lam)
    if n < len(model.table):
        return model.table[n]
    if model.limit is None:
        raise NoLimitDeclared(
            f"tabulated sequence of length {len(model.table)} has no declared "
            f"limit; cannot extend to index {n}"
        )
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


def adjoint_resolvent_solve(model, w: complex, x: np.ndarray) -> np.ndarray:
    t = materialize(model, len(x))
    return resolvent_solve(adjoint(t), np.conj(w), x)


def adjoint_resolvent_svals(model, w: complex, n: int) -> np.ndarray:
    """Singular values of T_n* - conj(w), non-increasing."""
    t = materialize(model, n)
    return np.linalg.svd(adjoint(t) - np.conj(w) * np.eye(n), compute_uv=False)


def determining_det(model, x: np.ndarray, z: complex, w: complex) -> complex:
    return 1.0 - inner(adjoint_resolvent_solve(model, w, x), adjoint_resolvent_solve(model, z, x))


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
