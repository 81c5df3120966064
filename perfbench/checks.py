"""Reference cross-checks computed by the benchmark itself.

A passing report is necessary but not sufficient: each operation's output is
also compared with a value the benchmark derives independently of the
library (closed forms, exact integrals, known indices).  Every function here
returns a list of problems; an empty list means the operation is correct.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np

from workloads import unpair

DET_TOL = 1e-12  # determinant against 1 - 1/(z conj(w))
TRACE_TOL = 1e-12  # rational partial trace against (N/(N-1+lam))^2
VECTOR_NORM_TOL = 1e-12  # rank-one resolvent vector against 1/|w|
BSP_TOL = 1e-12  # Berger-Shaw / Putnam values against 1 for the shift
DEFAULT_HH_TOL = 1e-3


def _close(label: str, got: complex, want: complex, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: got {got}, reference {want}, |diff| {abs(got - want):.3e} > {tol:g}"]


def _lhs(check: dict) -> complex:
    return complex(check["lhs"][0], check["lhs"][1])


def _named(checks: list[dict], prefix: str) -> list[dict]:
    return [c for c in checks if c["name"].startswith(prefix)]


def _expect_count(label: str, found: list, expected: int) -> list[str]:
    if len(found) == expected:
        return []
    return [f"{label}: {len(found)} checks, expected {expected}"]


def _shift_index(zeta: complex) -> int:
    """Principal value of every model here: 1 inside the unit circle, 0 outside."""
    return 1 if abs(zeta) < 1.0 else 0


# -- per-experiment references ---------------------------------------------
def _pincus(cfg: dict, checks: list[dict]) -> list[str]:
    points = [unpair(p) for p in cfg.get("points", [[2, 0], [3, 0]])]
    pairs = [(z, w) for i, z in enumerate(points) for w in points[i:]]
    dets = _named(checks, "determinant vs closed form")
    problems = _expect_count("determinant", dets, len(pairs))
    for (z, w), check in zip(pairs, dets):
        problems += _close(f"det({z}, {w})", _lhs(check), 1.0 - 1.0 / (z * w.conjugate()), DET_TOL)
    return problems


def _poly(rows) -> dict:
    out = {}
    for j, k, re, im in rows:
        out[(int(j), int(k))] = out.get((int(j), int(k)), 0) + complex(re, im)
    return out


def _mul(p: dict, q: dict) -> dict:
    out = {}
    for (j1, k1), c1 in p.items():
        for (j2, k2), c2 in q.items():
            out[(j1 + j2, k1 + k2)] = out.get((j1 + j2, k1 + k2), 0) + c1 * c2
    return out


def _deriv(p: dict, var: int) -> dict:
    out = {}
    for jk, c in p.items():
        if jk[var] > 0:
            lower = (jk[0] - 1, jk[1]) if var == 0 else (jk[0], jk[1] - 1)
            out[lower] = out.get(lower, 0) + jk[var] * c
    return out


def helton_howe_reference(p_rows, q_rows) -> complex:
    """(1/pi) int_D J(p, q) dA for g = 1 on the unit disc, exactly.

    J = p_zbar q_z - p_z q_zbar; (1/pi) int_D z^m conj(z)^n dA = [m = n] / (m + 1).
    """
    p, q = _poly(p_rows), _poly(q_rows)
    jac = _mul(_deriv(p, 1), _deriv(q, 0))
    for jk, c in _mul(_deriv(p, 0), _deriv(q, 1)).items():
        jac[jk] = jac.get(jk, 0) - c
    return sum((c / (m + 1) for (m, n), c in jac.items() if m == n), 0j)


def _helton_howe(cfg: dict, checks: list[dict]) -> list[str]:
    problems = _expect_count("trace formula", checks, 1)
    want = helton_howe_reference(cfg["p"], cfg["q"])
    tol = cfg.get("tolerance", DEFAULT_HH_TOL)
    for check in checks:
        problems += _close("windowed trace", _lhs(check), want, tol)
    return problems


def _t_lambda(cfg: dict, checks: list[dict]) -> list[str]:
    n, lam = cfg.get("truncation", 256), cfg["model"]["lambda"]
    problems = _expect_count("partial trace", checks, 1)
    for check in checks:
        problems += _close("partial trace", _lhs(check), (n / (n - 1 + lam)) ** 2, TRACE_TOL)
    return problems


def _resolvent(cfg: dict, checks: list[dict]) -> list[str]:
    points = [unpair(p) for p in cfg.get("points", [[2, 0], [10, 0]])]
    norms = _named(checks, "rank-one vector norm")
    problems = _expect_count("vector norm", norms, len(points))
    for w, check in zip(points, norms):
        problems += _close(f"||u|| at w={w}", _lhs(check), 1.0 / abs(w), VECTOR_NORM_TOL)
    return problems


def _constancy(cfg: dict, checks: list[dict]) -> list[str]:
    problems = []
    inside, outside = _named(checks, "constant index"), _named(checks, "zero index outside")
    if "points" in cfg:
        problems += _expect_count("interior index", inside, len(cfg["points"]))
    if not inside or not outside:
        problems.append("constancy report lacks interior or exterior checks")
    for check in inside:
        problems += _close(check["name"], _lhs(check), 1, 0.0)
    for check in outside:
        problems += _close(check["name"], _lhs(check), 0, 0.0)
    return problems


def _change_of_variable(cfg: dict, checks: list[dict]) -> list[str]:
    points = [unpair(p) for p in cfg["points"]]
    problems = _expect_count("index transport", checks, len(points))
    for zeta, check in zip(points, checks):
        problems += _close(f"index at {zeta}", _lhs(check), _shift_index(zeta), 0.0)
    return problems


def _inequality_gap(c: float, r: float) -> float:
    """(1 - c/r^2) - (1 - 1/r^2)^c, without cancellation in either term."""
    return -c / r**2 - math.expm1(c * math.log1p(-1.0 / r**2))


def _theorem_inequality(cfg: dict, checks: list[dict]) -> list[str]:
    c_values = cfg.get("c_values", [])
    witnesses = _named(checks, "witness exists")
    problems = _expect_count("witness", witnesses, sum(1 for c in c_values if c < 1.0))
    for c, check in zip([c for c in c_values if c < 1.0], witnesses):
        r = _lhs(check).real
        if not (r > 1.0 and _inequality_gap(c, r) > 0.0):
            problems.append(f"witness r={r} for c={c} does not violate the inequality")
    return problems


def _berger_shaw_putnam(cfg: dict, checks: list[dict]) -> list[str]:
    problems = _expect_count("bound", checks, 2)
    if cfg.get("model", {}).get("kind", "unilateral") == "unilateral":
        for check in checks:
            problems += _close(check["name"], _lhs(check), 1.0, BSP_TOL)
    return problems


REFERENCES = {
    "pincus-check": _pincus,
    "helton-howe": _helton_howe,
    "t-lambda-trace": _t_lambda,
    "resolvent-probe": _resolvent,
    "constancy": _constancy,
    "change-of-variable": _change_of_variable,
    "theorem-inequality": _theorem_inequality,
    "berger-shaw-putnam": _berger_shaw_putnam,
}


def check_written_report(config_text: str, json_path: str, csv_path: str) -> list[str]:
    """Every check passes in the written JSON, the CSV agrees, and the values match references."""
    cfg = json.loads(config_text)
    with open(json_path) as fh:
        report = json.load(fh)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    checks = report.get("checks", [])
    problems = [f"FAIL {c['name']}" for c in checks if not c["pass"]]
    if not checks:
        problems.append("report has no checks")
    if report.get("all_pass") is not True:
        problems.append("report all_pass is not true")
    if [r["name"] for r in rows] != [c["name"] for c in checks]:
        problems.append("CSV rows do not match the report's checks")
    reference = REFERENCES.get(cfg["experiment"])
    if reference is None:
        problems.append(f"no reference for experiment {cfg['experiment']!r}")
    else:
        problems += reference(cfg, checks)
    return problems


# -- direct library calls ------------------------------------------------------
def check_grid(exit_code: int, csv_path: str, g: float) -> list[str]:
    if exit_code != 0:
        return [f"grid exited with {exit_code}"]
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return ["grid CSV is empty"]
    bad = [r for r in rows if float(r["g"]) != g or math.hypot(float(r["re"]), float(r["im"])) >= 1.0]
    return [f"{len(bad)} of {len(rows)} grid nodes differ from g={g}"] if bad else []


def check_mobius_window(window: np.ndarray, a: complex, size: int, tol: float) -> list[str]:
    """[phi(S)*, phi(S)] is the projection onto ker(S* - conj(a)):
    entry (i, j) = (1 - |a|^2) conj(a)^i a^j."""
    if window.shape != (size, size):
        return [f"window shape {window.shape}, expected {(size, size)}"]
    powers = np.conj(a) ** np.arange(size)
    closed = (1.0 - abs(a) ** 2) * np.outer(powers, powers.conj())
    err = float(np.max(np.abs(window - closed)))
    return [] if err <= tol else [f"window differs from closed form by {err:.3e} > {tol:g}"]


def check_commutator_diagonal(diag: np.ndarray, lam: float, n: int, tol: float) -> list[str]:
    if diag.shape != (n,):
        return [f"diagonal shape {diag.shape}, expected ({n},)"]
    return _close("telescoped trace", complex(np.sum(diag)), (n / (n - 1 + lam)) ** 2, tol)


def check_disc_cauchy(value: complex, z: complex, w: complex, tol: float) -> list[str]:
    return _close("disc quadrature", value, 1.0 - 1.0 / (z * w.conjugate()), tol)
