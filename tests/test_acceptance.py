"""Acceptance gate: one test per top-level claim, one printed pass/fail line each.

Every numeric target and tolerance here is the contract for the package as a
whole; the per-module suites cover the same ground in finer grain.
"""
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from hyposhift.cli import parse_config, run_experiment
from hyposhift.principal import determining_det
from hyposhift.homogeneity import (
    DEFAULT_MAP_GRID,
    DEFAULT_WITNESS_GRID,
    change_of_variable_check,
    constancy_check,
    default_exterior_points,
    default_interior_points,
    inequality_gap,
    t_lambda_trace_check,
    witness_search,
)
from hyposhift.mobius import transformed_commutator_window
from hyposhift.principal import (
    closed_form_oracle,
    constant_grid,
    disc_cauchy_exponential,
)
from hyposhift.shifts import exact_commutator_diagonal, rational_family, unilateral
from hyposhift.traceforms import berger_shaw_putnam_check, helton_howe_check, tracial_form

from oracles import (
    closed_form_selfcommutator, det_eigenproduct, det_logseries, helton_howe_area,
    inequality_sides, materialize, monomial, multiplicative_commutator_pitfall,
    principal_value_at, rank_one, self_commutator, singular_spectrum, trace, trace_norm,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def report(label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_01_shift_commutator_trace():
    model = unilateral()
    exact = float(np.sum(exact_commutator_diagonal(model, 256)))
    windowed = complex(np.sum(np.diagonal(self_commutator(materialize(model, 256)))[:255]))
    ok = exact == 1.0 and abs(windowed - 1.0) <= 1e-12
    report("criterion 1: shift commutator trace = 1 (exact and windowed N=256)", ok)


def test_criterion_02_determinant_triangle():
    start = time.perf_counter()
    model = unilateral()
    g = constant_grid(1.0, 400, 400)
    ok = True
    for z, w in ((2.0, 2.0), (2.0, 3.0), (2j, 2j)):
        det_val = determining_det(model, basis(256), z, w)
        quad_val = disc_cauchy_exponential(g, z, w)
        oracle = closed_form_oracle(z, w)
        ok &= abs(det_val - oracle) <= 1e-12
        ok &= abs(quad_val - oracle) <= 5e-3
        ok &= abs(det_val - quad_val) <= 5e-3
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(
        f"criterion 2: determinant / quadrature / closed-form triangle ({elapsed:.2f}s)", ok
    )


def basis(n):
    x = np.zeros(n, dtype=np.complex128)
    x[0] = 1.0
    return x


def test_criterion_03_multiplicative_tripwire():
    model = unilateral()
    t = materialize(model, 32)
    ok = True
    for z, w in ((2.0, 3.0), (2j, 2j), (-1.7, 2.5 + 1j)):
        pitfall = multiplicative_commutator_pitfall(t, z, w)
        honest = determining_det(model, basis(32), z, w)
        ok &= abs(pitfall - 1.0) <= 1e-10
        ok &= abs(honest - 1.0) > 1e-2
    report("criterion 3: finite multiplicative determinant collapses to 1", ok)


def test_criterion_04_polynomial_trace_formula():
    model = unilateral()
    g = constant_grid(1.0, 400, 400)
    cases = (
        (monomial(0, 1), monomial(1, 0), 1.0, 1e-6),
        (monomial(0, 1), monomial(2, 0), 0.0, 1e-10),
        (monomial(0, 2), monomial(2, 0), 2.0, 1e-3),
    )
    ok = True
    for p, q, target, tol in cases:
        lhs = tracial_form(p, q, model, 512)
        rhs = helton_howe_area(p, q, g)
        ring = helton_howe_check(p, q, model, 512, tol, 400, 400).rhs
        ok &= abs(lhs - target) <= tol and abs(rhs - target) <= tol
        ok &= abs(ring - rhs) <= 1e-12
    report("criterion 4: Helton-Howe trace formula on three polynomial pairs", ok)


def test_criterion_05_berger_shaw_putnam_equality():
    checks = berger_shaw_putnam_check(unilateral(), np.pi)
    ok = all(c.passed for c in checks)
    ok &= all(abs(c.lhs - 1.0) <= 1e-12 and abs(c.rhs - 1.0) <= 1e-12 for c in checks)
    report("criterion 5: Berger-Shaw and Putnam bounds hold with equality 1 <= 1", ok)


def test_criterion_06_mobius_invariance():
    n, internal = 150, 300
    s = materialize(unilateral(), internal)
    x = basis(internal)
    ok = True
    for phi in DEFAULT_MAP_GRID:
        window = transformed_commutator_window(phi, s, n)
        sv = singular_spectrum(window)
        ok &= np.linalg.eigvalsh((window + window.conj().T) / 2.0)[0] >= -1e-9
        ok &= sv[1] / sv[0] <= 1e-6
        if phi.a == 0:
            closed = self_commutator(s)[:n, :n]
        else:
            closed = closed_form_selfcommutator(phi, s, x)[:n, :n]
        ok &= np.linalg.norm(window - closed) <= 1e-6
    report("criterion 6: transformed commutators PSD, rank one, closed form", ok)


def test_criterion_07_principal_function_index():
    interior = default_interior_points()
    exterior = default_exterior_points()
    models = [unilateral()] + [rational_family(lam) for lam in (1.5, 2.0, 5.0)]
    ok = True
    for model in models:
        ok &= all(principal_value_at(model, z) == 1 for z in interior)
        ok &= all(principal_value_at(model, z) == 0 for z in exterior)
    base = unilateral()
    for phi in DEFAULT_MAP_GRID:
        ok &= all(c.passed for c in change_of_variable_check(base, phi, interior))
    ok &= all(c.passed for c in constancy_check(base))
    report("criterion 7: principal function = 1 inside, 0 outside, map-invariant", ok)


def test_criterion_08_inequality_forces_exponent_one():
    ok = True
    for c in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        r = witness_search(c)
        ok &= r is not None
    ok &= inequality_gap(0.5, 2.0)[0] > 8e-3
    ok &= witness_search(1.0) is None
    sides = [inequality_sides(1.0, r) for r in DEFAULT_WITNESS_GRID]
    worst = max(abs(lhs - rhs) for lhs, rhs in sides)
    ok &= worst <= 1e-12
    report("criterion 8: inequality violated for every c < 1, identity at c = 1", ok)


def test_criterion_09_rational_family_trace():
    ok = True
    for lam in (1.5, 2.0, 5.0):
        check = t_lambda_trace_check(rational_family(lam), 10**5)
        ok &= check.passed
    ok &= abs(t_lambda_trace_check(rational_family(2.0), 1000).lhs - 0.998003) <= 1e-6
    report("criterion 9: rational-family commutator trace telescopes to 1", ok)


def test_criterion_10_determinant_calculus():
    rng = np.random.default_rng(20240817)
    ok = True
    for _ in range(100):
        k = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        k *= rng.uniform(0.05, 0.9) / trace_norm(k)
        ok &= abs(det_eigenproduct(k) - det_logseries(k)) <= 1e-10
    for _ in range(20):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        k = -rank_one(x) / (2.0 * np.linalg.norm(x) ** 2)
        ok &= abs(det_eigenproduct(k) - (1.0 + trace(k))) <= 1e-12
    report("criterion 10: eigenproduct and log-series determinants agree", ok)


def test_criterion_11_deterministic_reports():
    ok = True
    for path in sorted(CONFIG_DIR.glob("*.json")):
        text = path.read_text()
        outputs = []
        for _ in range(2):
            rep = run_experiment(parse_config(text))
            outputs.append(re.sub(r'"runtime_ms": [^,\n]+', '"runtime_ms": 0', rep.to_json()))
        ok &= outputs[0] == outputs[1]
        ok &= json.loads(outputs[0])["all_pass"] is True
    report("criterion 11: bundled configs reproduce byte-identical passing reports", ok)
