"""Batch front-end: JSON experiment configs in, JSON/CSV verification reports out.

Subcommands:
  run  --config PATH --out PATH [--csv PATH]   execute one experiment
  list                                         print the registered experiments
  grid --experiment NAME --out PATH [...]      dump a principal-function grid CSV

Exit codes: 0 every check passed, 1 a check failed, 2 invalid config or
arguments, or an output that cannot be written.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, HyposhiftError, IoError
from .homogeneity import (
    DEFAULT_MAP_GRID,
    DEFAULT_WITNESS_GRID,
    PROBE_MIN_MODULUS,
    change_of_variable_check,
    constancy_check,
    default_exterior_points,
    default_interior_points,
    resolvent_norm_probe,
    t_lambda_trace_check,
    theorem_inequality_eval,
    witness_search,
)
from .mobius import MobiusMap
from .principal import GridFunction, constant_grid, pincus_consistency, winding_numbers
from .reporting import (
    VerificationReport,
    make_bound_check,
    make_check,
    write_checks_csv,
    write_grid_csv,
    write_report,
)
from .shifts import WeightSequence, rational_family, symbol_curve, tabulated, unilateral
from .traceforms import BivariatePolynomial, berger_shaw_putnam_check, helton_howe_check

DEFAULT_TRUNCATION = 256
DEFAULT_GRID = (400, 400)
MIN_TRUNCATION = 8
MIN_GRID = 16


@dataclass
class ExperimentConfig:
    experiment: str
    model: WeightSequence = field(default_factory=unilateral)
    mobius: MobiusMap | None = None
    truncation: int = DEFAULT_TRUNCATION
    n_r: int = DEFAULT_GRID[0]
    n_theta: int = DEFAULT_GRID[1]
    points: list = field(default_factory=list)
    p: BivariatePolynomial | None = None
    q: BivariatePolynomial | None = None
    c_values: list = field(default_factory=list)
    area: float | None = None
    tolerance: float | None = None
    raw: dict = field(default_factory=dict)


def _parse_model(spec, path: str) -> WeightSequence:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{path}: expected an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "unilateral":
        return unilateral()
    if kind == "rational":
        if "lambda" not in spec:
            raise ConfigError(f"{path}.lambda: required for rational weights")
        return rational_family(float(spec["lambda"]))
    if kind == "tabulated":
        if "weights" not in spec:
            raise ConfigError(f"{path}.weights: required for tabulated weights")
        return tabulated(spec["weights"], spec.get("limit"))
    raise ConfigError(f"{path}.kind: unknown kind {kind!r}")


def _parse_mobius(spec, path: str) -> MobiusMap:
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object")
    beta = np.exp(1j * float(spec.get("beta_arg", 0.0)))
    a_pair = spec.get("a", [0.0, 0.0])
    if not (isinstance(a_pair, list) and len(a_pair) == 2):
        raise ConfigError(f"{path}.a: expected [re, im]")
    return MobiusMap(beta=beta, a=complex(a_pair[0], a_pair[1]))


def _parse_points(raw, path: str) -> list[complex]:
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: expected a list of [re, im] pairs")
    out = []
    for i, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"{path}[{i}]: expected [re, im]")
        out.append(complex(pair[0], pair[1]))
    return out


def _integer(value) -> int:
    if int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _parse_poly(raw, path: str) -> BivariatePolynomial:
    """Coefficient triples [j, k, re, im] for monomials z^j conj(z)^k."""
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: expected a list of [j, k, re, im] rows")
    coeffs = {}
    for i, row in enumerate(raw):
        if not (isinstance(row, list) and len(row) == 4):
            raise ConfigError(f"{path}[{i}]: expected [j, k, re, im]")
        j, k = _integer(row[0]), _integer(row[1])
        if j < 0 or k < 0:
            raise ConfigError(f"{path}[{i}]: exponents must be non-negative")
        coeffs[(j, k)] = coeffs.get((j, k), 0) + complex(row[2], row[3])
    return BivariatePolynomial.from_dict(coeffs)


def _finite_number(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"config: non-finite number {token} is not allowed")
    return value


# Rejects NaN, Infinity and float literals that overflow.
_DECODER = json.JSONDecoder(parse_constant=_finite_number, parse_float=_finite_number)


# Experiments whose points must lie outside a disc: the quadrature and the
# closed form of pincus-check need |z| > 1, the resolvent probe keeps off the
# spectrum.
_MIN_POINT_MODULUS = {"pincus-check": 1.0, "resolvent-probe": PROBE_MIN_MODULUS}


def _parse_field(cfg: ExperimentConfig, key: str, value) -> None:
    if key == "model":
        cfg.model = _parse_model(value, key)
    elif key == "mobius":
        cfg.mobius = _parse_mobius(value, key)
    elif key == "truncation":
        cfg.truncation = _integer(value)
        if cfg.truncation < MIN_TRUNCATION:
            raise ConfigError(f"truncation: must be >= {MIN_TRUNCATION}")
    elif key == "grid":
        if not isinstance(value, dict):
            raise ConfigError("grid: expected an object with n_r, n_theta")
        cfg.n_r = _integer(value.get("n_r", DEFAULT_GRID[0]))
        cfg.n_theta = _integer(value.get("n_theta", DEFAULT_GRID[1]))
        if cfg.n_r < MIN_GRID or cfg.n_theta < MIN_GRID:
            raise ConfigError(f"grid: sizes must be >= {MIN_GRID}")
    elif key == "points":
        cfg.points = _parse_points(value, key)
    elif key in ("p", "q"):
        setattr(cfg, key, _parse_poly(value, key))
    elif key == "c_values":
        cfg.c_values = [float(c) for c in value]
        if any(not (0.0 < c <= 1.0) for c in cfg.c_values):
            raise ConfigError("c_values: every value must lie in (0, 1]")
    elif key == "area":
        cfg.area = float(value)
        if cfg.area <= 0:
            raise ConfigError("area: must be positive")
    elif key == "tolerance":
        cfg.tolerance = float(value)
        if cfg.tolerance < 0:
            raise ConfigError("tolerance: must be non-negative")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config; every malformed value raises ConfigError."""
    try:
        raw = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    name = raw.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(
            f"experiment: unknown name {name!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    cfg = ExperimentConfig(experiment=name, raw=raw)
    for key, value in raw.items():
        try:
            _parse_field(cfg, key, value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    # experiment-specific requirements
    if name == "t-lambda-trace" and cfg.model.kind != "rational":
        raise ConfigError("model: t-lambda-trace requires rational weights with lambda > 1")
    if name == "helton-howe" and (cfg.p is None or cfg.q is None):
        raise ConfigError("p/q: helton-howe requires both polynomials")
    if name == "berger-shaw-putnam" and cfg.model.limit is None:
        raise ConfigError("model.limit: berger-shaw-putnam requires a declared limit")
    if name in _MIN_POINT_MODULUS:
        bound = _MIN_POINT_MODULUS[name]
        for i, z in enumerate(cfg.points):
            if abs(z) <= bound:
                raise ConfigError(f"points[{i}]: {name} needs |z| > {bound}, got {abs(z)}")
    return cfg


def _run_pincus(cfg: ExperimentConfig) -> list:
    points = cfg.points or [2.0 + 0j, 3.0 + 0j]
    checks = []
    for i, z in enumerate(points):
        for w in points[i:]:
            checks.extend(
                pincus_consistency(
                    cfg.model, z, w, n=cfg.truncation, n_r=cfg.n_r, n_theta=cfg.n_theta
                )
            )
    return checks


def _run_helton_howe(cfg: ExperimentConfig) -> list:
    g = constant_grid(1.0, cfg.n_r, cfg.n_theta)
    tol = cfg.tolerance if cfg.tolerance is not None else 1e-3
    return [helton_howe_check(cfg.p, cfg.q, cfg.model, g, cfg.truncation, tol)]


def _run_change_of_variable(cfg: ExperimentConfig) -> list:
    phi = cfg.mobius if cfg.mobius is not None else MobiusMap()
    points = cfg.points or default_interior_points()
    return change_of_variable_check(cfg.model, phi, points)


def _run_constancy(cfg: ExperimentConfig) -> list:
    maps = (cfg.mobius,) if cfg.mobius is not None else DEFAULT_MAP_GRID
    interior = cfg.points or None
    return constancy_check(cfg.model, maps=maps, interior_points=interior)


def _run_theorem_inequality(cfg: ExperimentConfig) -> list:
    c_values = cfg.c_values or [0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0]
    checks = []
    for c in c_values:
        witness = witness_search(c)
        if c < 1.0:
            ok = witness is not None
            label = f"witness exists for c={c}"
            lhs = witness if witness is not None else -1.0
        else:
            ok = witness is None
            label = "no witness for c=1"
            lhs = witness if witness is not None else 0.0
        checks.append(_bool_check(label, ok, lhs))
        if c == 1.0:
            worst = max(
                abs(theorem_inequality_eval(1.0, r).lhs - theorem_inequality_eval(1.0, r).rhs)
                for r in DEFAULT_WITNESS_GRID
            )
            checks.append(make_bound_check("equality gap at c=1", worst, 0.0, 1e-12))
    return checks


def _bool_check(name: str, ok: bool, value: float):
    from .reporting import Check

    return Check(name=name, lhs=complex(value), rhs=complex(value), tolerance=0.0, passed=ok)


def _run_t_lambda(cfg: ExperimentConfig) -> list:
    return [t_lambda_trace_check(cfg.model.lam, cfg.truncation)]


def _run_resolvent_probe(cfg: ExperimentConfig) -> list:
    model = cfg.model
    points = cfg.points or [2.0 + 0j, 10.0 + 0j]
    checks = []
    for w in points:
        probe = resolvent_norm_probe(model, w, cfg.truncation)
        checks.append(
            make_bound_check(
                f"resolvent norm vs 1/(|w|-1) at w={w}",
                probe.operator_norm,
                probe.distance_bound,
                5e-2,
            )
        )
        checks.append(
            make_bound_check(
                f"rank-one vector norm vs ||x||/|w| at w={w}",
                probe.vector_norm,
                model.weights(1)[0] / abs(w),
                1e-12,
            )
        )
    return checks


def _run_berger_shaw_putnam(cfg: ExperimentConfig) -> list:
    area = cfg.area if cfg.area is not None else math.pi * cfg.model.limit ** 2
    return berger_shaw_putnam_check(cfg.model, area)


EXPERIMENTS = {
    "pincus-check": (
        _run_pincus,
        "determinantal identity: resolvent determinant = disc integral of g = closed form",
    ),
    "helton-howe": (
        _run_helton_howe,
        "trace of a polynomial commutator vs area integral of the Jacobian against g",
    ),
    "change-of-variable": (
        _run_change_of_variable,
        "index of the transformed symbol curve vs index at the pulled-back point",
    ),
    "constancy": (
        _run_constancy,
        "index constant across interior points and disc automorphisms, zero outside",
    ),
    "theorem-inequality": (
        _run_theorem_inequality,
        "(1 - c/r^2) <= (1 - 1/r^2)^c holds only at c = 1; witnesses found for c < 1",
    ),
    "t-lambda-trace": (
        _run_t_lambda,
        "rational weight family: commutator trace telescopes to 1",
    ),
    "resolvent-probe": (
        _run_resolvent_probe,
        "resolvent norm of the truncated adjoint vs spectral and distance bounds",
    ),
    "berger-shaw-putnam": (
        _run_berger_shaw_putnam,
        "commutator trace and norm against the area bounds (Berger-Shaw, Putnam)",
    ),
}


def run_experiment(cfg: ExperimentConfig) -> VerificationReport:
    runner, _ = EXPERIMENTS[cfg.experiment]
    start = time.perf_counter()
    checks = runner(cfg)
    elapsed = (time.perf_counter() - start) * 1000.0
    params = {k: v for k, v in cfg.raw.items() if k != "experiment"}
    return VerificationReport(
        experiment=cfg.experiment, parameters=params, checks=checks, runtime_ms=elapsed
    )


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        report = run_experiment(cfg)
        write_report(report, args.out)
        if args.csv:
            write_checks_csv(report, args.csv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HyposhiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}")
    return 0 if report.all_pass else 1


def _cmd_list(_args) -> int:
    for name in sorted(EXPERIMENTS):
        _, blurb = EXPERIMENTS[name]
        print(f"{name:20s} {blurb}")
    return 0


def _cmd_grid(args) -> int:
    model = unilateral()
    if args.model_lambda is not None:
        try:
            model = rational_family(args.model_lambda)
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    if args.experiment not in EXPERIMENTS:
        print(f"config error: unknown experiment {args.experiment!r}", file=sys.stderr)
        return 2
    if args.n_r < 1 or args.n_theta < 1:
        print("config error: --n-r and --n-theta must be >= 1", file=sys.stderr)
        return 2
    if args.samples < 3:
        print("config error: --samples must be >= 3", file=sys.stderr)
        return 2
    n_r, n_theta = args.n_r, args.n_theta
    try:
        nodes = constant_grid(0.0, n_r, n_theta).nodes()
        values = winding_numbers(symbol_curve(model, args.samples), nodes)
        write_grid_csv(GridFunction(n_r, n_theta, values), args.out)
    except HyposhiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {n_r * n_theta} grid rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyposhift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True, help="path for the JSON report")
    p_run.add_argument("--csv", default=None, help="optional CSV dump of the checks")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list registered experiments")
    p_list.set_defaults(func=_cmd_list)

    p_grid = sub.add_parser("grid", help="dump a principal-function grid as CSV")
    p_grid.add_argument("--experiment", required=True)
    p_grid.add_argument("--out", required=True)
    # defaults keep the outermost ring far enough from the symbol curve for the
    # winding-number margin: distance 0.5/n_r must exceed 10 * 2 pi / samples
    p_grid.add_argument("--n-r", dest="n_r", type=int, default=24)
    p_grid.add_argument("--n-theta", dest="n_theta", type=int, default=48)
    p_grid.add_argument("--samples", type=int, default=8192)
    p_grid.add_argument(
        "--model-lambda", dest="model_lambda", type=float, default=None,
        help="use the rational weight family with this parameter instead of the shift",
    )
    p_grid.set_defaults(func=_cmd_grid)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
