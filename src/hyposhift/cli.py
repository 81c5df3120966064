"""Batch front-end: JSON experiment configs in, JSON/CSV verification reports out.

Subcommands:
  run  --config PATH --out PATH [--csv PATH]   execute one experiment
  list                                         print the registered experiments
  grid --experiment NAME --out PATH [...]      dump a principal-function grid CSV

Exit codes: 0 every check passed, 1 a check failed, 2 invalid config or
arguments, an output that cannot be written, or an input the library refuses.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HyposhiftError
from .homogeneity import (
    DEFAULT_MAP_GRID,
    change_of_variable_check,
    constancy_check,
    default_interior_points,
    resolvent_probe_check,
    t_lambda_trace_check,
    theorem_inequality_check,
)
from .mobius import MobiusMap
from .principal import GridFunction, constant_grid, disc_indices, pincus_consistency
from .reporting import VerificationReport, write_checks_csv, write_grid_csv, write_report
from .shifts import WeightSequence, rational_family, tabulated, unilateral
from .traceforms import BivariatePolynomial, berger_shaw_putnam_check, helton_howe_check

DEFAULT_TRUNCATION = 256
DEFAULT_GRID = (400, 400)
MIN_TRUNCATION = 8
MIN_GRID = 16
_INTERIOR = tuple(default_interior_points())


@dataclass
class ExperimentConfig:
    """A parsed config: its runner's keyword arguments and the JSON it came from."""

    experiment: str
    args: dict
    raw: dict


def _refuse_unread(spec: dict, reads, where: str, reader: str) -> None:
    for key in spec:
        if key not in reads:
            raise ConfigError(
                f"{where}{key}: {reader} does not read this key; it reads {', '.join(reads)}"
            )


def _number(value, path: str, integer: bool = False):
    """A JSON number as a float, or as an int if integer is set; strings and booleans
    are refused, so "2" or true never reads as a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if integer:
        if int(value) != value:
            raise ConfigError(f"{path}: {value!r} is not an integer")
        return int(value)
    return float(value)


def _items(raw, path: str, parse, what: str) -> list:
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: expected a list of {what}")
    return [parse(x, f"{path}[{i}]") for i, x in enumerate(raw)]


def _complex(pair, path: str) -> complex:
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ConfigError(f"{path}: expected [re, im]")
    return complex(_number(pair[0], f"{path}[0]"), _number(pair[1], f"{path}[1]"))


def _parse_model(spec, path: str) -> WeightSequence:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{path}: expected an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "unilateral":
        _refuse_unread(spec, ("kind",), f"{path}.", "a unilateral model")
        return unilateral()
    if kind == "rational":
        _refuse_unread(spec, ("kind", "lambda"), f"{path}.", "a rational model")
        if "lambda" not in spec:
            raise ConfigError(f"{path}.lambda: required for rational weights")
        return rational_family(_number(spec["lambda"], f"{path}.lambda"))
    if kind == "tabulated":
        _refuse_unread(spec, ("kind", "weights", "limit"), f"{path}.", "a tabulated model")
        for key in ("weights", "limit"):
            if key not in spec:
                raise ConfigError(f"{path}.{key}: required for tabulated weights")
        weights = _items(spec["weights"], f"{path}.weights", _number, "numbers")
        return tabulated(weights, _number(spec["limit"], f"{path}.limit"))
    raise ConfigError(f"{path}.kind: unknown kind {kind!r}")


def _parse_mobius(spec, path: str) -> MobiusMap:
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object")
    _refuse_unread(spec, ("beta_arg", "a"), f"{path}.", path)
    beta = np.exp(1j * _number(spec.get("beta_arg", 0.0), f"{path}.beta_arg"))
    return MobiusMap(beta=beta, a=_complex(spec.get("a", [0.0, 0.0]), f"{path}.a"))


def _parse_poly(raw, path: str) -> BivariatePolynomial:
    """Coefficient triples [j, k, re, im] for monomials z^j conj(z)^k."""
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: expected a list of [j, k, re, im] rows")
    coeffs = {}
    for i, row in enumerate(raw):
        if not (isinstance(row, list) and len(row) == 4):
            raise ConfigError(f"{path}[{i}]: expected [j, k, re, im]")
        j, k, re, im = (_number(x, f"{path}[{i}][{m}]", integer=m < 2) for m, x in enumerate(row))
        if j < 0 or k < 0:
            raise ConfigError(f"{path}[{i}]: exponents must be non-negative")
        coeffs[(j, k)] = coeffs.get((j, k), 0) + complex(re, im)
    return BivariatePolynomial.from_dict(coeffs)


def _finite_number(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"config: non-finite number {token} is not allowed")
    return value


# Rejects NaN, Infinity and float literals that overflow.
_DECODER = json.JSONDecoder(parse_constant=_finite_number, parse_float=_finite_number)


def _parse_field(key: str, value):
    if key == "model":
        return _parse_model(value, key)
    if key == "mobius":
        return _parse_mobius(value, key)
    if key == "truncation":
        truncation = _number(value, key, integer=True)
        if truncation < MIN_TRUNCATION:
            raise ConfigError(f"truncation: must be >= {MIN_TRUNCATION}")
        return truncation
    if key == "grid":
        if not isinstance(value, dict):
            raise ConfigError("grid: expected an object with n_r, n_theta")
        _refuse_unread(value, ("n_r", "n_theta"), "grid.", "grid")
        n_r = _number(value.get("n_r", DEFAULT_GRID[0]), "grid.n_r", integer=True)
        n_theta = _number(value.get("n_theta", DEFAULT_GRID[1]), "grid.n_theta", integer=True)
        if n_r < MIN_GRID or n_theta < MIN_GRID:
            raise ConfigError(f"grid: sizes must be >= {MIN_GRID}")
        return n_r, n_theta
    if key in ("p", "q"):
        return _parse_poly(value, key)
    if value == [] and key in ("points", "c_values"):  # it would check nothing, and pass
        raise ConfigError(f"{key}: an empty list checks nothing")
    if key == "points":
        return _items(value, key, _complex, "[re, im] pairs")
    if key == "c_values":
        return _items(value, key, _number, "numbers")
    if key == "area":
        area = _number(value, key)
        if area <= 0:
            raise ConfigError("area: must be positive")
        return area
    tolerance = _number(value, key)  # the one key left: tolerance
    if tolerance < 0:
        raise ConfigError("tolerance: must be non-negative")
    return tolerance


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config's form; a malformed value or an unread key raises
    ConfigError.  The library refuses an input outside a claim's hypotheses when it runs."""
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
    signature = _SIGNATURES[name]
    fields = {key: value for key, value in raw.items() if key != "experiment"}
    _refuse_unread(fields, tuple(signature.parameters), "", name)
    given = {}
    for key, value in fields.items():
        try:
            given[key] = _parse_field(key, value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    missing = [
        key for key, param in signature.parameters.items()
        if param.default is param.empty and key not in given
    ]
    if missing:
        raise ConfigError(f"{'/'.join(missing)}: {name} requires {' and '.join(missing)}")
    bound = signature.bind(**given)
    bound.apply_defaults()
    return ExperimentConfig(experiment=name, args=bound.arguments, raw=raw)


def _run_pincus(
    model=unilateral(), points=(2.0 + 0j, 3.0 + 0j), truncation=DEFAULT_TRUNCATION,
    grid=DEFAULT_GRID,
) -> list:
    """determinantal identity: resolvent determinant = disc integral of g = closed form"""
    return pincus_consistency(model, points, truncation, *grid)


def _run_helton_howe(
    p, q, model=unilateral(), truncation=DEFAULT_TRUNCATION, grid=DEFAULT_GRID, tolerance=1e-3
) -> list:
    """trace of a polynomial commutator vs area integral of the Jacobian against g"""
    return [helton_howe_check(p, q, model, truncation, tolerance, *grid)]


def _run_change_of_variable(model=unilateral(), mobius=MobiusMap(), points=_INTERIOR) -> list:
    """index of the transformed symbol curve vs index at the pulled-back point"""
    return change_of_variable_check(model, mobius, points)


def _run_constancy(model=unilateral(), mobius=None, points=_INTERIOR) -> list:
    """index constant across interior points and disc automorphisms, zero outside"""
    return constancy_check(model, DEFAULT_MAP_GRID if mobius is None else (mobius,), points)


def _run_theorem_inequality(c_values=(0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0)) -> list:
    """(1 - c/r^2) <= (1 - 1/r^2)^c holds only at c = 1; witnesses found for c < 1"""
    return theorem_inequality_check(c_values)


def _run_t_lambda(model, truncation=DEFAULT_TRUNCATION) -> list:
    """rational weight family: commutator trace telescopes to 1"""
    return [t_lambda_trace_check(model, truncation)]


def _run_resolvent_probe(
    model=unilateral(), points=(2.0 + 0j, 10.0 + 0j), truncation=DEFAULT_TRUNCATION
) -> list:
    """resolvent norm of the truncated adjoint vs spectral and distance bounds"""
    return resolvent_probe_check(model, points, truncation)


def _run_berger_shaw_putnam(model=unilateral(), area=None) -> list:
    """commutator trace and norm against the area bounds (Berger-Shaw, Putnam)"""
    return berger_shaw_putnam_check(model, area)


# Each runner's keyword parameters are the config keys its experiment reads,
# with their defaults; its docstring is its line in `hyposhift list`.
EXPERIMENTS = {
    "pincus-check": _run_pincus,
    "helton-howe": _run_helton_howe,
    "change-of-variable": _run_change_of_variable,
    "constancy": _run_constancy,
    "theorem-inequality": _run_theorem_inequality,
    "t-lambda-trace": _run_t_lambda,
    "resolvent-probe": _run_resolvent_probe,
    "berger-shaw-putnam": _run_berger_shaw_putnam,
}
_SIGNATURES = {name: inspect.signature(run) for name, run in EXPERIMENTS.items()}


def run_experiment(cfg: ExperimentConfig) -> VerificationReport:
    runner = EXPERIMENTS[cfg.experiment]
    start = time.perf_counter()
    checks = runner(**cfg.args)
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
    except HyposhiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}")
    return 0 if report.all_pass else 1


def _cmd_list(_args) -> int:
    for name in sorted(EXPERIMENTS):
        print(f"{name:20s} {EXPERIMENTS[name].__doc__}")
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
    # --samples is validated but no longer read: the index is decided in
    # closed form.  It goes with the benchmark argv that passes it (ROADMAP 3(a))
    if args.samples < 3:
        print("config error: --samples must be >= 3", file=sys.stderr)
        return 2
    n_r, n_theta = args.n_r, args.n_theta
    try:
        # g is radial: each ring is decided once, at its radius
        radii = constant_grid(0.0, n_r, n_theta).radii()
        write_grid_csv(GridFunction(n_r, n_theta, disc_indices(radii, 0.0, model.limit)), args.out)
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
    # every node lies strictly inside the unit disc, at distance >= 0.5/n_r from
    # the essential circle of the shift and of the rational family
    p_grid.add_argument("--n-r", dest="n_r", type=int, default=24)
    p_grid.add_argument("--n-theta", dest="n_theta", type=int, default=48)
    p_grid.add_argument(
        "--samples", type=int, default=8192,
        help="ignored (must be >= 3): the index is decided in closed form; "
        "kept for existing scripts until ROADMAP 3(a) removes it",
    )
    p_grid.add_argument(
        "--model-lambda", dest="model_lambda", type=float, default=None,
        help="use the rational weight family with this parameter instead of the shift",
    )
    p_grid.set_defaults(func=_cmd_grid)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on first use and kept: parsing is far cheaper than building."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
