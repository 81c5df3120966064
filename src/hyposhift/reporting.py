"""Verification records and report serialization (JSON + CSV)."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

from .errors import IoError


@dataclass(frozen=True)
class Check:
    """One verified identity: |lhs - rhs| <= tolerance (or exact equality at 0)."""

    name: str
    lhs: complex
    rhs: complex
    tolerance: float
    passed: bool


def make_check(name: str, lhs: complex, rhs: complex, tolerance: float) -> Check:
    lhs = complex(lhs)
    rhs = complex(rhs)
    if tolerance == 0.0:
        ok = lhs == rhs
    else:
        ok = abs(lhs - rhs) <= tolerance
    return Check(name=name, lhs=lhs, rhs=rhs, tolerance=float(tolerance), passed=bool(ok))


def make_bound_check(name: str, value: float, bound: float, tolerance: float) -> Check:
    """value <= bound + tolerance, recorded with lhs=value, rhs=bound."""
    return Check(
        name=name,
        lhs=complex(value),
        rhs=complex(bound),
        tolerance=float(tolerance),
        passed=bool(value <= bound + tolerance),
    )


@dataclass
class VerificationReport:
    experiment: str
    parameters: dict
    checks: list[Check] = field(default_factory=list)
    runtime_ms: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "checks": [
                {
                    "name": c.name,
                    "lhs": [c.lhs.real, c.lhs.imag],
                    "rhs": [c.rhs.real, c.rhs.imag],
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "all_pass": self.all_pass,
            "runtime_ms": self.runtime_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def write_report(report: VerificationReport, path: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(report.to_json())
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from exc


def write_checks_csv(report: VerificationReport, path: str) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "tol", "pass"])
            for c in report.checks:
                writer.writerow(
                    [c.name, c.lhs.real, c.lhs.imag, c.rhs.real, c.rhs.imag, c.tolerance, c.passed]
                )
    except OSError as exc:
        raise IoError(f"cannot write CSV to {path}: {exc}") from exc


def write_grid_csv(grid, path: str) -> None:
    """Dump a GridFunction as rows r, theta, re, im, g (one row per node).

    The text is what csv.writer makes of the same rows (repr of each float,
    CRLF line ends), built in one string and written at once.
    """
    angles = grid.angles().tolist()
    cos = [math.cos(th) for th in angles]
    sin = [math.sin(th) for th in angles]
    thetas = [repr(th) for th in angles]
    lines = ["r,theta,re,im,g\r\n"]
    for r, row in zip(grid.radii().tolist(), grid.values.tolist()):
        head = repr(r)
        lines.extend(
            f"{head},{th},{r * c!r},{r * s!r},{g!r}\r\n"
            for th, c, s, g in zip(thetas, cos, sin, row)
        )
    text = "".join(lines)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write grid CSV to {path}: {exc}") from exc
