"""Verification records and report serialization (JSON + CSV)."""
from __future__ import annotations

import cmath
import json
import math
import os
import stat
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .errors import DomainError, IoError


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
    _require_finite(name, lhs, rhs)
    if tolerance == 0.0:
        ok = lhs == rhs
    else:
        ok = abs(lhs - rhs) <= tolerance
    return Check(name=name, lhs=lhs, rhs=rhs, tolerance=float(tolerance), passed=bool(ok))


def make_bound_check(name: str, value: float, bound: float, tolerance: float) -> Check:
    """value <= bound + tolerance, recorded with lhs=value, rhs=bound."""
    lhs, rhs = complex(value), complex(bound)
    _require_finite(name, lhs, rhs)
    return Check(
        name=name,
        lhs=lhs,
        rhs=rhs,
        tolerance=float(tolerance),
        passed=bool(value <= bound + tolerance),
    )


def _require_finite(name: str, lhs: complex, rhs: complex) -> None:
    """DomainError unless both parts of both sides are finite: a NaN or an
    overflow is a value the claim cannot be checked on, not a failed check."""
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        raise DomainError(f"{name}: lhs {lhs} and rhs {rhs} must be finite")


@dataclass
class VerificationReport:
    experiment: str
    parameters: dict
    checks: list[Check] = field(default_factory=list)
    runtime_ms: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        """json.dumps(dict, indent=2, sort_keys=True) + "\n", byte for byte, from one
        fixed template per check: their numbers and bools go through json's C
        encoder in one flat list, split at ", " (which no JSON scalar holds)."""
        flat = []
        for c in self.checks:
            flat += (c.lhs.real, c.lhs.imag, None, c.passed, c.rhs.real, c.rhs.imag, c.tolerance)
        flat += (self.all_pass, self.runtime_ms)
        cells = json.dumps(flat)[1:-1].split(", ")
        cells[2:-2:7] = [encode_basestring_ascii(c.name) for c in self.checks]
        body = ",\n".join([_CHECK] * len(self.checks)) % tuple(cells[:-2])
        checks = "[\n" + body + "\n  ]" if body else "[]"
        params = json.dumps(self.parameters, indent=2, sort_keys=True).replace("\n", "\n  ")
        return (
            f'{{\n  "all_pass": {cells[-2]},\n  "checks": {checks},\n'
            f'  "experiment": {encode_basestring_ascii(self.experiment)},\n'
            f'  "parameters": {params},\n  "runtime_ms": {cells[-1]}\n}}\n'
        )


_CHECK = """\
    {
      "lhs": [
        %s,
        %s
      ],
      "name": %s,
      "pass": %s,
      "rhs": [
        %s,
        %s
      ],
      "tolerance": %s
    }"""


def _write_text(path: str, text: str, newline: str | None, what: str) -> None:
    """Overwrite path in place and cut a regular file to the new length: unlike
    open(path, "w"), no truncation to zero first, and /dev/null or a pipe work."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", newline=newline) as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise IoError(f"cannot write {what} to {path}: {exc}") from exc


def write_report(report: VerificationReport, path: str) -> None:
    _write_text(path, report.to_json(), None, "report")


def write_checks_csv(report: VerificationReport, path: str) -> None:
    """Dump the checks as rows name, lhs_re, lhs_im, rhs_re, rhs_im, tol, pass:
    csv.writer's text for the same rows (QUOTE_MINIMAL names, repr of each float,
    str of the bool, CRLF line ends), one f-string per row.  A NUL in a name is
    written raw on every Python, as csv.writer does from 3.11 on."""
    lines = ["name,lhs_re,lhs_im,rhs_re,rhs_im,tol,pass\r\n"]
    lines.extend(
        f"{_csv_field(c.name)},{c.lhs.real!r},{c.lhs.imag!r},{c.rhs.real!r},{c.rhs.imag!r},"
        f"{c.tolerance!r},{c.passed}\r\n"
        for c in report.checks
    )
    _write_text(path, "".join(lines), "", "CSV")


def _csv_field(text: str) -> str:
    """text as csv's QUOTE_MINIMAL writes it: quoted, its quotes doubled, when
    it holds a comma, a quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_grid_csv(grid, path: str) -> None:
    """Dump a GridFunction as rows r, theta, re, im, g (one row per node; each
    ring's g is formatted once).

    The text is what csv.writer makes of the same rows (repr of each float,
    CRLF line ends), built in one string and written at once.
    """
    angles = grid.angles().tolist()
    cos = [math.cos(th) for th in angles]
    sin = [math.sin(th) for th in angles]
    thetas = [repr(th) for th in angles]
    lines = ["r,theta,re,im,g\r\n"]
    for r, g in zip(grid.radii().tolist(), grid.values.tolist()):
        head, tail = repr(r), repr(g)
        lines.extend(
            f"{head},{th},{r * c!r},{r * s!r},{tail}\r\n" for th, c, s in zip(thetas, cos, sin)
        )
    _write_text(path, "".join(lines), "", "grid CSV")
