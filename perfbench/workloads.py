"""Seeded workload generators.

Each workload is a list of operations run in order, one pass at a time, by a
single closed-loop client.  An operation is one config run or one direct
library call.  The program sees only ``Op.payload`` (a config's JSON text or
call arguments); ``Op.reference`` holds what the benchmark checks the result
against.  This module uses the standard library only, so the parent process
can import it without paying for numpy.

Why these workloads (see README.md for the predicted effect of each layer):

* ``bundled_configs``: the eight shipped configs, parsed, run and written as
  JSON + CSV.  The real traffic; the only workload where ``cli`` and
  ``reporting`` do measurable work.
* ``truncation_scale``: the truncation axis N in {256, 512, 1024}; few large
  dense calls, so the dense layers (``linalg``, ``determinants``,
  ``traceforms``, Moebius operator action, ``shifts``) do nearly all the work.
* ``index_geometry``: index / winding experiments, the principal-value grid
  and disc quadrature; no dense linear algebra at all, so structured dense
  paths should leave it unchanged.
"""
from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

NAMES = ("bundled_configs", "truncation_scale", "index_geometry")
SCALES = ("full", "smoke")

# Percentile reported as op_tail_ms.  Fixed, so the metric keeps its meaning
# between commits.  On every workload it falls inside the slowest group of
# operations rather than on a boundary between groups, and a full-length run
# leaves at least ten samples beyond it.
TAIL_QUANTILE = 0.90

CURVE_SAMPLES = 4096  # symbol-curve samples used by constancy / change-of-variable
CURVE_MARGIN_FACTOR = 10.0  # the library's winding margin: 10 x max curve gap
MARGIN_SAFETY = 1.5  # keep generated points well clear of the margin
MAX_CENTER = 0.8  # |a| bound for seeded Moebius centers

# The eight default disc automorphisms (beta_arg, a) of the library's
# constancy experiment, written out so the payload is explicit.
DEFAULT_MAPS = tuple(
    (beta_arg, a)
    for beta_arg in (0.0, math.pi / 7)
    for a in (0j, 0.3 + 0j, 0.5 * cmath.exp(1j * math.pi / 4), 0.7j)
)


@dataclass(frozen=True)
class Op:
    label: str
    kind: str  # "config", "grid", "mobius_window", "commutator_diagonal", "disc_cauchy"
    payload: dict
    reference: dict


def pair(z: complex) -> list:
    return [z.real, z.imag]


def unpair(p) -> complex:
    return complex(p[0], p[1])


def _outside_point(rng: random.Random) -> complex:
    """|z| in [1.5, 4], strictly outside the closed unit disc."""
    z = cmath.rect(rng.uniform(1.5, 4.0), rng.uniform(-math.pi, math.pi))
    if not abs(z) > 1.0:
        raise ValueError(f"generated point {z} is not outside the unit disc")
    return z


def _center(rng: random.Random) -> complex:
    a = cmath.rect(rng.uniform(0.0, MAX_CENTER), rng.uniform(-math.pi, math.pi))
    if not abs(a) < 1.0:
        raise ValueError(f"generated Moebius center {a} is not inside the unit disc")
    return a


def _curve_margin(a: complex, samples: int = CURVE_SAMPLES) -> float:
    """Upper bound on the library's margin for the curve phi(circle), |phi'| <= (1+|a|)/(1-|a|)."""
    stretch = (1.0 + abs(a)) / (1.0 - abs(a))
    return CURVE_MARGIN_FACTOR * stretch * 2.0 * math.pi / samples * MARGIN_SAFETY


def _mobius_inverse(beta_arg: float, a: complex, w: complex) -> complex:
    beta = cmath.exp(1j * beta_arg)
    return (w + a * beta) / (beta + a.conjugate() * w)


def _winding_safe(zeta: complex, beta_arg: float, a: complex) -> bool:
    """zeta clears the mapped curve, and its pull-back clears the symbol curve.

    Every model here has essential circle |z| = 1, and a disc automorphism maps
    that circle onto itself, so distances to either curve are | 1 - |.| |.
    """
    if abs(1.0 - abs(zeta)) <= _curve_margin(a):
        return False
    back = _mobius_inverse(beta_arg, a, zeta)
    return abs(1.0 - abs(back)) > _curve_margin(0j)


def _points(rng, count, beta_arg, a, inside: bool) -> list:
    out = []
    while len(out) < count:
        r = rng.uniform(0.0, 0.95) if inside else rng.uniform(1.05, 3.0)
        zeta = cmath.rect(r, rng.uniform(-math.pi, math.pi))
        if _winding_safe(zeta, beta_arg, a):
            out.append(zeta)
    return out


def _config_op(label: str, config: dict) -> Op:
    return Op(label, "config", {"config": json.dumps(config, sort_keys=True)}, {})


def bundled_configs(rng: random.Random, scale: str, config_dir: Path) -> list[Op]:
    paths = sorted(config_dir.glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no bundled configs under {config_dir}")
    ops = [Op(p.stem, "config", {"config": p.read_text()}, {}) for p in paths]
    rng.shuffle(ops)
    return ops


# Helton-Howe pairs: the three acceptance pairs (value, tolerance) and one
# degree-4 pair, each as (p rows, q rows) of [j, k] exponents for z^j conj(z)^k.
HELTON_HOWE_PAIRS = (
    ("zbar,z", (0, 1), (1, 0), 1e-6),
    ("zbar,z2", (0, 1), (2, 0), 1e-10),
    ("zbar2,z2", (0, 2), (2, 0), 1e-3),
    ("zbar4,z4", (0, 4), (4, 0), 1e-3),
)


def truncation_scale(rng: random.Random, scale: str, config_dir: Path) -> list[Op]:
    sizes = (256, 512, 1024) if scale == "full" else (64,)
    unilateral = {"kind": "unilateral"}
    ops = []
    for n in sizes:
        # one point each: a points list [z, w] would cost pincus-check three
        # determinants, (z, z), (z, w) and (w, w), and double the pass time
        z, w = _outside_point(rng), _outside_point(rng)
        ops.append(_config_op(f"pincus-check/N={n}", {
            "experiment": "pincus-check", "model": unilateral, "points": [pair(z)],
            "truncation": n, "grid": {"n_r": 400, "n_theta": 400},
        }))
        ops.append(_config_op(f"resolvent-probe/N={n}", {
            "experiment": "resolvent-probe", "model": unilateral, "points": [pair(w)],
            "truncation": n,
        }))
        for name, (pj, pk), (qj, qk), tol in HELTON_HOWE_PAIRS:
            # unimodular phases keep the acceptance tolerances meaningful
            cp = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            cq = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            ops.append(_config_op(f"helton-howe[{name}]/N={n}", {
                "experiment": "helton-howe", "model": unilateral,
                "p": [[pj, pk, cp.real, cp.imag]], "q": [[qj, qk, cq.real, cq.imag]],
                "truncation": n, "grid": {"n_r": 400, "n_theta": 400}, "tolerance": tol,
            }))
        lam = round(rng.uniform(1.5, 5.0), 6)
        ops.append(_config_op(f"t-lambda-trace/N={n}", {
            "experiment": "t-lambda-trace", "model": {"kind": "rational", "lambda": lam},
            "truncation": n,
        }))
        # internal dimension N/4 keeps the Moebius action from dominating the
        # pass; the window is its leading half, where the truncation corner
        # defect (|a|^(dim - window) <= 0.7^64) is invisible
        dim = max(n // 4, 128)
        for beta_arg, a in DEFAULT_MAPS:
            ops.append(Op(
                f"mobius-window[a={a:.3g}]/dim={dim}", "mobius_window",
                {"beta_arg": beta_arg, "a": pair(a), "dim": dim, "window": dim // 2},
                {"tolerance": 1e-6},
            ))
    lam = round(rng.uniform(1.5, 5.0), 6)
    n_diag = 10**6 if scale == "full" else 10**4
    ops.append(Op(
        f"exact-commutator-diagonal/N={n_diag}", "commutator_diagonal",
        {"lambda": lam, "n": n_diag}, {"tolerance": 1e-12},
    ))
    return ops


def index_geometry(rng: random.Random, scale: str, config_dir: Path) -> list[Op]:
    lam = round(rng.uniform(1.5, 5.0), 6)
    models = ({"kind": "unilateral"}, {"kind": "rational", "lambda": lam})
    ops = []
    for model in models:
        for _ in range(2):
            beta_arg, a = rng.uniform(-math.pi, math.pi), _center(rng)
            mobius = {"beta_arg": beta_arg, "a": pair(a)}
            interior = _points(rng, 12, beta_arg, a, inside=True)
            ops.append(_config_op(f"constancy[{model['kind']}]", {
                "experiment": "constancy", "model": model, "mobius": mobius,
                "points": [pair(p) for p in interior],
            }))
            mixed = _points(rng, 8, beta_arg, a, True) + _points(rng, 4, beta_arg, a, False)
            ops.append(_config_op(f"change-of-variable[{model['kind']}]", {
                "experiment": "change-of-variable", "model": model, "mobius": mobius,
                "points": [pair(p) for p in mixed],
            }))
    grid_args = [] if scale == "full" else ["--n-r", "8", "--n-theta", "16", "--samples", "2048"]
    for extra in ([], ["--model-lambda", repr(lam)]):
        argv = ["grid", "--experiment", "pincus-check"] + grid_args + extra
        label = "grid[rational]" if extra else "grid[unilateral]"
        ops.append(Op(label, "grid", {"argv": argv}, {"g": 1.0}))
    for n in (400, 1000) if scale == "full" else (100,):
        z, w = _outside_point(rng), _outside_point(rng)
        ops.append(Op(
            f"disc-cauchy-exponential/{n}x{n}", "disc_cauchy",
            {"n": n, "z": pair(z), "w": pair(w)}, {"tolerance": 5e-3},
        ))
    c_values = sorted(round(rng.uniform(0.1, 0.99), 6) for _ in range(6)) + [1.0]
    ops.append(_config_op("theorem-inequality", {
        "experiment": "theorem-inequality", "c_values": c_values,
    }))
    return ops


GENERATORS = {
    "bundled_configs": bundled_configs,
    "truncation_scale": truncation_scale,
    "index_geometry": index_geometry,
}


def build(workload: str, seed: int, scale: str, config_dir: Path) -> list[Op]:
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(NAMES)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, scale, config_dir)


def input_hash(ops: list[Op]) -> str:
    """sha256 of every payload and reference, so two runs can show identical inputs."""
    blob = json.dumps([asdict(op) for op in ops], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
