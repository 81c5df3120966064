"""hyposhift benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/hyposhift`` and
``configs/``.  Each workload runs in its own worker process (worker.py) with
BLAS/OpenMP threads capped at the number of usable cores.  With ``--trace 0``
the result holds the end-to-end metrics; ``setup_s`` is the median wall time
of several fresh interpreters that import hyposhift and build the workload's
inputs.  With ``--trace 1`` it holds the per-layer metrics of a traced run.

Reports, CSVs and spans go under ``.perfbench_out/`` in the checkout.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, seed and input hash.  Exit code 2 means the run could not start
(no package to benchmark, bad arguments) and nothing was measured.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import NAMES, SCALES  # noqa: E402

SETUP_PROBES = 5  # fresh interpreters timed for setup_s, after one discarded probe
DEADLINE_S = 170.0  # the whole run, setup probes included
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_env(cores: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(cores)
    return env


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def environment(cores: int) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        level = _read(f"{cache_dir}/{index}/level")
        kind = _read(f"{cache_dir}/{index}/type")
        size = _read(f"{cache_dir}/{index}/size")
        if level and kind and size:
            caches[f"L{level.strip()}{kind.strip()[0].lower()}"] = size.strip()
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": cores,
        "blas_threads": cores,
        "cpu_model": model,
        "caches": caches,
    }


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="smoke: tiny sizes, for the self-test only")
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (ROOT / "src" / "hyposhift" / "__init__.py").is_file():
        return fail(f"no hyposhift package under {ROOT / 'src'}; nothing to benchmark")
    if not (ROOT / "configs").is_dir():
        return fail(f"no configs directory under {ROOT}")

    cores = usable_cores()
    env = worker_env(cores)
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    worker = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--out-dir", str(out_dir), "--scale", args.scale,
    ]

    setup_times = []
    if not args.trace:
        for probe in range(SETUP_PROBES + 1):
            start = time.perf_counter()
            done = subprocess.run(
                worker + ["--seconds", "0", "--setup-only"], env=env, cwd=ROOT,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60,
            )
            elapsed = time.perf_counter() - start
            if done.returncode != 0:
                return fail(f"setup probe exited with {done.returncode}: {done.stderr.strip()}")
            if probe:  # the first probe also compiles bytecode; discard it
                setup_times.append(elapsed)

    remaining = DEADLINE_S - (time.perf_counter() - started)
    try:
        done = subprocess.run(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:  # run() has already killed and reaped the worker
        return fail(f"worker did not finish within {remaining:.0f} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return fail(f"worker exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    if setup_times:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        detail["setup_probes_s"] = setup_times
    record = {"environment": environment(cores), **detail}
    (out_dir / "record.json").write_text(json.dumps({**record, "result": result}, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
