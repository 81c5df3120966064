"""Smoke self-test of the benchmark at tiny sizes (about 30 s).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is reported with its unit, in
the summary schema the run prints, that the seeded generator is
deterministic and keeps inputs in each experiment's domain, and that the
benchmark refuses to run without the package.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(script: Path, workload: str, trace: int, cwd: Path):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_reports_every_named_metric(workload, trace):
    done = run_benchmark(HERE / "run.py", workload, trace, ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]
    assert record["seed"] == 7 and len(record["input_sha256"]) == 64
    assert record["environment"]["nproc"] >= 1


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_generator_is_seeded(workload):
    build = lambda seed: workloads.build(workload, seed, "full", ROOT / "configs")  # noqa: E731
    assert workloads.input_hash(build(1)) == workloads.input_hash(build(1))
    assert workloads.input_hash(build(1)) != workloads.input_hash(build(2))


def test_generated_inputs_respect_each_domain():
    for seed in range(20):
        for workload in ("truncation_scale", "index_geometry"):
            for op in workloads.build(workload, seed, "full", ROOT / "configs"):
                if op.kind == "config":
                    cfg = json.loads(op.payload["config"])
                    if cfg["experiment"] in ("pincus-check", "resolvent-probe"):
                        assert all(abs(workloads.unpair(p)) > 1.0 for p in cfg["points"])
                    if "mobius" in cfg:
                        a = workloads.unpair(cfg["mobius"]["a"])
                        assert abs(a) <= workloads.MAX_CENTER
                        beta_arg = cfg["mobius"]["beta_arg"]
                        assert all(
                            workloads._winding_safe(workloads.unpair(p), beta_arg, a)
                            for p in cfg["points"]
                        )
                elif op.kind == "disc_cauchy":
                    assert abs(workloads.unpair(op.payload["z"])) > 1.0
                    assert abs(workloads.unpair(op.payload["w"])) > 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path / HERE.name / "run.py", "bundled_configs", 0, tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
