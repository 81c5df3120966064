import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from hyposhift.cli import EXPERIMENTS, main, parse_config, run_experiment
from hyposhift.errors import ConfigError
from hyposhift.reporting import (
    VerificationReport,
    make_bound_check,
    make_check,
    write_checks_csv,
    write_grid_csv,
    write_report,
)
from hyposhift.principal import constant_grid
from hyposhift.shifts import rational_family, symbol_curve, unilateral

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


class TestParseConfig:
    def test_rejects_bad_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_rejects_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown name"):
            parse_config('{"experiment": "nope"}')

    def test_rejects_small_truncation(self):
        with pytest.raises(ConfigError, match="truncation"):
            parse_config('{"experiment": "pincus-check", "truncation": 4}')

    def test_rejects_bad_lambda(self):
        with pytest.raises(ConfigError, match="lam"):
            parse_config(
                '{"experiment": "t-lambda-trace", "model": {"kind": "rational", "lambda": 0.5}}'
            )

    def test_t_lambda_requires_rational(self):
        with pytest.raises(ConfigError, match="rational"):
            parse_config('{"experiment": "t-lambda-trace", "model": {"kind": "unilateral"}}')

    def test_helton_howe_requires_polynomials(self):
        with pytest.raises(ConfigError, match="p/q"):
            parse_config('{"experiment": "helton-howe"}')

    def test_rejects_c_out_of_range(self):
        with pytest.raises(ConfigError, match="c_values"):
            parse_config('{"experiment": "theorem-inequality", "c_values": [1.5]}')

    def test_rejects_bad_point_shape(self):
        with pytest.raises(ConfigError, match="points"):
            parse_config('{"experiment": "pincus-check", "points": [[1.0]]}')

    def test_berger_shaw_putnam_requires_limit(self):
        with pytest.raises(ConfigError, match="limit"):
            parse_config(
                '{"experiment": "berger-shaw-putnam",'
                ' "model": {"kind": "tabulated", "weights": [1, 2]}}'
            )

    def test_parses_full_config(self):
        cfg = parse_config(
            json.dumps(
                {
                    "experiment": "helton-howe",
                    "model": {"kind": "unilateral"},
                    "truncation": 64,
                    "grid": {"n_r": 32, "n_theta": 32},
                    "p": [[0, 1, 1.0, 0.0]],
                    "q": [[1, 0, 1.0, 0.0]],
                    "tolerance": 1e-4,
                }
            )
        )
        assert cfg.truncation == 64
        assert cfg.n_r == 32
        assert cfg.p.as_dict() == {(0, 1): 1.0}

    def test_all_bundled_configs_parse(self):
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert len(paths) == 8
        for path in paths:
            cfg = parse_config(path.read_text())
            assert cfg.experiment in EXPERIMENTS


class TestRunExperiment:
    def test_theorem_inequality_report(self):
        cfg = parse_config('{"experiment": "theorem-inequality", "c_values": [0.5, 1.0]}')
        report = run_experiment(cfg)
        assert report.all_pass
        assert report.experiment == "theorem-inequality"
        assert report.parameters == {"c_values": [0.5, 1.0]}

    def test_berger_shaw_report(self):
        cfg = parse_config('{"experiment": "berger-shaw-putnam"}')
        report = run_experiment(cfg)
        assert report.all_pass
        assert len(report.checks) == 2


class TestReporting:
    def test_make_check_exact_mode(self):
        assert make_check("x", 1, 1, 0.0).passed
        assert not make_check("x", 1, 2, 0.0).passed

    def test_make_bound_check(self):
        assert make_bound_check("b", 1.0, 1.0, 1e-12).passed
        assert not make_bound_check("b", 1.1, 1.0, 1e-12).passed

    def test_json_shape(self, tmp_path):
        report = VerificationReport(
            experiment="demo",
            parameters={"n": 8},
            checks=[make_check("a", 1 + 2j, 1 + 2j, 1e-9)],
            runtime_ms=12.5,
        )
        path = tmp_path / "r.json"
        write_report(report, str(path))
        data = json.loads(path.read_text())
        assert data["all_pass"] is True
        assert data["checks"][0]["lhs"] == [1.0, 2.0]
        assert data["checks"][0]["pass"] is True
        assert data["runtime_ms"] == 12.5

    def test_csv_header(self, tmp_path):
        report = VerificationReport(
            experiment="demo", parameters={}, checks=[make_check("a", 1, 1, 1e-9)]
        )
        path = tmp_path / "r.csv"
        write_checks_csv(report, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "tol", "pass"]
        assert len(rows) == 2

    def test_grid_csv(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grid_csv(constant_grid(1.0, 2, 3), str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "theta", "re", "im", "g"]
        assert len(rows) == 7


class TestMain:
    def run_config(self, tmp_path, payload, csv_out=False):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        out = tmp_path / "out.json"
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
        if csv_out:
            argv += ["--csv", str(tmp_path / "out.csv")]
        return main(argv), out

    def test_run_success(self, tmp_path, capsys):
        code, out = self.run_config(
            tmp_path, {"experiment": "berger-shaw-putnam"}, csv_out=True
        )
        assert code == 0
        assert json.loads(out.read_text())["all_pass"] is True
        assert (tmp_path / "out.csv").exists()
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("[PASS]") for line in lines)

    def test_run_failing_check_exits_one(self, tmp_path, capsys):
        code, out = self.run_config(
            tmp_path, {"experiment": "berger-shaw-putnam", "area": 1.0}
        )
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_run_invalid_config_exits_two(self, tmp_path):
        code, _ = self.run_config(tmp_path, {"experiment": "nope"})
        assert code == 2

    def test_run_missing_file_exits_two(self, tmp_path):
        code = main(
            ["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o.json")]
        )
        assert code == 2

    def test_list_names_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_grid_subcommand(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "grid",
                "--experiment",
                "pincus-check",
                "--out",
                str(out),
                "--n-r",
                "4",
                "--n-theta",
                "8",
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "theta", "re", "im", "g"]
        assert len(rows) == 1 + 4 * 8
        # the whole open disc carries principal value 1
        assert all(row[4] == "1.0" for row in rows[1:])

    def test_grid_bad_lambda_exits_two(self, tmp_path):
        code = main(
            [
                "grid",
                "--experiment",
                "pincus-check",
                "--out",
                str(tmp_path / "g.csv"),
                "--model-lambda",
                "0.5",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "extra, model",
        [
            ([], unilateral()),
            (["--model-lambda", "2.0"], rational_family(2.0)),
        ],
    )
    def test_grid_matches_oracle_loop(self, tmp_path, extra, model):
        out = tmp_path / "grid.csv"
        argv = ["grid", "--experiment", "pincus-check", "--out", str(out)]
        argv += ["--n-r", "3", "--n-theta", "5", "--samples", "1024"] + extra
        assert main(argv) == 0
        with open(out, newline="") as fh:
            values = [float(row[4]) for row in list(csv.reader(fh))[1:]]
        curve = symbol_curve(model, 1024)
        expected = [
            float(oracles.winding_number(curve, r * np.exp(1j * th)))
            for r in (np.arange(3) + 0.5) / 3
            for th in 2.0 * np.pi * (np.arange(5) + 0.5) / 5
        ]
        assert values == expected

    @pytest.mark.parametrize(
        "extra",
        [
            ["--n-r", "0"],
            ["--n-theta", "0"],
            ["--samples", "2"],
            # the default outer ring falls inside the winding margin of 64 samples
            ["--samples", "64"],
        ],
        ids=["n_r_zero", "n_theta_zero", "two_samples", "ring_inside_margin"],
    )
    def test_grid_bad_input_exits_two(self, tmp_path, capsys, extra):
        argv = ["grid", "--experiment", "pincus-check", "--out", str(tmp_path / "g.csv")]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_grid_unwritable_out_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "g.csv"
        argv = ["grid", "--experiment", "pincus-check", "--out", str(out), "--n-r", "2"]
        assert main(argv + ["--n-theta", "4"]) == 2
        assert "cannot write grid CSV" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_run_unwritable_output_exits_two(self, tmp_path, capsys, flag):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"experiment": "berger-shaw-putnam"}')
        outputs = {"--out": str(tmp_path / "r.json"), "--csv": str(tmp_path / "r.csv")}
        outputs[flag] = str(tmp_path / "missing-dir" / "x")
        argv = ["run", "--config", str(cfg_path)]
        for name, path in outputs.items():
            argv += [name, path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "cannot write" in err

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param('"truncation": "abc"', id="truncation_str"),
            pytest.param('"c_values": ["x"]', id="c_value_str"),
            pytest.param('"c_values": 5', id="c_values_scalar"),
            pytest.param('"truncation": 256.5', id="truncation_fraction"),
            pytest.param('"grid": {"n_r": "a"}', id="grid_str"),
            pytest.param('"grid": {"n_r": 32, "n_theta": 32.5}', id="grid_fraction"),
            pytest.param('"p": [["x", 0, 1.0, 0.0]]', id="exponent_str"),
            pytest.param('"p": [[1.5, 0, 1.0, 0.0]]', id="exponent_fraction"),
            pytest.param('"mobius": {"beta_arg": "x"}', id="beta_arg_str"),
            pytest.param('"mobius": {"a": [NaN, 0]}', id="mobius_a_nan"),
            pytest.param('"points": [["x", 0]]', id="point_str"),
            pytest.param('"area": "x"', id="area_str"),
            pytest.param('"area": 1e400', id="area_overflow"),
            pytest.param('"area": 1' + "0" * 400, id="area_int_overflow"),
            pytest.param('"model": {"kind": "rational", "lambda": NaN}', id="lambda_nan"),
            pytest.param('"model": {"kind": "rational", "lambda": Infinity}', id="lambda_inf"),
            pytest.param(
                '"model": {"kind": "tabulated", "weights": "x", "limit": 1}', id="weights_str"
            ),
            pytest.param('"tolerance": -1e-3', id="tolerance_negative"),
            # truncation 256 is not above 4 x the window margin 80 of degree-40 polynomials
            pytest.param('"p": [[0, 40, 1, 0]], "q": [[40, 0, 1, 0]]', id="window_margin"),
            pytest.param(
                '"experiment": "pincus-check", "model": {"kind": "rational", "lambda": 2.0}',
                id="pincus_not_rank_one",
            ),
            pytest.param(
                '"experiment": "pincus-check", "points": [[1.2, 0]],'
                ' "model": {"kind": "tabulated", "weights": [1.5], "limit": 1.5}',
                id="pincus_point_inside_sup",
            ),
            pytest.param(
                '"experiment": "pincus-check",'
                ' "model": {"kind": "tabulated", "weights": [3.0], "limit": 3.0}',
                id="pincus_default_point_inside_sup",
            ),
        ],
    )
    def test_run_malformed_value_exits_two(self, tmp_path, capsys, fields):
        # a valid helton-howe config; a later duplicate key overrides an earlier one
        valid = '"experiment": "helton-howe", "p": [[0, 1, 1.0, 0.0]], "q": [[1, 0, 1.0, 0.0]]'
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{" + valid + ", " + fields + "}")
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "experiment, points, index",
        [
            ("pincus-check", [[0.5, 0.0]], 0),
            ("pincus-check", [[2.0, 0.0], [0.0, 1.0]], 1),
            ("resolvent-probe", [[2.0, 0.0], [0.0, 0.5]], 1),
            ("resolvent-probe", [[1.0000001, 0.0]], 0),
        ],
    )
    def test_run_point_inside_disc_exits_two(self, tmp_path, capsys, experiment, points, index):
        code, out = self.run_config(tmp_path, {"experiment": experiment, "points": points})
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"points[{index}]" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_cli_runs_without_dense_linalg(self, tmp_path, no_dense_linalg):
        # every bundled config and both default grids pass on the weight band alone
        out = str(tmp_path / "out")
        for path in sorted(CONFIG_DIR.glob("*.json")):
            assert main(["run", "--config", str(path), "--out", out, "--csv", out + ".csv"]) == 0
        for extra in ([], ["--model-lambda", "2.5"]):
            assert main(["grid", "--experiment", "pincus-check", "--out", out] + extra) == 0

    @pytest.mark.parametrize("weight, points", [(0.5, None), (1.5, None), (1.5, [[1.6, 0], [0, -1.7]])])
    def test_run_pincus_constant_weight_passes(self, tmp_path, weight, points):
        payload = {
            "experiment": "pincus-check",
            "model": {"kind": "tabulated", "weights": [weight], "limit": weight},
        }
        if points:
            payload["points"] = points
        code, out = self.run_config(tmp_path, payload)
        assert code == 0
        assert json.loads(out.read_text())["all_pass"] is True

    @pytest.mark.parametrize("extra", [[], ["--model-lambda", "2.5"]], ids=["shift", "rational"])
    def test_default_grid_matches_full_curve_oracle(self, tmp_path, extra):
        # the default grid winds its inner rings on strided curves
        out = tmp_path / "grid.csv"
        assert main(["grid", "--experiment", "pincus-check", "--out", str(out)] + extra) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        curve = symbol_curve(rational_family(2.5) if extra else unilateral(), 8192)
        expected = [
            float(oracles.winding_number(curve, float(r) * np.exp(1j * float(th))))
            for r, th, *_ in rows
        ]
        assert [float(row[4]) for row in rows] == expected
        assert len(rows) == 24 * 48

    def test_run_far_constancy_point_winds_zero(self, tmp_path):
        # the argument products of a point at 1e300 overflow; it winds 0 about every image curve
        code, out = self.run_config(
            tmp_path, {"experiment": "constancy", "points": [[1e300, 1e300]]}
        )
        assert code == 0
        checks = json.loads(out.read_text())["checks"]
        assert all(c["lhs"] == [0.0, 0.0] and c["rhs"] == [0.0, 0.0] for c in checks)


def test_cli_import_leaves_scipy_unloaded():
    # the runtime dependency is numpy alone; importing scipy would also slow start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, hyposhift.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert result.returncode == 0
