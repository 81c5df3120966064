import contextlib
import csv
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hyposhift import homogeneity, principal
from hyposhift.cli import EXPERIMENTS, main, parse_config, run_experiment
from hyposhift.errors import ConfigError, TooCloseToCurve
from hyposhift.homogeneity import DEFAULT_MAP_GRID, default_exterior_points, default_interior_points
from hyposhift.mobius import MobiusMap
from hyposhift.reporting import (
    VerificationReport,
    make_bound_check,
    make_check,
    write_checks_csv,
    write_grid_csv,
    write_report,
)
from hyposhift.principal import GridFunction, constant_grid, disc_indices
from hyposhift.shifts import rational_family, unilateral

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# The config keys each experiment reads; `grid` sets two values, n_r and n_theta.
SCHEMA = {
    "pincus-check": ["model", "points", "truncation", "grid"],
    "helton-howe": ["p", "q", "model", "truncation", "grid", "tolerance"],
    "change-of-variable": ["model", "mobius", "points"],
    "constancy": ["model", "mobius", "points"],
    "theorem-inequality": ["c_values"],
    "t-lambda-trace": ["model", "truncation"],
    "resolvent-probe": ["model", "points", "truncation"],
    "berger-shaw-putnam": ["model", "area"],
}
TOP_LEVEL_KEYS = sorted({key for keys in SCHEMA.values() for key in keys})
UNREAD = [(name, key) for name, keys in SCHEMA.items() for key in TOP_LEVEL_KEYS if key not in keys]


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

    def test_rejects_unknown_key_by_name(self):
        with pytest.raises(ConfigError, match="tolerence"):
            parse_config('{"experiment": "helton-howe", "tolerence": 1e-12}')

    def test_helton_howe_requires_polynomials(self):
        with pytest.raises(ConfigError, match="p/q"):
            parse_config('{"experiment": "helton-howe"}')

    def test_helton_howe_accepts_a_non_hyponormal_model(self):
        cfg = parse_config(
            '{"experiment": "helton-howe", "p": [[0, 1, 1, 0]], "q": [[1, 0, 1, 0]],'
            ' "model": {"kind": "tabulated", "weights": [2, 1], "limit": 1}}'
        )
        assert not cfg.args["model"].hyponormal

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
        assert cfg.args["truncation"] == 64
        assert cfg.args["grid"] == (32, 32)
        assert cfg.args["tolerance"] == 1e-4
        assert dict(cfg.args["p"].coeffs) == {(0, 1): 1.0}

    @pytest.mark.parametrize(
        "experiment, defaults",
        [
            ("pincus-check", {"model": unilateral(), "points": (2 + 0j, 3 + 0j),
                              "truncation": 256, "grid": (400, 400)}),
            ("change-of-variable", {"model": unilateral(), "mobius": MobiusMap(),
                                    "points": tuple(default_interior_points())}),
            ("constancy", {"model": unilateral(), "mobius": None,
                           "points": tuple(default_interior_points())}),
            ("theorem-inequality", {"c_values": (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0)}),
            ("resolvent-probe", {"model": unilateral(), "points": (2 + 0j, 10 + 0j),
                                 "truncation": 256}),
            ("berger-shaw-putnam", {"model": unilateral(), "area": None}),
        ],
    )
    def test_fills_in_the_runner_defaults(self, experiment, defaults):
        assert parse_config(json.dumps({"experiment": experiment})).args == defaults

    def test_given_keys_override_the_defaults(self):
        cfg = parse_config('{"experiment": "pincus-check", "points": [[4, 0]]}')
        assert cfg.args["points"] == [4 + 0j]
        assert cfg.args["truncation"] == 256

    def test_each_runner_reads_its_schema(self):
        reads = {name: list(inspect.signature(run).parameters) for name, run in EXPERIMENTS.items()}
        assert reads == SCHEMA
        # 26 settable values of the 88 that 11 per experiment would give
        assert sum(len(keys) + ("grid" in keys) for keys in SCHEMA.values()) == 26
        assert len(TOP_LEVEL_KEYS) == 10 and len(UNREAD) == 56

    @pytest.mark.parametrize("experiment, key", UNREAD)
    def test_refuses_a_key_the_experiment_does_not_read(self, experiment, key):
        # refused before its value is parsed, so even a malformed value names the key
        with pytest.raises(ConfigError, match=f"^{key}: {experiment} does not read this key"):
            parse_config(json.dumps({"experiment": experiment, key: "not parsed"}))

    @pytest.mark.parametrize(
        "experiment, key, value, path",
        [
            ("change-of-variable", "mobius", {"A": [0.5, 0]}, "mobius.A"),
            ("pincus-check", "grid", {"nr": 16}, "grid.nr"),
            ("t-lambda-trace", "model", {"kind": "rational", "lamda": 2.0}, "model.lamda"),
            ("pincus-check", "model", {"kind": "unilateral", "limit": 2.0}, "model.limit"),
            ("t-lambda-trace", "model", {"kind": "rational", "lambda": 2, "limit": 1}, "model.limit"),
            ("pincus-check", "model", {"kind": "tabulated", "weights": [1], "lambda": 2},
             "model.lambda"),
        ],
    )
    def test_refuses_a_nested_key_by_name(self, experiment, key, value, path):
        with pytest.raises(ConfigError, match=f"^{path}: .* does not read this key"):
            parse_config(json.dumps({"experiment": experiment, key: value}))

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

    @pytest.mark.parametrize(
        "n_r, n_theta", [(24, 48), (8, 16), (1, 1), (1, 2), (3, 7), (2, 6), (100, 37)]
    )
    def test_grid_csv_matches_row_writer(self, tmp_path, n_r, n_theta):
        # the one-string writer against csv.writer row by row, byte for byte; an
        # n_theta = 2 (mod 4) grid has a node at theta = pi/2, where re is ~1e-17
        values = np.random.default_rng(n_r * n_theta).random(n_r)
        values[0] = 1.0
        grid = GridFunction(n_r, n_theta, values)
        write_grid_csv(grid, str(tmp_path / "fast.csv"))
        oracles.write_grid_csv(grid, str(tmp_path / "rows.csv"))
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


# every experiment that reads a model, with the keys it requires besides; the
# probe's table is as long as its band, so it read no limit before one was required
MODEL_READERS = {
    "pincus-check": {},
    "helton-howe": {"p": [[0, 1, 1, 0]], "q": [[1, 0, 1, 0]]},
    "change-of-variable": {},
    "constancy": {},
    "t-lambda-trace": {},
    "resolvent-probe": {"truncation": 8},
    "berger-shaw-putnam": {},
}


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

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_grid_non_finite_lambda_exits_two(self, tmp_path, capsys, lam):
        out = tmp_path / "g.csv"
        argv = ["grid", "--experiment", "pincus-check", "--out", str(out), "--model-lambda", lam]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("experiment, required", MODEL_READERS.items())
    def test_run_table_without_limit_exits_two(self, tmp_path, capsys, experiment, required):
        model = {"kind": "tabulated", "weights": [0.5] * 7}
        code, out = self.run_config(tmp_path, {"experiment": experiment, "model": model, **required})
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: model.limit: required for tabulated weights\n"
        assert captured.out == ""
        assert not out.exists()

    def test_model_readers_are_every_experiment_with_a_model(self):
        readers = {
            name for name, run in EXPERIMENTS.items()
            if "model" in inspect.signature(run).parameters
        }
        assert readers == set(MODEL_READERS)

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
        curve = oracles.symbol_curve(model, 1024)
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
        ],
        ids=["n_r_zero", "n_theta_zero", "two_samples"],
    )
    def test_grid_bad_input_exits_two(self, tmp_path, capsys, extra):
        argv = ["grid", "--experiment", "pincus-check", "--out", str(tmp_path / "g.csv")]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra", [[], ["--model-lambda", "2.5"]], ids=["shift", "rational"])
    def test_grid_samples_are_not_read(self, tmp_path, extra):
        # the index is decided in closed form: --samples is validated, then ignored
        written = []
        for samples in (["--samples", "3"], ["--samples", "64"], []):
            out = tmp_path / f"grid{len(written)}.csv"
            argv = ["grid", "--experiment", "pincus-check", "--out", str(out)]
            assert main(argv + samples + extra) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1] == written[2]

    @given(
        st.integers(1, 6),
        st.integers(1, 8),
        st.sampled_from([None, 1.5, 2.0, 5.0]),
        st.sampled_from([256, 1024, 8192]),
    )
    @settings(max_examples=30, deadline=None)
    def test_grid_matches_polygon_where_it_decides(self, n_r, n_theta, lam, samples):
        # each node's value against the oracle polygon's winding, at every node
        # clear of that polygon's sampling margin; the innermost ring always is
        model = unilateral() if lam is None else rational_family(lam)
        extra = [] if lam is None else ["--model-lambda", repr(lam)]
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "grid.csv")
            argv = ["grid", "--experiment", "pincus-check", "--out", out]
            argv += ["--n-r", str(n_r), "--n-theta", str(n_theta)] + extra
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
        assert len(rows) == n_r * n_theta
        curve = oracles.symbol_curve(model, samples)
        decided = 0
        for r, th, _, _, g in rows:
            try:
                winding = oracles.winding_number(curve, float(r) * np.exp(1j * float(th)))
            except TooCloseToCurve:
                continue
            assert float(g) == winding
            decided += 1
        assert decided >= n_theta

    @given(st.integers(1, 64), st.integers(1, 64), st.sampled_from([None, 1.5, 2.0, 5.0]))
    @settings(max_examples=40, deadline=None)
    def test_grid_rings_match_node_indices(self, n_r, n_theta, lam):
        # grid decides each ring once, at its radius: node by node, that is the
        # index of every node of the ring about the circle |z| = c
        model = unilateral() if lam is None else rational_family(lam)
        extra = [] if lam is None else ["--model-lambda", repr(lam)]
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "grid.csv")
            argv = ["grid", "--experiment", "pincus-check", "--out", out]
            argv += ["--n-r", str(n_r), "--n-theta", str(n_theta)] + extra
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
        nodes = constant_grid(0.0, n_r, n_theta).nodes()
        want = [float(i) for ring in disc_indices(nodes, 0.0, model.limit) for i in ring]
        assert [float(row[4]) for row in rows] == want

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
        "fields, path",
        [
            pytest.param('"truncation": "abc"', "truncation", id="truncation_str"),
            pytest.param(
                '"experiment": "theorem-inequality", "c_values": ["x"]', "c_values[0]",
                id="c_value_str",
            ),
            pytest.param(
                '"experiment": "theorem-inequality", "c_values": 5', "c_values",
                id="c_values_scalar",
            ),
            pytest.param('"truncation": 256.5', "truncation", id="truncation_fraction"),
            pytest.param('"grid": {"n_r": "a"}', "grid.n_r", id="grid_str"),
            pytest.param('"grid": {"n_r": 32, "n_theta": 32.5}', "grid.n_theta", id="grid_fraction"),
            pytest.param('"p": [["x", 0, 1.0, 0.0]]', "p[0][0]", id="exponent_str"),
            pytest.param('"p": [[1.5, 0, 1.0, 0.0]]', "p[0][0]", id="exponent_fraction"),
            pytest.param(
                '"experiment": "change-of-variable", "mobius": {"beta_arg": "x"}',
                "mobius.beta_arg", id="beta_arg_str",
            ),
            pytest.param(
                '"experiment": "change-of-variable", "mobius": {"a": [NaN, 0]}', "config",
                id="mobius_a_nan",
            ),
            pytest.param(
                '"experiment": "pincus-check", "points": [["x", 0]]', "points[0][0]",
                id="point_str",
            ),
            pytest.param('"experiment": "berger-shaw-putnam", "area": "x"', "area", id="area_str"),
            pytest.param(
                '"experiment": "berger-shaw-putnam", "area": 1e400', "config", id="area_overflow"
            ),
            pytest.param(
                '"experiment": "berger-shaw-putnam", "area": 1' + "0" * 400, "area",
                id="area_int_overflow",
            ),
            pytest.param(
                '"model": {"kind": "rational", "lambda": NaN}', "config", id="lambda_nan"
            ),
            pytest.param(
                '"model": {"kind": "rational", "lambda": Infinity}', "config", id="lambda_inf"
            ),
            pytest.param(
                '"model": {"kind": "tabulated", "weights": "x", "limit": 1}', "model.weights",
                id="weights_str",
            ),
            pytest.param('"tolerance": -1e-3', "tolerance", id="tolerance_negative"),
            # a misspelt key is refused, not ignored at the default tolerance
            pytest.param('"tolerence": 1e-9', "tolerence", id="unknown_key"),
            # g is 1 on the disc of radius model.limit; this table has none
            pytest.param(
                '"experiment": "pincus-check", "truncation": 8,'
                ' "model": {"kind": "tabulated", "weights": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1]}',
                "model.limit", id="pincus_no_limit",
            ),
            # g is 1 on the disc of radius model.limit; a table without one has no disc
            pytest.param(
                '"model": {"kind": "tabulated", "weights": [1, 2]}', "model.limit",
                id="hh_no_limit",
            ),
            # a JSON string or boolean is not a number, whatever it spells
            pytest.param(
                '"model": {"kind": "tabulated", "weights": "12", "limit": 1}', "model.weights",
                id="weights_digits",
            ),
            pytest.param(
                '"model": {"kind": "tabulated", "weights": [true], "limit": 1}',
                "model.weights[0]", id="weight_bool",
            ),
            pytest.param(
                '"model": {"kind": "tabulated", "weights": [1], "limit": "1"}', "model.limit",
                id="limit_digits",
            ),
            pytest.param(
                '"experiment": "t-lambda-trace", "model": {"kind": "rational", "lambda": "2"}',
                "model.lambda", id="lambda_digits",
            ),
            pytest.param(
                '"experiment": "change-of-variable", "mobius": {"beta_arg": true}',
                "mobius.beta_arg", id="beta_arg_bool",
            ),
            pytest.param(
                '"experiment": "change-of-variable", "mobius": {"a": ["0.5", 0]}', "mobius.a[0]",
                id="mobius_a_digits",
            ),
            pytest.param(
                '"experiment": "pincus-check", "points": [[2, false]]', "points[0][1]",
                id="point_bool",
            ),
            pytest.param('"p": [[true, 1, 1, 0]]', "p[0][0]", id="exponent_bool"),
            pytest.param('"p": [[0, 1, "1", 0]]', "p[0][2]", id="coefficient_digits"),
            pytest.param(
                '"experiment": "theorem-inequality", "c_values": "1"', "c_values",
                id="c_values_digits",
            ),
            pytest.param(
                '"experiment": "theorem-inequality", "c_values": [true]', "c_values[0]",
                id="c_value_bool",
            ),
            pytest.param(
                '"experiment": "berger-shaw-putnam", "area": "3.5"', "area", id="area_digits"
            ),
            pytest.param('"experiment": "berger-shaw-putnam", "area": true', "area", id="area_bool"),
            pytest.param('"tolerance": "1e-3"', "tolerance", id="tolerance_digits"),
            pytest.param('"truncation": "512"', "truncation", id="truncation_digits"),
            pytest.param('"truncation": true', "truncation", id="truncation_bool"),
            pytest.param('"grid": {"n_r": true}', "grid.n_r", id="grid_bool"),
            # a runner parameter without a default must be given
            pytest.param('"experiment": "t-lambda-trace"', "model", id="t_lambda_no_model"),
            pytest.param(
                '"experiment": "helton-howe", "p": [[0, 1, 1, 0]]', "q", id="hh_no_q"
            ),
            # an empty list would check nothing and pass
            pytest.param('"experiment": "pincus-check", "points": []', "points", id="points_empty"),
            pytest.param(
                '"experiment": "theorem-inequality", "c_values": []', "c_values",
                id="c_values_empty",
            ),
        ],
    )
    def test_run_malformed_value_exits_two(self, tmp_path, capsys, fields, path):
        # a valid helton-howe config, unless the case names its own experiment;
        # a later duplicate key overrides an earlier one
        valid = '"experiment": "helton-howe", "p": [[0, 1, 1.0, 0.0]], "q": [[1, 0, 1.0, 0.0]]'
        if '"experiment"' not in fields:
            fields = valid + ", " + fields
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{" + fields + "}")
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"config error: {path}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "experiment, points, index, weight",
        [
            pytest.param("pincus-check", [[0.5, 0.0]], 0, 1.0, id="pincus-check-points0-0"),
            pytest.param(
                "pincus-check", [[2.0, 0.0], [0.0, 1.0]], 1, 1.0, id="pincus-check-points1-1"
            ),
            pytest.param(
                "resolvent-probe", [[2.0, 0.0], [0.0, 0.5]], 1, 1.0, id="resolvent-probe-points2-1"
            ),
            pytest.param(
                "resolvent-probe", [[1.0000001, 0.0]], 0, 1.0, id="resolvent-probe-points3-0"
            ),
            # w = 2 lies inside sup w_k = 3, where 1/(|w| - sup w_k) bounds nothing
            pytest.param("resolvent-probe", [[2.0, 0.0]], 0, 3.0, id="probe_singular"),
            # the probe's floor is sup w_k (1 + 1e-6), also below sup w_k = 1
            pytest.param("resolvent-probe", [[3.0, 0.0], [0.5, 0.0]], 1, 0.5, id="probe_floor"),
        ],
    )
    def test_run_point_inside_disc_exits_two(
        self, tmp_path, capsys, experiment, points, index, weight
    ):
        model = {"kind": "tabulated", "weights": [weight], "limit": weight}
        payload = {"experiment": experiment, "model": model, "points": points}
        code, out = self.run_config(tmp_path, payload)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        # the library names the offending modulus, not the point's place in the list
        assert err.endswith(f", got {abs(complex(*points[index]))}\n")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "refused, admitted",
        [
            ({"experiment": "pincus-check", "points": [[2, 0], [0, 1]]},
             {"experiment": "pincus-check", "points": [[2, 0]]}),
            ({"experiment": "resolvent-probe", "points": [[2, 0], [0, 0.5]]},
             {"experiment": "resolvent-probe", "points": [[2, 0]]}),
            ({"experiment": "theorem-inequality", "c_values": [0.5, 1.5]},
             {"experiment": "theorem-inequality", "c_values": [0.5]}),
        ],
        ids=["pincus", "resolvent_probe", "theorem_inequality"],
    )
    def test_run_refuses_before_any_work(self, tmp_path, monkeypatch, refused, admitted):
        # the whole list is refused before the first solve or search; its first
        # entry alone is admitted and does the work that the refusal skips
        calls = []
        for module, name in [
            (principal, "adjoint_resolvent_solve"),
            (homogeneity, "adjoint_resolvent_solve"),
            (homogeneity, "adjoint_resolvent_smin"),
            (homogeneity, "witness_search"),
        ]:
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        assert self.run_config(tmp_path, refused)[0] == 2
        assert calls == []
        assert self.run_config(tmp_path, admitted)[0] == 0
        assert calls

    def test_bundled_pincus_solves_once_per_point(self, monkeypatch):
        # 3 points make 6 pairs, and 3 O(n) solves
        calls = []
        solve = principal.adjoint_resolvent_solve
        monkeypatch.setattr(
            principal, "adjoint_resolvent_solve", lambda *a: calls.append(a[1]) or solve(*a)
        )
        report = run_experiment(parse_config((CONFIG_DIR / "pincus_check.json").read_text()))
        assert len(report.checks) == 18
        assert calls == [2, 3, 2j]

    def test_cli_runs_without_dense_linalg(self, tmp_path, no_dense_linalg):
        # every bundled config and both default grids pass on the weight band alone
        out = str(tmp_path / "out")
        for path in sorted(CONFIG_DIR.glob("*.json")):
            assert main(["run", "--config", str(path), "--out", out, "--csv", out + ".csv"]) == 0
        for extra in ([], ["--model-lambda", "2.5"]):
            assert main(["grid", "--experiment", "pincus-check", "--out", out] + extra) == 0

    # the quadrature runs at (z/c, w/c), so points need only clear sup w_k = c
    @pytest.mark.parametrize(
        "weight, points",
        [(0.5, None), (1.5, None), (1.5, [[1.6, 0], [0, -1.7]]), (0.5, [[0.8, 0], [0, 0.9]])],
    )
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

    @pytest.mark.parametrize(
        "weight, points", [(2.0, [[2.5, 0]]), (1.5, [[1.6, 0], [0, -3.0]]), (0.5, [[0.9, 0]])]
    )
    def test_run_resolvent_probe_past_sup_passes(self, tmp_path, weight, points):
        # Neumann's bound 1/(|w| - ||T||) with ||T|| = sup w_k holds past sup w_k
        payload = {
            "experiment": "resolvent-probe",
            "model": {"kind": "tabulated", "weights": [weight], "limit": weight},
            "points": points,
        }
        code, out = self.run_config(tmp_path, payload)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_pass"] is True
        bounds = [c["rhs"][0] for c in report["checks"] if c["name"].startswith("resolvent norm")]
        assert bounds == [1.0 / (abs(complex(*w)) - weight) for w in points]

    @pytest.mark.parametrize(
        "weight, p, q",
        [(0.5, [[0, 1, 1, 0]], [[1, 0, 1, 0]]), (1.5, [[0, 1, 1, 0]], [[1, 0, 1, 0]]),
         (1.5, [[0, 2, 1, 0]], [[2, 0, 1, 0]])],
        ids=["0.5-zbar,z", "1.5-zbar,z", "1.5-zbar2,z2"],
    )
    def test_run_helton_howe_constant_weight_passes(self, tmp_path, weight, p, q):
        payload = {
            "experiment": "helton-howe",
            "model": {"kind": "tabulated", "weights": [weight], "limit": weight},
            "p": p,
            "q": q,
        }
        code, out = self.run_config(tmp_path, payload)
        assert code == 0
        assert json.loads(out.read_text())["all_pass"] is True

    @pytest.mark.parametrize(
        "payload",
        [
            # the point lies on the image circle of the unit circle, within both sides' bands
            {"experiment": "change-of-variable", "mobius": {"a": [0.5, 0]}, "points": [[1, 0]]},
            # a finite point whose pull-back overflows a float: no index can be decided
            {"experiment": "change-of-variable", "mobius": {"a": [0.5, 0]},
             "points": [[1e308, 1e308]]},
            # both sides of the trace formula overflow to NaN: no check can be made
            {"experiment": "helton-howe", "p": [[0, 1, 1e308, 0]], "q": [[1, 0, 1e308, 0]]},
            # the area side's c ** 2 overflows a float at c = 1e200
            {"experiment": "helton-howe",
             "model": {"kind": "tabulated", "weights": [1e200], "limit": 1e200},
             "p": [[0, 1, 1, 0]], "q": [[1, 0, 1, 0]]},
            # the default area pi * limit ** 2 and the trace limit ** 2 overflow
            {"experiment": "berger-shaw-putnam",
             "model": {"kind": "tabulated", "weights": [1e200], "limit": 1e200}},
            # the trace and the squared weights overflow, with no numpy warning
            {"experiment": "berger-shaw-putnam",
             "model": {"kind": "tabulated", "weights": [1e200], "limit": 1e200}, "area": 1.0},
            # truncation 256 is not above 4 x the window margin 80 of degree-40 polynomials
            {"experiment": "helton-howe", "p": [[0, 40, 1, 0]], "q": [[40, 0, 1, 0]]},
            {"experiment": "pincus-check", "model": {"kind": "rational", "lambda": 2.0}},
            # the table is not constant past the truncation: [T*, T] is not rank one
            {"experiment": "pincus-check", "truncation": 16, "points": [[3, 0]],
             "model": {"kind": "tabulated", "weights": [1] * 80 + [2], "limit": 2}},
            # [T*, T] has the second entry (1 + 4e-15)^2 - 1, about 8e-15: rank one is exact
            {"experiment": "pincus-check",
             "model": {"kind": "tabulated", "weights": [1.0, 1.000000000000004],
                       "limit": 1.000000000000004}},
            {"experiment": "pincus-check", "points": [[1.2, 0]],
             "model": {"kind": "tabulated", "weights": [1.5], "limit": 1.5}},
            {"experiment": "pincus-check",
             "model": {"kind": "tabulated", "weights": [3.0], "limit": 3.0}},
            # z/c overflows for a tiny limit, and |z/c|^2 for a huge point
            {"experiment": "pincus-check",
             "model": {"kind": "tabulated", "weights": [1e-310], "limit": 1e-310}},
            {"experiment": "pincus-check", "points": [[2, 0], [1e300, 1e300]]},
            # the singular-value count squares |w|, which overflows past 1.34e154
            {"experiment": "resolvent-probe", "points": [[2, 0], [1.4e308, 0]]},
            # Putnam's norm bound holds for hyponormal models: nondecreasing weights
            {"experiment": "berger-shaw-putnam",
             "model": {"kind": "tabulated", "weights": [2, 1], "limit": 1}},
            {"experiment": "berger-shaw-putnam",
             "model": {"kind": "tabulated", "weights": [1, 2], "limit": 1.5}},
            {"experiment": "t-lambda-trace", "model": {"kind": "unilateral"}},
            {"experiment": "theorem-inequality", "c_values": [0.5, 1.5]},
        ],
        ids=["change_of_variable_on_image_circle", "change_of_variable_pull_back_overflow",
             "helton_howe_not_finite", "helton_howe_area_overflow",
             "berger_shaw_putnam_default_area_overflow", "berger_shaw_putnam_overflow",
             "window_margin", "pincus_not_rank_one", "pincus_not_rank_one_past_truncation",
             "pincus_near_constant", "pincus_point_inside_sup", "pincus_default_point_inside_sup",
             "pincus_tiny_limit_overflow", "pincus_huge_point_overflow",
             "resolvent_probe_huge_point",
             "putnam_decreasing_table", "putnam_limit_below_table", "t_lambda_not_rational",
             "c_out_of_range"],
    )
    def test_run_library_refusal_exits_two(self, tmp_path, capsys, payload):
        code, out = self.run_config(tmp_path, payload)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            # the pole 1/conj(a) at 2.19 lies inside the spectrum's disc of radius 2.8
            {"experiment": "change-of-variable",
             "model": {"kind": "tabulated", "weights": [3.2], "limit": 2.8},
             "mobius": {"beta_arg": 1.07, "a": [0.4565, 0]}},
            {"experiment": "constancy", "mobius": {"a": [0.0, 0.8]},
             "model": {"kind": "tabulated", "weights": [1.25], "limit": 1.25}},
            # the default map a = 0.7i has its pole at |z| = 1.43 < 1.5
            {"experiment": "constancy",
             "model": {"kind": "tabulated", "weights": [1.5], "limit": 1.5}},
        ],
        ids=["change_of_variable", "constancy_map", "constancy_default_maps"],
    )
    def test_run_mobius_pole_on_spectrum_exits_two(self, tmp_path, capsys, payload):
        code, out = self.run_config(tmp_path, payload)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "pole" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("a", [[0.0, 0.6], [-0.5, 0.3]])
    def test_run_mobius_pole_off_spectrum_passes(self, tmp_path, a):
        # |a| limit < 1 on a limit-1.2 model: phi is analytic on the spectrum
        payload = {"experiment": "change-of-variable", "mobius": {"a": a},
                   "model": {"kind": "tabulated", "weights": [1.2], "limit": 1.2}}
        code, out = self.run_config(tmp_path, payload)
        assert code == 0
        assert json.loads(out.read_text())["all_pass"] is True

    @pytest.mark.parametrize("extra", [[], ["--model-lambda", "2.5"]], ids=["shift", "rational"])
    def test_default_grid_matches_full_curve_oracle(self, tmp_path, extra):
        # the default outer ring lies 0.021 from the circle, clear of the 8192-sample margin
        out = tmp_path / "grid.csv"
        assert main(["grid", "--experiment", "pincus-check", "--out", str(out)] + extra) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        curve = oracles.symbol_curve(rational_family(2.5) if extra else unilateral(), 8192)
        expected = [
            float(oracles.winding_number(curve, float(r) * np.exp(1j * float(th))))
            for r, th, *_ in rows
        ]
        assert [float(row[4]) for row in rows] == expected
        assert len(rows) == 24 * 48

    def test_run_constancy_off_unit_limit_fails_outside(self, tmp_path, capsys):
        # cS with c = 1.2 is not homogeneous: under the maps a = 0.3, 0.5 e^{i pi/4}
        # and 0.7i (each beta) the image disc of |z| < 1.2 takes in the first 1, 2
        # and 3 default exterior points, so exactly those 12 checks fail
        code, out = self.run_config(
            tmp_path,
            {"experiment": "constancy",
             "model": {"kind": "tabulated", "weights": [1.2], "limit": 1.2}},
        )
        assert code == 1
        outside = default_exterior_points()
        want = [
            f"[FAIL] zero index outside at zeta={outside[k]}, a={phi.a}"
            for i, phi in enumerate(DEFAULT_MAP_GRID) for k in range(i % 4)
        ]
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("[FAIL]")] == want
        assert len(want) == 12 and len(lines) == len(DEFAULT_MAP_GRID) * 25

    def test_run_constancy_center_near_circle_passes(self, tmp_path):
        # a = 0.9 stretches the mapped circle 19-fold, and the image disc still
        # decides every default point: 25 checks, all pass
        code, out = self.run_config(
            tmp_path, {"experiment": "constancy", "mobius": {"a": [0.9, 0]}}
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_pass"] is True and len(report["checks"]) == 25

    def test_run_far_constancy_point_winds_zero(self, tmp_path):
        # a point at 1e300 lies outside every image disc, and its index is 0 under every map
        code, out = self.run_config(
            tmp_path, {"experiment": "constancy", "points": [[1e300, 1e300]]}
        )
        assert code == 0
        checks = json.loads(out.read_text())["checks"]
        assert all(c["lhs"] == [0.0, 0.0] and c["rhs"] == [0.0, 0.0] for c in checks)


def _pair(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2)


_MODELS = st.one_of(
    st.just({"kind": "unilateral"}),
    st.fixed_dictionaries({"kind": st.just("rational"), "lambda": st.floats(0.5, 6.0)}),
    st.fixed_dictionaries(
        {"kind": st.just("tabulated"),
         "weights": st.lists(st.floats(0.05, 4.0), min_size=1, max_size=4)},
        optional={"limit": st.floats(0.05, 4.0)},
    ),
)
_POLYNOMIALS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    .map(list),
    min_size=1, max_size=3,
)
_VALUES = {
    "model": _MODELS,
    "p": _POLYNOMIALS,
    "q": _POLYNOMIALS,
    "truncation": st.integers(4, 64),
    "grid": st.fixed_dictionaries({"n_r": st.integers(12, 32), "n_theta": st.integers(12, 32)}),
    "points": st.lists(_pair(-5.0, 5.0), max_size=3),
    "mobius": st.fixed_dictionaries({"beta_arg": st.floats(-4.0, 4.0), "a": _pair(-1.2, 1.2)}),
    "c_values": st.lists(st.floats(0.01, 1.2), max_size=3),
    "area": st.floats(-1.0, 20.0),
    "tolerance": st.floats(-1e-3, 1.0),
}


def _config_for(name):
    # the keys the runner takes; one without a default (helton-howe's p, q) is always given
    params = inspect.signature(EXPERIMENTS[name]).parameters.values()
    required = {p.name: _VALUES[p.name] for p in params if p.default is p.empty}
    optional = {p.name: _VALUES[p.name] for p in params if p.default is not p.empty}
    return st.fixed_dictionaries({"experiment": st.just(name), **required}, optional=optional)


_CONFIGS = st.sampled_from(sorted(EXPERIMENTS)).flatmap(_config_for)


@given(_CONFIGS)
@settings(max_examples=200, deadline=None)
def test_run_keeps_the_exit_code_contract(config):
    # exit 0 all pass, 1 only with a [FAIL] line, 2 for anything refused; never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        argv = ["run", "--config", cfg_path, "--out", os.path.join(tmp, "r.json")]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert ("[FAIL]" in out.getvalue()) == (code == 1)


def test_cli_import_leaves_scipy_unloaded():
    # the runtime dependency is numpy alone; importing scipy would also slow start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, hyposhift.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert result.returncode == 0
