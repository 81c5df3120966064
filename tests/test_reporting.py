"""Report serialization and the in-place writer against their byte references.

to_json must equal json.dumps(..., indent=2, sort_keys=True) + "\\n" of the
report's dict (oracles.report_json) for every name, float and parameter tree;
write_checks_csv must equal csv.writer row by row (oracles.write_checks_csv).
The writer overwrites files in place, so a shorter report over a longer one,
new-file modes, symlinks and non-regular targets are pinned here too.
"""
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from hyposhift.cli import main, parse_config, run_experiment
from hyposhift.principal import constant_grid
from hyposhift.reporting import (
    Check,
    VerificationReport,
    write_checks_csv,
    write_grid_csv,
    write_report,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# every float json can write: +-0.0, subnormals, +-inf and NaN included
any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
edge_float = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     float("inf"), float("-inf"), float("nan"), 1e-7, 1e16, 0.1]
)
floats = st.one_of(any_float, edge_float)
# quotes, backslashes, control characters, separators and non-ASCII
names = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "a, b", "x\ny\r\n", "\x00\x1f\x7f", "é€😀", " ", ""]),
)
json_leaves = st.none() | st.booleans() | st.integers() | floats | names
parameter_trees = st.dictionaries(
    names,
    st.recursive(
        json_leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(names, inner, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
)
checks = st.builds(
    Check,
    name=names,
    lhs=st.builds(complex, floats, floats),
    rhs=st.builds(complex, floats, floats),
    tolerance=floats,
    passed=st.booleans(),
)
reports = st.builds(
    VerificationReport,
    experiment=names,
    parameters=parameter_trees,
    checks=st.lists(checks, max_size=5),
    runtime_ms=floats,
)


def demo_report(n_checks, name="check"):
    checks_ = [Check(f"{name} {k}", complex(k, -k), 1j * k, 1e-12, k % 2 == 0)
               for k in range(n_checks)]
    return VerificationReport("demo", {"n": n_checks}, checks_, runtime_ms=1.5)


class TestByteOracles:
    @given(reports)
    @example(VerificationReport("", {}, [], 0.0))
    @example(VerificationReport("e", {"a": {"b": [1, {"c": []}], "d": {}}}, [], 12))
    @settings(max_examples=300, deadline=None)
    def test_to_json_matches_indented_dumps(self, report):
        assert report.to_json() == oracles.report_json(report)

    @given(reports)
    @example(demo_report(3, name='needs "quoting", and\r\na newline'))
    @settings(max_examples=100, deadline=None)
    def test_checks_csv_matches_row_writer(self, report):
        # csv.writer before 3.11 refuses a NUL (no escapechar); the writer
        # writes it raw on every Python, pinned in test_nul_name_is_written_raw
        assume(sys.version_info >= (3, 11) or not any("\x00" in c.name for c in report.checks))
        with tempfile.TemporaryDirectory() as tmp:
            fast, rows = os.path.join(tmp, "fast.csv"), os.path.join(tmp, "rows.csv")
            write_checks_csv(report, fast)
            oracles.write_checks_csv(report, rows)
            assert Path(fast).read_bytes() == Path(rows).read_bytes()

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_bundled_report_matches_indented_dumps(self, tmp_path, path):
        out = tmp_path / "r.json"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert out.read_text() == json.dumps(data, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_bundled_csv_matches_row_writer(self, tmp_path, path):
        report = run_experiment(parse_config(path.read_text()))
        fast, rows = tmp_path / "fast.csv", tmp_path / "rows.csv"
        write_checks_csv(report, str(fast))
        oracles.write_checks_csv(report, str(rows))
        assert fast.read_bytes() == rows.read_bytes()

    def test_nul_name_is_written_raw(self, tmp_path):
        checks_ = [Check("a\x00b", 1 + 2j, complex(0.0, -0.0), 0.5, True),
                   Check('"\x00,', 0j, 0j, 0.0, False)]
        report = VerificationReport("e", {}, checks_)
        write_checks_csv(report, str(tmp_path / "r.csv"))
        assert (tmp_path / "r.csv").read_bytes() == (
            b"name,lhs_re,lhs_im,rhs_re,rhs_im,tol,pass\r\n"
            b"a\x00b,1.0,2.0,0.0,-0.0,0.5,True\r\n"
            b'"""\x00,",0.0,0.0,0.0,0.0,0.0,False\r\n'
        )


class TestInPlaceWriter:
    def test_shorter_report_leaves_no_stale_tail(self, tmp_path):
        json_path, csv_path, grid_path = tmp_path / "r.json", tmp_path / "r.csv", tmp_path / "g.csv"
        write_report(demo_report(40), str(json_path))
        write_checks_csv(demo_report(40), str(csv_path))
        write_grid_csv(constant_grid(1.0, 6, 9), str(grid_path))
        short = demo_report(1)
        write_report(short, str(json_path))
        write_checks_csv(short, str(csv_path))
        write_grid_csv(constant_grid(1.0, 1, 2), str(grid_path))
        assert json_path.read_text() == oracles.report_json(short)
        oracles.write_checks_csv(short, str(tmp_path / "want.csv"))
        assert csv_path.read_bytes() == (tmp_path / "want.csv").read_bytes()
        oracles.write_grid_csv(constant_grid(1.0, 1, 2), str(tmp_path / "want-grid.csv"))
        assert grid_path.read_bytes() == (tmp_path / "want-grid.csv").read_bytes()

    def test_longer_report_over_shorter(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(demo_report(1), str(path))
        write_report(demo_report(30), str(path))
        assert path.read_text() == oracles.report_json(demo_report(30))

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_report(demo_report(1), str(tmp_path / "r.json"))
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "r.json").st_mode) == 0o666 & ~umask

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x" * 1000)
        os.chmod(path, 0o600)
        write_checks_csv(demo_report(2), str(path))
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        assert len(path.read_bytes()) < 1000

    def test_symlinked_out_writes_through(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("stale " * 1000)
        link.symlink_to(target)
        cfg = CONFIG_DIR / "berger_shaw_putnam.json"
        assert main(["run", "--config", str(cfg), "--out", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["experiment"] == "berger-shaw-putnam"

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_out_dev_null_exits_zero(self, capsys):
        cfg = CONFIG_DIR / "berger_shaw_putnam.json"
        argv = ["run", "--config", str(cfg), "--out", "/dev/null", "--csv", "/dev/null"]
        assert main(argv) == 0
        assert main(["grid", "--experiment", "pincus-check", "--out", "/dev/null",
                     "--n-r", "2", "--n-theta", "4"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_out_dev_stdout_into_pipe_exits_zero(self):
        cfg = CONFIG_DIR / "berger_shaw_putnam.json"
        argv = [sys.executable, "-m", "hyposhift", "run", "--config", str(cfg),
                "--out", "/dev/stdout"]
        env = {**os.environ, "PYTHONPATH": SRC}
        result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        report, end = json.JSONDecoder().raw_decode(result.stdout)
        assert report["all_pass"] is True
        lines = result.stdout[end:].split()
        assert lines and lines[0] == "[PASS]"

    # a missing parent directory is test_cli's test_run_unwritable_output_exits_two
    @pytest.mark.parametrize("where", ["directory", "under_a_file"])
    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_target_exits_two(self, tmp_path, capsys, where, flag):
        (tmp_path / "file").write_text("")
        bad = {"directory": tmp_path, "under_a_file": tmp_path / "file" / "r"}[where]
        outputs = {"--out": str(tmp_path / "r.json"), "--csv": str(tmp_path / "r.csv")}
        outputs[flag] = str(bad)
        argv = ["run", "--config", str(CONFIG_DIR / "berger_shaw_putnam.json")]
        for name, path in outputs.items():
            argv += [name, path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ")
        assert len(err.strip().splitlines()) == 1

    def test_grid_into_directory_exits_two(self, tmp_path, capsys):
        argv = ["grid", "--experiment", "pincus-check", "--out", str(tmp_path)]
        assert main(argv + ["--n-r", "2", "--n-theta", "4"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write grid CSV")
