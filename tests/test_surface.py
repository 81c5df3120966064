"""The public surface of src/hyposhift, name by name.

A public name is one bound at module level (def, class or assignment) without
a leading underscore; imported names do not count.  Adding or removing one
fails this test until PUBLIC_NAMES is updated, so every change to the surface
shows in the diff.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hyposhift"

PUBLIC_NAMES = {
    "__init__": [],
    "__main__": [],
    "cli": [
        "DEFAULT_GRID", "DEFAULT_TRUNCATION", "EXPERIMENTS", "ExperimentConfig", "MIN_GRID",
        "MIN_TRUNCATION", "build_parser", "main", "parse_config", "run_experiment",
    ],
    "errors": [
        "ConfigError", "DomainError", "HyposhiftError", "InvalidDimension", "IoError",
        "NotAContraction", "NotRankOne", "PoleHit", "SpectrumHit",
        "TooCloseToCurve",
    ],
    "homogeneity": [
        "DEFAULT_MAP_GRID", "DEFAULT_WITNESS_GRID", "PROBE_MIN_MODULUS",
        "change_of_variable_check", "constancy_check", "default_exterior_points",
        "default_interior_points", "inequality_gap", "resolvent_probe_check",
        "t_lambda_trace_check", "theorem_inequality_check", "witness_search",
    ],
    "mobius": [
        "BAND_CUTOFF", "CONTRACTION_TOL", "MobiusMap", "UNIMODULAR_TOL", "mobius_eval",
        "mobius_invert", "transformed_commutator_window",
    ],
    "principal": [
        "COARSE_STRIDE", "CURVE_MARGIN_FACTOR", "GridFunction", "WINDING_CHUNK",
        "closed_form_oracle", "constant_grid", "determining_det", "disc_cauchy_exponential",
        "pincus_consistency", "winding_numbers",
    ],
    "reporting": [
        "Check", "VerificationReport", "make_bound_check", "make_check", "write_checks_csv",
        "write_grid_csv", "write_report",
    ],
    "shifts": [
        "KIND_RATIONAL", "KIND_TABULATED", "WeightSequence",
        "adjoint_resolvent_smin", "adjoint_resolvent_solve", "band",
        "exact_commutator_diagonal", "rational_family", "symbol_curve", "tabulated",
        "unilateral",
    ],
    "traceforms": [
        "BivariatePolynomial", "berger_shaw_putnam_check", "helton_howe_check", "tracial_form",
    ],
}


def public_names(path: Path) -> list[str]:
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return sorted(n for n in names if not n.startswith("_"))


def test_public_names_are_listed():
    found = {path.stem: public_names(path) for path in sorted(SRC.glob("*.py"))}
    assert found == {module: sorted(names) for module, names in PUBLIC_NAMES.items()}


def test_public_name_count():
    # the number of public names that the ROADMAP's quality pillar tracks
    assert sum(len(names) for names in PUBLIC_NAMES.values()) == 71


def test_cli_runners_only_call_the_library():
    # each experiment's runner maps its config keys to one library call, which
    # builds the checks: a runner is its docstring and one return statement
    tree = ast.parse((SRC / "cli.py").read_text())
    runners = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_run_")
    ]
    assert len(runners) == 8
    for node in runners:
        body = node.body[1:] if isinstance(node.body[0], ast.Expr) else node.body
        assert [type(stmt) for stmt in body] == [ast.Return], node.name
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"Check", "make_bound_check", "make_check"}
