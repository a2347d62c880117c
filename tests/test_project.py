import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_targets_import():
    """Every console script in pyproject.toml names an importable callable,
    so an installed script cannot fail on import."""
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, spec in scripts.items():
        module, _, attr = spec.partition(":")
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), name


def test_benchmark_tracer_layers_resolve():
    """Every (module, name) the benchmark's tracer times is bound on that
    valuta module, so removing or renaming one fails here rather than in
    ``bench/run.py --trace 1``.  ``tracer.py`` is loaded by path."""
    path = PYPROJECT.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("valuta_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.LAYERS.items():
        home = importlib.import_module(f"valuta.{module}")
        for name in names:
            assert callable(getattr(home, name)), f"{module}.{name}"


def test_numpy_only_in_cplx():
    """Only ``cplx`` imports numpy (for sampling and its two float rank
    decisions); every other module orthonormalises and eliminates on its
    own."""
    for path in sorted((PYPROJECT.parent / "src" / "valuta").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                assert path.stem == "cplx", f"{path.name} imports numpy"


def test_one_verdict_rule_in_valuation_lab():
    """Only ``_verdict`` builds a ``CheckReport``, and no public function of
    ``valuation_lab`` takes a ``tol``: every check reports by one rule."""
    tree = ast.parse((PYPROJECT.parent / "src" / "valuta" / "valuation_lab.py").read_text())

    def builds(node):
        return sum(isinstance(call, ast.Call) and "CheckReport" in (
            getattr(call.func, "id", None), getattr(call.func, "attr", None))
            for call in ast.walk(node))

    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    verdict = next(fn for fn in functions if fn.name == "_verdict")
    assert builds(tree) == builds(verdict) >= 1
    for fn in functions:
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        assert fn.name.startswith("_") or "tol" not in {a.arg for a in params}, fn.name


def test_a_polytope_is_its_points_and_cells():
    """``Polytope`` stores its points and cells and nothing read off them:
    facets are derived on demand, so no module reads a ``.facets``, and a
    triangulation is always given."""
    from valuta.polytope import Polytope

    fields = {f.name: f for f in dataclasses.fields(Polytope)}
    assert list(fields) == ["dim", "vertices", "triangulation", "aux_points"]
    assert fields["triangulation"].default is dataclasses.MISSING
    for path in sorted((PYPROJECT.parent / "src" / "valuta").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (isinstance(node, ast.Attribute) and node.attr == "facets"), path.name


def test_each_value_is_cleared_only_by_its_view():
    """No call of ``clear_denominators`` in ``src/valuta`` takes a body's
    ``.points``, a matrix's ``.entries`` or a tensor's ``.coeffs``, except
    in the three ``cleared`` views that define them: every other reader
    takes the view, so each value is cleared at most once per object."""
    found = []
    for path in sorted((PYPROJECT.parent / "src" / "valuta").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for call in ast.walk(fn):
                if not (isinstance(call, ast.Call) and "clear_denominators" in (
                        getattr(call.func, "id", None), getattr(call.func, "attr", None))):
                    continue
                read = {node.attr for arg in call.args for node in ast.walk(arg)
                        if isinstance(node, ast.Attribute)}
                if read & {"points", "entries", "coeffs"}:
                    found.append((path.stem, fn.name))
    assert sorted(found) == [("polytope", "cleared"), ("symtensor", "cleared"),
                             ("symtensor", "cleared")]


def test_int_totals_become_a_tensor_only_through_from_totals():
    """Int sums over a denominator become a tensor only through
    ``SymTensor.from_totals``: ``linalg.over`` is called by it and by the two
    scalar divisions of ``polytope`` (volume and atoms), ``divide_totals`` by
    nothing, and the five producers of exact tensors call ``from_totals``."""
    calls = {}
    for path in sorted((PYPROJECT.parent / "src" / "valuta").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                calls[path.stem, fn.name] = {
                    getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                    for call in ast.walk(fn) if isinstance(call, ast.Call)}
    dividing = sorted(site for site, names in calls.items() if {"over", "divide_totals"} & names)
    assert dividing == [("polytope", "_volume"), ("polytope", "surface_area_measure"),
                        ("symtensor", "from_totals")]
    for site in [("moment", "moment_family"), ("symtensor", "gl_action"),
                 ("symtensor", "shift_expansion"), ("symtensor", "vector_power"),
                 ("valuation_lab", "mcmullen_decompose")]:
        assert "from_totals" in calls[site], site
