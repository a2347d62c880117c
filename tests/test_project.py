import ast
import dataclasses
import importlib
import importlib.util
import subprocess
import sys
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


def test_no_module_imports_numpy():
    """No module of ``valuta`` imports numpy: subspaces are sampled,
    orthonormalised and ranked in exact arithmetic, so numpy is a test
    dependency only (the ``test`` extra), not a dependency of the package."""
    for path in sorted((PYPROJECT.parent / "src" / "valuta").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "numpy" for name in names), \
                f"{path.name} imports numpy"
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert not any(dep.startswith("numpy") for dep in project.get("dependencies", []))


def test_every_module_imports_without_numpy():
    """Every module of ``valuta`` imports, and samples a subspace, in a
    fresh interpreter where importing numpy fails."""
    src = PYPROJECT.parent / "src"
    modules = sorted(p.stem for p in (src / "valuta").glob("*.py"))
    code = "\n".join([
        "import importlib, sys",
        f"sys.path.insert(0, {str(src)!r})",
        "sys.modules['numpy'] = None",
        *(f"importlib.import_module('valuta.{m}')" for m in modules),
        "from valuta.cplx import sample_subspace",
        "assert sample_subspace(3, 4, 1).complex_rank == 3",
    ])
    subprocess.run([sys.executable, "-c", code], check=True)


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
    """``Polytope`` stores its vertices' integer view and its cells and
    nothing read off them: facets are derived on demand, so no module reads
    a ``.facets``, and a triangulation is always given.  There is no second
    point list: no module reads a ``.points`` or ``.aux_points``."""
    from valuta.polytope import Polytope

    fields = {f.name: f for f in dataclasses.fields(Polytope)}
    assert list(fields) == ["dim", "cleared", "triangulation"]
    assert all(f.default is f.default_factory is dataclasses.MISSING for f in fields.values())
    for path in sorted((PYPROJECT.parent / "src" / "valuta").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (isinstance(node, ast.Attribute)
                        and node.attr in ("facets", "points", "aux_points")), path.name


def _functions(path):
    return [fn for fn in ast.walk(ast.parse(path.read_text())) if isinstance(fn, ast.FunctionDef)]


def _called(node) -> set:
    return {getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)}


SOURCES = sorted((PYPROJECT.parent / "src" / "valuta").glob("*.py"))


def test_each_value_is_cleared_only_by_its_view():
    """No call of ``clear_denominators`` in ``src/valuta`` takes a body's
    ``.vertices``, a matrix's ``.entries``, a tensor's ``.coeffs`` or a
    subspace's ``.basis``, and ``Polytope``, ``SymTensor``, ``RMatrix`` and
    ``Subspace`` clear the values they are given once, in ``__init__``:
    each one's ``cleared`` is its view (a tensor's reduces the stored
    totals), so every other reader takes a view, and each value is cleared
    at most once per object."""
    found = []
    for path in SOURCES:
        for fn in _functions(path):
            for call in ast.walk(fn):
                if not (isinstance(call, ast.Call) and "clear_denominators" in (
                        getattr(call.func, "id", None), getattr(call.func, "attr", None))):
                    continue
                read = {node.attr for arg in call.args for node in ast.walk(arg)
                        if isinstance(node, ast.Attribute)}
                if read & {"vertices", "entries", "coeffs", "basis"}:
                    found.append((path.stem, fn.name))
    assert found == []
    for module, name in (("polytope", "Polytope"), ("symtensor", "SymTensor"),
                         ("linalg", "RMatrix"), ("cplx", "Subspace")):
        tree = ast.parse((PYPROJECT.parent / "src" / "valuta" / f"{module}.py").read_text())
        cls = next(c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == name)
        clearing = {fn.name for fn in ast.walk(cls)
                    if isinstance(fn, ast.FunctionDef) and "clear_denominators" in _called(fn)}
        assert clearing == {"__init__"}, name


def test_int_totals_become_a_tensor_only_through_from_totals():
    """Int sums over a denominator become a tensor only through
    ``SymTensor.from_totals``, and every producer of tensors calls it.  The
    sums are divided only where a reader asks for a value, each as one
    ``Fraction(total, denominator)``: no module keeps a division helper
    (``over``, ``divide_totals``) that could choose another arithmetic, and
    in ``symtensor`` only ``coeffs``, ``max_abs_coeff``, ``coeff`` and
    ``view_distance`` build a tensor's ``Fraction``."""
    calls = {(path.stem, fn.name): _called(fn) for path in SOURCES for fn in _functions(path)}
    assert not [site for site, names in calls.items() if {"over", "divide_totals"} & names]
    assert not [site for site in calls if site[1] in ("over", "divide_totals")]
    for site in [("moment", "moment_family"), ("symtensor", "gl_action"),
                 ("symtensor", "shift_expansions"), ("symtensor", "vector_power"),
                 ("symtensor", "sym_product"), ("symtensor", "tensor_sum"),
                 ("symtensor", "scale"), ("symtensor", "__neg__"),
                 ("valuation_lab", "_components"), ("valuation_lab", "_signed_power")]:
        assert "from_totals" in calls[site], site
    tree = ast.parse((PYPROJECT.parent / "src" / "valuta" / "symtensor.py").read_text())
    building = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                and "Fraction" in _called(fn)}
    assert building == {"coeffs", "max_abs_coeff", "coeff", "view_distance", "parse_rational"}


def test_no_generator_sums_of_products_over_zip():
    """No function in ``src/valuta`` sums a generator of products over a
    ``zip``, ``sum(x * y for x, y in zip(a, b))``: a product of rows and
    columns runs on integer views (``linalg.mat_mul``) or, on a view
    already in ints, as ``sum(map(operator.mul, a, b))``."""
    found = []
    for path in SOURCES:
        for fn in _functions(path):
            for call in ast.walk(fn):
                if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "sum"
                        and call.args and isinstance(gen := call.args[0], ast.GeneratorExp)
                        and isinstance(gen.elt, ast.BinOp) and isinstance(gen.elt.op, ast.Mult)
                        and any("zip" in _called(comp.iter) for comp in gen.generators)):
                    found.append((path.stem, fn.name))
    assert found == []


def test_one_tensor_representation():
    """``SymTensor`` is its keys and totals over one denominator: it has no
    second constructor (``_trusted``) and no ``__getattr__`` hook, and no
    module but ``symtensor`` reads a tensor's stored totals or denominator
    or makes one with ``object.__new__(SymTensor)``."""
    from valuta.symtensor import SymTensor

    assert not hasattr(SymTensor, "_trusted") and "__getattr__" not in vars(SymTensor)
    for path in SOURCES:
        if path.stem == "symtensor":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            assert not (isinstance(node, ast.Attribute)
                        and node.attr in ("_totals", "_den", "_store")), path.name
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__":
                assert not any(getattr(arg, "id", None) == "SymTensor" for arg in node.args), \
                    path.name


def test_one_body_representation():
    """``Polytope`` is its integer view and cells: ``vertices`` is a
    ``cached_property`` read off the view, there is no ``__getattr__`` hook,
    no module names a ``_seed`` side channel or a ``_view_body`` builder,
    and no module but ``polytope`` makes a body with
    ``object.__new__(Polytope)``."""
    from functools import cached_property

    from valuta.polytope import Polytope

    assert "__getattr__" not in vars(Polytope)
    assert isinstance(vars(Polytope)["vertices"], cached_property)
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, field, None) for field in ("id", "attr", "name", "value")}
            assert not {"_seed", "_view_body"} & names, path.name
            if path.stem != "polytope" and isinstance(node, ast.Call) \
                    and getattr(node.func, "attr", None) == "__new__":
                assert not any(getattr(arg, "id", None) == "Polytope" for arg in node.args), \
                    path.name


def test_one_matrix_representation():
    """``RMatrix`` and ``Subspace`` are their integer views and a
    ``CMatrix`` its realification, as a body is its view
    (``test_one_body_representation``): ``entries`` and ``basis`` are
    ``cached_property``s read off the view, no ``__post_init__`` coerces
    entries in ``linalg`` or ``cplx``, and ``linalg`` keeps no complex
    product beside the realification's (``cmat_mul``)."""
    from functools import cached_property

    from valuta import linalg
    from valuta.cplx import CMatrix, Subspace

    for cls, names in ((linalg.RMatrix, ["cleared"]), (CMatrix, ["realified"]),
                       (Subspace, ["ambient", "cleared", "retries"])):
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__
    for cls, name in ((linalg.RMatrix, "entries"), (CMatrix, "entries"), (Subspace, "basis")):
        assert isinstance(vars(cls)[name], cached_property), (cls.__name__, name)
    for module in ("linalg", "cplx"):
        tree = ast.parse((PYPROJECT.parent / "src" / "valuta" / f"{module}.py").read_text())
        assert "__post_init__" not in {fn.name for fn in ast.walk(tree)
                                       if isinstance(fn, ast.FunctionDef)}, module
    assert not hasattr(linalg, "cmat_mul")


def test_matrices_are_exact():
    """``RMatrix`` and ``CMatrix`` hold rationals and carry no ``exact``
    flag, and ``linalg`` keeps no test of which arithmetic rows are in
    (``_floats``) for the determinants and the inverse to ask."""
    from valuta import linalg
    from valuta.cplx import CMatrix
    from valuta.symtensor import RMatrix

    assert not hasattr(RMatrix, "exact") and not hasattr(CMatrix, "exact")
    assert not hasattr(linalg, "_floats")


def test_bodies_tensors_and_reports_are_exact():
    """``Polytope``, ``SymTensor`` and ``CheckReport`` carry no ``exact``
    flag or ``mode``, and ``linalg`` keeps no test or coercion for a second
    arithmetic (``is_exact``, ``real``, ``over``) nor a second clearing
    (``_int_view``, ``_exact_view``)."""
    from valuta import linalg
    from valuta.polytope import Polytope
    from valuta.symtensor import SymTensor
    from valuta.valuation_lab import CheckReport

    for cls in (Polytope, SymTensor, CheckReport):
        names = {f.name for f in dataclasses.fields(cls)} | set(vars(cls))
        assert not {"exact", "mode", "_floats"} & names, cls.__name__
    for name in ("is_exact", "real", "over", "_int_view", "_exact_view"):
        assert not hasattr(linalg, name), name


def _float_sites(path):
    """Where a module names ``float``, holds a float literal, or calls
    ``math.sqrt`` or ``math.hypot`` (or imports them from ``math``)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Attribute) and node.attr in ("sqrt", "hypot")
              and getattr(node.value, "id", None) == "math"):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in ("sqrt", "hypot")]
    return found


def test_no_module_computes_in_floats():
    """Every number is rational: no module of ``valuta`` names ``float``,
    holds a float or complex literal (a tolerance such as 1e-9) or takes a
    square root or length in floats (``math.sqrt``, ``math.hypot``)."""
    for path in SOURCES:
        assert _float_sites(path) == [], path.name


@pytest.mark.parametrize("line", ["x = float(1)", "TOL = 1e-9", "r = math.sqrt(2)",
                                  "r = math.hypot(3, 4)", "from math import sqrt"])
def test_the_float_guard_sees_each_kind_of_site(tmp_path, line):
    path = tmp_path / "module.py"
    path.write_text(f"import math\n\n\ndef f():\n    {line}\n")
    assert len(_float_sites(path)) == 1


# The node types a generated geometric step may hold: one function of
# names, + and *, tuple packing and unpacking, and its return.
_STEP_NODES = (ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Assign, ast.Tuple,
               ast.Name, ast.Load, ast.Store, ast.BinOp, ast.Add, ast.Mult, ast.Return)


@pytest.mark.parametrize("n,r", [(1, 0), (1, 3), (3, 2), (6, 3)])
def test_generated_steps_hold_no_constants(n, r):
    """The moment kernel's generated source holds only names, ``+``, ``*``,
    tuples and ``return``: no constant of any kind, so the no-float promise
    of ``src/valuta`` covers generated code too."""
    from valuta import symtensor

    tree = ast.parse(symtensor._step_source(n, r))
    assert [type(node).__name__ for node in ast.walk(tree)
            if not isinstance(node, _STEP_NODES)] == []


# The node types any generated step may hold besides int constants: one
# function of names, +, - and *, unary -, tuples and lists, assignments
# and its return.
_GENERATED_NODES = (ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Assign, ast.Return,
                    ast.Name, ast.Load, ast.Store, ast.Tuple, ast.List, ast.BinOp, ast.Add,
                    ast.Sub, ast.Mult, ast.UnaryOp, ast.USub)


def test_code_is_generated_only_by_compile():
    """``exec``, ``compile`` and ``eval`` are named in ``src/valuta`` only
    inside ``symtensor._compile``, which formats source from checked ints
    alone; every source it formats, the geometric steps the tests build and
    the exterior steps of R^1..R^6 from every level, parses to one function
    of names, int constants, +, -, *, unary -, tuples and lists, its
    assignments and its return."""
    from valuta import symtensor

    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        inside = {}  # id(node) -> the innermost function holding it
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                inside.update((id(node), fn.name) for node in ast.walk(fn))
        sites += [(path.stem, inside.get(id(node)), node.id) for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id in ("exec", "compile", "eval")]
    assert sorted(sites) == [("symtensor", "_compile", "compile"),
                             ("symtensor", "_compile", "exec")]
    sources = [symtensor._step_source(n, r)
               for n, r in [(1, 0), (1, 3), (2, 4), (3, 2), (4, 3), (6, 2), (6, 3)]]
    sources += [symtensor._exterior_source(n, k) for n in range(1, 7) for k in range(n)]
    for source in sources:
        tree = ast.parse(source)
        assert [type(node) for node in tree.body] == [ast.FunctionDef]
        assert sum(isinstance(node, ast.FunctionDef) for node in ast.walk(tree)) == 1
        assert [ast.dump(node) for node in ast.walk(tree)
                if not (isinstance(node, _GENERATED_NODES) or isinstance(node, ast.Constant)
                        and type(node.value) is int)] == []


def test_cell_determinants_are_walked_only_by_the_memo():
    """``polytope.cell_dets`` is called only by ``Polytope.walk``, which keeps
    each body's walk and derives an exact image's from its source's, and by
    ``subspace_volume`` on its own coordinate view: no reader of a body's
    determinants walks its cells past the memo."""
    calling = sorted((path.stem, fn.name) for path in SOURCES for fn in _functions(path)
                     if "cell_dets" in _called(fn))
    assert calling == [("polytope", "subspace_volume"), ("polytope", "walk")]


def test_face_normals_are_walked_only_by_the_memo():
    """``polytope._face_normals`` is called only by ``Polytope.atoms``, which
    keeps each body's atoms: no reader of a body's surface area measure
    walks its boundary faces past the memo."""
    calling = sorted((path.stem, fn.name) for path in SOURCES for fn in _functions(path)
                     if "_face_normals" in _called(fn))
    assert calling == [("polytope", "atoms")]


def test_one_prefix_wedge_loop():
    """The exterior-product stack of a prefix walk is extended only by
    ``polytope._extend_wedge``, which both walks call (the cells'
    determinants and the boundary faces' normals), each edge one generated
    exterior step: ``polytope`` neither imports nor calls ``mul_form``,
    whose only callers are ``gl_action`` and ``shift_expansions``, and no
    per-face elimination (``linalg.cross``) is left."""
    from valuta import linalg, polytope

    calls = {(path.stem, fn.name): _called(fn) for path in SOURCES for fn in _functions(path)}
    assert sorted(site for site, names in calls.items() if "mul_form" in names) == [
        ("symtensor", "gl_action"), ("symtensor", "shift_expansions")]
    assert not hasattr(polytope, "mul_form")
    assert sorted(site for site, names in calls.items() if "_exterior_step" in names) == [
        ("polytope", "_face_normals"), ("polytope", "cell_dets")]
    assert sorted(site for site, names in calls.items() if "_extend_wedge" in names) == [
        ("polytope", "_face_normals"), ("polytope", "cell_dets")]
    assert not hasattr(linalg, "cross")
