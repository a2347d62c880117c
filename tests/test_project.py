import ast
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
