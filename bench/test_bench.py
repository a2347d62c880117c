"""Tests of the benchmark itself: oracles, planted negatives and the tracer.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _wrapped(modules) -> list[str]:
    names = [f"{m}.{attr}" for m, mod in modules.items()
             for attr, value in vars(mod).items() if hasattr(value, "__wrapped__")]
    if hasattr(modules["symtensor"].SymTensor.__init__, "__wrapped__"):
        names.append("symtensor.SymTensor.__init__")
    return names


# -- oracles ------------------------------------------------------------------------


def test_box_formula_on_unit_cube():
    # The integral of x^alpha / alpha! over [0, 1]^n is prod 1 / (a_i + 1)!.
    got = workloads.box_moment([0, 0, 0], [1, 1, 1], 2)
    assert len(got) == 6
    assert got[(2, 0, 0)] == Fraction(1, 6)
    assert got[(1, 1, 0)] == Fraction(1, 4)


def test_box_oracle_rejects_a_wrong_tensor():
    _, modules, cases = run.setup("moment-kuhn", 0, 1)
    case = cases[0]
    assert case.run()
    real = modules["moment"].moment_tensor

    def off_by_one(body, r):
        res = real(body, r)
        coeffs = dict(res.tensor.coeffs)
        key = next(iter(coeffs))
        coeffs[key] += Fraction(1, 10 ** 30)
        return SimpleNamespace(tensor=modules["symtensor"].SymTensor(res.tensor.dim, r, coeffs))

    modules["moment"].moment_tensor = off_by_one
    try:
        assert not case.run()
    finally:
        modules["moment"].moment_tensor = real


def test_interpolant_agrees_at_nodes():
    q = workloads.interpolant(6, 4)
    for t in range(1, 5):
        assert sum(c * t ** j for j, c in enumerate(q)) == t ** 6


def test_planted_residual_is_exactly_ten_to_minus_400():
    v = SimpleNamespace(**run.import_valuta())
    tri = v.polytope.simplex([[0, 0], [Fraction(5, 3), Fraction(1, 7)], [Fraction(-1, 2), 2]])
    lam = Fraction(3, 2)
    eps = workloads.planted_epsilon(workloads.shoelace(list(tri.vertices)), 2, lam)

    def evaluate(b):
        vol = v.polytope.volume(b)
        return v.symtensor.SymTensor.scalar(2, vol + eps * vol * vol)

    z = v.valuation_lab.Valuation("planted", 0, 2, evaluate)
    base = v.valuation_lab.mcmullen_decompose(z, tri)
    dilated = v.valuation_lab.mcmullen_decompose(z, v.polytope.scale(tri, lam))
    residual = max((b - a.scale(lam ** j)).max_abs_coeff()
                   for j, (a, b) in enumerate(zip(base, dilated)))
    assert residual == workloads.PLANTED_RESIDUAL


def test_guard_rejects_a_vanishing_tensor():
    v = SimpleNamespace(**run.import_valuta())
    square = v.polytope.box([-1, -1], [1, 1])
    z = workloads._guarded(v, v.valuation_lab.moment_valuation(2, 1), square)
    shear = v.symtensor.RMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(workloads.TrivialTensor):
        v.valuation_lab.verify_equivariance(z, [shear], square)


# -- one cycle of every workload ------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_cycle(workload):
    _, modules, cases = run.setup(workload, 0, 1)
    out = run.run_cycles(cases, 0, cycles=1)
    assert out.attempted == len(cases)
    assert not out.unexpected, out.failures
    known = {c.name for c in cases if c.known_defect}
    # Known defects still fail; fixing one should clear its known_defect.
    assert {name for name, _, _ in out.failures} == known
    assert 10 * len(known) < len(cases)
    planted = [c.name for c in cases if c.name.startswith("planted")]
    if workload in ("equivariance-c3", "cascade"):
        assert planted
    if workload in ("cascade", "complex-structure"):
        assert known
    assert not _wrapped(modules)


def test_same_seed_same_inputs():
    def sizes(seed):
        _, _, cases = run.setup("cascade", seed, 1)
        return [(c.name, c.cells, c.den_bits) for c in cases]

    assert sizes(3) == sizes(3)


# -- tracer -------------------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores():
    modules = run.import_valuta()
    t = tracing.Tracer()
    t.install(modules)
    try:
        wrapped = set(_wrapped(modules))
    finally:
        t.uninstall()
    for name in ("linalg.det", "cplx.cdet", "cplx.crank", "moment.sym_product",
                 "valuation_lab.moment_tensor", "valuation_lab.gl_action",
                 "valuation_lab.linear_image", "symtensor.SymTensor.__init__"):
        assert name in wrapped
    assert not _wrapped(modules)


def test_self_times_sum_to_check_wall_time():
    _, modules, cases = run.setup("cascade", 0, 1)
    t = tracing.Tracer()
    t.install(modules)
    try:
        out = run.run_cycles(cases, 0, cycles=1, tracer=t)
    finally:
        t.uninstall()
    own = t.self_times()
    total = defaultdict(float)
    root = {}
    for i, (check, label) in enumerate(zip(t.check, t.label)):
        total[check] += own[i]
        if label == 0:
            root[check] = t.end[i] - t.start[i]
    assert sorted(root) == list(range(len(cases)))
    for check, wall in root.items():
        assert math.isclose(total[check], wall, rel_tol=1e-9, abs_tol=1e-12)
        assert wall >= out.times[check]
    assert min(own) > -1e-9
    metrics = tracing.layer_metrics(t, out.attempted)
    assert set(metrics) == set(tracing.per_layer_names()) - {"trace.overhead_frac"}
    assert metrics["linalg.det.calls"] > 0
    assert metrics["valuation_lab.rehomogeneity_check.self_s"] > 0
    assert metrics["moment.cells"] > 0


# -- command line and BENCHMARK.json ---------------------------------------------------------


def _cli(*args, cwd=BENCH.parent):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_cli_reports_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _cli("--workload", "complex-structure", "--seed", "2", "--seconds", "0.1",
                    "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] > 0
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    gated = {k: u for k, u in run.END_TO_END.items() if k not in run.UNGATED}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == gated
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_names()


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", "cascade", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
