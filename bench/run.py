"""valuta benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Closed loop in one process and one thread: each check starts when the
previous one has returned.  A workload's cycle of cases is repeated whole
until ``--seconds`` have passed and at least MIN_SAMPLES checks have run, so
every run has the same mix of sizes and at least ten samples beyond its
90th percentile.  ``--workload all`` runs each workload in its own process.

Timings are scaled to a nominal machine speed.  On a shared machine the
speed of identical work drifts by up to 1.8x within seconds and stays slow
for minutes, far more than the differences the benchmark must resolve.  A
fixed reference kernel (stdlib ``Fraction`` sums, no valuta code) is timed
at least every REF_GAP_S between checks, and each check's wall time is
multiplied by REF_NOMINAL_S over the reference time measured around it:
the seconds the check would take where the reference takes REF_NOMINAL_S.
The raw wall-time figures are printed alongside.

``--trace 0`` installs no wrappers and reports the end-to-end metrics.
``--trace 1`` runs cycles untraced for TRACED_SHARE of ``--seconds``, then
the same cycles traced, and reports per-layer calls, self time and counters
per check, plus the tracing overhead.  Every check's answer is verified in
both modes.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; ``correct`` is false when a
check fails that is not a known defect of the program.  valuta is imported
from the ``src`` directory beside this one; without it the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("errors", "linalg", "symtensor", "polytope", "moment", "cplx", "valuation_lab")
SETUP_REPEATS = 5
MIN_SAMPLES = 100
HARD_STOP_S = 120.0
TRACED_SHARE = 0.4  # of --seconds, for the untraced half of a traced run
REF_NOMINAL_S = 1e-3
REF_GAP_S = 0.05

# End-to-end metrics and units.  fail_frac is printed but not gated: it is
# zero on some workloads, and its parts are the result's failed/attempted.
END_TO_END = {
    "check_s.p50": "s",
    "check_s.p90": "s",
    "checks_per_s": "1/s",
    "fail_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
UNGATED = ("fail_frac",)


def reference_kernel() -> Fraction:
    """Fixed work, about REF_NOMINAL_S on an idle 2.1 GHz Xeon core."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return total


class Speed:
    """Times of the reference kernel, sampled through a run."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= REF_GAP_S:
            self.sample()

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` spent in [start, end], scaled by the reference times
        sampled last before start and first after end."""
        before = bisect.bisect_right(self.at, start) - 1
        after = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        ref = (self.took[max(before, 0)] + self.took[after]) / 2
        return seconds * REF_NOMINAL_S / ref


@dataclass
class Outcome:
    times: list[float] = field(default_factory=list)    # raw wall time per check
    scaled: list[float] = field(default_factory=list)   # scaled to nominal speed
    failed: list[bool] = field(default_factory=list)
    failures: dict[tuple[str, str, bool], int] = field(default_factory=dict)
    cycles: int = 0
    wall: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def n_failed(self) -> int:
        return sum(self.failed)

    @property
    def unexpected(self) -> list[tuple[str, str, bool]]:
        return [f for f in self.failures if not f[2]]


def import_valuta() -> dict:
    """Import the valuta modules afresh from ``SRC``."""
    for name in [m for m in sys.modules if m == "valuta" or m.startswith("valuta.")]:
        del sys.modules[name]
    modules = {m: importlib.import_module(f"valuta.{m}") for m in MODULES}
    if not Path(modules["linalg"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"valuta was not imported from {SRC}")
    return modules


def setup(workload: str, seed: int, repeats: int):
    """Import valuta and build the workload's inputs ``repeats`` times.

    Returns the median scaled time with the modules and cases of the last
    repetition.  numpy, which valuta imports, is loaded before timing: a
    process can import it only once, so no repetition could include it.
    """
    import numpy  # noqa: F401

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    speed = Speed()
    times = []
    for _ in range(repeats):
        speed.sample()
        t0 = time.perf_counter()
        modules = import_valuta()
        cases = workloads.build(workload, seed, modules)
        t1 = time.perf_counter()
        speed.sample()
        times.append(speed.scale(t1 - t0, t0, t1))
    return statistics.median(times), modules, cases


def run_cycles(cases, seconds: float, min_samples: int = 0, cycles: int | None = None,
               tracer: tracing.Tracer | None = None) -> Outcome:
    """Repeat the cycle of cases, timing and verifying each check, until
    ``seconds`` have passed and ``min_samples`` checks have run (or
    HARD_STOP_S has passed), or for exactly ``cycles`` cycles."""
    out = Outcome()
    speed = Speed()
    spans = []
    clock = time.perf_counter
    start = clock()
    while True:
        for case in cases:
            speed.sample_if_due()
            if tracer is not None:
                tracer.begin_check(out.attempted)
            t0 = clock()
            why = ""
            try:
                if not case.run():
                    why = "wrong answer"
            except Exception as exc:  # a check that raises is a failed check
                why = f"{type(exc).__name__}: {exc}"
            t1 = clock()
            if tracer is not None:
                tracer.end_check()
            out.times.append(t1 - t0)
            spans.append((t0, t1))
            out.failed.append(bool(why))
            if why:
                key = (case.name, why[:200], bool(case.known_defect))
                out.failures[key] = out.failures.get(key, 0) + 1
        out.cycles += 1
        elapsed = clock() - start
        if cycles is not None:
            if out.cycles >= cycles:
                break
        elif (elapsed >= seconds and out.attempted >= min_samples) or elapsed >= HARD_STOP_S:
            break
    out.wall = clock() - start
    speed.sample()
    out.scaled = [speed.scale(t, t0, t1) for t, (t0, t1) in zip(out.times, spans)]
    return out


def percentile(ascending: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return ascending[max(0, math.ceil(q * len(ascending)) - 1)]


def end_to_end(out: Outcome, per_cycle: int, setup_s: float) -> dict[str, float]:
    # Each check counts at its case's median over the run, which damps the
    # scatter that remains after scaling.  A failed check ranks slower than
    # every check that passed.
    typical = [statistics.median(out.scaled[i::per_cycle]) for i in range(per_cycle)]
    ranked = sorted(math.inf if bad else typical[i % per_cycle]
                    for i, bad in enumerate(out.failed))
    return {
        "check_s.p50": percentile(ranked, 0.5),
        "check_s.p90": percentile(ranked, 0.9),
        "checks_per_s": (out.attempted - out.n_failed) / sum(out.scaled),
        "fail_frac": out.n_failed / out.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def raw_wall(out: Outcome) -> str:
    ranked = sorted(math.inf if bad else t for t, bad in zip(out.times, out.failed))
    return (f"raw wall time: p50 {percentile(ranked, 0.5):.6g} s, p90 "
            f"{percentile(ranked, 0.9):.6g} s, {(out.attempted - out.n_failed) / out.wall:.6g} "
            f"correct checks/s over {out.wall:.2f} s")


def describe(workload: str, cases) -> str:
    """Size descriptors of one cycle, and the size of the program."""
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "valuta").glob("*.py"))
    return (f"sizes {workload}: {len(cases)} cases per cycle, "
            f"dims {sorted({c.dim for c in cases})}, ranks {sorted({c.rank for c in cases})}, "
            f"cells {sum(c.cells for c in cases)}, tensor coefficients "
            f"{sum(c.coeffs for c in cases)}, input denominator bits <= "
            f"{max(c.den_bits for c in cases)}; src/valuta lines {src_lines}")


def report_failures(out: Outcome, phase: str = "") -> None:
    for (case, why, known), count in sorted(out.failures.items()):
        label = "known defect" if known else "UNEXPECTED"
        print(f"  failed{phase} x{count} [{label}] {case}: {why}")


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    setup_s, _, cases = setup(workload, seed, SETUP_REPEATS)
    out = run_cycles(cases, seconds, MIN_SAMPLES)
    values = end_to_end(out, len(cases), setup_s)
    n = out.attempted
    beyond = n - math.ceil(0.9 * n)
    print(describe(workload, cases))
    print(f"{workload} seed {seed}: {n} checks in {out.cycles} cycles of {len(cases)}, "
          f"{out.n_failed} failed, {out.wall:.2f} s")
    notes = {
        "check_s.p50": f"n={n}, {len(cases)} cases x {out.cycles}",
        "check_s.p90": f"n={n}, {beyond} beyond",
        "checks_per_s": f"{n - out.n_failed} correct",
        "fail_frac": f"{out.n_failed}/{n}",
        "setup_s": f"median of {SETUP_REPEATS}",
        "peak_rss_mb": "ru_maxrss",
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {values[name]:>12.6g} {unit:<6} ({notes[name]})")
    print(f"  {raw_wall(out)}")
    report_failures(out)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items() if name not in UNGATED}
    return {"correct": not out.unexpected, "attempted": n, "failed": out.n_failed,
            "metrics": metrics}


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    _, modules, cases = setup(workload, seed, 1)
    plain = run_cycles(cases, seconds * TRACED_SHARE)
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        traced = run_cycles(cases, 0, cycles=plain.cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    values = tracing.layer_metrics(tracer, traced.attempted)
    values["trace.overhead_frac"] = sum(traced.scaled) / sum(plain.scaled) - 1
    print(describe(workload, cases))
    print(f"{workload} seed {seed} traced: {traced.attempted} checks in {traced.cycles} cycles, "
          f"{len(tracer.start)} spans, {traced.wall:.2f} s traced vs {plain.wall:.2f} s untraced")
    for name in tracing.per_layer_names():
        print(f"  {name:<44} {values[name]:>12.6g} {tracing.unit_of(name)}")
    report_failures(plain, " untraced")
    report_failures(traced, " traced")
    metrics = {name: {"value": values[name], "unit": tracing.unit_of(name)}
               for name in tracing.per_layer_names()}
    return {"correct": not (plain.unexpected or traced.unexpected),
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.n_failed + traced.n_failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in a process of its own; print every metric per workload."""
    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {workload} exited with {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}:{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "valuta" / "__init__.py").is_file():
        print(f"valuta sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = run_traced(args.workload, args.seed, args.seconds)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
