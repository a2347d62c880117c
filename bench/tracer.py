"""In-memory span tracer for the benchmark's traced runs.

``Tracer.install`` wraps the public functions named in ``LAYERS`` in every
valuta module that binds them, including names a module took with
``from ... import``, and ``SymTensor.__init__`` (construction including
validation).  Each call records a span: name, start, end, parent span and
the id of the benchmark check it ran under.  Spans stay in columnar arrays
until ``summary`` turns them into calls and self time per function, where
self time is a span's duration minus the durations of its direct children.
``uninstall`` puts every original back; an untraced run never installs.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from types import ModuleType

# Public functions timed per layer (module of valuta -> names defined there).
LAYERS: dict[str, tuple[str, ...]] = {
    "linalg": ("det", "rref", "cdet", "crank"),
    "moment": ("moment_tensor",),
    "symtensor": ("SymTensor", "sym_product", "vector_power", "gl_action"),
    "polytope": ("linear_image", "translate", "scale", "volume",
                 "surface_area_measure", "subspace_volume"),
    "cplx": ("adapted_basis", "complex_rank", "realify", "sample_subspace"),
    "valuation_lab": ("verify_equivariance", "verify_covariance", "mcmullen_decompose",
                      "rehomogeneity_check", "scaling_relation_check", "transfer_check",
                      "klain"),
}

ROOT = "check"


def _moment_counts(counters, args, result):
    counters["moment.cells"] += len(args[0].triangulation)
    coeffs = result.tensor.coeffs
    counters["moment.coeffs_out"] += len(coeffs)
    bits = max((v.denominator.bit_length() for v in coeffs.values()), default=0)
    counters["moment.den_bits_max"] = max(counters["moment.den_bits_max"], bits)


def _pair_counts(counters, args, result):
    counters["symtensor.sym_product.pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


def _retry_counts(counters, args, result):
    counters["cplx.sample_subspace.retries"] += result.retries


# Counters taken at layer boundaries, run after the span closes.
COUNTERS = {
    "moment.moment_tensor": _moment_counts,
    "symtensor.sym_product": _pair_counts,
    "cplx.sample_subspace": _retry_counts,
}
# Every counter reported; wrappers also count "<label>.errors" for calls
# that raised.  Maxima are not divided per check.
COUNTER_NAMES = (
    "moment.cells", "moment.coeffs_out", "moment.den_bits_max",
    "symtensor.sym_product.pairs", "polytope.surface_area_measure.errors",
    "cplx.sample_subspace.retries",
)
MAXIMA = ("moment.den_bits_max",)


class Tracer:
    def __init__(self):
        self.labels: list[str] = [ROOT]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.label = array("q")
        self.check = array("q")
        self.stack = [-1]
        self.check_id = -1
        self.counters: dict[str, float] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def _open(self, label_idx: int) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self.stack[-1])
        self.label.append(label_idx)
        self.check.append(self.check_id)
        self.stack.append(idx)
        return idx

    def begin_check(self, check_id: int) -> None:
        """Open the root span of one benchmark check."""
        self.check_id = check_id
        idx = self._open(0)
        self.start[idx] = time.perf_counter()

    def end_check(self) -> None:
        idx = self.stack.pop()
        self.end[idx] = time.perf_counter()
        self.check_id = -1

    def _wrap(self, fn, label: str):
        label_idx = len(self.labels)
        self.labels.append(label)
        count = COUNTERS.get(label)
        counters = self.counters
        start, end, stack, clock = self.start, self.end, self.stack, time.perf_counter
        open_span = self._open

        def traced(*args, **kwargs):
            idx = open_span(label_idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
                counters[label + ".errors"] += 1
                raise
            end[idx] = clock()
            start[idx] = t0
            stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    # -- installing ---------------------------------------------------------------

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every LAYERS function wherever a valuta module binds it.

        ``modules`` maps short names ("linalg", ...) to the imported valuta
        modules; every one of them is searched for bindings.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        for home, names in LAYERS.items():
            for name in names:
                original = getattr(modules[home], name)
                if isinstance(original, type):
                    init = original.__init__
                    self._patch(original, "__init__", init, self._wrap(init, f"{home}.{name}"))
                    continue
                wrapper = self._wrap(original, f"{home}.{name}")
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self) -> dict[str, tuple[int, float]]:
        """(calls, total self seconds) per traced label, root included."""
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, float] = defaultdict(float)
        for lab, t in zip(self.label, self.self_times()):
            name = self.labels[lab]
            calls[name] += 1
            own[name] += t
        return {name: (calls[name], own[name]) for name in calls}


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for home, funcs in LAYERS.items():
        for func in funcs:
            label = f"{home}.{func}"
            if home != "valuation_lab":
                names.append(label + ".calls")
            names.append(label + ".self_s")
        names += [c for c in COUNTER_NAMES if c.startswith(home + ".")]
    names.append("trace.overhead_frac")
    return names



def unit_of(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/check"
    if name in MAXIMA:
        return "bits"
    if name == "trace.overhead_frac":
        return "ratio"
    return "1/check"


def layer_metrics(tracer: Tracer, checks: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, each sum divided by the checks run."""
    summary = tracer.summary()
    out = {}
    for name in per_layer_names():
        if name == "trace.overhead_frac":
            continue
        if name.endswith(".calls") or name.endswith(".self_s"):
            label, field = name.rsplit(".", 1)
            calls, own = summary.get(label, (0, 0.0))
            out[name] = (calls if field == "calls" else own) / checks
        elif name in MAXIMA:
            out[name] = tracer.counters[name]
        else:
            out[name] = tracer.counters[name] / checks
    return out
