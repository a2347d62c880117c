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
bodies run through the same sums in floats with D = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import GeometryError
from .polytope import Polytope
from .symtensor import (MultiIndex, SymTensor, divide_totals, monomial_tables, mul_form,
                        sym_product, vector_power)


def _moment_coefficients(points: Sequence[Sequence], cells: Sequence[Sequence[int]],
                         n: int, r: int) -> dict[MultiIndex, Fraction]:
    """Sum over the full-dimensional cells of the closed form; keys are
    degree-r multi-indices, zeros left out."""
    scale, pts = linalg.clear_denominators(points)
    levels, steps, _ = monomial_tables(n, r)
    totals = [0] * len(levels[r])
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
        totals = [a + b for a, b in zip(totals, h[r])]
    return divide_totals(levels[r], totals, math.factorial(n + r) * scale ** (n + r))


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
    coeffs = _moment_coefficients(s.vertices, [range(n + 1)], n, sum(alpha))
    return math.prod(math.factorial(a) for a in alpha) * coeffs.get(alpha, Fraction(0))


@dataclass(frozen=True)
class MomentResult:
    tensor: SymTensor
    body: Polytope
    rank: int


def moment_tensor(k: Polytope, r: int) -> MomentResult:
    """Rank-r moment tensor of a triangulated polytope, exact.

    Lower-dimensional bodies integrate to zero.  Rank 0 is the volume.
    """
    if r < 0:
        raise ValueError("moment tensor rank must be non-negative")
    if k.triangulation is None:
        raise GeometryError("moment tensor needs a triangulation")
    coeffs = _moment_coefficients(k.points, k.triangulation, k.dim, r)
    if r == 0:
        coeffs = {(): c for c in coeffs.values()}
    return MomentResult(SymTensor._trusted(k.dim, r, coeffs), k, r)


def covariance_expansion(k: Polytope, y: Sequence, r: int) -> SymTensor:
    """Right-hand side of the translation-covariance expansion: the sum over
    j of M^(r-j)(K) sym-times y^j / j!."""
    y = tuple(linalg.frac(v) for v in y)
    total = SymTensor.zero(k.dim, r)
    for j in range(r + 1):
        lower = moment_tensor(k, r - j).tensor
        shift = vector_power(y, j).scale(Fraction(1, math.factorial(j)))
        total = total + sym_product(lower, shift)
    return total
