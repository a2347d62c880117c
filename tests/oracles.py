"""Plain enumerations that the tests use as oracles for the library's tables,
and reference versions of routines the library computes another way."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from valuta.errors import GeometryError, ValutaError


def multi_indices(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """All length-n multi-indices of degree r, in decreasing lexicographic order."""
    if n == 1:
        yield (r,)
        return
    for first in range(r, -1, -1):
        for rest in multi_indices(n - 1, r - first):
            yield (first,) + rest


def monomial_integral_simplex(s, alpha) -> Fraction:
    """Exact integral of x^alpha over a full-dimensional simplex: alpha!
    times the coefficient at alpha of its moment tensor of rank |alpha|."""
    from valuta.moment import moment_tensor

    alpha = tuple(alpha)
    coeff = moment_tensor(s, sum(alpha)).tensor.coeff(alpha)
    return math.prod(map(math.factorial, alpha)) * coeff


def centre_cone_crosspolytope(vecs):
    """The crosspolytope on ``vecs`` as the 2^j cones over its centre: the
    vertices +-v_i at 2i, 2i + 1, then the centre at 2j, in every cell
    first."""
    from valuta.polytope import Polytope

    j, n = len(vecs), len(vecs[0])
    points = [tuple(s * Fraction(x) for x in v) for v in vecs for s in (1, -1)]
    cells = tuple((2 * j,) + tuple(2 * i + (mask >> i & 1) for i in range(j))
                  for mask in range(1 << j))
    return Polytope(n, tuple(points) + ((Fraction(0),) * n,), cells)


# -- Gram-Schmidt and the adapted basis in Fractions ---------------------------------
# The orthonormalisation as it ran before it cleared denominators: every
# projection is a Fraction (or float) dot product against unit vectors.


def reduce_fractions(v, basis) -> tuple:
    """v minus its projections onto the orthonormal vectors of basis, taken
    one after another (modified Gram-Schmidt)."""
    w = tuple(v)
    for b in basis:
        c = sum(x * y for x, y in zip(w, b))
        w = tuple(x - c * y for x, y in zip(w, b))
    return w


def unit_fractions(w, tol):
    """w over its length, or None when the length is at most tol; an exact
    w needs a rational length."""
    norm_sq = sum(x * x for x in w)
    if norm_sq <= tol * tol:
        return None
    if isinstance(norm_sq, float):
        root = math.sqrt(norm_sq)
    else:
        root = Fraction(norm_sq)
        rn, rd = math.isqrt(root.numerator), math.isqrt(root.denominator)
        if rn * rn != root.numerator or rd * rd != root.denominator:
            raise ValutaError(
                f"exact orthonormalization needs a perfect-square norm, got {norm_sq}")
        root = Fraction(rn, rd)
    return tuple(x / root for x in w)


def gram_schmidt_fractions(vecs, tol, basis=()) -> list[tuple]:
    out = list(basis)
    for v in vecs:
        unit = unit_fractions(reduce_fractions(v, out), tol)
        if unit is not None:
            out.append(unit)
    return out[len(basis):]


def adapted_basis_fractions(l):
    """The split L = U + W of ``cplx.adapted_basis``, in Fractions for an
    exact basis and in floats otherwise."""
    from valuta import linalg
    from valuta.cplx import Subspace, _nonzero, j_apply

    basis = list(l.basis)
    j, n = len(basis), l.ambient
    jb = [j_apply(v) for v in basis]
    g = [[sum(x * y for x, y in zip(a, b)) for b in basis] for a in jb]
    cols = [[x - sum(g[a][c] * jb[a][i] for a in range(j)) for i, x in enumerate(basis[c])]
            for c in range(j)]
    if l.exact:
        null = linalg.nullspace(linalg.transpose(cols))
        tol = 0
    else:
        _, sines, vt = np.linalg.svd(np.array(cols, dtype=float).T)
        null = vt[~_nonzero(np.tan(np.arcsin(np.minimum(sines, 1.0)) / 2))].tolist()
        tol = 1e-9
    u_vectors = [tuple(sum(x * y for x, y in zip(col, c)) for col in zip(*basis))
                 for c in null]
    if len(u_vectors) % 2 != 0:
        raise GeometryError("intersection with its J-image must be even-dimensional")
    pairs: list[tuple] = []
    while len(pairs) < len(u_vectors):
        reduced = (reduce_fractions(v, pairs) for v in u_vectors)
        unit = unit_fractions(max(reduced, key=lambda w: sum(x * x for x in w)), tol)
        if unit is None:
            raise GeometryError("failed to span the complex part")
        pairs += [unit, j_apply(unit)]
    w_basis = gram_schmidt_fractions(basis, tol, pairs)
    if len(w_basis) != j - len(pairs):
        raise GeometryError("complex/real split dimensions do not add up")
    return Subspace(n, tuple(pairs[::2] + w_basis + pairs[1::2]), retries=l.retries)
