"""Plain enumerations that the tests use as oracles for the library's tables,
and reference versions of routines the library computes another way."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from valuta import linalg
from valuta.errors import GeometryError, ValutaError
from valuta.polytope import _volume, cell_dets, linear_image, surface_area_measure
from valuta.symtensor import SymTensor, format_rational, tensor_sum
from valuta.valuation_lab import _verdict


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


# -- products of rows and columns, schoolbook ----------------------------------------
# Each entry the sum of its row-by-column products in k order, as the library
# summed them before it cleared denominators: in Fractions when every entry is
# rational (ints made Fractions), else on the entries as given, in Python's
# own arithmetic.


def _schoolbook(entries):
    """The entries as Fractions when all are rational, else unchanged, and
    the converter used."""
    exact = all(isinstance(x, (int, Fraction)) for x in entries)
    return Fraction if exact else (lambda x: x)


def mat_mul_fractions(a, b) -> list[list]:
    conv = _schoolbook([x for m in (a, b) for row in m for x in row])
    return [[sum((conv(x) * conv(y) for x, y in zip(row, col)), conv(0)) for col in zip(*b)]
            for row in a]


def mat_vec_fractions(rows, x) -> tuple:
    """The rows times the column x, schoolbook as ``mat_mul_fractions``."""
    return tuple(y for y, in mat_mul_fractions(rows, [[y] for y in x]))


def support(p, u):
    """Support function h_P(u) = max <u, v> over the body's vertices."""
    return max(mat_vec_fractions(p.vertices, u))


def cmat_mul_fractions(a, b) -> list[list[tuple]]:
    """re = sum(x u - y v) and im = sum(x v + y u) over k, per entry."""
    conv = _schoolbook([x for m in (a, b) for row in m for z in row for x in z])
    out = []
    for row in a:
        out.append([])
        for col in zip(*b):
            terms = [((conv(x), conv(y)), (conv(u), conv(v))) for (x, y), (u, v) in zip(row, col)]
            out[-1].append((sum((x * u - y * v for (x, y), (u, v) in terms), conv(0)),
                            sum((x * v + y * u for (x, y), (u, v) in terms), conv(0))))
    return out


def subspace_volume_generators(p, basis):
    """``polytope.subspace_volume`` as it ran on a body's vertices with
    generator sums: coordinates <v, b> per basis vector, the residual
    reduced one basis vector at a time, then the coordinates cleared."""
    basis = [tuple(b) for b in basis]
    coords = []
    for pt in p.vertices:
        cs = [sum(a * b for a, b in zip(pt, bvec)) for bvec in basis]
        residual = list(pt)
        for c, bvec in zip(cs, basis):
            residual = [r - c * b for r, b in zip(residual, bvec)]
        if math.hypot(*residual) > 1e-8 * math.hypot(*pt):
            raise GeometryError("polytope does not lie in the subspace")
        coords.append(cs)
    view = linalg.clear_denominators(coords)
    return _volume(cell_dets(view, p.triangulation, len(basis)), view[0], len(basis))


# -- symmetric tensors as plain maps --------------------------------------------------
# A tensor as a dict from multi-index to its nonzero Fraction or float value,
# and the operations of ``symtensor`` on such maps in Python's arithmetic.


def map_scale(m: dict, c) -> dict:
    return {k: v * c for k, v in m.items() if v * c}


def map_sum(maps) -> dict:
    """The maps folded pairwise with +, as tensors add: the values at a key
    added in Python's arithmetic, and a sum with a float in it, the sum of
    a float tensor, held in floats throughout; zeros dropped."""
    total: dict = {}
    for m in maps:
        total = {k: total.get(k, 0) + m.get(k, 0) for k in {**total, **m}}
        if any(isinstance(v, float) for v in total.values()):
            total = {k: float(v) for k, v in total.items()}
        total = {k: v for k, v in total.items() if v}
    return total


def map_distance(a: dict, b: dict):
    """max |a_k - b_k| over the keys of either map; 0 when both are empty."""
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in {**a, **b}), default=Fraction(0))


def map_max_abs(m: dict):
    return max(map(abs, m.values()), default=Fraction(0))


# -- the surface-area transfer, paired on FacetDatum directions --------------------------


def transfer_check_fractions(f, phi, p):
    """``valuation_lab.transfer_check`` as it paired before the atoms' int
    totals: f over each ``FacetDatum`` direction of phi K, against f over
    phi^-T times each direction of K (``linalg.inv``, ``linalg.transpose``
    and ``mat_vec_fractions``), folded as ``surface_pairing`` folds and judged
    by ``_verdict``."""
    def pairing(g, body):
        values = [g(facet.direction) for facet in surface_area_measure(body)]
        if all(isinstance(v, SymTensor) for v in values):
            return tensor_sum(values)
        return sum(values[1:], values[0])

    phi_inv_t = linalg.transpose(linalg.inv(phi.entries))
    lhs = pairing(f, linear_image(phi, p))
    rhs = pairing(lambda v: f(mat_vec_fractions(phi_inv_t, v)), p)
    if not isinstance(lhs, SymTensor):
        lhs, rhs = SymTensor.scalar(p.dim, lhs), SymTensor.scalar(p.dim, rhs)
    return _verdict("surface-transfer", [(lhs, rhs, {"det": format_rational(phi.det)})],
                    *p.vertices, *phi.entries)


def cofactor_normal(rows) -> list:
    """(-1)^c det(rows without column c) for n - 1 rows in R^n, a normal to
    the rows, each minor by Leibniz's sum over permutations."""
    n = len(rows) + 1

    def leibniz(m):
        total = 0
        for perm in itertools.permutations(range(len(m))):
            term = (-1) ** sum(perm[j] > perm[i] for i in range(len(m)) for j in range(i))
            for row, p in zip(m, perm):
                term *= row[p]
            total += term
        return total

    return [(-1) ** c * leibniz([row[:c] + row[c + 1:] for row in rows]) for c in range(n)]
