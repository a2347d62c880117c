"""Plain enumerations that the tests use as oracles for the library's tables,
and reference versions of routines the library computes another way."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from typing import Iterator

from valuta import linalg
from valuta.errors import GeometryError, ValutaError
from valuta.polytope import (
    Polytope, _volume, cell_dets, cube, linear_image, scale, surface_area_measure,
)
from valuta.symtensor import SymTensor, format_rational, parse_rational, tensor_sum
from valuta.valuation_lab import _verdict


def multi_indices(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """All length-n multi-indices of degree r, in decreasing lexicographic order."""
    if n == 1:
        yield (r,)
        return
    for first in range(r, -1, -1):
        for rest in multi_indices(n - 1, r - first):
            yield (first,) + rest


def float_twin(body: Polytope) -> Polytope:
    """The body that a JSON document gives when it writes each coordinate of
    ``body`` as its nearest float: ``from_json_dict`` reads every float as
    the exact rational it is, so the twin is exact and lies within rounding
    of ``body``, with the same cells."""
    data = body.to_json_dict()
    data["vertices"] = [[float(parse_rational(x)) for x in v] for v in data["vertices"]]
    return Polytope.from_json_dict(json.loads(json.dumps(data)))


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
# projection is a Fraction dot product against unit vectors.


def reduce_fractions(v, basis) -> tuple:
    """v minus its projections onto the orthonormal vectors of basis, taken
    one after another (modified Gram-Schmidt)."""
    w = tuple(v)
    for b in basis:
        c = sum(x * y for x, y in zip(w, b))
        w = tuple(x - c * y for x, y in zip(w, b))
    return w


def unit_fractions(w):
    """w over its length, which must be rational, or None when w is zero."""
    norm_sq = Fraction(sum(x * x for x in w))
    if norm_sq == 0:
        return None
    rn, rd = math.isqrt(norm_sq.numerator), math.isqrt(norm_sq.denominator)
    if rn * rn != norm_sq.numerator or rd * rd != norm_sq.denominator:
        raise ValutaError(f"exact orthonormalization needs a perfect-square norm, got {norm_sq}")
    return tuple(x / Fraction(rn, rd) for x in w)


def gram_schmidt_fractions(vecs, basis=()) -> list[tuple]:
    out = list(basis)
    for v in vecs:
        unit = unit_fractions(reduce_fractions(v, out))
        if unit is not None:
            out.append(unit)
    return out[len(basis):]


def adapted_basis_fractions(l):
    """The split L = U + W of ``cplx.adapted_basis``, in Fractions."""
    from valuta.cplx import Subspace, j_apply

    basis = list(l.basis)
    j, n = len(basis), l.ambient
    jb = [j_apply(v) for v in basis]
    g = [[sum(x * y for x, y in zip(a, b)) for b in basis] for a in jb]
    cols = [[x - sum(g[a][c] * jb[a][i] for a in range(j)) for i, x in enumerate(basis[c])]
            for c in range(j)]
    null = linalg.nullspace(linalg.transpose(cols))
    u_vectors = [tuple(sum(x * y for x, y in zip(col, c)) for col in zip(*basis))
                 for c in null]
    if len(u_vectors) % 2 != 0:
        raise GeometryError("intersection with its J-image must be even-dimensional")
    pairs: list[tuple] = []
    while len(pairs) < len(u_vectors):
        reduced = (reduce_fractions(v, pairs) for v in u_vectors)
        unit = unit_fractions(max(reduced, key=lambda w: sum(x * x for x in w)))
        if unit is None:
            raise GeometryError("failed to span the complex part")
        pairs += [unit, j_apply(unit)]
    w_basis = gram_schmidt_fractions(basis, pairs)
    if len(w_basis) != j - len(pairs):
        raise GeometryError("complex/real split dimensions do not add up")
    return Subspace(n, tuple(pairs[::2] + w_basis + pairs[1::2]), retries=l.retries)


# -- Klain probes and sampled subspaces in Fractions ---------------------------------
# As the library built them before it read subspaces' integer views: probe
# points from a Fraction matrix product and the body made from them, and
# Cayley columns from ``linalg.inv``, tested for their complex rank as
# Fractions.


def _probe_by_points(l, corners, cells):
    return Polytope(l.ambient, tuple(map(tuple, linalg.mat_mul(corners, l.basis))), cells)


def cube_probe_by_points(l):
    model = cube(l.dim)
    return _probe_by_points(l, [tuple(map(int, v)) for v in model.vertices], model.triangulation)


def simplex_probe_by_points(l):
    j = l.dim
    corners = [tuple([0] * j)] + [tuple(1 if k == i else 0 for k in range(j)) for i in range(j)]
    return _probe_by_points(l, corners, (tuple(range(j + 1)),))


def sample_subspace_fractions(m, j, seed):
    """``cplx.sample_subspace`` on the Fraction inverse of I + A."""
    from valuta.cplx import Subspace, complex_rank

    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = 2 * m
    for attempt in range(100):
        a = [[0] * n for _ in range(n)]
        for r in range(n):
            for c in range(r + 1, n):
                a[r][c] = rng.randint(-3, 3)
                a[c][r] = -a[r][c]
        inv = linalg.inv([[int(r == c) + x for c, x in enumerate(row)] for r, row in enumerate(a)])
        basis = tuple(tuple(2 * row[c] - int(r == c) for r, row in enumerate(inv))
                      for c in range(j))
        if complex_rank(basis) == min(j, m):
            return Subspace(n, basis, retries=attempt)
    raise ValutaError("subspace sampling exhausted its retry budget")


# -- products of rows and columns, schoolbook ----------------------------------------
# Each entry the sum of its row-by-column products in k order, in Fractions
# (ints made Fractions), as the library summed them before it cleared
# denominators.


def mat_mul_fractions(a, b) -> list[list]:
    return [[sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def mat_vec_fractions(rows, x) -> tuple:
    """The rows times the column x, schoolbook as ``mat_mul_fractions``."""
    return tuple(y for y, in mat_mul_fractions(rows, [[y] for y in x]))


def support(p, u):
    """Support function h_P(u) = max <u, v> over the body's vertices."""
    return max(mat_vec_fractions(p.vertices, u))


def cmat_mul_fractions(a, b) -> list[list[tuple]]:
    """re = sum(x u - y v) and im = sum(x v + y u) over k, per entry."""
    f, zero = Fraction, Fraction(0)
    out = []
    for row in a:
        out.append([])
        for col in zip(*b):
            terms = [((f(x), f(y)), (f(u), f(v))) for (x, y), (u, v) in zip(row, col)]
            out[-1].append((sum((x * u - y * v for (x, y), (u, v) in terms), zero),
                            sum((x * v + y * u for (x, y), (u, v) in terms), zero)))
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
        if any(residual):
            raise GeometryError("polytope does not lie in the subspace")
        coords.append(cs)
    view = linalg.clear_denominators(coords)
    return _volume(cell_dets(view, p.triangulation, len(basis)), view[0], len(basis))


# -- symmetric tensors as plain maps --------------------------------------------------
# A tensor as a dict from multi-index to its nonzero Fraction value, and the
# operations of ``symtensor`` on such maps in Fractions.


def map_scale(m: dict, c) -> dict:
    return {k: v * c for k, v in m.items() if v * c}


def map_sum(maps) -> dict:
    """The maps folded pairwise with +, as tensors add; zeros dropped."""
    total: dict = {}
    for m in maps:
        total = {k: total.get(k, 0) + m.get(k, 0) for k in {**total, **m}}
        total = {k: v for k, v in total.items() if v}
    return total


def map_distance(a: dict, b: dict):
    """max |a_k - b_k| over the keys of either map; 0 when both are empty."""
    return max((abs(a.get(k, 0) - b.get(k, 0)) for k in {**a, **b}), default=Fraction(0))


def map_max_abs(m: dict):
    return max(map(abs, m.values()), default=Fraction(0))


def map_shift_expansion(maps, y) -> dict:
    """sum_j T_j y^j / j! for tensors T_0..T_R of ranks R..0 given as maps:
    the coefficient of y^j / j! at alpha is prod y_i^a_i / a_i!, and each
    product adds the multi-indices (``()`` is the rank-0 key)."""
    total: dict = {}
    for j, m in enumerate(maps):
        power = {alpha: math.prod(Fraction(c) ** a / math.factorial(a) for c, a in zip(y, alpha))
                 for alpha in multi_indices(len(y), j)} if j else {(): Fraction(1)}
        for ka, x in m.items():
            for kb, c in power.items():
                k = tuple(a + b for a, b in zip(ka, kb)) if ka and kb else ka or kb
                total[k] = total.get(k, 0) + x * c
    return {k: v for k, v in total.items() if v}


# -- the rehomogeneity check on nested dilates -----------------------------------------


def rehomogeneity_by_nested_dilates(z, body, lam):
    """``valuation_lab.rehomogeneity_check`` as it ran on three separate
    evaluations: components of z at K from z(k K), components at lam K from
    z(k (lam K)), dilates of the dilate, for k = 1..N + 1, each solved with
    ``linalg.inv`` of the Vandermonde matrix and summed as tensors, and
    their sum against a fresh z(K); judged by ``_verdict``."""
    top = body.dim + z.rank
    inverse = linalg.inv([[k ** j for j in range(top + 1)] for k in range(1, top + 2)])

    def decompose(b):
        values = [z(scale(b, k)) for k in range(1, top + 2)]
        return [tensor_sum([v.scale(w) for v, w in zip(values, row)]) for row in inverse]

    lam = Fraction(lam)
    base, dilated = decompose(body), decompose(scale(body, lam))
    shown = format_rational(lam)
    pairs = [(d, b.scale(lam ** j), {"degree": j, "lambda": shown})
             for j, (b, d) in enumerate(zip(base, dilated))]
    pairs.append((tensor_sum(base), z(body), {"degree": "sum-at-1", "lambda": shown}))
    return _verdict("mcmullen-rehomogeneity", pairs)


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
    return _verdict("surface-transfer", [(lhs, rhs, {"det": format_rational(phi.det)})])


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
