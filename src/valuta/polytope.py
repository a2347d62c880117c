"""Convex polytopes with exact rational vertices.

Polytopes are built from generators with known combinatorics (simplices,
boxes, crosspolytopes, 2D polygons) or imported with an explicit
triangulation; there is no general convex-hull machinery beyond the plane.
Triangulation cells index into ``points`` = vertices followed by auxiliary
interior points (the crosspolytope triangulation cones over its center).
Affine maps carry the points and keep the triangulation.

Facet data is kept exact by using each facet's outward *area vector*: the
unit normal scaled by the facet's (n-1)-volume.  Area vectors of rational
polytopes are rational even when facet measures are irrational (sqrt(2) edge
lengths and the like), they sum to zero exactly, and they are all a
1-homogeneous integrand ever needs.  They are read off the triangulation on
demand, by one rule for every body (``surface_area_measure``), unless the
body carries imported facet data.

Polytope JSON:
``{"dim": n, "vertices": [["p/q", ...], ...], "triangulation": [[i, ...], ...],
"aux_points": [...], "facets": [{"normal": [...], "measure": "..."}]}``
(triangulation, aux_points and facets optional).  Import rejects cells that
repeat an index, differ in size or exceed dim + 1 points, full-dimensional
cells of determinant 0, facets that do not sum to zero and, for exact
full-dimensional bodies, a volume that differs from the sum of the facet
offsets over n (divergence theorem).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import DimensionMismatch, GeometryError, ParseError
from .linalg import exact_sqrt, frac
from .symtensor import RMatrix, format_rational, parse_rational

Vec = tuple[Fraction, ...]


def _vec(xs: Sequence) -> Vec:
    return tuple(frac(x) for x in xs)


def _add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class FacetDatum:
    """One atom of a polytope's surface area measure.

    ``direction`` is the outward area vector; its Euclidean length is the
    facet measure, so the exact square of the measure is |direction|^2.
    ``offset`` is the support value max <direction, v> over the vertices.
    """

    direction: tuple
    offset: Fraction

    @property
    def measure_sq(self):
        return sum(x * x for x in self.direction)

    @property
    def measure(self):
        """Facet (n-1)-volume, exact when |direction|^2 is a perfect square."""
        msq = self.measure_sq
        if isinstance(msq, Fraction):
            root = exact_sqrt(msq)
            if root is not None:
                return root
        return math.sqrt(float(msq))

    @property
    def unit_normal(self) -> tuple[float, ...]:
        w = math.sqrt(float(self.measure_sq))
        return tuple(float(x) / w for x in self.direction)

    def to_json_dict(self) -> dict:
        return {
            "normal": [format_rational(x) for x in self.direction],
            "measure": format_rational(self.measure),
        }


@dataclass(frozen=True)
class Polytope:
    dim: int
    vertices: tuple[Vec, ...]
    triangulation: tuple[tuple[int, ...], ...] | None = None
    aux_points: tuple[Vec, ...] = ()
    facets: tuple[FacetDatum, ...] | None = None

    def __post_init__(self):
        if not self.vertices:
            raise GeometryError("polytope needs at least one vertex")
        for v in self.vertices + self.aux_points:
            if len(v) != self.dim:
                raise DimensionMismatch(f"point {v} not in R^{self.dim}")

    @property
    def points(self) -> tuple[Vec, ...]:
        return self.vertices + self.aux_points

    def to_json_dict(self) -> dict:
        data: dict = {
            "dim": self.dim,
            "vertices": [[format_rational(x) for x in v] for v in self.vertices],
        }
        if self.triangulation is not None:
            data["triangulation"] = [list(c) for c in self.triangulation]
        if self.aux_points:
            data["aux_points"] = [[format_rational(x) for x in v] for v in self.aux_points]
        if self.facets is not None:
            data["facets"] = [f.to_json_dict() for f in self.facets]
        return data

    @staticmethod
    def from_json_dict(data: Mapping) -> "Polytope":
        try:
            dim = int(data["dim"])
            vertices = tuple(_vec([parse_rational(x) for x in v]) for v in data["vertices"])
            tri = data.get("triangulation")
            if tri is not None:
                tri = tuple(tuple(int(i) for i in cell) for cell in tri)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad polytope JSON: {exc}") from exc
        aux = tuple(
            _vec([parse_rational(x) for x in v]) for v in data.get("aux_points", []))
        facets = None
        if "facets" in data:
            directions = [_parse_facet(raw, dim) for raw in data["facets"]]
            facets = tuple(
                FacetDatum(d, max(linalg.dot(d, v) for v in vertices)) for d in directions)
        p = Polytope(dim, vertices, tri, aux, facets)
        _check_import(p)
        return p


def _check_import(p: Polytope) -> None:
    """Raise ``ParseError`` unless the triangulation and the facets of an
    imported body are consistent (see the module docstring)."""
    n, tri, vol = p.dim, p.triangulation, None
    if tri is not None:
        sizes = {len(cell) for cell in tri}
        if any(i < 0 or i >= len(p.points) for cell in tri for i in cell):
            raise ParseError("triangulation index out of range")
        if any(len(set(cell)) != len(cell) for cell in tri):
            raise ParseError("triangulation cell repeats an index")
        if len(sizes) > 1 or max(sizes, default=0) > n + 1:
            raise ParseError(f"triangulation cells must share one size of at most {n + 1}")
        if sizes == {n + 1}:
            _, pts = linalg.clear_denominators(p.points)
            if any(linalg.bareiss([[a - b for a, b in zip(pts[i], pts[c[0]])] for i in c[1:]]) == 0
                   for c in tri):
                raise ParseError("triangulation cell of determinant 0")
            vol = volume(p)
    if p.facets is not None:
        if not _closes(p.facets, n):
            raise ParseError("facet area vectors do not close up")
        exact = linalg.is_exact(x for f in p.facets for x in f.direction)
        if vol is not None and exact and n * vol != sum(f.offset for f in p.facets):
            raise ParseError("volume differs from the facets' sum of offsets / n")


def _parse_facet(data: Mapping, dim: int) -> tuple:
    """Reconstruct a facet's area vector from its (normal, measure) pair."""
    try:
        raw_normal = data["normal"]
        raw_measure = data["measure"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad facet JSON: {exc}") from exc
    if len(raw_normal) != dim:
        raise ParseError("facet normal has wrong length")
    try:
        direction = _vec([parse_rational(x) for x in raw_normal])
        norm_sq = sum(x * x for x in direction)
        if norm_sq == 0:
            raise ParseError("zero facet normal")
        try:
            measure = parse_rational(raw_measure)
            measure_float = float(measure)
        except ParseError:
            measure_float = float(raw_measure)
            measure = None
        # If the stated measure is the direction's own length, the direction
        # already is the area vector; keep it exact.
        if abs(measure_float * measure_float - float(norm_sq)) <= 1e-18 + 1e-12 * float(norm_sq):
            return direction
        if measure is not None:
            ratio_sq = measure * measure / norm_sq
            root = exact_sqrt(ratio_sq)
            if root is not None:
                return tuple(x * root for x in direction)
        factor = measure_float / math.sqrt(float(norm_sq))
        return tuple(float(x) * factor for x in direction)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad facet JSON: {exc}") from exc


# -- generators ----------------------------------------------------------------


def simplex(verts: Sequence[Sequence]) -> Polytope:
    """Simplex on affinely independent vertices (any affine dimension)."""
    vertices = tuple(_vec(v) for v in verts)
    dim = len(vertices[0])
    k = len(vertices) - 1
    if k > dim:
        raise GeometryError(f"{k}-simplex cannot fit in R^{dim}")
    edges = [tuple(a - b for a, b in zip(v, vertices[0])) for v in vertices[1:]]
    if k > 0 and linalg.rank(edges) != k:
        raise GeometryError("simplex vertices are affinely dependent")
    return Polytope(dim, vertices, triangulation=(tuple(range(k + 1)),))


def box(lo: Sequence, hi: Sequence) -> Polytope:
    """Axis-aligned box with the Kuhn triangulation into n! simplices."""
    lo, hi = _vec(lo), _vec(hi)
    n = len(lo)
    if len(hi) != n:
        raise DimensionMismatch("box corners of different lengths")
    if any(a >= b for a, b in zip(lo, hi)):
        raise GeometryError("box needs lo < hi in every coordinate")
    vertices = []
    for mask in range(1 << n):
        vertices.append(tuple(hi[i] if mask >> i & 1 else lo[i] for i in range(n)))
    cells = []
    for perm in itertools.permutations(range(n)):
        mask = 0
        chain = [0]
        for i in perm:
            mask |= 1 << i
            chain.append(mask)
        cells.append(tuple(chain))
    return Polytope(n, tuple(vertices), tuple(cells))


def cube(n: int) -> Polytope:
    """Unit cube [0, 1]^n."""
    return box([0] * n, [1] * n)


def crosspolytope(vecs: Sequence[Sequence]) -> Polytope:
    """Convex hull of +-v_1, ..., +-v_j for linearly independent v_i,
    triangulated into the 2^j cones over its center."""
    spanning = [_vec(v) for v in vecs]
    j = len(spanning)
    dim = len(spanning[0])
    if linalg.rank(spanning) != j:
        raise GeometryError("crosspolytope vectors are linearly dependent")
    vertices = []
    for v in spanning:
        vertices.append(v)
        vertices.append(tuple(-x for x in v))
    center = tuple(Fraction(0) for _ in range(dim))
    aux_idx = 2 * j
    cells = []
    for mask in range(1 << j):
        cells.append((aux_idx,) + tuple(2 * i + (mask >> i & 1) for i in range(j)))
    return Polytope(dim, tuple(vertices), tuple(cells), aux_points=(center,))


def polygon(points: Sequence[Sequence]) -> Polytope:
    """Convex hull of points in the plane, fan-triangulated."""
    pts = [_vec(p) for p in points]
    if any(len(p) != 2 for p in pts):
        raise DimensionMismatch("polygon points must be planar")
    hull = hull_2d(pts)
    if len(hull) < 3:
        raise GeometryError("polygon input is degenerate")
    cells = tuple((0, i, i + 1) for i in range(1, len(hull) - 1))
    return Polytope(2, tuple(hull), cells)


def hull_2d(points: Sequence[Vec]) -> list[Vec]:
    """Convex hull in the plane (monotone chain), counterclockwise, exact."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[Vec] = []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


# -- basic operations -----------------------------------------------------------


def _cells_volume(points: Sequence[Sequence], cells, n: int):
    """Summed n-volume of the cells with n + 1 points.  The points are
    multiplied once by D, the lcm of their denominators, the cells' |det|
    (Bareiss) are summed in ints and the sum is divided once by n! D^n;
    float points run the same sum in floats with D = 1."""
    scale, pts = linalg.clear_denominators(points)
    total = 0
    for cell in cells:
        if len(cell) == n + 1:
            base = pts[cell[0]]
            total += abs(linalg.bareiss([[a - b for a, b in zip(pts[i], base)] for i in cell[1:]]))
    denom = math.factorial(n) * scale ** n
    return linalg.over(total, denom)


def volume(p: Polytope) -> Fraction:
    """Full-dimensional volume; lower-dimensional bodies have volume 0."""
    if p.triangulation is None:
        raise GeometryError("volume needs a triangulation")
    return _cells_volume(p.points, p.triangulation, p.dim)


def translate(p: Polytope, y: Sequence) -> Polytope:
    y = tuple(map(linalg.real, y))
    if len(y) != p.dim:
        raise DimensionMismatch("translation vector has wrong length")
    facets = None
    if p.facets is not None:
        facets = tuple(
            FacetDatum(f.direction, f.offset + linalg.dot(f.direction, y))
            for f in p.facets)
    return Polytope(
        p.dim, tuple(_add(v, y) for v in p.vertices), p.triangulation,
        tuple(_add(v, y) for v in p.aux_points), facets)


def linear_image(phi: RMatrix, p: Polytope) -> Polytope:
    """Image under an invertible linear map: the points are mapped, the
    triangulation carries over and facet data is dropped (the image's atoms
    are read off its triangulation, see ``surface_area_measure``).

    phi and the points are each cleared of denominators once, the products
    are taken in ints and each output coordinate is one ``Fraction``; a
    float phi or a float body gives float points.
    """
    if phi.n != p.dim:
        raise DimensionMismatch("matrix size does not match polytope dimension")
    q, rows = linalg.clear_denominators(phi.entries)
    d, pts = linalg.clear_denominators(p.points)
    den = q * d
    image = [tuple(linalg.over(sum(map(operator.mul, row, v)), den) for row in rows)
             for v in pts]
    nv = len(p.vertices)
    return Polytope(p.dim, tuple(image[:nv]), p.triangulation, tuple(image[nv:]))


def scale(p: Polytope, lam) -> Polytope:
    """Dilation by lam about the origin: each point's coordinates times lam,
    for exact lam the body ``linear_image`` gives for lam times the identity
    (a float body or lam gives float points; the triangulation carries
    over, facet data is dropped)."""
    lam = linalg.real(lam)

    def dilate(points):
        return tuple(tuple(lam * linalg.real(x) for x in v) for v in points)

    return Polytope(p.dim, dilate(p.vertices), p.triangulation, dilate(p.aux_points))


def support(p: Polytope, u: Sequence):
    """Support function h_P(u) = max over vertices of <u, v>."""
    return max(sum(a * b for a, b in zip(u, v)) for v in p.vertices)


# -- facet / surface area data ---------------------------------------------------


def surface_area_measure(p: Polytope) -> tuple[FacetDatum, ...]:
    """Atoms (outward area vectors) of the surface area measure: the body's
    imported facet data, or else read off its triangulation.

    A face that no other cell shares lies on the boundary.  Its area vector
    is the n signed (n-1)-minors of its edge vectors over (n-1)!, turned
    away from its cell's opposite vertex, and the faces on one hyperplane
    add up to one atom; float faces are on one hyperplane when their keys
    (``_hyperplane``) agree to 1e-9, the offset relative to the body's largest
    |coordinate|.  Exact points are cleared of denominators (D) once,
    the minors of a face come from one fraction-free Gauss-Jordan of its
    n - 1 edge rows (``linalg.cross``), the sums run in ints and each atom
    is divided once by (n-1)! D^(n-1); float points run the same steps in
    floats with D = 1.

    An untriangulated body is read as the simplex on its vertices when it
    has n + 1 of them, as their polygon in the plane.  Other untriangulated
    bodies, cells of fewer than n + 1 points, degenerate cells and atoms
    that do not sum to zero (overlapping cells) raise ``GeometryError``.
    """
    if p.facets is not None:
        return p.facets
    n = p.dim
    if p.triangulation is None:
        if len(p.vertices) == n + 1:
            p = simplex(p.vertices)
        elif n == 2:
            p = polygon(p.vertices)
        else:
            raise GeometryError(f"surface area measure in R^{n} needs a triangulation or facets")
    if any(len(cell) != n + 1 for cell in p.triangulation):
        raise GeometryError("surface area measure needs full-dimensional cells")
    faces = [(cell[:k] + cell[k + 1:], i) for cell in p.triangulation for k, i in enumerate(cell)]
    shared = Counter(frozenset(face) for face, _ in faces)
    scale, pts = linalg.clear_denominators(p.points)
    near = 0 if isinstance(pts[0][0], int) else 1e-9 * max(abs(x) for pt in pts for x in pt)
    atoms: dict = {}
    for face, opposite in faces:
        if shared[frozenset(face)] > 1:
            continue
        base = pts[face[0]]
        rows = [[a - b for a, b in zip(pts[i], base)] for i in face[1:]]
        normal = linalg.cross(rows)
        side = sum(x * (a - b) for x, a, b in zip(normal, pts[opposite], base))
        if side == 0:
            raise GeometryError("degenerate triangulation cell")
        key = _hyperplane(normal, base)
        if near:  # rounding sets the float keys of one facet's faces apart
            key = next((k for k in atoms if abs(k[1] - key[1]) <= near
                        and max(map(abs, map(operator.sub, k[0], key[0]))) <= 1e-9), key)
        total, _ = atoms.setdefault(key, ([0] * n, base))
        for c, x in enumerate(normal):
            total[c] += -x if side > 0 else x
    denom = math.factorial(n - 1) * scale ** (n - 1)
    facets = tuple(
        FacetDatum(tuple(linalg.over(x, denom) for x in total),
                   linalg.over(sum(map(operator.mul, total, base)), denom * scale))
        for total, base in atoms.values() if any(total))
    if not _closes(facets, n):
        raise GeometryError("facet area vectors do not close up")
    return facets


def _hyperplane(normal: list, point) -> tuple:
    """Key of the hyperplane through ``point`` normal to ``normal``: the
    normal over its gcd (ints) or its largest entry (floats), signed so that
    the largest entry is positive, and that vector's product with ``point``."""
    lead = max(normal, key=abs)
    if isinstance(lead, int):
        g = math.gcd(*normal)
        u = tuple(x // (g if lead > 0 else -g) for x in normal)
    else:
        u = tuple(x / lead for x in normal)
    return u, sum(map(operator.mul, u, point))


def _closes(facets, n: int) -> bool:
    """Whether the area vectors sum to zero: exactly, or for floats within
    1e-12 times the summed magnitudes of their components."""
    sums = [sum(f.direction[i] for f in facets) for i in range(n)]
    if linalg.is_exact(sums):
        return not any(sums)
    size = sum(abs(x) for f in facets for x in f.direction)
    return all(abs(s) <= 1e-12 * size for s in sums)


def with_facets(p: Polytope) -> Polytope:
    return replace(p, facets=surface_area_measure(p))


# -- subspace volume --------------------------------------------------------------


def subspace_volume(p: Polytope, subspace):
    """Volume of a polytope inside a linear subspace, in the subspace's own
    dimension, computed in coordinates of its orthonormal basis.

    ``subspace`` is anything with an orthonormal ``basis`` attribute, or the
    basis itself.  Exact for exact bases, float otherwise; a float point
    lies in the subspace when its residual is at most 1e-8 of its length.
    """
    basis = getattr(subspace, "basis", subspace)
    basis = [tuple(b) for b in basis]
    j = len(basis)
    if p.triangulation is None:
        raise GeometryError("subspace volume needs a triangulation")
    exact = linalg.is_exact(x for b in basis for x in b)
    coords = []
    for pt in p.points:
        cs = [sum(a * b for a, b in zip(pt, bvec)) for bvec in basis]
        residual = list(pt)
        for c, bvec in zip(cs, basis):
            residual = [r - c * b for r, b in zip(residual, bvec)]
        if exact:
            if any(r != 0 for r in residual):
                raise GeometryError("polytope does not lie in the subspace")
        elif math.hypot(*residual) > 1e-8 * math.hypot(*pt):
            raise GeometryError("polytope does not lie in the subspace")
        coords.append(cs)
    total = _cells_volume(coords, p.triangulation, j)
    return total if exact else float(total)


# -- planar Minkowski sums ---------------------------------------------------------


def minkowski_sum_2d(p: Polytope, q: Polytope) -> Polytope:
    """Minkowski sum of two planar polytopes (supports the mixed-volume check)."""
    if p.dim != 2 or q.dim != 2:
        raise GeometryError("Minkowski sum implemented only in the plane")
    sums = [_add(a, b) for a in p.vertices for b in q.vertices]
    return polygon(sums)
