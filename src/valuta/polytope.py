"""Convex polytopes with exact rational vertices.

Polytopes are built from generators with known combinatorics (simplices,
boxes, crosspolytopes, 2D polygons) or imported with an explicit
triangulation; there is no general convex-hull machinery beyond the plane.
Triangulation cells index into ``points`` = vertices followed by auxiliary
interior points (the crosspolytope triangulation cones over its center).

Facet data is kept exact by storing each facet's outward *area vector*: the
unit normal scaled by the facet's (n-1)-volume.  Area vectors of rational
polytopes are rational even when facet measures are irrational (sqrt(2) edge
lengths and the like), they sum to zero exactly, and they are all a
1-homogeneous integrand ever needs.

Polytope JSON:
``{"dim": n, "vertices": [["p/q", ...], ...], "triangulation": [[i, ...], ...],
"aux_points": [...], "facets": [{"normal": [...], "measure": "..."}]}``
(triangulation, aux_points and facets optional).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import DimensionMismatch, GeometryError, ParseError
from .linalg import exact_sqrt, frac
from .symtensor import RMatrix, format_rational, parse_rational

Vec = tuple[Fraction, ...]


def _vec(xs: Sequence) -> Vec:
    return tuple(frac(x) for x in xs)


def _sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


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
    kind: str = "generic"
    kind_data: tuple = ()

    def __post_init__(self):
        if not self.vertices:
            raise GeometryError("polytope needs at least one vertex")
        for v in self.vertices + self.aux_points:
            if len(v) != self.dim:
                raise DimensionMismatch(f"point {v} not in R^{self.dim}")

    @property
    def points(self) -> tuple[Vec, ...]:
        return self.vertices + self.aux_points

    def cells(self) -> tuple[tuple[Vec, ...], ...]:
        if self.triangulation is None:
            raise GeometryError("polytope has no triangulation")
        pts = self.points
        return tuple(tuple(pts[i] for i in cell) for cell in self.triangulation)

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
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad polytope JSON: {exc}") from exc
        tri = data.get("triangulation")
        if tri is not None:
            tri = tuple(tuple(int(i) for i in cell) for cell in tri)
        aux = tuple(
            _vec([parse_rational(x) for x in v]) for v in data.get("aux_points", []))
        facets = None
        if "facets" in data:
            facets = []
            for raw in data["facets"]:
                direction = _parse_facet(raw, dim)
                offset = max(sum(a * b for a, b in zip(direction, v)) for v in vertices)
                facets.append(FacetDatum(direction, offset))
            facets = tuple(facets)
        npts = len(vertices) + len(aux)
        if tri is not None and any(i < 0 or i >= npts for cell in tri for i in cell):
            raise ParseError("triangulation index out of range")
        return Polytope(dim, vertices, tri, aux, facets)


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
    edges = [_sub(v, vertices[0]) for v in vertices[1:]]
    if k > 0:
        _, pivots = linalg.rref(edges)
        if len(pivots) != k:
            raise GeometryError("simplex vertices are affinely dependent")
    return Polytope(dim, vertices, triangulation=(tuple(range(k + 1)),), kind="simplex")


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
    for perm in _permutations(n):
        mask = 0
        chain = [0]
        for i in perm:
            mask |= 1 << i
            chain.append(mask)
        cells.append(tuple(chain))
    return Polytope(n, tuple(vertices), tuple(cells), kind="box", kind_data=(lo, hi))


def cube(n: int) -> Polytope:
    """Unit cube [0, 1]^n."""
    return box([0] * n, [1] * n)


def _permutations(n: int):
    import itertools

    return itertools.permutations(range(n))


def crosspolytope(vecs: Sequence[Sequence]) -> Polytope:
    """Convex hull of +-v_1, ..., +-v_j for linearly independent v_i,
    triangulated into the 2^j cones over its center."""
    spanning = [_vec(v) for v in vecs]
    j = len(spanning)
    dim = len(spanning[0])
    _, pivots = linalg.rref(spanning)
    if len(pivots) != j:
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
    return Polytope(
        dim, tuple(vertices), tuple(cells), aux_points=(center,),
        kind="crosspolytope", kind_data=(center,))


def polygon(points: Sequence[Sequence]) -> Polytope:
    """Convex hull of points in the plane, fan-triangulated."""
    pts = [_vec(p) for p in points]
    if any(len(p) != 2 for p in pts):
        raise DimensionMismatch("polygon points must be planar")
    hull = hull_2d(pts)
    if len(hull) < 3:
        raise GeometryError("polygon input is degenerate")
    cells = tuple((0, i, i + 1) for i in range(1, len(hull) - 1))
    return Polytope(2, tuple(hull), cells, kind="polygon")


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
    return Fraction(total, denom) if isinstance(total, int) else total / denom


def volume(p: Polytope) -> Fraction:
    """Full-dimensional volume; lower-dimensional bodies have volume 0."""
    if p.triangulation is None:
        raise GeometryError("volume needs a triangulation")
    return _cells_volume(p.points, p.triangulation, p.dim)


def translate(p: Polytope, y: Sequence) -> Polytope:
    y = _vec(y)
    if len(y) != p.dim:
        raise DimensionMismatch("translation vector has wrong length")
    kind_data = p.kind_data
    if p.kind == "box":
        lo, hi = kind_data
        kind_data = (_add(lo, y), _add(hi, y))
    elif p.kind == "crosspolytope":
        kind_data = (_add(kind_data[0], y),)
    facets = None
    if p.facets is not None:
        facets = tuple(
            FacetDatum(f.direction, f.offset + linalg.dot(f.direction, y))
            for f in p.facets)
    return Polytope(
        p.dim, tuple(_add(v, y) for v in p.vertices), p.triangulation,
        tuple(_add(v, y) for v in p.aux_points), facets, p.kind, kind_data)


def linear_image(phi: RMatrix, p: Polytope) -> Polytope:
    """Image under an invertible linear map; triangulation indices carry over.

    Exact only (a float in phi or the body raises ``TypeError``): phi and the
    points are each cleared of denominators once, the products are taken in
    ints and each output coordinate is one ``Fraction``.
    """
    if phi.n != p.dim:
        raise DimensionMismatch("matrix size does not match polytope dimension")
    kind, kind_data = p.kind, p.kind_data
    centers = kind_data if kind == "crosspolytope" else ()
    q, rows = linalg.clear_denominators([_vec(row) for row in phi.entries])
    d, pts = linalg.clear_denominators([_vec(v) for v in p.points + centers])
    den = q * d
    image = [tuple(Fraction(sum(map(operator.mul, row, v)), den) for row in rows) for v in pts]
    nv, npts = len(p.vertices), len(p.points)
    if kind == "crosspolytope":
        kind_data = tuple(image[npts:])
    elif kind in ("box", "polygon"):
        kind, kind_data = "generic", ()
    return Polytope(p.dim, tuple(image[:nv]), p.triangulation, tuple(image[nv:npts]), None,
                    kind, kind_data)


def scale(p: Polytope, lam) -> Polytope:
    """Dilation by lam about the origin: each coordinate times lam, the body
    ``linear_image`` gives for lam times the identity (a float raises
    ``TypeError``; a box or polygon becomes generic, facets are dropped)."""
    lam = frac(lam)

    def dilate(points):
        return tuple(tuple(lam * x for x in _vec(v)) for v in points)

    kind, kind_data = p.kind, p.kind_data
    if kind == "crosspolytope":
        kind_data = dilate(kind_data)
    elif kind in ("box", "polygon"):
        kind, kind_data = "generic", ()
    return Polytope(p.dim, dilate(p.vertices), p.triangulation, dilate(p.aux_points), None,
                    kind, kind_data)


def support(p: Polytope, u: Sequence):
    """Support function h_P(u) = max over vertices of <u, v>."""
    return max(sum(a * b for a, b in zip(u, v)) for v in p.vertices)


# -- facet / surface area data ---------------------------------------------------


def _cross(rows: list[Vec], n: int) -> Vec:
    """A vector orthogonal to n-1 rows whose length is the spanned
    (n-1)-parallelepiped volume; sign is settled by the caller."""
    out = []
    for i in range(n):
        minor = [[row[c] for c in range(n) if c != i] for row in rows]
        out.append((-1) ** i * linalg.det(minor))
    return tuple(out)


def _simplex_facets(p: Polytope) -> tuple[FacetDatum, ...]:
    n = p.dim
    verts = p.vertices
    fact = math.factorial(n - 1)
    facets = []
    for i in range(n + 1):
        face = [v for j, v in enumerate(verts) if j != i]
        rows = [_sub(v, face[0]) for v in face[1:]]
        direction = tuple(c / fact for c in _cross(rows, n))
        if all(x == 0 for x in direction):
            raise GeometryError("degenerate simplex facet")
        inward = linalg.dot(direction, _sub(verts[i], face[0]))
        if inward > 0:
            direction = tuple(-x for x in direction)
        facets.append(FacetDatum(direction, linalg.dot(direction, face[0])))
    return tuple(facets)


def _box_facets(p: Polytope) -> tuple[FacetDatum, ...]:
    lo, hi = p.kind_data
    n = p.dim
    sides = [hi[i] - lo[i] for i in range(n)]
    facets = []
    for i in range(n):
        area = Fraction(1)
        for j in range(n):
            if j != i:
                area *= sides[j]
        plus = tuple(area if j == i else Fraction(0) for j in range(n))
        minus = tuple(-x for x in plus)
        facets.append(FacetDatum(plus, area * hi[i]))
        facets.append(FacetDatum(minus, -area * lo[i]))
    return tuple(facets)


def _crosspolytope_facets(p: Polytope) -> tuple[FacetDatum, ...]:
    n = p.dim
    center = p.kind_data[0]
    spanning = [_sub(p.vertices[2 * i], center) for i in range(len(p.vertices) // 2)]
    if len(spanning) != n:
        raise GeometryError("crosspolytope facets need full dimension")
    fact = math.factorial(n - 1)
    facets = []
    for mask in range(1 << n):
        corner = [
            tuple(-x for x in v) if mask >> i & 1 else v for i, v in enumerate(spanning)]
        rows = [_sub(corner[i], corner[0]) for i in range(1, n)]
        direction = tuple(c / fact for c in _cross(rows, n))
        if linalg.dot(direction, corner[0]) < 0:
            direction = tuple(-x for x in direction)
        offset = linalg.dot(direction, _add(center, corner[0]))
        facets.append(FacetDatum(direction, offset))
    return tuple(facets)


def _polygon_facets(p: Polytope) -> tuple[FacetDatum, ...]:
    hull = hull_2d(list(p.vertices))
    if len(hull) < 3:
        raise GeometryError("degenerate polygon")
    facets = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        edge = _sub(b, a)
        direction = (edge[1], -edge[0])
        facets.append(FacetDatum(direction, linalg.dot(direction, a)))
    return tuple(facets)


def surface_area_measure(p: Polytope) -> tuple[FacetDatum, ...]:
    """Atoms (outward area vectors) of the surface area measure.

    Supported for simplices, boxes, crosspolytopes, planar polytopes, and
    anything carrying imported facet data.  The atoms sum to zero.
    """
    if p.facets is not None:
        return p.facets
    if p.kind == "box":
        facets = _box_facets(p)
    elif p.kind == "crosspolytope":
        facets = _crosspolytope_facets(p)
    elif p.kind == "simplex" or len(p.vertices) == p.dim + 1:
        if len(p.vertices) != p.dim + 1:
            raise GeometryError("surface area measure needs a full-dimensional simplex")
        facets = _simplex_facets(p)
    elif p.dim == 2:
        facets = _polygon_facets(p)
    else:
        raise GeometryError(
            f"no facet rule for kind {p.kind!r} in R^{p.dim}; supply facet data")
    closedness = [sum(f.direction[i] for f in facets) for i in range(p.dim)]
    if any(_nonzero(x) for x in closedness):
        raise GeometryError(f"facet area vectors do not close up: {closedness}")
    return facets


def _nonzero(x) -> bool:
    if isinstance(x, Fraction):
        return x != 0
    return abs(x) > 1e-12


def with_facets(p: Polytope) -> Polytope:
    return Polytope(
        p.dim, p.vertices, p.triangulation, p.aux_points,
        surface_area_measure(p), p.kind, p.kind_data)


# -- subspace volume --------------------------------------------------------------


def subspace_volume(p: Polytope, subspace):
    """Volume of a polytope inside a linear subspace, in the subspace's own
    dimension, computed in coordinates of its orthonormal basis.

    ``subspace`` is anything with an orthonormal ``basis`` attribute, or the
    basis itself.  Exact for exact bases, float otherwise.
    """
    basis = getattr(subspace, "basis", subspace)
    basis = [tuple(b) for b in basis]
    j = len(basis)
    if p.triangulation is None:
        raise GeometryError("subspace volume needs a triangulation")
    exact = all(isinstance(x, Fraction) for b in basis for x in b)
    coords = []
    for pt in p.points:
        cs = [sum(a * b for a, b in zip(pt, bvec)) for bvec in basis]
        residual = list(pt)
        for c, bvec in zip(cs, basis):
            residual = [r - c * b for r, b in zip(residual, bvec)]
        if exact:
            if any(r != 0 for r in residual):
                raise GeometryError("polytope does not lie in the subspace")
        elif math.sqrt(sum(float(r) ** 2 for r in residual)) > 1e-8:
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
