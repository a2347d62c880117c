"""Convex polytopes with exact rational vertices.

A polytope is its vertices and its cells: a triangulation whose cells index
into the vertices.  Polytopes are built from generators with known
combinatorics (simplices, boxes, crosspolytopes, 2D polygons) or imported;
there is no general convex-hull machinery beyond the plane.  Affine maps
carry the vertices and keep the triangulation.

Every reader that works in integers (volume, atoms, import checks, the
moment kernel, affine maps) takes the vertices' integer view ``cleared`` =
(D, ints), what ``linalg.clear_denominators`` gives for ``vertices`` (rows
as tuples), built once per body and kept on it.  ``linear_image``, ``scale``
and ``translate`` compute the image's ints N over a denominator den in one
pass off the body's view (D, pts): pts scattered through the nonzero
entries of phi's columns (``RMatrix.columns``, over q) over q D, a pts over
D b for lam = a / b, or pts and y's numerators brought to
L = lcm(D, y's denominators) and added over L.  The exact image is that
view, reduced by g = gcd(den, *N) when g > 1: the least L with every
L N_k / den an integer is den / g, so den / g is the lcm of the image's
denominators and N / g is L times its vertices, as clearing would give.
Its ``Fraction`` ``vertices`` are built from the view the first time they
are read, so an image that only a moment, volume or atom reader sees never
builds them.  A float on either side gives float vertices x / den at once
and the view (1, vertices): ``linear_image`` multiplies the float side,
columns or points, by the other side's ints, and a float ``translate`` or
``scale`` turns both views to floats (``linalg.common_scale``), x / D being
float(x) bit for bit.

Cell determinants come from one walk, ``cell_dets``: the cells in sorted
order form a prefix tree, and a cell whose first n vertices a neighbour
shares takes |det E| off the exterior product of its edges, so Kuhn boxes
and crosspolytopes take no Bareiss determinant.  A body keeps its walk,
(cell, |det E|, k) per full-dimensional cell, as ``Polytope.walk``, which
``volume``, the import checks and the moment kernel read; ``subspace_volume``
walks its own coordinate view.  An exact image does not walk: the int map A
that built its ints N from the source's, before the reduction by g, scales
every edge matrix, so its |det E| is |det A| |det E_source| / g^n, an exact
division since g divides every entry of N.  |det A| is q^n |det phi| for
``linear_image``, read off the cached ``RMatrix.det`` u / w as the int
(q^n / w) |u|, |a|^n for ``scale`` by a / b and m^n for ``translate``, with
m = L / D.  ``_image`` keeps |det A| / g^n in lowest terms as the seed
(source, a, b) until the walk is read, and a seed on an image that has
not walked yet is composed onto that image's own source, so a chain of
maps reads one body's walk; a float body or map walks its own points.

Facet data is kept exact by using each facet's outward *area vector*: the
unit normal scaled by the facet's (n-1)-volume.  Area vectors of rational
polytopes are rational even when facet measures are irrational (sqrt(2) edge
lengths and the like), and they sum to zero exactly.  ``atom_totals`` reads
them off the triangulation: the faces that no other cell shares, in sorted
order, form a prefix tree like the cells, and one exterior-product walk over
it (``_face_normals``, the stack of ``cell_dets``) gives each face's n
signed (n-1)-minors as ints on the body's view.  A body keeps no atoms;
``surface_area_measure`` builds its ``FacetDatum``s from those totals,
``validate`` compares them with the cells' walk, and the surface-area
pairing of ``valuation_lab`` reads the totals themselves.

Polytope JSON:
``{"dim": n, "vertices": [["p/q", ...], ...], "triangulation": [[i, ...], ...]}``,
float coordinates written as JSON numbers (``symtensor.json_rational``).
``dim`` and the indices are JSON integers and each vertex and cell is a
list; a float, a string or a bool in their place is refused, never
truncated or read character by character.  An ``"aux_points"`` list, which
older bodies wrote for a crosspolytope's centre, is read as more vertices
after the listed ones; a ``"facets"`` key is refused, since facets are read
off the triangulation.  Without a triangulation the body is the simplex on
n + 1 vertices, else their polygon in the plane; other bodies, and
aux_points without a triangulation, are rejected.  An imported body is then
``validate``d, which a body built in code can ask for too.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from . import linalg
from .errors import DimensionMismatch, GeometryError, ParseError
from .linalg import Vec, vec
from .symtensor import RMatrix, _json_int, _json_list, json_rational, mul_form, parse_rational


@dataclass(frozen=True)
class FacetDatum:
    """One atom of a polytope's surface area measure.

    ``direction`` is the outward area vector, whose Euclidean length is the
    facet measure; ``offset`` is max <direction, v> over the vertices.
    """

    direction: tuple
    offset: Fraction


@dataclass(frozen=True)
class Polytope:
    dim: int
    vertices: tuple[Vec, ...]
    triangulation: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.vertices:
            raise GeometryError("polytope needs at least one vertex")
        for v in self.vertices:
            if len(v) != self.dim:
                raise DimensionMismatch(f"point {v} not in R^{self.dim}")

    def __getattr__(self, name):
        """``vertices`` of an exact image (``_image``), built on first read
        from its view (D, ints): each int over D."""
        if name != "vertices" or "cleared" not in vars(self):
            raise AttributeError(name)
        den, rows = self.cleared
        vertices = tuple(tuple(Fraction(x, den) for x in row) for row in rows)
        object.__setattr__(self, "vertices", vertices)
        return vertices

    @cached_property
    def cleared(self) -> tuple[int, tuple[tuple, ...]]:
        """The vertices' integer view (D, ints): ``linalg.clear_denominators``
        of ``vertices``, its rows as tuples, built once per body or seeded by
        the affine map that made it (module docstring)."""
        scale, rows = linalg.clear_denominators(self.vertices)
        return scale, tuple(map(tuple, rows))

    @cached_property
    def walk(self) -> tuple[tuple[tuple, object, int], ...]:
        """The cells' determinant walk, ``cell_dets`` on the view ``cleared``:
        (cell, |det E|, k) per full-dimensional cell in sorted order, built
        once per body, or for an exact image off its source's walk times the
        factor a / b its seed holds (``_image``; module docstring)."""
        seed = vars(self).pop("_seed", None)
        if seed is None:
            return tuple(cell_dets(self.cleared, self.triangulation, self.dim))
        source, a, b = seed
        return tuple((cell, d * a // b, k) for cell, d, k in source.walk)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[json_rational(x) for x in v] for v in self.vertices],
            "triangulation": [list(c) for c in self.triangulation],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "Polytope":
        try:
            dim = _json_int(data["dim"])
            if "facets" in data:
                raise ParseError("facets are read off the triangulation, never imported")
            aux = list(data.get("aux_points", ()))  # older documents' extra points
            vertices = tuple(tuple(map(parse_rational, _json_list(v)))
                             for v in [*data["vertices"], *aux])
            tri = data.get("triangulation")
            if tri is not None:
                tri = tuple(tuple(map(_json_int, _json_list(cell))) for cell in tri)
            p = Polytope(dim, vertices, tri or ())
        except (KeyError, TypeError, ValueError, GeometryError, DimensionMismatch) as exc:
            raise ParseError(f"bad polytope JSON: {exc}") from exc
        if tri is None:
            if aux or not (len(vertices) == dim + 1 or dim == 2):
                raise ParseError("untriangulated: need n + 1 vertices or dim 2, and no aux_points")
            try:
                p = simplex(vertices) if len(vertices) == dim + 1 else polygon(vertices)
            except GeometryError as exc:
                raise ParseError(f"bad untriangulated body: {exc}") from exc
        try:
            validate(p)
        except GeometryError as exc:
            raise ParseError(f"bad triangulation: {exc}") from exc
        return p


def validate(p: Polytope) -> None:
    """Raise ``GeometryError`` unless p's triangulation is sound: every cell
    indexes the vertices without repeats and the cells share one size of at
    most n + 1.  A full-dimensional one must also have atoms that close up
    (``atom_totals``), no cell of determinant 0, and a volume equal to the
    sum of the atoms' offsets over n (divergence theorem; overlapping cells
    break it): sum |det E| of the walk against sum <total, base> over the
    atoms, both over (n-1)! D^n, in ints, or for float points within 1e-12
    of their summed magnitudes.  Imports run it; the constructor does not,
    since every affine map builds a body."""
    n, tri = p.dim, p.triangulation
    sizes = {len(cell) for cell in tri}
    if any(i < 0 or i >= len(p.cleared[1]) for cell in tri for i in cell):
        raise GeometryError("triangulation index out of range")
    if any(len(set(cell)) != len(cell) for cell in tri):
        raise GeometryError("triangulation cell repeats an index")
    if len(sizes) > 1 or max(sizes, default=0) > n + 1:
        raise GeometryError(f"triangulation cells must share one size of at most {n + 1}")
    if sizes != {n + 1}:
        return  # lower-dimensional: no atoms
    _, atoms = atom_totals(p)
    dets = [d for _, d, _ in p.walk]
    if not all(dets):
        raise GeometryError("triangulation cell of determinant 0")
    terms = dets + [-sum(map(operator.mul, total, base)) for total, base in atoms]
    if abs(sum(terms)) > (0 if _exact(p.cleared) else 1e-12 * sum(map(abs, terms))):
        raise GeometryError("volume differs from the atoms' sum of offsets / n")


# -- generators ----------------------------------------------------------------


def simplex(verts: Sequence[Sequence]) -> Polytope:
    """Simplex on affinely independent vertices (any affine dimension)."""
    vertices = tuple(vec(v) for v in verts)
    dim = len(vertices[0])
    k = len(vertices) - 1
    if k > dim:
        raise GeometryError(f"{k}-simplex cannot fit in R^{dim}")
    edges = [tuple(a - b for a, b in zip(v, vertices[0])) for v in vertices[1:]]
    if k > 0 and linalg.rank(edges) != k:
        raise GeometryError("simplex vertices are affinely dependent")
    return Polytope(dim, vertices, triangulation=(tuple(range(k + 1)),))


def box(lo: Sequence, hi: Sequence) -> Polytope:
    """Axis-aligned box with the Kuhn triangulation into n! simplices.

    Vertex ``mask`` takes hi in the coordinates of its set bits.  The cell of
    a permutation is its chain lo = 0, ..., 2^n - 1 = hi, listed as lo, hi,
    then the inner vertices in chain order: every cell starts with (lo, hi),
    and the two cells whose permutations differ in their last two entries
    share their first n vertices (the moment kernel's prefix tree)."""
    lo, hi = vec(lo), vec(hi)
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
        chain = []
        for i in perm[:-1]:
            mask |= 1 << i
            chain.append(mask)
        cells.append((0, (1 << n) - 1, *chain))
    return Polytope(n, tuple(vertices), tuple(cells))


def cube(n: int) -> Polytope:
    """Unit cube [0, 1]^n."""
    return box([0] * n, [1] * n)


def crosspolytope(vecs: Sequence[Sequence]) -> Polytope:
    """Convex hull of +-v_1, ..., +-v_j for linearly independent v_i,
    pulled from +v_1 (De Loera, Rambau and Santos, *Triangulations*, 2010):
    +v_1 coned over the 2^(j-1) facets that miss it, the cells
    (+v_1, -v_1, +-v_2, ..., +-v_j).  Vertex 2i is +v_(i+1) and 2i + 1 is
    -v_(i+1), so each cell lists its vertices in increasing order, and the
    two cells that differ only in the sign of v_j share their first j
    vertices (the moment kernel's prefix tree)."""
    spanning = [vec(v) for v in vecs]
    j = len(spanning)
    if linalg.rank(spanning) != j:
        raise GeometryError("crosspolytope vectors are linearly dependent")
    vertices = tuple(w for v in spanning for w in (v, tuple(-x for x in v)))
    cells = tuple((0, 1, *(2 * i + s for i, s in enumerate(signs, 1)))
                  for signs in itertools.product((0, 1), repeat=j - 1))
    return Polytope(len(spanning[0]), vertices, cells)


def polygon(points: Sequence[Sequence]) -> Polytope:
    """Convex hull of points in the plane, fan-triangulated."""
    pts = [vec(p) for p in points]
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


_WEDGES: dict[int, tuple] = {}


def _wedge_tables(n: int) -> tuple:
    """Read-only signed index tables of the exterior powers of R^n, built
    once per n: entry k is (``step``, C), C = comb(n, k + 1), and
    ``step[j][i]`` is where e_S ^ e_i lands for S the j-th k-subset of
    range(n) in lexicographic order: the position of S + {i} among the
    (k + 1)-subsets when the sign (-1)^#{s in S : s > i} is +, C plus it
    when it is -, and the sink 2C when i is in S.  Entries k = 0..n - 2."""
    if n in _WEDGES:
        return _WEDGES[n]
    tables = []
    for k in range(n - 1):
        index = {s: j for j, s in enumerate(itertools.combinations(range(n), k + 1))}
        size = len(index)
        tables.append((tuple(
            tuple(2 * size if i in s else index[tuple(sorted(s + (i,)))]
                  + size * (sum(x > i for x in s) % 2) for i in range(n))
            for s in itertools.combinations(range(n), k)), size))
    _WEDGES[n] = tables = tuple(tables)
    return tables


def _prefix_walk(words):
    """Yield (word, k, wedge) for each word in turn: k is the length of the
    prefix it shares with the word before, and ``wedge`` the walk's one
    exterior-product stack (``_extend_wedge``), cut back to the entries
    that prefix fixes, or to [[1]] when the first vertex changes."""
    wedge, prev = [[1]], ()
    for word in words:
        k = 0
        while k < len(prev) and word[k] == prev[k]:
            k += 1
        del wedge[k or 1:]
        prev = word
        yield word, k, wedge


def _extend_wedge(wedge: list, pts, word, n: int) -> list:
    """Extend the stack over the word's first n vertices and return its top.
    ``wedge[k]`` keeps the exterior product of the first k edges
    pts[v] - pts[word[0]] as its comb(n, k) k-minors, and one more edge is
    one ``mul_form`` over ``_wedge_tables``.  The top, ``wedge[n - 1]``,
    holds the (n-1)-minors, the subsets leaving out n - 1, ..., 0 in order."""
    base = pts[word[0]]
    tables = _wedge_tables(n)
    while len(wedge) < n:
        step, size = tables[len(wedge) - 1]
        form = [(t, a - b) for t, (a, b) in enumerate(zip(pts[word[len(wedge)]], base)) if a != b]
        out = mul_form(wedge[-1], step, form, [0] * (2 * size + 1))
        wedge.append(list(map(operator.sub, out[:size], out[size:-1])))
    return wedge[-1]


def cell_dets(view: tuple[int, Sequence], cells, n: int):
    """Yield (cell, |det E|, k) for each cell of n + 1 points, in sorted
    order, on the view's points (D, pts): |det E| is D^n times n! the cell's
    volume, an int, or a float for float points (D = 1), and k the length
    of the prefix the cell shares with the cell before it.

    The cells are walked as a prefix tree (module docstring, ``_prefix_walk``).
    A cell whose first n vertices a neighbour in sorted order shares reads
    det E off the (n-1)-minors of its first n - 1 edges (``_extend_wedge``)
    and its last edge, an n-term sum; any other cell takes one Bareiss
    determinant.
    """
    _, pts = view
    cells = sorted(tuple(c) for c in cells if len(c) == n + 1)
    for (cell, k, wedge), after in zip(_prefix_walk(cells), cells[1:] + [()]):
        base = pts[cell[0]]
        if n and (k >= n or after[:n] == cell[:n]):  # the first n vertices are shared
            w = _extend_wedge(wedge, pts, cell, n)
            # det E is the alternating sum of w_j times the last edge's
            # entry n - 1 - j.
            edge = [a - b for a, b in zip(pts[cell[n]], base)]
            d = abs(sum(map(operator.mul, w[::2], edge[::-2]))
                    - sum(map(operator.mul, w[1::2], edge[-2::-2])))
        else:
            d = abs(linalg.bareiss([[a - b for a, b in zip(pts[i], base)] for i in cell[1:]]))
        yield cell, d, k


def _face_normals(pts, faces, n: int):
    """Yield, for each face of n point indices in turn, the normal to its
    edges pts[v] - pts[face[0]]: (-1)^c times their (n-1)-minor without
    column c, all zero when they are dependent.  The faces share one prefix
    walk, so faces in sorted order share the minors of their common prefix."""
    for face, _, wedge in _prefix_walk(faces):
        w = _extend_wedge(wedge, pts, face, n)
        yield [-x if c % 2 else x for c, x in enumerate(reversed(w))]


def _volume(dets, scale: int, n: int):
    """The summed volume of the cells of ``cell_dets`` on points cleared by
    D = ``scale``, divided once by n! D^n."""
    return linalg.over(sum(d for _, d, _ in dets), math.factorial(n) * scale ** n)


def volume(p: Polytope) -> Fraction:
    """Full-dimensional volume; lower-dimensional bodies have volume 0."""
    return _volume(p.walk, p.cleared[0], p.dim)


def _exact(view: tuple[int, Sequence]) -> bool:
    """Whether a body's view is in ints; it is all ints or all floats."""
    return all(type(x) is int for x in view[1][0])


def _image(p: Polytope, den: int, rows, exact: bool, f: int = 1) -> Polytope:
    """The body on p's cells whose vertices are ``rows`` over ``den``, its
    view seeded with them: ``exact`` int rows (tuples) reduced by their gcd
    with den, or float rows as the vertices and scale 1 (module docstring).

    An exact image's walk is seeded as (source, a, b): its |det E| are the
    source's times a / b = f / g^n in lowest terms, f the |det| of the int
    map that made the rows.  When p has not walked yet and holds a seed
    itself, the image takes p's source and multiplies the two seeds, so the
    source a seed names never holds one."""
    if exact:
        g = math.gcd(den, *itertools.chain.from_iterable(rows))
        if g > 1:
            den, rows = den // g, tuple(tuple(x // g for x in row) for row in rows)
        source, a, b = vars(p).get("_seed", (p, 1, 1))
        a, b = a * f, b * g ** p.dim
        c = math.gcd(a, b)
        image = object.__new__(Polytope)
        vars(image).update(dim=p.dim, triangulation=p.triangulation, cleared=(den, rows),
                           _seed=(source, a // c, b // c))
        return image
    vertices = tuple(tuple(x / den for x in row) for row in rows)
    image = Polytope(p.dim, vertices, p.triangulation)
    object.__setattr__(image, "cleared", (1, vertices))
    return image


def translate(p: Polytope, y: Sequence) -> Polytope:
    """Translate by y: for exact y and body, the view's pts and y's
    numerators brought to L = lcm(D, y's denominators) and added over L in
    one pass, else both in floats (module docstring)."""
    y = tuple(map(linalg.real, y))
    if len(y) != p.dim:
        raise DimensionMismatch("translation vector has wrong length")
    if _exact(p.cleared) and linalg.is_exact(y):
        den, pts = p.cleared
        big = math.lcm(den, *(c.denominator for c in y))
        m, ys = big // den, [c.numerator * (big // c.denominator) for c in y]
        return _image(p, big, tuple(tuple(x * m + c for x, c in zip(v, ys)) for v in pts), True,
                      m ** p.dim)
    _, (pts, (ys,)) = linalg.common_scale([p.cleared, linalg.clear_denominators([y])])
    return _image(p, 1, [list(map(operator.add, v, ys)) for v in pts], False)


def linear_image(phi: RMatrix, p: Polytope) -> Polytope:
    """Image under an invertible linear map: the points are mapped and the
    triangulation carries over.

    Each point of the body's view (d, pts) is scattered through phi's
    columns (``RMatrix.columns``, q): coordinate i times the nonzero entries
    of column i, so each image coordinate sums its terms in column order and
    only exact zeros are left out.  The sums are ints over q d, or floats
    when phi or the body holds a float.
    """
    if phi.n != p.dim:
        raise DimensionMismatch("matrix size does not match polytope dimension")
    q, cols = phi.columns
    d, pts = p.cleared
    exact = phi.exact and _exact(p.cleared)
    images = []
    for v in pts:
        out = [0] * p.dim
        for c, col in zip(v, cols):
            if c:
                for k, x in col:
                    out[k] += c * x
        images.append(tuple(out))
    f = q ** p.dim // phi.det.denominator * abs(phi.det.numerator) if exact else 1
    return _image(p, q * d, tuple(images), exact, f)


def scale(p: Polytope, lam) -> Polytope:
    """Dilation by lam about the origin: for exact lam = a / b and body, a
    times the view's pts over D b (``linear_image`` of lam times the
    identity), else both in floats (module docstring)."""
    lam = linalg.real(lam)
    if isinstance(lam, Fraction) and _exact(p.cleared):
        den, pts = p.cleared
        a = lam.numerator
        return _image(p, den * lam.denominator, tuple(tuple(x * a for x in v) for v in pts), True,
                      abs(a) ** p.dim)
    _, (pts, ((lam,),)) = linalg.common_scale([p.cleared, linalg.clear_denominators([[lam]])])
    return _image(p, 1, [[x * lam for x in v] for v in pts], False)


# -- facet / surface area data ---------------------------------------------------


def atom_totals(p: Polytope) -> tuple[object, list[tuple[list, Sequence]]]:
    """The atoms (outward area vectors) of the surface area measure as
    totals over one denominator, read off the body's triangulation:
    (den, [(total, base), ...]), base a point of the atom's facet on the
    body's view (D, pts, ``Polytope.cleared``) and den = (n-1)! D^(n-1).

    A face that no other cell shares lies on the boundary.  Its area vector
    is its normal (``_face_normals``, one walk over the sorted boundary
    faces) over (n-1)!, turned away from its cell's opposite vertex, and the
    faces on one hyperplane add up to one atom, in the order their first
    face has among the cells; float faces are on one hyperplane when their
    keys (``_hyperplane``) agree to 1e-9, the offset relative to the body's
    largest |coordinate|.  The sums run in ints, or in floats for float
    points (D = 1).  Atoms that sum to 0 are left out.

    Cells of fewer than n + 1 points, degenerate cells and atoms that do
    not sum to zero (overlapping cells) raise ``GeometryError``.  Exact
    atoms close only at 0; float atoms close within 1e-12 of their summed
    magnitudes (``_closes``).
    """
    n = p.dim
    if any(len(cell) != n + 1 for cell in p.triangulation):
        raise GeometryError("surface area measure needs full-dimensional cells")
    faces = [(cell[:k] + cell[k + 1:], i) for cell in p.triangulation for k, i in enumerate(cell)]
    keys = [tuple(sorted(face)) for face, _ in faces]
    shared = Counter(keys)
    boundary = sorted(key for key, count in shared.items() if count == 1)
    scale, pts = p.cleared
    normals = dict(zip(boundary, _face_normals(pts, boundary, n)))
    exact = _exact(p.cleared)
    near = 0 if exact else 1e-9 * max(abs(x) for pt in pts for x in pt)
    atoms: dict = {}
    for (face, opposite), face_key in zip(faces, keys):
        normal = normals.get(face_key)
        if normal is None:
            continue
        base = pts[face[0]]
        side = sum(map(operator.mul, normal, map(operator.sub, pts[opposite], base)))
        if side == 0:
            raise GeometryError("degenerate triangulation cell")
        key = _hyperplane(normal, base)
        if near:  # rounding sets the float keys of one facet's faces apart
            key = next((k for k in atoms if abs(k[1] - key[1]) <= near
                        and max(map(abs, map(operator.sub, k[0], key[0]))) <= 1e-9), key)
        total, _ = atoms.setdefault(key, ([0 if exact else 0.0] * n, base))
        total[:] = map(operator.sub if side > 0 else operator.add, total, normal)
    atoms = [(total, base) for total, base in atoms.values() if any(total)]
    totals = [total for total, _ in atoms]
    closes = not any(map(sum, zip(*totals))) if exact else _closes(totals)
    if not closes:
        raise GeometryError("facet area vectors do not close up")
    return math.factorial(n - 1) * scale ** (n - 1), atoms


def surface_area_measure(p: Polytope) -> tuple[FacetDatum, ...]:
    """The atoms of ``atom_totals`` as ``FacetDatum``s: each total over den
    and its offset <total, base> over den D, one division each."""
    den, atoms = atom_totals(p)
    scale = p.cleared[0]
    return tuple(FacetDatum(tuple(linalg.over(x, den) for x in total),
                            linalg.over(sum(map(operator.mul, total, base)), den * scale))
                 for total, base in atoms)


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


def _closes(vectors) -> bool:
    """Whether float vectors sum to zero within 1e-12 times the summed
    magnitudes of their components."""
    size = sum(abs(x) for v in vectors for x in v)
    return all(abs(sum(col)) <= 1e-12 * size for col in zip(*vectors))


# -- subspace volume --------------------------------------------------------------


def subspace_volume(p: Polytope, subspace):
    """Volume of a polytope inside a linear subspace, in the subspace's own
    dimension, in coordinates of its orthonormal ``basis`` (the argument's
    attribute, or the argument), checked by ``linalg.check_orthonormal``.
    On the views of the body P and of an exact basis B at one scale L
    (``linalg.common_scale``) the coordinates are the ints <P, B_i> over
    L^2, and a point lies in the subspace when L^2 P = sum <P, B_i> B_i.
    With a float among them the same sums run on the vertices and the basis
    as given, and a point lies in the subspace when its residual is at most
    1e-8 of its length."""
    basis = [tuple(b) for b in getattr(subspace, "basis", subspace)]
    linalg.check_orthonormal(basis)
    j = len(basis)
    big, (pts, rows) = linalg.common_scale([p.cleared, linalg.clear_denominators(basis)])
    exact, d2 = _exact((big, pts)), big * big
    if not exact:
        pts, rows = p.vertices, basis
    coords = []
    for pt in pts:
        cs = [sum(map(operator.mul, pt, b)) for b in rows]
        residual = [d2 * x for x in pt]
        for c, b in zip(cs, rows):
            residual = [r - c * x for r, x in zip(residual, b)]
        if any(residual) if exact else math.hypot(*residual) > 1e-8 * math.hypot(*pt):
            raise GeometryError("polytope does not lie in the subspace")
        coords.append(cs)
    view = (d2, coords) if exact else linalg.clear_denominators(coords)
    return _volume(cell_dets(view, p.triangulation, j), view[0], j)
