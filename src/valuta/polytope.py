"""Convex polytopes with exact rational vertices.

A polytope is its vertices and its cells: a triangulation whose cells index
into the vertices.  Polytopes are built from generators with known
combinatorics (simplices, boxes, crosspolytopes, 2D polygons) or imported;
there is no general convex-hull machinery beyond the plane.  Affine maps
carry the vertices and keep the triangulation.

Every number is rational: a float, numpy float or ``complex`` coordinate
raises ``TypeError`` when the body is made, and a float shift or factor
when it enters ``translate`` or ``scale``.  A body is its cells and its
vertices' integer view ``cleared`` = (D, ints), what
``linalg.clear_denominators`` gives for the vertices (rows as tuples): the
constructor clears the vertices once, and ``Polytope.from_view`` takes a
view as it is.  Every reader (volume, atoms, import checks, the moment
kernel, affine maps, ``==`` and hashing) takes the view; the ``Fraction``
``vertices`` are built from it the first time they are read, so a body
that only such readers see never builds them.  ``linear_image``, ``scale``
and ``translate`` compute the image's ints N over a denominator den in one
pass off the body's view (D, pts): pts scattered through the nonzero
entries of phi's columns (``RMatrix.columns``, over q) over q D, a pts over
D b for lam = a / b, or pts and y's numerators brought to
L = lcm(D, y's denominators) and added over L.  The image is that view,
reduced by g = gcd(den, *N) when g > 1: the least L with every
L N_k / den an integer is den / g, so den / g is the lcm of the image's
denominators and N / g is L times its vertices, as clearing would give.

Cell determinants come from one walk, ``cell_dets``: the cells in sorted
order form a prefix tree, and a cell whose first n vertices a neighbour
shares takes |det E| off the exterior product of its edges, so Kuhn boxes
and crosspolytopes take no Bareiss determinant.  A body keeps its walk,
(cell, |det E|, k) per full-dimensional cell, as ``Polytope.walk``, which
``volume``, the import checks and the moment kernel read; ``subspace_volume``
walks its own coordinate view.  An image does not walk: the int map A
that built its ints N from the source's, before the reduction by g, scales
every edge matrix, so its |det E| is |det A| |det E_source| / g^n.  |det A|
is q^n |det phi| for ``linear_image``, read off the cached ``RMatrix.det``
u / w as the int (q^n / w) |u|, |a|^n for ``scale`` by a / b and m^n for
``translate``, with m = L / D.  ``_image`` hands the image its walk when it
makes it, the source's with each |det E| times |det A| over g^n, an exact
division since the result is |det E| of the image's own int edges.  So a
chain of maps walks its first body only.

Facet data is kept exact by using each facet's outward *area vector*: the
unit normal scaled by the facet's (n-1)-volume.  Area vectors of rational
polytopes are rational even when facet measures are irrational (sqrt(2) edge
lengths and the like), and they sum to zero exactly.  A body keeps its
atoms, as it keeps its walk: ``Polytope.atoms`` reads them off the
triangulation once per body, as int totals over one denominator held in
tuples, so the shared value cannot be changed.  The faces that no other
cell shares, in sorted order, form a prefix tree like the cells, and one
exterior-product walk over it (``_face_normals``, the stack of
``cell_dets``) gives each face's n signed (n-1)-minors as ints on the
body's view.  ``atom_totals`` returns the kept atoms,
``surface_area_measure`` builds its ``FacetDatum``s from them, ``validate``
compares them with the cells' walk, and the surface-area pairing of
``valuation_lab`` reads the totals themselves.  An affine image is handed
its source's walk only, never its atoms: it reads its atoms off
its own points, so the transfer check, which compares them with the
source's, never assumes the identity it checks.

Polytope JSON:
``{"dim": n, "vertices": [["p/q", ...], ...], "triangulation": [[i, ...], ...]}``;
a coordinate may also be a JSON number, read as the exact rational it is.
``dim`` and the indices are JSON integers and each vertex and cell is a
list; a float, a string or a bool in their place is refused, never
truncated or read character by character.  An ``"aux_points"`` list, which
older bodies wrote for a crosspolytope's centre, is read as more vertices
after the listed ones; a ``"facets"`` key is refused, since facets are read
off the triangulation.  Without a triangulation the body is the simplex on
n + 1 vertices, else their polygon in the plane; other bodies, an empty
triangulation, and aux_points without a triangulation, are rejected.  An
imported body is then ``validate``d, which a body built in code can ask
for too.
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
from .linalg import RMatrix, Vec, vec
from .symtensor import _json_int, _json_list, format_rational, mul_form, parse_rational


@dataclass(frozen=True)
class FacetDatum:
    """One atom of a polytope's surface area measure.

    ``direction`` is the outward area vector, whose Euclidean length is the
    facet measure; ``offset`` is max <direction, v> over the vertices.
    """

    direction: tuple
    offset: Fraction


@dataclass(frozen=True, init=False)
class Polytope:
    """A body: its vertices' integer view and its cells (module docstring)."""

    dim: int
    # The vertices' integer view (D, ints), as ``linalg.clear_denominators``
    # gives it for them, its rows as tuples.
    cleared: tuple[int, tuple[tuple, ...]]
    triangulation: tuple[tuple[int, ...], ...]

    def __init__(self, dim: int, vertices: Sequence[Sequence], triangulation):
        if not vertices:
            raise GeometryError("polytope needs at least one vertex")
        for v in vertices:
            if len(v) != dim:
                raise DimensionMismatch(f"point {v} not in R^{dim}")
        scale, rows = linalg.clear_denominators(vertices)  # a float raises TypeError
        vars(self).update(dim=dim, cleared=(scale, tuple(map(tuple, rows))),
                          triangulation=tuple(map(tuple, triangulation)))

    @classmethod
    def from_view(cls, dim: int, triangulation, view: tuple[int, tuple[tuple, ...]],
                  walk: tuple | None = None) -> "Polytope":
        """The body on ``triangulation`` whose view ``cleared`` is ``view`` =
        (D, rows), rows int tuples, without validation: it must be what
        clearing the body's vertices would give, D the lcm of their
        denominators.  A ``walk``, when given, is kept as the body's."""
        body = object.__new__(cls)
        vars(body).update(dim=dim, cleared=view, triangulation=triangulation)
        if walk is not None:
            vars(body)["walk"] = walk
        return body

    @cached_property
    def vertices(self) -> tuple[Vec, ...]:
        """Each int of the view (D, ints) over D, built on first read."""
        den, rows = self.cleared
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)

    @cached_property
    def walk(self) -> tuple[tuple[tuple, object, int], ...]:
        """The cells' determinant walk, ``cell_dets`` on the view ``cleared``:
        (cell, |det E|, k) per full-dimensional cell in sorted order, built
        once per body, or handed to an image by the map that made it
        (``_image``; module docstring)."""
        return tuple(cell_dets(self.cleared, self.triangulation, self.dim))

    @cached_property
    def atoms(self) -> tuple[int, tuple[tuple[tuple, tuple], ...]]:
        """The atoms (outward area vectors) of the surface area measure as
        int totals over one denominator, read off the triangulation once per
        body: (den, ((total, base), ...)), base a point of the atom's facet
        on the view (D, pts, ``cleared``) and den = (n-1)! D^(n-1).

        A face that no other cell shares lies on the boundary.  Its area
        vector is its normal (``_face_normals``, one walk over the sorted
        boundary faces) over (n-1)!, turned away from its cell's opposite
        vertex, and the faces on one hyperplane (``_hyperplane``) add up to
        one atom, in the order their first face has among the cells.  The
        sums run in ints.  Atoms that sum to 0 are left out.

        Cells of fewer than n + 1 points, degenerate cells and atoms that do
        not sum to zero (overlapping cells) raise ``GeometryError``.  An
        affine image reads its own (``_image`` hands it only the walk)."""
        n = self.dim
        if any(len(cell) != n + 1 for cell in self.triangulation):
            raise GeometryError("surface area measure needs full-dimensional cells")
        faces = [(cell[:k] + cell[k + 1:], i)
                 for cell in self.triangulation for k, i in enumerate(cell)]
        keys = [tuple(sorted(face)) for face, _ in faces]
        shared = Counter(keys)
        boundary = sorted(key for key, count in shared.items() if count == 1)
        scale, pts = self.cleared
        normals = dict(zip(boundary, _face_normals(pts, boundary, n)))
        atoms: dict = {}
        for (face, opposite), face_key in zip(faces, keys):
            normal = normals.get(face_key)
            if normal is None:
                continue
            base = pts[face[0]]
            side = sum(map(operator.mul, normal, map(operator.sub, pts[opposite], base)))
            if side == 0:
                raise GeometryError("degenerate triangulation cell")
            total, _ = atoms.setdefault(_hyperplane(normal, base), ([0] * n, base))
            total[:] = map(operator.sub if side > 0 else operator.add, total, normal)
        totals = tuple((tuple(total), base) for total, base in atoms.values() if any(total))
        if any(map(sum, zip(*(total for total, _ in totals)))):
            raise GeometryError("facet area vectors do not close up")
        return math.factorial(n - 1) * scale ** (n - 1), totals

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[format_rational(x) for x in v] for v in self.vertices],
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
        if tri == ():
            raise ParseError("empty triangulation: list the cells, or leave the key out")
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
    (``Polytope.atoms``), no cell of determinant 0, and a volume equal to the
    sum of the atoms' offsets over n (divergence theorem; overlapping cells
    break it): sum |det E| of the walk against sum <total, base> over the
    atoms, both over (n-1)! D^n, in ints.  Imports run it; the constructor
    does not, since every affine map builds a body."""
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
    _, atoms = p.atoms
    dets = [d for _, d, _ in p.walk]
    if not all(dets):
        raise GeometryError("triangulation cell of determinant 0")
    terms = dets + [-sum(map(operator.mul, total, base)) for total, base in atoms]
    if sum(terms):
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
    volume, an int, and k the length
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
    return Fraction(sum(d for _, d, _ in dets), math.factorial(n) * scale ** n)


def volume(p: Polytope) -> Fraction:
    """Full-dimensional volume; lower-dimensional bodies have volume 0."""
    return _volume(p.walk, p.cleared[0], p.dim)


def _image(p: Polytope, den: int, rows, f: int) -> Polytope:
    """The body on p's cells whose vertices are the int ``rows`` (tuples)
    over ``den``, reduced by their gcd g with den, with p's walk times
    f / g^n, f the |det| of the int map that made the rows (module
    docstring).  Only the walk is handed on: the image reads its atoms off
    its own points."""
    g = math.gcd(den, *itertools.chain.from_iterable(rows))
    if g > 1:
        den, rows = den // g, tuple(tuple(x // g for x in row) for row in rows)
    b = g ** p.dim
    return Polytope.from_view(p.dim, p.triangulation, (den, rows),
                              tuple((cell, d * f // b, k) for cell, d, k in p.walk))


def translate(p: Polytope, y: Sequence) -> Polytope:
    """Translate by a rational y: the view's pts and y's numerators brought
    to L = lcm(D, y's denominators) and added over L in one pass (module
    docstring)."""
    y = vec(y)
    if len(y) != p.dim:
        raise DimensionMismatch("translation vector has wrong length")
    den, pts = p.cleared
    big = math.lcm(den, *(c.denominator for c in y))
    m, ys = big // den, [c.numerator * (big // c.denominator) for c in y]
    return _image(p, big, tuple(tuple(x * m + c for x, c in zip(v, ys)) for v in pts), m ** p.dim)


def linear_image(phi: RMatrix, p: Polytope) -> Polytope:
    """Image under an invertible linear map: the points are mapped and the
    triangulation carries over.

    Each point of the body's view (d, pts) is scattered through phi's
    columns (``RMatrix.columns``, q): coordinate i times the nonzero entries
    of column i, so each image coordinate sums its terms in column order and
    only zeros are left out.  The sums are ints over q d.
    """
    if phi.n != p.dim:
        raise DimensionMismatch("matrix size does not match polytope dimension")
    q, cols = phi.columns
    d, pts = p.cleared
    images = []
    for v in pts:
        out = [0] * p.dim
        for c, col in zip(v, cols):
            if c:
                for k, x in col:
                    out[k] += c * x
        images.append(tuple(out))
    f = q ** p.dim // phi.det.denominator * abs(phi.det.numerator)
    return _image(p, q * d, tuple(images), f)


def scale(p: Polytope, lam) -> Polytope:
    """Dilation by a rational lam = a / b about the origin: a times the
    view's pts over D b (``linear_image`` of lam times the identity)."""
    a, b = linalg.frac(lam).as_integer_ratio()
    den, pts = p.cleared
    return _image(p, den * b, tuple(tuple(x * a for x in v) for v in pts), abs(a) ** p.dim)


# -- facet / surface area data ---------------------------------------------------


def atom_totals(p: Polytope) -> tuple[int, tuple[tuple[tuple, tuple], ...]]:
    """The atoms the body keeps, ``Polytope.atoms``: (den, ((total, base),
    ...)), read off its triangulation on first use."""
    return p.atoms


def surface_area_measure(p: Polytope) -> tuple[FacetDatum, ...]:
    """The atoms the body keeps (``Polytope.atoms``) as ``FacetDatum``s:
    each total over den and its offset <total, base> over den D, one
    division each."""
    den, atoms = p.atoms
    scale = p.cleared[0]
    return tuple(FacetDatum(tuple(Fraction(x, den) for x in total),
                            Fraction(sum(map(operator.mul, total, base)), den * scale))
                 for total, base in atoms)


def _hyperplane(normal: list, point) -> tuple:
    """Key of the hyperplane through ``point`` normal to the int ``normal``:
    the normal over its gcd, signed so that the largest entry is positive,
    and that vector's product with ``point``."""
    g = math.gcd(*normal)
    if max(normal, key=abs) < 0:
        g = -g
    u = tuple(x // g for x in normal)
    return u, sum(map(operator.mul, u, point))


# -- subspace volume --------------------------------------------------------------


def subspace_volume(p: Polytope, subspace):
    """Volume of a polytope inside a linear subspace, in the subspace's own
    dimension, in coordinates of its rational orthonormal ``basis`` (the
    argument's attribute, or the argument), checked by
    ``linalg.check_orthonormal``, which refuses a float with ``TypeError``.
    On the views of the body P and of B at one scale L
    (``linalg.common_scale``) the coordinates are the ints <P, B_i> over
    L^2, and a point lies in the subspace when L^2 P = sum <P, B_i> B_i."""
    basis = [tuple(b) for b in getattr(subspace, "basis", subspace)]
    linalg.check_orthonormal(basis)
    j = len(basis)
    big, (pts, rows) = linalg.common_scale([p.cleared, linalg.clear_denominators(basis)])
    d2 = big * big
    coords = []
    for pt in pts:
        cs = [sum(map(operator.mul, pt, b)) for b in rows]
        residual = [d2 * x for x in pt]
        for c, b in zip(cs, rows):
            residual = [r - c * x for r, x in zip(residual, b)]
        if any(residual):
            raise GeometryError("polytope does not lie in the subspace")
        coords.append(cs)
    return _volume(cell_dets((d2, coords), p.triangulation, j), d2, j)
