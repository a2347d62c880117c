"""The C^m / R^2m dictionary.

Complex vectors (z_1, ..., z_m) are identified with real vectors
(x_1, ..., x_m, y_1, ..., y_m); multiplication by i becomes the block
rotation J sending (x, y) to (-y, x).  Complex m x m matrices realify to
2m x 2m block matrices [[Re, -Im], [Im, Re]], a ring homomorphism with
det_R = |det_C|^2.

Subspaces carry an orthonormal real basis.  The adapted-basis constructor
splits a subspace L into its largest complex subspace U = L intersect J(L)
and a totally real remainder, returning a basis (v_1, ..., v_d,
J v_1, ..., J v_{j-d}) whose first d vectors are independent over C.

Every value is its integer view, as bodies and tensors are: a ``Subspace``
is its basis's view ``cleared`` and a ``CMatrix`` its realification, an
``RMatrix``, which is its own view.  Each is cleared once when it is
made, so a float or ``complex`` raises ``TypeError`` where it enters, and
its ``Fraction`` basis or entries are built off the view when first read.
Every orthonormal basis comes from one modified Gram-Schmidt, which
follows ``linalg``: the vectors are cleared of denominators once,
projections run in Python ints on primitive directions u, and each unit
vector u / root needs a perfect-square norm root^2.  ``gram_schmidt``
builds a ``Fraction`` only for each unit vector it returns;
``Subspace.span`` and ``adapted_basis`` build none, since the view of their
unit vectors is the ints u (L / root) over the lcm L of the roots
(``_view``, ``Subspace.from_view``).  So the adapted basis and the
orthonormality check ``linalg.check_orthonormal``, which takes a view,
take no ``Fraction`` dot product, and both rank decisions
(``complex_rank`` and the nullspace in ``adapted_basis``) are exact
eliminations.  The adapted basis, the complex rank and the
Klain probes read a subspace's view.  ``sample_subspace``
draws rational orthonormal frames: columns of Cayley transforms of integer
skew-symmetric matrices, taken and tested in ints.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import linalg
from .errors import DimensionMismatch, GeometryError, ParseError, ValutaError
from .linalg import CNum, RMatrix, cabs2, cdet, cnum, crank
from .symtensor import _json_int, _json_list, format_rational, parse_rational


@dataclass(frozen=True, init=False)
class CMatrix:
    """Square complex matrix held as its realification ``realified``, the
    ``RMatrix`` [[Re, -Im], [Im, Re]] (module docstring): its entries and
    det_C are read off the realification's view, and a product is the
    realifications' product, since realifying is a ring homomorphism."""

    realified: RMatrix

    def __init__(self, entries: Sequence[Sequence[CNum]]):
        if any(len(r) != len(entries) for r in entries):
            raise DimensionMismatch("CMatrix must be square")
        rows = [[re for re, _ in row] + [-im for _, im in row] for row in entries]
        rows += [[im for _, im in row] + [re for re, _ in row] for row in entries]
        vars(self)["realified"] = RMatrix(rows)

    @property
    def m(self) -> int:
        return self.realified.n // 2

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "CMatrix":
        """Rows of (re, im) pairs or of reals, a real x read as (x, 0)."""
        return CMatrix([[e if isinstance(e, tuple) else (e, 0) for e in row] for row in rows])

    @staticmethod
    def identity(m: int) -> "CMatrix":
        return CMatrix.diag([1] * m)

    @staticmethod
    def diag(values: Sequence) -> "CMatrix":
        m = len(values)
        return CMatrix.from_rows([[values[i] if i == j else 0 for j in range(m)] for i in range(m)])

    def _pairs(self) -> tuple[int, list[list[tuple[int, int]]]]:
        """(D, int pairs): entry (i, j) is the ints at (i, j) and (m + i, j)
        of the realification's view (D, rows) over D."""
        m, (scale, rows) = self.m, self.realified.cleared
        return scale, [list(zip(rows[i][:m], rows[m + i][:m])) for i in range(m)]

    @cached_property
    def entries(self) -> tuple[tuple[CNum, ...], ...]:
        """Each (re, im) int pair of ``_pairs`` over D, built on first read."""
        scale, pairs = self._pairs()
        return tuple(tuple((Fraction(x, scale), Fraction(y, scale)) for x, y in row)
                     for row in pairs)

    @cached_property
    def det_c(self) -> CNum:
        """``cdet`` of the int pairs of ``_pairs`` over D^m."""
        scale, pairs = self._pairs()
        re, im = cdet(pairs)
        return re / scale ** self.m, im / scale ** self.m

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        if self.m != other.m:
            raise DimensionMismatch("complex matrix product size mismatch")
        out = object.__new__(CMatrix)
        vars(out)["realified"] = self.realified @ other.realified
        return out

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "entries": [
                [{"re": format_rational(re), "im": format_rational(im)} for re, im in row]
                for row in self.entries
            ],
        }

    @staticmethod
    def from_json_dict(data) -> "CMatrix":
        """The matrix ``to_json_dict`` wrote; malformed input raises ``ParseError``."""
        try:
            rows = [[(parse_rational(e["re"]), parse_rational(e["im"])) for e in _json_list(row)]
                    for row in _json_list(data["entries"])]
            if _json_int(data.get("m", len(rows))) != len(rows):
                raise ParseError(f"m = {data['m']} but {len(rows)} rows")
            return CMatrix.from_rows(rows)
        except (KeyError, TypeError, DimensionMismatch) as exc:
            raise ParseError(f"bad complex matrix JSON: {exc}") from exc


def j_matrix(m: int) -> RMatrix:
    """Realification of multiplication by i: (x, y) -> (-y, x)."""
    rows = []
    for i in range(m):
        rows.append([0] * m + [-1 if k == i else 0 for k in range(m)])
    for i in range(m):
        rows.append([1 if k == i else 0 for k in range(m)] + [0] * m)
    return RMatrix.from_rows(rows)


def j_apply(v: Sequence) -> tuple:
    m = len(v) // 2
    return tuple(-x for x in v[m:]) + tuple(v[:m])


def realify(a: CMatrix) -> RMatrix:
    """Real 2m x 2m block matrix of a complex matrix: ``a.realified``, the
    same object on every call."""
    return a.realified


def det_identity_check(a: CMatrix) -> bool:
    """det of the realification equals |det_C|^2, exactly."""
    return realify(a).det == cabs2(a.det_c)


# -- subspaces -----------------------------------------------------------------


@dataclass(frozen=True, init=False)
class Subspace:
    """Real subspace of R^2m given by an orthonormal basis (rows), held as
    the basis's integer view ``cleared`` = (D, ints), what
    ``linalg.clear_denominators`` gives for the rows (rows as tuples)."""

    ambient: int
    cleared: tuple[int, tuple[tuple, ...]]
    retries: int = 0

    def __init__(self, ambient: int, basis: Sequence[Sequence], retries: int = 0):
        if ambient % 2 != 0:
            raise DimensionMismatch("ambient dimension must be even")
        if any(len(b) != ambient for b in basis):
            raise DimensionMismatch("basis vector of wrong length")
        scale, rows = linalg.clear_denominators(basis)
        vars(self).update(ambient=ambient, cleared=(scale, tuple(map(tuple, rows))),
                          retries=retries)

    @property
    def m(self) -> int:
        return self.ambient // 2

    @property
    def dim(self) -> int:
        return len(self.cleared[1])

    @cached_property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """Each int of the view (D, ints) over D, built on first read."""
        scale, rows = self.cleared
        return tuple(tuple(Fraction(x, scale) for x in row) for row in rows)

    @cached_property
    def complex_rank(self) -> int:
        return complex_rank(self)

    @classmethod
    def from_view(cls, ambient: int, view: tuple[int, tuple[tuple, ...]],
                  retries: int = 0) -> "Subspace":
        """The subspace of R^ambient whose view ``cleared`` is ``view`` =
        (D, rows), rows int tuples, without validation beyond the ambient's
        parity: it must be what clearing the basis would give, D the lcm of
        its denominators."""
        if ambient % 2 != 0:
            raise DimensionMismatch("ambient dimension must be even")
        out = object.__new__(cls)
        vars(out).update(ambient=ambient, cleared=view, retries=retries)
        return out

    @staticmethod
    def from_orthonormal(basis: Sequence[Sequence]) -> "Subspace":
        """A subspace on the given basis, its view checked to be orthonormal
        by ``linalg.check_orthonormal``; no vector raises ``GeometryError``."""
        if not basis:
            raise GeometryError("empty span")
        out = Subspace(len(basis[0]), basis)
        linalg.check_orthonormal(out.cleared)
        return out

    @staticmethod
    def span(vectors: Sequence[Sequence]) -> "Subspace":
        """Orthonormalize a rational spanning set by Gram-Schmidt in input
        order (``gram_schmidt``), which needs rational norms; the subspace is
        made on the view of its unit vectors (``_view``)."""
        dirs = _directions(vectors)
        if not dirs:
            raise GeometryError("empty span")
        return Subspace.from_view(len(dirs[0][0]), _view(dirs))


# A kept direction of ``gram_schmidt`` is (u, N, root): a primitive int
# vector u with N = |u|^2 = root^2, so its unit vector is u / root.


def _reduce(w, dirs) -> list:
    """N w - <w, u> u for each kept direction in turn (modified Gram-Schmidt):
    w's remainder against them, times the product of their N."""
    for u, n, _ in dirs:
        c = sum(map(operator.mul, w, u))
        w = [n * x - c * y for x, y in zip(w, u)]
    return w


def _direction(w):
    """The kept direction of an int remainder w, or None when w is zero: w
    over its gcd, whose squared length must be a perfect square for its unit
    vector to be rational."""
    g = math.gcd(*w)
    if g == 0:
        return None
    u = tuple(x // g for x in w)
    n = sum(x * x for x in u)
    root = math.isqrt(n)
    if root * root != n:
        raise ValutaError(f"exact orthonormalization needs a perfect-square norm, got {n}")
    return u, n, root


def _extend(rows, dirs: list) -> list:
    """Append to ``dirs`` the direction of each row's remainder against the
    directions so far, unless it is zero; returns ``dirs``."""
    for w in rows:
        d = _direction(_reduce(w, dirs))
        if d is not None:
            dirs.append(d)
    return dirs


def _directions(vecs: Sequence[Sequence], basis: Sequence[tuple] = ()) -> list:
    """The kept directions that extend the orthonormal ``basis`` to span the
    rational ``vecs`` too, cleared of denominators once and reduced in ints
    in input order; a float raises ``TypeError``."""
    _, rows = linalg.clear_denominators([*basis, *vecs])
    k = len(basis)
    return _extend(rows[k:], [_direction(b) for b in rows[:k]])[k:]


def _view(dirs) -> tuple[int, tuple[tuple, ...]]:
    """The integer view of the unit vectors u / root of kept directions: the
    rows u (L / root) over L, the lcm of the roots.  Each u is primitive, so
    the denominators of u / root have lcm root, and L is what clearing the
    unit vectors gives."""
    big = math.lcm(*(root for _, _, root in dirs))
    return big, tuple(tuple(x * (big // root) for x in u) for u, _, root in dirs)


def gram_schmidt(vecs: Sequence[Sequence], basis: Sequence[tuple] = ()) -> list[tuple]:
    """Orthonormal vectors that extend the orthonormal ``basis`` to span the
    rational ``vecs`` too; a float raises ``TypeError``.  The vectors are
    taken in input order; each is reduced against the ones so far and kept
    unless its remainder is zero.

    The input is cleared of denominators once and reduced in ints, each
    remainder over its gcd (``_directions``); a unit vector, which needs a
    perfect-square norm, is the only ``Fraction`` built.
    """
    return [tuple(Fraction(x, root) for x in u) for u, _, root in _directions(vecs, basis)]


def _complex_rows(basis: Sequence[Sequence], m: int) -> list[list[CNum]]:
    return [[(v[k], v[m + k]) for k in range(m)] for v in basis]


def complex_rank(subspace_or_basis) -> int:
    """Rank over C of a real subspace's rational basis viewed as complex
    m-vectors (``linalg.crank``), a ``Subspace``'s read on its integer
    view, which has the same rank; no basis vector has rank 0."""
    if isinstance(subspace_or_basis, Subspace):
        basis = subspace_or_basis.cleared[1]
    else:
        basis = [tuple(b) for b in subspace_or_basis]
    return crank(_complex_rows(basis, len(basis[0]) // 2)) if basis else 0


def adapted_basis(l: Subspace) -> Subspace:
    """Reorder and rebuild a basis of L as (v_1..v_d, J v_1..J v_{j-d}) with
    v_1..v_d independent over C, splitting off U = L intersect J(L).

    With B the orthonormal basis and G[a][c] = <J b_a, b_c>, x = B c lies in
    J(L) exactly when (B - JB G) c = 0, an exact nullspace.  U gets pairs
    (u, J u), each u the longest remainder of the nullspace vectors B^T c
    against the pairs so far; the totally real rest is ``gram_schmidt`` of
    B extending the pairs.  Each unit vector needs a perfect-square norm,
    else ``ValutaError``, which a generic subspace with m < j < 2m meets.

    B is read as its integer view (D, ``Subspace.cleared``), so G and
    B - JB G are taken as the ints D^2 G and D^3 (B - JB G), the nullspace
    vectors are cleared to one common scale, and the pairs and the rest are
    reduced in ints as ``gram_schmidt`` does.  The remainders of one round
    share a scale, so the longest is the one the Fractions would pick.
    """
    j, n = l.dim, l.ambient
    d, basis = l.cleared
    jb = [j_apply(v) for v in basis]
    g = [[sum(map(operator.mul, a, b)) for b in basis] for a in jb]
    d2 = d * d
    cols = [[d2 * x - sum(g[a][c] * jb[a][i] for a in range(j)) for i, x in enumerate(basis[c])]
            for c in range(j)]
    _, null = linalg.clear_denominators(linalg.nullspace(linalg.transpose(cols)))
    bt = linalg.transpose(basis)
    u_rows = [[sum(map(operator.mul, row, c)) for row in bt] for c in null]
    if len(u_rows) % 2 != 0:
        raise GeometryError("intersection with its J-image must be even-dimensional")
    pairs: list = []
    while len(pairs) < len(u_rows):
        reduced = (_reduce(w, pairs) for w in u_rows)
        best = _direction(max(reduced, key=lambda w: sum(x * x for x in w)))
        if best is None:
            raise GeometryError("failed to span the complex part")
        u, norm, root = best
        pairs += [best, (j_apply(u), norm, root)]
    dirs = _extend(basis, list(pairs))
    if len(dirs) != j:
        raise GeometryError("complex/real split dimensions do not add up")
    k = len(pairs)
    return Subspace.from_view(n, _view(dirs[:k:2] + dirs[k:] + dirs[1:k:2]), retries=l.retries)


def sample_subspace(m: int, j: int, seed) -> Subspace:
    """A j-dimensional subspace of R^2m of maximal complex rank min(j, m),
    with an exactly orthonormal rational basis.

    The basis is the first j columns of the Cayley transform
    (I - A)(I + A)^-1 = 2 (I + A)^-1 - I, an orthogonal matrix, of a random
    skew-symmetric A with entries in -3..3 drawn from ``seed`` (an int or a
    ``random.Random``); I + A is invertible for every real skew-symmetric A.
    With (I + A)^-1 = R / p (``linalg.inverse_view``), the columns are the
    ints 2 R - p I over p, and their complex rank is tested on those ints;
    each coordinate becomes a ``Fraction`` once, for the subspace returned.
    A draw of lower complex rank is retried and counted in ``retries``;
    hitting the retry bound signals a bug rather than bad luck.
    """
    if not 1 <= j <= 2 * m - 1:
        raise ValueError(f"subspace dimension {j} out of range for m={m}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = 2 * m
    for attempt in range(100):
        a = [[0] * n for _ in range(n)]
        for r in range(n):
            for c in range(r + 1, n):
                a[r][c] = rng.randint(-3, 3)
                a[c][r] = -a[r][c]
        p, inv = linalg.inverse_view([[int(r == c) + x for c, x in enumerate(row)]
                                      for r, row in enumerate(a)])
        cols = [tuple(2 * row[c] - p * (r == c) for r, row in enumerate(inv)) for c in range(j)]
        if complex_rank(cols) == min(j, m):
            basis = tuple(tuple(Fraction(x, p) for x in col) for col in cols)
            return Subspace(n, basis, retries=attempt)
    raise ValutaError("subspace sampling exhausted its retry budget; this is a bug")


# -- exact SL(m, C) elements -----------------------------------------------------


def sl_mc_element(kind: str, m: int, params=None, seed=None) -> CMatrix:
    """Determinant-one complex matrices: exact shears and diagonals, for
    the paper's m >= 2; a smaller m raises ``ValueError``."""
    if m < 2:
        raise ValueError(f"SL(m, C) samples need m >= 2, got m = {m}")
    if kind == "shear":
        return _shear(m, params, seed)
    if kind == "diag":
        return _sl_diag(m, params)
    raise ValueError(f"unknown element kind {kind!r}")


def _shear(m: int, params, seed) -> CMatrix:
    if params and "p" in params:
        p, q = params["p"], params["q"]
        if p == q or not (0 <= p < m and 0 <= q < m):
            raise ValueError("shear needs distinct indices inside range")
        entry = cnum(params.get("re", 0), params.get("im", 0))
        return CMatrix(_single_shear(m, p, q, entry))
    count = (params or {}).get("count", 1)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    out = CMatrix.identity(m)
    for _ in range(count):
        p = rng.randrange(m)
        q = (p + 1 + rng.randrange(m - 1)) % m
        while True:
            re = Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
            im = Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
            if re != 0 or im != 0:
                break
        out @= CMatrix(_single_shear(m, p, q, (re, im)))
    return out


def _single_shear(m: int, p: int, q: int, entry: CNum) -> list[list[CNum]]:
    rows = [[(1, 0) if i == j else (0, 0) for j in range(m)] for i in range(m)]
    rows[p][q] = entry
    return rows


def _sl_diag(m: int, params) -> CMatrix:
    if not params or "values" not in params:
        raise ValueError("diag kind needs values")
    values = [cnum(*v) if isinstance(v, (tuple, list)) else cnum(v) for v in params["values"]]
    if len(values) != m:
        raise ValueError(f"need {m} diagonal values")
    diag = CMatrix.diag(values)
    if diag.det_c != (1, 0):
        raise ValueError("diagonal values must multiply to 1")
    return diag

