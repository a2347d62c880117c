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

Matrices and subspaces take their mode from their entries: rational
entries are kept as ``Fraction``s and stay exact throughout, any other
real becomes a float.  Every orthonormal basis comes from one modified
Gram-Schmidt, ``gram_schmidt``, exact for rational vectors and in floats
otherwise.  The exact path follows ``linalg``: the vectors are cleared of
denominators once, projections run in Python ints on primitive directions,
and a ``Fraction`` is built only for each unit vector returned, so the
adapted basis and the orthonormality check ``linalg.check_orthonormal``
take no ``Fraction`` dot product.  numpy is used only for sampling and for
the two float rank decisions (``complex_rank`` and the nullspace in
``adapted_basis``), which read singular values against ``RANK_TOL`` and
refuse a verdict inside the ``AMBIGUITY_BAND`` around it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, GeometryError, NumericalRankError, ParseError, ValutaError
from .linalg import CNum, cdet, cnum, crank
from .symtensor import RMatrix, _json_int, _json_list, json_rational, parse_rational

RANK_TOL = 1e-8
AMBIGUITY_BAND = 1e2


@dataclass(frozen=True)
class CMatrix:
    """Square complex matrix of (re, im) pairs: rational parts are kept as
    ``Fraction``s and any other real as a float; ``exact`` is read off the
    entries."""

    entries: tuple[tuple[CNum, ...], ...]

    def __post_init__(self):
        m = len(self.entries)
        rows = tuple(
            tuple((linalg.real(re), linalg.real(im)) for re, im in row) for row in self.entries)
        if any(len(r) != m for r in rows):
            raise DimensionMismatch("CMatrix must be square")
        object.__setattr__(self, "entries", rows)

    @property
    def m(self) -> int:
        return len(self.entries)

    @cached_property
    def exact(self) -> bool:
        return linalg.is_exact(x for row in self.entries for e in row for x in e)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "CMatrix":
        def pair(e):
            return e if isinstance(e, tuple) else (
                (e.real, e.imag) if isinstance(e, complex) else (e, 0))
        return CMatrix(tuple(tuple(map(pair, row)) for row in rows))

    @staticmethod
    def identity(m: int) -> "CMatrix":
        return CMatrix.from_rows(
            [[(1, 0) if i == j else (0, 0) for j in range(m)] for i in range(m)])

    @staticmethod
    def diag(values: Sequence) -> "CMatrix":
        m = len(values)
        vals = [v if isinstance(v, tuple) else (v, 0) for v in values]
        return CMatrix.from_rows(
            [[vals[i] if i == j else (0, 0) for j in range(m)] for i in range(m)])

    @cached_property
    def det_c(self) -> CNum:
        return cdet(self.entries)

    @cached_property
    def realified(self) -> RMatrix:
        """The real 2m x 2m block matrix [[Re, -Im], [Im, Re]], built once
        per matrix, so its ``det`` and integer view are too (``realify``)."""
        m = self.m
        re = [[self.entries[i][j][0] for j in range(m)] for i in range(m)]
        im = [[self.entries[i][j][1] for j in range(m)] for i in range(m)]
        rows = [re[i] + [-x for x in im[i]] for i in range(m)]
        rows += [im[i] + re[i] for i in range(m)]
        return RMatrix.from_rows(rows)

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        if self.m != other.m:
            raise DimensionMismatch("complex matrix product size mismatch")
        return CMatrix(tuple(map(tuple, linalg.cmat_mul(self.entries, other.entries))))

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "entries": [
                [{"re": json_rational(re), "im": json_rational(im)} for re, im in row]
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
    """det of the realification equals |det_C|^2."""
    dc = a.det_c
    if a.exact:
        return realify(a).det == dc[0] * dc[0] + dc[1] * dc[1]
    return math.isclose(realify(a).det, dc[0] ** 2 + dc[1] ** 2, rel_tol=1e-9, abs_tol=1e-12)


# -- subspaces -----------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Real subspace of R^2m given by an orthonormal basis (rows).  Rational
    coordinates are kept as ``Fraction``s and any other real as a float;
    ``exact`` is read off the coordinates."""

    ambient: int
    basis: tuple[tuple, ...]
    retries: int = 0

    def __post_init__(self):
        if self.ambient % 2 != 0:
            raise DimensionMismatch("ambient dimension must be even")
        basis = tuple(tuple(map(linalg.real, b)) for b in self.basis)
        for b in basis:
            if len(b) != self.ambient:
                raise DimensionMismatch("basis vector of wrong length")
        object.__setattr__(self, "basis", basis)

    @property
    def m(self) -> int:
        return self.ambient // 2

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def exact(self) -> bool:
        return linalg.is_exact(x for b in self.basis for x in b)

    @cached_property
    def complex_rank(self) -> int:
        return complex_rank(self)

    @staticmethod
    def from_orthonormal(basis: Sequence[Sequence]) -> "Subspace":
        """A subspace on the given basis, checked to be orthonormal by
        ``linalg.check_orthonormal``."""
        basis = tuple(tuple(v) for v in basis)
        out = Subspace(len(basis[0]), basis)
        linalg.check_orthonormal(out.basis)
        return out

    @staticmethod
    def span(vectors: Sequence[Sequence]) -> "Subspace":
        """Orthonormalize a spanning set by ``gram_schmidt`` in input order,
        with the drop cut of ``span_tol``; exact for rational vectors, which
        needs rational norms."""
        vectors = [tuple(map(linalg.real, v)) for v in vectors]
        basis = gram_schmidt(vectors, span_tol(vectors))
        if not basis:
            raise GeometryError("empty span")
        return Subspace(len(basis[0]), tuple(basis))


def span_tol(vectors: Sequence[Sequence]):
    """The remainder length at or below which a spanning vector counts as
    dependent: 0 for rational vectors, so only exact zeros drop, and 1e-10
    times the longest vector for floats."""
    if linalg.is_exact(x for v in vectors for x in v):
        return 0
    return 1e-10 * max((math.hypot(*v) for v in vectors), default=0.0)


# A kept direction of ``gram_schmidt`` is (u, N, unit): for exact vectors a
# primitive int vector u with N = |u|^2 and unit = u / sqrt(N) in Fractions,
# for floats the unit vector itself with N = 1.


def _reduce(w, dirs) -> list:
    """N w - <w, u> u for each kept direction in turn (modified Gram-Schmidt):
    w's remainder against them, times the product of their N."""
    for u, n, _ in dirs:
        c = sum(map(operator.mul, w, u))
        w = [n * x - c * y for x, y in zip(w, u)]
    return w


def _direction(w, tol):
    """The kept direction of a remainder w, or None when w is at most tol
    long: a float w over its length, an int w over its gcd, whose squared
    length must then be a perfect square for its unit vector to be rational."""
    n = sum(x * x for x in w)
    if n <= tol * tol:
        return None
    if isinstance(n, float):
        root = math.sqrt(n)
        unit = tuple(x / root for x in w)
        return unit, 1, unit
    g = math.gcd(*w)
    u = tuple(x // g for x in w)
    n //= g * g
    root = math.isqrt(n)
    if root * root != n:
        raise ValutaError(f"exact orthonormalization needs a perfect-square norm, got {n}")
    return u, n, tuple(Fraction(x, root) for x in u)


def _extend(rows, dirs: list, tol) -> list:
    """Append to ``dirs`` the direction of each row's remainder against the
    directions so far, unless it is at most ``tol`` long; returns ``dirs``."""
    for w in rows:
        d = _direction(_reduce(w, dirs), tol)
        if d is not None:
            dirs.append(d)
    return dirs


def gram_schmidt(vecs: Sequence[Sequence], tol, basis: Sequence[tuple] = ()) -> list[tuple]:
    """Orthonormal vectors that extend the orthonormal ``basis`` to span
    ``vecs`` too.  The vectors are taken in input order; each is reduced
    against the ones so far and kept when its remainder is longer than
    ``tol``.

    Rational input is cleared of denominators once and reduced in ints,
    each remainder over its gcd; a unit vector, which needs a perfect-square
    norm, is the only ``Fraction`` built.  Exact remainders keep no common
    length scale, so only zero ones drop (``span_tol`` gives 0 for them).
    Input holding a float runs the same steps on floats and unit vectors.
    """
    exact = linalg.is_exact(x for v in (*basis, *vecs) for x in v)
    _, rows = linalg.clear_denominators([*basis, *vecs])
    k = len(basis)
    dirs = [_direction(b, 0) if exact else (b, 1, b) for b in rows[:k]]
    return [unit for _, _, unit in _extend(rows[k:], dirs, 0 if exact else tol)[k:]]


def _complex_rows(basis: Sequence[Sequence], m: int) -> list[list[CNum]]:
    return [[(v[k], v[m + k]) for k in range(m)] for v in basis]


def _nonzero(sigma: np.ndarray) -> np.ndarray:
    """Which singular values, on a scale where the largest possible is
    about 1, count as nonzero; raises ``NumericalRankError`` when one sits
    inside the ambiguity band around ``RANK_TOL``."""
    if any(RANK_TOL / AMBIGUITY_BAND < s < RANK_TOL * AMBIGUITY_BAND for s in sigma):
        raise NumericalRankError(
            f"singular values {sigma} sit inside the rank ambiguity band at {RANK_TOL}")
    return sigma > RANK_TOL


def complex_rank(subspace_or_basis) -> int:
    """Rank over C of a real subspace's basis viewed as complex m-vectors."""
    basis = getattr(subspace_or_basis, "basis", subspace_or_basis)
    basis = [tuple(b) for b in basis]
    m = len(basis[0]) // 2
    if linalg.is_exact(x for b in basis for x in b):
        return crank(_complex_rows(basis, m))
    mat = np.array([[complex(b[k], b[m + k]) for k in range(m)] for b in basis])
    sigma = np.linalg.svd(mat, compute_uv=False)
    if len(sigma) == 0:
        return 0
    top = sigma[0] if sigma[0] > 0 else 1.0
    return int(_nonzero(sigma / top).sum())


def adapted_basis(l: Subspace) -> Subspace:
    """Reorder and rebuild a basis of L as (v_1..v_d, J v_1..J v_{j-d}) with
    v_1..v_d independent over C, splitting off U = L intersect J(L).

    With B the orthonormal basis and G[a][c] = <J b_a, b_c>, x = B c lies in
    J(L) exactly when (B - JB G) c = 0, and the singular values of
    B - JB G are the sines of the principal angles theta between L and
    J(L).  Its nullspace is exact for rational input.  For floats it is read
    off an SVD, with the rank band applied to tan(theta / 2): for a 2-plane
    that is the singular value ratio ``complex_rank`` reads, so both float
    decisions see one number.  U gets pairs (u, J u), each u the longest
    remainder of the nullspace vectors B^T c against the pairs so far; the
    totally real rest is ``gram_schmidt`` of B extending the pairs.

    A rational B is cleared of denominators once (D), so G and B - JB G are
    taken as the ints D^2 G and D^3 (B - JB G), the nullspace vectors are
    cleared to one common scale, and the pairs and the rest are reduced in
    ints as ``gram_schmidt`` does.  The remainders of one round share a
    scale, so the longest is the one the Fractions would pick.  Float B runs
    the same steps with D = 1.
    """
    j, n = l.dim, l.ambient
    d, basis = linalg.clear_denominators(l.basis)
    jb = [j_apply(v) for v in basis]
    g = [[sum(map(operator.mul, a, b)) for b in basis] for a in jb]
    d2 = d * d
    cols = [[d2 * x - sum(g[a][c] * jb[a][i] for a in range(j)) for i, x in enumerate(basis[c])]
            for c in range(j)]
    if l.exact:
        _, null = linalg.clear_denominators(linalg.nullspace(linalg.transpose(cols)))
        tol = 0
    else:
        _, sines, vt = np.linalg.svd(np.array(cols, dtype=float).T)
        null = vt[~_nonzero(np.tan(np.arcsin(np.minimum(sines, 1.0)) / 2))].tolist()
        # between the sines counted as zero (<= 2e-10) and the nonzero ones (>= 2e-6)
        tol = 1e-9
    bt = linalg.transpose(basis)
    u_rows = [[sum(map(operator.mul, row, c)) for row in bt] for c in null]
    if len(u_rows) % 2 != 0:
        raise GeometryError("intersection with its J-image must be even-dimensional")
    pairs: list = []
    while len(pairs) < len(u_rows):
        reduced = (_reduce(w, pairs) for w in u_rows)
        best = _direction(max(reduced, key=lambda w: sum(x * x for x in w)), tol)
        if best is None:
            raise GeometryError("failed to span the complex part")
        u, norm, unit = best
        pairs += [best, (j_apply(u), norm, j_apply(unit))]
    units = [unit for _, _, unit in _extend(basis, list(pairs), tol)]
    if len(units) != j:
        raise GeometryError("complex/real split dimensions do not add up")
    k = len(pairs)
    return Subspace(n, tuple(units[:k:2] + units[k:] + units[1:k:2]), retries=l.retries)


def sample_subspace(m: int, j: int, seed) -> Subspace:
    """Uniform-ish j-dimensional subspace of R^2m with maximal complex rank.

    Draws Gaussian frames and retries when the complex rank is below
    min(j, m); lower-rank frames have measure zero, so hitting the retry
    bound signals a bug rather than bad luck.
    """
    if not 1 <= j <= 2 * m - 1:
        raise ValueError(f"subspace dimension {j} out of range for m={m}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    target = min(j, m)
    for attempt in range(100):
        g = rng.standard_normal((2 * m, j))
        q, _ = np.linalg.qr(g)
        basis = tuple(tuple(q[:, i]) for i in range(j))
        try:
            rank = complex_rank(basis)
        except NumericalRankError:
            continue
        if rank == target:
            return Subspace(2 * m, basis, retries=attempt)
    raise ValutaError("subspace sampling exhausted its retry budget; this is a bug")


# -- exact SL(m, C) elements -----------------------------------------------------


def sl_mc_element(kind: str, m: int, params=None, seed=None) -> CMatrix:
    """Determinant-one complex matrices: exact shears and diagonals."""
    if kind == "shear":
        return _shear(m, params, seed)
    if kind == "diag":
        return _sl_diag(m, params)
    raise ValueError(f"unknown element kind {kind!r}")


def _shear(m: int, params, seed) -> CMatrix:
    import random

    if params and "p" in params:
        p, q = params["p"], params["q"]
        if p == q or not (0 <= p < m and 0 <= q < m):
            raise ValueError("shear needs distinct indices inside range")
        entry = cnum(params.get("re", 0), params.get("im", 0))
        return CMatrix.from_rows(_single_shear(m, p, q, entry))
    count = (params or {}).get("count", 1)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    out = CMatrix.identity(m).entries
    for _ in range(count):
        p = rng.randrange(m)
        q = (p + 1 + rng.randrange(m - 1)) % m
        while True:
            re = Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
            im = Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
            if re != 0 or im != 0:
                break
        out = linalg.cmat_mul(out, _single_shear(m, p, q, (re, im)))
    return CMatrix(tuple(map(tuple, out)))


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

