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
otherwise.  numpy is used only for sampling and for the two float rank
decisions (``complex_rank`` and the nullspace in ``adapted_basis``), which
read singular values against ``RANK_TOL`` and refuse a verdict inside the
``AMBIGUITY_BAND`` around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, GeometryError, NumericalRankError, ValutaError
from .linalg import CNum, cdet, cmul, cnum, crank, exact_sqrt
from .symtensor import RMatrix, format_rational, parse_rational

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
        conv = []
        for row in rows:
            out = []
            for e in row:
                if isinstance(e, tuple):
                    out.append(e)
                elif isinstance(e, complex):
                    out.append((e.real, e.imag))
                else:
                    out.append((e, 0))
            conv.append(tuple(out))
        return CMatrix(tuple(conv))

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

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        if self.m != other.m:
            raise DimensionMismatch("complex matrix product size mismatch")
        return CMatrix(tuple(map(tuple, linalg.cmat_mul(self.entries, other.entries))))

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
        rows = [
            [(parse_rational(e["re"]), parse_rational(e["im"])) for e in row]
            for row in data["entries"]
        ]
        return CMatrix.from_rows(rows)


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
    """Real 2m x 2m block matrix of a complex matrix."""
    m = a.m
    re = [[a.entries[i][j][0] for j in range(m)] for i in range(m)]
    im = [[a.entries[i][j][1] for j in range(m)] for i in range(m)]
    rows = [re[i] + [-x for x in im[i]] for i in range(m)]
    rows += [im[i] + re[i] for i in range(m)]
    return RMatrix.from_rows(rows)


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
        """A subspace on the given basis, checked to be orthonormal: exactly
        for an exact basis, within 1e-9 for a float one."""
        basis = tuple(tuple(v) for v in basis)
        out = Subspace(len(basis[0]), basis)
        tol = 0 if out.exact else 1e-9
        for i, u in enumerate(out.basis):
            for k, v in enumerate(out.basis):
                if abs(linalg.dot(u, v) - (i == k)) > tol:
                    raise GeometryError("basis is not orthonormal")
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


def _reduce(v, basis) -> tuple:
    """v minus its projections onto the orthonormal vectors of basis, taken
    one after another (modified Gram-Schmidt)."""
    w = tuple(v)
    for b in basis:
        c = linalg.dot(w, b)
        w = tuple(x - c * y for x, y in zip(w, b))
    return w


def _unit(w, tol):
    """w over its length, or None when the length is at most tol; an exact
    w needs a rational length."""
    norm_sq = linalg.dot(w, w)
    if norm_sq <= tol * tol:
        return None
    if isinstance(norm_sq, float):
        root = math.sqrt(norm_sq)
    else:
        root = exact_sqrt(norm_sq)
        if root is None:
            raise ValutaError(
                f"exact orthonormalization needs a perfect-square norm, got {norm_sq}")
    return tuple(x / root for x in w)


def gram_schmidt(vecs: Sequence[Sequence], tol, basis: Sequence[tuple] = ()) -> list[tuple]:
    """Orthonormal vectors that extend the orthonormal ``basis`` to span
    ``vecs`` too.  The vectors are taken in input order; each is reduced
    against the ones so far and kept when its remainder is longer than
    ``tol``.  Exact input stays exact and needs rational norms."""
    out = list(basis)
    for v in vecs:
        unit = _unit(_reduce(v, out), tol)
        if unit is not None:
            out.append(unit)
    return out[len(basis):]


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
    remainder of the nullspace vectors against the pairs so far; the
    totally real rest is ``gram_schmidt`` of B extending the pairs.  Both
    steps are shared by both modes.
    """
    basis = list(l.basis)
    j, n = len(basis), l.ambient
    jb = [j_apply(v) for v in basis]
    g = [[linalg.dot(a, b) for b in basis] for a in jb]
    cols = [[x - sum(g[a][c] * jb[a][i] for a in range(j)) for i, x in enumerate(basis[c])]
            for c in range(j)]
    if l.exact:
        null = linalg.nullspace(linalg.transpose(cols))
        tol = 0
    else:
        _, sines, vt = np.linalg.svd(np.array(cols, dtype=float).T)
        null = vt[~_nonzero(np.tan(np.arcsin(np.minimum(sines, 1.0)) / 2))].tolist()
        # between the sines counted as zero (<= 2e-10) and the nonzero ones (>= 2e-6)
        tol = 1e-9
    bt = linalg.transpose(basis)
    u_vectors = [linalg.mat_vec(bt, c) for c in null]
    if len(u_vectors) % 2 != 0:
        raise GeometryError("intersection with its J-image must be even-dimensional")
    pairs: list[tuple] = []
    while len(pairs) < len(u_vectors):
        reduced = (_reduce(v, pairs) for v in u_vectors)
        unit = _unit(max(reduced, key=lambda w: linalg.dot(w, w)), tol)
        if unit is None:
            raise GeometryError("failed to span the complex part")
        pairs += [unit, j_apply(unit)]
    w_basis = gram_schmidt(basis, tol, pairs)
    if len(w_basis) != j - len(pairs):
        raise GeometryError("complex/real split dimensions do not add up")
    return Subspace(n, tuple(pairs[::2] + w_basis + pairs[1::2]), retries=l.retries)


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
    """Determinant-one complex matrices: exact shears and diagonals, or a
    float unitary sample for smoke tests."""
    if kind == "shear":
        return _shear(m, params, seed)
    if kind == "diag":
        return _sl_diag(m, params)
    if kind == "unitary-float":
        return _unitary_float(m, seed)
    raise ValueError(f"unknown element kind {kind!r}")


def _shear(m: int, params, seed) -> CMatrix:
    import random

    if params and "p" in params:
        p, q = params["p"], params["q"]
        if p == q or not (0 <= p < m and 0 <= q < m):
            raise ValueError("shear needs distinct indices inside range")
        entry = cnum(params.get("re", 0), params.get("im", 0))
        return _single_shear(m, p, q, entry)
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
        out = out @ _single_shear(m, p, q, (re, im))
    return out


def _single_shear(m: int, p: int, q: int, entry: CNum) -> CMatrix:
    rows = [[(1, 0) if i == j else (0, 0) for j in range(m)] for i in range(m)]
    rows[p][q] = entry
    return CMatrix.from_rows(rows)


def _sl_diag(m: int, params) -> CMatrix:
    if not params or "values" not in params:
        raise ValueError("diag kind needs values")
    values = [cnum(*v) if isinstance(v, (tuple, list)) else cnum(v) for v in params["values"]]
    if len(values) != m:
        raise ValueError(f"need {m} diagonal values")
    prod = (Fraction(1), Fraction(0))
    for v in values:
        prod = cmul(prod, v)
    if prod != (Fraction(1), Fraction(0)):
        raise ValueError("diagonal values must multiply to 1")
    return CMatrix.diag(values)


def _unitary_float(m: int, seed) -> CMatrix:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    det = np.linalg.det(q)
    q = q * det ** (-1.0 / m)
    return CMatrix.from_rows(q.tolist())
