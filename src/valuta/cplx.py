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

Exact inputs stay exact throughout; sampling and the float paths use numpy.
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
from .linalg import CNum, cdet, cmul, cnum, crank, exact_sqrt, frac
from .symtensor import RMatrix, format_rational, parse_rational

RANK_TOL = 1e-8
AMBIGUITY_BAND = 1e2


@dataclass(frozen=True)
class CMatrix:
    """Square complex matrix; exact entries are (re, im) Fraction pairs."""

    entries: tuple[tuple[CNum, ...], ...]
    exact: bool = True

    def __post_init__(self):
        m = len(self.entries)
        rows = tuple(tuple(e) for e in self.entries)
        if any(len(r) != m for r in rows):
            raise DimensionMismatch("CMatrix must be square")
        if self.exact:
            rows = tuple(
                tuple((frac(re), frac(im)) for re, im in row) for row in rows)
        object.__setattr__(self, "entries", rows)

    @property
    def m(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], exact: bool = True) -> "CMatrix":
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
        return CMatrix(tuple(conv), exact)

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
        if not self.exact:
            d = np.linalg.det(self.to_complex_array())
            return (float(d.real), float(d.imag))
        return cdet(self.entries)

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        if self.m != other.m:
            raise DimensionMismatch("complex matrix product size mismatch")
        if self.exact and other.exact:
            return CMatrix(tuple(map(tuple, linalg.cmat_mul(self.entries, other.entries))))
        prod = self.to_complex_array() @ other.to_complex_array()
        return CMatrix.from_rows(prod.tolist(), exact=False)

    def to_complex_array(self) -> np.ndarray:
        return np.array(
            [[complex(float(re), float(im)) for re, im in row] for row in self.entries])

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
    if a.exact:
        re = [[a.entries[i][j][0] for j in range(m)] for i in range(m)]
        im = [[a.entries[i][j][1] for j in range(m)] for i in range(m)]
        rows = [re[i] + [-x for x in im[i]] for i in range(m)]
        rows += [im[i] + re[i] for i in range(m)]
        return RMatrix.from_rows(rows)
    arr = a.to_complex_array()
    top = np.hstack([arr.real, -arr.imag])
    bot = np.hstack([arr.imag, arr.real])
    return RMatrix.from_rows(np.vstack([top, bot]).tolist(), exact=False)


def det_identity_check(a: CMatrix) -> bool:
    """det of the realification equals |det_C|^2."""
    dc = a.det_c
    if a.exact:
        return realify(a).det == dc[0] * dc[0] + dc[1] * dc[1]
    return math.isclose(realify(a).det, dc[0] ** 2 + dc[1] ** 2, rel_tol=1e-9, abs_tol=1e-12)


# -- subspaces -----------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Real subspace of R^2m given by an orthonormal basis (rows)."""

    ambient: int
    basis: tuple[tuple, ...]
    exact: bool = True
    adapted: bool = False
    retries: int = 0

    def __post_init__(self):
        if self.ambient % 2 != 0:
            raise DimensionMismatch("ambient dimension must be even")
        for b in self.basis:
            if len(b) != self.ambient:
                raise DimensionMismatch("basis vector of wrong length")

    @property
    def m(self) -> int:
        return self.ambient // 2

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def complex_rank(self) -> int:
        return complex_rank(self)

    @staticmethod
    def from_orthonormal(basis: Sequence[Sequence], exact: bool = True, **kw) -> "Subspace":
        basis = tuple(tuple(v) for v in basis)
        if exact:
            basis = tuple(tuple(frac(x) for x in v) for v in basis)
            for i, u in enumerate(basis):
                for j, v in enumerate(basis):
                    expected = 1 if i == j else 0
                    if linalg.dot(u, v) != expected:
                        raise GeometryError("basis is not orthonormal")
        return Subspace(len(basis[0]), basis, exact, **kw)

    @staticmethod
    def span(vectors: Sequence[Sequence], exact: bool = True) -> "Subspace":
        """Orthonormalize a spanning set (exact mode needs rational norms)."""
        if exact:
            vecs = [tuple(frac(x) for x in v) for v in vectors]
            basis = gram_schmidt_exact(vecs)
        else:
            arr = np.array(vectors, dtype=float).T
            q, r = np.linalg.qr(arr)
            keep = [i for i in range(q.shape[1]) if abs(r[i, i]) > 1e-10]
            basis = [tuple(q[:, i]) for i in keep]
        if not basis:
            raise GeometryError("empty span")
        return Subspace(len(basis[0]), tuple(basis), exact)


def gram_schmidt_exact(vecs: list[tuple]) -> list[tuple]:
    """Orthonormal basis of the span of rational vectors, in order, exact;
    dependent vectors are skipped, and an irrational norm raises."""
    basis: list[tuple] = []
    for v in vecs:
        w = list(v)
        for b in basis:
            c = linalg.dot(w, b)
            w = [x - c * y for x, y in zip(w, b)]
        norm_sq = linalg.dot(w, w)
        if norm_sq == 0:
            continue
        root = exact_sqrt(norm_sq)
        if root is None:
            raise ValutaError(
                f"exact orthonormalization needs a perfect-square norm, got {norm_sq}")
        basis.append(tuple(x / root for x in w))
    return basis


def _complex_rows(basis: Sequence[Sequence], m: int) -> list[list[CNum]]:
    return [[(v[k], v[m + k]) for k in range(m)] for v in basis]


def complex_rank(subspace_or_basis) -> int:
    """Rank over C of a real subspace's basis viewed as complex m-vectors."""
    basis = getattr(subspace_or_basis, "basis", subspace_or_basis)
    basis = [tuple(b) for b in basis]
    m = len(basis[0]) // 2
    exact = all(isinstance(x, Fraction) for b in basis for x in b)
    if exact:
        return crank(_complex_rows(basis, m))
    mat = np.array([[complex(b[k], b[m + k]) for k in range(m)] for b in basis])
    sigma = np.linalg.svd(mat, compute_uv=False)
    if len(sigma) == 0:
        return 0
    top = sigma[0] if sigma[0] > 0 else 1.0
    rel = sigma / top
    if any(RANK_TOL / AMBIGUITY_BAND < s < RANK_TOL * AMBIGUITY_BAND for s in rel):
        raise NumericalRankError(
            f"singular values {rel} sit inside the rank ambiguity band at {RANK_TOL}")
    return int((rel > RANK_TOL).sum())


def _norm_exact(v):
    norm_sq = linalg.dot(v, v)
    root = exact_sqrt(norm_sq)
    if root is None:
        raise ValutaError(
            f"adapted basis needs perfect-square norms in exact mode, got {norm_sq}")
    return root


def _hermitian_reduce(v, picked):
    """Remove the complex spans of the picked vectors from v (real arithmetic:
    subtract the projections onto u and J u)."""
    w = list(v)
    for u in picked:
        ju = j_apply(u)
        a = linalg.dot(w, u)
        b = linalg.dot(w, ju)
        w = [x - a * y - b * z for x, y, z in zip(w, u, ju)]
    return tuple(w)


def adapted_basis(l: Subspace) -> Subspace:
    """Reorder and rebuild a basis of L as (v_1..v_d, J v_1..J v_{j-d}) with
    v_1..v_d independent over C, splitting off U = L intersect J(L)."""
    if l.exact:
        return _adapted_basis_exact(l)
    return _adapted_basis_float(l)


def _adapted_basis_exact(l: Subspace) -> Subspace:
    basis = [tuple(v) for v in l.basis]
    j = len(basis)
    jl_basis = [j_apply(v) for v in basis]
    # x = B c lies in J(L)  iff  (I - P_JL) B c = 0; P_JL is exact because
    # J(B) is orthonormal whenever B is.
    n = l.ambient
    rows = []
    for i in range(n):
        row = []
        for c in range(j):
            val = basis[c][i]
            for b in jl_basis:
                val -= b[i] * linalg.dot(b, basis[c])
            row.append(val)
        rows.append(row)
    null = linalg.nullspace(rows)
    u_vectors = [
        tuple(sum(c * basis[idx][i] for idx, c in enumerate(coeffs)) for i in range(n))
        for coeffs in null
    ]
    if len(u_vectors) % 2 != 0:
        raise GeometryError("intersection with its J-image must be even-dimensional")
    k = len(u_vectors) // 2
    u_basis: list[tuple] = []
    pool = list(u_vectors)
    while len(u_basis) < k:
        candidate = None
        for v in pool:
            w = _hermitian_reduce(v, u_basis)
            if any(x != 0 for x in w):
                candidate = w
                break
        if candidate is None:
            raise GeometryError("failed to span the complex part")
        root = _norm_exact(candidate)
        u_basis.append(tuple(x / root for x in candidate))
    w_basis: list[tuple] = []
    for v in basis:
        w = _hermitian_reduce(v, u_basis)
        for b in w_basis:
            c = linalg.dot(w, b)
            w = tuple(x - c * y for x, y in zip(w, b))
        if all(x == 0 for x in w):
            continue
        root = _norm_exact(w)
        w_basis.append(tuple(x / root for x in w))
    if len(w_basis) != j - 2 * k:
        raise GeometryError("complex/real split dimensions do not add up")
    new_basis = u_basis + w_basis + [j_apply(u) for u in u_basis]
    return Subspace(l.ambient, tuple(new_basis), exact=True, adapted=True,
                    retries=l.retries)


def _adapted_basis_float(l: Subspace) -> Subspace:
    n = l.ambient
    b = np.array(l.basis, dtype=float).T  # columns span L
    jb = np.array([j_apply(col) for col in b.T]).T
    p_l = b @ b.T
    p_jl = jb @ jb.T
    stacked = np.vstack([np.eye(n) - p_l, np.eye(n) - p_jl])
    _, sigma, vt = np.linalg.svd(stacked)
    rel = sigma / max(sigma[0], 1e-300)
    if any(RANK_TOL / AMBIGUITY_BAND < s < RANK_TOL * AMBIGUITY_BAND for s in rel):
        raise NumericalRankError(
            f"singular values {rel} sit inside the rank ambiguity band at {RANK_TOL}")
    null_mask = rel <= RANK_TOL
    u_vectors = [tuple(v) for v in vt[null_mask]]
    if len(u_vectors) % 2 != 0:
        raise GeometryError("intersection with its J-image must be even-dimensional")
    k = len(u_vectors) // 2
    u_basis: list[tuple] = []
    pool = list(u_vectors)
    while len(u_basis) < k:
        best = max(pool, key=lambda v: float(np.linalg.norm(_hermitian_reduce(v, u_basis))))
        w = np.array(_hermitian_reduce(best, u_basis))
        norm = np.linalg.norm(w)
        if norm < 1e-10:
            raise GeometryError("failed to span the complex part")
        u_basis.append(tuple(w / norm))
    w_basis: list[tuple] = []
    for v in l.basis:
        w = np.array(_hermitian_reduce(v, u_basis))
        for prev in w_basis:
            w = w - np.dot(w, prev) * np.array(prev)
        norm = np.linalg.norm(w)
        if norm > 1e-9:
            w_basis.append(tuple(w / norm))
    if len(w_basis) != l.dim - 2 * k:
        raise GeometryError("complex/real split dimensions do not add up")
    new_basis = u_basis + w_basis + [j_apply(u) for u in u_basis]
    return Subspace(l.ambient, tuple(new_basis), exact=False, adapted=True,
                    retries=l.retries)


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
            return Subspace(2 * m, basis, exact=False, retries=attempt)
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
    return CMatrix.from_rows(q.tolist(), exact=False)
