"""Exact symmetric tensor algebra on R^n.

A symmetric rank-r tensor is stored sparsely over the monomial basis: the
basis element for a multi-index alpha = (a_1, ..., a_n) with sum r is the
symmetric product of a_1 copies of e_1, ..., a_n copies of e_n.  With the
usual 1/r! normalization of the symmetric product, multiplying two basis
elements just adds their multi-indices, so the symmetric product of tensors
is a convolution of coefficient maps (polynomial multiplication).

Coefficients are ``Fraction`` by default; floats are tolerated so that
harness code can divide by floating normalizations, but nothing in this
module introduces them.  Rank-0 tensors carry the single empty key ``()``.

Tensor JSON: ``{"dim": n, "rank": r, "coeffs": {"a1,a2,...,an": "p/q"}}``
with keys ordered lexicographically and rationals in lowest terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from . import linalg
from .errors import DimensionMismatch, ParseError
from .linalg import frac

MultiIndex = tuple[int, ...]


def format_rational(q) -> str:
    """Serialize a coefficient: `"p/q"` in lowest terms, `"p"` for integers."""
    if isinstance(q, float):
        return repr(q)
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseError(f"bad rational {s!r}") from exc


def tensor_dim(n: int, r: int) -> int:
    """Dimension of the space of symmetric rank-r tensors on R^n."""
    if n < 1 or r < 0:
        raise ValueError(f"tensor_dim(n={n}, r={r})")
    return math.comb(n + r - 1, r)


def multi_indices(n: int, r: int) -> Iterator[MultiIndex]:
    """All length-n multi-indices of degree r, in decreasing lexicographic order."""
    if n == 1:
        yield (r,)
        return
    for first in range(r, -1, -1):
        for rest in multi_indices(n - 1, r - first):
            yield (first,) + rest


def _add_keys(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    if not a:
        return b
    if not b:
        return a
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class SymTensor:
    """Element of the rank-`rank` symmetric tensor space over R^`dim`."""

    dim: int
    rank: int
    coeffs: Mapping[MultiIndex, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[MultiIndex, Fraction] = {}
        for key, val in self.coeffs.items():
            key = tuple(key)
            if self.rank == 0:
                if key and any(key):
                    raise DimensionMismatch(f"rank-0 tensor with key {key}")
                key = ()
            else:
                if len(key) != self.dim:
                    raise DimensionMismatch(
                        f"key {key} has length {len(key)}, expected {self.dim}")
                if sum(key) != self.rank:
                    raise DimensionMismatch(
                        f"key {key} has degree {sum(key)}, expected rank {self.rank}")
            if val != 0:
                clean[key] = clean.get(key, Fraction(0)) + val
        object.__setattr__(self, "coeffs", {k: v for k, v in clean.items() if v != 0})

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(dim: int, rank: int) -> "SymTensor":
        return SymTensor(dim, rank, {})

    @staticmethod
    def scalar(dim: int, value) -> "SymTensor":
        return SymTensor(dim, 0, {(): value})

    @staticmethod
    def from_vector(x: Sequence) -> "SymTensor":
        xs = list(x)
        n = len(xs)
        coeffs = {}
        for i, xi in enumerate(xs):
            key = tuple(1 if j == i else 0 for j in range(n))
            coeffs[key] = xi
        return SymTensor(n, 1, coeffs)

    # -- ring-ish structure ---------------------------------------------------

    def _same_space(self, other: "SymTensor"):
        if self.dim != other.dim or self.rank != other.rank:
            raise DimensionMismatch(
                f"tensors in T^{self.rank}(R^{self.dim}) vs T^{other.rank}(R^{other.dim})")

    def __add__(self, other: "SymTensor") -> "SymTensor":
        self._same_space(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return SymTensor(self.dim, self.rank, out)

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        return self + (-other)

    def __neg__(self) -> "SymTensor":
        return SymTensor(self.dim, self.rank, {k: -v for k, v in self.coeffs.items()})

    def scale(self, c) -> "SymTensor":
        if c == 0:
            return SymTensor.zero(self.dim, self.rank)
        return SymTensor(self.dim, self.rank, {k: v * c for k, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensor):
            return NotImplemented
        return (self.dim, self.rank) == (other.dim, other.rank) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, self.rank, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_abs_coeff(self):
        """Largest absolute coefficient; 0 for the zero tensor."""
        if not self.coeffs:
            return Fraction(0)
        return max(abs(v) for v in self.coeffs.values())

    def coeff(self, key: Iterable[int]):
        key = tuple(key)
        if self.rank == 0:
            key = ()
        return self.coeffs.get(key, Fraction(0))

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        coeffs = {}
        for key in sorted(self.coeffs):
            coeffs[",".join(str(a) for a in key)] = format_rational(self.coeffs[key])
        return {"dim": self.dim, "rank": self.rank, "coeffs": coeffs}

    @staticmethod
    def from_json_dict(data: Mapping) -> "SymTensor":
        try:
            dim, rank = int(data["dim"]), int(data["rank"])
            raw = data["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad tensor JSON: {exc}") from exc
        coeffs = {}
        for key_str, val in raw.items():
            key = () if key_str == "" else tuple(int(a) for a in key_str.split(","))
            coeffs[key] = parse_rational(val)
        return SymTensor(dim, rank, coeffs)


def sym_product(a: SymTensor, b: SymTensor) -> SymTensor:
    """Symmetric product; in the monomial basis a convolution of coefficients."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"sym_product in dims {a.dim} and {b.dim}")
    out: dict[MultiIndex, Fraction] = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            k = _add_keys(ka, kb)
            out[k] = out.get(k, Fraction(0)) + va * vb
    return SymTensor(a.dim, a.rank + b.rank, out)


def _multinomial(r: int, alpha: MultiIndex) -> int:
    out = math.factorial(r)
    for a in alpha:
        out //= math.factorial(a)
    return out


def vector_power(x: Sequence, r: int) -> SymTensor:
    """r-fold symmetric power of a vector: coefficient of alpha is
    multinomial(r; alpha) * prod x_i^alpha_i."""
    if r < 0:
        raise ValueError("negative tensor power")
    xs = list(x)
    n = len(xs)
    if r == 0:
        return SymTensor.scalar(n, Fraction(1))
    support = [i for i, xi in enumerate(xs) if xi != 0]
    coeffs: dict[MultiIndex, Fraction] = {}
    for split in _compositions(r, len(support)):
        key = [0] * n
        val = Fraction(1)
        for idx, a in zip(support, split):
            key[idx] = a
            val *= xs[idx] ** a
        coeffs[tuple(key)] = _multinomial(r, split) * val
    return SymTensor(n, r, coeffs)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write `total` as an ordered sum of `parts` non-negatives."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class RMatrix:
    """Square real matrix, exact (Fraction entries) or float-tagged."""

    entries: tuple[tuple, ...]
    exact: bool = True

    def __post_init__(self):
        n = len(self.entries)
        rows = tuple(tuple(r) for r in self.entries)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("RMatrix must be square")
        if self.exact:
            rows = tuple(tuple(frac(x) for x in row) for row in rows)
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], exact: bool = True) -> "RMatrix":
        return RMatrix(tuple(tuple(r) for r in rows), exact)

    @staticmethod
    def identity(n: int) -> "RMatrix":
        return RMatrix.from_rows(linalg.identity(n))

    @staticmethod
    def diag(values: Sequence) -> "RMatrix":
        vals = [frac(v) for v in values]
        n = len(vals)
        return RMatrix.from_rows(
            [[vals[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)])

    @cached_property
    def det(self):
        d = linalg.det(self.entries)
        return d if self.exact else float(d)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def matvec(self, x: Sequence) -> tuple:
        return linalg.mat_vec(self.entries, x)

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.n != other.n:
            raise DimensionMismatch("matrix product size mismatch")
        return RMatrix.from_rows(
            linalg.mat_mul(self.entries, other.entries), self.exact and other.exact)

    def transpose(self) -> "RMatrix":
        return RMatrix.from_rows(linalg.transpose(self.entries), self.exact)

    def inverse(self) -> "RMatrix":
        if not self.exact:
            import numpy as np

            return RMatrix.from_rows(
                np.linalg.inv(np.array(self.entries, dtype=float)).tolist(), exact=False)
        return RMatrix.from_rows(linalg.inv(self.entries))

    def inverse_transpose(self) -> "RMatrix":
        return self.inverse().transpose()


def gl_action(phi: RMatrix, t: SymTensor) -> SymTensor:
    """Natural GL(n) action on symmetric tensors: substitute phi(e_i) for e_i
    in every basis monomial and re-expand."""
    if phi.n != t.dim:
        raise DimensionMismatch(f"matrix on R^{phi.n} acting on tensor over R^{t.dim}")
    if t.rank == 0:
        return t
    col_powers: dict[tuple[int, int], SymTensor] = {}

    def power(i: int, a: int) -> SymTensor:
        key = (i, a)
        if key not in col_powers:
            col_powers[key] = vector_power(phi.column(i), a)
        return col_powers[key]

    total = SymTensor.zero(t.dim, t.rank)
    for alpha, c in t.coeffs.items():
        factors = [power(i, a) for i, a in enumerate(alpha) if a > 0]
        term = factors[0]
        for f in factors[1:]:
            term = sym_product(term, f)
        total = total + term.scale(c)
    return total
