"""Exact symmetric tensor algebra on R^n.

A symmetric rank-r tensor is stored sparsely over the monomial basis: the
basis element for a multi-index alpha = (a_1, ..., a_n) with sum r is the
symmetric product of a_1 copies of e_1, ..., a_n copies of e_n.  With the
usual 1/r! normalization of the symmetric product, multiplying two basis
elements just adds their multi-indices, so the symmetric product of tensors
is a convolution of coefficient maps (polynomial multiplication).

Every number is rational.  A tensor is ``keys``, the multi-indices of its
nonzero coefficients, and beside them int totals over one int denominator.
It is made by one of two constructors: ``SymTensor(dim, rank, coeffs)``
validates the map, merges duplicate keys, drops zeros and clears the values
of denominators once (a float, numpy float or ``complex`` value or key
entry raises ``TypeError``), and ``from_totals`` takes int sums over a
denominator as they are, dropping zeros.  Rank-0 tensors carry the single
empty key ``()``, which the map may also name as the zero multi-index.

A tensor is a polynomial in e_1..e_n, so the GL(n) action is the
substitution e_i -> phi(e_i) and a vector power the power of one linear
form.  Both, the moment kernel and the translation-covariance expansions
``shift_expansions`` run on one step, ``mul_form``: a dense
degree-d coefficient vector times a linear form, over the index tables of
``monomial_tables`` (cached per (n, r)).  ``gl_action`` runs it by
Horner's rule on the tree of first parents of those tables, with phi's
columns as sparse forms (``RMatrix.columns``), so a shear pays only for its
nonzeros.  Inputs are cleared of denominators once, the sums run in Python
ints and each coefficient is divided once.  A scalar, vector or matrix
(``RMatrix``) that is not rational raises ``TypeError`` where it enters.

A tensor's totals and denominator, reduced by their gcd when it is made,
are its integer view ``cleared``, (D, ints), as ``linalg.clear_denominators``
gives it for the values; ``coeffs``, the map of ``Fraction``s, is built
once, when read.  Every reader but ``coeff``, hashing and serialization
works on the keys and views: ``gl_action``, ``shift_expansions``,
``sym_product``, ``-``, ``scale``, the sum ``tensor_sum`` (``+`` is the sum
of two), ``max_abs_coeff``, the McMullen decomposition, ``==`` and the
residual ``view_distance`` of every check, so work whose values agree
builds no ``Fraction``.

Tensor JSON: ``{"dim": n, "rank": r, "coeffs": {"a1,a2,...,an": "p/q"}}``
with keys ordered lexicographically and rationals in lowest terms.
``dim`` and ``rank`` are JSON integers, ``coeffs`` an object, each key
numerals without leading zeros joined by commas (``""`` at rank 0) and each
value a rational string or a finite number, read as the exact rational it
is; anything else, a key the constructor refuses, or two keys naming one
multi-index (``""`` and ``"0,...,0"`` at rank 0), raises ``ParseError``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, Sequence

from . import linalg
from .errors import DimensionMismatch, ParseError

MultiIndex = tuple[int, ...]


def format_rational(q) -> str:
    """Serialize a coefficient: `"p/q"` in lowest terms, `"p"` for integers.
    That is the ``str`` of a ``Fraction`` or an int; a bool or a numpy
    integer is made a ``Fraction`` first, and a float raises ``TypeError``."""
    return str(q if type(q) is int or type(q) is Fraction else linalg.frac(q))


def parse_rational(s) -> Fraction:
    """A rational from a string or a JSON number; a bool, or a float that is
    not finite, raises ``ParseError`` rather than being read as a number."""
    try:
        if isinstance(s, bool):
            raise TypeError("a bool is no rational")
        return Fraction(s)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ParseError(f"bad rational {s!r}") from exc


def _json_int(x) -> int:
    """A JSON integer as an int; a float, a string or a bool raises
    ``ParseError`` rather than being truncated or read as 0 or 1."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParseError(f"expected an integer, got {x!r}")
    return x


def _json_list(x) -> list:
    """A JSON array; anything else, a string included, raises
    ``ParseError`` rather than being read item by item."""
    if not isinstance(x, (list, tuple)):
        raise ParseError(f"expected a list, got {x!r}")
    return x


_JSON_KEY = re.compile(r"|(0|[1-9][0-9]*)(,(0|[1-9][0-9]*))*")


def _json_key(s) -> MultiIndex:
    """A tensor key as ``to_json_dict`` writes it: ``""``, or numerals
    without leading zeros joined by commas, so two strings name one key only
    at rank 0, where ``""`` and the zero multi-index name the scalar."""
    if not (isinstance(s, str) and _JSON_KEY.fullmatch(s)):
        raise ParseError(f"bad tensor key {s!r}")
    return tuple(map(int, s.split(","))) if s else ()


_TABLES: dict[tuple[int, int], tuple] = {}


def monomial_tables(n: int, r: int):
    """Read-only index tables of the multi-indices of degree 0..r in R^n,
    built once per (n, r): ``levels[d]`` maps those of degree d to
    positions, in order of first appearance; ``steps[d][j][i]`` is the
    position of (multi-index j of degree d) + e_i in ``levels[d + 1]``,
    and ``parents[d][k]`` the first (j, i) whose step reaches position k."""
    if (n, r) in _TABLES:
        return _TABLES[n, r]
    levels, steps, parents = [MappingProxyType({(0,) * n: 0})], [], []
    for _ in range(r):
        index: dict[MultiIndex, int] = {}
        steps.append(tuple(
            tuple(index.setdefault(alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:], len(index))
                  for i in range(n)) for alpha in levels[-1]))
        first: dict[int, tuple[int, int]] = {}
        for j, row in enumerate(steps[-1]):
            for i, k in enumerate(row):
                first.setdefault(k, (j, i))
        parents.append(tuple(first.values()))
        levels.append(MappingProxyType(index))
    _TABLES[n, r] = tables = (tuple(levels), tuple(steps), tuple(parents))
    return tables


def mul_form(vec: Sequence, step: Sequence[Sequence[int]], form: Sequence[tuple[int, object]],
             out: list) -> list:
    """Add the dense degree-d vector ``vec`` times a linear form, given as
    (index, nonzero value) pairs, into the degree-(d + 1) vector ``out``;
    ``step`` is ``steps[d]`` of ``monomial_tables``.  Returns ``out``."""
    for c, succ in zip(vec, step):
        if c:
            for i, x in form:
                out[succ[i]] += c * x
    return out


@dataclass(frozen=True, init=False, eq=False)
class SymTensor:
    """Element of the rank-`rank` symmetric tensor space over R^`dim`: the
    nonzero coefficients as ``keys`` and int totals over one denominator
    (module docstring)."""

    dim: int
    rank: int
    keys: tuple[MultiIndex, ...]
    # The values' integer view (D, (ints,)), in ``keys`` order, as
    # ``linalg.clear_denominators`` gives it for them: the totals over
    # their denominator, in lowest terms.
    cleared: tuple[int, tuple[tuple]]

    def __init__(self, dim: int, rank: int, coeffs: Mapping | None = None):
        if dim < 1 or rank < 0:
            raise DimensionMismatch(f"no tensor space T^{rank}(R^{dim})")
        merged: dict = {}
        for key, val in (coeffs or {}).items():
            key = tuple(map(operator.index, key))  # a float entry raises TypeError
            if rank == 0 and key in ((), (0,) * dim):
                key = ()
            elif rank == 0 or len(key) != dim or sum(key) != rank or min(key) < 0:
                raise DimensionMismatch(f"key {key} is no multi-index of degree {rank} in R^{dim}")
            merged[key] = merged.get(key, 0) + val
        den, (totals,) = linalg.clear_denominators([merged.values()])
        self._store(dim, rank, merged, totals, den)

    @classmethod
    def from_totals(cls, dim: int, rank: int, keys: Iterable[MultiIndex], totals: Collection,
                    den: int) -> "SymTensor":
        """The tensor whose coefficient at each of ``keys`` is its total over
        ``den``, zeros left out, without validation: ``keys`` are length-
        ``dim`` multi-indices of degree ``rank`` (``()`` at rank 0).  The
        int totals over ``den``, both divided by their gcd, are the view
        ``cleared``."""
        return object.__new__(cls)._store(dim, rank, keys, totals, den)

    def _store(self, dim, rank, keys, totals, den) -> "SymTensor":
        keys, totals = tuple(compress(keys, totals)), tuple(filter(None, totals))
        if (g := math.gcd(den, *totals)) > 1:
            totals, den = tuple(x // g for x in totals), den // g
        vars(self).update(dim=dim, rank=rank, keys=keys, cleared=(den, (totals,)))
        return self

    @staticmethod
    def zero(dim: int, rank: int) -> "SymTensor":
        return SymTensor.from_totals(dim, rank, (), (), 1)

    @staticmethod
    def scalar(dim: int, value) -> "SymTensor":
        return SymTensor(dim, 0, {(): value})

    # -- views ------------------------------------------------------------------

    @cached_property
    def coeffs(self) -> Mapping[MultiIndex, Fraction]:
        """The coefficient map, built on first read: each total over the
        denominator as a ``Fraction``."""
        den, (totals,) = self.cleared
        return {k: Fraction(x, den) for k, x in zip(self.keys, totals)}

    # -- ring-ish structure ---------------------------------------------------

    def _same_space(self, other: "SymTensor"):
        if self.dim != other.dim or self.rank != other.rank:
            raise DimensionMismatch(
                f"tensors in T^{self.rank}(R^{self.dim}) vs T^{other.rank}(R^{other.dim})")

    def __add__(self, other: "SymTensor") -> "SymTensor":
        return tensor_sum([self, other])

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        return tensor_sum([self, -other])

    def __neg__(self) -> "SymTensor":
        den, (totals,) = self.cleared
        return SymTensor.from_totals(self.dim, self.rank, self.keys, [-x for x in totals], den)

    def scale(self, c) -> "SymTensor":
        """c times the tensor, for a rational c = p / q: the totals times p
        over the denominator times q."""
        p, q = linalg.frac(c).as_integer_ratio()
        den, (totals,) = self.cleared
        return SymTensor.from_totals(self.dim, self.rank, self.keys, [x * p for x in totals],
                                     den * q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensor):
            return NotImplemented
        return ((self.dim, self.rank) == (other.dim, other.rank)
                and view_distance(self, other) == 0)

    def __hash__(self):
        return hash((self.dim, self.rank, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.keys

    def max_abs_coeff(self):
        """Largest absolute coefficient; 0 for the zero tensor."""
        den, (totals,) = self.cleared
        return Fraction(max(map(abs, totals), default=0), den)

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
            dim, rank, raw = _json_int(data["dim"]), _json_int(data["rank"]), data["coeffs"]
            if not isinstance(raw, Mapping):
                raise ParseError(f"expected an object of coefficients, got {raw!r}")
            coeffs = {_json_key(k) or (0,) * dim: parse_rational(v) for k, v in raw.items()}
            if len(coeffs) < len(raw):
                raise ParseError("two keys name one multi-index")
            return SymTensor(dim, rank, coeffs)
        except (KeyError, TypeError, DimensionMismatch) as exc:
            raise ParseError(f"bad tensor JSON: {exc}") from exc


def view_distance(a: SymTensor, b: SymTensor):
    """max |a_k - b_k| over the keys of either tensor, the residual of every
    check, as a ``Fraction``; tensors of two spaces raise
    ``DimensionMismatch``.  Equal views give 0 with no arithmetic; otherwise
    the views are brought to their common scale L
    (``linalg.common_scale``), subtracted key by key, and the largest
    difference is divided once by L."""
    a._same_space(b)
    if a.keys == b.keys and a.cleared == b.cleared:
        return Fraction(0)
    big, ((left,), (right,)) = linalg.common_scale([a.cleared, b.cleared])
    diff = dict(zip(a.keys, left))
    for k, x in zip(b.keys, right):
        diff[k] = diff.get(k, 0) - x
    return Fraction(max(map(abs, diff.values())), big)


def tensor_sum(values: Sequence[SymTensor]) -> SymTensor:
    """The sum of one or more tensors of one space, equal to folding them
    with ``+`` (which is this sum of two), in one int pass: their views
    (``SymTensor.cleared``) are brought to the lcm L of their scales,
    summed key by key over the union of their keys and made one tensor over
    L, so no ``Fraction`` is built."""
    first, *rest = values
    for t in rest:
        first._same_space(t)
    big = math.lcm(*(t.cleared[0] for t in values))
    totals: dict[MultiIndex, int] = {}
    for t in values:
        d, (ints,) = t.cleared
        m = big // d
        for k, x in zip(t.keys, ints):
            totals[k] = totals.get(k, 0) + m * x
    return SymTensor.from_totals(first.dim, first.rank, totals, totals.values(), big)


def sym_product(a: SymTensor, b: SymTensor) -> SymTensor:
    """Symmetric product; in the monomial basis a convolution of
    coefficients, run on the views brought to one scale L
    (``linalg.common_scale``) and divided once by L^2."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"sym_product in dims {a.dim} and {b.dim}")
    big, ((left,), (right,)) = linalg.common_scale([a.cleared, b.cleared])
    out: dict[MultiIndex, object] = {}
    for ka, x in zip(a.keys, left):
        for kb, y in zip(b.keys, right):
            k = tuple(map(operator.add, ka, kb)) if ka and kb else ka or kb
            out[k] = out.get(k, 0) + x * y
    return SymTensor.from_totals(a.dim, a.rank + b.rank, out, out.values(), big * big)


def vector_power(x: Sequence, r: int) -> SymTensor:
    """r-fold symmetric power of a vector: coefficient of alpha is
    multinomial(r; alpha) * prod x_i^alpha_i, the expansion of the r-th
    power of the linear form sum x_i e_i."""
    if r < 0:
        raise ValueError("negative tensor power")
    scale, (cleared,) = linalg.clear_denominators([list(x)])
    n = len(cleared)
    if r == 0:
        return SymTensor.scalar(n, 1)
    form = [(i, v) for i, v in enumerate(cleared) if v]
    levels, steps, _ = monomial_tables(n, r)
    vec = [1]
    for d in range(r):
        vec = mul_form(vec, steps[d], form, [0] * len(levels[d + 1]))
    return SymTensor.from_totals(n, r, levels[r], vec, scale ** r)


def shift_expansions(tensors: Sequence[SymTensor], y: Sequence) -> list[SymTensor]:
    """The translation-covariance expansions sum_j T_j y^j / j! of tensors
    T_0, ..., T_R of ranks R, ..., 0 and of every suffix of them,
    ``tensors[s:]`` for s = 0..R, by Horner's rule in y, from one clearing
    of y and one common scale of the views.

    With the views (``SymTensor.cleared``) on a common scale M
    (``linalg.common_scale``) and y cleared by q (y' = q y), each view is
    laid out once as a dense vector in ``monomial_tables`` order.  A suffix
    of tensors T_0, ..., T_R of ranks R, ..., 0 runs N_0 = M T_R and
    N_(d+1) = c_(d+1) M T_(R-d-1) + N_d y' (one ``mul_form`` into the dense
    c_(d+1) M T_(R-d-1)), where c_0 = 1 and c_(d+1) = c_d q (R - d).  Each
    T_j is multiplied by y once per step after it enters, for j steps with
    divisors j, ..., 1, so N_R is M c_R times the expansion and is divided
    once by M c_R = M q^R R!.  M is the lcm of all the scales and serves
    every suffix.
    """
    r, n = len(tensors) - 1, len(y)
    if any(t.dim != n or t.rank != r - j for j, t in enumerate(tensors)):
        raise DimensionMismatch(f"shift expansion needs ranks {r}..0 over R^{n}")
    q, (ys,) = linalg.clear_denominators([list(y)])
    form = [(i, v) for i, v in enumerate(ys) if v]
    scale, lifted = linalg.common_scale(t.cleared for t in tensors)
    levels, steps, _ = monomial_tables(n, r)
    dense = [[0] * len(index) for index in levels]
    for d, (t, (values,)) in enumerate(zip(reversed(tensors), reversed(lifted))):
        for alpha, x in zip(t.keys, values):
            dense[d][levels[d][alpha] if d else 0] = x
    expansions = []
    for top in range(r, -1, -1):
        acc, c = dense[0], 1
        for d in range(1, top + 1):
            c *= q * (top - d + 1)
            acc = mul_form(acc, steps[d - 1], form, [c * x for x in dense[d]])
        expansions.append(SymTensor.from_totals(n, top, levels[top] if top else [()], acc,
                                                scale * c))
    return expansions


@dataclass(frozen=True)
class RMatrix:
    """Square rational matrix: each entry is coerced once by ``linalg.frac``,
    so a float, numpy float or ``complex`` raises ``TypeError``.  Its
    integer views, built once per matrix, are the rows (``cleared``) and the
    columns as sparse (row, entry) pairs over the same scale (``columns``)."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        rows = tuple(tuple(map(linalg.frac, r)) for r in self.entries)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("RMatrix must be square")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RMatrix":
        return RMatrix(tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(n: int) -> "RMatrix":
        return RMatrix.from_rows(linalg.identity(n))

    @staticmethod
    def diag(values: Sequence) -> "RMatrix":
        n = len(values)
        return RMatrix.from_rows(
            [[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @cached_property
    def cleared(self) -> tuple[int, tuple[tuple, ...]]:
        """The rows' integer view (D, ints): ``linalg.clear_denominators``
        of ``entries``, its rows as tuples, built once per matrix."""
        scale, rows = linalg.clear_denominators(self.entries)
        return scale, tuple(map(tuple, rows))

    @cached_property
    def columns(self) -> tuple[int, tuple[tuple[tuple[int, object], ...], ...]]:
        """The columns of the view ``cleared`` (q, rows) as (row, nonzero
        entry) pairs, so phi e_i is the sum of x e_row over the pairs of
        column i, over q; built once per matrix and read by ``gl_action``
        and ``polytope.linear_image``."""
        q, rows = self.cleared
        return q, tuple(tuple((k, x) for k, x in enumerate(col) if x) for col in zip(*rows))

    @cached_property
    def det(self) -> Fraction:
        return linalg.det(self.entries)

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.n != other.n:
            raise DimensionMismatch("matrix product size mismatch")
        return RMatrix.from_rows(linalg.mat_mul(self.entries, other.entries))


def gl_action(phi: RMatrix, t: SymTensor) -> SymTensor:
    """Natural GL(n) action on symmetric tensors: substitute phi(e_i) for e_i
    in every basis monomial and re-expand.

    By Horner's rule on the monomial tree of ``monomial_tables``, whose
    level-(d + 1) monomial k hangs under j through index i, (j, i) =
    ``parents[d][k]``: the leaves are t's weights on the view's scale L,
    each node is the sum over its children of phi e_i times the child's
    value, on column i of phi's view (``RMatrix.columns``, q), and the root,
    of degree r, is divided once by L q^r.  A leaf's parent adds its weight
    times the column itself (e_k is position k of degree 1), every higher
    node one ``mul_form`` per child.  That is about nnz(column) sum_d N_d
    N_(r-d) multiply-adds for N_d monomials of degree d, so a sparse phi
    pays only for its nonzeros.  Neither view is cleared again when the same
    matrix or tensor comes back.
    """
    if phi.n != t.dim:
        raise DimensionMismatch(f"matrix on R^{phi.n} acting on tensor over R^{t.dim}")
    n, r = t.dim, t.rank
    if r == 0 or t.is_zero():
        return t
    q, forms = phi.columns
    scale, (weights,) = t.cleared
    levels, steps, parents = monomial_tables(n, r)
    index, nodes = levels[r], {}
    for alpha, w in zip(t.keys, weights):
        j, i = parents[r - 1][index[alpha]]
        out = nodes.get(j) or nodes.setdefault(j, [0] * n)
        for k, x in forms[i]:
            out[k] += w * x
    for d in range(r - 2, -1, -1):
        step, size, up = steps[r - d - 1], len(levels[r - d]), {}
        for k, vec in nodes.items():
            j, i = parents[d][k]
            mul_form(vec, step, forms[i], up.get(j) or up.setdefault(j, [0] * size))
        nodes = up
    return SymTensor.from_totals(n, r, index, nodes[0], scale * q ** r)
