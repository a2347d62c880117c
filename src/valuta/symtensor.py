"""Exact symmetric tensor algebra on R^n.

A symmetric rank-r tensor is stored sparsely over the monomial basis: the
basis element for a multi-index alpha = (a_1, ..., a_n) with sum r is the
symmetric product of a_1 copies of e_1, ..., a_n copies of e_n.  With the
usual 1/r! normalization of the symmetric product, multiplying two basis
elements just adds their multi-indices, so the symmetric product of tensors
is a convolution of coefficient maps (polynomial multiplication).

A tensor is one form in both modes: ``keys``, the multi-indices of its
nonzero coefficients, and beside them totals over one denominator, ints over
an int for an exact tensor and float values over 1 for a float one.
``exact`` is read once, when the tensor is made, by one of two constructors:
``SymTensor(dim, rank, coeffs)`` validates the map, merges duplicate keys,
drops zeros and clears the values of denominators once (a map holding a
float gives a float tensor), and ``from_totals`` takes int or float sums
over a denominator as they are, dropping zeros.  Rank-0 tensors carry the
single empty key ``()``.

A tensor is a polynomial in e_1..e_n, so the GL(n) action is the
substitution e_i -> phi(e_i) and a vector power the power of one linear
form.  Both, the moment kernel and the translation-covariance expansions
``shift_expansions`` run on one step, ``mul_form``: a dense
degree-d coefficient vector times a linear form, over the index tables of
``monomial_tables`` (cached per (n, r)).  ``gl_action`` runs it by
Horner's rule on the tree of first parents of those tables, with phi's
columns as sparse forms (``RMatrix.columns``), so a shear pays only for its
nonzeros.  Inputs are cleared of denominators once, the sums run in Python
ints and each coefficient is divided once; floats run the same sums with
scale 1 and stay floats.

An exact tensor's totals and denominator, reduced by their gcd when it is
made, are its integer view ``cleared``, (D, ints), as
``linalg.clear_denominators`` gives it for the values; ``coeffs``, the map
of ``Fraction``s or floats, is built once, when read.  Every reader but
``coeff``, hashing and serialization works on the keys and views:
``gl_action``, ``shift_expansions``, ``sym_product``, ``-``, ``scale``, the
sum ``tensor_sum`` (``+`` is the sum of two), ``max_abs_coeff``, the
McMullen decomposition, ``==`` of exact tensors and the residual
``view_distance`` of every check, so exact work whose values agree builds
no ``Fraction``.  Beside a float, an exact value enters as x / D, which is
float(Fraction(x, D)) bit for bit, so floats round as the same arithmetic
on the ``Fraction`` map would.

Tensor JSON: ``{"dim": n, "rank": r, "coeffs": {"a1,a2,...,an": "p/q"}}``
with keys ordered lexicographically and rationals in lowest terms; a float
tensor writes its values as JSON numbers, read back as the exact rationals
they are, so the tensor read back compares equal to it.  ``dim`` and
``rank`` are JSON integers, ``coeffs`` an object, each key numerals without
leading zeros joined by commas (``""`` at rank 0) and each value a rational
string or a finite number; anything else, or a key the constructor refuses,
raises ``ParseError``.
"""

from __future__ import annotations

import math
import numbers
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
    integer is made a ``Fraction`` first, and a float is written as its
    ``repr``."""
    if isinstance(q, float):
        return repr(q)
    return str(q if type(q) is int or type(q) is Fraction else Fraction(q))


def json_rational(x):
    """A value as ``to_json_dict`` writes it: a float as a JSON number, read
    back as the exact value it is, else ``format_rational``."""
    return x if isinstance(x, float) else format_rational(x)


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
    without leading zeros joined by commas, so two strings never name one key."""
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
    nonzero coefficients as ``keys`` and totals over one denominator, exact
    or float (module docstring)."""

    dim: int
    rank: int
    keys: tuple[MultiIndex, ...]
    exact: bool
    # The values' integer view (D, (ints,)), in ``keys`` order, as
    # ``linalg.clear_denominators`` gives it for them: the totals over
    # their denominator, in lowest terms; (1, (values,)) for a float tensor.
    cleared: tuple[int, tuple[tuple]]

    def __init__(self, dim: int, rank: int, coeffs: Mapping | None = None):
        if dim < 1 or rank < 0:
            raise DimensionMismatch(f"no tensor space T^{rank}(R^{dim})")
        merged: dict = {}
        for key, val in (coeffs or {}).items():
            key = tuple(key)
            if rank == 0 and not any(key):
                key = ()
            elif len(key) != dim or sum(key) != rank or min(key) < 0:
                raise DimensionMismatch(f"key {key} is no multi-index of degree {rank} in R^{dim}")
            if val != 0:
                merged[key] = merged.get(key, 0) + val
        den, (totals,) = linalg.clear_denominators([merged.values()])
        self._store(dim, rank, merged, totals, den)

    @classmethod
    def from_totals(cls, dim: int, rank: int, keys: Iterable[MultiIndex], totals: Collection,
                    den: int) -> "SymTensor":
        """The tensor whose coefficient at each of ``keys`` is its total over
        ``den``, zeros left out, without validation: ``keys`` are length-
        ``dim`` multi-indices of degree ``rank`` (``()`` at rank 0).  Int
        totals over ``den``, both divided by their gcd, are the view
        ``cleared``; totals holding a float are divided at once and kept
        over 1."""
        return object.__new__(cls)._store(dim, rank, keys, totals, den)

    def _store(self, dim, rank, keys, totals, den) -> "SymTensor":
        keys, totals = tuple(compress(keys, totals)), tuple(filter(None, totals))
        exact = set(map(type, totals)) <= {int}
        if not exact:
            totals, den = tuple(x / den for x in totals), 1
        elif (g := math.gcd(den, *totals)) > 1:
            totals, den = tuple(x // g for x in totals), den // g
        vars(self).update(dim=dim, rank=rank, keys=keys, exact=exact, cleared=(den, (totals,)))
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
        denominator, a ``Fraction`` for an int and a float for a float."""
        den, (totals,) = self.cleared
        return {k: linalg.over(x, den) for k, x in zip(self.keys, totals)}

    def _floats(self) -> list:
        """The values in float arithmetic: x / den, float(Fraction(x, den)) bit for bit."""
        den, (totals,) = self.cleared
        return [x / den for x in totals]

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
        """c times the tensor: exact for a rational c on an exact tensor,
        else each value times c in floats."""
        if c == 0:
            return SymTensor.zero(self.dim, self.rank)
        if self.exact and isinstance(c, numbers.Rational):
            p, q = int(c.numerator), int(c.denominator)
            den, (totals,) = self.cleared
            return SymTensor.from_totals(self.dim, self.rank, self.keys,
                                         [x * p for x in totals], den * q)
        return SymTensor.from_totals(self.dim, self.rank, self.keys,
                                     [x * c for x in self._floats()], 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensor):
            return NotImplemented
        if (self.dim, self.rank) != (other.dim, other.rank):
            return False
        if self.exact and other.exact:
            return view_distance(self, other) == 0
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, self.rank, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.keys

    def max_abs_coeff(self):
        """Largest absolute coefficient; 0 for the zero tensor."""
        den, (totals,) = self.cleared
        if self.exact:
            return Fraction(max(map(abs, totals), default=0), den)
        return max(map(abs, totals))

    def coeff(self, key: Iterable[int]):
        key = tuple(key)
        if self.rank == 0:
            key = ()
        return self.coeffs.get(key, Fraction(0))

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        coeffs = {}
        for key in sorted(self.coeffs):
            coeffs[",".join(str(a) for a in key)] = json_rational(self.coeffs[key])
        return {"dim": self.dim, "rank": self.rank, "coeffs": coeffs}

    @staticmethod
    def from_json_dict(data: Mapping) -> "SymTensor":
        try:
            dim, rank, raw = _json_int(data["dim"]), _json_int(data["rank"]), data["coeffs"]
            if not isinstance(raw, Mapping):
                raise ParseError(f"expected an object of coefficients, got {raw!r}")
            return SymTensor(dim, rank, {_json_key(k): parse_rational(v) for k, v in raw.items()})
        except (KeyError, TypeError, DimensionMismatch) as exc:
            raise ParseError(f"bad tensor JSON: {exc}") from exc


def view_distance(a: SymTensor, b: SymTensor):
    """max |a_k - b_k| over the keys of either tensor, the residual of every
    check: a ``Fraction`` when both are exact, else a float, 0.0 included;
    tensors of two spaces raise ``DimensionMismatch``.  Equal views give 0
    with no arithmetic; otherwise the views are brought to their common
    scale L (``linalg.common_scale``, which puts an exact view in floats
    beside a float one), subtracted key by key, and the largest difference
    is divided once by L."""
    a._same_space(b)
    exact = a.exact and b.exact
    if a.keys == b.keys and a.cleared == b.cleared:
        return Fraction(0) if exact else 0.0
    big, ((left,), (right,)) = linalg.common_scale([a.cleared, b.cleared])
    diff = dict(zip(a.keys, left))
    for k, x in zip(b.keys, right):
        diff[k] = diff.get(k, 0) - x
    worst = max(map(abs, diff.values()))
    return Fraction(worst, big) if exact else worst


def tensor_sum(values: Sequence[SymTensor]) -> SymTensor:
    """The sum of one or more tensors of one space, equal to folding them
    with ``+`` (which is this sum of two).  The exact values before the
    first float one are added in one int pass: their views
    (``SymTensor.cleared``) are brought to the lcm L of their scales,
    summed key by key over the union of their keys and made one tensor over
    L, so no ``Fraction`` is built.  From the first float value on, each
    value is added to the running sum in floats, in order, so the rounding
    is that of pairwise ``+``."""
    first, *rest = values
    for t in rest:
        first._same_space(t)
    start = next((i for i, t in enumerate(values) if not t.exact), len(values))
    views = [t.cleared for t in values[:start]]
    big = math.lcm(*(d for d, _ in views))
    totals: dict[MultiIndex, int] = {}
    for t, (d, (ints,)) in zip(values, views):
        m = big // d
        for k, x in zip(t.keys, ints):
            totals[k] = totals.get(k, 0) + m * x
    total = SymTensor.from_totals(first.dim, first.rank, totals, totals.values(), big)
    for t in values[start:]:
        acc = dict(zip(total.keys, total._floats()))
        for k, x in zip(t.keys, t._floats()):
            acc[k] = acc.get(k, 0) + x
        total = SymTensor.from_totals(first.dim, first.rank, acc, acc.values(), 1)
    return total


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
    xs = list(x)
    n = len(xs)
    if r == 0:
        return SymTensor.scalar(n, Fraction(1))
    scale, (cleared,) = linalg.clear_denominators([xs])
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

    With the suffix's views (``SymTensor.cleared``) on a common scale M
    (``linalg.common_scale``) and y cleared by q (y' = q y), a suffix of
    tensors T_0, ..., T_R of ranks R, ..., 0 runs N_0 = M T_R and
    N_(d+1) = c_(d+1) M T_(R-d-1) + N_d y', where c_0 = 1 and
    c_(d+1) = c_d q (R - d).  Each T_j is multiplied by y once per step
    after it enters, for j steps with divisors j, ..., 1, so N_R is M c_R
    times the expansion and is divided once by M c_R = M q^R R!.  When y and
    the tensors are exact, M is the lcm of all the scales and serves every
    suffix; otherwise each suffix is brought to its own scale, as on its own,
    and the sums run in floats and stay floats.
    """
    r, n = len(tensors) - 1, len(y)
    if any(t.dim != n or t.rank != r - j for j, t in enumerate(tensors)):
        raise DimensionMismatch(f"shift expansion needs ranks {r}..0 over R^{n}")
    q, (ys,) = linalg.clear_denominators([list(y)])
    form = [(i, v) for i, v in enumerate(ys) if v]
    views = [t.cleared for t in tensors]
    exact = all(t.exact for t in tensors) and linalg.is_exact(ys)
    shared = linalg.common_scale(views) if exact else None
    levels = monomial_tables(n, r)[0]
    expansions = []
    for s in range(r + 1):
        scale, lifted = (shared[0], shared[1][s:]) if shared else linalg.common_scale(views[s:])
        acc, c = _suffix_totals(tensors[s:], lifted, q, form)
        expansions.append(SymTensor.from_totals(n, r - s, levels[r - s] if r > s else [()],
                                                acc, scale * c))
    return expansions


def _suffix_totals(tensors: Sequence[SymTensor], lifted, q: int, form) -> tuple[list, int]:
    """(N_R, c_R) of the tensors of ranks R..0 on their views ``lifted`` over
    one scale, by the recurrence of ``shift_expansions``."""
    r = len(tensors) - 1
    levels, steps, _ = monomial_tables(tensors[0].dim, r)
    acc, c = [0], 1
    for d, (t, (values,)) in enumerate(zip(reversed(tensors), reversed(lifted))):
        out = [0] * len(levels[d])
        if d:
            c *= q * (r - d + 1)
            mul_form(acc, steps[d - 1], form, out)
        index = levels[d]
        for alpha, x in zip(t.keys, values):
            out[index[alpha] if d else 0] += c * x
        acc = out
    return acc, c


@dataclass(frozen=True)
class RMatrix:
    """Square real matrix.  Rational entries are kept as ``Fraction``s and
    any other real as a float; ``exact`` is read off the entries.  Its
    integer views, built once per matrix, are the rows (``cleared``) and the
    columns as sparse (row, entry) pairs over the same scale (``columns``)."""

    entries: tuple[tuple, ...]

    def __post_init__(self):
        n = len(self.entries)
        rows = tuple(tuple(map(linalg.real, r)) for r in self.entries)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("RMatrix must be square")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def exact(self) -> bool:
        return linalg.is_exact(x for row in self.entries for x in row)

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
    def det(self):
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
