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
denominator as they are, dropping zeros, times an int ``factor`` (1 by
default) that multiplies them only once the denominator is reduced
against it and them, so sums that share one large factor (the moment
pass's g, ``scale``'s numerator) are never multiplied to be divided back
down; a factor of 0 gives the zero tensor.  Rank-0 tensors carry the
single empty key ``()``, which the map may also name as the zero
multi-index.

A tensor is a polynomial in e_1..e_n, so the GL(n) action is the
substitution e_i -> phi(e_i) and a vector power the power of one linear
form.  The action and the translation-covariance expansions
``shift_expansions`` run on one step, ``mul_form``: a dense degree-d
coefficient vector times a linear form, over the index tables of
``monomial_tables`` (cached per (n, r)).  ``gl_action`` runs it by
Horner's rule on the tree of first parents of those tables, with phi's
columns as sparse forms (``RMatrix.columns``), so a shear pays only for its
nonzeros.  A vector power is the top degree of one generated geometric
step.  Inputs are cleared of denominators once, the sums run in Python
ints and each coefficient is divided once.  A scalar, vector or matrix
(``RMatrix``) that is not rational raises ``TypeError`` where it enters.

Two inner loops of the package run as straight-line code generated here,
each compiled once per shape and kept.  The geometric step of (n, r),
``step(h, x)`` (``_step_source``), is the moment kernel's recurrence
H_d += <x, e> H_(d-1), d = 1..r, on the flat state h_0..h_r, the degrees
concatenated in ``monomial_tables`` order.  The exterior step of R^n from
level k, ``step(w, p, b)`` (``_exterior_source``), takes the k-minors of k
edges to the (k+1)-minors of those and the edge p - b, over the signed
tables of ``_wedge_tables``; ``polytope``'s prefix walks take one per
edge, and from level n - 1 it gives the determinant.  Each body is sums of
products of locals, with no loop, subscript or call, which takes away the
interpreter's share of a step: best of 7 timeit on a shared 2-core Xeon,
one geometric step on dense ints takes 0.56 us in place of 1.57 (per-degree
``mul_form``) at n = 4, r = 2, and 6.0 in place of 12.2 at n = 6, r = 3;
one 4-D face's normal, three exterior steps, 4.5 us in place of 12.6.
Generating the (6, 3) geometric step takes 1 ms and the (10, 4) step
18 ms; all exterior steps of R^4 about 0.5 ms and of R^6 about 1.3 ms.
``_compile`` is the one place source is compiled: it reads n and r or k
through ``operator.index`` and refuses them out of range before any
source is formatted, so only ints enter the source.

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
from itertools import accumulate, combinations, compress
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Mapping, Sequence

from . import linalg
from .errors import DimensionMismatch, ParseError
from .linalg import RMatrix  # gl_action's matrix, kept in this namespace too

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
    ``step`` is ``steps[d]`` of ``monomial_tables``.  Returns ``out``.
    Called by ``gl_action`` and ``shift_expansions``; the moment kernel and
    ``vector_power`` take the generated geometric step instead."""
    for c, succ in zip(vec, step):
        if c:
            for i, x in form:
                out[succ[i]] += c * x
    return out


_WEDGES: dict[int, tuple] = {}


def _wedge_tables(n: int) -> tuple:
    """Read-only signed index tables of the exterior powers of R^n, built
    once per n.  Slot j of level k is e_S for S the j-th k-subset of
    range(n) in lexicographic order, except at level n - 1, whose slot c is
    (-1)^c e_S for S = range(n) without c: n - 1 edges' minors laid out
    there are their normal, (-1)^c times the minor without column c.
    Entry k, for k = 0..n - 1, holds per slot j of level k the triples
    (i, slot, sign), one per i not in S, with e_j ^ e_i = sign times that
    slot of level k + 1: (-1)^#{s in S : s > i} times the slots' signs."""
    if n in _WEDGES:
        return _WEDGES[n]
    levels = [[(s, 1) for s in combinations(range(n), k)] for k in range(n + 1)]
    levels[n - 1] = [(tuple(s for s in range(n) if s != c), (-1) ** c) for c in range(n)]
    tables = []
    for low, high in zip(levels, levels[1:]):
        slots = {s: (j, sign) for j, (s, sign) in enumerate(high)}
        rows = []
        for s, sign in low:
            row = []
            for i in [i for i in range(n) if i not in s]:
                j, t = slots[tuple(sorted(s + (i,)))]
                row.append((i, j, sign * t * (-1) ** sum(x > i for x in s)))
            rows.append(tuple(row))
        tables.append(tuple(rows))
    _WEDGES[n] = tables = tuple(tables)
    return tables


def _step_source(n: int, r: int) -> str:
    """The source of ``step(h, x)``, the geometric step of (n, r) unrolled on
    locals (module docstring): h is the flat state h_0..h_r, the degrees
    concatenated in ``monomial_tables`` order, and x a point's n
    coordinates.  For d = 1..r, each slot of H_d adds the products of the
    new H_(d-1) slots one ``steps[d - 1]`` entry away from it with their
    coordinates, so H_d += <x, e> H_(d-1); the new state is returned."""
    levels, steps, _ = monomial_tables(n, r)
    offsets = list(accumulate(map(len, levels), initial=0))
    h, x = [f"h{k}" for k in range(offsets[-1])], [f"x{i}" for i in range(n)]
    lines = ["def step(h, x):", f"    {', '.join(h)}, = h", f"    {', '.join(x)}, = x"]
    for d, step in enumerate(steps):
        sums = [[h[k]] for k in range(offsets[d + 1], offsets[d + 2])]
        for j, row in enumerate(step, offsets[d]):
            for i, k in enumerate(row):
                sums[k].append(f"{h[j]} * {x[i]}")
        lines += [f"    {terms[0]} = {' + '.join(terms)}" for terms in sums]
    lines.append(f"    return {', '.join(h)},")
    return "\n".join(lines) + "\n"


def _exterior_source(n: int, k: int) -> str:
    """The source of ``step(w, p, b)``, the exterior step of R^n from level
    k unrolled on locals (module docstring): w holds the k-minors of k
    edges in the slots of ``_wedge_tables``, and p - b is one more edge,
    taken coordinate by coordinate.  Each (k+1)-minor is one signed sum of
    products w_j (p_i - b_i), and the list of them is returned."""
    w = [f"w{j}" for j in range(math.comb(n, k))]
    p, b = [f"p{i}" for i in range(n)], [f"b{i}" for i in range(n)]
    lines = ["def step(w, p, b):", f"    {', '.join(w)}, = w", f"    {', '.join(p)}, = p",
             f"    {', '.join(b)}, = b", *(f"    x{i} = p{i} - b{i}" for i in range(n))]
    sums: list[list] = [[] for _ in range(math.comb(n, k + 1))]
    for j, row in enumerate(_wedge_tables(n)[k]):
        for i, slot, sign in row:
            sums[slot].append(("-" if sign < 0 else "+", f"{w[j]} * x{i}"))
    minors = [" ".join(f"{op} {term}" for op, term in terms).removeprefix("+ ")
              for terms in sums]
    lines.append(f"    return [{', '.join(minors)}]")
    return "\n".join(lines) + "\n"


_STEPS: dict[tuple[str, int, int], Callable] = {}


def _compile(kind: str, n, m) -> Callable:
    """The ``step`` of the generated source of one kind, compiled once per
    (kind, n, m) and kept: the geometric step of (n, r = m),
    ``_step_source``, or the exterior step of R^n from level k = m,
    ``_exterior_source``.  The one place source is compiled: n and m are
    read through ``operator.index`` and refused below 1 and 0, and an
    exterior level from n on, before any source is formatted, so only
    ints enter it."""
    n, m = operator.index(n), operator.index(m)
    exterior = kind == "exterior"
    if n < 1 or m < 0 or exterior and m >= n:
        raise ValueError(f"no {kind} step for n = {n}, {'k' if exterior else 'r'} = {m}")
    if (kind, n, m) not in _STEPS:
        source = (_exterior_source if exterior else _step_source)(n, m)
        scope: dict = {}
        exec(compile(source, f"<{kind} step n={n} m={m}>", "exec"), scope)
        _STEPS[kind, n, m] = scope["step"]
    return _STEPS[kind, n, m]


def _geometric_step(n, r) -> Callable:
    """``step(h, x)`` of ``_step_source``, compiled once per (n, r)."""
    return _compile("geometric", n, r)


def _exterior_step(n, k) -> Callable:
    """``step(w, p, b)`` of ``_exterior_source``, compiled once per (n, k)."""
    return _compile("exterior", n, k)


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
                    den: int, factor: int = 1) -> "SymTensor":
        """The tensor whose coefficient at each of ``keys`` is ``factor``
        times its total over ``den``, zeros left out, without validation:
        ``keys`` are length-``dim`` multi-indices of degree ``rank`` (``()``
        at rank 0).  The view ``cleared`` is those values in lowest terms,
        reached without multiplying the totals first (``_store``)."""
        return object.__new__(cls)._store(dim, rank, keys, totals, den, factor)

    def _store(self, dim, rank, keys, totals, den, factor=1) -> "SymTensor":
        """Keep factor * totals / den in lowest terms: den and factor are
        divided by their gcd c, den then by the gcd of the unmultiplied
        totals, and only the reduced totals are multiplied by factor / c,
        which is prime to what is left of den.  A factor of 0 keeps no key."""
        if factor != 1:
            if not factor:
                keys = totals = ()
            elif (c := math.gcd(den, factor)) > 1:
                den, factor = den // c, factor // c
        keys, totals = tuple(compress(keys, totals)), tuple(filter(None, totals))
        if (g := math.gcd(den, *totals)) > 1:
            totals, den = tuple(map(g.__rfloordiv__, totals)), den // g
        if factor != 1:
            totals = tuple(map(factor.__mul__, totals))
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
        return SymTensor.from_totals(self.dim, self.rank, self.keys, totals, den, -1)

    def scale(self, c) -> "SymTensor":
        """c times the tensor, for a rational c = p / q: the totals over the
        denominator times q, with p as ``from_totals``'s factor, so the gcds
        run before p multiplies."""
        p, q = linalg.frac(c).as_integer_ratio()
        den, (totals,) = self.cleared
        return SymTensor.from_totals(self.dim, self.rank, self.keys, totals, den * q, p)

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
    power of the linear form sum x_i e_i: the top degree of the geometric
    step of (n, r) from the unit state, on x cleared of denominators (D),
    over D^r.  A vector in R^0 raises ``DimensionMismatch``."""
    if r < 0:
        raise ValueError("negative tensor power")
    scale, (cleared,) = linalg.clear_denominators([list(x)])
    n = len(cleared)
    if n < 1:
        raise DimensionMismatch("no vector power in R^0")
    levels = monomial_tables(n, r)[0]
    state = _geometric_step(n, r)((1,) + (0,) * (sum(map(len, levels)) - 1), cleared)
    top = len(levels[r])
    return SymTensor.from_totals(n, r, levels[r] if r else [()], state[-top:], scale ** r)


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
