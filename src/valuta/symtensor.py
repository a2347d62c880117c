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

A tensor is a polynomial in e_1..e_n, so the GL(n) action is the
substitution e_i -> phi(e_i) and a vector power the power of one linear
form.  Both, the moment kernel and the translation-covariance expansion
``shift_expansion`` run on one step, ``mul_form``: a dense
degree-d coefficient vector times a linear form, over the index tables of
``monomial_tables`` (cached per (n, r)).  Inputs are cleared of
denominators once, the sums run in Python ints and each coefficient is
divided once; floats run the same sums with scale 1 and stay floats.

An exact value is its integer view.  Int sums over one denominator become a
tensor only through ``SymTensor.from_totals``, which keeps them as they
are: ``coeffs``, the ``Fraction`` map, is built the first time it is read,
and ``cleared``, the view (D, ints) that ``linalg.clear_denominators``
gives for the values, is the totals reduced by their gcd with the
denominator.  The readers that work in ints take ``keys`` and ``cleared``
and never ``coeffs``: ``gl_action``, ``shift_expansion``, the McMullen
decomposition, ``is_zero``, the n-ary sum ``tensor_sum`` and, on tensors
made from int totals, ``==`` and the checks' residuals (``view_distance``),
so a check whose values agree builds no ``Fraction``.  A tensor
given as a map, or holding floats, has its ``coeffs`` at once and its view
built on first read, once per object, as does ``RMatrix.cleared``:
``gl_action`` on one z(K) under several matrices, or one matrix on several
tensors and bodies, clears each only the first time.

``SymTensor(...)`` validates keys and drops zeros; ``SymTensor._trusted``
and ``from_totals`` skip both, so they take only keys that are length-
``dim`` multi-indices of degree ``rank`` (``()`` at rank 0), and
``_trusted`` only nonzero values.

Tensor JSON: ``{"dim": n, "rank": r, "coeffs": {"a1,a2,...,an": "p/q"}}``
with keys ordered lexicographically and rationals in lowest terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import linalg
from .errors import DimensionMismatch, ParseError

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

    @classmethod
    def _trusted(cls, dim: int, rank: int, coeffs: dict) -> "SymTensor":
        """Construct without validation; see the module docstring for the
        contract ``coeffs`` must meet."""
        out = object.__new__(cls)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "rank", rank)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    @classmethod
    def from_totals(cls, dim: int, rank: int, keys: Iterable[MultiIndex], totals: list,
                    den: int) -> "SymTensor":
        """The tensor whose coefficient at each of ``keys`` is its total over
        ``den``, zeros left out: the one way int sums become a tensor.  Int
        totals are kept, and ``coeffs`` and ``cleared`` are built from them
        on first read (module docstring); totals holding a float are divided
        at once, an int into a ``Fraction`` and a float into a float."""
        if not set(map(type, totals)) <= {int}:
            return cls._trusted(
                dim, rank, {k: linalg.over(x, den) for k, x in zip(keys, totals) if x})
        out = object.__new__(cls)
        vars(out).update(dim=dim, rank=rank, _totals=(tuple(keys), totals, den))
        return out

    def __getattr__(self, name):
        """``coeffs`` of a tensor made by ``from_totals``, built on first
        read: each nonzero total over the denominator as a ``Fraction``."""
        raw = vars(self).get("_totals")
        if name != "coeffs" or raw is None:
            raise AttributeError(name)
        keys, totals, den = raw
        coeffs = {k: Fraction(x, den) for k, x in zip(keys, totals) if x}
        object.__setattr__(self, "coeffs", coeffs)
        return coeffs

    @staticmethod
    def zero(dim: int, rank: int) -> "SymTensor":
        return SymTensor._trusted(dim, rank, {})

    @staticmethod
    def scalar(dim: int, value) -> "SymTensor":
        return SymTensor(dim, 0, {(): value})

    @staticmethod
    def from_vector(x: Sequence) -> "SymTensor":
        return vector_power(x, 1)

    # -- ring-ish structure ---------------------------------------------------

    def _same_space(self, other: "SymTensor"):
        if self.dim != other.dim or self.rank != other.rank:
            raise DimensionMismatch(
                f"tensors in T^{self.rank}(R^{self.dim}) vs T^{other.rank}(R^{other.dim})")

    def __add__(self, other: "SymTensor") -> "SymTensor":
        self._same_space(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return SymTensor._trusted(self.dim, self.rank, {k: v for k, v in out.items() if v})

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        return self + (-other)

    def __neg__(self) -> "SymTensor":
        return SymTensor._trusted(self.dim, self.rank, {k: -v for k, v in self.coeffs.items()})

    def scale(self, c) -> "SymTensor":
        if c == 0:
            return SymTensor.zero(self.dim, self.rank)
        return SymTensor._trusted(
            self.dim, self.rank, {k: p for k, v in self.coeffs.items() if (p := v * c)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensor):
            return NotImplemented
        if (self.dim, self.rank) != (other.dim, other.rank):
            return False
        distance = view_distance(self, other)
        return self.coeffs == other.coeffs if distance is None else distance == 0

    def __hash__(self):
        return hash((self.dim, self.rank, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.keys

    def max_abs_coeff(self):
        """Largest absolute coefficient; 0 for the zero tensor."""
        if not self.coeffs:
            return Fraction(0)
        return max(abs(v) for v in self.coeffs.values())

    @cached_property
    def cleared(self) -> tuple[int, tuple[tuple]]:
        """The coefficient values' integer view (D, (ints,)), in ``keys``
        order: ``linalg.clear_denominators`` of them as one row, as a tuple,
        built once per tensor.  Totals N over den (``from_totals``) give it
        without a ``Fraction``: the least D with every D N_k / den an integer
        is den / g, g = gcd(den, *N), and the ints are N / g."""
        raw = vars(self).get("_totals")
        if raw is None:
            scale, (ints,) = linalg.clear_denominators([self.coeffs.values()])
            return scale, (tuple(ints),)
        _, totals, den = raw
        ints = [x for x in totals if x]
        g = math.gcd(den, *ints)
        return den // g, (tuple(x // g for x in ints),)

    @cached_property
    def keys(self) -> tuple[MultiIndex, ...]:
        """The keys of the nonzero coefficients in ``coeffs`` order, read
        off the totals of a tensor made by ``from_totals``."""
        raw = vars(self).get("_totals")
        if raw is None:
            return tuple(self.coeffs)
        return tuple(k for k, x in zip(raw[0], raw[1]) if x)

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


def view_distance(a: SymTensor, b: SymTensor) -> Fraction | None:
    """max |a_k - b_k| over the keys of either tensor when both are made
    from int totals, else None.  Equal views give 0 with no arithmetic;
    otherwise the views are brought to their common scale L
    (``linalg.common_scale``), subtracted key by key in ints, and the
    largest difference is divided once by L."""
    if "_totals" not in vars(a) or "_totals" not in vars(b):
        return None
    if a.cleared == b.cleared and a.keys == b.keys:
        return Fraction(0)
    big, ((left,), (right,)) = linalg.common_scale([a.cleared, b.cleared])
    diff = dict(zip(a.keys, left))
    for k, x in zip(b.keys, right):
        diff[k] = diff.get(k, 0) - x
    return Fraction(max(map(abs, diff.values()), default=0), big)


def tensor_sum(values: Sequence[SymTensor]) -> SymTensor:
    """The sum of one or more tensors of one space, equal to folding them
    with ``+``.  Exact values are added in one int pass: their views
    (``SymTensor.cleared``) are brought to their common scale L
    (``linalg.common_scale``), summed key by key over the union of their
    keys and made one tensor over L (``from_totals``), so no ``Fraction``
    is built.  Values holding a float are folded with ``+`` in order, so
    their rounding is that of pairwise ``+``."""
    first, *rest = values
    for t in rest:
        first._same_space(t)
    if not all("_totals" in vars(t) or linalg.is_exact(t.coeffs.values()) for t in values):
        return sum(rest, first)
    big, views = linalg.common_scale(t.cleared for t in values)
    totals: dict[MultiIndex, int] = {}
    for t, (ints,) in zip(values, views):
        for k, x in zip(t.keys, ints):
            totals[k] = totals.get(k, 0) + x
    return SymTensor.from_totals(first.dim, first.rank, list(totals), list(totals.values()), big)


def sym_product(a: SymTensor, b: SymTensor) -> SymTensor:
    """Symmetric product; in the monomial basis a convolution of coefficients."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"sym_product in dims {a.dim} and {b.dim}")
    out: dict[MultiIndex, Fraction] = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            k = _add_keys(ka, kb)
            out[k] = out.get(k, 0) + va * vb
    return SymTensor._trusted(a.dim, a.rank + b.rank, {k: v for k, v in out.items() if v})


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


def shift_expansion(tensors: Sequence[SymTensor], y: Sequence) -> SymTensor:
    """The translation-covariance expansion sum_j T_j y^j / j! of tensors
    T_0, ..., T_R of ranks R, ..., 0, by Horner's rule in y.

    With the tensors' views (``SymTensor.cleared``) on their common scale M
    (``linalg.common_scale``) and y cleared by q (y' = q y),
    N_0 = M T_R and N_(d+1) = c_(d+1) M T_(R-d-1) + N_d y', where c_0 = 1
    and c_(d+1) = c_d q (R - d).  Each T_j is multiplied by y once per step
    after it enters, for j steps with divisors j, ..., 1, so N_R is M c_R
    times the expansion and is divided once by M c_R = M q^R R!.  Floats run
    the same sums with scale 1 and stay floats.
    """
    r = len(tensors) - 1
    n = len(y)
    if any(t.dim != n or t.rank != r - j for j, t in enumerate(tensors)):
        raise DimensionMismatch(f"shift expansion needs ranks {r}..0 over R^{n}")
    q, (ys,) = linalg.clear_denominators([list(y)])
    form = [(i, v) for i, v in enumerate(ys) if v]
    by_rank = tensors[::-1]
    scale, lifted = linalg.common_scale(t.cleared for t in by_rank)
    levels, steps, _ = monomial_tables(n, r)
    acc, c = [0], 1
    for d, (t, (values,)) in enumerate(zip(by_rank, lifted)):
        out = [0] * len(levels[d])
        if d:
            c *= q * (r - d + 1)
            mul_form(acc, steps[d - 1], form, out)
        index = levels[d]
        for alpha, x in zip(t.keys, values):
            out[index[alpha] if d else 0] += c * x
        acc = out
    return SymTensor.from_totals(n, r, levels[r] if r else [()], acc, scale * c)


@dataclass(frozen=True)
class RMatrix:
    """Square real matrix.  Rational entries are kept as ``Fraction``s and
    any other real as a float; ``exact`` is read off the entries."""

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
    def det(self):
        return linalg.det(self.entries)

    def matvec(self, x: Sequence) -> tuple:
        """phi x, equal to ``linalg.mat_vec`` of the entries: for an exact
        matrix and vector the view's rows (D) times x cleared (q) are summed
        in ints and each coordinate is divided once by D q; anything
        holding a float takes ``linalg.mat_vec``, so its rounding is the same."""
        if not (self.exact and linalg.is_exact(x)):
            return linalg.mat_vec(self.entries, x)
        d, rows = self.cleared
        q, (xs,) = linalg.clear_denominators([x])
        return tuple(Fraction(linalg.dot(row, xs), d * q) for row in rows)

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.n != other.n:
            raise DimensionMismatch("matrix product size mismatch")
        return RMatrix.from_rows(linalg.mat_mul(self.entries, other.entries))

    def transpose(self) -> "RMatrix":
        return RMatrix.from_rows(linalg.transpose(self.entries))

    def inverse(self) -> "RMatrix":
        return RMatrix.from_rows(linalg.inv(self.entries))

    def inverse_transpose(self) -> "RMatrix":
        return self.inverse().transpose()


def gl_action(phi: RMatrix, t: SymTensor) -> SymTensor:
    """Natural GL(n) action on symmetric tensors: substitute phi(e_i) for e_i
    in every basis monomial and re-expand.

    On the views of phi (q, its rows transposed into columns) and of t's
    coefficients (L), each monomial of degree < r maps to its parent's image
    times one column.  At degree r the weighted parent images are summed
    per peeled index i, each sum is multiplied by column i once, and the
    total is divided by L q^r.  Neither view is cleared again when the same
    matrix or tensor comes back.
    """
    if phi.n != t.dim:
        raise DimensionMismatch(f"matrix on R^{phi.n} acting on tensor over R^{t.dim}")
    n, r = t.dim, t.rank
    if r == 0 or t.is_zero():
        return t
    q, rows = phi.cleared
    forms = [[(k, x) for k, x in enumerate(col) if x] for col in zip(*rows)]
    scale, (weights,) = t.cleared
    levels, steps, parents = monomial_tables(n, r)
    images = [[1]]
    for d in range(r - 1):
        size = len(levels[d + 1])
        images = [mul_form(images[j], steps[d], forms[i], [0] * size) for j, i in parents[d]]
    size, sums = len(levels[r - 1]), {}
    for alpha, w in zip(t.keys, weights):
        j, i = parents[r - 1][levels[r][alpha]]
        acc = sums.get(i) or [0] * size
        sums[i] = [a + w * v for a, v in zip(acc, images[j])]
    out = [0] * len(levels[r])
    for i, acc in sums.items():
        mul_form(acc, steps[r - 1], forms[i], out)
    return SymTensor.from_totals(n, r, levels[r], out, scale * q ** r)
