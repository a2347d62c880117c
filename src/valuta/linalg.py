"""Exact linear algebra on one fraction-free elimination.

Matrices are plain lists of lists of ints or ``Fraction``s; complex scalars
are ``(re, im)`` pairs of them.  Determinant, rank, reduced row echelon
form, nullspace and inverse (``inverse_view``) all run on
``_eliminate``, Bareiss's fraction-free elimination (Math. Comp. 22,
1968): the input is cleared of denominators once, eliminated in Python
ints with exact ``//`` and divided once at the end, so the output is
exact, with no pivot thresholds and no rounding.  Every number is
rational: ``clear_denominators``, which every reader of rows runs first,
and ``frac``, which coerces one scalar, refuse a float, ``numpy.float32``,
``complex`` or string entry with ``TypeError``, and ``_eliminate`` refuses
any entry that is not an ``int``.  ``crank`` is the real rank of the
realified rows, halved; ``cdet`` reads det(X + iY) off the integer determinants det(X + tY) at
t = 1..m+1.  ``mat_mul`` runs on the operands' views: one int dot
product and one division per entry.  ``RMatrix``, a square rational
matrix, is its integer view (rows over one scale), cleared once when it
is made; its entries, sparse columns and determinant are built off the
view once each, and a product multiplies the two views.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import DimensionMismatch, GeometryError

Vec = tuple[Fraction, ...]
Mat = list[list[Fraction]]

# complex rational scalar
CNum = tuple[Fraction, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints (numpy's too) and Fractions to Fraction; anything that is
    not rational (float, ``numpy.float32``, ``complex``, a string such as
    ``"3/4"``) raises ``TypeError``, as ``clear_denominators`` does."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, numbers.Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    raise TypeError(f"entries must be rational, not {type(x).__name__}")


def vec(xs: Sequence) -> Vec:
    return tuple(frac(x) for x in xs)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """Each entry the sum of its row-by-column products in index order, on
    the views (p, rows) of a and (q, columns) of b, over p q."""
    if any(len(row) != len(b) for row in a) or len(set(map(len, b))) > 1:
        raise DimensionMismatch("matrix product shape mismatch")
    (p, a), (q, b) = clear_denominators(a), clear_denominators(transpose(b))
    return [[Fraction(sum(map(operator.mul, r, c)), p * q) for c in b] for r in a]


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(rows: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*rows)]


def clear_denominators(rows: Sequence[Sequence]) -> tuple[int, list[list]]:
    """The integer view (D, ints) of rational rows: the lcm D of the
    entries' denominators and the rows times D.  Each entry is read once,
    as its (numerator, denominator): an int or ``Fraction`` directly, any
    other type through ``frac``, so numpy integers count as rational and a
    float (though it has ``as_integer_ratio``), ``numpy.float32``,
    ``complex`` or string entry raises ``TypeError`` that names its type."""
    ratios = [[(x, 1) if type(x) is int else
               x.as_integer_ratio() if type(x) is Fraction else frac(x).as_integer_ratio()
               for x in row] for row in rows]
    d = math.lcm(*(q for row in ratios for _, q in row))
    return d, [[p * (d // q) for p, q in row] for row in ratios]


def check_orthonormal(rows: Sequence[Sequence]) -> None:
    """Raise ``GeometryError`` unless the rational rows are orthonormal:
    cleared of denominators (D) once, B B^T is compared with D^2 I in ints."""
    d, rows = clear_denominators(rows)
    if any(sum(map(operator.mul, u, v)) != (d * d if k == i else 0)
           for i, u in enumerate(rows) for k, v in enumerate(rows[i:], i)):
        raise GeometryError("basis is not orthonormal")


def common_scale(views) -> tuple[int, list[list[list]]]:
    """Integer views (D_i, rows_i), each what ``clear_denominators`` gives
    for some rows, brought to one scale as clearing all the rows together
    brings them: the lcm L of the D_i and each view's rows times L / D_i, a
    view already at scale L passed through uncopied."""
    views = list(views)
    big = math.lcm(*(d for d, _ in views))
    return big, [rows if d == big else [[x * (big // d) for x in row] for row in rows]
                 for d, rows in views]


def _eliminate(m: list[list], jordan: bool = False) -> tuple[int, list[int]]:
    """Bareiss's fraction-free elimination of a rectangular int matrix in
    place; returns the sign of its row swaps and its pivot columns.

    Columns without a pivot are skipped; the pivot is the first nonzero
    entry.  After each step every entry is a minor of the input, so
    dividing by the previous pivot is exact and ``//`` keeps the entries in
    integers.  With ``jordan`` the rows above each pivot are eliminated too
    (fraction-free Gauss-Jordan), and every pivot entry ends equal to the
    last pivot.  Rows past the rank end zero.  An entry that is not an
    ``int`` (a float or a ``Fraction``, which ``//`` would floor) raises
    ``TypeError``.
    """
    if types := {type(x) for row in m for x in row} - {int}:
        names = ", ".join(sorted(t.__name__ for t in types))
        raise TypeError(f"elimination needs int entries, not {names}")
    nrows = len(m)
    sign, prev, pivots = 1, 1, []
    for c in range(len(m[0]) if m else 0):
        k = len(pivots)
        if k == nrows:
            break
        for r in range(k, nrows):
            if m[r][c]:
                break
        else:
            continue
        if r != k:
            m[k], m[r] = m[r], m[k]
            sign = -sign
        top = m[k]
        p = top[c]
        for i in range(0 if jordan else k + 1, nrows):
            if i != k:
                a = m[i][c]
                m[i] = [(x * p - a * y) // prev for x, y in zip(m[i], top)]
        pivots.append(c)
        prev = p
    return sign, pivots


def bareiss(m: list[list]):
    """Determinant of a square matrix of ints by ``_eliminate``, which
    refuses any other entry with ``TypeError``; ``m`` is overwritten.  Its
    last entry ends as the last pivot, or as 0 when the matrix is singular."""
    sign, _ = _eliminate(m)
    return sign * m[-1][-1] if m else 1


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of rational rows: each row is cleared of denominators,
    Bareiss runs in integers, and one division by the row scales ends it."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("determinant of non-square matrix")
    views = [clear_denominators([row]) for row in rows]
    return Fraction(bareiss([cleared for _, (cleared,) in views]), math.prod(d for d, _ in views))


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of rational rows."""
    return len(_eliminate(clear_denominators(rows)[1])[1])


def rref(rows: Sequence[Sequence]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form of rational rows and its pivot columns:
    fraction-free Gauss-Jordan on the rows cleared of denominators, then
    each row divided once by its pivot entry."""
    _, m = clear_denominators(rows)
    _, pivots = _eliminate(m, jordan=True)
    scales = [row[c] for row, c in zip(m, pivots)] + [1] * (len(m) - len(pivots))
    return [[Fraction(x, p) for x in row] for row, p in zip(m, scales)], pivots


def nullspace(rows: Sequence[Sequence]) -> list[Vec]:
    """Basis of the right nullspace, one vector per free column of ``rref``."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[free] = ONE
        for row, c in zip(red, pivots):
            v[c] = -row[free]
        basis.append(tuple(v))
    return basis


def inverse_view(m: Sequence[Sequence]) -> tuple[object, list[list]]:
    """(p, R) with m^-1 = R / p, for a square nonsingular matrix of ints:
    one fraction-free Gauss-Jordan ``_eliminate`` of [m | I] ends with every
    pivot entry equal to the last pivot p = +-det m, so its right half R is
    p m^-1, the adjugate up to sign.  A singular m raises
    ``DimensionMismatch`` and an entry that is not an ``int`` ``TypeError``."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    _, pivots = _eliminate(aug, jordan=True)
    if pivots != list(range(n)):
        raise DimensionMismatch("matrix not invertible")
    return (aug[-1][n - 1] if n else 1), [row[n:] for row in aug]


def inv(rows: Sequence[Sequence]) -> Mat:
    """Inverse of a square nonsingular rational matrix: ``inverse_view`` of
    the rows cleared of denominators (d), each entry of d R divided once by p."""
    d, m = clear_denominators(rows)
    p, r = inverse_view(m)
    return [[Fraction(d * x, p) for x in row] for row in r]


_WEIGHTS: dict[int, tuple[tuple[tuple[int, ...], ...], int]] = {}


def interpolation_weights(top: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Read-only (W, D), built once per ``top``: W / D is the inverse of the
    Vandermonde matrix V[i][j] = (i + 1)^j on the nodes 1..top + 1, with W
    an int matrix and D the lcm of the inverse's denominators."""
    if top in _WEIGHTS:
        return _WEIGHTS[top]
    d, w = clear_denominators(inv([[k ** j for j in range(top + 1)] for k in range(1, top + 2)]))
    _WEIGHTS[top] = weights = (tuple(map(tuple, w)), d)
    return weights


def exact_sqrt(q: Fraction) -> Fraction | None:
    """Square root of q if it is the square of a rational, else None."""
    if q < 0:
        return None
    pn, pd = q.numerator, q.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True, init=False)
class RMatrix:
    """Square rational matrix held as its integer view ``cleared`` = (D,
    ints), what ``clear_denominators`` gives for its rows (rows as tuples):
    the constructor clears the entries once, so a float, numpy float or
    ``complex`` raises ``TypeError``.  Its ``Fraction`` ``entries``, its
    columns as sparse (row, entry) pairs over the same scale (``columns``)
    and its ``det`` are built off the view once per matrix."""

    cleared: tuple[int, tuple[tuple, ...]]

    def __init__(self, entries: Sequence[Sequence]):
        if any(len(r) != len(entries) for r in entries):
            raise DimensionMismatch("RMatrix must be square")
        scale, rows = clear_denominators(entries)
        vars(self)["cleared"] = (scale, tuple(map(tuple, rows)))

    @property
    def n(self) -> int:
        return len(self.cleared[1])

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RMatrix":
        return RMatrix(rows)

    @staticmethod
    def identity(n: int) -> "RMatrix":
        return RMatrix.from_rows(identity(n))

    @staticmethod
    def diag(values: Sequence) -> "RMatrix":
        n = len(values)
        return RMatrix.from_rows(
            [[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Each int of the view (D, ints) over D, built on first read."""
        scale, rows = self.cleared
        return tuple(tuple(Fraction(x, scale) for x in row) for row in rows)

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
        """One ``bareiss`` of the view ``cleared`` (q, rows) over q^n."""
        q, rows = self.cleared
        return Fraction(bareiss(list(map(list, rows))), q ** self.n)

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        """The view of the product of the views (p, A) and (q, B), with no
        ``Fraction`` built: the ints N = A B over p q reduced by
        g = gcd(p q, *N), as ``polytope`` reduces an image's view."""
        if self.n != other.n:
            raise DimensionMismatch("matrix product size mismatch")
        (p, a), (q, b) = self.cleared, other.cleared
        b = tuple(zip(*b))
        rows = [[sum(map(operator.mul, r, c)) for c in b] for r in a]
        g = math.gcd(p * q, *(x for row in rows for x in row))
        out = object.__new__(RMatrix)
        vars(out)["cleared"] = (p * q // g, tuple(tuple(x // g for x in row) for row in rows))
        return out


# -- Gaussian-rational scalars and matrices ------------------------------------


def cnum(re, im=0) -> CNum:
    return (frac(re), frac(im))


def cabs2(a: CNum) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


def _flat(rows: Sequence[Sequence[CNum]]) -> list[list]:
    """Complex rows z = x + iy as the real rows [x | y]."""
    return [[re for re, _ in row] + [im for _, im in row] for row in rows]


def cdet(rows: Sequence[Sequence[CNum]]) -> CNum:
    """Determinant of X + iY for rational X and Y.  [X | Y] is cleared of
    denominators (lcm d) once, p(t) = det(X + tY), of degree <= m, is
    evaluated at t = 1..m+1 by integer ``bareiss``, its coefficients are read
    off with ``interpolation_weights(m)`` (W, D), and p(i) is their
    alternating sums over D d^m."""
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise DimensionMismatch("determinant of non-square matrix")
    d, xy = clear_denominators(_flat(rows))
    values = [bareiss([[a + t * b for a, b in zip(row[:m], row[m:])] for row in xy])
              for t in range(1, m + 2)]
    w, big_d = interpolation_weights(m)
    coeffs = [sum(map(operator.mul, wj, values)) for wj in w]
    scale = big_d * d ** m
    return (Fraction(sum(coeffs[0::4]) - sum(coeffs[2::4]), scale),
            Fraction(sum(coeffs[1::4]) - sum(coeffs[3::4]), scale))


def crank(rows: Sequence[Sequence[CNum]]) -> int:
    """Rank over C of rational complex rows: the real rank of the rows z and
    iz flattened to [x | y] and [-y | x], halved."""
    _, m = clear_denominators(_flat(rows) + _flat([[(-im, re) for re, im in row] for row in rows]))
    return len(_eliminate(m)[1]) // 2
