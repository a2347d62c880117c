"""Exact linear algebra on one fraction-free elimination.

Matrices are plain lists of lists of ints or ``Fraction``s; complex scalars
are ``(re, im)`` pairs of them.  Determinant, rank, reduced row echelon
form, nullspace and inverse (``inverse_view``) all run on
``_eliminate``, Bareiss's fraction-free elimination (Math. Comp. 22,
1968): the input is cleared of denominators once, eliminated in Python
ints with exact ``//`` and divided once at the end, so exact input gives
exact output, with no pivot thresholds and no rounding.  A matrix holding
a float (``numpy.float32`` too) runs the same elimination in floats,
pivoting on the largest entry, and gives floats.  The entries decide the mode: ``is_exact`` is the test,
``real`` the coercion that constructors apply.  ``crank`` is the real rank
of the realified rows, halved; exact ``cdet`` reads det(X + iY) off the
integer determinants det(X + tY) at t = 1..m+1, and float ``cdet`` runs
the elimination on Python ``complex`` entries.  Products of rows and
columns (``mat_mul``, ``cmat_mul``) run on the operands'
views at one scale (``_operands``): one int dot product and one division
per entry; with a float operand the same sums run on the entries as given.
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, GeometryError

Vec = tuple[Fraction, ...]
Mat = list[list[Fraction]]

# complex rational scalar
CNum = tuple[Fraction, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints (numpy's too), strings like ``"3/4"``, and Fractions to
    Fraction; a real that is not rational (float, ``numpy.float32``)
    raises ``TypeError``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, numbers.Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    if isinstance(x, numbers.Real):
        raise TypeError(f"refusing to coerce {type(x).__name__} to exact rational")
    return Fraction(x)


def is_exact(xs) -> bool:
    """Whether every entry is rational (numpy integers too), so that work on
    them runs exact."""
    return all(issubclass(t, (int, Fraction)) or issubclass(t, numbers.Rational)
               for t in set(map(type, xs)))


def real(x):
    """Coerce like ``frac``, except that a real that is not rational (float,
    ``numpy.float32``) becomes a float."""
    if isinstance(x, (Fraction, int)) or not isinstance(x, numbers.Real):
        return frac(x)
    return frac(x) if isinstance(x, numbers.Rational) else float(x)


def vec(xs: Sequence) -> Vec:
    return tuple(frac(x) for x in xs)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """Each entry the sum of its row-by-column products in index order, on
    the rows and columns ``_operands`` gives and divided as it says."""
    _check_product(a, b)
    a, b, div = _operands(a, transpose(b))
    return [[div(sum(map(operator.mul, r, c))) for c in b] for r in a]


def _check_product(a, b) -> None:
    """Refuse a and b unless every row of a has len(b) entries and b's rows one length."""
    if any(len(row) != len(b) for row in a) or len(set(map(len, b))) > 1:
        raise DimensionMismatch("matrix product shape mismatch")


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(rows: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*rows)]


def clear_denominators(rows: Sequence[Sequence]) -> tuple[int, list[list]]:
    """The lcm D of the entries' denominators and the rows times D, as ints.
    Rows holding an entry that is not rational (float, ``numpy.float32``)
    come back as floats with D = 1; numpy integers count as rational."""
    return _int_view(rows) or (1, [[float(x) for x in row] for row in rows])


def _int_view(rows: Sequence[Sequence]) -> tuple[int, list[list]] | None:
    """``clear_denominators`` of rational rows; None when an entry is not rational."""
    types = {type(x) for row in rows for x in row} - {int, Fraction}
    if types and not all(issubclass(t, numbers.Rational) for t in types):
        return None
    rows = [list(map(frac, row)) for row in rows] if types else rows
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def check_orthonormal(rows: Sequence[Sequence]) -> None:
    """Raise ``GeometryError`` unless the rows are orthonormal: exactly for
    rational rows, cleared of denominators (D) once so that B B^T is compared
    with D^2 I in ints, and within 1e-9 for float ones (D = 1)."""
    exact = is_exact(x for row in rows for x in row)
    d, rows = clear_denominators(rows) if exact else (1, rows)
    tol = 0 if exact else 1e-9
    if any(abs(sum(map(operator.mul, u, v)) - (d * d if k == i else 0)) > tol
           for i, u in enumerate(rows) for k, v in enumerate(rows[i:], i)):
        raise GeometryError("basis is not orthonormal")


def common_scale(views) -> tuple[int, list[list[list]]]:
    """Integer views (D_i, rows_i), each what ``clear_denominators`` gives
    for some rows, brought to one scale as clearing all the rows together
    brings them: the lcm L of the D_i and each view's rows times L / D_i, a
    view already at scale L passed through uncopied.  When a view holds a
    float, L = 1, float views pass through and each int view's entries are
    x / D_i, float(x / D_i) bit for bit, so a float times an exact entry
    rounds as in Python."""
    views = list(views)
    floats = [_floats(rows) for _, rows in views]
    if any(floats):
        return 1, [rows if f else [[x / d for x in row] for row in rows]
                   for (d, rows), f in zip(views, floats)]
    big = math.lcm(*(d for d, _ in views))
    return big, [rows if d == big else [[x * (big // d) for x in row] for row in rows]
                 for d, rows in views]


def _operands(a: Sequence[Sequence], b: Sequence[Sequence]):
    """Exact a and b as their views at one scale L (``common_scale``), with
    ``over`` by L^2 for their int sums; a and b as given when either holds
    a float, sums untouched, so each term is Python's product of its two
    entries, exact beside exact, as the schoolbook sum of products has it."""
    vb = _int_view(b)
    va = vb and _int_view(a)
    if not va:
        return a, b, lambda x: x
    big, (a, b) = common_scale([va, vb])
    d = big * big
    return a, b, lambda x: over(x, d)


def over(x, d: int):
    """x / d for a sum of cleared entries: a ``Fraction`` for an int, a float for a float."""
    return Fraction(x, d) if isinstance(x, int) else x / d


def _floats(m: list[list]) -> bool:
    """Whether an entry is not an int: a float, or a complex from ``cdet``
    (then the sum of the entries is not an int either)."""
    return not isinstance(sum(map(sum, m)), int)


def _eliminate(m: list[list], jordan: bool = False) -> tuple[int, list[int]]:
    """Bareiss's fraction-free elimination of a rectangular int or float
    matrix in place; returns the sign of its row swaps and its pivot columns.

    Columns without a pivot are skipped.  After each step every entry is a
    minor of the input, so dividing by the previous pivot is exact and ``//``
    keeps ints in integers; floats divide with ``/`` and pivot on the largest
    entry, ints on the first nonzero one.  With ``jordan`` the rows above
    each pivot are eliminated too (fraction-free Gauss-Jordan), and every
    pivot entry of an int matrix ends equal to the last pivot.  Rows past
    the rank end zero.
    """
    nrows = len(m)
    floats = _floats(m)
    sign, prev, pivots = 1, 1, []
    for c in range(len(m[0]) if m else 0):
        k = len(pivots)
        if k == nrows:
            break
        if floats:
            r = max(range(k, nrows), key=lambda i: abs(m[i][c]))
            if m[r][c] == 0:
                continue
        else:
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
                if floats:
                    m[i] = [(x * p - a * y) / prev for x, y in zip(m[i], top)]
                else:
                    m[i] = [(x * p - a * y) // prev for x, y in zip(m[i], top)]
        pivots.append(c)
        prev = p
    return sign, pivots


def bareiss(m: list[list]):
    """Determinant of a square matrix of ints, or of floats, by ``_eliminate``;
    ``m`` is overwritten.  Its last entry ends as the last pivot, or as 0
    when the matrix is singular."""
    sign, _ = _eliminate(m)
    return sign * m[-1][-1] if m else 1


def det(rows: Sequence[Sequence]):
    """Determinant: each row is cleared of denominators, Bareiss runs in
    integers, and one division by the row scales ends it.  Rational input
    gives a ``Fraction``, input holding a float a float."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("determinant of non-square matrix")
    scale = 1
    m = []
    for row in rows:
        d, (cleared,) = clear_denominators([row])
        scale *= d
        m.append(cleared)
    value = bareiss(m)
    return value / scale if isinstance(value, float) else Fraction(value, scale)


def rank(rows: Sequence[Sequence]) -> int:
    """Rank, exact for rational input; a float pivot counts unless it is 0."""
    return len(_eliminate(clear_denominators(rows)[1])[1])


def rref(rows: Sequence[Sequence]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and its pivot columns: fraction-free
    Gauss-Jordan on the rows cleared of denominators, then each row divided
    once by its pivot entry (exactly on int rows, with ``/`` on float rows)."""
    _, m = clear_denominators(rows)
    _, pivots = _eliminate(m, jordan=True)
    div = operator.truediv if _floats(m) else Fraction
    scales = [row[c] for row, c in zip(m, pivots)] + [1] * (len(m) - len(pivots))
    return [[div(x, p) for x in row] for row, p in zip(m, scales)], pivots


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
    p m^-1, the adjugate up to sign.  A float matrix gives p = 1 and R =
    m^-1, each row divided by its own pivot entry, as ``rref`` divides it.
    A singular m raises ``DimensionMismatch``."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    _, pivots = _eliminate(aug, jordan=True)
    if pivots != list(range(n)):
        raise DimensionMismatch("matrix not invertible")
    if _floats(aug):
        return 1, [[x / row[c] for x in row[n:]] for row, c in zip(aug, pivots)]
    return (aug[-1][n - 1] if n else 1), [row[n:] for row in aug]


def inv(rows: Sequence[Sequence]) -> Mat:
    """Inverse of a square nonsingular matrix: ``inverse_view`` of the rows
    cleared of denominators (d), each entry of d R divided once by p."""
    d, m = clear_denominators(rows)
    p, r = inverse_view(m)
    return [[over(d * x, p) for x in row] for row in r]


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


# -- Gaussian-rational scalars and matrices ------------------------------------


def cnum(re, im=0) -> CNum:
    return (frac(re), frac(im))


def cabs2(a: CNum) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


def _flat(rows: Sequence[Sequence[CNum]]) -> list[list]:
    """Complex rows z = x + iy as the real rows [x | y]."""
    return [[re for re, _ in row] + [im for _, im in row] for row in rows]


def cdet(rows: Sequence[Sequence[CNum]]) -> CNum:
    """Determinant of X + iY.  [X | Y] is cleared of denominators (lcm d)
    once.  For rational input p(t) = det(X + tY), of degree <= m, is
    evaluated at t = 1..m+1 by integer ``bareiss``, its coefficients are read
    off with ``interpolation_weights(m)`` (W, D), and p(i) is their
    alternating sums over D d^m.  Input holding a float runs ``bareiss`` on
    the ``complex`` entries x + iy instead, since interpolating in floats
    loses digits as m grows."""
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise DimensionMismatch("determinant of non-square matrix")
    d, xy = clear_denominators(_flat(rows))
    if _floats(xy):
        z = bareiss([[complex(a, b) for a, b in zip(row[:m], row[m:])] for row in xy])
        return (z.real, z.imag)
    values = [bareiss([[a + t * b for a, b in zip(row[:m], row[m:])] for row in xy])
              for t in range(1, m + 2)]
    w, big_d = interpolation_weights(m)
    coeffs = [sum(map(operator.mul, wj, values)) for wj in w]
    scale = big_d * d ** m
    return (Fraction(sum(coeffs[0::4]) - sum(coeffs[2::4]), scale),
            Fraction(sum(coeffs[1::4]) - sum(coeffs[3::4]), scale))


def crank(rows: Sequence[Sequence[CNum]]) -> int:
    """Rank over C of complex rows: the real rank of the rows z and iz
    flattened to [x | y] and [-y | x], halved."""
    return rank(_flat(rows) + _flat([[(-im, re) for re, im in row] for row in rows])) // 2


def cmat_mul(a: Sequence[Sequence[CNum]], b: Sequence[Sequence[CNum]]) -> list[list[CNum]]:
    """re = sum(x u - y v) and im = sum(x v + y u), k in order, on a's rows
    [x | y] and b's columns [u | v] as ``_operands`` gives them."""
    _check_product(a, b)
    k, mul = len(b), operator.mul
    a, b, div = _operands(_flat(a), _flat(transpose(b)))
    b = [(col[:k], col[k:]) for col in b]
    return [[(div(sum(map(operator.sub, map(mul, x, u), map(mul, y, v)))),
              div(sum(map(operator.add, map(mul, x, v), map(mul, y, u)))))
             for u, v in b] for x, y in ((row[:k], row[k:]) for row in a)]
