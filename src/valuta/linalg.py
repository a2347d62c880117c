"""Exact linear algebra kernels over the rationals and Gaussian rationals.

Matrices are plain lists of lists of ``Fraction``; complex scalars are
``(re, im)`` pairs of ``Fraction``.  Everything here is exact: no pivot
thresholds, no rounding.  ``det`` is Bareiss's fraction-free elimination in
Python ints, and takes float matrices through the same elimination; other
float-mode linear algebra lives with its callers and uses numpy.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch

Vec = tuple[Fraction, ...]
Mat = list[list[Fraction]]

# complex rational scalar
CNum = tuple[Fraction, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce float to exact rational")
    return Fraction(x)


def vec(xs: Sequence) -> Vec:
    return tuple(frac(x) for x in xs)


def dot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise DimensionMismatch(f"dot of lengths {len(a)} and {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def mat_vec(rows: Sequence[Sequence], x: Sequence) -> tuple:
    return tuple(dot(row, x) for row in rows)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    if len(a[0]) != len(b):
        raise DimensionMismatch("matrix product shape mismatch")
    bt = list(zip(*b))
    return [[dot(row, col) for col in bt] for row in a]


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(rows: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*rows)]


def clear_denominators(rows: Sequence[Sequence]) -> tuple[int, list[list]]:
    """The lcm D of the entries' denominators and the rows times D, as ints.
    Rows holding a float come back as floats with D = 1."""
    if any(isinstance(x, float) for row in rows for x in row):
        return 1, [[float(x) for x in row] for row in rows]
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return d, [[int(x.numerator) * (d // int(x.denominator)) for x in row] for row in rows]


def bareiss(m: list[list]):
    """Determinant of a square matrix of ints, or of floats, by Bareiss's
    fraction-free elimination (Math. Comp. 22, 1968); ``m`` is overwritten.

    After step k every entry is a (k+1)-minor, so dividing by the previous
    pivot is exact and ``//`` keeps ints in integers; floats divide with
    ``/`` and gain stability from pivoting on the largest entry.
    """
    n = len(m)
    div = (operator.truediv if any(isinstance(x, float) for row in m for x in row)
           else operator.floordiv)
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot = max(range(k, n), key=lambda r: abs(m[r][k]))
        if m[pivot][k] == 0:
            return div(0, 1)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        rowk = m[k]
        p = rowk[k]
        for i in range(k + 1, n):
            a = m[i][k]
            m[i] = [div(x * p - a * y, prev) if j > k else 0
                    for j, (x, y) in enumerate(zip(m[i], rowk))]
        prev = p
    return sign * m[n - 1][n - 1] if n else 1


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


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= len(m):
            break
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        p = m[row][col]
        m[row] = [x / p for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return m, pivots


def nullspace(rows: Sequence[Sequence[Fraction]]) -> list[Vec]:
    """Basis of the right nullspace, exact."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [ZERO] * ncols
        v[fcol] = ONE
        for i, pcol in enumerate(pivots):
            v[pcol] = -red[i][fcol]
        basis.append(tuple(v))
    return basis


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vec:
    """Solve a square nonsingular system exactly."""
    n = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise DimensionMismatch("singular system")
    return tuple(red[i][n] for i in range(n))


def inv(rows: Sequence[Sequence[Fraction]]) -> Mat:
    """Exact inverse of a square nonsingular matrix."""
    n = len(rows)
    aug = [list(r) + ident_row for r, ident_row in zip(rows, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise DimensionMismatch("matrix not invertible")
    return [row[n:] for row in red]


def exact_sqrt(q: Fraction) -> Fraction | None:
    """Square root of q if it is the square of a rational, else None."""
    if q < 0:
        return None
    pn, pd = q.numerator, q.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


# -- Gaussian-rational scalars ------------------------------------------------

C_ZERO: CNum = (ZERO, ZERO)
C_ONE: CNum = (ONE, ZERO)


def cnum(re, im=0) -> CNum:
    return (frac(re), frac(im))


def cadd(a: CNum, b: CNum) -> CNum:
    return (a[0] + b[0], a[1] + b[1])


def csub(a: CNum, b: CNum) -> CNum:
    return (a[0] - b[0], a[1] - b[1])


def cmul(a: CNum, b: CNum) -> CNum:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cdiv(a: CNum, b: CNum) -> CNum:
    d = b[0] * b[0] + b[1] * b[1]
    if d == 0:
        raise ZeroDivisionError("complex division by zero")
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def cabs2(a: CNum) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


def cdet(rows: Sequence[Sequence[CNum]]) -> CNum:
    """Determinant of a complex matrix with Gaussian-rational entries."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    result = C_ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != C_ZERO), None)
        if pivot is None:
            return C_ZERO
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        p = m[col][col]
        result = cmul(result, p)
        for r in range(col + 1, n):
            if m[r][col] != C_ZERO:
                f = cdiv(m[r][col], p)
                for c in range(col, n):
                    m[r][c] = csub(m[r][c], cmul(f, m[col][c]))
    if sign < 0:
        result = (-result[0], -result[1])
    return result


def crank(rows: Sequence[Sequence[CNum]]) -> int:
    """Rank over the complex rationals by Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col] != C_ZERO), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        p = m[row][col]
        for r in range(row + 1, nrows):
            if m[r][col] != C_ZERO:
                f = cdiv(m[r][col], p)
                for c in range(col, ncols):
                    m[r][c] = csub(m[r][c], cmul(f, m[row][c]))
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def cmat_mul(a: Sequence[Sequence[CNum]], b: Sequence[Sequence[CNum]]) -> list[list[CNum]]:
    if len(a[0]) != len(b):
        raise DimensionMismatch("complex matrix product shape mismatch")
    n, k, p = len(a), len(b), len(b[0])
    out = [[C_ZERO] * p for _ in range(n)]
    for i in range(n):
        for j in range(p):
            acc = C_ZERO
            for t in range(k):
                acc = cadd(acc, cmul(a[i][t], b[t][j]))
            out[i][j] = acc
    return out
