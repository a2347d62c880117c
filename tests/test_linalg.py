import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    clear_denominators_three_passes, cmat_mul_fractions, mat_mul_fractions, mat_vec_fractions,
)

from valuta import linalg, moment
from valuta.cplx import CMatrix, Subspace, complex_rank, gram_schmidt
from valuta.errors import DimensionMismatch
from valuta.polytope import Polytope, scale, simplex, subspace_volume, translate
from valuta.symtensor import RMatrix, SymTensor, shift_expansions, vector_power
from valuta.valuation_lab import moment_valuation, rehomogeneity_check, verify_covariance

F = Fraction


def leibniz(rows):
    """Determinant as the signed sum over permutations."""
    n = len(rows)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = F(-1) ** inversions
        for i, p in enumerate(perm):
            term *= rows[i][p]
        total += term
    return total


rationals = st.builds(F, st.integers(min_value=-12, max_value=12),
                      st.sampled_from([1, 1, 2, 3, 5, 7, 360]))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    return [[draw(rationals) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(rows=square_matrices())
def test_det_matches_leibniz(rows):
    got = linalg.det(rows)
    assert isinstance(got, Fraction)
    assert got == leibniz(rows)


@pytest.mark.parametrize("rows", [
    [],
    [[F(-3, 7)]],
    [[0, 1, 2], [F(1, 2), 0, 1], [3, F(2, 3), 0]],          # zero leading pivot
    [[0, 0, 1], [0, 2, 0], [F(5, 3), 0, 0]],                # pivots all off the diagonal
    [[1, 2, 3], [F(1, 2), 1, F(3, 2)], [7, 0, F(1, 9)]],     # singular: rows 1 and 2 parallel
    [[0, 1], [0, F(2, 5)]],                                 # singular: zero column
])
def test_det_edge_cases(rows):
    assert linalg.det(rows) == leibniz(rows)


def test_det_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        linalg.det([[1, 2]])


def test_float_rows_are_refused_before_elimination(monkeypatch):
    """Every reader of rows clears them first, so float rows, as of a body
    or a matrix, are refused before ``bareiss`` or ``_eliminate`` sees them,
    a float beside exact entries included."""
    def refused(*args, **kwargs):
        raise AssertionError("eliminated")

    monkeypatch.setattr(linalg, "_eliminate", refused)
    monkeypatch.setattr(linalg, "bareiss", refused)
    for rows in ([[0.5, 1.0], [1.0, 0.3]], [[F(1, 3), 1], [0.25, 2]]):
        for entry in (linalg.det, linalg.rank, linalg.clear_denominators):
            with pytest.raises(TypeError):
                entry(rows)


SEGMENT = simplex([(0, 0), (1, 0)])
ENTRY_POINTS = {
    "RMatrix": lambda x: RMatrix.from_rows([[1, x], [0, 1]]),
    "CMatrix": lambda x: CMatrix.from_rows([[1, x], [0, 1]]),
    "det": lambda x: linalg.det([[1, x], [0, 1]]),
    "cdet": lambda x: linalg.cdet([[(1, 0), (x, 0)], [(0, 0), (1, 0)]]),
    "inv": lambda x: linalg.inv([[1, x], [0, 1]]),
    "rref": lambda x: linalg.rref([[1, x], [0, 1]]),
    "Subspace": lambda x: Subspace(2, [(x, 0)]),
    "Subspace.span": lambda x: Subspace.span([(1, 0, 0, 0), (0, x, 0, 0)]),
    "from_orthonormal": lambda x: Subspace.from_orthonormal([(1, 0, 0, 0), (0, x, 0, 0)]),
    "gram_schmidt": lambda x: gram_schmidt([(0, x, 0, 0)], [(1, 0, 0, 0)]),
    "complex_rank": lambda x: complex_rank([(1, 0, 0, 0), (0, x, 0, 0)]),
    "subspace_volume": lambda x: subspace_volume(SEGMENT, [(1, x)]),
}


@pytest.mark.parametrize("value", ["float", "numpy-float64", "numpy-float32", "complex"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_matrix_entry_points_refuse_floats_and_complex(monkeypatch, entry, value):
    """Matrices and subspace bases are exact: a float, numpy float or
    ``complex`` entry raises ``TypeError`` where it enters, before any
    elimination runs."""
    np = pytest.importorskip("numpy")
    x = {"float": 0.5, "numpy-float64": np.float64(0.5), "numpy-float32": np.float32(0.5),
         "complex": 0.5 + 0j}[value]

    def refused(*args, **kwargs):
        raise AssertionError("eliminated")

    monkeypatch.setattr(linalg, "_eliminate", refused)
    monkeypatch.setattr(linalg, "bareiss", refused)
    with pytest.raises(TypeError):
        ENTRY_POINTS[entry](x)


TRIANGLE = simplex([(0, 0), (2, 0), (0, 1)])
E1 = SymTensor(2, 1, {(1, 0): 1})
CASCADE = [moment_valuation(2, 1), moment_valuation(2, 0)]
BODY_AND_TENSOR_ENTRY_POINTS = {
    "Polytope": lambda x: Polytope(2, ((0, 0), (1, x), (0, 1)), ((0, 1, 2),)),
    "SymTensor": lambda x: SymTensor(2, 1, {(1, 0): 1, (0, 1): x}),
    "SymTensor-key": lambda x: SymTensor(2, 2, {(2 * x, 2 * x): 1}),
    "SymTensor.scale": lambda x: E1.scale(x),
    "translate": lambda x: translate(TRIANGLE, (1, x)),
    "scale": lambda x: scale(TRIANGLE, x),
    "vector_power": lambda x: vector_power((1, x), 2),
    "vector_power-r0": lambda x: vector_power((1, x), 0),
    "shift_expansions": lambda x: shift_expansions([E1, SymTensor.scalar(2, 1)], (1, x)),
    "rehomogeneity_check": lambda x: rehomogeneity_check(CASCADE[0], TRIANGLE, x),
    "verify_covariance": lambda x: verify_covariance(CASCADE, TRIANGLE, [(1, 0), (1, x)]),
}


@pytest.mark.parametrize("value", ["float", "numpy-float64", "numpy-float32", "complex"])
@pytest.mark.parametrize("entry", sorted(BODY_AND_TENSOR_ENTRY_POINTS))
def test_body_and_tensor_entry_points_refuse_floats_and_complex(monkeypatch, entry, value):
    """Bodies, tensors, scalars, shifts and dilation factors are exact too:
    a float, numpy float or ``complex`` raises ``TypeError`` where it
    enters, before any elimination or moment pass runs."""
    np = pytest.importorskip("numpy")
    x = {"float": 0.5, "numpy-float64": np.float64(0.5), "numpy-float32": np.float32(0.5),
         "complex": 0.5 + 0j}[value]

    def refused(*args, **kwargs):
        raise AssertionError("computed")

    for module, name in ((linalg, "_eliminate"), (linalg, "bareiss"), (moment, "_moment_totals")):
        monkeypatch.setattr(module, name, refused)
    with pytest.raises(TypeError):
        BODY_AND_TENSOR_ENTRY_POINTS[entry](x)


@pytest.mark.parametrize("entry", sorted(BODY_AND_TENSOR_ENTRY_POINTS))
def test_a_float_zero_is_refused_too(entry):
    """0.0 is refused as any float is, though a zero coefficient, shift or
    coordinate adds nothing."""
    with pytest.raises(TypeError):
        BODY_AND_TENSOR_ENTRY_POINTS[entry](0.0)


@pytest.mark.parametrize("rows", [
    [[3, 1], [1, 0.5]],
    [[1, 2, 3], [0, 1, 4], [5, 6, -0.0]],     # one float zero, at the end
    [[1, 2], [3, 4 + 1j]],                    # a complex entry
    [[2, 1], [1, complex(1, 0)]],
])
def test_any_float_or_complex_entry_is_refused(rows):
    with pytest.raises(TypeError):
        linalg.clear_denominators(rows)
    with pytest.raises(TypeError):
        linalg.rank(rows)
    assert linalg.clear_denominators([[3, 1], [1, 2]]) == (1, [[3, 1], [1, 2]])
    assert linalg.clear_denominators([]) == (1, [])


def test_numpy_scalars_are_classified_by_type():
    """numpy integers are exact; numpy floats, ``float`` subclasses
    (float64) or not (float32, float16), are refused by clearing, by
    ``frac`` and by ``det``."""
    np = pytest.importorskip("numpy")
    for value in (np.float32(1.5), np.float64(1.5)):
        with pytest.raises(TypeError):
            linalg.clear_denominators([[value, 1]])
    for rows in ([[np.float32(1.5), 0], [0, 1]], [[np.float16(0.5), 1], [2, np.float64(3)]]):
        with pytest.raises(TypeError):
            linalg.det(rows)
    exact = linalg.det([[np.int64(3), np.int32(1)], [np.uint8(2), np.int8(5)]])
    assert exact == 13 and type(exact) is Fraction and type(exact.numerator) is int
    assert linalg.clear_denominators([[np.int64(2), F(1, 3)]]) == (3, [[6, 1]])
    assert linalg.frac(np.int16(-7)) == -7 and type(linalg.frac(np.int16(-7)).numerator) is int
    for value in (np.float32(1.5), np.float16(0.25), np.float64(2.0), 0.5):
        with pytest.raises(TypeError):
            linalg.frac(value)
    with pytest.raises(TypeError, match="not str"):
        linalg.frac("3/4")


def _rational_entry(rng, np):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return rng.choice([-1, 1]) * rng.randrange(2 ** 64, 2 ** 80)
    if kind == 2:
        return F(rng.randint(-9, 9), rng.choice([1, 2, 6, 7, 2 ** 70 + 1]))
    if kind == 3:
        return rng.choice([np.int64, np.int16, np.uint8])(rng.randint(0, 100))
    if kind == 4:
        return rng.choice([True, False])
    return F(rng.randint(-5, 5))


def test_clearing_reads_each_entry_once_and_matches_the_three_pass_reading():
    """One pass over (numerator, denominator) gives the view that reading
    the types, the denominators and the entries again in three passes gave,
    on ints (zeros, negatives, beyond 64 bits), Fractions, numpy integers
    and bools, and refuses what that reading refused, naming the type."""
    import random

    np = pytest.importorskip("numpy")
    rng = random.Random(808)
    for _ in range(200):
        rows = [[_rational_entry(rng, np) for _ in range(rng.randrange(4))]
                for _ in range(rng.randrange(4))]
        got = linalg.clear_denominators(rows)
        assert got == clear_denominators_three_passes(rows)
        assert all(type(x) is int for row in got[1] for x in row) and type(got[0]) is int
    for bad in (0.5, 2.0, np.float32(1.5), np.float64(0.0), 1 + 0j, "3/4"):
        rows = [[F(1, 3), 2], [bad, 1]]
        name = type(bad).__name__
        for clear in (linalg.clear_denominators, clear_denominators_three_passes):
            with pytest.raises(TypeError, match=f"not {name}"):
                clear(rows)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS) + sorted(BODY_AND_TENSOR_ENTRY_POINTS))
def test_a_numeric_string_is_refused_naming_its_type(entry):
    """Numeric strings follow one rule: every matrix, body, tensor, shift and
    dilation entry point refuses "1/2" with a ``TypeError`` that names
    ``str``, whether it coerces scalars (``frac``) or clears rows
    (``clear_denominators``).  JSON import reads strings through
    ``parse_rational`` instead."""
    with pytest.raises(TypeError, match="str"):
        {**ENTRY_POINTS, **BODY_AND_TENSOR_ENTRY_POINTS}[entry]("1/2")


@pytest.mark.parametrize("rows", [[[0.5, 1.0], [1.0, 0.3]], [[F(1, 2), 1], [1, F(3, 10)]]],
                         ids=["float", "fraction"])
def test_int_view_eliminations_refuse_other_entries(rows):
    """``bareiss`` and ``inverse_view`` eliminate int views with ``//``, so a
    float or ``Fraction`` entry raises ``TypeError`` instead of being
    floored (the float matrix would give -1.0, not -0.85); its int view at
    scale 10 gives det -85 = -0.85 * 10^2."""
    for entry in (linalg.bareiss, linalg.inverse_view):
        with pytest.raises(TypeError, match="int entries"):
            entry([list(row) for row in rows])
    assert linalg.bareiss([[5, 10], [10, 3]]) == -85
    assert linalg.inverse_view([[5, 10], [10, 3]]) == (-85, [[3, -10], [-10, 5]])


# -- oracles for rref, nullspace, solve, inv, cdet and crank ------------------------


def to_sympy(rows, ncols=None):
    sympy = pytest.importorskip("sympy")
    ncols = len(rows[0]) if rows else (ncols or 0)
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(F(x).numerator, F(x).denominator)
                                           for row in rows for x in row])


def from_sympy(mat):
    return [[F(int(e.p), int(e.q)) for e in mat.row(i)] for i in range(mat.rows)]


@st.composite
def rect_matrices(draw):
    """Rational matrices up to 5 x 5, with rows that are combinations of
    other rows and columns that are zero planted in some of them."""
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=5))
    rows = [[draw(rationals) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a, b = draw(rationals), draw(rationals)
        i, j = (draw(st.integers(min_value=0, max_value=nrows - 1)) for _ in range(2))
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    zero = draw(st.sets(st.integers(min_value=0, max_value=ncols - 1), max_size=2))
    rows = [[F(0) if c in zero else x for c, x in enumerate(row)] for row in rows]
    return draw(st.permutations(rows))


@settings(max_examples=80, deadline=None)
@given(rows=rect_matrices())
def test_rref_matches_sympy(rows):
    red, pivots = linalg.rref(rows)
    want, want_pivots = to_sympy(rows).rref()
    assert red == from_sympy(want)
    assert pivots == list(want_pivots)
    assert all(type(x) is Fraction for row in red for x in row)


@settings(max_examples=80, deadline=None)
@given(rows=rect_matrices())
def test_nullspace_is_a_kernel_basis(rows):
    basis = linalg.nullspace(rows)
    ncols = len(rows[0])
    assert len(basis) == ncols - to_sympy(rows).rank()
    for v in basis:
        assert len(v) == ncols
        assert all(x == 0 for x in mat_vec_fractions(rows, v))
    if basis:
        assert to_sympy(basis).rank() == len(basis)


@st.composite
def square_systems(draw):
    """A square rational matrix (singular when planted so) and a right side."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(rationals)
        rows[i] = [c * x for x in rows[j]]
    return rows, [draw(rationals) for _ in range(n)]


@settings(max_examples=80, deadline=None)
@given(system=square_systems())
def test_solve_and_inv_invert(system):
    """A nonsingular system is solved by its inverse and has no kernel; a
    singular one has no inverse and a nonzero kernel."""
    rows, rhs = system
    n = len(rows)
    if to_sympy(rows).det() == 0:
        with pytest.raises(DimensionMismatch):
            linalg.inv(rows)
        assert linalg.nullspace(rows)
        return
    inverse = linalg.inv(rows)
    x = [y for y, in linalg.mat_mul(inverse, [[b] for b in rhs])]
    assert list(mat_vec_fractions(rows, x)) == rhs
    assert linalg.mat_mul(rows, inverse) == linalg.identity(n)
    assert linalg.nullspace(rows) == []
    assert all(type(v) is Fraction for row in inverse for v in row + x)


@settings(max_examples=80, deadline=None)
@given(system=square_systems())
def test_inverse_view_is_the_adjugate_over_the_last_pivot(system):
    """On the rows cleared of denominators, ``inverse_view`` gives ints R and
    p = +-det with m R = p I, and refuses a singular m."""
    _, m = linalg.clear_denominators(system[0])
    det = leibniz(m)
    if det == 0:
        with pytest.raises(DimensionMismatch):
            linalg.inverse_view(m)
        return
    p, r = linalg.inverse_view(m)
    assert abs(p) == abs(det) and all(type(x) is int for row in r for x in row)
    assert linalg.mat_mul(m, r) == [[p * (i == j) for j in range(len(m))] for i in range(len(m))]


def gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gauss_leibniz(rows):
    """Complex determinant as the signed sum over permutations."""
    n = len(rows)
    total = (F(0), F(0))
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (F(-1) ** inversions, F(0))
        for i, p in enumerate(perm):
            term = gauss_mul(term, rows[i][p])
        total = (total[0] + term[0], total[1] + term[1])
    return total


gaussian = st.tuples(rationals, st.sampled_from([F(0), F(0), F(1), F(-2, 3), F(5, 7)]))


@st.composite
def complex_matrices(draw, square=True):
    """Gaussian-rational matrices, with complex multiples of other rows
    planted in some of them."""
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = nrows if square else draw(st.integers(min_value=1, max_value=4))
    rows = [[draw(gaussian) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(nrows)))[:2]
        c = draw(gaussian)
        rows[i] = [gauss_mul(c, x) for x in rows[j]]
    return rows


@settings(max_examples=80, deadline=None)
@given(rows=complex_matrices())
def test_cdet_matches_gaussian_leibniz(rows):
    got = linalg.cdet(rows)
    assert got == gauss_leibniz(rows)
    assert all(type(x) is Fraction for x in got)


@pytest.mark.parametrize("rows", [
    [],
    [[(F(0), F(0))]],
    [[(F(2, 3), F(-1, 5))]],
    [[(F(0), F(0)), (F(1), F(2))], [(F(3), F(0)), (F(0), F(0))]],   # pivots off the diagonal
    [[(F(0), F(1)), (F(0), F(0)), (F(0), F(0))],
     [(F(0), F(0)), (F(0), F(0)), (F(1, 2), F(1))],
     [(F(0), F(0)), (F(-3), F(0)), (F(0), F(0))]],                 # permutation pattern
    [[(F(1), F(2)), (F(3), F(0))], [(F(-2), F(1)), (F(0), F(3))]],   # row 2 = i * row 1
    [[(F(0), F(0)), (F(1), F(1))], [(F(0), F(0)), (F(2), F(0))]],   # zero column
])
def test_cdet_edge_cases(rows):
    assert linalg.cdet(rows) == gauss_leibniz(rows)


def sympy_complex_rank(rows):
    sympy = pytest.importorskip("sympy")

    def q(x):
        return sympy.Rational(x.numerator, x.denominator)

    return sympy.Matrix([[q(re) + sympy.I * q(im) for re, im in row] for row in rows]).rank()


@settings(max_examples=80, deadline=None)
@given(rows=complex_matrices(square=False))
def test_crank_matches_sympy(rows):
    assert linalg.crank(rows) == sympy_complex_rank(rows)


@pytest.mark.parametrize("rows, rank", [
    ([], 0),
    ([[]], 0),
    ([[(F(0), F(0)), (F(0), F(0))]], 0),
    ([[(F(1), F(0)), (F(0), F(1))], [(F(0), F(1)), (F(-1), F(0))]], 1),   # row 2 = i * row 1
    ([[(F(1), F(0)), (F(0), F(0))], [(F(0), F(1)), (F(0), F(0))]], 1),    # zero column
    ([[(F(1), F(0)), (F(1), F(0))], [(F(1), F(0)), (F(0), F(1))]], 2),
])
def test_crank_edge_cases(rows, rank):
    assert linalg.crank(rows) == rank


def test_echelon_edge_cases():
    assert linalg.rref([]) == ([], [])
    assert linalg.rref([[]]) == ([[]], [])
    assert linalg.rref([[0, 0, 0], [0, 0, 0]]) == ([[0, 0, 0], [0, 0, 0]], [])
    assert linalg.rref([[0, 2, 4], [0, 1, 2]]) == ([[0, 1, 2], [0, 0, 0]], [1])
    assert linalg.nullspace([]) == []
    assert linalg.nullspace([[]]) == []
    assert linalg.nullspace([[0, 0]]) == [(1, 0), (0, 1)]
    assert linalg.nullspace([[F(1, 2), 0, F(1, 3)]]) == [(0, 1, 0), (F(-2, 3), 0, 1)]
    assert linalg.inv([]) == []
    for singular in ([[0]], [[1, 2], [2, 4]], [[0, 1], [0, 3]]):
        with pytest.raises(DimensionMismatch):
            linalg.inv(singular)
        assert len(linalg.nullspace(singular)) == 1


@st.composite
def stair_matrices(draw):
    """Int matrices of 1..5 rows and 1..6 columns, mostly zeros, with some
    columns zeroed and, in some, a row planted as a combination of two
    others: the elimination skips columns without a pivot and swaps rows."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3, -5, 7, 10 ** 12])
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols - 1)):
        for row in rows:
            row[c] = 0
    if nrows > 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[draw(st.integers(2, nrows - 1))] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=stair_matrices())
def test_rank_of_int_matrices_matches_sympy(rows):
    """The rank matches sympy's on rectangular int matrices with pivot-free
    columns and row swaps."""
    sympy = pytest.importorskip("sympy")
    assert linalg.rank(rows) == sympy.Matrix(rows).rank()


@pytest.mark.parametrize("rows, rank", [
    ([[0, 0, 1], [0, 2, 3], [1, 0, 0]], 3),                   # swaps at every pivot
    ([[0, 0, 0, 4], [0, 0, 2, 1], [0, 0, 6, 3]], 2),          # two pivot-free columns first
    ([[0, 1, 2, 3], [0, 2, 4, 7], [0, 0, 0, 5], [0, 3, 6, 9]], 2),
    ([[1, 2], [2, 4], [0, 0], [3, 6]], 1),
    ([[0, 0], [0, 0]], 0),
])
def test_rank_edge_cases(rows, rank):
    assert linalg.rank(rows) == rank


# Decimal matrices that need row swaps, with their rank, in Fractions: the
# determinant is Leibniz's.
DECIMAL_ROWS = [
    ([["0.1", "2", "-1.3"], ["3.7", "-0.2", "0.9"], ["1.1", "4.4", "0.25"]], 3),
    ([["0", "1.5", "2.5", "-0.75"], ["2.2", "-3.25", "0.1", "1"], ["-4.1", "0.7", "0.001", "0.3"],
      ["0.6", "2", "-0.3", "5.5"]], 4),
]


@pytest.mark.parametrize("rows, rank", DECIMAL_ROWS)
def test_decimal_matrices_needing_row_swaps_are_exact(rows, rank):
    rows = [[F(x) for x in row] for row in rows]
    assert linalg.det(rows) == leibniz(rows) != 0
    assert linalg.rank(rows) == rank


@settings(max_examples=80, deadline=None)
@given(groups=st.lists(st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=1,
                                max_size=3), min_size=1, max_size=4))
def test_common_scale_is_clearing_all_rows_together(groups):
    """Views cleared one group of rows at a time and brought to one scale
    equal the rows cleared together."""
    big, lifted = linalg.common_scale(linalg.clear_denominators(rows) for rows in groups)
    together = linalg.clear_denominators([row for rows in groups for row in rows])
    assert (big, [row for rows in lifted for row in rows]) == together


# -- products of rows and columns on integer views ------------------------------------

small_ints = st.integers(min_value=-20, max_value=20)
plain_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False) | st.sampled_from(
    [0.1, -1 / 3, 2.7, -0.0])


@st.composite
def product_operands(draw, entries_a, entries_b, pair=lambda s: s):
    """An n x k and a k x p matrix, 0 <= n, p <= 4 and 1 <= k <= 4, with
    entries drawn from ``pair(entries)``: plain entries, or (re, im) pairs."""
    n, k, p = (draw(st.integers(min_value=lo, max_value=4)) for lo in (0, 1, 0))
    a = [[draw(pair(entries_a)) for _ in range(k)] for _ in range(n)]
    b = [[draw(pair(entries_b)) for _ in range(p)] for _ in range(k)]
    return a, b


@st.composite
def square_pairs(draw, entries_a, entries_b, min_size=0):
    """Two m x m matrices of (re, im) pairs, min_size <= m <= 4, the first
    with parts drawn from ``entries_a`` and the second from ``entries_b``."""
    m = draw(st.integers(min_value=min_size, max_value=4))
    return tuple([[draw(st.tuples(s, s)) for _ in range(m)] for _ in range(m)]
                 for s in (entries_a, entries_b))


EXACT_ENTRIES = {"int": small_ints, "fraction": rationals, "mixed": small_ints | rationals}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(EXACT_ENTRIES)))
def test_exact_products_equal_the_schoolbook_fractions(data, kind):
    """``mat_mul``, on a column too, and the ``CMatrix`` product of square
    matrices, on integer views, equal the schoolbook sums in Fractions
    (``oracles``), value and type: every entry a ``Fraction``, ints
    included; the product's view is the one its entries clear to.  A
    complex matrix rebuilt from its entries is itself, and its ``det_c``,
    read off its realification's view, is ``cdet`` of its entries."""
    entries = EXACT_ENTRIES[kind]
    a, b = data.draw(product_operands(entries, entries))
    got, want = linalg.mat_mul(a, b), mat_mul_fractions(a, b)
    assert got == want and all(type(x) is F for row in got for x in row)
    x = data.draw(st.lists(entries, min_size=len(b), max_size=len(b)))
    want = [row[0] for row in mat_mul_fractions(a, [[y] for y in x])]
    got = [y for y, in linalg.mat_mul(a, [[y] for y in x])]
    assert got == want and all(type(y) is F for y in got)
    ca, cb = data.draw(square_pairs(entries, entries))
    a = CMatrix(ca)
    product = a @ CMatrix(cb)
    got = product.entries
    assert got == tuple(map(tuple, cmat_mul_fractions(ca, cb))) and CMatrix(got) == product
    assert all(type(x) is F for row in got for z in row for x in z)
    assert CMatrix(a.entries) == a and a.det_c == linalg.cdet(a.entries) == linalg.cdet(ca)


big_ints = st.integers(min_value=2 ** 53 - 9, max_value=2 ** 60) | st.integers(
    min_value=-(2 ** 60), max_value=-(2 ** 53 - 9))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), swap=st.booleans())
def test_float_products_are_refused(data, swap):
    """Products are exact: a float anywhere in either operand (``mat_mul``,
    on a column too, or a ``CMatrix`` product, whose constructor refuses
    it) raises ``TypeError``, whatever sits beside it: ints, large ints past
    2^53 and Fractions on both sides."""
    floats = plain_floats | small_ints | big_ints | rationals
    pick = (small_ints | big_ints | rationals, floats)
    pick = pick[::-1] if swap else pick
    a, b = data.draw(product_operands(*pick))
    if not any(isinstance(x, float) for m in (a, b) for row in m for x in row):
        a = [[0.5] + row[1:] for row in a] or [[0.5] * len(b)]
    column = [[0.5]] * len(b)
    for x, y in ((a, b), (a, column)):
        with pytest.raises(TypeError):
            linalg.mat_mul(x, y)
    ca, cb = data.draw(square_pairs(*pick))
    if not any(isinstance(x, float) for m in (ca, cb) for row in m for z in row for x in z):
        ca = [[(0.5, 0.5)] + row[1:] for row in ca] or [[(0.5, 0.5)]]
    with pytest.raises(TypeError):
        CMatrix(ca) @ CMatrix(cb)


def test_exact_terms_beside_a_float_are_refused():
    """Products in which an exact term, (2^53 + 1) 3 or 1/10 * 3, meets the
    float 0.5 * 0.0 only after it are refused rather than rounded; their
    exact twins are exact."""
    for x, y in (([[2 ** 53 + 1, 0.5]], [[3], [0.0]]), ([[F(1, 10), 0.5]], [[3], [0.0]])):
        with pytest.raises(TypeError):
            linalg.mat_mul(x, y)
    with pytest.raises(TypeError):
        CMatrix([[(2 ** 53 + 1, 0.0)]]) @ CMatrix([[(3, 0)]])
    assert linalg.mat_mul([[2 ** 53 + 1, F(1, 2)]], [[3], [0]]) == [[3 * 2 ** 53 + 3]]
    assert linalg.mat_mul([[F(1, 10), F(1, 2)]], [[3], [0]]) == [[F(3, 10)]]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), which=st.sampled_from(["a", "b"]))
def test_ragged_operands_raise(data, which):
    """A row of a shorter or longer than len(b), or rows of b of unequal
    lengths, raise ``DimensionMismatch`` rather than being truncated, and so
    does a complex matrix with a row shorter or longer than the others."""
    a, b = data.draw(product_operands(rationals, rationals))
    a = a or [[F(1)] * len(b)]
    m = a if which == "a" else b
    i = data.draw(st.integers(min_value=0, max_value=len(m) - 1))
    if which == "b" and len(m) == 1:
        b = b + [b[0] + [F(1)]]
        a = [row + [F(1)] for row in a]
    elif data.draw(st.booleans()) or not m[i]:
        m[i] = m[i] + [F(2)]
    else:
        m[i] = m[i][:-1]

    with pytest.raises(DimensionMismatch):
        linalg.mat_mul(a, b)
    ca, _ = data.draw(square_pairs(rationals, rationals, min_size=2))
    i = data.draw(st.integers(min_value=0, max_value=len(ca) - 1))
    ca[i] = ca[i] + [(F(2), F(-2))] if data.draw(st.booleans()) else ca[i][:-1]
    with pytest.raises(DimensionMismatch):
        CMatrix(ca)


def test_complex_matrices_round_trip_their_realification():
    """A complex matrix whose parts have mixed denominators gives back its
    entries as Fractions, equals its twin built from them, and reads
    ``det_c`` off its realification's view as the Leibniz sum of its
    entries; ``|det_C|^2`` is the determinant of the realification."""
    rows = [[(F(1, 2), F(-1, 3)), (2, F(1, 6))], [(F(3, 4), 0), (F(-5, 7), F(2, 9))]]
    a = CMatrix(rows)
    assert a.entries == tuple(tuple((F(x), F(y)) for x, y in row) for row in rows)
    assert all(type(x) is F for row in a.entries for z in row for x in z)
    assert CMatrix(a.entries) == a and hash(CMatrix(a.entries)) == hash(a)
    assert a.det_c == gauss_leibniz(a.entries) == linalg.cdet(rows)
    assert a.realified.det == linalg.cabs2(a.det_c)


def test_ragged_examples_raise():
    """Unchecked, the ragged complex matrix realifies to rows of 4 and 2
    entries, and ``zip`` truncates the real product to a 2 x 1 one."""
    with pytest.raises(DimensionMismatch):
        CMatrix([[(1, 0), (2, 0)], [(3, 0)]])
    with pytest.raises(DimensionMismatch):
        linalg.mat_mul([[1, 2], [3, 4]], [[1, 5], [1]])
