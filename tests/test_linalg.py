import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuta import linalg
from valuta.errors import DimensionMismatch

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


def test_det_float_input_stays_float():
    got = linalg.det([[0.5, 1.0], [1.0, 0.3]])
    assert isinstance(got, float)
    assert got == -0.85
    assert isinstance(linalg.det([[1.0, 2.0], [2.0, 4.0]]), float)
    mixed = linalg.det([[F(1, 3), 1], [0.25, 2]])
    assert isinstance(mixed, float)
    assert mixed == pytest.approx(F(1, 3) * 2 - F(1, 4), abs=1e-15)
