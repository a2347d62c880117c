import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import multi_indices
from valuta import linalg
from valuta.cplx import sample_subspace
from valuta.moment import covariance_expansion, monomial_integral_simplex, moment_tensor
from valuta.polytope import (
    Polytope,
    box,
    crosspolytope,
    cube,
    linear_image,
    scale,
    simplex,
    translate,
    volume,
)
from valuta.symtensor import RMatrix, SymTensor, gl_action
from valuta.valuation_lab import cube_probe

F = Fraction

std_triangle = simplex([(0, 0), (1, 0), (0, 1)])


class TestMonomialIntegral:
    @pytest.mark.parametrize("alpha,expected", [
        ((1, 0), F(1, 6)),
        ((0, 0), F(1, 2)),
        ((1, 1), F(1, 24)),
    ])
    def test_standard_triangle(self, alpha, expected):
        assert monomial_integral_simplex(std_triangle, alpha) == expected

    def test_matches_dirichlet_formula_r4(self):
        import math

        std4 = simplex([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                        (0, 0, 1, 0), (0, 0, 0, 1)])
        for alpha in [(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 1)]:
            num = 1
            for a in alpha:
                num *= math.factorial(a)
            expected = F(num, math.factorial(4 + sum(alpha)))
            assert monomial_integral_simplex(std4, alpha) == expected


class TestMomentTensor:
    def test_triangle_rank1(self):
        t = moment_tensor(std_triangle, 1).tensor
        assert t == SymTensor(2, 1, {(1, 0): F(1, 6), (0, 1): F(1, 6)})

    def test_triangle_rank2(self):
        t = moment_tensor(std_triangle, 2).tensor
        assert t == SymTensor(2, 2, {(2, 0): F(1, 24), (1, 1): F(1, 24), (0, 2): F(1, 24)})

    def test_square_rank1_is_centroid_mass(self):
        t = moment_tensor(cube(2), 1).tensor
        assert t == SymTensor(2, 1, {(1, 0): F(1, 2), (0, 1): F(1, 2)})

    def test_rank0_is_volume(self):
        t = moment_tensor(crosspolytope([(1, 0), (0, 1)]), 0).tensor
        assert t == SymTensor.scalar(2, 2)

    def test_lower_dimensional_body_has_zero_moments(self):
        seg = simplex([(0, 0), (1, 0)])
        assert moment_tensor(seg, 2).tensor.is_zero()


class TestCovarianceExpansion:
    def test_triangle_shift_rank1(self):
        got = covariance_expansion(std_triangle, (1, 0), 1)
        assert got == SymTensor(2, 1, {(1, 0): F(2, 3), (0, 1): F(1, 6)})

    def test_zero_shift_is_moment(self):
        assert covariance_expansion(std_triangle, (0, 0), 3) == \
            moment_tensor(std_triangle, 3).tensor

    def test_rank0_translation_invariant(self):
        assert covariance_expansion(std_triangle, (0, 1), 0) == SymTensor.scalar(2, F(1, 2))

    def test_output_is_well_formed(self):
        body = crosspolytope([(1, 0, 0), (0, 2, 0), (0, 0, F(1, 3))])
        for r in range(4):
            t = covariance_expansion(body, (F(1, 2), 0, -3), r)
            assert t == SymTensor(t.dim, t.rank, dict(t.coeffs))
            assert all(isinstance(v, Fraction) and v != 0 for v in t.coeffs.values())

    def test_matches_translated_moment(self):
        shifted = translate(std_triangle, (1, 0))
        assert moment_tensor(shifted, 1).tensor == covariance_expansion(std_triangle, (1, 0), 1)


def _bodies_r2():
    return [
        std_triangle,
        simplex([(F(1, 2), 0), (2, F(1, 3)), (0, 1)]),
        box([0, -1], [F(1, 2), 1]),
        crosspolytope([(1, 1), (F(-1, 2), 1)]),
    ]


def _bodies_r4():
    return [
        simplex([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
        crosspolytope([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 2)]),
        box([0, 0, 0, 0], [1, 2, 1, F(1, 2)]),
    ]


@pytest.mark.parametrize("body", _bodies_r2() + _bodies_r4())
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_translation_covariance_exact(body, r):
    y = tuple([F(1, 2), F(-1, 3), F(2), F(1, 5)][: body.dim])
    assert moment_tensor(translate(body, y), r).tensor == covariance_expansion(body, y, r)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_split_simplex_additivity(r):
    mid = (F(1, 2), F(1, 2))
    s1 = simplex([(0, 0), (1, 0), mid])
    s2 = simplex([(0, 0), mid, (0, 1)])
    total = moment_tensor(s1, r).tensor + moment_tensor(s2, r).tensor
    assert total == moment_tensor(std_triangle, r).tensor


small_rats = st.builds(F, st.integers(min_value=-3, max_value=3),
                       st.integers(min_value=1, max_value=2))


@settings(max_examples=20, deadline=None)
@given(rows=st.lists(st.lists(small_rats, min_size=2, max_size=2), min_size=2, max_size=2),
       r=st.integers(min_value=0, max_value=3))
def test_gl_covariance(rows, r):
    phi = RMatrix.from_rows(rows)
    if phi.det == 0:
        return
    body = crosspolytope([(1, 0), (F(1, 2), 1)])
    lhs = moment_tensor(linear_image(phi, body), r).tensor
    rhs = gl_action(phi, moment_tensor(body, r).tensor).scale(abs(phi.det))
    assert lhs == rhs


@settings(max_examples=15, deadline=None)
@given(lam=st.builds(F, st.integers(min_value=1, max_value=5),
                     st.integers(min_value=1, max_value=3)),
       r=st.integers(min_value=0, max_value=3))
def test_mcmullen_homogeneity(lam, r):
    n = 2
    base = moment_tensor(std_triangle, r).tensor
    scaled = moment_tensor(scale(std_triangle, lam), r).tensor
    assert scaled == base.scale(lam ** (n + r))


# -- independent oracles ------------------------------------------------------------

@st.composite
def rational_boxes(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    lo = [draw(st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 7])))
          for _ in range(n)]
    widths = [draw(st.builds(F, st.integers(1, 6), st.sampled_from([1, 2, 5])))
              for _ in range(n)]
    return lo, [a + w for a, w in zip(lo, widths)]


@settings(max_examples=30, deadline=None)
@given(corners=rational_boxes(), r=st.integers(min_value=0, max_value=4))
def test_box_moment_matches_product_formula(corners, r):
    lo, hi = corners
    expected = {}
    for alpha in multi_indices(len(lo), r):
        c = F(1)
        for a, l, h in zip(alpha, lo, hi):
            c *= F(h ** (a + 1) - l ** (a + 1), math.factorial(a + 1))
        expected[alpha if r else ()] = c
    assert moment_tensor(box(lo, hi), r).tensor == SymTensor(len(lo), r, expected)


def _sympy_monomial_integral(vertices, alpha):
    """Integral of x^alpha over a simplex by sympy: pull back along the
    affine map of the standard simplex and integrate iteratively."""
    import sympy

    n = len(alpha)
    u = sympy.symbols(f"u0:{n}")
    base = sympy.Matrix([sympy.Rational(c.numerator, c.denominator) for c in vertices[0]])
    edges = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in v]
                          for v in vertices[1:]]).T - base * sympy.ones(1, n)
    x = base + edges * sympy.Matrix(u)
    integrand = sympy.Integer(1)
    for xi, a in zip(x, alpha):
        integrand *= xi ** a
    result = sympy.expand(integrand) * abs(edges.det())
    for k in range(n - 1, -1, -1):
        result = sympy.integrate(result, (u[k], 0, 1 - sum(u[:k])))
    return F(int(sympy.numer(result)), int(sympy.denom(result)))


@st.composite
def simplex_and_exponents(draw):
    n = draw(st.sampled_from([2, 3]))
    coord = st.builds(F, st.integers(-5, 5), st.sampled_from([1, 2, 3, 4]))
    verts = [[draw(coord) for _ in range(n)] for _ in range(n + 1)]
    alpha = tuple(draw(st.integers(0, 2)) for _ in range(n))
    return verts, alpha


@settings(max_examples=15, deadline=None)
@given(case=simplex_and_exponents())
def test_monomial_integral_matches_sympy(case):
    verts, alpha = case
    edges = [[a - b for a, b in zip(v, verts[0])] for v in verts[1:]]
    assume(linalg.det(edges) != 0)
    got = monomial_integral_simplex(simplex(verts), alpha)
    assert got == _sympy_monomial_integral(verts, alpha)


# -- float bodies stay in floats --------------------------------------------------------

def _assert_close_floats(float_tensor, exact_tensor):
    assert all(isinstance(v, float) for v in float_tensor.coeffs.values())
    for key in set(float_tensor.coeffs) | set(exact_tensor.coeffs):
        assert abs(float_tensor.coeff(key) - exact_tensor.coeff(key)) <= 1e-12


def test_float_triangle_gives_float_moments():
    corners = [(0.1, -0.3), (1.7, 0.2), (0.4, 1.1)]
    as_float = Polytope(2, tuple(corners), ((0, 1, 2),))
    exact = Polytope(2, tuple(tuple(F(x) for x in v) for v in corners), ((0, 1, 2),))
    vol = volume(as_float)
    assert isinstance(vol, float)
    assert abs(vol - volume(exact)) <= 1e-12
    for r in range(4):
        _assert_close_floats(moment_tensor(as_float, r).tensor, moment_tensor(exact, r).tensor)


def test_float_cube_probe_gives_float_moments():
    """A cube probe on a float sampled subspace of R^4, coned to a unit
    normal so that the body is full-dimensional: volume 1/4."""
    sub = sample_subspace(2, 3, 11)
    assert not sub.exact
    probe = cube_probe(sub)
    normal = tuple(float(x) for x in np.linalg.svd(np.array(sub.basis, dtype=float))[2][-1])
    apex = len(probe.vertices)
    cells = tuple(cell + (apex,) for cell in probe.triangulation)
    as_float = Polytope(4, probe.vertices + (normal,), cells)
    exact = Polytope(4, tuple(tuple(F(x) for x in v) for v in as_float.vertices), cells)
    vol = volume(as_float)
    assert isinstance(vol, float)
    assert vol == pytest.approx(0.25, abs=1e-12)
    assert abs(vol - volume(exact)) <= 1e-12
    assert moment_tensor(probe, 2).tensor.is_zero()
    for r in range(3):
        _assert_close_floats(moment_tensor(as_float, r).tensor, moment_tensor(exact, r).tensor)


def test_numpy_scalar_bodies():
    """numpy integer coordinates give the exact moments; float32 ones floats."""
    corners = [(0, 0), (3, 1), (1, 4)]
    exact = simplex(corners)
    as_int = Polytope(2, tuple(tuple(np.int64(x) for x in v) for v in corners), ((0, 1, 2),))
    as_f32 = Polytope(2, tuple(tuple(np.float32(x) for x in v) for v in corners), ((0, 1, 2),))
    for r in range(4):
        want = moment_tensor(exact, r).tensor
        assert moment_tensor(as_int, r).tensor == want
        assert all(type(v) is Fraction for v in moment_tensor(as_int, r).tensor.coeffs.values())
        _assert_close_floats(moment_tensor(as_f32, r).tensor, want)
    assert simplex([tuple(np.int64(x) for x in v) for v in corners]) == exact


@pytest.mark.parametrize("body", [
    std_triangle,
    crosspolytope([(1, 0, 0), (0, 2, 0), (0, 0, F(1, 3))]),
    box([F(-1, 2), 0, 1], [F(1, 3), 2, F(5, 2)]),
], ids=["triangle", "centred-cross3", "box3"])
def test_moment_tensors_are_well_formed(body):
    """moment_tensor builds its tensor without re-validation; the result must
    still equal the validated construction, with no zero coefficient (the
    centred crosspolytope's odd moments vanish)."""
    for r in range(4):
        t = moment_tensor(body, r).tensor
        assert t == SymTensor(t.dim, t.rank, dict(t.coeffs))
        assert all(isinstance(v, Fraction) and v != 0 for v in t.coeffs.values())
        assert all(len(k) == (t.dim if r else 0) for k in t.coeffs)
