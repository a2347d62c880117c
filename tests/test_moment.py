import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    float_twin, geometric_step_by_mul_form, monomial_integral_simplex, multi_indices,
)
from valuta import linalg, moment, polytope, symtensor
from valuta.cplx import sample_subspace
from valuta.errors import GeometryError
from valuta.moment import moment_family, moment_tensor
from valuta.polytope import (
    Polytope,
    box,
    crosspolytope,
    cube,
    linear_image,
    polygon,
    scale,
    simplex,
    translate,
    volume,
)
from valuta.symtensor import RMatrix, SymTensor, gl_action, shift_expansions
from valuta.valuation_lab import (
    Valuation,
    cube_probe,
    moment_valuation,
    rehomogeneity_check,
    verify_covariance,
)

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
    """The expansion sum_j M^(r-j)(K) y^j / j! of one ``moment_family`` pass."""

    def test_triangle_shift_rank1(self):
        got = shift_expansions(moment_family(std_triangle, 1), (1, 0))[0]
        assert got == SymTensor(2, 1, {(1, 0): F(2, 3), (0, 1): F(1, 6)})

    def test_zero_shift_is_moment(self):
        assert shift_expansions(moment_family(std_triangle, 3), (0, 0))[0] == \
            moment_tensor(std_triangle, 3).tensor

    def test_rank0_translation_invariant(self):
        assert shift_expansions(moment_family(std_triangle, 0), (0, 1))[0] == \
            SymTensor.scalar(2, F(1, 2))

    def test_output_is_well_formed(self):
        body = crosspolytope([(1, 0, 0), (0, 2, 0), (0, 0, F(1, 3))])
        for r in range(4):
            t = shift_expansions(moment_family(body, r), (F(1, 2), 0, -3))[0]
            assert t == SymTensor(t.dim, t.rank, dict(t.coeffs))
            assert all(isinstance(v, Fraction) and v != 0 for v in t.coeffs.values())

    def test_matches_translated_moment(self):
        shifted = translate(std_triangle, (1, 0))
        assert moment_tensor(shifted, 1).tensor == \
            shift_expansions(moment_family(std_triangle, 1), (1, 0))[0]


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
    assert moment_tensor(translate(body, y), r).tensor == \
        shift_expansions(moment_family(body, r), y)[0]


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


# -- probes and numpy scalars -------------------------------------------------------------

def test_coned_cube_probe_is_the_image_of_the_model_cone():
    """A cube probe on a sampled subspace of R^4, coned to its unit normal
    u so that the body is full-dimensional, is the image of the unit 3-cube
    coned to e_4 under the orthogonal map with columns b_1, b_2, b_3, u:
    volume 1/4, and each moment the action of that map on the model's.
    u is rational, since |w| = |det (b_1, b_2, b_3, w)| for w normal to them."""
    sub = sample_subspace(2, 3, 11)
    probe = cube_probe(sub)
    (w,) = linalg.nullspace(sub.basis)
    norm = linalg.exact_sqrt(sum(x * x for x in w))
    normal = tuple(x / norm for x in w)
    cells = tuple(cell + (len(probe.vertices),) for cell in probe.triangulation)
    body = Polytope(4, probe.vertices + (normal,), cells)
    model = Polytope(4, tuple(v + (0,) for v in cube(3).vertices) + ((0, 0, 0, 1),), cells)
    phi = RMatrix.from_rows(linalg.transpose([*sub.basis, normal]))
    assert volume(body) == volume(model) == F(1, 4)
    assert moment_tensor(probe, 2).tensor.is_zero()
    for r in range(4):
        assert moment_tensor(body, r).tensor == gl_action(phi, moment_tensor(model, r).tensor)


def test_numpy_scalar_bodies():
    """numpy integer coordinates give the exact moments; float32 ones are refused."""
    corners = [(0, 0), (3, 1), (1, 4)]
    exact = simplex(corners)
    as_int = Polytope(2, tuple(tuple(np.int64(x) for x in v) for v in corners), ((0, 1, 2),))
    for r in range(4):
        assert moment_tensor(as_int, r).tensor == moment_tensor(exact, r).tensor
        assert all(type(v) is Fraction for v in moment_tensor(as_int, r).tensor.coeffs.values())
    assert simplex([tuple(np.int64(x) for x in v) for v in corners]) == exact
    with pytest.raises(TypeError):
        Polytope(2, tuple(tuple(np.float32(x) for x in v) for v in corners), ((0, 1, 2),))


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


# -- one kernel pass per body in a covariance cascade -------------------------------------


def _fresh(body):
    return Polytope(body.dim, body.vertices, body.triangulation)


def _random_bodies(seed, dims=(2, 3, 4)):
    """Random simplices, Kuhn boxes and off-centre crosspolytopes in R^n for
    n in dims, and a polygon."""
    rng = random.Random(seed)

    def rat():
        return F(rng.randint(-9, 9), rng.randint(1, 7))

    out = []
    for n in dims:
        out.append(simplex([[rat() for _ in range(n)] for _ in range(n + 1)]))
        lo = [rat() for _ in range(n)]
        out.append(box(lo, [a + F(rng.randint(1, 9), rng.randint(1, 5)) for a in lo]))
        frame = [[F(int(i == k)) + (rat() if k == i + 1 else 0) for k in range(n)]
                 for i in range(n)]
        out.append(translate(crosspolytope(frame), [rat() for _ in range(n)]))
    out.append(polygon([[rat(), rat()] for _ in range(8)]))
    return [b for b in out if volume(b) != 0]


@pytest.mark.parametrize("seed", range(3))
def test_moment_family_matches_separate_ranks(seed):
    """The family pass against one fresh single-degree pass per rank, outside
    any scope; Fraction coefficients stay Fractions."""
    for body in _random_bodies(seed):
        r = 4 if body.dim < 4 else 2 + seed % 3
        family = moment_family(body, r)
        assert family == [moment_tensor(_fresh(body), s).tensor for s in range(r, -1, -1)]
        assert [t.rank for t in family] == list(range(r, -1, -1))
        assert all(type(v) is Fraction for t in family for v in t.coeffs.values())


def _count_passes(monkeypatch):
    """Kernel passes so far, on any body: the calls of ``_moment_totals``."""
    calls = []
    real = moment._moment_totals
    monkeypatch.setattr(moment, "_moment_totals", lambda *a: calls.append(1) or real(*a))
    return lambda: len(calls)


CROSS2 = translate(crosspolytope([(1, F(1, 3)), (F(-1, 2), 1)]), (F(2, 3), F(-1, 4)))


def test_repeated_calls_outside_a_check_run_one_pass_each(monkeypatch):
    passes = _count_passes(monkeypatch)
    first = moment_tensor(CROSS2, 2)
    assert passes() == 1
    assert moment_tensor(CROSS2, 2) == first
    assert passes() == 2


def _cascade(n, r):
    return [moment_valuation(n, s) for s in range(r, -1, -1)]


def test_no_scope_outlives_a_check(monkeypatch):
    passes = _count_passes(monkeypatch)
    assert verify_covariance(_cascade(2, 2), CROSS2, [(1, F(1, 2))]).passed
    assert passes() == 2
    moment_tensor(CROSS2, 1)
    moment_tensor(CROSS2, 0)
    assert passes() == 4

    def fails_on_translates(body):
        if body is not CROSS2:
            raise GeometryError("planted failure")
        return moment_tensor(body, 0).tensor

    zs = _cascade(2, 1)[:1] + [Valuation("fails", 0, 2, fails_on_translates)]
    with pytest.raises(GeometryError, match="planted failure"):
        verify_covariance(zs, CROSS2, [(1, 0)])
    assert passes() == 6
    moment_tensor(CROSS2, 1)
    moment_tensor(CROSS2, 1)
    assert passes() == 8


def test_nested_checks_keep_their_own_passes(monkeypatch):
    """A valuation that runs a check of its own: the inner check neither
    reads the outer memo nor leaves its own behind."""
    other = simplex([(0, 0), (F(3, 2), F(1, 3)), (F(-1, 2), 2)])
    passes = _count_passes(monkeypatch)
    seen = []

    def reads_other(body):
        return moment_tensor(other, 0).tensor if body is CROSS2 else moment_tensor(body, 0).tensor

    inner = _cascade(2, 1)[:1] + [Valuation("other-volume", 0, 2, reads_other)]

    def nested(body):
        if body is CROSS2:
            before = passes()
            # The outer memo holds CROSS2 up to rank 1 already: a leak would
            # serve the inner check's body from it.
            verify_covariance(inner, CROSS2, [(1, 0)])
            seen.append(passes() - before)
            before = passes()
            moment_tensor(other, 0)
            seen.append(passes() - before)
        return moment_tensor(body, 0).tensor

    zs = _cascade(2, 1)[:1] + [Valuation("nested", 0, 2, nested)]
    report = verify_covariance(zs, CROSS2, [(F(1, 2), F(-1, 3))])
    # Inner: CROSS2 and its translate, plus ``other``.
    assert seen[0] == 3
    # ``other`` is in no outer memo: the inner one ended with the inner check.
    assert seen[1] == 1
    assert report.passed and report.max_residual == 0


# -- the cells' walk and plan are free of their order ------------------------------------


def _kernel_bodies(seed):
    """The random bodies in R^2..R^5, each with the highest rank tried in its
    dimension."""
    return [(b, {2: 4, 3: 4, 4: 3, 5: 2}[b.dim]) for b in _random_bodies(seed, (2, 3, 4, 5))]


def _with_cells(body, cells):
    return Polytope(body.dim, body.vertices, tuple(cells))


@pytest.mark.parametrize("seed", range(2))
def test_moment_family_is_free_of_cell_and_vertex_order(seed):
    """Shuffled cells, and each cell's vertices rotated by a random step,
    which changes every shared prefix: the same Fractions."""
    rng = random.Random(100 + seed)
    for body, r in _kernel_bodies(seed):
        cells = list(body.triangulation)
        rng.shuffle(cells)
        rotated = [c[k:] + c[:k] for c in cells for k in [rng.randrange(len(c))]]
        want = moment_family(body, r)
        assert moment_family(_with_cells(body, cells), r) == want
        assert moment_family(_with_cells(body, rotated), r) == want


@pytest.mark.parametrize("seed", range(2))
def test_body_moments_are_the_sum_over_its_cells(seed):
    """Each cell as its own simplex, one kernel pass each with nothing shared."""
    for body, r in _kernel_bodies(seed):
        cells = [simplex([body.vertices[i] for i in c]) for c in body.triangulation]
        for s in range(r + 1):
            total = SymTensor.zero(body.dim, s)
            for cell in cells:
                total = total + moment_tensor(cell, s).tensor
            assert moment_tensor(body, s).tensor == total


@st.composite
def sibling_cells(draw):
    """Two cells sharing their first n vertices in R^n, n = 2..6; in half the
    draws the second one is flat, its last vertex an affine combination of
    the shared ones."""
    n = draw(st.integers(2, 6))
    coord = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))
    shared = [[draw(coord) for _ in range(n)] for _ in range(n)]
    last = [draw(coord) for _ in range(n)]
    if draw(st.booleans()):
        weights = [draw(coord) for _ in range(n - 1)]
        other = [x + sum(w * (v[t] - x) for w, v in zip(weights, shared[1:]))
                 for t, x in enumerate(shared[0])]
    else:
        other = [draw(coord) for _ in range(n)]
    return n, shared, last, other


@settings(max_examples=40, deadline=None)
@given(case=sibling_cells())
def test_shared_prefix_determinant_matches_det(case):
    """Cells sharing n vertices take |det E| off the exterior product of the
    shared edges, with no Bareiss: the volume is sum |linalg.det| / n!, a
    flat cell adds nothing, and the rank-1 moment is the sum over the cells
    taken as simplices on their own."""
    n, shared, last, other = case
    body = Polytope(n, tuple(map(tuple, shared + [last, other])),
                    (tuple(range(n + 1)), tuple(range(n)) + (n + 1,)))
    dets = [linalg.det([[a - b for a, b in zip(v, shared[0])] for v in shared[1:] + [tip]])
            for tip in (last, other)]
    with pytest.MonkeyPatch.context() as mp:
        bareiss = []
        real = linalg.bareiss
        mp.setattr(linalg, "bareiss", lambda m: bareiss.append(1) or real(m))
        first, volume_tensor = moment_family(body, 1)
    assert bareiss == []
    assert volume_tensor.coeff(()) == sum(map(abs, dets)) / math.factorial(n)
    want = SymTensor.zero(n, 1)
    for tip, d in zip((last, other), dets):
        if d:
            want = want + moment_tensor(simplex(shared + [tip]), 1).tensor
    assert first == want


def _imported_cube():
    """A 3-box imported from JSON with its five-tetrahedron triangulation."""
    corners = [[F(-1, 2), 0, F(1, 3)], [F(3, 2), F(5, 4), 2]]
    verts = [[format(corners[m >> t & 1][t]) for t in range(3)] for m in range(8)]
    cells = [[0, 3, 5, 6], [1, 0, 3, 5], [2, 0, 3, 6], [4, 0, 5, 6], [7, 3, 5, 6]]
    return Polytope.from_json_dict({"dim": 3, "vertices": verts, "triangulation": cells})


@pytest.mark.parametrize("make,r", [
    (lambda: box([F(-1, 2), F(1, 3), 0, F(-7, 5)], [F(5, 3), 2, F(3, 7), 1]), 3),
    (lambda: translate(crosspolytope([(1, F(1, 3), 0, 0), (0, 1, F(-2, 5), 0), (0, 0, 1, F(3, 2)),
                                      (0, 0, 0, F(5, 7))]), (F(1, 3), F(-1, 2), 0, F(2, 9))), 3),
    (lambda: polygon([(0, 0), (F(9, 2), F(1, 3)), (5, 3), (F(3, 2), F(11, 2)), (-1, 2)]), 4),
    (_imported_cube, 4),
], ids=["box4", "off-centre-cross4", "polygon5", "imported-cube3"])
def test_shuffled_cells_and_vertices_give_identical_moments(make, r):
    """Each shuffle of the cells and of the vertices in every cell mixes
    prefixes shared with a neighbour and lone ones: the same Fractions."""
    body = make()
    want = moment_family(body, r)
    rng = random.Random(11)
    for _ in range(6):
        cells = [tuple(rng.sample(c, len(c))) for c in body.triangulation]
        rng.shuffle(cells)
        assert moment_family(_with_cells(body, cells), r) == want


def test_degenerate_and_short_cells_leave_the_walk_intact():
    """Flat cells among those of a Kuhn 3-box, which all start (0, 7): in
    sorted order (0, 7, 1, 6) follows (0, 7, 1, 5) and shares its first
    three vertices, so its determinant, 0, comes off their exterior product;
    (0, 7, 2, 5) shares (0, 7, 2) with both neighbours and (0, 7, 4, 3)
    shares (0, 7, 4) with the next cell only.  The cells (0, 1, 4, 5) and
    (0, 1, 5, 4) on the face y = lo sort before them; short cells sit among
    them."""
    body = box([F(-1, 2), 0, F(1, 3)], [1, F(5, 4), 2])
    assert body.triangulation[:2] == ((0, 7, 1, 3), (0, 7, 1, 5))
    extra = [(0, 7, 1, 6), (0, 7, 2, 5), (0, 7, 4, 3), (0, 1, 4, 5), (0, 1, 5, 4), (0, 1, 3),
             (0, 1, 5), (0,), (1, 5, 4, 0)]
    spliced = _with_cells(body, list(body.triangulation) + extra)
    assert moment_family(spliced, 4) == moment_family(body, 4)
    # The same splice as the last cells walked, one of them twice.
    tail = _with_cells(body, list(body.triangulation) + [(7, 6, 5, 4), (7, 6, 5, 4), (7, 6)])
    assert moment_family(tail, 3) == moment_family(body, 3)


WALKED_BODIES = pytest.mark.parametrize("make", [
    lambda: box([F(-1, 2), F(1, 3), 0, F(-7, 5)], [F(5, 3), 2, F(3, 7), 1]),
    lambda: translate(crosspolytope([(1, F(1, 3), 0, 0), (0, 1, F(-2, 5), 0), (0, 0, 1, F(3, 2)),
                                     (0, 0, 0, F(5, 7))]), (F(1, 3), F(-1, 2), 0, F(2, 9))),
    lambda: box([F(-3, 7), F(1, 9), 0, F(-7, 5), F(2, 3)], [F(5, 3), 2, F(3, 7), 1, F(13, 4)]),
    lambda: translate(crosspolytope(
        [[F(int(i == k)) + (F(i + 2, 7 * k + 3) if k == (i + 1) % 6 else 0) for k in range(6)]
         for i in range(6)]), [F(k - 2, 9) for k in range(6)]),
], ids=["box4", "off-centre-cross4", "box5", "off-centre-cross6"])


@WALKED_BODIES
def test_walked_moments_are_the_cells_as_simplices(make):
    """Determinants off the exterior products and the cells' shared walk
    give the sum over the cells, each a simplex of its own (``_cell_sum``)."""
    body = make()
    assert moment_family(body, 3) == [_cell_sum(body, s) for s in range(3, -1, -1)]


@WALKED_BODIES
def test_float_body_walks_like_its_exact_twin(make):
    """The body read from a JSON document of its coordinates as floats
    walks its cells with the same orientations, and each coefficient of its
    moments lies within 1e-12 of the exact one relative to the tensor's
    largest and to max(1, |coefficient|)."""
    body = make()
    twin = float_twin(body)

    def signs(b):
        return [(d > 0) - (d < 0) for _, d, _ in b.walk]

    assert signs(twin) == signs(body)
    for got, want in zip(moment_family(twin, 3), moment_family(body, 3)):
        size = max(map(abs, want.coeffs.values()))
        for key in set(got.coeffs) | set(want.coeffs):
            error = abs(got.coeff(key) - want.coeff(key)) * 10 ** 12
            assert error <= size and error <= max(1, abs(want.coeff(key)))


# -- the plan merges equal suffixes, and every image shares its source's -------------------


def _cell_sum(body, s):
    """M^s as the sum over the body's cells, each its own simplex; a flat
    cell adds nothing and a repeated one adds again."""
    total = SymTensor.zero(body.dim, s)
    for c in body.triangulation:
        pts = [body.vertices[i] for i in c]
        if linalg.det([[a - b for a, b in zip(v, pts[0])] for v in pts[1:]]):
            total = total + moment_tensor(simplex(pts), s).tensor
    return total


def _parallelogram_fan():
    """Four triangles of equal area coned from a parallelogram's centre,
    vertex 4: every cell ends in 4 with the same |det E| after a different
    prefix, so the plan shares their leaf and the step by 4 into it."""
    p, a, b = (F(1, 3), F(-1, 2)), (F(5, 2), F(1, 3)), (F(-2, 3), F(7, 4))
    corners = [p, tuple(map(operator.add, p, a)), tuple(x + y + z for x, y, z in zip(p, a, b)),
               tuple(map(operator.add, p, b))]
    centre = tuple(x + (y + z) / 2 for x, y, z in zip(p, a, b))
    return Polytope(2, tuple(corners) + (centre,), ((0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)))


def _unequal_siblings():
    """(0, 1, 2) and (0, 1, 3) share (0, 1) with |det E| 11 and 17, so that
    node sums children of different weights; (4, 5, 2) is (0, 1, 2) with
    its base slid along its own line, ending in 2 with |det E| 11 too."""
    verts = ((0, 0), (3, 1), (1, 4), (2, -5), (F(3, 2), F(1, 2)), (F(9, 2), F(3, 2)))
    return Polytope(2, tuple(tuple(map(F, v)) for v in verts), ((0, 1, 2), (0, 1, 3), (4, 5, 2)))


def _box_with_repeat_and_flat():
    """A Kuhn 3-box with (0, 7, 2, 6) listed twice and the flat (0, 7, 1, 6)
    between (0, 7, 1, 5) and (0, 7, 2, 3) in sorted order."""
    body = box([F(-1, 2), 0, F(1, 3)], [1, F(5, 4), 2])
    assert (0, 7, 2, 6) in body.triangulation
    return _with_cells(body, body.triangulation + ((0, 7, 2, 6), (0, 7, 1, 6)))


def _steps(body):
    """The geometric steps of the body's plan: its ops (vertex, child)."""
    return sum(type(child) is int for _, child in body.plan)


def _trie_steps(body):
    """The geometric steps on the cells' prefix tree: one per distinct
    vertex prefix of a cell with det E != 0."""
    return len({cell[:i] for cell, d, _ in body.walk if d for i in range(1, len(cell) + 1)})


@pytest.mark.parametrize("make,r", [
    (_parallelogram_fan, 4),
    (_unequal_siblings, 4),
    (_imported_cube, 3),
    (_box_with_repeat_and_flat, 4),
], ids=["leaf-merge-only", "unequal-siblings", "imported-cube3", "box3-repeat-and-flat"])
def test_dag_sums_like_the_cells(make, r):
    """Bodies with two cells that end in the same vertex with the same
    |det E| share that suffix in the plan, which takes fewer steps than the
    prefix tree, and give the exact sum over their cells."""
    body = make()
    family = moment_family(body, r)
    assert _steps(body) < _trie_steps(body)
    assert family == [_cell_sum(body, s) for s in range(r, -1, -1)]
    assert family[-1].coeff(()) == volume(body)


@pytest.mark.parametrize("make,r,lo,merged", [
    (lambda: box([F(-1, 2), F(1, 3), 0, F(-7, 5)], [F(5, 3), 2, F(3, 7), 1]), 3, 1, True),
    (lambda: translate(crosspolytope([(1, F(1, 3), 0, 0), (0, 1, F(-2, 5), 0), (0, 0, 1, F(3, 2)),
                                      (0, 0, 0, F(5, 7))]), (F(1, 3), F(-1, 2), 0, F(2, 9))), 4, 2,
     True),
    (lambda: box([F(-1, 2), 0, F(1, 3)], [1, F(5, 4), 2]), 4, 4, True),
    (lambda: box([F(-1, 2), 0, F(1, 3)], [1, F(5, 4), 2]), 1, 0, True),
    (lambda: polygon([(0, 0), (F(9, 2), F(1, 3)), (5, 3), (F(3, 2), F(11, 2)), (-1, 2)]), 4, 2,
     False),
], ids=["box4-3..1", "off-centre-cross4-4..2", "box3-4..4", "box3-1..0", "polygon5-4..2"])
def test_families_from_lo_sum_like_the_cells(make, r, lo, merged):
    """``moment_family(body, r, lo)`` on the body's one plan: M^r..M^lo as
    the sums over the cells.  The plan does not depend on r: a Kuhn box
    merges its suffixes at r = 1 too, and a fan, whose cells share no
    suffix, takes the prefix tree's steps."""
    body = make()
    family = moment_family(body, r, lo)
    assert (_steps(body) < _trie_steps(body)) == merged
    assert family == [_cell_sum(body, s) for s in range(r, lo - 1, -1)]


@pytest.mark.parametrize("zero", [0], ids=["exact"])
def test_a_body_of_flat_cells_alone_has_zero_moments(zero):
    """A Kuhn box scaled by 0 keeps its six cells, all with det E = 0.  It is
    handed its source's plan, which its pass does not run, since g, the gcd
    of its determinants, is 0; its own walk plans nothing.  Every moment is
    zero."""
    source = box([F(-1, 2), 0, F(1, 3)], [1, F(5, 4), 2])
    body = scale(source, zero)
    family = moment_family(body, 3)
    assert body.plan is source.plan and polytope._moment_plan(body.walk) == ()
    assert family == [SymTensor.zero(3, s) for s in range(3, -1, -1)]
    assert moment_tensor(scale(cube(3), zero), 2).tensor == SymTensor.zero(3, 2)
    with pytest.raises(ValueError, match="lambda > 0"):
        rehomogeneity_check(moment_valuation(3, 2), cube(3), zero)


def test_a_singular_image_inherits_flat_cells():
    """A Kuhn box under a singular map inherits its walk with every
    |det E| = 0 and its source's plan, and sums to zero, as on the image's
    points rebuilt as a body, whose own walk plans nothing."""
    body = box([F(-1, 2), 0, F(1, 3)], [1, F(5, 4), 2])
    body.walk
    image = linear_image(RMatrix.from_rows([[1, 2, 0], [0, F(1, 3), 1], [1, F(7, 3), 1]]), body)
    family = moment_family(image, 3)
    assert image.plan is body.plan and polytope._moment_plan(image.walk) == ()
    assert len(image.walk) == 6
    assert image.walk == _fresh(image).walk and all(d == 0 for _, d, _ in image.walk)
    assert family == [SymTensor.zero(3, s) for s in range(3, -1, -1)]


PLANNED_BODIES = [_parallelogram_fan, _unequal_siblings, _imported_cube, _box_with_repeat_and_flat,
                  lambda: _cross(3),
                  lambda: polygon([(0, 0), (F(9, 2), F(1, 3)), (5, 3), (F(3, 2), F(11, 2)), (-1, 2)])]


@settings(max_examples=60, deadline=None)
@given(make=st.sampled_from(PLANNED_BODIES), kind=st.sampled_from(["linear", "scale", "translate"]),
       rows=st.lists(st.lists(small_rats, min_size=3, max_size=3), min_size=3, max_size=3),
       lam=small_rats, y=st.lists(small_rats, min_size=3, max_size=3))
@example(make=_imported_cube, kind="linear", rows=[[0, 1, 0], [1, 0, 0], [0, F(1, 2), 3]],
         lam=F(1), y=[0, 0, 0])
@example(make=_unequal_siblings, kind="scale", rows=[], lam=F(-3, 2), y=[])
@example(make=_box_with_repeat_and_flat, kind="scale", rows=[], lam=F(0), y=[])
def test_an_image_is_handed_the_plan_its_own_walk_would_build(make, kind, rows, lam, y):
    """``linear_image`` (det phi < 0 and singular phi too), ``scale`` (lam <= 0
    too) and ``translate`` hand the image its source's plan object.  An
    affine map keeps the cells and the ratios of their determinants, so the
    plan built from the image's own walk equals it, unless every cell of the
    image is flat (g = 0), when it is empty; the image's moments are those
    of its points rebuilt as a body."""
    body = make()
    n = body.dim
    if kind == "linear":
        image = linear_image(RMatrix.from_rows([row[:n] for row in rows[:n]]), body)
    elif kind == "scale":
        image = scale(body, lam)
    else:
        image = translate(body, y[:n])
    assert image.plan is body.plan
    own = polytope._moment_plan(image.walk)
    assert own == (body.plan if any(d for _, d, _ in image.walk) else ())
    assert moment_family(image, 2) == moment_family(_fresh(image), 2)


@pytest.mark.parametrize("make", PLANNED_BODIES + [lambda: cube(4), lambda: std_triangle],
                         ids=["fan", "siblings", "imported-cube3", "box3-repeat-and-flat", "cross3",
                              "polygon5", "cube4", "triangle"])
def test_the_plan_runs_each_op_once_after_what_it_reads(make):
    """The plan lists each distinct op once, reads only ops before it and
    every op but the root, which is last, at least once.  A leaf (w, ())
    has w > 0 and a sum (0, children) two or more children, so the steps are
    the (vertex, child) ops alone.  The leaves' weights over their gcd sum
    the cells' |det E| over g, counted once per path from the root."""
    body = make()
    plan = body.plan
    assert len(set(plan)) == len(plan)
    read = set()
    for at, (a, b) in enumerate(plan):
        children = (b,) if type(b) is int else b
        assert all(0 <= c < at for c in children)
        read.update(children)
        if type(b) is not int:
            assert (a > 0 and b == ()) or (a == 0 and len(b) >= 2)
    assert read == set(range(len(plan) - 1))
    paths = [0] * len(plan)
    paths[-1] = 1
    for at in range(len(plan) - 1, -1, -1):
        b = plan[at][1]
        for c in (b,) if type(b) is int else b:
            paths[c] += paths[at]
    g = math.gcd(*(d for _, d, _ in body.walk))
    assert sum(paths[at] * a for at, (a, b) in enumerate(plan) if b == ()) * g == \
        sum(d for _, d, _ in body.walk)


def test_a_body_and_its_images_build_one_plan(monkeypatch):
    """One plan serves a body at every rank and is handed to its images: M^0..M^4
    of a Kuhn 3-box and of its linear image, dilate and translate build it
    once."""
    builds = []
    real = polytope._moment_plan
    monkeypatch.setattr(polytope, "_moment_plan", lambda walk: builds.append(1) or real(walk))
    body = box([F(-1, 2), 0, F(1, 3)], [1, F(5, 4), 2])
    phi = RMatrix.from_rows([[1, F(1, 2), 0], [0, -1, 0], [F(2, 3), 0, 1]])
    bodies = [body, linear_image(phi, body), scale(body, F(-2, 3)),
              translate(body, (F(1, 5), -1, F(2, 7)))]
    got = [moment_tensor(k, s).tensor for k in bodies for s in range(5)]
    assert builds == [1]
    assert got == [moment_tensor(_fresh(k), s).tensor for k in bodies for s in range(5)]


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_a_lone_simplex_takes_one_bareiss(monkeypatch, r):
    """A lone simplex, its exact dilate, translate and linear image, and a
    chain of the three cost one Bareiss determinant in all, the body's
    cell's |det E|, taken when the first image is made: each image is made
    with its walk, the body's times the maps' determinants (phi's is kept
    on the matrix), each equal to ``cell_dets`` on the image's own view, so
    ``moment_tensor`` of the body and of its images takes none."""
    body = simplex([[F(1, 3), 0, F(-2, 7), 1], [F(5, 2), F(1, 12), 0, 0], [0, 1, F(7, 97), 2],
                    [F(-1, 30), 0, 1, F(1, 2)], [1, 1, 1, F(3, 4)]])
    phi = RMatrix.from_rows([[1, 0, F(-3, 2), 0], [0, 1, 0, 0], [0, F(2, 7), 1, 0],
                             [0, 0, 0, -1]])
    psi = RMatrix.diag([F(5, 3), 1, F(-2, 7), 3])
    body.cleared, phi.det, psi.det
    dets = []
    real = linalg.bareiss
    monkeypatch.setattr(linalg, "bareiss", lambda m: dets.append(len(m)) or real(m))
    images = [scale(body, F(-3, 2)), translate(body, (F(1, 5), 0, -1, F(2, 3))),
              linear_image(phi, body),
              translate(scale(linear_image(psi, body), F(-2, 7)), (F(1, 7), 0, 1, F(-1, 4)))]
    assert dets == [4]
    for k in (body, *images):
        dets.clear()
        got = moment_tensor(k, r).tensor
        assert dets == []
        assert got == moment_tensor(_fresh(k), r).tensor
        own = polytope.cell_dets(k.cleared, k.triangulation, k.dim)
        assert k.walk == tuple(own)


def test_a_chain_of_translates_reads_its_walk_without_recursion():
    """Each image is made with its walk, a tuple read off its source's, so
    the last of 2000 translates reads its walk without recursion, and it is
    the walk of its own points."""
    body = simplex([(0, 0), (F(1, 2), 0), (0, F(1, 3))])
    image = body
    for k in range(2000):
        image = translate(image, (F(1, k + 2), -1))
    assert image.walk == _fresh(image).walk
    assert volume(image) == F(1, 12)


@pytest.mark.parametrize("lo", [-1, 3, 5])
def test_moment_family_refuses_a_lowest_rank_outside_0_to_r(monkeypatch, lo):
    """``moment_family(k, r, lo)`` returns M^r..M^lo, so lo must lie in
    0..r: a negative lo would add tensors of negative rank, a lo above r an
    empty family or an index past the pass.  It is refused with
    ``ValueError`` before any kernel pass runs."""
    passes = []
    monkeypatch.setattr(moment, "_moment_totals", lambda *a: passes.append(a))
    with pytest.raises(ValueError, match="lowest rank"):
        moment_family(std_triangle, 2, lo)
    assert passes == []


def _cross(j):
    return crosspolytope([[F(int(i == k)) for k in range(j)] for i in range(j)])


def _random_int(rng):
    return rng.choice([0, 0, rng.randint(-9, 9), rng.randint(-2 ** 70, 2 ** 70)])


@pytest.mark.parametrize("n,r", [(1, 0), (1, 3), (2, 4), (4, 3), (6, 2), (6, 3)])
def test_the_generated_step_is_the_mul_form_recurrence(n, r):
    """The generated geometric step equals the per-degree ``mul_form``
    recurrence on random ints (zeros, negatives, beyond 64 bits) with a
    nonzero h_0, as the plan's node weights are; from the unit state it
    lays out <x, e>^d in ``monomial_tables`` order, multinomial(d; alpha)
    x^alpha at the position of alpha in degree d."""
    rng = random.Random(n * 10 + r)
    step = symtensor._geometric_step(n, r)
    levels = symtensor.monomial_tables(n, r)[0]
    size = sum(map(len, levels))
    for _ in range(30):
        h = tuple(_random_int(rng) for _ in range(size))
        x = tuple(_random_int(rng) for _ in range(n))
        assert step(h, x) == geometric_step_by_mul_form(n, r, h, x)
    x = tuple(rng.randint(-5, 5) for _ in range(n))
    state, start = step((1,) + (0,) * (size - 1), x), 0
    for d, level in enumerate(levels):
        for alpha, k in level.items():
            multinomial = math.factorial(d) // math.prod(map(math.factorial, alpha))
            assert state[start + k] == multinomial * math.prod(map(operator.pow, x, alpha))
        start += len(level)
    assert len(state) == start


@pytest.mark.parametrize("n,r,error", [(2.0, 2, TypeError), (2, 2.0, TypeError),
                                       ("2", 2, TypeError), (-1, 2, ValueError),
                                       (0, 2, ValueError), (2, -1, ValueError)])
def test_the_step_generator_takes_only_ints(monkeypatch, n, r, error):
    """n and r enter the generated source only as ints: a float or string
    is refused by ``operator.index`` and n < 1 or r < 0 by range, before
    any source is formatted, and though 2.0 == 2, a float is refused even
    once the (2, 2) step is kept."""
    symtensor._geometric_step(2, 2)
    monkeypatch.setattr(symtensor, "_step_source", lambda *a: pytest.fail("formatted"))
    with pytest.raises(error):
        symtensor._geometric_step(n, r)


@pytest.mark.parametrize("make,r,steps,wedges,dets", [
    (lambda: cube(4), 3, 16, 17, 0),
    (lambda: cube(4), 2, 16, 17, 0),
    (lambda: box([0] * 5, [1, 2, 3, 4, 5]), 3, 32, 86, 0),
    (lambda: _cross(6), 2, 12, 31, 0),
    (lambda: _cross(3), 4, 6, 3, 0),
    (lambda: simplex([(0, 0), (1, 0), (0, 1)]), 4, 3, 0, 1),
    (lambda: simplex([[0] * 5] + [[int(i == k) for k in range(5)] for i in range(5)]), 3, 6,
     0, 1),
    (lambda: polygon([(0, 0), (4, 0), (5, 1), (5, 3), (3, 5), (0, 4), (-1, 2)]), 2, 11, 0, 5),
    (_parallelogram_fan, 4, 9, 0, 4),
    (lambda: _fresh(_imported_cube()), 3, 17, 0, 5),
    (lambda: cube(4), 1, 16, 17, 0),
], ids=["cube4-r3", "cube4-r2", "box5-r3", "cross6-r2", "cross3-r4", "triangle-r4", "simplex5-r3",
        "polygon7-r2", "parallelogram-fan-r4", "imported-cube3-r3", "cube4-r1"])
def test_one_recurrence_step_per_prefix_and_degree(monkeypatch, make, r, steps, wedges, dets):
    """The generated geometric step, which runs the h-recurrence for all r
    degrees at once, is called once per distinct step (vertex, child) of the
    body's plan, the cells' minimal DAG, at every r: 2^n for a Kuhn n-box
    (lo, hi and one per inner vertex), 2j for a crosspolytope on j vectors
    (+-v_1, then both signs of each later vector), n + 1 for a simplex and
    1 + 2m for a fan of m triangles, whose cells share no suffix.  Chains
    into one node share their last step: 9 for the four triangles coned
    from a parallelogram's centre and 17 for the imported five-tetrahedron
    3-cube, against 12 and 20 on the prefix tree.  The
    exterior products run once per prefix of 2..n vertices
    on a Kuhn box (1 + sum_k n!/(n - k)!, k = 1..n-2) and a crosspolytope
    (2^(j-1) - 1), whose cells all share their first n vertices with a
    neighbour, so neither calls Bareiss, and each cell reads its
    determinant off one exterior step from level n - 1; a lone simplex and
    a fan, whose cells share no n vertices, call Bareiss once per cell and
    take no exterior step.  ``volume`` takes its determinants from the same
    walk, with the same exterior steps and Bareiss calls and no geometric
    step."""
    body = make()
    calls, exterior, leaves, bareiss = [], [], [], []
    real_step, real_wedge, real_det = (moment._geometric_step, polytope._exterior_step,
                                       linalg.bareiss)

    def counted_step(n, rank):
        step = real_step(n, rank)
        return lambda h, x: calls.append(1) or step(h, x)

    def counted_wedge(n, k):
        step, seen = real_wedge(n, k), leaves if k == n - 1 else exterior
        return lambda *a: seen.append(1) or step(*a)

    monkeypatch.setattr(moment, "_geometric_step", counted_step)
    monkeypatch.setattr(polytope, "_exterior_step", counted_wedge)
    monkeypatch.setattr(linalg, "bareiss", lambda m: bareiss.append(1) or real_det(m))
    cells = 0 if dets else len(body.triangulation)
    moment_family(body, r)
    assert (len(calls), len(exterior), len(leaves), len(bareiss)) == (steps, wedges, cells, dets)
    calls.clear()
    moment_tensor(_fresh(body), r)
    assert len(calls) == steps
    calls.clear(), exterior.clear(), leaves.clear(), bareiss.clear()
    volume(_fresh(body))
    assert (len(calls), len(exterior), len(leaves), len(bareiss)) == (0, wedges, cells, dets)
