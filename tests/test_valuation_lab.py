import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cube_probe_by_points, float_twin, multi_indices, rehomogeneity_by_nested_dilates,
    mat_vec_fractions, simplex_probe_by_points, subspace_volume_generators, support,
    transfer_check_fractions,
)
from valuta import linalg, moment, polytope, symtensor, valuation_lab
from valuta.cplx import CMatrix, Subspace, realify, sample_subspace, sl_mc_element
from valuta.errors import DimensionMismatch, GeometryError, ValutaError
from valuta.moment import moment_tensor
from valuta.polytope import (
    Polytope,
    box,
    crosspolytope,
    cube,
    linear_image,
    scale,
    simplex,
    subspace_volume,
    surface_area_measure,
    translate,
    volume,
)
from valuta.symtensor import (
    RMatrix,
    SymTensor,
    sym_product,
    tensor_sum,
    vector_power,
    view_distance,
)
from valuta.valuation_lab import (
    Valuation,
    _verdict,
    cube_probe,
    euler_valuation,
    interpolation_weights,
    klain,
    mcmullen_decompose,
    moment_valuation,
    rehomogeneity_check,
    scaling_relation_check,
    simplex_probe,
    span_lebesgue_valuation,
    surface_pairing,
    transfer_check,
    verify_covariance,
    verify_equivariance,
    volume_valuation,
)

F = Fraction

coeff_values = st.builds(F, st.integers(min_value=-3, max_value=3),
                         st.integers(min_value=1, max_value=3))

std_triangle = simplex([(0, 0), (1, 0), (0, 1)])
unit_square = cube(2)
# The triangle on the decimals (0.1, 0.2), (1.3, 0.1), (0.4, 1.7).
decimal_triangle = simplex([(F(1, 10), F(1, 5)), (F(13, 10), F(1, 10)), (F(2, 5), F(17, 10))])


class TestMcMullen:
    def test_volume_concentrates_in_top_degree(self):
        comps = mcmullen_decompose(volume_valuation(2), std_triangle)
        assert [c.coeff(()) for c in comps] == [0, 0, F(1, 2)]

    def test_moment_rank1_sits_at_degree_three(self):
        comps = mcmullen_decompose(moment_valuation(2, 1), std_triangle)
        assert comps[3] == moment_tensor(std_triangle, 1).tensor
        assert all(comps[j].is_zero() for j in (0, 1, 2))

    def test_euler_plus_volume(self):
        z = volume_valuation(2).plus(euler_valuation(2))
        comps = mcmullen_decompose(z, std_triangle)
        assert [c.coeff(()) for c in comps] == [1, 0, F(1, 2)]

    def test_rehomogeneity_fresh_lambda(self):
        report = rehomogeneity_check(volume_valuation(2), std_triangle, F(7, 3))
        assert report.passed
        assert report.max_residual == 0

    def test_rehomogeneity_flags_a_residual_below_float_range(self):
        """vol + eps vol^2 is not homogeneous; eps is set so that the exact
        residual is 10^-400, which reads as 0.0 in a float."""
        tri = simplex([(0, 0), (F(5, 3), F(1, 7)), (F(-1, 2), 2)])
        lam = F(3, 2)

        def vol_plus_square(eps):
            return Valuation("vol+eps*vol^2", 0, 2, lambda b: SymTensor.scalar(
                2, volume(b) + eps * volume(b) ** 2))

        unit = rehomogeneity_check(vol_plus_square(F(1)), tri, lam).max_residual
        report = rehomogeneity_check(vol_plus_square(F(1, 10 ** 400) / unit), tri, lam)
        assert float(report.max_residual) == 0.0
        assert report.max_residual == F(1, 10 ** 400)
        assert not report.passed


@pytest.mark.parametrize("lam, factors", [
    (F(3, 2), [1, 2, 3, 4, F(3, 2), F(9, 2), 6]),
    (2, [1, 2, 3, 4, 6, 8]),
], ids=["3/2", "2"])
def test_rehomogeneity_evaluates_each_distinct_dilate_once(lam, factors):
    """At n = 2, rank 1 the check reads z on k K and k lambda K for
    k = 1..4: z runs once per distinct factor, each dilate built off K and
    K itself at 1, so 7 times at lambda = 3/2 (2 * 3/2 is the node 3) and 6
    at lambda = 2 (2 and 4 are nodes).  ``mcmullen_decompose`` also passes
    the body itself first."""
    seen = []
    inner = moment_valuation(2, 1)
    z = Valuation("counted", 1, 2, lambda b: seen.append(b) or inner(b))
    assert rehomogeneity_check(z, std_triangle, lam).passed
    assert seen[0] is std_triangle
    assert [b.vertices for b in seen] == [scale(std_triangle, t).vertices for t in factors]
    seen.clear()
    mcmullen_decompose(z, std_triangle)
    assert len(seen) == 4 and seen[0] is std_triangle


_PLANTED_TRIANGLE = simplex([(0, 0), (F(5, 3), F(1, 7)), (F(-1, 2), 2)])


def _planted_1e_400():
    """vol + eps vol^2 with eps set so that the residual at lambda = 3/2 on
    ``_PLANTED_TRIANGLE`` is 10^-400."""
    unit = rehomogeneity_by_nested_dilates(_vol_plus_square(2, 1), _PLANTED_TRIANGLE,
                                           F(3, 2)).max_residual
    return _vol_plus_square(2, F(1, 10 ** 400) / unit)


@pytest.mark.parametrize("lam", [F(3, 2), F(2, 3), F(5, 3), F(4, 5), F(7, 10)])
@pytest.mark.parametrize("case", [
    lambda: (moment_valuation(2, 2), decimal_triangle),
    lambda: (moment_valuation(2, 3), std_triangle),
    lambda: (moment_valuation(4, 1), SIMPLEX4),
    lambda: (moment_valuation(3, 2), _TETRAHEDRON),
    lambda: (_vol_plus_square(3, 1), _BOX3),
    lambda: (_planted_1e_400(), _PLANTED_TRIANGLE),
], ids=["moment-r2", "moment-r3", "moment4-r1", "moment3-r2", "vol+vol^2", "planted-1e-400"])
def test_rehomogeneity_reports_equal_the_nested_dilate_oracle(case, lam):
    """Evaluating each distinct dilate once changes no report: the verdict,
    the residual and the witness are those of two decompositions on nested
    dilates plus a third z(K) (``rehomogeneity_by_nested_dilates``)."""
    z, body = case()
    got, want = rehomogeneity_check(z, body, lam), rehomogeneity_by_nested_dilates(z, body, lam)
    assert (got.passed, got.max_residual, got.witnesses) == \
        (want.passed, want.max_residual, want.witnesses)
    assert got.passed == (z.name != "vol+eps*vol^2")


class TestKlain:
    def test_lebesgue_probe_gives_one(self):
        l = Subspace.span([(1, 0, 0, 0), (0, 0, 1, 0)])
        kv = klain(span_lebesgue_valuation(4, 2), 2, l)
        assert kv.value == SymTensor.scalar(4, 1)

    def test_zero_valuation(self):
        zero = Valuation("zero", 0, 4, lambda body: SymTensor.scalar(4, 0))
        l = Subspace.span([(1, 0, 0, 0), (0, 1, 0, 0)])
        assert klain(zero, 2, l).value.is_zero()

    def test_hadwiger_top_degree_constant_one(self):
        l = Subspace.from_orthonormal(
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        kv = klain(volume_valuation(4), 4, l)
        assert kv.value == SymTensor.scalar(4, 1)

    def test_probes_agree_on_sampled_subspaces(self, monkeypatch):
        """On sampled subspaces the probes agree with an exact zero residual
        and the Klain value of the volume is exactly 1."""
        reports, verdict = [], valuation_lab._verdict

        def recording(*args):
            reports.append(verdict(*args))
            return reports[-1]

        monkeypatch.setattr(valuation_lab, "_verdict", recording)
        for m, j, seed in [(2, 2, 0), (2, 2, 1), (2, 3, 2), (3, 2, 3), (3, 5, 4)]:
            l = sample_subspace(m, j, seed)
            value = klain(span_lebesgue_valuation(2 * m, j), j, l).value.coeff(())
            assert type(value) is F and value == 1
            assert type(reports[-1].max_residual) is F and reports[-1].max_residual == 0

    def test_span_volume_of_a_triangle_is_its_area(self):
        """``span_lebesgue_valuation`` takes the body's span as
        ``Subspace.span`` of its integer view: the standard triangle has
        area 1/2, in the plane and in a tilted plane of R^4 alike.  A body
        spanning fewer dimensions, the point at the origin among them, which
        spans nothing, gives 0; the origin has 0-volume 1."""
        assert span_lebesgue_valuation(2, 2)(std_triangle) == SymTensor.scalar(2, F(1, 2))
        u, v = (F(3, 5), F(4, 5), 0, 0), (0, 0, 0, 1)
        tilted = simplex([(0, 0, 0, 0), u, v])
        assert span_lebesgue_valuation(4, 2)(tilted) == SymTensor.scalar(4, F(1, 2))
        origin = simplex([(0, 0, 0, 0)])
        for body in (simplex([(0, 0, 0, 0), u]), origin):
            assert span_lebesgue_valuation(4, 2)(body) == SymTensor.scalar(4, 0)
        assert span_lebesgue_valuation(4, 0)(origin) == SymTensor.scalar(4, 1)

    def test_exact_probe_mismatch_rejected(self):
        """The cube probe reads 1 + 10^-12 and the simplex probe 1 + 10^-12 / 2:
        far below any float tolerance, but the verdict is exact."""
        l = Subspace.span([(1, 0, 0, 0), (0, 0, 1, 0)])

        def run(body):
            vol = subspace_volume(body, l)
            return SymTensor.scalar(4, vol + F(1, 10 ** 12) * vol * vol)

        with pytest.raises(ValutaError, match="disagree by 1/2000000000000"):
            klain(Valuation("vol+eps*vol^2", 0, 4, run), 2, l)

    def test_float_valuation_values_are_refused(self):
        """A valuation whose values hold a float fails where its tensor is
        made, before any comparison."""
        l = Subspace.span([(1, 0, 0, 0), (0, 0, 1, 0)])

        def run(body):
            vol = subspace_volume(body, l)
            return SymTensor.scalar(4, vol + 1e-12 * vol * vol)

        with pytest.raises(TypeError):
            klain(Valuation("vol+eps*vol^2", 0, 4, run), 2, l)

    def test_irrational_gram_root_is_refused(self):
        """A probe basis whose Gram determinant is no rational square spans
        probes of irrational volume: ``ValutaError``, never a float."""
        l = Subspace(4, ((1, 1, 0, 0),))
        with pytest.raises(ValutaError, match="irrational"):
            valuation_lab._gram_root(l)
        with pytest.raises(ValutaError, match="irrational"):
            klain(span_lebesgue_valuation(4, 1), 1, l)
        assert valuation_lab._gram_root(Subspace(4, ((F(3, 5), F(4, 5), 0, 0),))) == 1

    def test_probe_volumes(self):
        l = Subspace.span([(1, 0, 0, 0), (0, 0, 1, 0)])
        from valuta.polytope import subspace_volume

        assert subspace_volume(cube_probe(l), l) == 1
        assert subspace_volume(simplex_probe(l), l) == F(1, 2)

    def test_degenerate_probe_rejected(self):
        """A basis with det G = 0 spans no j-dimensional probe."""
        l = Subspace(4, ((1, 0, 0, 0), (2, 0, 0, 0)))
        with pytest.raises(GeometryError, match="degenerate probe body"):
            klain(span_lebesgue_valuation(4, 2), 2, l)


@pytest.mark.parametrize("l", [
    Subspace.from_orthonormal([(F(3, 5), 0, F(4, 5), 0, 0, 0), (0, 0, 0, 0, 1, 0),
                               (F(-4, 5), 0, F(3, 5), 0, 0, 0)]),
    Subspace.from_orthonormal([(F(2, 3), F(1, 3), F(2, 3), 0), (F(-2, 3), F(2, 3), F(1, 3), 0)]),
    sample_subspace(3, 5, 11),
    sample_subspace(3, 2, 13),
    sample_subspace(2, 3, 12),
], ids=["exact-3", "exact-2", "sampled-5", "sampled-2", "sampled-3"])
def test_probe_volumes_are_model_volumes_times_gram_root(l):
    """The probes' j-volumes, which ``klain`` takes without walking their
    cells, are the model cube's and simplex's times sqrt(det G), G the
    basis Gram matrix: exactly 1 and 1/j! on an orthonormal subspace, a
    sampled one included."""
    for probe, model in ((cube_probe(l), 1), (simplex_probe(l), F(1, math.factorial(l.dim)))):
        vol = subspace_volume(probe, l)
        assert vol == model and type(vol) is F


@pytest.mark.parametrize("l", [
    Subspace.from_orthonormal([(F(3, 5), 0, F(4, 5), 0, 0, 0), (0, 0, 0, 0, 1, 0),
                               (F(-4, 5), 0, F(3, 5), 0, 0, 0)]),
    sample_subspace(3, 5, 11),
    sample_subspace(2, 3, 12),
], ids=["exact", "sampled-5", "sampled-3"])
def test_probe_points_are_the_fraction_coordinate_images(l):
    """The probes map the model cube's and simplex's 0/1 coordinates as
    ints on the basis's integer view: the same points, to the type, as
    mapping them as Fractions, the cube from its own vertices."""
    def image(coords):
        v = [0] * l.ambient
        for c, b in zip(map(F, coords), l.basis):
            v = [x + c * y for x, y in zip(v, b)]
        return repr(tuple(v))

    corners = [(0,) * l.dim] + [tuple(int(k == i) for k in range(l.dim)) for i in range(l.dim)]
    for probe, model in ((cube_probe(l), cube(l.dim).vertices), (simplex_probe(l), corners)):
        assert [repr(v) for v in probe.vertices] == [image(c) for c in model]


def cayley_columns(rng, n):
    """The columns of the Cayley transform (I - A)(I + A)^-1 of a random
    integer skew-symmetric A: an exact orthonormal frame of R^n."""
    a = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(r + 1, n):
            a[r][c] = rng.randint(-3, 3)
            a[c][r] = -a[r][c]
    minus = [[int(r == c) - a[r][c] for c in range(n)] for r in range(n)]
    plus = [[int(r == c) + a[r][c] for c in range(n)] for r in range(n)]
    return linalg.transpose(linalg.mat_mul(minus, linalg.inv(plus)))


@pytest.mark.parametrize("n, j", [(4, 2), (4, 3), (6, 2), (6, 3), (6, 5)])
def test_probe_volumes_on_cayley_columns_are_gram_roots(n, j):
    """On j columns of an exact Cayley frame, and on a rational shear M of
    them, ``subspace_volume`` of the probes is exactly ``_gram_root``'s
    sqrt(det G) (= |det M|) and its 1/j!, and ``klain`` of the volume on
    the frame's own subspace is exactly 1."""
    rng = random.Random(f"{n}-{j}")
    for _ in range(3):
        l = Subspace.from_orthonormal(cayley_columns(rng, n)[:j])
        m = [[F(rng.randint(-3, 3), rng.randint(1, 3)) if c > r else F(int(r == c) * (r + 2))
              for c in range(j)] for r in range(j)]
        sheared = Subspace(n, tuple(map(tuple, linalg.mat_mul(m, l.basis))))
        for sub in (l, sheared):
            root = valuation_lab._gram_root(sub)
            assert type(root) is F and root == abs(linalg.det(m) if sub is sheared else 1)
            assert subspace_volume(cube_probe(sub), l) == root
            assert subspace_volume(simplex_probe(sub), l) == root / math.factorial(j)
        value = klain(span_lebesgue_valuation(n, j), j, l).value.coeff(())
        assert type(value) is F and value == 1


@pytest.mark.parametrize("m, j, seed", [(2, 2, 3), (2, 3, 4), (3, 2, 5), (3, 3, 6), (3, 5, 7)])
def test_probes_and_volumes_are_the_generator_forms(m, j, seed):
    """On a sampled subspace the probe points are the generator sums
    x + c y of the coordinates on the basis, exactly.  ``subspace_volume``
    of the probes and of their dilates is the generator form's
    (``oracles.subspace_volume_generators``)."""
    l = sample_subspace(m, j, seed)
    corners = [tuple(map(int, v)) for v in cube(j).vertices]
    want = []
    for coords in corners:
        v = [0] * l.ambient
        for c, b in zip(coords, l.basis):
            v = [x + c * y for x, y in zip(v, b)]
        want.append(tuple(v))
    assert list(cube_probe(l).vertices) == want
    for probe in (cube_probe(l), simplex_probe(l), scale(cube_probe(l), F(7, 3))):
        got = subspace_volume(probe, l)
        assert type(got) is F and got == subspace_volume_generators(probe, l.basis)


@pytest.mark.parametrize("j", range(1, 6))
def test_probes_are_the_bodies_built_from_their_points(j):
    """On Cayley subspaces of R^6, and on rational shears of their bases,
    the probes, built on the basis's integer view, have the integer view,
    vertices and cells of the bodies built from their Fraction points
    (``oracles.cube_probe_by_points``, ``simplex_probe_by_points``), and
    the model cube is kept per j.  Klain of the volume is exactly 1."""
    rng = random.Random(j)
    for seed in range(4):
        l = sample_subspace(3, j, seed)
        m = [[F(rng.randint(-3, 3), rng.randint(1, 4)) if c > r else F(int(r == c))
              for c in range(j)] for r in range(j)]
        sheared = Subspace(6, tuple(map(tuple, linalg.mat_mul(m, l.basis))))
        for sub in (l, sheared):
            for probe, oracle in ((cube_probe(sub), cube_probe_by_points(sub)),
                                  (simplex_probe(sub), simplex_probe_by_points(sub))):
                assert "vertices" not in vars(probe)
                assert probe.cleared == oracle.cleared
                assert probe.vertices == oracle.vertices
                assert probe.triangulation == oracle.triangulation
                assert all(type(x) is F for v in probe.vertices for x in v)
        value = klain(span_lebesgue_valuation(6, j), j, l).value.coeff(())
        assert type(value) is F and value == 1
    assert valuation_lab._model_cube(j) is valuation_lab._model_cube(j)


SKEW_SIMPLEX4 = simplex([(0, 0, 0, 0), (1, 0, 0, 0), (F(1, 2), 2, 0, 0), (0, F(1, 3), 1, 0),
                         (1, 1, F(2, 5), 3)])
OFF_CROSS4 = translate(crosspolytope([(1, F(1, 2), 0, 0), (0, 1, F(-1, 3), 0), (0, 0, 1, 2),
                                      (0, 0, 0, 1)]), (F(1, 3), 0, F(-2, 5), 1))
OFF_CROSS2 = translate(crosspolytope([(1, F(1, 3)), (F(-1, 2), 1)]), (F(2, 3), F(-1, 4)))


class TestCovariance:
    def test_moment_cascade_triangle(self):
        zs = [moment_valuation(2, 1), volume_valuation(2)]
        report = verify_covariance(zs, std_triangle, [(1, 0)])
        assert report.passed and report.max_residual == 0

    def test_moment_cascade_rank2(self):
        zs = [moment_valuation(2, 2), moment_valuation(2, 1), volume_valuation(2)]
        report = verify_covariance(zs, unit_square, [(F(1, 2), F(1, 3))])
        assert report.passed and report.max_residual == 0

    def test_wrong_coefficient_detected(self):
        zs = [moment_valuation(2, 1), volume_valuation(2).scaled(2)]
        report = verify_covariance(zs, std_triangle, [(1, 0)])
        assert not report.passed
        assert report.max_residual == volume(std_triangle)

    def test_each_valuation_evaluated_once_per_body(self):
        calls = []

        def counted(z):
            def run(body):
                calls.append(z.rank)
                return z(body)

            return Valuation(z.name, z.rank, z.dim, run)

        zs = [counted(moment_valuation(2, k)) for k in (3, 2, 1)] + [counted(volume_valuation(2))]
        report = verify_covariance(zs, std_triangle, [(1, 0), (F(1, 2), F(-1, 3))])
        assert report.passed and report.max_residual == 0
        # once on the body and once on each of the two translates
        assert sorted(calls) == sorted([3, 2, 1, 0] * 3)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("body", [SKEW_SIMPLEX4, OFF_CROSS4], ids=["simplex4", "cross4"])
    def test_one_kernel_pass_per_body(self, monkeypatch, body, r):
        """Ranks r..0 of a body share one moment pass: one kernel call on the
        body and on each translate."""
        calls = []
        real = moment._moment_totals
        monkeypatch.setattr(moment, "_moment_totals", lambda *a: calls.append(1) or real(*a))
        ys = [(1, F(-1, 2), 0, F(2, 3)), (F(1, 3), 2, F(-3, 2), 1), (0, 0, 1, F(1, 5))]
        for k in (1, 2, 3):
            calls.clear()
            zs = [moment_valuation(4, s) for s in range(r, -1, -1)]
            report = verify_covariance(zs, body, ys[:k])
            assert report.passed and report.max_residual == 0
            assert len(calls) == 1 + k

    def test_planted_rank1_factor_keeps_its_residual(self):
        """moment[2], 2 * moment[1], volume: the rank-1 row is off by vol * y;
        the residual is the one the per-rank evaluation gave."""
        zs = [moment_valuation(2, 2), moment_valuation(2, 1).scaled(2), moment_valuation(2, 0)]
        report = verify_covariance(zs, OFF_CROSS2, [(F(1, 2), F(-1, 3)), (F(3, 2), F(1, 5))])
        assert not report.passed
        assert report.max_residual == F(7, 2) == volume(OFF_CROSS2) * F(3, 2)
        assert report.witnesses == [{"y": ["3/2", "1/5"], "coefficient_rank": 1}]

    def test_float_shift_on_a_float_body(self):
        """A float shift is refused before any moment pass.  On the body
        read from a JSON document of its coordinates as floats, the shift
        by the exact rationals the floats are passes with an exact zero
        residual, as the decimal shift does on the decimal body."""
        zs = [moment_valuation(2, s) for s in (2, 1, 0)]
        with pytest.raises(TypeError):
            verify_covariance(zs, decimal_triangle, [(F(1, 2), 0), (0.3, -0.7)])
        report = verify_covariance(zs, decimal_triangle, [(F(3, 10), F(-7, 10))])
        assert report.passed and report.max_residual == 0 and type(report.max_residual) is F
        assert report.witnesses[0]["y"] == ["3/10", "-7/10"]
        report = verify_covariance(zs, float_twin(decimal_triangle), [(F(0.3), F(-0.7))])
        assert report.passed and report.max_residual == 0 and type(report.max_residual) is F
        assert report.witnesses[0]["y"] == [str(F(0.3)), str(F(-0.7))]

    def test_rank_order_enforced(self):
        with pytest.raises(DimensionMismatch):
            verify_covariance([volume_valuation(2), moment_valuation(2, 1)],
                              std_triangle, [(1, 0)])


CROSS4 = crosspolytope([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


class TestEquivariance:
    def test_moment_rank2_exact_shears(self):
        rng = random.Random(5)
        samples = [sl_mc_element("shear", 2, params={"count": 3}, seed=rng.randint(0, 10**9))
                   for _ in range(5)]
        report = verify_equivariance(moment_valuation(4, 2), samples, CROSS4)
        assert report.passed and report.max_residual == 0

    def test_volume_invariance(self):
        phi = realify(sl_mc_element("shear", 2, params={"p": 0, "q": 1, "im": 1}))
        report = verify_equivariance(volume_valuation(4), [phi], CROSS4)
        assert report.passed

    def test_broken_valuation_detected(self):
        def coordinate_sum(body):
            t = moment_tensor(body, 1).tensor
            return SymTensor.scalar(4, sum(t.coeffs.values()))

        broken = Valuation("sum-of-moment", 0, 4, coordinate_sum)
        shear = sl_mc_element("shear", 2, params={"p": 0, "q": 1, "re": 1})
        body = simplex([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                        (0, 0, 1, 0), (0, 0, 0, 1)])
        report = verify_equivariance(broken, [shear], body)
        assert not report.passed
        assert report.max_residual != 0

    def test_moment_rank4_at_m5_is_exact(self):
        """At m = 5 (R^10), rank 4, a rational 10-simplex under a realified
        SL(5,C) shear: moment[4] passes with an exact zero residual, and
        moment[4] + vol Q^2 with Q = sum e_i^2, which only O(10) fixes,
        fails with a nonzero exact residual."""
        rng = random.Random(10)
        body = simplex([[F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(10)]
                        for _ in range(11)])
        shear = sl_mc_element("shear", 5, params={"p": 1, "q": 3, "re": F(1, 2), "im": F(-3, 2)})
        report = verify_equivariance(moment_valuation(10, 4), [realify(shear)], body)
        assert report.passed
        assert type(report.max_residual) is Fraction and report.max_residual == 0
        q = SymTensor(10, 2, {tuple(2 * (k == i) for k in range(10)): 1 for i in range(10)})
        planted = Valuation("moment[4]+vol*Q^2", 4, 10, lambda b: moment_tensor(b, 4).tensor
                            + sym_product(q, q).scale(volume(b)))
        report = verify_equivariance(planted, [shear], body)
        assert not report.passed
        assert type(report.max_residual) is Fraction and report.max_residual != 0


class TestScalingRelation:
    def test_volume_diag(self):
        psi = CMatrix.diag([2, 1])
        report = scaling_relation_check(volume_valuation(4), 4, psi, CROSS4)
        assert report.passed
        assert report.witnesses[0]["factor"] == "4"

    def test_sl_factor_one(self):
        psi = sl_mc_element("shear", 2, params={"p": 1, "q": 0, "im": 1})
        report = scaling_relation_check(volume_valuation(4), 4, psi, CROSS4)
        assert report.passed
        assert report.witnesses[0]["factor"] == "1"

    def test_complex_diag_factor_two(self):
        psi = CMatrix.diag([(1, 1), (1, 0)])
        report = scaling_relation_check(volume_valuation(4), 4, psi, CROSS4)
        assert report.passed
        assert report.witnesses[0]["factor"] == "2"

    def test_root_of_the_factor_gets_an_exact_verdict(self):
        """|det_C 2I|^(1/2) = 16^(1/4) at j = 1 in C^2: the signed fourth
        powers of the widths are compared exactly, with no root taken."""
        report = scaling_relation_check(_width(4), 1, CMatrix.diag([2, 2]), OFF_CROSS4, True)
        assert report.passed
        assert report.max_residual == 0 and type(report.max_residual) is Fraction
        assert report.witnesses == [{"factor": "(16)^(1/4)", "degree": 1}]

    def test_wrong_root_is_flagged_exactly(self):
        """diag(3, 2) stretches the e1-width by 3, not by 36^(1/4)."""
        report = scaling_relation_check(_width(4), 1, CMatrix.diag([3, 2]), OFF_CROSS4)
        assert not report.passed
        assert type(report.max_residual) is Fraction
        assert report.max_residual == (3 ** 4 - 36) * _width(4)(OFF_CROSS4).coeff(()) ** 4


def _width(n):
    """Width of a body along e_1: 1-homogeneous under scalings, exact."""
    e1 = (1,) + (0,) * (n - 1)
    return Valuation("width", 0, n, lambda b: SymTensor.scalar(
        n, support(b, e1) + support(b, tuple(-x for x in e1))))


class TestSurfacePairing:
    def test_triangle_against_square(self):
        pairing = surface_pairing(lambda v: support(unit_square, v), std_triangle)
        assert pairing == 2

    def test_linear_pairs_to_zero(self):
        for body in (std_triangle, unit_square, crosspolytope([(1, 0), (1, 1)])):
            assert surface_pairing(lambda v: 3 * v[0] - 2 * v[1], body) == 0

    def test_square_self_pairing(self):
        pairing = surface_pairing(lambda v: support(unit_square, v), unit_square)
        assert pairing == 2

    def test_tensor_valued_linear_zero(self):
        out = surface_pairing(lambda v: vector_power(v, 1), std_triangle)
        assert out.is_zero()

    @pytest.mark.parametrize("f", [lambda v: vector_power(v, 2), lambda v: v[0] * v[1] - 3 * v[2]],
                             ids=["square", "scalar"])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_pairing_is_the_fold_over_the_atoms(self, f, exact):
        """Tensor values are summed in one int pass, which builds no
        coefficient map; scalars are added with + in facet order.  Each
        equals the fold of f over the atoms, on the body read from a JSON
        document of its coordinates as floats too."""
        body = linear_image(RMatrix.from_rows([[1, F(1, 2), 0, 0], [0, 1, 0, 0],
                                               [0, 0, 1, F(-2, 3)], [0, 0, 0, 1]]),
                            crosspolytope([(1, F(1, 3), 0, 0), (0, 2, F(-1, 2), 0),
                                           (0, 0, F(3, 7), 1), (F(1, 5), 0, 0, 1)]))
        if not exact:
            body = float_twin(body)
        values = [f(atom.direction) for atom in surface_area_measure(body)]
        fold = sum(values[1:], values[0])
        out = surface_pairing(f, body)
        if isinstance(fold, SymTensor):
            assert "coeffs" not in vars(out)
            out, fold = sorted(out.coeffs.items()), sorted(fold.coeffs.items())
        assert repr(out) == repr(fold)


class TestTransfer:
    def test_identity(self):
        report = transfer_check(
            lambda v: support(unit_square, v), RMatrix.identity(2), std_triangle)
        assert report.passed and report.max_residual == 0

    def test_shear(self):
        shear = RMatrix.from_rows([[1, 1], [0, 1]])
        report = transfer_check(lambda v: support(unit_square, v), shear, std_triangle)
        assert report.passed and report.max_residual == 0

    def test_reflection_with_odd_integrand(self):
        refl = RMatrix.diag([1, -1])

        def odd_nonlinear(v):
            return v[0] ** 3 / (v[0] ** 2 + v[1] ** 2)

        report = transfer_check(odd_nonlinear, refl, unit_square)
        assert report.passed and report.max_residual == 0

    def test_non_unimodular_rejected(self):
        with pytest.raises(GeometryError):
            transfer_check(lambda v: v[0], RMatrix.diag([2, 1]), std_triangle)

    def test_body_without_atoms_is_refused(self):
        """The double cover of the square has every edge in two cells, so no
        atoms: the transfer says so rather than pairing nothing."""
        double = Polytope(2, unit_square.vertices, ((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3)))
        with pytest.raises(GeometryError, match="atoms"):
            transfer_check(lambda v: vector_power(v, 2), RMatrix.from_rows([[1, 1], [0, 1]]),
                           double)

    def test_transpose_in_place_of_inverse_transpose_fails(self, monkeypatch):
        """Planted: phi^T applied to K's atoms where phi^-T belongs (phi is
        an int shear, so its view is phi over 1): the exact check fails with
        a nonzero residual."""
        phi = RMatrix.from_rows([[1, 2, 0], [0, 1, -1], [0, 0, 1]])
        body = crosspolytope([(1, F(1, 3), 0), (0, 2, F(-1, 2)), (F(1, 5), 0, 1)])
        assert transfer_check(lambda v: vector_power(v, 2), phi, body).passed
        monkeypatch.setattr(linalg, "inverse_view", lambda m: (1, m))
        report = transfer_check(lambda v: vector_power(v, 2), phi, body)
        assert not report.passed
        assert type(report.max_residual) is F and report.max_residual != 0

    def test_each_side_walks_its_own_points(self, monkeypatch):
        """The atom walk runs once on K's points and once on phi K's own
        points: phi K's atoms are never K's mapped by the cofactor rule."""
        seen = []
        real = polytope._face_normals
        monkeypatch.setattr(polytope, "_face_normals",
                            lambda pts, faces, n: seen.append(pts) or real(pts, faces, n))
        phi = RMatrix.from_rows([[1, F(1, 2), 0], [0, 1, 0], [0, F(-2, 3), -1]])
        body = box([0, F(-1, 2), F(1, 3)], [1, 1, 2])
        assert transfer_check(lambda v: vector_power(v, 2), phi, body).passed
        image = linear_image(phi, body)
        assert seen == [body.cleared[1], image.cleared[1]] and seen[0] != seen[1]


    def test_integrand_runs_once_per_distinct_direction(self):
        """The two sides of a passing transfer pair f on the same
        directions, so f runs once per distinct one: 16 times on a
        4-crosspolytope's 16 atoms, on the image's directions as
        ``Fraction``s."""
        body = crosspolytope([(1, F(1, 2), 0, 0), (0, 1, F(-1, 3), 0), (0, 0, 1, 2),
                              (F(1, 5), 0, 0, 1)])
        phi = RMatrix.from_rows([[1, F(1, 2), 0, 0], [0, 1, 0, 0], [0, 0, 1, F(-2, 3)],
                                 [0, 0, 0, 1]])
        seen = []
        report = transfer_check(lambda v: seen.append(v) or vector_power(v, 2), phi, body)
        assert report.passed and len(body.atoms[1]) == 16
        image = surface_area_measure(linear_image(phi, body))
        assert seen == [atom.direction for atom in image]
        assert all(type(x) is F for v in seen for x in v)

    def test_planted_inverse_pairs_f_on_the_planted_directions(self, monkeypatch):
        """Planted: phi^T in place of phi^-T (phi is an int shear, so its
        view is phi over 1).  f still runs on each planted direction that
        is not an image direction, once, and the report is the oracle's
        with phi^T planted the same way (``linalg.inv`` as the identity)."""
        phi = RMatrix.from_rows([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
        body = box([0, F(-1, 2), F(1, 3)], [1, 1, 2])
        seen = []
        monkeypatch.setattr(linalg, "inverse_view", lambda m: (1, m))
        report = transfer_check(lambda v: seen.append(v) or vector_power(v, 2), phi, body)
        image = [atom.direction for atom in surface_area_measure(linear_image(phi, body))]
        planted = [mat_vec_fractions(linalg.transpose(phi.entries), atom.direction)
                   for atom in surface_area_measure(body)]
        # phi^T and phi^-T agree on the four atoms normal to e_2 and e_3.
        assert len(set(image) & set(planted)) == 4
        assert seen == image + [u for u in planted if u not in image]
        monkeypatch.setattr(linalg, "inv", lambda m: m)
        want = transfer_check_fractions(lambda v: vector_power(v, 2), phi, body)
        assert not report.passed and report.max_residual != 0
        assert report == want


@st.composite
def transfer_cases(draw):
    """An exact simplex, crosspolytope or Kuhn box in R^2..R^4, perhaps moved
    by a rational shear and a translation, and a map of det +-1: a shear
    times a permutation, perhaps times a reflection."""
    n = draw(st.integers(min_value=2, max_value=4))
    small = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["simplex", "cross", "box"]))
    units = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    if kind == "simplex":
        body = simplex([(0,) * n, *units])
    elif kind == "cross":
        body = crosspolytope(units)
    else:
        lo = [draw(small) for _ in range(n)]
        body = box(lo, [x + 1 + abs(draw(small)) for x in lo])

    def shear():
        i, j = draw(st.permutations(range(n)))[:2]
        return RMatrix.from_rows([[1 if a == b else draw(small) if (a, b) == (i, j) else 0
                                   for b in range(n)] for a in range(n)])

    if draw(st.booleans()):
        body = translate(linear_image(shear(), body), [draw(small) for _ in range(n)])
    perm = draw(st.permutations(range(n)))
    phi = shear() @ RMatrix.from_rows([[int(perm[a] == b) for b in range(n)] for a in range(n)])
    if draw(st.booleans()):
        phi = phi @ RMatrix.diag([-1] + [1] * (n - 1))
    return body, phi


@settings(max_examples=60, deadline=None)
@given(case=transfer_cases(), square=st.booleans())
def test_transfer_reports_equal_the_fraction_pairing(case, square):
    """The report paired on the atoms' int totals equals the one paired on
    ``FacetDatum`` directions with phi^-T from ``linalg.inv`` and
    ``linalg.transpose``, applied by ``linalg.mat_vec``
    (``oracles.transfer_check_fractions``), for a tensor and a scalar
    integrand."""
    body, phi = case

    def f(v):
        return vector_power(v, 2) if square else v[0] * v[-1] - 3 * v[1] ** 3
    assert transfer_check(f, phi, body) == transfer_check_fractions(f, phi, body)


@settings(max_examples=40, deadline=None)
@given(case=transfer_cases())
def test_image_atoms_over_the_source_boundary_are_its_own(case):
    """The boundary faces depend on the cells alone: phi K's atoms read off
    its own points over K's ``boundary`` equal those of its points rebuilt
    as a body, which finds its own boundary, and the image is handed no
    boundary."""
    body, phi = case
    image = linear_image(phi, body)
    twin = Polytope(body.dim, image.vertices, image.triangulation)
    assert polytope.boundary_atoms(image.cleared, body.boundary) == twin.atoms
    assert twin.boundary == body.boundary
    assert "boundary" not in vars(image) and "atoms" not in vars(image)


class TestParitySplit:
    def test_moment_rank1_is_odd(self):
        z = moment_valuation(2, 1)
        assert z.even_part()(std_triangle).is_zero()
        assert z.odd_part()(std_triangle) == z(std_triangle)

    def test_moment_rank2_is_even(self):
        z = moment_valuation(2, 2)
        assert z.odd_part()(std_triangle).is_zero()
        assert z.even_part()(std_triangle) == z(std_triangle)


DECIMAL_CORNERS = [(("0.1", "-0.3"), ("1.7", "0.2"), ("0.4", "1.1")),
                   (("0.1", "-0.3", "0.2"), ("1.7", "0.2", "0"), ("0.4", "1.1", "-0.5"),
                    ("0.3", "0.6", "1.9"))]


def _moment_plus_volume_e1(n):
    """M^1 + vol * e_1: odd part M^1, even part vol * e_1."""
    e1 = tuple(int(i == 0) for i in range(n))
    return Valuation("moment[1]+vol*e1", 1, n, lambda b: moment_tensor(b, 1).tensor
                     + SymTensor(n, 1, {e1: volume(b)}))


@pytest.mark.parametrize("corners", DECIMAL_CORNERS, ids=["triangle", "tetrahedron"])
def test_decomposition_sums_to_the_value(corners):
    """The n + rank + 1 components sum to z at the body, and each
    homogeneous valuation sits in its one degree."""
    body = simplex([tuple(map(F, v)) for v in corners])
    n = body.dim
    for z, degree in ((volume_valuation(n), n), (moment_valuation(n, 1), n + 1),
                      (_moment_plus_volume_e1(n), None)):
        comps = mcmullen_decompose(z, body)
        assert len(comps) == n + z.rank + 1
        assert tensor_sum(comps) == z(body)
        if degree is not None:
            assert [j for j, c in enumerate(comps) if not c.is_zero()] == [degree]


@pytest.mark.parametrize("corners", DECIMAL_CORNERS, ids=["triangle", "tetrahedron"])
def test_parity_parts_split_a_mixed_valuation(corners):
    """Even and odd parts sum to the value; M^1 + vol e_1 splits into its
    odd M^1 and its even vol e_1."""
    body = simplex([tuple(map(F, v)) for v in corners])
    n = body.dim
    for z in (moment_valuation(n, 1), moment_valuation(n, 2), _moment_plus_volume_e1(n)):
        assert z.even_part()(body) + z.odd_part()(body) == z(body)
    mixed = _moment_plus_volume_e1(n)
    assert mixed.odd_part()(body) == moment_tensor(body, 1).tensor
    assert mixed.even_part()(body) == SymTensor(n, 1, {(1,) + (0,) * (n - 1): volume(body)})


def _assert_float_twin(got, want):
    """Every coefficient of ``got`` within 1e-12 of ``want``'s."""
    assert max((abs(got.coeff(k) - want.coeff(k)) for k in {**got.coeffs, **want.coeffs}),
               default=0) * 10 ** 12 <= 1


@pytest.mark.parametrize("corners", DECIMAL_CORNERS, ids=["triangle", "tetrahedron"])
def test_float_body_decomposes_like_its_exact_twin(corners):
    """The body read from a JSON document of its corners as floats
    decomposes into components that sum to z there, each within 1e-12 of
    the exact body's."""
    twin = simplex([tuple(map(F, v)) for v in corners])
    body = float_twin(twin)
    n = body.dim
    for z in (volume_valuation(n), moment_valuation(n, 1), _moment_plus_volume_e1(n)):
        got, want = mcmullen_decompose(z, body), mcmullen_decompose(z, twin)
        assert len(got) == len(want) == n + z.rank + 1
        assert tensor_sum(got) == z(body)
        for a, b in zip(got, want):
            _assert_float_twin(a, b)


@pytest.mark.parametrize("corners", DECIMAL_CORNERS, ids=["triangle", "tetrahedron"])
def test_float_body_parity_parts_match_its_exact_twin(corners):
    """The even and odd parts at the body read from a JSON document of its
    corners as floats lie within 1e-12 of the exact body's; the odd part of
    M^1 + vol e_1 is there M^1 of the exact body, within 1e-12."""
    twin = simplex([tuple(map(F, v)) for v in corners])
    body = float_twin(twin)
    n = body.dim
    for z in (moment_valuation(n, 1), moment_valuation(n, 2), _moment_plus_volume_e1(n)):
        for part in (z.even_part(), z.odd_part()):
            _assert_float_twin(part(body), part(twin))
    _assert_float_twin(_moment_plus_volume_e1(n).odd_part()(body), moment_tensor(twin, 1).tensor)


def test_report_json_shape():
    zs = [moment_valuation(2, 1), volume_valuation(2)]
    report = verify_covariance(zs, std_triangle, [(1, 0)])
    data = report.to_json_dict()
    assert set(data) == {"check", "witnesses", "max_residual", "pass"}
    assert data["pass"] is True
    assert data["max_residual"] == "0"


@settings(max_examples=60, deadline=None)
@given(a=st.dictionaries(st.sampled_from([(2, 0), (1, 1), (0, 2)]), coeff_values),
       b=st.dictionaries(st.sampled_from([(2, 0), (1, 1), (0, 2)]), coeff_values))
def test_residual_matches_difference_tensor(a, b):
    """The residual view_distance(a, b) is the largest coefficient of
    a - b, a Fraction."""
    ta, tb = SymTensor(2, 2, a), SymTensor(2, 2, b)
    got = view_distance(ta, tb)
    assert got == (ta - tb).max_abs_coeff() and type(got) is Fraction


def test_verdict_reports_the_worst_residual():
    """A nonzero residual fails at any size, 10^-400 on coefficients of
    10^6 included; the report carries the largest residual's witness, the
    first one on a tie, and no pair passes."""
    big = SymTensor.scalar(2, 10 ** 6)
    tiny = SymTensor.scalar(2, 10 ** 6 + F(1, 10 ** 400))
    report = _verdict("c", [(big, big, "equal"), (big, tiny, "tiny")])
    assert (report.passed, report.witnesses, report.max_residual) == \
        (False, ["tiny"], F(1, 10 ** 400))
    third, zero = SymTensor.scalar(2, F(1, 3)), SymTensor.zero(2, 0)
    report = _verdict("c", [(big, tiny, "tiny"), (third, zero, "a"), (zero, third, "b")])
    assert (report.passed, report.witnesses, report.max_residual) == (False, ["a"], F(1, 3))
    assert _verdict("c", [(big, big, "first"), (tiny, tiny, "second")]).witnesses == ["first"]
    assert _verdict("c", []).passed


# -- cached interpolation weights ---------------------------------------------------


def _decompose_by_inverse(z, body):
    """The Vandermonde system solved afresh with ``linalg.inv`` on dilates
    made by ``linear_image``, and the components summed as tensors: the
    decomposition without cached weights or ``scale``."""
    top = body.dim + z.rank
    nodes = [F(k) for k in range(1, top + 2)]
    values = [z(linear_image(RMatrix.diag([k] * body.dim), body)) for k in nodes]
    components = []
    for row in linalg.inv([[k ** j for j in range(top + 1)] for k in nodes]):
        comp = SymTensor.zero(z.dim, z.rank)
        for w, val in zip(row, values):
            comp = comp + val.scale(w)
        components.append(comp)
    return components


small_rats = st.builds(F, st.integers(min_value=-4, max_value=4),
                       st.integers(min_value=1, max_value=5))


@st.composite
def mixed_degree_valuations(draw):
    """A rational simplex in R^n (n <= 4) and a rank-r valuation (r <= 3) with
    components in up to three degrees: M^r + M^(r-1) * v + a constant."""
    n = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.integers(min_value=0, max_value=3))
    point = st.lists(small_rats, min_size=n, max_size=n)
    try:
        body = simplex(draw(st.lists(point, min_size=n + 1, max_size=n + 1)))
    except GeometryError:
        body = simplex([[0] * n] + [[int(i == k) for k in range(n)] for i in range(n)])
    v = draw(point)
    keys = sorted(multi_indices(n, r)) if r else [()]
    const = SymTensor(n, r, dict(zip(keys, draw(st.lists(small_rats, min_size=len(keys),
                                                         max_size=len(keys))))))

    def run(b):
        out = moment_tensor(b, r).tensor + const
        if r:
            out = out + sym_product(moment_tensor(b, r - 1).tensor, vector_power(v, 1))
        return out

    return Valuation("mixed", r, n, run), body


@settings(max_examples=30, deadline=None)
@given(case=mixed_degree_valuations())
def test_mcmullen_matches_fresh_inverse(case):
    z, body = case
    got = mcmullen_decompose(z, body)
    assert got == _decompose_by_inverse(z, body)
    for comp in got:
        assert comp == SymTensor(comp.dim, comp.rank, dict(comp.coeffs))
        assert all(isinstance(v, Fraction) and v for v in comp.coeffs.values())


def test_interpolation_weights_invert_the_vandermonde_matrix():
    # Ascending, then descending: a weight matrix cached under a wrong top
    # is served on the way back.
    for top in list(range(13)) + list(range(12, -1, -1)):
        w, d = interpolation_weights(top)
        assert isinstance(d, int) and d > 0
        assert all(type(x) is int for row in w for x in row)
        v = [[k ** j for j in range(top + 1)] for k in range(1, top + 2)]
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*w)] for row in v] == \
            [[d if i == j else 0 for j in range(top + 1)] for i in range(top + 1)]


def test_interpolation_weights_are_cached_read_only():
    w, d = interpolation_weights(5)
    assert interpolation_weights(5)[0] is w
    with pytest.raises(TypeError):
        w[0][0] = 1
    with pytest.raises(TypeError):
        w[0] = (0,) * 6
    assert interpolation_weights(5) == (w, d)


def _vol_plus_square(n, eps):
    return Valuation("vol+eps*vol^2", 0, n, lambda b: SymTensor.scalar(
        n, volume(b) + eps * volume(b) ** 2))


# -- the scaling relation on a big body ---------------------------------------------------


BIG_TRIANGLE = simplex([(0, 0), (10 ** 12, 0), (F(1, 3), 3 * 10 ** 12)])


def test_scaling_on_a_big_body_is_exact():
    """|det_C (1 + i)| = sqrt 2 is irrational, yet the area, 2-homogeneous
    on C^1 = R^2, scales by its square 2: at |z(K)| ~ 1e24 the verdict is
    still an exact zero, where one ulp of a float would be ~1e8."""
    psi = CMatrix.diag([(1, 1)])
    report = scaling_relation_check(volume_valuation(2), 2, psi, BIG_TRIANGLE)
    assert report.passed and report.max_residual == 0 and type(report.max_residual) is F
    assert report.witnesses == [{"factor": "2", "degree": 2}]


def test_scaling_flags_a_relative_error_of_1e_30_on_a_big_body():
    psi = CMatrix.diag([(1, 1)])
    vol = volume(BIG_TRIANGLE)
    report = scaling_relation_check(_vol_plus_square(2, F(1, 10 ** 30) / vol), 2, psi,
                                    BIG_TRIANGLE)
    assert not report.passed and report.max_residual == 2 * vol * F(1, 10 ** 30)


# -- matrices are exact -----------------------------------------------------------------------

SIMPLEX4 = simplex([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


class TestFloatTransfer:
    @pytest.mark.parametrize("rows", [[[2.0, 0.5], [0.0, 1.0]], [[1.0 + 1e-9, 0.0], [0.0, 1.0]]])
    def test_float_non_unimodular_rejected(self, rows):
        """A float matrix is refused where it enters; its dyadic twin, the
        rationals its floats are, has det != +-1, which the check rejects."""
        with pytest.raises(TypeError):
            RMatrix.from_rows(rows)
        twin = RMatrix.from_rows([[F(x) for x in row] for row in rows])
        with pytest.raises(GeometryError, match="det"):
            transfer_check(lambda v: v[0], twin, std_triangle)


# -- one verdict rule: a planted relative error of 1e-6 ----------------------------------------


def _rehomogeneity(eps):
    return rehomogeneity_check(_vol_plus_square(2, eps), decimal_triangle, 3).passed


def _covariance(eps):
    zs = [moment_valuation(2, 1).scaled(1 + eps), volume_valuation(2)]
    return verify_covariance(zs, decimal_triangle, [(F(3, 10), F(-7, 10))]).passed


def _equivariance(eps):
    """M^2 + eps vol e2^2: the shear moves e2."""
    z = Valuation("M2+eps*vol*e2^2", 2, 2, lambda b: moment_tensor(b, 2).tensor + SymTensor(
        2, 2, {(0, 2): eps * volume(b)}))
    shear = RMatrix.from_rows([[1, F(3, 10)], [0, 1]])
    return verify_equivariance(z, [shear], decimal_triangle).passed


def _scaling(eps):
    psi = CMatrix.from_rows([[(1, F(1, 2)), 0], [0, 1]])
    return scaling_relation_check(_vol_plus_square(4, eps), 4, psi, scale(SIMPLEX4, 3)).passed


def _transfer(eps):
    """The original body's atoms are planted off by a factor 1 + eps = a / b,
    in ints: each total x a over den b; its image's atoms are read off its
    own points."""
    a, b = (1 + eps).as_integer_ratio()

    def planted(body):
        den, atoms = polytope.atom_totals(body)
        if body is not decimal_triangle:
            return den, atoms
        return den * b, [([x * a for x in total], base) for total, base in atoms]

    shear = RMatrix.from_rows([[1, F(1, 2)], [0, 1]])
    with mock.patch.object(valuation_lab, "atom_totals", planted):
        return transfer_check(lambda v: vector_power(v, 2), shear, decimal_triangle).passed


def _klain(eps):
    """vol + eps vol^2 on a plane of R^4."""
    l = Subspace.span([(1, 0, 0, 0), (0, 0, 1, 0)])

    def run(body):
        vol = subspace_volume(body, l)
        return SymTensor.scalar(4, vol + eps * vol * vol)

    try:
        klain(Valuation("vol+eps*vol^2", 0, 4, run), 2, l)
    except ValutaError:
        return False
    return True


@pytest.mark.parametrize("check", [_rehomogeneity, _covariance, _equivariance, _scaling,
                                   _transfer, _klain])
def test_every_check_flags_a_relative_error_of_1e_6(check):
    """Each check passes without a planted error and flags a planted
    relative error of 1e-6 on values of size about 1 (the decimal triangle,
    a plane of R^4, a dilate of the standard 4-simplex)."""
    assert check(0)
    assert not check(F(1, 10 ** 6))


# -- vacuous and invalid inputs are refused -------------------------------------------------

_TETRAHEDRON = simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.mark.parametrize("run, error", [
    (lambda z: verify_equivariance(z, [], SIMPLEX4), ValueError),
    (lambda z: verify_covariance([z], SIMPLEX4, []), ValueError),
    (lambda z: verify_covariance([], SIMPLEX4, [(1, 0, 0, 0)]), ValueError),
    (lambda z: scaling_relation_check(z, 4, CMatrix.from_rows([[1, 2], [2, 4]]), SIMPLEX4),
     GeometryError),
    (lambda z: rehomogeneity_check(z, SIMPLEX4, 1), ValueError),
    (lambda z: rehomogeneity_check(z, SIMPLEX4, 1.0), TypeError),
], ids=["equivariance-no-sample", "covariance-no-shift", "covariance-no-valuation",
        "scaling-singular-psi",
        "rehomogeneity-lambda-1", "rehomogeneity-float-lambda-1"])
def test_vacuous_inputs_are_refused(run, error):
    """No sample, no shift, no valuation, a singular psi (det_C psi = 0) and lambda = 1
    leave nothing to compare, or compare z(K) with itself: each let the
    planted vol + vol^2 in R^4, which is not homogeneous, pass, with
    residual 0.  Each raises instead, a float lambda as a float; on valid
    inputs the same valuation fails."""
    planted = _vol_plus_square(4, 1)
    with pytest.raises(error):
        run(planted)
    assert not rehomogeneity_check(planted, SIMPLEX4, F(3, 2)).passed
    assert not scaling_relation_check(planted, 4, CMatrix.diag([2, 1]), SIMPLEX4).passed


@pytest.mark.parametrize("z, homogeneous", [
    (volume_valuation(3), True), (moment_valuation(3, 1), True), (moment_valuation(3, 2), True),
    (_vol_plus_square(3, 1), False),
], ids=["volume", "moment1", "moment2", "planted"])
def test_lambda_at_most_0_is_refused(z, homogeneous):
    """lambda K for lambda < 0 is |lambda| K reflected in the origin, and
    McMullen's z(lambda K) = sum_j lambda^j z_j(K) holds only for
    lambda > 0: at lambda = -1 it failed volume, moment[1] and moment[2] on
    a tetrahedron.  Every lambda <= 0 raises, whatever the valuation; at
    lambda = 3/2 the homogeneous ones pass and the planted vol + vol^2 fails."""
    for lam in (-1, F(-2, 3), 0):
        with pytest.raises(ValueError, match="lambda > 0"):
            rehomogeneity_check(z, _TETRAHEDRON, lam)
    with pytest.raises(TypeError):
        rehomogeneity_check(z, _TETRAHEDRON, -0.5)
    assert rehomogeneity_check(z, _TETRAHEDRON, F(3, 2)).passed == homogeneous


def _zero(n, r):
    return Valuation("zero", r, n, lambda b: SymTensor.zero(n, r))


def test_zero_valuation_equivariance_passes_with_a_fraction_zero():
    report = verify_equivariance(_zero(2, 2), [RMatrix.from_rows([[1, F(3, 10)], [0, 1]])],
                                 std_triangle)
    assert report.passed and report.max_residual == 0 and type(report.max_residual) is Fraction


def test_residual_of_equal_coefficients_subtracts_nothing(monkeypatch):
    """Equal views give a Fraction zero without being brought to one scale
    or subtracted, over any denominator."""
    def refused(views):
        raise AssertionError("subtracted")

    a = SymTensor.from_totals(2, 2, [(2, 0), (1, 1)], [2, -4], 6)
    b = SymTensor(2, 2, {(2, 0): F(1, 3), (1, 1): F(-2, 3)})
    monkeypatch.setattr(linalg, "common_scale", refused)
    assert type(view_distance(a, b)) is Fraction and view_distance(a, b) == 0
    with pytest.raises(AssertionError, match="subtracted"):
        view_distance(a, SymTensor(2, 2, {(2, 0): F(1, 3)}))


_CROSS4 = translate(crosspolytope([(1, F(1, 3), 0, 0), (0, 2, F(-1, 2), 0), (0, 0, F(3, 7), 1),
                                   (F(1, 5), 0, 0, 1)]), (F(1, 5), 0, -1, F(2, 3)))
_BOX3 = box([F(-1, 2), 0, F(1, 3)], [1, F(2, 3), 2])
_SHEAR = sl_mc_element("shear", 2, params={"p": 0, "q": 1, "re": F(1, 2), "im": F(-3, 2)})
_RSHEAR = RMatrix.from_rows([[1, F(1, 2), 0], [0, 1, F(-3, 2)], [0, 0, 1]])
_IDENTITY2 = SymTensor(4, 2, {tuple(2 * (k == i) for k in range(4)): 1 for i in range(4)})


def _cascade_of(n, c=1):
    zs = [moment_valuation(n, k) for k in range(3, -1, -1)]
    return [z.scaled(c) if z.rank == 1 and c != 1 else z for z in zs]


@pytest.mark.parametrize("run, expected", [
    (lambda: verify_equivariance(moment_valuation(3, 3), [_RSHEAR], _BOX3),
     (True, 0, [{"sample_index": 0}])),
    (lambda: verify_equivariance(Valuation("planted", 2, 4, lambda b: moment_tensor(b, 2).tensor
                                           + _IDENTITY2.scale(volume(b))), [_SHEAR], _CROSS4),
     (False, F(187, 105), [{"sample_index": 0}])),
    (lambda: verify_covariance(_cascade_of(2), decimal_triangle, [[F(1, 3)] * 2, [F(-2, 5), 1]]),
     (True, 0, [{"y": ["1/3", "1/3"], "coefficient_rank": 3}])),
    (lambda: verify_covariance(_cascade_of(3), _BOX3, [[F(3, 10)] * 3, [F(-2, 5), 1, 1]]),
     (True, 0, [{"y": ["3/10", "3/10", "3/10"], "coefficient_rank": 3}])),
    (lambda: verify_covariance(_cascade_of(3, F(3, 2)), _BOX3, [[F(1, 3)] * 3]),
     (False, F(5, 12), [{"y": ["1/3", "1/3", "1/3"], "coefficient_rank": 2}])),
    (lambda: rehomogeneity_check(moment_valuation(4, 2), _CROSS4, F(7, 10)),
     (True, 0, [{"degree": 0, "lambda": "7/10"}])),
    (lambda: rehomogeneity_check(moment_valuation(2, 2), decimal_triangle, F(2, 7)),
     (True, 0, [{"degree": 0, "lambda": "2/7"}])),
    (lambda: rehomogeneity_check(Valuation("vol+vol^2", 0, 3, lambda b: SymTensor.scalar(
        3, volume(b) + volume(b) ** 2)), _BOX3, F(3, 2)),
     (False, F(7938875, 96), [{"degree": 1, "lambda": "3/2"}])),
    (lambda: transfer_check(lambda v: vector_power(v, 2), _RSHEAR, _BOX3),
     (True, 0, [{"det": "1"}])),
], ids=["equivariance-box", "equivariance-planted",
        "covariance-decimal-triangle", "covariance-decimal-shift", "covariance-planted",
        "rehomogeneity-decimal-lambda", "rehomogeneity-decimal-triangle", "rehomogeneity-planted",
        "transfer-box"])
def test_reports_on_fixed_inputs_are_unchanged(run, expected):
    """Reports of the four checks on fixed inputs, planted failures among
    them: the residual, a Fraction, and the witness, which for a passing
    check is its first pair's."""
    report = run()
    witnesses = [{k: v for k, v in w.items() if k != "matrix"} for w in report.witnesses]
    assert (report.passed, report.max_residual, witnesses) == expected
    assert type(report.max_residual) is Fraction


def test_passing_exact_checks_build_no_fraction_for_their_values(monkeypatch):
    """A passing exact equivariance check (a 6-simplex under 3 shears) and a
    passing covariance cascade compare their values on integer views: no
    moment, gl_action or shift_expansions tensor builds its Fraction
    coefficients, and no image (``polytope._image``) its Fraction vertices."""
    made, images = [], []

    def kept(fn, out):
        def run(*args):
            result = fn(*args)
            out.extend(result if isinstance(result, list) else [result])
            return result
        return run

    monkeypatch.setattr(moment, "moment_family", kept(moment.moment_family, made))
    monkeypatch.setattr(valuation_lab, "gl_action", kept(symtensor.gl_action, made))
    monkeypatch.setattr(valuation_lab, "shift_expansions", kept(symtensor.shift_expansions, made))
    monkeypatch.setattr(polytope, "_image", kept(polytope._image, images))
    rng = random.Random(7)
    body = simplex([[F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(6)]
                    for _ in range(7)])
    shears = [sl_mc_element("shear", 3, params={"p": p, "q": q, "re": F(1, 2), "im": F(-3, 2)})
              for p, q in ((0, 1), (1, 2), (2, 0))]
    assert verify_equivariance(moment_valuation(6, 2), shears, body).passed
    checked = images[:]
    cascade = [moment_valuation(4, k) for k in (2, 1, 0)]
    body4 = translate(crosspolytope([(1, F(1, 3), 0, 0), (0, 2, F(-1, 2), 0),
                                     (0, 0, F(3, 7), 1), (F(1, 5), 0, 0, 1)]), (F(1, 5), 0, -1, 2))
    images.clear()  # body4 is built by a translate, but it is the check's input
    shifts = [[F(1, 3), -1, 0, F(2, 5)], [2, F(-1, 7), 1, 0]]
    assert verify_covariance(cascade, body4, shifts).passed
    checked += images
    # z(K), three z(phi K) and three gl_action images; then M^2..M^0 of the
    # body and of two translates, and three expansions per translate.
    assert len(made) == 1 + 3 + 3 + 3 + 2 * 3 + 2 * 3 and len(checked) == 3 + 2
    assert not [t for t in made if "coeffs" in vars(t)]
    assert not [p for p in checked if "vertices" in vars(p)]
