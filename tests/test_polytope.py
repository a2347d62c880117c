from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuta.errors import GeometryError
from valuta.polytope import (
    Polytope,
    box,
    crosspolytope,
    cube,
    linear_image,
    minkowski_sum_2d,
    polygon,
    scale,
    simplex,
    subspace_volume,
    support,
    surface_area_measure,
    translate,
    volume,
    with_facets,
)
from valuta.symtensor import RMatrix

F = Fraction

std_triangle = simplex([(0, 0), (1, 0), (0, 1)])
unit_square = cube(2)


class TestGenerators:
    def test_standard_triangle_volume(self):
        assert volume(std_triangle) == F(1, 2)

    def test_stretched_triangle_volume(self):
        assert volume(simplex([(0, 0), (2, 0), (0, 1)])) == 1

    def test_sheared_triangle_volume(self):
        assert volume(simplex([(0, 0), (1, 0), (1, 1)])) == F(1, 2)

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(GeometryError):
            simplex([(0, 0), (1, 1), (2, 2)])

    def test_cross_square(self):
        sq = crosspolytope([(1, 0), (0, 1)])
        assert set(sq.vertices) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        assert volume(sq) == 2

    def test_cross_r4_volume(self):
        c = crosspolytope([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        assert len(c.triangulation) == 16
        assert volume(c) == F(2, 3)

    def test_cross_stretched(self):
        assert volume(crosspolytope([(2, 0), (0, 1)])) == 4

    def test_cross_dependent_rejected(self):
        with pytest.raises(GeometryError):
            crosspolytope([(1, 0), (2, 0)])

    def test_unit_cube_r4(self):
        assert volume(cube(4)) == 1

    def test_standard_simplex_r4(self):
        verts = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        assert volume(simplex(verts)) == F(1, 24)


class TestAffineMaps:
    def test_translate_vertices(self):
        moved = translate(std_triangle, (1, 0))
        assert set(moved.vertices) == {(1, 0), (2, 0), (1, 1)}

    def test_diag_image_scales_volume(self):
        img = linear_image(RMatrix.diag([2, 1]), std_triangle)
        assert volume(img) == 1

    def test_shear_preserves_volume(self):
        shear = RMatrix.from_rows([[1, 1], [0, 1]])
        assert volume(linear_image(shear, unit_square)) == 1

    def test_scale_homogeneity(self):
        assert volume(scale(std_triangle, F(3, 2))) == F(9, 8)


class TestSurfaceAreaMeasure:
    def test_unit_square_atoms(self):
        dirs = {f.direction for f in surface_area_measure(unit_square)}
        assert dirs == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_triangle_atoms_are_area_vectors(self):
        dirs = {f.direction for f in surface_area_measure(std_triangle)}
        assert dirs == {(0, -1), (-1, 0), (1, 1)}

    def test_triangle_hypotenuse_measure(self):
        hyp = next(
            f for f in surface_area_measure(std_triangle) if f.direction == (1, 1))
        assert hyp.measure_sq == 2
        assert hyp.measure == pytest.approx(2 ** 0.5)
        assert hyp.unit_normal == pytest.approx((2 ** -0.5, 2 ** -0.5))

    def test_flat_box_weights(self):
        b = box([0, 0], [1, 2])
        dirs = {f.direction for f in surface_area_measure(b)}
        assert dirs == {(2, 0), (-2, 0), (0, 1), (0, -1)}

    def test_atoms_close_up_r4(self):
        c = crosspolytope([(1, 0, 0, 0), (0, 2, 0, 0), (1, 1, 1, 0), (0, 0, 0, 1)])
        facets = surface_area_measure(c)
        assert len(facets) == 16
        sums = [sum(f.direction[i] for f in facets) for i in range(4)]
        assert sums == [0, 0, 0, 0]

    def test_offsets_dominate_vertices(self):
        for f in surface_area_measure(std_triangle):
            assert all(
                sum(a * b for a, b in zip(f.direction, v)) <= f.offset
                for v in std_triangle.vertices)


class TestSupport:
    def test_square_e1(self):
        assert support(unit_square, (1, 0)) == 1

    def test_square_minus_e1(self):
        assert support(unit_square, (-1, 0)) == 0

    def test_triangle_diagonal(self):
        assert support(std_triangle, (1, 1)) == 1


class TestSubspaceVolume:
    def test_unit_segment(self):
        seg = simplex([(0, 0), (1, 0)])
        assert subspace_volume(seg, [(F(1), F(0))]) == 1

    def test_square_in_r4(self):
        u1 = (F(1), 0, 0, 0)
        u2 = (0, 0, F(1), 0)
        verts = [
            (0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0)]
        sq = Polytope(4, tuple(tuple(F(x) for x in v) for v in verts),
                      triangulation=((0, 1, 2), (3, 1, 2)))
        assert subspace_volume(sq, [u1, u2]) == 1

    def test_simplex_in_subspace(self):
        tri = simplex([(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0)])
        assert subspace_volume(tri, [(F(1), 0, 0, 0), (0, 0, F(1), 0)]) == F(1, 2)

    def test_rejects_outside_points(self):
        tri = simplex([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)])
        with pytest.raises(GeometryError):
            subspace_volume(tri, [(F(1), 0, 0, 0)])


class TestMixedVolumePairing:
    def test_minkowski_sum_area(self):
        total = minkowski_sum_2d(std_triangle, unit_square)
        assert volume(total) == F(7, 2)

    def test_pairing_matches_mixed_volume(self):
        # sum of h_C over area vectors = 2 V(P, C) = V(P+C) - V(P) - V(C)
        pairing = sum(
            support(unit_square, f.direction) for f in surface_area_measure(std_triangle))
        assert pairing == 2
        mixed_twice = (
            volume(minkowski_sum_2d(std_triangle, unit_square))
            - volume(std_triangle) - volume(unit_square))
        assert pairing == mixed_twice


class TestJson:
    def test_round_trip_with_facets(self):
        from valuta.polytope import with_facets

        p = with_facets(std_triangle)
        data = p.to_json_dict()
        q = Polytope.from_json_dict(data)
        assert q.vertices == p.vertices
        assert q.triangulation == p.triangulation
        assert {f.direction for f in q.facets} == {f.direction for f in p.facets}
        assert volume(q) == volume(p)

    def test_cross_round_trip_keeps_aux(self):
        c = crosspolytope([(1, 0), (0, 1)])
        q = Polytope.from_json_dict(c.to_json_dict())
        assert volume(q) == 2


small_rats = st.builds(F, st.integers(min_value=-4, max_value=4),
                       st.integers(min_value=1, max_value=3))


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(st.lists(small_rats, min_size=3, max_size=3), min_size=3, max_size=3),
       shift=st.lists(small_rats, min_size=3, max_size=3))
def test_volume_covariance_r3(rows, shift):
    base = simplex([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    phi = RMatrix.from_rows(rows)
    expected = abs(phi.det) * volume(base)
    assert volume(linear_image(phi, base)) == expected
    assert volume(translate(linear_image(phi, base), shift)) == expected


@settings(max_examples=25, deadline=None)
@given(pts=st.lists(st.tuples(small_rats, small_rats), min_size=3, max_size=8))
def test_polygon_atoms_close(pts):
    try:
        p = polygon(pts)
    except GeometryError:
        return
    facets = surface_area_measure(p)
    assert sum(f.direction[0] for f in facets) == 0
    assert sum(f.direction[1] for f in facets) == 0
    assert volume(p) > 0


def _matvec(rows, v):
    return tuple(sum((a * b for a, b in zip(row, v)), F(0)) for row in rows)


@st.composite
def bodies_and_maps(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    point = st.lists(small_rats, min_size=n, max_size=n)
    kind = draw(st.sampled_from(["simplex", "cross", "box"]))
    try:
        if kind == "simplex":
            body = simplex(draw(st.lists(point, min_size=n + 1, max_size=n + 1)))
        elif kind == "cross":
            body = translate(crosspolytope(draw(st.lists(point, min_size=n, max_size=n))),
                             draw(point))
        else:
            lo = draw(point)
            body = box(lo, [a + 1 + abs(b) for a, b in zip(lo, draw(point))])
    except GeometryError:
        body = cube(n)
    rows = draw(st.lists(point, min_size=n, max_size=n))
    return body, rows


@settings(max_examples=40, deadline=None)
@given(case=bodies_and_maps())
def test_linear_image_matches_fraction_matvec(case):
    body, rows = case
    image = linear_image(RMatrix.from_rows(rows), body)
    assert image.vertices == tuple(_matvec(rows, v) for v in body.vertices)
    assert image.aux_points == tuple(_matvec(rows, v) for v in body.aux_points)
    assert all(isinstance(x, Fraction) for v in image.points for x in v)
    assert image.triangulation == body.triangulation
    if body.kind == "crosspolytope":
        assert image.kind_data == (_matvec(rows, body.kind_data[0]),)
        assert image.kind_data[0] == image.aux_points[0]


def test_linear_image_rejects_float_matrix():
    phi = RMatrix.from_rows([[1.0, 0.5], [0.0, 1.0]], exact=False)
    with pytest.raises(TypeError):
        linear_image(phi, std_triangle)


@st.composite
def bodies_and_factors(draw):
    body, _ = draw(bodies_and_maps())
    if draw(st.booleans()):
        try:
            body = polygon(draw(st.lists(st.tuples(small_rats, small_rats), min_size=3,
                                         max_size=7)))
        except GeometryError:
            pass
    lam = draw(st.sampled_from([F(-1), F(2), F(-3, 2), F(2, 7), F(-5, 12), F(0)])
               | st.builds(F, st.integers(-9, 9), st.integers(1, 12)))
    return body, lam


@settings(max_examples=60, deadline=None)
@given(case=bodies_and_factors())
def test_scale_matches_linear_image_of_a_diagonal(case):
    """Dilation equals the image under lam times the identity: points,
    kind (box and polygon become generic), crosspolytope centre, facets."""
    body, lam = case
    diag = RMatrix.diag([lam] * body.dim)
    for b in (body, with_facets(body)):
        assert scale(b, lam) == linear_image(diag, b)


def test_scale_rejects_floats():
    with pytest.raises(TypeError):
        scale(Polytope(2, ((0.5, 0), (1, 0), (0, 1)), ((0, 1, 2),)), 2)
    with pytest.raises(TypeError):
        scale(std_triangle, 0.5)
