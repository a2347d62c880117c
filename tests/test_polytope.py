import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valuta import linalg
from valuta.cplx import gram_schmidt, sample_subspace
from valuta.errors import GeometryError, ParseError
from valuta.polytope import (
    Polytope,
    _closes,
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
from valuta.symtensor import RMatrix, vector_power
from valuta.valuation_lab import cube_probe, transfer_check

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

    def test_untriangulated_bodies_match_triangulated_twins(self):
        tet = simplex([(0, 0, 0), (2, F(1, 3), 0), (1, 1, 1), (F(-1, 2), 0, 3)])
        pentagon = polygon([(0, 0), (2, 0), (3, 1), (1, F(5, 2)), (-1, 1)])
        for twin, atoms in ((tet, 4), (pentagon, 5)):
            bare = Polytope(twin.dim, twin.vertices)
            assert set(surface_area_measure(bare)) == set(surface_area_measure(twin))
            assert len(surface_area_measure(bare)) == atoms

    def test_untriangulated_body_needs_facets(self):
        with pytest.raises(GeometryError):
            surface_area_measure(Polytope(3, cube(3).vertices))

    @pytest.mark.parametrize("body", [
        simplex([(0, 0), (F(1, 3), 0), (F(1, 7), F(2, 5))]),
        simplex([(0, 0, 0), (F(1, 3), 0, F(1, 9)), (0, F(2, 7), 0), (F(1, 5), F(1, 11), 1)]),
        box([0, 0, 0], [F(1, 3), F(1, 7), F(2, 5)]),
        simplex([(F(1, 2), 0, -1, 0), (1, F(1, 3), 0, F(-2, 7)), (0, 2, F(-1, 2), 0),
                 (0, F(1, 5), F(3, 7), 1), (F(-1, 5), 0, 0, 1)]),
        # 8 atoms; rounding once split its float twin's facets into 20
        linear_image(RMatrix.from_rows([[1, F(1, 2), 0, 0], [0, 1, 0, 0], [0, 0, 1, F(-3, 2)],
                                        [F(1, 3), 0, 0, 1]]),
                     box([F(-1, 2), 0, F(1, 3), 0], [1, F(2, 7), F(5, 3), 2])),
    ])
    def test_float_atoms_match_exact(self, body):
        exact = surface_area_measure(body)
        as_float = surface_area_measure(Polytope(
            body.dim, tuple(tuple(float(x) for x in v) for v in body.vertices),
            body.triangulation))
        assert len(as_float) == len(exact)
        for f in exact:
            g = min(as_float, key=lambda g: max(
                abs(float(a) - b) for a, b in zip(f.direction, g.direction)))
            assert all(isinstance(x, float) for x in g.direction + (g.offset,))
            assert max(abs(float(a) - b) for a, b in zip(f.direction, g.direction)) <= 1e-12
            assert abs(float(f.offset) - g.offset) <= 1e-12
            assert math.isclose(g.measure, float(f.measure), rel_tol=1e-12)

    def test_large_float_tetrahedra_close_up(self):
        # Area vectors of size ~1e6 sum to ~1e-10 in floats: an absolute
        # 1e-12 closedness tolerance rejected nearly all of these.
        rng = random.Random(7)
        for _ in range(200):
            pts = tuple(tuple(rng.uniform(-1000, 1000) for _ in range(3)) for _ in range(4))
            atoms = surface_area_measure(Polytope(3, pts, ((0, 1, 2, 3),)))
            assert len(atoms) == 4
            assert all(isinstance(x, float) for f in atoms for x in f.direction)

    def test_float_atoms_that_do_not_close_are_rejected(self):
        square = ((0.0, 0.0), (1000.0, 0.0), (1000.0, 1000.0), (0.0, 1000.0))
        with pytest.raises(GeometryError):
            surface_area_measure(Polytope(2, square, ((0, 1, 2), (0, 2, 3), (0, 1, 3))))
        pts = ((-310.5, 12.25, 998.0), (640.0, -75.5, 3.0), (2.5, 870.0, -41.0),
               (-5.0, -600.25, -720.0))
        atoms = surface_area_measure(Polytope(3, pts, ((0, 1, 2, 3),)))
        assert _closes(atoms, 3)
        bent = (replace(atoms[0], direction=tuple(x * (1 + 1e-9) for x in atoms[0].direction)),)
        assert not _closes(bent + atoms[1:], 3)

    @pytest.mark.parametrize("body, faces", [
        (box([F(1, 3), F(-2, 7), 0, F(1, 2)], [F(5, 3), F(3, 7), 2, F(7, 4)]), 48),
        (translate(crosspolytope([(1, F(1, 3), 0, 0), (0, 2, F(-1, 2), 0), (0, 0, F(3, 7), 1),
                                  (F(1, 5), 0, 0, 1)]), (F(1, 2), 0, -1, 0)), 16),
    ], ids=["kuhn-box4", "cross4"])
    def test_one_elimination_per_boundary_face(self, body, faces, monkeypatch):
        """A Kuhn 4-box has 8 facets of 6 simplices each and a 4-crosspolytope
        16 cones with one outer face: one elimination each gives all n minors."""
        calls = []
        real = linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate", lambda *a, **k: calls.append(1) or real(*a, **k))
        surface_area_measure(body)
        assert len(calls) == faces

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

    @pytest.mark.parametrize("s", [1, 10 ** 3, 10 ** 6, 10 ** 9])
    def test_float_residual_is_relative(self, s):
        l = sample_subspace(3, 3, 1)
        probe = cube_probe(l)
        vol = subspace_volume(scale(probe, s), l)
        assert vol / s ** 3 == pytest.approx(1, abs=1e-9)

    @pytest.mark.parametrize("s", [1, 10 ** 9])
    def test_float_point_off_by_1e6_relative_rejected(self, s):
        l = sample_subspace(3, 3, 1)
        normal = gram_schmidt([tuple(float(i == k) for k in range(6)) for i in range(6)],
                              1e-9, l.basis)[0]
        b1, b2, b3 = l.basis
        apex = tuple(s * (x + 1e-6 * y) for x, y in zip(b3, normal))
        tet = Polytope(6, ((0.0,) * 6, tuple(s * x for x in b1), tuple(s * x for x in b2), apex),
                       ((0, 1, 2, 3),))
        with pytest.raises(GeometryError, match="does not lie"):
            subspace_volume(tet, l)


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

    @pytest.mark.parametrize("body", [
        box([0, F(-1, 2), 1], [F(1, 3), 2, F(7, 4)]),
        translate(crosspolytope([(1, 0, 0), (1, 2, 0), (0, F(1, 2), 3)]), (F(1, 3), -1, 2)),
    ])
    def test_box_and_cross_round_trips_with_facets(self, body):
        p = with_facets(body)
        q = Polytope.from_json_dict(p.to_json_dict())
        assert set(q.facets) == set(p.facets)
        assert volume(q) == volume(p)


def _square_json(triangulation, facets=True, aux=()):
    data = {"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "triangulation": triangulation, "aux_points": [list(a) for a in aux]}
    if facets:
        data["facets"] = [{"normal": n, "measure": "1"}
                          for n in ([1, 0], [-1, 0], [0, 1], [0, -1])]
    return data


class TestImportValidation:
    overlapping = [[0, 1, 2], [0, 2, 3], [0, 1, 3]]

    def test_valid_square_loads(self):
        q = Polytope.from_json_dict(_square_json([[0, 1, 2], [0, 2, 3]]))
        assert volume(q) == 1

    def test_overlapping_cells_rejected_by_divergence_theorem(self):
        # The three cells cover the square one and a half times: volume 3/2,
        # while the facets' offsets sum to n * 1.
        with pytest.raises(ParseError):
            Polytope.from_json_dict(_square_json(self.overlapping))

    def test_overlapping_cells_have_no_surface_area_measure(self):
        q = Polytope.from_json_dict(_square_json(self.overlapping, facets=False))
        with pytest.raises(GeometryError):
            surface_area_measure(q)

    @pytest.mark.parametrize("triangulation, aux", [
        ([[0, 1, 1]], ()),
        ([[0, 1, 2], [0, 2]], ()),
        ([[0, 1, 2, 3]], ()),
        ([[0, 1, 2], [0, 2, 3], [0, 1, 4]], ((F(1, 2), 0),)),
        ([[0, 1, 5]], ()),
    ])
    def test_bad_triangulations_rejected(self, triangulation, aux):
        with pytest.raises(ParseError):
            Polytope.from_json_dict(_square_json(triangulation, facets=False, aux=aux))

    def test_open_facets_rejected(self):
        data = _square_json([[0, 1, 2], [0, 2, 3]])
        data["facets"][0]["measure"] = "2"
        with pytest.raises(ParseError):
            Polytope.from_json_dict(data)


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


@settings(max_examples=30, deadline=None)
@given(lo=st.lists(small_rats, min_size=2, max_size=4), data=st.data())
def test_box_atoms_are_side_products(lo, data):
    """Independent of the triangulation: the facet normal to e_i has area
    prod_{j != i} side_j and offsets area * hi_i and -area * lo_i."""
    n = len(lo)
    sides = data.draw(st.lists(st.builds(F, st.integers(1, 9), st.integers(1, 4)),
                               min_size=n, max_size=n))
    hi = [a + s for a, s in zip(lo, sides)]
    expected = set()
    for i in range(n):
        area = math.prod(sides[j] for j in range(n) if j != i)
        e = tuple(area if j == i else 0 for j in range(n))
        expected.add((e, area * hi[i]))
        expected.add((tuple(-x for x in e), -area * lo[i]))
    assert {(f.direction, f.offset) for f in surface_area_measure(box(lo, hi))} == expected


@st.composite
def full_bodies_and_invertible_maps(draw):
    body, rows = draw(bodies_and_maps())
    if body.dim == 2 and draw(st.booleans()):
        try:
            body = polygon(draw(st.lists(st.tuples(small_rats, small_rats), min_size=3,
                                         max_size=7)))
        except GeometryError:
            pass
    phi = RMatrix.from_rows(rows)
    assume(phi.det != 0)
    return body, rows, phi


@settings(max_examples=40, deadline=None)
@given(case=full_bodies_and_invertible_maps())
def test_image_atoms_are_mapped_area_vectors(case):
    """The atoms of phi(P) are |det phi| phi^{-T} a_F at offsets <a', phi v>
    for a vertex v on F, and each offset is the image's support value."""
    body, rows, phi = case
    inv_t = phi.inverse_transpose()
    expected = set()
    for f in surface_area_measure(body):
        mapped = tuple(abs(phi.det) * x for x in inv_t.matvec(f.direction))
        on_face = max(body.vertices, key=lambda v: sum(a * b for a, b in zip(f.direction, v)))
        offset = sum(a * b for a, b in zip(mapped, _matvec(rows, on_face)))
        expected.add((mapped, offset))
    image = linear_image(phi, body)
    atoms = surface_area_measure(image)
    assert {(f.direction, f.offset) for f in atoms} == expected
    assert all(f.offset == support(image, f.direction) for f in atoms)


@pytest.mark.parametrize("rows", [
    [[1, F(1, 2), 0], [0, 1, F(-3, 2)], [0, 0, 1]],
    [[1, 0, 0, 0], [F(3, 2), 1, 0, 0], [0, 2, 1, F(-1, 2)], [0, 0, 0, 1]],
])
def test_transfer_on_sheared_box(rows):
    n = len(rows)
    body = box([F(-1, 2)] * n, [F(k + 1, 3) for k in range(n)])
    phi = RMatrix.from_rows(rows)
    assert len(surface_area_measure(linear_image(phi, body))) == 2 * n
    corner = simplex([[0] * n] + [[int(i == k) for i in range(n)] for k in range(n)])
    for f in (lambda v: vector_power(v, 2), lambda v: support(corner, v)):
        assert transfer_check(f, phi, body).passed


@pytest.mark.parametrize("body", [
    std_triangle,
    translate(crosspolytope([(1, F(1, 3), 0), (0, 2, F(-1, 2)), (0, 0, F(3, 7))]), (F(1, 5), 0, -1)),
], ids=["triangle", "off-centre-cross3"])
def test_linear_image_of_a_float_matrix_gives_float_points(body):
    """A float phi maps to float points within 1e-12 of the exact twin's;
    the exact twin still maps to Fractions."""
    rows = [[F(int(i == k)) + (F(1, 2) if k == i + 1 else 0) - (F(1, 3) if k + 1 == i else 0)
             for k in range(body.dim)] for i in range(body.dim)]
    exact = linear_image(RMatrix.from_rows(rows), body)
    floats = linear_image(RMatrix.from_rows([[float(x) for x in row] for row in rows]), body)
    assert all(type(x) is Fraction for v in exact.points for x in v)
    assert all(type(x) is float for v in floats.points for x in v)
    assert floats.triangulation == exact.triangulation
    for u, v in zip(floats.points, exact.points):
        assert all(abs(a - b) <= 1e-12 * max(1, abs(b)) for a, b in zip(u, v))


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
    crosspolytope centre, facets."""
    body, lam = case
    diag = RMatrix.diag([lam] * body.dim)
    for b in (body, with_facets(body)):
        assert scale(b, lam) == linear_image(diag, b)


def _all_float(body):
    return all(isinstance(x, float) for v in body.points for x in v)


def test_scale_of_a_float_body_or_factor_is_float():
    tri = Polytope(2, ((0.0, 0.0), (1.5, 0.0), (0.0, 1.0)), ((0, 1, 2),))
    doubled = scale(tri, 2)
    assert doubled.vertices == ((0.0, 0.0), (3.0, 0.0), (0.0, 2.0)) and _all_float(doubled)
    halved = scale(std_triangle, 0.5)
    assert halved.vertices == ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5)) and _all_float(halved)
    exact = scale(std_triangle, F(1, 2))
    assert all(type(x) is Fraction for v in exact.vertices for x in v)
    assert exact.vertices == halved.vertices


def test_linear_image_of_a_float_body_is_float():
    phi = RMatrix.from_rows([[1, F(1, 2), 0], [0, 1, 0], [F(-1, 3), 0, 2]])
    body = crosspolytope([(1, 0, 0), (0, 2, 0), (F(1, 2), 0, 1)])
    as_float = Polytope(3, tuple(tuple(float(x) for x in v) for v in body.vertices),
                        body.triangulation, tuple(tuple(float(x) for x in v)
                                                  for v in body.aux_points))
    got, want = linear_image(phi, as_float), linear_image(phi, body)
    assert _all_float(got) and got.triangulation == want.triangulation
    for a, b in zip(got.points, want.points, strict=True):
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-12
