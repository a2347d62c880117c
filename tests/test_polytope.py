import itertools
import json
import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    centre_cone_crosspolytope, cofactor_normal, float_twin, mat_vec_fractions, support,
)
from valuta import linalg, polytope
from valuta.cplx import Subspace, sample_subspace
from valuta.errors import GeometryError, ParseError
from valuta.moment import moment_family
from valuta.polytope import (
    Polytope,
    box,
    crosspolytope,
    cube,
    linear_image,
    polygon,
    scale,
    simplex,
    subspace_volume,
    surface_area_measure,
    translate,
    validate,
    volume,
)
from valuta.symtensor import (
    RMatrix,
    SymTensor,
    format_rational,
    gl_action,
    shift_expansions,
    vector_power,
)
from valuta.valuation_lab import cube_probe, mcmullen_decompose, moment_valuation, transfer_check

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
        assert len(c.triangulation) == 8
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


def _frame(j, n):
    """j rational vectors in R^n, each e_i plus (i + 1)/3 e_(i+1)."""
    return [[F(int(i == k)) + (F(i + 1, 3) if k == (i + 1) % n and n > 1 else 0)
             for k in range(n)] for i in range(j)]


@pytest.mark.parametrize("j, n, shift", [
    (1, 1, None), (1, 1, [F(2, 3)]), (2, 2, None), (2, 2, [F(-1, 2), F(1, 5)]),
    (3, 3, None), (3, 3, [F(1, 3), -1, F(2, 7)]), (4, 4, None),
    (4, 4, [F(1, 2), 0, F(-3, 4), 1]), (5, 5, None), (5, 5, [F(k - 2, 7) for k in range(5)]),
    (2, 3, [1, F(1, 2), F(-1, 3)]),
])
def test_crosspolytope_matches_centre_cones(j, n, shift):
    """Pulled from +v_1, with no centre, a crosspolytope has exactly the
    volume, moments up to rank 3 and atoms (as a multiset) of the 2^j cones
    over its centre, centred or translated; a flat one (j < n) has volume 0
    and no atoms on either triangulation."""
    vecs = _frame(j, n)
    pulled, cones = crosspolytope(vecs), centre_cone_crosspolytope(vecs)
    assert len(pulled.triangulation) == 2 ** (j - 1) and len(pulled.vertices) == 2 * j
    if shift is not None:
        pulled, cones = translate(pulled, shift), translate(cones, shift)
    assert volume(pulled) == volume(cones)
    assert moment_family(pulled, 3) == moment_family(cones, 3)
    if j < n:
        assert volume(pulled) == 0
        for body in (pulled, cones):
            with pytest.raises(GeometryError, match="full-dimensional"):
                surface_area_measure(body)
    else:
        assert volume(pulled) == F(2 ** j, math.factorial(j)) * abs(linalg.det(vecs))
        assert Counter(surface_area_measure(pulled)) == Counter(surface_area_measure(cones))


def test_list_cells_are_kept_as_tuples():
    """A body built in code with list cells keeps them as tuples, so it can
    be hashed and equals its twin given tuple cells."""
    pts = [(0, 0), (1, 0), (0, 1)]
    listed, tupled = Polytope(2, pts, [[0, 1, 2]]), Polytope(2, pts, ((0, 1, 2),))
    assert listed.triangulation == ((0, 1, 2),)
    assert listed == tupled and hash(listed) == hash(tupled)


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
        assert sum(x * x for x in hyp.direction) == 2

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
        """A JSON body without a triangulation is the simplex on its n + 1
        vertices, or in the plane their polygon."""
        tet = simplex([(0, 0, 0), (2, F(1, 3), 0), (1, 1, 1), (F(-1, 2), 0, 3)])
        pentagon = polygon([(0, 0), (2, 0), (3, 1), (1, F(5, 2)), (-1, 1)])
        for twin, atoms in ((tet, 4), (pentagon, 5)):
            bare = Polytope.from_json_dict(_untriangulated_json(twin))
            assert set(surface_area_measure(bare)) == set(surface_area_measure(twin))
            assert len(surface_area_measure(bare)) == atoms
            assert volume(bare) == volume(twin)

    def test_untriangulated_body_needs_facets(self):
        """Other untriangulated bodies are refused, with or without facets."""
        data = _untriangulated_json(cube(3))
        with pytest.raises(ParseError):
            Polytope.from_json_dict(data)
        with pytest.raises(ParseError):
            Polytope.from_json_dict({**data, "facets": _facet_json(cube(3))["facets"]})

    ATOM_BODIES = pytest.mark.parametrize("body", [
        simplex([(0, 0), (F(1, 3), 0), (F(1, 7), F(2, 5))]),
        simplex([(0, 0, 0), (F(1, 3), 0, F(1, 9)), (0, F(2, 7), 0), (F(1, 5), F(1, 11), 1)]),
        box([0, 0, 0], [F(1, 3), F(1, 7), F(2, 5)]),
        simplex([(F(1, 2), 0, -1, 0), (1, F(1, 3), 0, F(-2, 7)), (0, 2, F(-1, 2), 0),
                 (0, F(1, 5), F(3, 7), 1), (F(-1, 5), 0, 0, 1)]),
        # 8 atoms, each the sum of the area vectors of several faces
        linear_image(RMatrix.from_rows([[1, F(1, 2), 0, 0], [0, 1, 0, 0], [0, 0, 1, F(-3, 2)],
                                        [F(1, 3), 0, 0, 1]]),
                     box([F(-1, 2), 0, F(1, 3), 0], [1, F(2, 7), F(5, 3), 2])),
    ])

    @ATOM_BODIES
    def test_atoms_support_the_body_and_close_up(self, body):
        """Each atom's offset is the support function at its direction,
        the directions sum to zero and the offsets to n times the volume."""
        atoms = surface_area_measure(body)
        assert len({f.direction for f in atoms}) == len(atoms)
        assert all(f.offset == support(body, f.direction) for f in atoms)
        assert not any(map(sum, zip(*(f.direction for f in atoms))))
        assert sum(f.offset for f in atoms) == body.dim * volume(body)

    @ATOM_BODIES
    def test_float_atoms_match_exact(self, body):
        """The atoms of the body read from a JSON document of its
        coordinates as floats, each put with the exact atom nearest it in
        angle, sum to within 1e-12 of that atom's direction and offset.  A
        facet that rounding tilts apart splits into pieces that add up to
        it, as the facets of the last body do."""
        exact = surface_area_measure(body)
        groups = [[] for _ in exact]

        def signed_cos2(f, g):
            dot = sum(a * b for a, b in zip(f.direction, g.direction))
            norms = sum(a * a for a in f.direction) * sum(b * b for b in g.direction)
            return dot * abs(dot) / norms

        for g in surface_area_measure(float_twin(body)):
            groups[max(range(len(exact)), key=lambda i: signed_cos2(exact[i], g))].append(g)
        assert all(groups)
        for f, gs in zip(exact, groups):
            total = [sum(xs) for xs in zip(*(g.direction for g in gs))]
            assert max(abs(a - b) for a, b in zip(f.direction, total)) * 10 ** 12 <= 1
            assert abs(f.offset - sum(g.offset for g in gs)) * 10 ** 12 <= 1

    def test_large_tetrahedra_close_up(self):
        rng = random.Random(7)
        for _ in range(50):
            pts = tuple(tuple(F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 999))
                              for _ in range(3)) for _ in range(4))
            if linalg.rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) < 3:
                continue
            atoms = surface_area_measure(Polytope(3, pts, ((0, 1, 2, 3),)))
            assert len(atoms) == 4
            assert not any(map(sum, zip(*(f.direction for f in atoms))))

    def test_float_atoms_that_do_not_close_are_rejected(self):
        """A square whose cells overlap does not close up: given in floats
        it is refused on construction, read from JSON floats its import is
        refused, and given exactly its atoms are rejected."""
        square = ((0.0, 0.0), (1000.0, 0.0), (1000.0, 1000.0), (0.0, 1000.0))
        cells = ((0, 1, 2), (0, 2, 3), (0, 1, 3))
        with pytest.raises(TypeError):
            Polytope(2, square, cells)
        with pytest.raises(ParseError, match="close up"):
            Polytope.from_json_dict(json.loads(json.dumps(
                {"dim": 2, "vertices": square, "triangulation": cells})))
        with pytest.raises(GeometryError, match="close up"):
            surface_area_measure(Polytope(2, tuple(tuple(map(int, v)) for v in square), cells))

    @pytest.mark.parametrize("body, faces", [
        (box([F(1, 3), F(-2, 7), 0, F(1, 2)], [F(5, 3), F(3, 7), 2, F(7, 4)]), 48),
        (translate(crosspolytope([(1, F(1, 3), 0, 0), (0, 2, F(-1, 2), 0), (0, 0, F(3, 7), 1),
                                  (F(1, 5), 0, 0, 1)]), (F(1, 2), 0, -1, 0)), 16),
    ], ids=["kuhn-box4", "cross4"])
    def test_atoms_extend_each_face_prefix_once(self, body, faces, monkeypatch):
        """The boundary faces (48 of a Kuhn 4-box, 16 of a 4-crosspolytope)
        are walked in sorted order with no elimination: each distinct prefix
        of 2..n vertices extends the exterior product once (one
        ``mul_form``), so faces that share a prefix share its minors."""
        calls, eliminations = [], []
        real_form, real_eliminate = polytope.mul_form, linalg._eliminate
        monkeypatch.setattr(polytope, "mul_form", lambda *a: calls.append(1) or real_form(*a))
        monkeypatch.setattr(linalg, "_eliminate",
                            lambda *a, **k: eliminations.append(1) or real_eliminate(*a, **k))
        surface_area_measure(body)
        n = body.dim
        shared = Counter(tuple(sorted(c[:k] + c[k + 1:])) for c in body.triangulation
                         for k in range(n + 1))
        boundary = [face for face, count in shared.items() if count == 1]
        assert len(boundary) == faces and not eliminations
        assert len(calls) == len({face[:j] for face in boundary for j in range(2, n + 1)})

    def test_offsets_dominate_vertices(self):
        for f in surface_area_measure(std_triangle):
            assert all(
                sum(a * b for a, b in zip(f.direction, v)) <= f.offset
                for v in std_triangle.vertices)


class TestSupport:
    """An atom's offset is the body's support value at its direction."""

    @staticmethod
    def offset(body, direction):
        return next(f.offset for f in surface_area_measure(body) if f.direction == direction)

    def test_square_e1(self):
        assert self.offset(unit_square, (1, 0)) == 1

    def test_square_minus_e1(self):
        assert self.offset(unit_square, (-1, 0)) == 0

    def test_triangle_diagonal(self):
        assert self.offset(std_triangle, (1, 1)) == 1


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
    def test_dilated_probe_has_the_dilated_volume(self, s):
        """A sampled subspace's cube probe dilated by s, or by 1/s, has
        volume s^3, or s^-3, exactly."""
        l = sample_subspace(3, 3, 1)
        probe = cube_probe(l)
        assert subspace_volume(scale(probe, s), l) == s ** 3
        assert subspace_volume(scale(probe, F(1, s)), l) == F(1, s ** 3)

    @pytest.mark.parametrize("s", [1, 10 ** 9])
    def test_float_point_off_by_1e6_relative_rejected(self, s):
        """A body one of whose points leaves the subspace along a normal by
        1e-6 of its length is refused at every scale: in floats on
        construction, and exactly, or read from JSON floats, because that
        point does not lie in the subspace."""
        l = sample_subspace(3, 3, 1)
        w = linalg.nullspace(l.basis)[0]
        b1, b2, b3 = l.basis
        apex = tuple(s * (x + F(1, 10 ** 6) * y) for x, y in zip(b3, w))
        tet = Polytope(6, ((0,) * 6, tuple(s * x for x in b1), tuple(s * x for x in b2), apex),
                       ((0, 1, 2, 3),))
        with pytest.raises(GeometryError, match="does not lie"):
            subspace_volume(tet, l)
        with pytest.raises(GeometryError, match="does not lie"):
            subspace_volume(float_twin(tet), l)
        with pytest.raises(TypeError):
            Polytope(6, tuple(tuple(map(float, v)) for v in tet.vertices), tet.triangulation)

    @pytest.mark.parametrize("basis", [
        ((1, 0, 0, 0), (0, 2, 0, 0)),
        ((1, 0, 0, 0), (F(1, 2), 1, 0, 0)),
    ], ids=["exact-long", "exact-skew"])
    def test_rejects_a_basis_that_is_not_orthonormal(self, basis):
        """A hand-built ``Subspace`` is not checked on construction: on a
        basis that is not orthonormal, ``subspace_volume`` refuses the
        subspace's own cube probe for the basis, not for the probe."""
        l = Subspace(4, basis)
        with pytest.raises(GeometryError, match="basis is not orthonormal"):
            subspace_volume(cube_probe(l), l)
        with pytest.raises(GeometryError, match="basis is not orthonormal"):
            subspace_volume(cube_probe(l), basis)


def _minkowski_sum_2d(p, q):
    """The planar Minkowski sum: the polygon of all pairwise vertex sums."""
    return polygon([tuple(map(operator.add, a, b)) for a in p.vertices for b in q.vertices])


class TestMixedVolumePairing:
    def test_minkowski_sum_area(self):
        total = _minkowski_sum_2d(std_triangle, unit_square)
        assert volume(total) == F(7, 2)

    def test_pairing_matches_mixed_volume(self):
        # sum of h_C over area vectors = 2 V(P, C) = V(P+C) - V(P) - V(C)
        pairing = sum(
            support(unit_square, f.direction) for f in surface_area_measure(std_triangle))
        assert pairing == 2
        mixed_twice = (
            volume(_minkowski_sum_2d(std_triangle, unit_square))
            - volume(std_triangle) - volume(unit_square))
        assert pairing == mixed_twice


def _facet_json(body) -> dict:
    """The body's JSON with its atoms added as facets, each written as its
    area vector."""
    return {**body.to_json_dict(), "facets": [
        {"normal": [format_rational(x) for x in f.direction]} for f in surface_area_measure(body)]}


def _untriangulated_json(body) -> dict:
    return {"dim": body.dim, "vertices": body.to_json_dict()["vertices"]}


def _centred_cross_json(vecs) -> dict:
    """A crosspolytope as bodies that stored its centre wrote it: the 2^j
    cones over the centre, written as the one aux point (index 2j)."""
    data = centre_cone_crosspolytope(vecs).to_json_dict()
    data["aux_points"] = [data["vertices"].pop()]
    return data


class TestJson:
    def test_round_trip_with_facets(self):
        """A body's JSON holds no facets and reads back as the body; with its
        atoms added as facets it is refused, facets being read off the
        triangulation."""
        p = std_triangle
        assert set(p.to_json_dict()) == {"dim", "vertices", "triangulation"}
        q = Polytope.from_json_dict(p.to_json_dict())
        assert q == p
        assert surface_area_measure(q) == surface_area_measure(p)
        with pytest.raises(ParseError, match="facets"):
            Polytope.from_json_dict(_facet_json(p))

    def test_cross_round_trip_keeps_aux(self):
        """A crosspolytope written with its centre as an aux point imports
        with the centre as one more vertex: the same volume and moments as
        the crosspolytope without it, which round-trips as itself."""
        vecs = [(1, F(1, 3), 0), (0, 2, F(-1, 2)), (F(1, 5), 0, F(3, 7))]
        legacy = Polytope.from_json_dict(_centred_cross_json(vecs))
        c = crosspolytope(vecs)
        assert legacy.vertices == c.vertices + ((0, 0, 0),)
        assert (len(legacy.triangulation), len(c.triangulation)) == (8, 4)
        assert volume(legacy) == volume(c) == F(8, 6) * abs(linalg.det(vecs))
        assert moment_family(legacy, 3) == moment_family(c, 3)
        assert Polytope.from_json_dict(c.to_json_dict()) == c

    @pytest.mark.parametrize("body", [
        box([0, F(-1, 2), 1], [F(1, 3), 2, F(7, 4)]),
        translate(crosspolytope([(1, 0, 0), (1, 2, 0), (0, F(1, 2), 3)]), (F(1, 3), -1, 2)),
    ])
    def test_box_and_cross_round_trips_with_facets(self, body):
        """A box and a crosspolytope read back as themselves, and are refused
        with their atoms added as facets."""
        q = Polytope.from_json_dict(body.to_json_dict())
        assert q == body
        assert set(surface_area_measure(q)) == set(surface_area_measure(body))
        assert volume(q) == volume(body)
        with pytest.raises(ParseError, match="facets"):
            Polytope.from_json_dict(_facet_json(body))


def _square_json(triangulation, aux=()):
    return {"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "triangulation": triangulation, "aux_points": [list(a) for a in aux]}


_SQUARE_FACETS = [{"normal": n, "measure": "1"} for n in ([1, 0], [-1, 0], [0, 1], [0, -1])]


class TestImportValidation:
    overlapping = [[0, 1, 2], [0, 2, 3], [0, 1, 3]]

    def test_valid_square_loads(self):
        q = Polytope.from_json_dict(_square_json([[0, 1, 2], [0, 2, 3]]))
        assert volume(q) == 1

    def test_overlapping_cells_rejected_by_divergence_theorem(self):
        # The three cells cover the square one and a half times: volume 3/2,
        # and their atoms do not close up.
        with pytest.raises(ParseError):
            Polytope.from_json_dict(_square_json(self.overlapping))

    def test_overlapping_cells_have_no_surface_area_measure(self):
        """Exact atoms that do not close up are refused on their int totals."""
        body = Polytope(2, unit_square.vertices, tuple(map(tuple, self.overlapping)))
        with pytest.raises(GeometryError, match="do not close up"):
            surface_area_measure(body)
        with pytest.raises(ParseError):
            Polytope.from_json_dict(_square_json(self.overlapping))

    def test_double_cover_rejected_by_divergence_theorem(self):
        """Every edge of the four triangles is shared, so the atoms are empty
        and close up, while the volume is 2."""
        double = [[0, 1, 2], [0, 2, 3], [0, 1, 3], [1, 2, 3]]
        body = Polytope(2, unit_square.vertices, tuple(map(tuple, double)))
        assert (volume(body), surface_area_measure(body)) == (2, ())
        with pytest.raises(ParseError, match="offsets"):
            Polytope.from_json_dict(_square_json(double))

    def test_facets_of_another_body_rejected(self):
        """The atoms of a 3/2 x 1/2 rectangle, given as facets of the unit
        square, are refused, as is any facets key; the rectangle's own JSON
        loads as the rectangle."""
        rectangle = box([0, 0], [F(3, 2), F(1, 2)])
        data = {**_square_json([[0, 1, 2], [0, 2, 3]]), "facets": _facet_json(rectangle)["facets"]}
        with pytest.raises(ParseError, match="facets"):
            Polytope.from_json_dict(data)
        assert Polytope.from_json_dict(rectangle.to_json_dict()) == rectangle

    def test_facets_key_is_refused(self):
        """Whatever a facets key holds, the body's own atoms among it, and on
        whatever body: ``ParseError``."""
        for facets in ([], 5, [5], _SQUARE_FACETS, _facet_json(unit_square)["facets"]):
            for triangulation in ([[0, 1, 2], [0, 2, 3]], [[0, 1, 2]], [[0, 1]]):
                with pytest.raises(ParseError, match="facets"):
                    Polytope.from_json_dict({**_square_json(triangulation), "facets": facets})
        with pytest.raises(ParseError, match="facets"):
            Polytope.from_json_dict({**_untriangulated_json(std_triangle), "facets": []})

    def test_aux_points_need_a_triangulation(self):
        data = _centred_cross_json([(1, 0), (0, 1)])
        del data["triangulation"]
        with pytest.raises(ParseError, match="aux_points"):
            Polytope.from_json_dict(data)

    @pytest.mark.parametrize("data", [
        {"dim": 2, "vertices": []},
        {"dim": 3, "vertices": [[0, 0], [1, 0], [0, 1]], "triangulation": [[0, 1, 2]]},
        {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "aux_points": [[0]],
         "triangulation": [[0, 1, 2]]},
        {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "aux_points": 5,
         "triangulation": [[0, 1, 2]]},
        {"dim": 2, "vertices": ["00", "10", "01"]},
        {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "aux_points": ["11"],
         "triangulation": [[0, 1, 2]]},
        {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "triangulation": ["012"]},
    ], ids=["no-vertices", "short-vertex", "short-aux-point", "aux-points-not-a-list",
            "string-vertices", "string-aux-point", "string-cell"])
    def test_malformed_points_raise_parse_error(self, data):
        """No vertex, a point of the wrong length, or a vertex or cell that
        is not a list (a string would be read character by character, and
        "00", "10", "01" would load as the unit triangle): ``ParseError``,
        not the constructor's ``GeometryError`` or ``DimensionMismatch``."""
        with pytest.raises(ParseError):
            Polytope.from_json_dict(data)

    @pytest.mark.parametrize("dim, triangulation", [
        (2.9, None), (2.9, [[0, 1, 2]]), (2.0, [[0, 1, 2]]), ("2", None), (True, None),
        (2, [[0, 1.7, 2.2]]), (2, [[0, 1.0, 2]]), (2, [[0, "1", 2]]), (2, [[False, 1, 2]]),
    ], ids=["dim-2.9", "dim-2.9-cells", "dim-2.0", "dim-string", "dim-bool",
            "index-1.7", "index-1.0", "index-string", "index-bool"])
    def test_non_integer_dim_or_index_raises_parse_error(self, dim, triangulation):
        """``dim`` and triangulation indices must be JSON integers: int()
        would truncate dim 2.9 and indices [0, 1.7, 2.2] to the triangle
        ((0, 1, 2),) in R^2."""
        data = {"dim": dim, "vertices": [[0, 0], [1, 0], [0, 1]]}
        if triangulation is not None:
            data["triangulation"] = triangulation
        with pytest.raises(ParseError, match="integer"):
            Polytope.from_json_dict(data)
        assert Polytope.from_json_dict({**data, "dim": 2, "triangulation": [[0, 1, 2]]}) \
            == std_triangle

    @pytest.mark.parametrize("data", [5, None, "x", [], [("dim", 2)]])
    def test_non_mapping_raises_parse_error(self, data):
        with pytest.raises(ParseError):
            Polytope.from_json_dict(data)

    @pytest.mark.parametrize("triangulation, aux", [
        ([[0, 1, 1]], ()),
        ([[0, 1, 2], [0, 2]], ()),
        ([[0, 1, 2, 3]], ()),
        ([[0, 1, 2], [0, 2, 3], [0, 1, 4]], ((F(1, 2), 0),)),
        ([[0, 1, 5]], ()),
    ])
    def test_bad_triangulations_rejected(self, triangulation, aux):
        with pytest.raises(ParseError):
            Polytope.from_json_dict(_square_json(triangulation, aux=aux))

    @pytest.mark.parametrize("data", [
        _square_json([]),
        {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "triangulation": []},
        {"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
         "triangulation": []},
    ], ids=["square", "triangle", "tetrahedron"])
    def test_empty_triangulation_rejected(self, data):
        """An empty cell list is refused, never read as a body with no
        cells, volume 0 and zero moments, nor as the untriangulated
        simplex or polygon, which leaves the key out."""
        with pytest.raises(ParseError, match="empty triangulation"):
            Polytope.from_json_dict(data)
        untriangulated = {k: v for k, v in data.items() if k != "triangulation"}
        assert volume(Polytope.from_json_dict(untriangulated)) > 0

    def test_open_facets_rejected(self):
        """Facets that do not close up are refused, as any facets key is."""
        data = {**_square_json([[0, 1, 2], [0, 2, 3]]), "facets": [dict(f) for f in _SQUARE_FACETS]}
        data["facets"][0]["measure"] = "2"
        with pytest.raises(ParseError, match="facets"):
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
    assert all(isinstance(x, Fraction) for v in image.vertices for x in v)
    assert image.triangulation == body.triangulation


def _sparse_maps(n):
    """An elementary shear, a permutation and a permuted shear of R^n."""
    shear = [[F(int(i == k)) for k in range(n)] for i in range(n)]
    shear[0][n - 1], shear[n - 1][1] = F(-3, 2), F(2, 7)
    perm = [[F(int(k == (i + 2) % n)) for k in range(n)] for i in range(n)]
    return [shear, perm, [shear[(i + 2) % n] for i in range(n)]]


@pytest.mark.parametrize("n", [3, 6])
def test_linear_image_of_sparse_maps_matches_matvec(n):
    """On shears and permutations, which skip most terms of the column
    scatter, each image vertex is the dense matrix-vector product."""
    rng = random.Random(n)
    body = simplex([[F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(n)]
                    for _ in range(n + 1)])
    for rows in _sparse_maps(n):
        image = linear_image(RMatrix.from_rows(rows), body)
        assert image.vertices == tuple(_matvec(rows, v) for v in body.vertices)
        assert all(type(x) is Fraction for v in image.vertices for x in v)


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
    inv_t = linalg.transpose(linalg.inv(rows))
    expected = set()
    for f in surface_area_measure(body):
        mapped = tuple(abs(phi.det) * x for x in mat_vec_fractions(inv_t, f.direction))
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
    """Dilation equals the image under lam times the identity, vertex by
    vertex; a body read back from its JSON is the body itself."""
    body, lam = case
    diag = RMatrix.diag([lam] * body.dim)
    assert Polytope.from_json_dict(body.to_json_dict()) == body
    assert scale(body, lam) == linear_image(diag, body)


def test_float_body_survives_its_json_round_trip():
    """Coordinates given as JSON float numbers are read as the exact
    rationals they are and written back as rational strings, so the body
    read back again compares equal; the floats themselves are refused."""
    text = '{"dim": 2, "vertices": [[0.1, 0.0], [1.5, 0.2], [0.0, 1.0]], "triangulation": [[0, 1, 2]]}'
    back = Polytope.from_json_dict(json.loads(text))
    assert back.vertices[0][0] == F(0.1) != F(1, 10) and back.vertices[1] == (F(3, 2), F(0.2))
    assert back.to_json_dict()["vertices"][1][0] == "3/2"
    assert Polytope.from_json_dict(back.to_json_dict()) == back
    with pytest.raises(TypeError):
        Polytope(2, ((0.1, 0.0), (1.5, 0.2), (0.0, 1.0)), ((0, 1, 2),))


def _count_calls(monkeypatch, module, names):
    """Wrap each named function of ``module`` to count its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("body", [
    simplex([(F(1, 3), F(-2, 7)), (F(5, 2), F(1, 12)), (F(-1, 30), F(7, 97))]),
    crosspolytope([(1, F(1, 3), 0, 0), (0, 2, F(-1, 2), 0), (0, 0, F(3, 7), 1),
                   (F(1, 5), 0, 0, 1)]),
    cube(3),
])
def test_exact_dilates_and_translates_take_no_view_set_up(monkeypatch, body):
    """An exact scale or translate builds the image's ints off the body's
    view and lam's or y's numerators and denominators in one pass: no
    ``common_scale`` and no ``clear_denominators``.  The images are those
    of the body rebuilt from its vertices."""
    view = body.cleared
    calls = _count_calls(monkeypatch, linalg, ["common_scale", "clear_denominators"])
    y = [F(k, 2 * k + 1) for k in range(body.dim)]
    images = [scale(body, 3), scale(body, F(-5, 12)), scale(body, 0), translate(body, y),
              translate(body, [0] * body.dim)]
    assert calls == {"common_scale": 0, "clear_denominators": 0}
    monkeypatch.undo()
    twin = _rebuilt(body)
    assert twin.cleared == view
    assert images == [scale(twin, 3), scale(twin, F(-5, 12)), scale(twin, 0), translate(twin, y),
                      translate(twin, [0] * body.dim)]
    for image in images:
        _assert_body_twin(image)


def test_scale_by_a_float_factor_is_refused():
    """A float factor is refused, not read as the dyadic rational it is;
    its exact twin scales the body exactly."""
    with pytest.raises(TypeError):
        scale(std_triangle, 0.5)
    halved = scale(std_triangle, F(1, 2))
    assert halved.vertices == ((0, 0), (F(1, 2), 0), (0, F(1, 2)))
    assert all(type(x) is Fraction for v in halved.vertices for x in v)


def test_import_of_a_kuhn_box_takes_no_bareiss(monkeypatch):
    """Importing a Kuhn 4-box from JSON walks its 24 cells once
    (``cell_dets``), for both the determinant-0 test and n vol = sum of
    offsets, and every cell shares n vertices with a neighbour, so its
    |det| comes off the exterior products with no Bareiss; nor does its
    ``volume`` take one."""
    data = box([F(-1, 2), 0, F(1, 3), 1], [1, F(2, 3), 2, F(7, 5)]).to_json_dict()
    calls, walks = [], []
    real, real_walk = linalg.bareiss, polytope.cell_dets
    monkeypatch.setattr(linalg, "bareiss", lambda m: calls.append(1) or real(m))
    monkeypatch.setattr(polytope, "cell_dets", lambda *a: walks.append(1) or real_walk(*a))
    body = Polytope.from_json_dict(data)
    assert (len(calls), len(walks)) == (0, 1)
    assert volume(body) == F(3, 2) * F(2, 3) * F(5, 3) * F(2, 5)
    assert len(calls) == 0


def _rebuilt(body):
    """The body from its vertices alone, without a seeded integer view."""
    return Polytope(body.dim, body.vertices, body.triangulation)


@st.composite
def affine_images(draw):
    """A body and its image under linear_image, scale or translate."""
    body, rows = draw(bodies_and_maps())
    kind = draw(st.sampled_from(["linear", "scale", "translate"]))
    if kind == "linear":
        phi = RMatrix.from_rows(rows)
        assume(phi.det != 0)
        return body, linear_image(phi, body)
    if kind == "scale":
        lam = draw(small_rats)
        assume(lam != 0)
        return body, scale(body, lam)
    return body, translate(body, rows[0])


@settings(max_examples=80, deadline=None)
@given(case=affine_images())
def test_affine_maps_seed_the_cleared_view(case):
    """The view an affine map seeds is exactly what clearing the image's
    vertices gives: the same scale and the same int entries."""
    _, image = case
    seeded = image.cleared
    scale, rows = linalg.clear_denominators(image.vertices)
    assert seeded == (scale, tuple(map(tuple, rows))) == _rebuilt(image).cleared
    assert all(type(x) is int for row in seeded[1] for x in row) and type(seeded[0]) is int


@settings(max_examples=40, deadline=None)
@given(case=affine_images())
def test_images_compute_as_their_rebuilt_twins(case):
    """Moments up to rank 3, volume and atoms of an image equal those of
    the same points rebuilt as a body, which clears its own points and
    walks its own cells."""
    _, image = case
    twin = _rebuilt(image)
    assert "walk" not in vars(twin)
    assert moment_family(image, 3) == moment_family(twin, 3)
    assert volume(image) == volume(twin)
    assert surface_area_measure(image) == surface_area_measure(twin)


@settings(max_examples=40, deadline=None)
@given(case=full_bodies_and_invertible_maps(), lam=small_rats)
def test_images_read_their_own_atoms(case, lam):
    """A body keeps its atoms as tuples, but no affine image made after the
    atoms were read holds them: an image of a body, or of an image, reads
    its atoms off its own points, and they equal those of those points
    rebuilt as a body."""
    body, rows, phi = case
    assume(lam != 0)
    den, atoms = body.atoms
    assert body.atoms is body.atoms
    assert type(atoms) is tuple and all(
        type(total) is tuple and type(base) is tuple for total, base in atoms)
    assert polytope.atom_totals(body) is body.atoms

    def images_of(source):
        return [linear_image(phi, source), translate(source, rows[1]), scale(source, lam)]

    for image in images_of(body):
        assert "atoms" not in vars(image)
        assert image.atoms == _rebuilt(image).atoms
        for second in images_of(image):
            assert "atoms" not in vars(second)
            assert second.atoms == _rebuilt(second).atoms


def _assert_tensor_twin(t):
    """t equals its twin rebuilt from its Fractions in view, ==, hash and
    coefficient values and types; the view is read before the Fractions."""
    view, keys = t.cleared, t.keys
    twin = SymTensor(t.dim, t.rank, dict(t.coeffs))
    assert view == twin.cleared and keys == twin.keys == tuple(t.coeffs)
    assert t == twin and twin == t and hash(t) == hash(twin)
    assert t.coeffs == twin.coeffs
    assert [type(x) for x in t.coeffs.values()] == [type(x) for x in twin.coeffs.values()]


def _assert_body_twin(image):
    """An image equals the body rebuilt from the Fractions of its view in
    view, ==, hash and vertices (values and types); comparing and hashing
    build none of the image's vertices."""
    den, rows = view = image.cleared
    twin = Polytope(image.dim, [[F(x, den) for x in row] for row in rows], image.triangulation)
    assert view == twin.cleared
    assert image == twin and hash(image) == hash(twin)
    assert "vertices" not in vars(image)
    assert image.vertices == twin.vertices
    assert [type(x) for v in image.vertices for x in v] == \
        [type(x) for v in twin.vertices for x in v]


@settings(max_examples=40, deadline=None)
@given(case=bodies_and_maps(), data=st.data())
def test_every_value_equals_its_twin_rebuilt_from_fractions(case, data):
    """Tensors from the five producers (moment_family, gl_action,
    shift_expansions, mcmullen_decompose, vector_power) and images under
    linear_image, scale and translate equal their twins rebuilt from
    Fractions."""
    body, rows = case
    phi = RMatrix.from_rows(rows)
    assume(phi.det != 0)
    y = rows[0]
    lam = data.draw(small_rats)
    assume(lam != 0)
    images = [linear_image(phi, body), scale(body, lam), translate(body, y)]
    for image in images:
        _assert_body_twin(image)
    family = moment_family(images[data.draw(st.integers(0, 2))], 2)
    tensors = family + [gl_action(phi, family[0]), *shift_expansions(family, y), vector_power(y, 2)]
    tensors += mcmullen_decompose(moment_valuation(body.dim, 1), body)
    for t in tensors:
        _assert_tensor_twin(t)


@st.composite
def exact_map_chains(draw):
    """An exact body and a chain of 1 to 5 exact affine maps drawn from
    shears, permutations, maps of det -1, singular and dense maps, dilates
    (by 0 and negative factors too) and translates, each applied to the
    last image."""
    body, _ = draw(bodies_and_maps())
    n = body.dim
    point = st.lists(small_rats, min_size=n, max_size=n)
    images = [body]
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["shear", "perm", "flip", "singular", "dense", "scale",
                                     "translate"]))
        last = images[-1]
        if kind in ("scale", "translate"):
            images.append(scale(last, draw(small_rats)) if kind == "scale"
                          else translate(last, draw(point)))
            continue
        rows = [[F(int(i == k)) for k in range(n)] for i in range(n)]
        if kind == "shear":
            i, k = draw(st.permutations(range(n)))[:2]
            rows[i][k] = draw(small_rats)
        elif kind == "perm":
            rows = [rows[i] for i in draw(st.permutations(range(n)))]
        elif kind == "flip":
            i = draw(st.integers(0, n - 1))
            rows[i][i] = F(-1)
        elif kind == "singular":
            rows = draw(st.lists(point, min_size=n - 1, max_size=n - 1))
            rows.insert(draw(st.integers(0, n - 1)), [2 * x for x in rows[0]])
        else:
            rows = draw(st.lists(point, min_size=n, max_size=n))
        images.append(linear_image(RMatrix.from_rows(rows), last))
    return images


@settings(max_examples=80, deadline=None)
@given(images=exact_map_chains(), data=st.data())
def test_seeded_walks_are_the_walks_of_the_images(images, data):
    """The walk an exact image inherits from its source, scaled by the
    map's determinant, is the walk of its vertices rebuilt as a body:
    whichever image is read first, and whether or not the body walked
    before the maps were applied; after a singular map or a dilate by 0,
    every |det E| is 0 on both sides."""
    if data.draw(st.booleans()):
        images[0].walk
    for i in data.draw(st.permutations(range(len(images)))):
        assert images[i].walk == _rebuilt(images[i]).walk


# -- face normals off the exterior-product walk ------------------------------------------


@st.composite
def face_walks(draw):
    """n + 2 points in R^n, n = 1..5, as ints or as rationals cleared of
    denominators, some with a point planted on the affine
    span of two or three others so that the faces through them are
    dependent; and every face of n of the points, in sorted order (so that
    they share prefixes) or shuffled."""
    n = draw(st.integers(min_value=1, max_value=5))
    small = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 5, 7, 360]))
    pts = [[draw(small) for _ in range(n)] for _ in range(n + 2)]
    if n >= 3 and draw(st.booleans()):
        a, b = draw(small), draw(small) if n >= 4 else F(0)
        pts[-1] = [p + a * (q - p) + b * (r - p) for p, q, r in zip(pts[0], pts[1], pts[2])]
    if draw(st.booleans()):
        pts = [[int(x.numerator) for x in pt] for pt in pts]
    else:
        pts = linalg.clear_denominators(pts)[1]
    faces = list(itertools.combinations(range(n + 2), n))
    if draw(st.booleans()):
        faces = draw(st.permutations(faces))
    return n, pts, faces


@settings(max_examples=150, deadline=None)
@given(case=face_walks())
def test_face_normals_are_the_cofactor_vector(case):
    """Each face's normal off the walk is (-1)^c det(edges without column c),
    each minor by Leibniz (``oracles.cofactor_normal``): equal in ints and
    all zero for dependent edges, whether or not the faces come in the
    order that shares prefixes."""
    n, pts, faces = case
    for face, got in zip(faces, polytope._face_normals(pts, faces, n), strict=True):
        rows = [[a - b for a, b in zip(pts[i], pts[face[0]])] for i in face[1:]]
        assert len(got) == n
        assert got == cofactor_normal(rows) and all(type(x) is int for x in got)
        if linalg.rank(rows) < n - 1:
            assert got == [0] * n


def test_face_normal_edge_cases():
    def normal(*rows):
        pts = [[0] * (len(rows) + 1), *rows]
        (got,) = polytope._face_normals(pts, [tuple(range(len(pts)))], len(rows) + 1)
        return got

    assert normal() == [1]
    assert normal([0, 5]) == [5, 0]
    assert normal([3, 0]) == [0, -3]
    assert normal([1, 0, 0], [0, 1, 0]) == [0, 0, 1]
    assert normal([1, 2, 3], [2, 4, 6]) == [0, 0, 0]
    assert normal([0, 0, 0], [1, 2, 3]) == [0, 0, 0]


# -- validate ------------------------------------------------------------------------------


@pytest.mark.parametrize("body", [
    std_triangle, unit_square, box([F(-1, 2), 0, F(1, 3)], [1, F(2, 3), 2]),
    crosspolytope([(1, F(1, 3), 0, 0), (0, 2, F(-1, 2), 0), (0, 0, F(3, 7), 1),
                   (F(1, 5), 0, 0, 1)]),
    linear_image(RMatrix.from_rows([[1, F(1, 2), 0], [0, 1, 0], [F(1, 3), 0, -1]]), cube(3)),
    translate(cube(3), (10 ** 6, F(-10 ** 9, 7), F(1, 10 ** 6))),
    float_twin(translate(cube(3), (F(1, 10), F(-2, 3), F(1, 7)))),
    simplex([(0, 0, 0), (1, 0, 0)]),
], ids=["triangle", "square", "box3", "cross4", "image", "far-off-cube3", "float-cube3",
        "segment-in-r3"])
def test_sound_bodies_validate(body):
    validate(body)


@pytest.mark.parametrize("cells, match", [
    (((0, 1, 2), (0, 2, 3), (0, 1, 3)), "close up"),
    (((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3)), "offsets"),
    (((0, 1, 2), (0, 2, 4)), "out of range"),
    (((0, 1, 1),), "repeats"),
    (((0, 1, 2), (0, 2)), "one size"),
], ids=["overlapping", "double-cover", "index", "repeat", "sizes"])
def test_hand_built_bodies_are_validated(cells, match):
    """A body built in code is checked when ``validate`` is asked: the
    overlapping square, whose volume reads 3/2, and the double cover, whose
    volume reads 2 with no atoms, raise ``GeometryError``; its import raises
    ``ParseError`` on top of it."""
    body = Polytope(2, unit_square.vertices, cells)
    with pytest.raises(GeometryError, match=match):
        validate(body)
    with pytest.raises(ParseError, match=match):
        Polytope.from_json_dict(body.to_json_dict())


def test_validate_reads_far_off_bodies_exactly():
    """Far-off simplices with fine denominators pass exactly, and the double
    cover of a far-off square still fails on its volume."""
    rng = random.Random(3)
    for _ in range(50):
        pts = tuple(tuple(F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 999)) + 10 ** 6
                          for _ in range(3)) for _ in range(4))
        if linalg.rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) == 3:
            validate(Polytope(3, pts, ((0, 1, 2, 3),)))
    square = translate(unit_square, (10 ** 6, F(10 ** 6, 7))).vertices
    with pytest.raises(GeometryError, match="offsets"):
        validate(Polytope(2, square, ((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3))))


def test_degenerate_cells_fail_validation():
    flat = Polytope(2, ((0, 0), (1, 0), (2, 0), (0, 1)), ((0, 1, 2), (0, 2, 3)))
    with pytest.raises(GeometryError, match="degenerate"):
        validate(flat)
