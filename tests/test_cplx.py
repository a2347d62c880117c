import json
import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    adapted_basis_fractions,
    gram_schmidt_fractions,
    mat_mul_fractions,
    mat_vec_fractions,
    sample_subspace_fractions,
)

from valuta import linalg
from valuta.cplx import (
    CMatrix,
    Subspace,
    adapted_basis,
    complex_rank,
    det_identity_check,
    gram_schmidt,
    j_apply,
    j_matrix,
    realify,
    sample_subspace,
    sl_mc_element,
)
from valuta.errors import GeometryError, ParseError, ValutaError
from valuta.linalg import cabs2
from valuta.symtensor import RMatrix

F = Fraction

E1 = (1, 0, 0, 0)
E2 = (0, 1, 0, 0)
JE1 = (0, 0, 1, 0)


def unitary_float(m, seed) -> list:
    """Rows of Python complex numbers of a float unitary of det 1: the QR
    factor of a complex Gaussian matrix, its phases set by R's diagonal,
    divided by an m-th root of its det."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return (q * np.linalg.det(q) ** (-1.0 / m)).tolist()


def dyadic(rows) -> CMatrix:
    """The dyadic twin of complex float rows: each part the rational its float is."""
    return CMatrix.from_rows([[(F(z.real), F(z.imag)) for z in row] for row in rows])


def rand_cmatrix(rng, m):
    return CMatrix.from_rows(
        [[(F(rng.randint(-4, 4), rng.randint(1, 3)), F(rng.randint(-4, 4), rng.randint(1, 3)))
          for _ in range(m)] for _ in range(m)])


class TestRealify:
    def test_identity(self):
        assert realify(CMatrix.identity(3)).entries == RMatrix.identity(6).entries

    def test_i_times_identity_is_j(self):
        a = CMatrix.diag([(0, 1), (0, 1)])
        real = realify(a)
        assert real.entries == j_matrix(2).entries
        assert real.det == 1

    def test_block_determinant(self):
        a = CMatrix.diag([(0, 1), (1, 0)])
        assert realify(a).det == 1
        assert cabs2(a.det_c) == 1

    def test_built_once_per_matrix(self):
        """A matrix's realification, and with it its det and integer view,
        is built once; an equal fresh matrix builds its own."""
        a = CMatrix.from_rows([[(1, F(1, 2)), (0, 0)], [(F(-2, 3), 1), (1, 0)]])
        assert realify(a) is realify(a) is a.realified
        assert realify(a).cleared is realify(a).cleared
        fresh = realify(CMatrix(a.entries))
        assert fresh is not realify(a) and fresh == realify(a)

    def test_homomorphism(self):
        rng = random.Random(7)
        for _ in range(20):
            a, b = rand_cmatrix(rng, 2), rand_cmatrix(rng, 2)
            assert realify(a @ b).entries == (realify(a) @ realify(b)).entries

    def test_commutes_with_j(self):
        rng = random.Random(8)
        for m in (2, 3):
            a = rand_cmatrix(rng, m)
            jm = j_matrix(m)
            assert (jm @ realify(a)).entries == (realify(a) @ jm).entries


class TestDetIdentity:
    def test_real_diag(self):
        assert det_identity_check(CMatrix.diag([2, F(1, 2)]))

    def test_complex_diag(self):
        a = CMatrix.diag([(1, 1), (1, 0)])
        assert realify(a).det == 2
        assert det_identity_check(a)

    @pytest.mark.parametrize("m", [2, 3])
    def test_random_exact(self, m):
        rng = random.Random(m)
        for _ in range(50):
            assert det_identity_check(rand_cmatrix(rng, m))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_unitary_float(self, m):
        """A float unitary is refused; its dyadic twin meets the identity exactly."""
        rows = unitary_float(m, seed=m)
        with pytest.raises(TypeError):
            CMatrix.from_rows(rows)
        assert det_identity_check(dyadic(rows))


def gaussian_cmatrix(rng, m):
    return dyadic((rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))).tolist())


class TestFloatCMatrix:
    """Float-sampled matrices enter as their dyadic twins, since ``CMatrix``
    refuses floats; every result on them is exact."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_det_matches_numpy(self, m):
        """The exact det_C of a Gaussian matrix's twin, rounded, is within
        1e-12 relative of numpy's float determinant of the same matrix."""
        rng = np.random.default_rng(60 + m)
        for _ in range(200):
            a = gaussian_cmatrix(rng, m)
            want = np.linalg.det(np.array([[complex(*e) for e in row] for row in a.entries]))
            got = complex(*a.det_c)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_realify_is_a_homomorphism(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 4):
            a, b = gaussian_cmatrix(rng, m), gaussian_cmatrix(rng, m)
            assert realify(a @ b).entries == (realify(a) @ realify(b)).entries


class TestComplexRank:
    def test_complex_line(self):
        assert complex_rank(Subspace.span([E1, JE1])) == 1

    def test_totally_real_plane(self):
        assert complex_rank(Subspace.span([E1, E2])) == 2

    def test_three_dims_cap_at_m(self):
        assert complex_rank(Subspace.span([E1, JE1, E2])) == 2

    def test_no_basis_vector_has_rank_0(self):
        """A subspace with no basis vector, which the constructor accepts,
        and an empty basis have rank 0, as ``crank`` of no rows has."""
        assert complex_rank(Subspace(4, ())) == complex_rank([]) == linalg.crank([]) == 0
        assert Subspace(4, ()).complex_rank == 0


class TestFromOrthonormal:
    def test_float_basis_is_checked(self):
        """A float coordinate is refused where it enters, before the basis's
        orthonormality is read; its exact twin is checked and refused."""
        with pytest.raises(TypeError):
            Subspace.from_orthonormal([(1.0, 0, 0, 0), (1.0, 1.0, 0, 0)])
        with pytest.raises(GeometryError):
            Subspace.from_orthonormal([(1, 0, 0, 0), (1, 1, 0, 0)])

    def test_exact_basis_is_checked(self):
        with pytest.raises(GeometryError):
            Subspace.from_orthonormal([(1, 0, 0, 0), (F(1, 2), 1, 0, 0)])
        for basis in ([(2, 0, 0, 0)], [(F(3, 5), F(4, 5), 0, 0), (0, 1, 0, 0)],
                      [(F(3, 5), F(4, 5), 0, 0), (F(-4, 5), F(3, 5), 0, F(1, 10 ** 9))]):
            with pytest.raises(GeometryError):
                Subspace.from_orthonormal(basis)

    def test_empty_basis_is_refused(self):
        with pytest.raises(GeometryError, match="empty span"):
            Subspace.from_orthonormal([])

    def test_rational_frames_pass(self):
        frame = unitary_frame(random.Random(4), 3)
        for k in range(1, 6):
            assert Subspace.from_orthonormal(frame[:k]).basis == tuple(frame[:k])


def assert_orthonormal(vectors):
    for i, u in enumerate(vectors):
        for k, v in enumerate(vectors):
            assert mat_vec_fractions([u], v)[0] == (i == k)


def assert_adapted_invariants(original, adapted):
    j = original.dim
    d = adapted.complex_rank
    assert adapted.dim == j
    for l in range(j - d):
        assert adapted.basis[d + l] == j_apply(adapted.basis[l])
    assert_orthonormal(adapted.basis)
    # span preservation: each new vector is its own projection onto the old basis
    for v in adapted.basis:
        proj = [sum(mat_vec_fractions([v], b)[0] * b[i] for b in original.basis)
                for i in range(original.ambient)]
        assert tuple(proj) == tuple(v)


# (m, j) pairs of the sampled adapted-basis cases, below and past j = m
SAMPLED = [(2, 1), (2, 2), (2, 3), (3, 2), (3, 4), (3, 5), (4, 2), (4, 3), (4, 5), (4, 7)]


def generic_unitary_span(rng, m, j):
    """For m < j < 2m, a subspace of complex rank m with an exact adapted
    basis: the j - m complex lines (f_k, J f_k) of a rational unitary frame,
    then the first 2m - j columns of the rest of the frame, the complement
    of those lines, rotated by a rational orthogonal matrix."""
    frame = unitary_frame(rng, m)
    pairs = j - m
    rest = [frame[k] for k in range(pairs, m)] + [frame[m + k] for k in range(pairs, m)]
    turn = rational_orthogonal(rng, len(rest))
    rotated = [tuple(sum(turn[r][c] * v[i] for r, v in enumerate(rest)) for i in range(2 * m))
               for c in range(2 * m - j)]
    return Subspace.from_orthonormal(frame[:pairs] + frame[m:m + pairs] + rotated)


class TestAdaptedBasis:
    def test_complex_line_is_whole(self):
        l = Subspace.span([E1, JE1])
        out = adapted_basis(l)
        assert out.complex_rank == 1
        assert_adapted_invariants(l, out)

    def test_totally_real(self):
        l = Subspace.span([E1, E2])
        out = adapted_basis(l)
        assert out.complex_rank == 2
        assert out.basis == ((F(1), 0, 0, 0), (0, F(1), 0, 0))

    def test_mixed(self):
        l = Subspace.span([E1, JE1, E2])
        out = adapted_basis(l)
        assert out.complex_rank == 2
        assert_adapted_invariants(l, out)

    def test_preserves_complex_rank(self):
        for vectors in ([E1, JE1], [E1, E2], [E1, JE1, E2]):
            l = Subspace.span(vectors)
            assert adapted_basis(l).complex_rank == complex_rank(l)

    def test_rational_subspace_gets_exact_adapted_basis(self):
        v = (F(3, 5), 0, F(4, 5), 0)
        l = Subspace.from_orthonormal([v, E2, j_apply(v)])
        assert l.complex_rank == 2
        out = adapted_basis(l)
        assert all(type(x) is Fraction for v in out.basis for x in v)
        assert_adapted_invariants(l, out)

    @pytest.mark.parametrize("m,j", SAMPLED)
    def test_sampled(self, m, j):
        """Exact draws at every (m, j) the adapted basis is sampled at: a
        Cayley ``sample_subspace`` for j <= m, and for m < j < 2m a
        rational unitary frame's j - m complex lines (U, listed first)
        beside 2m - j columns of U's complement rotated by a rational
        orthogonal matrix, so that W sits in generic position.  Each draw
        gets complex rank min(j, m) and an exact adapted basis."""
        rng = random.Random(100 * m + j)
        for _ in range(5):
            l = sample_subspace(m, j, rng) if j <= m else generic_unitary_span(rng, m, j)
            out = adapted_basis(l)
            assert complex_rank(l) == out.complex_rank == min(j, m)
            assert_adapted_invariants(l, out)

    @pytest.mark.parametrize("m,j", [(m, j) for m, j in SAMPLED if j > m])
    def test_generic_cayley_span_past_m_is_refused(self, m, j):
        """A Cayley ``sample_subspace`` with m < j < 2m generically meets
        U = L ∩ J(L) in vectors of irrational length (at (2, 3) about one
        draw in six does not): ``adapted_basis`` refuses such a draw for the
        norm that is not a perfect square, and never answers in floats."""
        with pytest.raises(ValutaError, match="perfect-square"):
            adapted_basis(sample_subspace(m, j, 3))


def _cayley_factors(a):
    """I - A and I + A."""
    eye = linalg.identity(len(a))
    return ([[e - x for e, x in zip(er, ar)] for er, ar in zip(eye, a)],
            [[e + x for e, x in zip(er, ar)] for er, ar in zip(eye, a)])


def _cayley(a):
    """The Cayley transform (I - A)(I + A)^-1 by ``linalg.mat_mul`` and
    ``linalg.inv``: rational orthogonal for a rational skew-symmetric A."""
    minus, plus = _cayley_factors(a)
    return linalg.mat_mul(minus, linalg.inv(plus))


def rational_orthogonal(rng, n):
    """Cayley transform of a random integer skew matrix A: an orthogonal
    matrix with rational entries."""
    a = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(r + 1, n):
            a[r][c] = rng.randint(-3, 3)
            a[c][r] = -a[r][c]
    return _cayley(a)


class TestGramSchmidt:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_exact_with_planted_dependents(self, n):
        """Triangular rational combinations of the rows of a rational
        orthogonal matrix have rational Gram-Schmidt norms; zero vectors and
        combinations of earlier inputs are planted among them."""
        rng = random.Random(n)
        for _ in range(10):
            q = rational_orthogonal(rng, n)
            d = rng.randint(1, n)
            vecs = []
            for k in range(d):
                coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
                coeffs.append(F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)))
                vecs.append(tuple(sum(c * row[i] for c, row in zip(coeffs, q))
                                  for i in range(n)))
                for _ in range(rng.randint(0, 2)):
                    ws = [F(rng.randint(-2, 2)) for _ in vecs]
                    vecs.append(tuple(sum(w * v[i] for w, v in zip(ws, vecs))
                                      for i in range(n)))
            out = gram_schmidt(vecs)
            assert len(out) == d
            assert all(type(x) is Fraction for v in out for x in v)
            assert_orthonormal(out)
            assert linalg.rank(vecs + out) == len(out)
            assert gram_schmidt(vecs, out[:1]) == out[1:]
            assert out == gram_schmidt_fractions(vecs)
            assert gram_schmidt(vecs, out[1:]) == gram_schmidt_fractions(vecs, out[1:])

    def test_first_output_parallel_to_first_nonzero_input(self):
        v = (3, 0, 4, 0)
        out = gram_schmidt([(0, 0, 0, 0), v, (0, 1, 0, 0)])
        assert out[0] == tuple(x / F(5) for x in v)

    def test_irrational_norm_raises(self):
        with pytest.raises(ValutaError, match="perfect-square"):
            Subspace.span([(1, 1, 0, 0)])
        # the hyperplane x2 = 0 on a rotated rational frame: the nullspace
        # vector spanning e1 in its coordinates has squared length 2
        frame = [(F(-1, 3), F(-2, 3), F(2, 3)), (F(-2, 3), F(2, 3), F(1, 3)),
                 (F(2, 3), F(1, 3), F(2, 3))]
        l = Subspace.from_orthonormal([(a, 0, b, c) for a, b, c in frame])
        with pytest.raises(ValutaError, match="perfect-square"):
            adapted_basis(l)


def skew_hermitian(rng, m):
    """The realification of a random skew-Hermitian m x m matrix."""
    def small():
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    rows = [[(F(0), F(0))] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = (F(0), small())
        for k in range(i + 1, m):
            rows[i][k] = (small(), small())
            rows[k][i] = (-rows[i][k][0], rows[i][k][1])
    return realify(CMatrix.from_rows(rows)).entries


def unitary_frame(rng, m):
    """Columns of a rational orthogonal 2m x 2m matrix commuting with J: the
    Cayley transform of a realified skew-Hermitian A, so that column m + k
    is J times column k."""
    q = _cayley(skew_hermitian(rng, m))
    return [tuple(row[c] for row in q) for c in range(2 * m)]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_exact_cayley_frame_is_orthogonal_and_commutes_with_j(m):
    """The Cayley frame of a realified skew-Hermitian A, multiplied on
    integer views, is the schoolbook product in Fractions (``oracles``),
    and Q^T Q = I and Q J = J Q hold exactly."""
    rng = random.Random(f"cayley-{m}")
    j = [list(row) for row in j_matrix(m).entries]
    eye = [[F(int(r == c)) for c in range(2 * m)] for r in range(2 * m)]
    for _ in range(4):
        a = skew_hermitian(rng, m)
        minus, plus = _cayley_factors(a)
        q = _cayley(a)
        assert q == mat_mul_fractions(minus, linalg.inv(plus))
        assert all(type(x) is F for row in q for x in row)
        assert mat_mul_fractions(linalg.transpose(q), q) == eye
        assert mat_mul_fractions(q, j) == mat_mul_fractions(j, q)


# (m, j, d): every dimension j of a proper subspace of C^m and complex rank d
SPLIT_TYPES = [(m, j, d) for m in (2, 3) for j in range(1, 2 * m)
               for d in range((j + 1) // 2, min(j, m) + 1)]


def _same_outcome(l):
    """adapted_basis and the Fraction reference give the same basis, or
    raise the same error."""
    try:
        want = adapted_basis_fractions(l).basis
    except (GeometryError, ValutaError) as exc:
        with pytest.raises(type(exc)):
            adapted_basis(l)
        return False
    assert adapted_basis(l).basis == want
    return True


class TestAgainstFractionReference:
    @pytest.mark.parametrize("m,j,d", SPLIT_TYPES)
    def test_adapted_basis_on_unitary_frames(self, m, j, d):
        """j - d columns with their J-images and 2d - j more columns of a
        rational unitary frame span a subspace of complex rank d: its split
        matches the Fraction reference.  A basis rotated inside the subspace
        by a rational orthogonal matrix may need an irrational norm; then
        both raise."""
        rng = random.Random(f"{m}-{j}-{d}")
        pairs, singles = j - d, 2 * d - j
        columns = list(range(pairs)) + [m + k for k in range(pairs)]
        columns += list(range(pairs, pairs + singles))
        for _ in range(4):
            frame = unitary_frame(rng, m)
            basis = [frame[c] for c in columns]
            rotated = [tuple(sum(r * v[i] for r, v in zip(row, basis)) for i in range(2 * m))
                       for row in rational_orthogonal(rng, j)]
            l = Subspace.from_orthonormal(basis)
            assert _same_outcome(l)
            assert complex_rank(adapted_basis(l).basis[:d]) == d
            _same_outcome(Subspace.from_orthonormal(rotated))


class TestSpan:
    def test_exact_drops_only_zeros(self):
        tiny = (0, 0, F(1, 10 ** 30), 0)
        assert Subspace.span([E1, (1, 0, 0, 0), (0, 0, 0, 0), tiny]).basis == (
            (1, 0, 0, 0), (0, 0, 1, 0))


class TestSampling:
    def test_line_never_retries(self):
        assert sample_subspace(2, 1, 0).retries == 0

    def test_plane_samples_maximal(self):
        rng = random.Random(42)
        for _ in range(50):
            s = sample_subspace(2, 2, rng)
            assert s.retries == 0
            assert s.complex_rank == 2

    def test_hyperplane_rank(self):
        assert sample_subspace(2, 3, 5).complex_rank == 2

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_exactly_orthonormal_with_maximal_complex_rank(self, m):
        """Every dimension 1..2m-1 draws a rational basis that
        ``check_orthonormal`` passes exactly, of complex rank min(j, m)."""
        for j in range(1, 2 * m):
            l = sample_subspace(m, j, 10 * m + j)
            assert (l.ambient, l.dim) == (2 * m, j)
            assert all(type(x) is Fraction for v in l.basis for x in v)
            linalg.check_orthonormal(l.basis)
            assert complex_rank(l) == min(j, m)

    def test_seeded_by_an_int_or_a_random(self):
        """One int seed gives one basis; a ``random.Random`` is drawn from,
        so a second draw from it differs, and a fresh one seeded alike
        repeats the first."""
        assert sample_subspace(3, 4, 7) == sample_subspace(3, 4, 7)
        assert sample_subspace(3, 4, 7) != sample_subspace(3, 4, 8)
        rng = random.Random(7)
        first, second = sample_subspace(3, 4, rng), sample_subspace(3, 4, rng)
        assert first != second and sample_subspace(3, 4, random.Random(7)) == first

    @pytest.mark.parametrize("m, j", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 5), (4, 3),
                                      (4, 7)])
    def test_int_columns_match_the_fraction_sampler(self, m, j):
        """The Cayley columns taken and tested for their complex rank in
        ints give the basis and the retries of the Fraction sampler
        (``oracles.sample_subspace_fractions``), over int seeds and along
        one ``random.Random``; seeds 105 and 126 retry a plane of C^2."""
        seeds = list(range(12)) + ([105, 126] if (m, j) == (2, 2) else [])
        got = [sample_subspace(m, j, seed) for seed in seeds]
        want = [sample_subspace_fractions(m, j, seed) for seed in seeds]
        assert [(l.basis, l.retries) for l in got] == [(l.basis, l.retries) for l in want]
        assert all(type(x) is Fraction for l in got for v in l.basis for x in v)
        if (m, j) == (2, 2):
            assert [l.retries for l in got[-2:]] == [1, 1]
        ours, theirs = random.Random(m * j), random.Random(m * j)
        for _ in range(5):
            assert sample_subspace(m, j, ours) == sample_subspace_fractions(m, j, theirs)

    def test_cleared_is_the_basis_view(self):
        """A subspace's ``cleared`` is ``clear_denominators`` of its basis,
        rows as tuples, built once."""
        for l in (sample_subspace(3, 4, 1), Subspace(4, ((F(3, 5), F(4, 5), 0, 0), E2))):
            d, rows = linalg.clear_denominators(l.basis)
            assert l.cleared == (d, tuple(map(tuple, rows))) and l.cleared is l.cleared


class TestSlmcElements:
    def test_imaginary_shear(self):
        a = sl_mc_element("shear", 2, params={"p": 0, "q": 1, "im": 1})
        assert a.det_c == (1, 0)
        assert a.entries[0][1] == (0, 1)

    def test_diag(self):
        a = sl_mc_element("diag", 2, params={"values": [F(3, 2), F(2, 3)]})
        assert a.det_c == (1, 0)

    def test_diag_rejects_bad_product(self):
        with pytest.raises(ValueError):
            sl_mc_element("diag", 2, params={"values": [2, 2]})

    def test_shear_product(self):
        a = sl_mc_element("shear", 3, params={"count": 6}, seed=11)
        assert a.det_c == (1, 0)
        assert realify(a).det == 1

    def test_json_round_trip(self):
        a = sl_mc_element("shear", 2, params={"count": 3}, seed=9)
        assert CMatrix.from_json_dict(a.to_json_dict()).entries == a.entries

    def test_float_json_round_trip(self):
        """Float parts given as JSON numbers are read as the exact rationals
        they are, and the matrix written back, as rational strings, reads
        back equal."""
        rows = unitary_float(2, seed=3)
        data = {"m": 2, "entries": [[{"re": z.real, "im": z.imag} for z in row] for row in rows]}
        a = CMatrix.from_json_dict(json.loads(json.dumps(data)))
        assert a == dyadic(rows)
        assert CMatrix.from_json_dict(json.loads(json.dumps(a.to_json_dict()))) == a

    @pytest.mark.parametrize("kind, params", [("shear", None), ("diag", {"values": [1]})])
    @pytest.mark.parametrize("m", [0, 1])
    def test_m_below_2_is_refused(self, kind, params, m):
        with pytest.raises(ValueError, match="m >= 2"):
            sl_mc_element(kind, m, params, 0)

    @pytest.mark.parametrize("data", [
        {"m": 1},
        {"entries": [[{"re": "1"}]]},
        {"entries": [[{"re": "1", "im": "0"}, {"re": "0", "im": "0"}], [{"re": "1", "im": "0"}]]},
        {"entries": ["ab"]},
        {"entries": [[["1", "0"]]]},
        {"entries": [[{"re": "x", "im": "0"}]]},
        {"entries": [[{"re": True, "im": "0"}]]},
        {"m": 3, "entries": [[{"re": "1", "im": "0"}]]},
        {"m": True, "entries": [[{"re": "1", "im": "0"}]]},
    ], ids=["no-entries", "no-im", "ragged", "string-row", "list-entry", "bad-rational",
            "bool-entry", "wrong-m", "bool-m"])
    def test_malformed_json_raises_parse_error(self, data):
        with pytest.raises(ParseError):
            CMatrix.from_json_dict(data)
