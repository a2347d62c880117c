import json
import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    map_distance, map_max_abs, map_scale, map_shift_expansion, map_sum, multi_indices,
)
from valuta import linalg
from valuta.errors import DimensionMismatch, ParseError
from valuta.symtensor import (
    RMatrix,
    SymTensor,
    format_rational,
    gl_action,
    monomial_tables,
    shift_expansions,
    sym_product,
    tensor_sum,
    vector_power,
    view_distance,
)

F = Fraction


def t(dim, rank, coeffs):
    return SymTensor(dim, rank, coeffs)


e1 = t(2, 1, {(1, 0): 1})
e2 = t(2, 1, {(0, 1): 1})


class TestSymProduct:
    def test_basis_square(self):
        assert sym_product(e1, e1) == t(2, 2, {(2, 0): 1})

    def test_basis_mixed(self):
        assert sym_product(e1, e2) == t(2, 2, {(1, 1): 1})

    def test_bilinear(self):
        a = t(2, 1, {(1, 0): 2})
        b = t(2, 1, {(0, 1): 3})
        assert sym_product(a, b) == t(2, 2, {(1, 1): 6})

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sym_product(e1, t(3, 1, {(1, 0, 0): 1}))


class TestVectorPower:
    def test_binomial(self):
        assert vector_power((F(1), F(1)), 2) == t(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_single_axis(self):
        assert vector_power((F(2), F(0)), 3) == t(2, 3, {(3, 0): 8})

    def test_weighted(self):
        assert vector_power((F(1), F(2)), 2) == t(2, 2, {(2, 0): 1, (1, 1): 4, (0, 2): 4})

    def test_zeroth_power_is_one(self):
        assert vector_power((F(5), F(7)), 0) == SymTensor.scalar(2, F(1))


class TestGlAction:
    def test_identity(self):
        x = t(2, 2, {(2, 0): F(1, 3), (1, 1): -2})
        assert gl_action(RMatrix.identity(2), x) == x

    def test_diagonal_scaling(self):
        phi = RMatrix.diag([2, 1])
        assert gl_action(phi, e1) == t(2, 1, {(1, 0): 2})

    def test_shear_on_square(self):
        phi = RMatrix.from_rows([[1, 1], [0, 1]])
        sq = t(2, 2, {(0, 2): 1})
        assert gl_action(phi, sq) == t(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def tensor_dim(n: int, r: int) -> int:
    """Dimension of the space of symmetric rank-r tensors on R^n."""
    return math.comb(n + r - 1, r)


class TestTensorDim:
    """The degree-r level of ``monomial_tables`` spans the whole space."""

    @pytest.mark.parametrize("n,r,expected", [(4, 2, 10), (7, 0, 1), (4, 3, 20)])
    def test_values(self, n, r, expected):
        assert len(monomial_tables(n, r)[0][r]) == expected

    @pytest.mark.parametrize("n,r", [(2, 3), (4, 2), (5, 4)])
    def test_counts_monomials(self, n, r):
        assert len(list(multi_indices(n, r))) == len(monomial_tables(n, r)[0][r])


def test_monomial_tables_match_enumeration():
    """Level d holds exactly the degree-d multi-indices, and
    steps[d][j][i] is the position of alpha_j + e_i at level d + 1."""
    for n in range(1, 6):
        for r in range(6):
            levels, steps, _ = monomial_tables(n, r)
            assert len(levels) == r + 1 and len(steps) == r
            for d, level in enumerate(levels):
                assert sorted(level) == sorted(multi_indices(n, d))
                assert sorted(level.values()) == list(range(len(level)))
            for d, step in enumerate(steps):
                up = {pos: alpha for alpha, pos in levels[d + 1].items()}
                for alpha, j in levels[d].items():
                    for i in range(n):
                        bumped = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                        assert up[step[j][i]] == bumped


# -- property tests -----------------------------------------------------------

rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


def tensors(dim, max_rank=3):
    def build(rank_and_vals):
        rank, vals = rank_and_vals
        keys = sorted(multi_indices(dim, rank))
        return SymTensor(dim, rank, dict(zip(keys, vals)))

    return st.integers(min_value=0, max_value=max_rank).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.lists(rationals, min_size=tensor_dim(dim, r), max_size=tensor_dim(dim, r)),
        )
    ).map(build)


def matrices(dim):
    return st.lists(
        st.lists(rationals, min_size=dim, max_size=dim), min_size=dim, max_size=dim
    ).map(RMatrix.from_rows)


@settings(max_examples=40, deadline=None)
@given(a=tensors(3), b=tensors(3))
def test_product_commutes(a, b):
    assert sym_product(a, b) == sym_product(b, a)


@settings(max_examples=25, deadline=None)
@given(a=tensors(3, 2), b=tensors(3, 2), c=tensors(3, 2))
def test_product_associates(a, b, c):
    assert sym_product(sym_product(a, b), c) == sym_product(a, sym_product(b, c))


@settings(max_examples=30, deadline=None)
@given(
    x=st.lists(rationals, min_size=3, max_size=3),
    r=st.integers(min_value=0, max_value=2),
    s=st.integers(min_value=0, max_value=2),
)
def test_vector_power_additive(x, r, s):
    assert sym_product(vector_power(x, r), vector_power(x, s)) == vector_power(x, r + s)


@settings(max_examples=20, deadline=None)
@given(phi=matrices(3), psi=matrices(3), a=tensors(3, 2))
def test_action_respects_composition(phi, psi, a):
    assert gl_action(phi @ psi, a) == gl_action(phi, gl_action(psi, a))


def test_zero_coeffs_dropped():
    assert t(2, 2, {(2, 0): 0, (1, 1): 1}) == t(2, 2, {(1, 1): 1})


def test_json_round_trip():
    x = t(2, 2, {(2, 0): F(1, 3), (0, 2): F(-5, 7)})
    data = x.to_json_dict()
    assert data == {"dim": 2, "rank": 2, "coeffs": {"0,2": "-5/7", "2,0": "1/3"}}
    assert SymTensor.from_json_dict(data) == x


def test_float_tensor_survives_its_json_round_trip():
    """A coefficient given as a JSON float number is read as the exact
    rational it is, through a JSON text too, and written back as that
    rational's string; the float itself is refused by the constructor."""
    data = json.loads('{"dim": 2, "rank": 1, "coeffs": {"1,0": 0.1, "0,1": -2.5}}')
    back = SymTensor.from_json_dict(data)
    assert back.coeffs == {(1, 0): F(0.1), (0, 1): F(-5, 2)} and F(0.1) != F(1, 10)
    assert SymTensor.from_json_dict(back.to_json_dict()) == back
    assert back.to_json_dict()["coeffs"]["0,1"] == "-5/2"
    with pytest.raises(TypeError):
        t(2, 1, {(1, 0): 0.1})
    with pytest.raises(ParseError):
        SymTensor.from_json_dict({"dim": 2, "rank": 1, "coeffs": {"1,0": math.inf}})


@pytest.mark.parametrize("value, text", [
    (3, "3"), (F(-7, 4), "-7/4"), (F(4, 2), "2"), (True, "1"), (np.int64(3), "3"),
])
def test_format_rational_outputs(value, text):
    """An int or a Fraction is written as its str, a bool and a numpy
    integer as the rational they are."""
    assert format_rational(value) == text


@pytest.mark.parametrize("value", [0.1, np.float64(2.0), np.float32(0.5), 1 + 0j])
def test_format_rational_refuses_floats(value):
    with pytest.raises(TypeError):
        format_rational(value)


def test_scalar_json_uses_empty_key():
    s = SymTensor.scalar(4, F(1, 2))
    data = s.to_json_dict()
    assert data["coeffs"] == {"": "1/2"}
    assert SymTensor.from_json_dict(data) == s


@pytest.mark.parametrize("dim, rank, coeffs", [
    (2, 1, {(2, -1): 1}), (2, -1, {(-1, 0): 1}), (2, -1, {}), (2, 0, {(1, -1): 1}),
    (2, 2, {(1, 0): 1}), (2, 1, {(1, 0, 0): 1}), (0, 0, {}), (2, 0, {(0, 0, 0): 1}),
    (2, 0, {(0,): 1}), (2, 1, {(): 1}),
], ids=["negative-entry", "negative-rank", "negative-rank-empty", "rank0-negative-entry",
        "wrong-degree", "wrong-length", "no-dimension", "rank0-long-zero-key",
        "rank0-short-zero-key", "empty-key-at-rank1"])
def test_constructor_refuses_what_is_no_multi_index(dim, rank, coeffs):
    """A negative rank or key entry used to be accepted and to fail later,
    as a ``KeyError`` in ``gl_action``; every key is checked on entry."""
    with pytest.raises(DimensionMismatch):
        SymTensor(dim, rank, coeffs)


@pytest.mark.parametrize("data", [
    {"dim": 2.9, "rank": 1, "coeffs": {"1,0": "1"}},
    {"dim": "2", "rank": True, "coeffs": {"1,0": "1"}},
    {"dim": 2, "rank": 1, "coeffs": [["1,0", "1"]]},
    {"dim": 2, "rank": 1, "coeffs": {"1.0,0": "1"}},
    {"dim": 2, "rank": 1, "coeffs": {"01,0": "1"}},
    {"dim": 2, "rank": 1, "coeffs": {"2,-1": "1"}},
    {"dim": 2, "rank": 1, "coeffs": {"1,0,0": "1"}},
    {"dim": 2, "rank": 1, "coeffs": {"1,0": "one"}},
    {"dim": 2, "rank": 1, "coeffs": {"1,0": True}},
    {"dim": 2, "rank": 1},
    [2, 1, {}],
    {"dim": 2, "rank": 0, "coeffs": {"": "1", "0,0": "2"}},
    {"dim": 2, "rank": 0, "coeffs": {"0,0,0,0": "1"}},
    {"dim": 2, "rank": 1, "coeffs": {"": "1"}},
], ids=["float-dim", "string-dim-bool-rank", "coeffs-list", "float-key", "leading-zero-key",
        "negative-key", "long-key", "bad-rational", "bool-coefficient", "no-coeffs",
        "not-an-object", "rank0-key-named-twice", "rank0-long-zero-key", "empty-key-at-rank1"])
def test_from_json_dict_refuses_malformed_input(data):
    """Nothing malformed is truncated, read as a bool or let through as a
    bare ``AttributeError`` or ``ValueError``: each raises ``ParseError``."""
    with pytest.raises(ParseError):
        SymTensor.from_json_dict(data)


def test_rank0_keys_are_the_empty_and_the_zero_multi_index():
    """At rank 0 the scalar's key is ``()``, which a map may also name as
    the length-``dim`` zero multi-index; both add up to one coefficient, and
    a zero key of another length is refused.  In JSON, ``""`` and ``"0,0"``
    name that one key, so a document naming both is refused."""
    assert t(2, 0, {(): 2, (0, 0): 3}) == SymTensor.scalar(2, 5)
    assert t(2, 0, {(0, 0): 3}).keys == ((),)
    with pytest.raises(DimensionMismatch):
        t(2, 0, {(0, 0, 0): 1, (): 2, (0,): 3})
    for key in ("", "0,0"):
        assert SymTensor.from_json_dict({"dim": 2, "rank": 0, "coeffs": {key: "7"}}) == \
            SymTensor.scalar(2, 7)
    for coeffs in ({"": "1", "0,0": "2"}, {"": "2", "0,0,0,0": "3", "0,0": "3"}):
        with pytest.raises(ParseError):
            SymTensor.from_json_dict({"dim": 2, "rank": 0, "coeffs": coeffs})


# -- the view arithmetic against plain maps ---------------------------------------------


@st.composite
def exact_tensors(draw, dim, rank):
    """(tensor, its map): the tensor made by ``SymTensor(...)`` from the map
    with zeros in it, or by ``from_totals`` in a shuffled key order over an
    unreduced denominator, zero totals included."""
    keys = sorted(multi_indices(dim, rank)) if rank else [()]
    vals = draw(st.lists(st.none() | st.just(F(0)) | rationals,
                         min_size=len(keys), max_size=len(keys)))
    m = {k: v for k, v in zip(keys, vals) if v}
    if draw(st.booleans()):
        return SymTensor(dim, rank, {k: v for k, v in zip(keys, vals) if v is not None}), m
    den = math.lcm(*(v.denominator for v in m.values())) * draw(st.integers(1, 4))
    keys = draw(st.permutations(keys))
    return SymTensor.from_totals(dim, rank, keys, [int(m.get(k, 0) * den) for k in keys], den), m


def _view_map(t):
    d, (ints,) = t.cleared
    return {k: F(x, d) for k, x in zip(t.keys, ints)}


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 3), rank=st.integers(0, 2), c=rationals, data=st.data())
def test_exact_operations_match_the_map_oracle(dim, rank, c, data):
    """+, binary and unary -, scale by a rational, the n-ary sum, ==, the
    view distance and the largest coefficient agree with the same
    operations on plain maps of Fractions, and none builds a ``coeffs``."""
    (a, ma), (b, mb), (e, me) = (data.draw(exact_tensors(dim, rank)) for _ in range(3))
    results = [(a + b, map_sum([ma, mb])), (a - b, map_sum([ma, map_scale(mb, -1)])),
               (-a, map_scale(ma, -1)), (a.scale(c), map_scale(ma, c)),
               (tensor_sum([a, b, e]), map_sum([ma, mb, me]))]
    for got, want in results:
        assert "coeffs" not in vars(got)
        assert _view_map(got) == want
    assert (a == b) == (ma == mb) and a == a.scale(1) and (a == a.scale(2)) == (not ma)
    distance = view_distance(a, b)
    assert type(distance) is Fraction and distance == map_distance(ma, mb)
    assert a.max_abs_coeff() == map_max_abs(ma)
    assert not any("coeffs" in vars(t) for t in (a, b, e))


# -- substitution kernel against independent oracles -----------------------------

sp = pytest.importorskip("sympy")


def _sympy_tensor(expr, xs, rank):
    poly = sp.Poly(sp.expand(expr), *xs)
    coeffs = {m: F(int(c.p), int(c.q)) for m, c in poly.terms() if c != 0}
    return SymTensor(len(xs), rank, coeffs)


def _sparse_tensors(dim, max_rank):
    """Tensors with a random subset of keys, so zero coefficients occur."""
    def build(args):
        rank, vals = args
        keys = sorted(multi_indices(dim, rank))
        return SymTensor(dim, rank, {k: v for k, v in zip(keys, vals) if v is not None})

    return st.integers(min_value=1, max_value=max_rank).flatmap(
        lambda r: st.tuples(st.just(r), st.lists(
            st.one_of(st.none(), rationals),
            min_size=tensor_dim(dim, r), max_size=tensor_dim(dim, r)))).map(build)


@st.composite
def action_cases(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))
    return RMatrix.from_rows(rows), draw(_sparse_tensors(n, 3))


@st.composite
def sparse_action_cases(draw):
    """Elementary shears, permutations and diagonals with zero entries, so
    most columns of phi hold one nonzero or none, at n <= 6 and ranks <= 4."""
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["shear", "permutation", "diagonal"] if n > 1 else ["diagonal"]))
    rows = [[F(int(i == k)) for k in range(n)] for i in range(n)]
    if kind == "shear":
        p, q = draw(st.permutations(range(n)))[:2]
        rows[p][q] = draw(rationals)
    elif kind == "permutation":
        rows = [rows[i] for i in draw(st.permutations(range(n)))]
    else:
        for i, x in enumerate(draw(st.lists(st.just(F(0)) | rationals, min_size=n, max_size=n))):
            rows[i][i] = x
    return RMatrix.from_rows(rows), draw(_sparse_tensors(n, 4))


@settings(max_examples=60, deadline=None)
@given(case=action_cases() | sparse_action_cases())
def test_gl_action_matches_sympy_substitution(case):
    phi, a = case
    n = a.dim
    xs = sp.symbols(f"x0:{n}")
    images = [sum(sp.Rational(phi.entries[k][i]) * xs[k] for k in range(n)) for i in range(n)]
    expr = sum(sp.Rational(c) * sp.Mul(*(images[i] ** e for i, e in enumerate(alpha)))
               for alpha, c in a.coeffs.items())
    assert gl_action(phi, a) == _sympy_tensor(expr, xs, a.rank)


@settings(max_examples=40, deadline=None)
@given(x=st.lists(st.one_of(st.just(F(0)), rationals), min_size=1, max_size=5),
       r=st.integers(min_value=0, max_value=4))
def test_vector_power_matches_multinomial_formula(x, r):
    expected = {}
    for alpha in multi_indices(len(x), r):
        value = F(math.factorial(r))
        for xi, a in zip(x, alpha):
            value *= xi ** a / math.factorial(a)
        expected[alpha if r else ()] = value
    assert vector_power(x, r) == SymTensor(len(x), r, expected)


def _assert_well_formed(out):
    assert out == SymTensor(out.dim, out.rank, dict(out.coeffs))
    assert all(out.coeffs.values())
    assert all(isinstance(v, Fraction) for v in out.coeffs.values())


@settings(max_examples=40, deadline=None)
@given(case=action_cases(), c=rationals, x=st.lists(rationals, min_size=4, max_size=4))
def test_kernel_outputs_are_well_formed(case, c, x):
    phi, a = case
    b = gl_action(phi, a)
    for out in (b, vector_power(x[:a.dim], a.rank), sym_product(a, b), a + b, a - a, -b,
                b.scale(c), SymTensor.zero(a.dim, a.rank)):
        _assert_well_formed(out)


@pytest.mark.parametrize("r", [0, 2])
def test_vector_power_of_numpy_floats_is_refused(r):
    with pytest.raises(TypeError):
        vector_power([np.float32(0.5), np.int64(2)], r)


def test_vector_power_of_numpy_ints_stays_exact():
    """numpy integers enter the int kernel as Python ints, so 2^80 does not wrap."""
    np = pytest.importorskip("numpy")
    out = vector_power([np.int64(2 ** 40), np.int64(1)], 2)
    assert out == t(2, 2, {(2, 0): 2 ** 80, (1, 1): 2 ** 41, (0, 2): 1})
    assert all(isinstance(v, Fraction) for v in out.coeffs.values())


# -- Horner covariance expansion ----------------------------------------------------

@st.composite
def expansion_cases(draw):
    """Tensors T_0..T_R of ranks R..0 with random sparse coefficients, and
    a shift y that may be zero."""
    n = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.integers(min_value=0, max_value=3))
    ts = []
    for rank in range(r, -1, -1):
        keys = sorted(multi_indices(n, rank))
        vals = draw(st.lists(st.none() | rationals, min_size=len(keys), max_size=len(keys)))
        ts.append(SymTensor(n, rank, {k: v for k, v in zip(keys, vals) if v is not None}))
    entry = draw(st.sampled_from([st.just(F(0)), rationals]))
    return ts, draw(st.lists(entry, min_size=n, max_size=n))


def _expansion_oracle(ts, y):
    total = SymTensor.zero(len(y), len(ts) - 1)
    for j, t in enumerate(ts):
        total = total + sym_product(t, vector_power(y, j).scale(F(1, math.factorial(j))))
    return total


@settings(max_examples=80, deadline=None)
@given(case=expansion_cases())
def test_shift_expansion_matches_product_sum(case):
    """The first expansion of ``shift_expansions``, on the tensors and on
    each suffix of them, is the sum of symmetric products."""
    ts, y = case
    for s in range(len(ts)):
        _assert_expansion(shift_expansions(ts[s:], y)[0], ts[s:], y)


def _assert_expansion(got, ts, y):
    assert got == _expansion_oracle(ts, y)
    _assert_well_formed(got)


@settings(max_examples=60, deadline=None)
@given(case=expansion_cases())
def test_shift_expansions_are_those_of_each_suffix(case):
    """Every suffix's expansion, from one clearing of y and one common
    scale, is the first expansion of the suffix alone, view for view."""
    ts, y = case
    got = shift_expansions(ts, y)
    assert len(got) == len(ts)
    for s, expansion in enumerate(got):
        want = shift_expansions(ts[s:], y)[0]
        assert expansion.keys == want.keys
        assert expansion.cleared == want.cleared


@pytest.mark.parametrize("ts, y", [
    ([t(3, 2, {(2, 0, 0): F(1, 3), (0, 1, 1): -2}), SymTensor.zero(3, 1),
      SymTensor.scalar(3, F(5, 7))], [F(1, 2), 0, -3]),
    ([t(2, 3, {(0, 3): 4}), t(2, 2, {(1, 1): F(-1, 6)}), t(2, 1, {}), SymTensor.zero(2, 0)],
     [F(2, 3), F(-5, 4)]),
    ([SymTensor.scalar(4, F(-3, 8))], [1, F(1, 2), 0, 7]),
    ([SymTensor.zero(2, 0)], [3, 4]),
], ids=["sparse-r2", "sparse-r3-zero-tail", "rank-0", "rank-0-zero"])
def test_sparse_and_rank_0_expansions_match_the_map_oracle(ts, y):
    """Tensors with missing keys, zero tensors and a cascade of one rank-0
    tensor: each view is laid out densely once, and every suffix's
    expansion equals the sum of products on plain maps."""
    got = shift_expansions(ts, y)
    assert [e.rank for e in got] == [x.rank for x in ts]
    for s, expansion in enumerate(got):
        assert dict(expansion.coeffs) == map_shift_expansion([x.coeffs for x in ts[s:]], y)
        _assert_well_formed(expansion)


def test_shift_expansion_small_cases():
    a = t(2, 1, {(1, 0): F(2, 3)})
    one = SymTensor.scalar(2, F(1, 2))
    # (2/3) e1 + (1/2) y with y = (3, -1/5)
    assert shift_expansions([a, one], [3, F(-1, 5)])[0] == t(2, 1, {(1, 0): F(13, 6),
                                                                   (0, 1): F(-1, 10)})
    assert shift_expansions([one], [F(7), F(1, 3)]) == [one]
    assert shift_expansions([a, one], [0, 0]) == [a, one]


def test_shift_expansion_rejects_bad_ranks():
    with pytest.raises(DimensionMismatch):
        shift_expansions([e1, e1], [1, 1])
    with pytest.raises(DimensionMismatch):
        shift_expansions([e1, SymTensor.scalar(2, 1)], [1, 1, 1])


@pytest.mark.parametrize("kind", ["random", "scaled", "orthogonal"])
def test_float_inverse_matches_numpy(kind):
    """``linalg.inv`` refuses a float matrix; the exact inverse of its
    dyadic twin, the rationals its floats are, agrees with
    ``numpy.linalg.inv`` to 1e-12 of the largest entry."""
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng({"random": 11, "scaled": 12, "orthogonal": 13}[kind])
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n))
        if kind == "scaled":
            a *= 10.0 ** int(rng.integers(-8, 9))
        elif kind == "orthogonal":
            a, _ = np.linalg.qr(a)
        with pytest.raises(TypeError):
            linalg.inv(a.tolist())
        got = linalg.inv([[F(x) for x in row] for row in a.tolist()])
        assert all(type(x) is F for row in got for x in row)
        want = np.linalg.inv(a)
        assert np.abs(np.array(got, dtype=float) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("rows", [
    [[F(1, 10 ** 20), 1], [1, 1]],
    [[F(1, 10 ** 17), 1, 2], [1, 3, 1], [2, 1, 5]],
])
def test_elimination_pivots_past_tiny_leading_entries(rows):
    """A tiny leading entry is a pivot like any other nonzero one: the
    determinant is sympy's, the rank is full and the inverse inverts.  The
    same rows in floats are refused."""
    assert linalg.det(rows) == F(str(sp.Matrix([[sp.Rational(str(x)) for x in row]
                                                for row in rows]).det()))
    assert linalg.rank(rows) == len(rows)
    assert linalg.mat_mul(rows, linalg.inv(rows)) == linalg.identity(len(rows))
    for entry in (linalg.rank, linalg.det, linalg.rref, linalg.inv):
        with pytest.raises(TypeError):
            entry([[float(x) for x in row] for row in rows])


def test_float_inverse_of_singular_matrix_raises():
    """A float matrix is refused, its exact twin as singular."""
    with pytest.raises(TypeError):
        linalg.inv([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(DimensionMismatch):
        linalg.inv([[1, 2], [2, 4]])


def test_views_are_clear_denominators_built_once():
    """A matrix's and a tensor's integer views are what clearing their rows
    or coefficient values gives, as tuples, built once per object."""
    phi = RMatrix.from_rows([[1, F(1, 2)], [F(-2, 3), F(1, 2)]])
    d, rows = linalg.clear_denominators(phi.entries)
    assert phi.cleared == (d, tuple(map(tuple, rows))) and phi.cleared is phi.cleared
    exact = RMatrix.from_rows([[1, F(1, 2)], [F(-2, 3), 5]])
    assert exact.cleared == (6, ((6, 3), (-4, 30)))
    a = t(2, 2, {(2, 0): F(1, 4), (1, 1): F(-5, 6), (0, 2): 3})
    assert a.cleared == (12, ((3, -10, 36),)) and a.cleared is a.cleared
    with pytest.raises(TypeError):
        t(2, 1, {(1, 0): 0.5, (0, 1): F(1, 3)})
    assert SymTensor.zero(3, 2).cleared == (1, ((),))


def test_tensors_from_totals_compare_on_their_views():
    """Tensors hold their coefficients as totals over one denominator until
    read, however they were made: ``cleared`` is the totals over their gcd
    with it, and ==, the view distance and ``is_zero`` work on views, in
    any key order, building no Fraction."""
    keys = [(2, 0), (1, 1), (0, 2)]
    a = SymTensor.from_totals(2, 2, keys, [6, 0, -9], 12)
    b = SymTensor.from_totals(2, 2, keys[::-1], [-6, 0, 4], 8)
    c = SymTensor.from_totals(2, 2, keys, [1, 0, 0], 2)
    m = t(2, 2, {(2, 0): F(1, 2)})
    assert a.cleared == (4, ((2, -3),)) and a.keys == ((2, 0), (0, 2))
    assert b.cleared == (4, ((-3, 2),)) and b.keys == ((0, 2), (2, 0))
    assert a == b and a != c and view_distance(a, b) == 0
    assert view_distance(a, c) == F(3, 4) and view_distance(a, m) == F(3, 4) and m == c
    assert not a.is_zero() and SymTensor.from_totals(2, 2, keys, [0, 0, 0], 5).is_zero()
    assert all("coeffs" not in vars(x) for x in (a, b, c, m))
    assert a.coeffs == {(2, 0): F(1, 2), (0, 2): F(-3, 4)} and a == t(2, 2, a.coeffs)
    assert a.scale(F(-2, 3)) == SymTensor.from_totals(2, 2, keys, [-2, 0, 3], 6)


@settings(max_examples=30, deadline=None)
@given(xs=st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=6),
       r=st.integers(min_value=0, max_value=3))
def test_tensor_sum_equals_pairwise_sum(xs, r):
    """Vector powers with mixed denominators, and each one's negation after
    them: the one int pass gives what folding with + gives, to the
    coefficient, builds no Fraction, and the full list cancels to zero."""
    values = [vector_power(x, r) for x in xs]
    total = tensor_sum(values)
    assert "coeffs" not in vars(total)
    assert total.coeffs == reduce(SymTensor.__add__, values).coeffs
    zero = tensor_sum(values + [-v for v in values])
    assert zero.is_zero() and zero == SymTensor.zero(3, r) and zero.keys == ()


def test_tensor_sum_of_maps_totals_and_scalars():
    """Tensors given as maps beside tensors made from totals, a single value
    and rank-0 scalars all sum as pairwise + does."""
    values = [vector_power((F(1, 3), F(-2, 5)), 2), t(2, 2, {(2, 0): F(1, 7), (1, 1): F(-3, 4)}),
              SymTensor.from_totals(2, 2, [(0, 2), (1, 1)], [7, 5], 9), t(2, 2, {(0, 2): 2})]
    assert tensor_sum(values).coeffs == reduce(SymTensor.__add__, values).coeffs
    assert tensor_sum(values[1:2]) == values[1]
    scalars = [SymTensor.scalar(2, F(1, 3)), SymTensor.scalar(2, F(1, 6))]
    assert tensor_sum(scalars) == SymTensor.scalar(2, F(1, 2))
    assert tensor_sum(scalars + [SymTensor.scalar(2, F(-1, 2))]).is_zero()


@pytest.mark.parametrize("values", [
    [vector_power((1, 2), 2), vector_power((1, 2), 1)],
    [vector_power((1, 2), 2), vector_power((1, 2, 3), 2)],
    [vector_power((F(1, 2), 2), 2), vector_power((1, 2), 1)],
], ids=["ranks", "dims", "fraction-ranks"])
def test_tensor_sum_refuses_mixed_spaces(values):
    with pytest.raises(DimensionMismatch):
        tensor_sum(values)
