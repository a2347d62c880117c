import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuta.errors import DimensionMismatch
from valuta.symtensor import (
    RMatrix,
    SymTensor,
    gl_action,
    multi_indices,
    shift_expansion,
    sym_product,
    tensor_dim,
    vector_power,
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


class TestTensorDim:
    @pytest.mark.parametrize("n,r,expected", [(4, 2, 10), (7, 0, 1), (4, 3, 20)])
    def test_values(self, n, r, expected):
        assert tensor_dim(n, r) == expected

    @pytest.mark.parametrize("n,r", [(2, 3), (4, 2), (5, 4)])
    def test_counts_monomials(self, n, r):
        assert len(list(multi_indices(n, r))) == tensor_dim(n, r)


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


def test_scalar_json_uses_empty_key():
    s = SymTensor.scalar(4, F(1, 2))
    data = s.to_json_dict()
    assert data["coeffs"] == {"": "1/2"}
    assert SymTensor.from_json_dict(data) == s


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


@settings(max_examples=40, deadline=None)
@given(case=action_cases())
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


def test_gl_action_with_float_matrix_returns_floats():
    phi = RMatrix.from_rows([[0.5, 1.0], [0.0, 2.0]], exact=False)
    out = gl_action(phi, t(2, 2, {(2, 0): F(1, 3), (1, 1): -2, (0, 2): 1}))
    assert all(isinstance(v, float) for v in out.coeffs.values())
    # e1 -> (1/2) e1, e2 -> e1 + 2 e2
    assert out.coeffs == pytest.approx({(2, 0): 1 / 12 - 1 + 1, (1, 1): -2 + 4, (0, 2): 4})


def test_vector_power_of_numpy_floats_gives_floats():
    np = pytest.importorskip("numpy")
    out = vector_power([np.float32(0.5), np.int64(2)], 2)
    assert all(isinstance(v, float) for v in out.coeffs.values())
    assert out.coeffs == {(2, 0): 0.25, (1, 1): 2.0, (0, 2): 4.0}


def test_vector_power_of_numpy_ints_stays_exact():
    """numpy integers enter the int kernel as Python ints, so 2^80 does not wrap."""
    np = pytest.importorskip("numpy")
    out = vector_power([np.int64(2 ** 40), np.int64(1)], 2)
    assert out == t(2, 2, {(2, 0): 2 ** 80, (1, 1): 2 ** 41, (0, 2): 1})
    assert all(isinstance(v, Fraction) for v in out.coeffs.values())


# -- Horner covariance expansion ----------------------------------------------------

dyadic_floats = st.sampled_from([0.5, -0.25, 1.5, -3.0, 0.125])


@st.composite
def expansion_cases(draw):
    """Tensors T_0..T_R of ranks R..0 with random sparse coefficients, some
    of them floats, and a shift y that may be zero or hold floats."""
    n = draw(st.integers(min_value=1, max_value=4))
    r = draw(st.integers(min_value=0, max_value=3))
    coeff = rationals | dyadic_floats if draw(st.booleans()) else rationals
    ts = []
    for rank in range(r, -1, -1):
        keys = sorted(multi_indices(n, rank))
        vals = draw(st.lists(st.none() | coeff, min_size=len(keys), max_size=len(keys)))
        ts.append(SymTensor(n, rank, {k: v for k, v in zip(keys, vals) if v is not None}))
    entry = draw(st.sampled_from([st.just(F(0)), rationals, rationals | dyadic_floats]))
    return ts, draw(st.lists(entry, min_size=n, max_size=n))


def _expansion_oracle(ts, y):
    total = SymTensor.zero(len(y), len(ts) - 1)
    for j, t in enumerate(ts):
        total = total + sym_product(t, vector_power(y, j).scale(F(1, math.factorial(j))))
    return total


@settings(max_examples=80, deadline=None)
@given(case=expansion_cases())
def test_shift_expansion_matches_product_sum(case):
    ts, y = case
    got, want = shift_expansion(ts, y), _expansion_oracle(ts, y)
    float_coeffs = any(isinstance(v, float) for t in ts for v in t.coeffs.values())
    if not float_coeffs and not any(isinstance(c, float) for c in y):
        assert got == want
        _assert_well_formed(got)
        return
    assert (got.dim, got.rank) == (want.dim, want.rank) and all(got.coeffs.values())
    if float_coeffs:
        assert all(isinstance(v, float) for v in got.coeffs.values())
    # Rounding is bounded relative to the expansion of the absolute values.
    absolute = _expansion_oracle(
        [SymTensor(t.dim, t.rank, {k: abs(v) for k, v in t.coeffs.items()}) for t in ts],
        [abs(c) for c in y])
    size = max([1.0] + [float(v) for v in absolute.coeffs.values()])
    for k in {**got.coeffs, **want.coeffs}:
        assert got.coeff(k) == pytest.approx(float(want.coeff(k)), abs=1e-12 * size)


def test_shift_expansion_small_cases():
    a = t(2, 1, {(1, 0): F(2, 3)})
    one = SymTensor.scalar(2, F(1, 2))
    # (2/3) e1 + (1/2) y with y = (3, -1/5)
    assert shift_expansion([a, one], [3, F(-1, 5)]) == t(2, 1, {(1, 0): F(13, 6),
                                                               (0, 1): F(-1, 10)})
    assert shift_expansion([one], [F(7), F(1, 3)]) == one
    assert shift_expansion([a, one], [0, 0]) == a


def test_shift_expansion_rejects_bad_ranks():
    with pytest.raises(DimensionMismatch):
        shift_expansion([e1, e1], [1, 1])
    with pytest.raises(DimensionMismatch):
        shift_expansion([e1, SymTensor.scalar(2, 1)], [1, 1, 1])
