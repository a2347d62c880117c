"""Workloads of the valuta benchmark: seeded inputs, checks and their oracles.

``build(name, seed, v)`` returns one cycle of cases; the benchmark repeats
the cycle, so every run sees the same mix of case sizes and its medians and
tails fall inside a size class, not on the edge between two.  ``v`` holds
the freshly imported valuta modules, and cases look functions up through
them at call time, so a traced run sees every call.

A case calls one public valuta check or computation and verifies the
answer.  Where an independent oracle exists it is used: the box product
formula for moment tensors, the complex rank and J-structure a subspace was
built with, Klain value 1 for the volume on a subspace, the determinant of
a diagonal-times-shear matrix.  Otherwise the case expects a verdict: a
positive case must report ``passed`` with a residual that is an exact
``Fraction`` zero, and a planted wrong valuation must report a failure with
a nonzero residual.  Cases with ``known_defect`` set fail today for the
stated reason; they are counted as failures and kept visible on purpose.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

WORKLOADS = ("moment-kuhn", "equivariance-c3", "cascade", "complex-structure")

# Denominators of the random rationals: 1 to a few hundred.  Every body draws
# from this one menu, and every box in R^n uses its first 2n entries, so bit
# lengths, and with them timings, vary little between seeds.
DENOMINATORS = (1, 3, 7, 12, 30, 97, 210, 360, 2, 5)
PLANTED_RESIDUAL = Fraction(1, 10 ** 400)


class TrivialTensor(Exception):
    """A check's base body has z(K) = 0, so the check would time no work."""


@dataclass
class Case:
    name: str
    run: Callable[[], bool]
    dim: int
    rank: int
    cells: int
    coeffs: int
    den_bits: int
    known_defect: str = ""


# -- oracles and verdicts ---------------------------------------------------------
# The oracles use plain Python, not valuta's own helpers (multi_indices,
# j_apply, dot), so that they share no code with what they check.


def exact_zero(x) -> bool:
    return isinstance(x, Fraction) and x == 0


def passes(report) -> bool:
    return report.passed is True and exact_zero(report.max_residual)


def flags(report) -> bool:
    """A planted wrong valuation is reported as failing, with its residual."""
    return (report.passed is False and isinstance(report.max_residual, Fraction)
            and report.max_residual != 0)


def degree_indices(n: int, r: int):
    if n == 1:
        yield (r,)
        return
    for first in range(r + 1):
        for rest in degree_indices(n - 1, r - first):
            yield (first,) + rest


def box_moment(lo, hi, r: int) -> dict:
    """Box product formula: the moment coefficient at alpha is
    prod (hi^(a+1) - lo^(a+1)) / (a+1)!, zeros left out."""
    out = {}
    for alpha in degree_indices(len(lo), r):
        c = Fraction(1)
        for a, l, h in zip(alpha, lo, hi):
            c *= Fraction(h ** (a + 1) - l ** (a + 1), math.factorial(a + 1))
        if c:
            out[alpha] = c
    return out


def j_map(v):
    """Multiplication by i on C^m = R^2m: (x, y) -> (-y, x)."""
    m = len(v) // 2
    return tuple(-x for x in v[m:]) + tuple(v[:m])


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def is_adapted(basis, span, d: int) -> bool:
    """Orthonormal, inside span (an orthonormal basis), and shaped
    (v_1..v_d, J v_1..J v_{j-d})."""
    j = len(span)
    if len(basis) != j:
        return False
    for i, u in enumerate(basis):
        if any(_dot(u, w) != (i == k) for k, w in enumerate(basis)):
            return False
        proj = [sum(_dot(u, b) * b[t] for b in span) for t in range(len(u))]
        if tuple(proj) != tuple(u):
            return False
    return all(basis[d + i] == j_map(basis[i]) for i in range(j - d))


def shoelace(points) -> Fraction:
    area = sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(points, points[1:] + points[:1]))
    return abs(Fraction(area)) / 2


def interpolant(degree: int, nodes: int) -> list[int]:
    """Coefficients (low to high) of the polynomial of degree < nodes that
    agrees with t^degree at t = 1..nodes: t^degree mod (t-1)...(t-nodes)."""
    p = [1]
    for k in range(1, nodes + 1):
        p = [(p[i - 1] if i else 0) - k * (p[i] if i < len(p) else 0)
             for i in range(len(p) + 1)]
    rem = [0] * degree + [1]
    for top in range(degree, nodes - 1, -1):
        c = rem[top]
        for i, pc in enumerate(p):
            rem[top - nodes + i] -= c * pc
    return rem[:nodes]


def planted_epsilon(area: Fraction, n: int, lam: Fraction) -> Fraction:
    """Weight eps making z = vol + eps vol^2 fail rehomogeneity by exactly
    PLANTED_RESIDUAL on a body of volume ``area`` in R^n, dilated by lam.

    vol^2 is 2n-homogeneous, so McMullen interpolation on the dilates
    1..n+1 sees t^2n through its interpolant q; component j then differs
    by eps area^2 |lam^2n - lam^j| |q_j| between the body and its dilate.
    """
    q = interpolant(2 * n, n + 1)
    worst = max(abs(lam ** (2 * n) - lam ** j) * abs(qj) for j, qj in enumerate(q))
    return PLANTED_RESIDUAL / (area * area * worst)


# -- input generators ---------------------------------------------------------------


def _rational(rng: random.Random, bound: int = 3) -> Fraction:
    d = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(-bound * d, bound * d), d)


def _small(rng: random.Random) -> Fraction:
    """Half-integer +-1/2 or +-3/2, for frames, centres and shears: one
    denominator for all, so that their cost varies little between seeds."""
    return Fraction(rng.choice((-3, -1, 1, 3)), 2)


def _den_bits(*groups) -> int:
    return max((x.denominator.bit_length() for g in groups for v in g for x in v), default=0)


def _simplex(v, rng, n):
    while True:
        verts = [[_rational(rng) for _ in range(n)] for _ in range(n + 1)]
        try:
            return v.polytope.simplex(verts)
        except v.errors.GeometryError:
            continue


def _crosspolytope(v, rng, n):
    """Off-centre crosspolytope on a sheared rational frame."""
    frame = [[Fraction(int(i == k)) for i in range(n)] for k in range(n)]
    for k in range(n - 1):
        frame[k][k + 1] = _small(rng)
    centre = [_small(rng) for _ in range(n)]
    return v.polytope.translate(v.polytope.crosspolytope(frame), centre)


def _guarded(v, z, body):
    """z, raising TrivialTensor when it vanishes on the check's base body."""

    def evaluate(b):
        t = z.evaluator(b)
        if b is body and t.is_zero():
            raise TrivialTensor(f"{z.name} is zero on the base body")
        return t

    return v.valuation_lab.Valuation(z.name, z.rank, z.dim, evaluate, z.parity, z.translation)


def _shear(v, rng, count=1, pair=None):
    """Exact SL(3, C) shear: one elementary shear at ``pair`` (random if
    None) with nonzero real and imaginary parts, so that equal checks do
    equal work, or a product of ``count`` random ones."""
    if count > 1:
        return v.cplx.sl_mc_element("shear", 3, {"count": count}, seed=rng.randrange(2 ** 32))
    p, q = pair or rng.sample(range(3), 2)
    return v.cplx.sl_mc_element("shear", 3, {"p": p, "q": q, "re": _small(rng), "im": _small(rng)})


# -- moment-kuhn --------------------------------------------------------------------

# Each cycle is laid out so that its median and 90th percentile fall in the
# middle of a run of similar cases, never on the edge between two sizes.
# Here, 14 boxes: the median is the middle R^4 rank-3 box and the 90th
# percentile the middle R^4 rank-4 box.
KUHN_CYCLE = ((4, 2),) * 4 + ((4, 3),) * 5 + ((5, 2),) * 2 + ((4, 4),) * 3


def _moment_kuhn(v, rng):
    cases = []
    for n, r in KUHN_CYCLE:
        dens = rng.sample(DENOMINATORS[:2 * n], 2 * n)
        lo = [Fraction(rng.randint(-3 * d, 3 * d), d) for d in dens[:n]]
        hi = [a + Fraction(rng.randint(d, 3 * d), d) for a, d in zip(lo, dens[n:])]
        body = v.polytope.box(lo, hi)

        def run(body=body, lo=lo, hi=hi, n=n, r=r):
            got = v.moment.moment_tensor(body, r).tensor
            return got.dim == n and got.rank == r and got.coeffs == box_moment(lo, hi, r)

        cases.append(Case(f"box{n}-r{r}", run, n, r, math.factorial(n), math.comb(n + r - 1, r),
                          _den_bits([lo, hi])))
    return cases


# -- equivariance-c3 ------------------------------------------------------------------


def _equivariance_c3(v, rng):
    """12 cases: the median falls among the seven rank-2 simplex checks, the
    90th percentile on the middle crosspolytope check."""
    vl = v.valuation_lab
    cases = []

    def add(name, body, z, shears, expect=passes):
        def run():
            return expect(vl.verify_equivariance(z, shears, body))

        cells = len(body.triangulation)
        cases.append(Case(name, run, 6, z.rank, cells, math.comb(6 + z.rank - 1, z.rank),
                          _den_bits(body.vertices)))

    identity2 = v.symtensor.SymTensor(
        6, 2, {tuple(2 * (k == i) for k in range(6)): 1 for i in range(6)})
    for i in range(6):
        body = _simplex(v, rng, 6)
        add(f"simplex6-r2-{i}", body, _guarded(v, vl.moment_valuation(6, 2), body),
            [_shear(v, rng) for _ in range(3)])
    # Planted: moment[2] plus vol * sum e_i^2, which no shear preserves.
    body = _simplex(v, rng, 6)
    planted = vl.Valuation(
        "moment[2]+vol*I", 2, 6,
        lambda b: v.moment.moment_tensor(b, 2).tensor + identity2.scale(v.polytope.volume(b)))
    add("planted-simplex6-r2", body, _guarded(v, planted, body),
        [_shear(v, rng) for _ in range(3)], expect=flags)
    for i in range(2):
        body = _simplex(v, rng, 6)
        add(f"simplex6-r3-{i}", body, _guarded(v, vl.moment_valuation(6, 3), body),
            [_shear(v, rng)])
    cross = _crosspolytope(v, rng, 6)
    for i in range(3):
        add(f"cross6-r2-{i}", cross, _guarded(v, vl.moment_valuation(6, 2), cross),
            [_shear(v, rng, pair=(i, (i + 1) % 3))])
    return cases


# -- cascade ------------------------------------------------------------------------------


def _cascade(v, rng):
    vl = v.valuation_lab
    tri = _simplex(v, rng, 2)
    poly = v.polytope.polygon([[_rational(rng), _rational(rng)] for _ in range(9)])
    simp, simp_b = _simplex(v, rng, 4), _simplex(v, rng, 4)
    cross = _crosspolytope(v, rng, 4)
    lams = [Fraction(3, 2), Fraction(2, 3), Fraction(5, 3), Fraction(4, 5)]
    cases = []

    def add(name, body, rank, run, known_defect=""):
        cases.append(Case(name, run, body.dim, rank, len(body.triangulation),
                          math.comb(body.dim + rank - 1, rank) if rank else 1,
                          _den_bits(body.vertices), known_defect))

    def covariance(name, body, r, scale_rank1=1, expect=passes):
        zs = [vl.moment_valuation(body.dim, k) for k in range(r, -1, -1)]
        zs = [z.scaled(scale_rank1) if z.rank == 1 and scale_rank1 != 1 else z for z in zs]
        zs = [_guarded(v, z, body) for z in zs]
        ys = [[_rational(rng, 2) for _ in range(body.dim)] for _ in range(2)]
        add(name, body, r, lambda: expect(vl.verify_covariance(zs, body, ys)))

    def rehomogeneity(name, body, z, expect=passes, known_defect=""):
        lam = rng.choice(lams)
        add(name, body, z.rank, lambda: expect(vl.rehomogeneity_check(z, body, lam)),
            known_defect)

    def mcmullen(name, body, r):
        z = vl.moment_valuation(body.dim, r)
        top = body.dim + r

        def run():
            comps = vl.mcmullen_decompose(z, body)
            whole = v.moment.moment_tensor(body, r).tensor
            return (len(comps) == top + 1 and all(c.is_zero() for c in comps[:top])
                    and not whole.is_zero() and comps[top] == whole)

        add(name, body, r, run)

    def vol_plus_square(n, eps):
        def evaluate(b):
            vol = v.polytope.volume(b)
            return v.symtensor.SymTensor.scalar(n, vol + eps * vol * vol)

        return vl.Valuation("vol+eps*vol^2", 0, n, evaluate)

    # 20 cases.  Below the median: seven checks in R^2 under 10 ms.
    rehomogeneity("planted-rehom-poly", poly, vol_plus_square(2, Fraction(1)), expect=flags)
    rehomogeneity("rehom-tri-r2", tri, vl.moment_valuation(2, 2))
    covariance("cov-tri-r2", tri, 2)
    covariance("cov-tri-r3", tri, 3)
    covariance("planted-cov-poly-r2", poly, 2, scale_rank1=2, expect=flags)
    mcmullen("mcmullen-tri-r2", tri, 2)
    mcmullen("mcmullen-poly-r2", poly, 2)
    # The median: five checks of similar cost.
    rehomogeneity("rehom-poly-r2", poly, vl.moment_valuation(2, 2))
    rehomogeneity("rehom-simplex4-r1", simp, vl.moment_valuation(4, 1))
    covariance("cov-simplex4-r2", simp, 2)
    covariance("cov-simplex4b-r2", simp_b, 2)
    covariance("cov-cross4-r1", cross, 1)
    # Between: four heavier checks.
    covariance("cov-poly-r3", poly, 3)
    mcmullen("mcmullen-simplex4-r2", simp, 2)
    mcmullen("mcmullen-cross4-r1", cross, 1)
    rehomogeneity("rehom-cross4-r1", cross, vl.moment_valuation(4, 1))
    # The 90th percentile: three rank-2 and rank-3 cascades in R^4.
    covariance("cov-cross4-r2", cross, 2)
    covariance("cov-simplex4-r3", simp, 3)
    covariance("cov-simplex4b-r3", simp_b, 3)
    # Planted: an exact residual of 10^-400, which a float comparison loses.
    lam = Fraction(3, 2)
    eps = planted_epsilon(shoelace(list(tri.vertices)), 2, lam)
    tiny = vol_plus_square(2, eps)
    add("planted-rehom-tri-1e-400", tri, 0,
        lambda: flags(vl.rehomogeneity_check(tiny, tri, lam)),
        "rehomogeneity_check compares residuals through float(), so 10^-400 reads as 0 "
        "and the wrong valuation passes")
    return cases


# -- complex-structure ------------------------------------------------------------------


def _unitary_frame(v, rng):
    """Columns of a rational orthogonal 6x6 matrix commuting with J: the
    Cayley transform (I - A)(I + A)^-1 of a realified skew-Hermitian A."""
    rows = [[(Fraction(0), Fraction(0))] * 3 for _ in range(3)]
    for i in range(3):
        rows[i][i] = (Fraction(0), _small(rng))
        for k in range(i + 1, 3):
            re, im = _small(rng), _small(rng)
            rows[i][k] = (re, im)
            rows[k][i] = (-re, im)
    a = v.cplx.realify(v.cplx.CMatrix.from_rows(rows)).entries
    eye = v.linalg.identity(6)
    minus = [[eye[i][k] - a[i][k] for k in range(6)] for i in range(6)]
    plus = [[eye[i][k] + a[i][k] for k in range(6)] for i in range(6)]
    q = v.linalg.mat_mul(minus, v.linalg.inv(plus))
    return [tuple(q[i][c] for i in range(6)) for c in range(6)]


# Column patterns of a unitary frame (columns k and k+3 span a complex
# line) with the complex rank of their span.
SUBSPACE_PATTERNS = (
    ((0, 1), 2), ((0, 3), 1),
    ((0, 3, 1), 2), ((0, 1, 2), 3), ((0, 4, 2), 3), ((1, 4, 2), 2), ((0, 3, 2), 2),
    ((0, 3, 1, 4), 2), ((0, 3, 1, 2), 3), ((0, 3, 1, 4, 2), 3),
)


def _complex_structure(v, rng):
    """23 cases: the median falls among the five 3-dimensional adapted-basis
    checks, the 90th percentile among the three crosspolytope transfers."""
    vl, cplx = v.valuation_lab, v.cplx
    cases = []

    def add(name, dim, run, rank=0, cells=0, den_bits=0, known_defect=""):
        coeffs = math.comb(dim + rank - 1, rank) if rank else 0
        cases.append(Case(name, run, dim, rank, cells, coeffs, den_bits, known_defect))

    for pattern, d in SUBSPACE_PATTERNS:
        frame = _unitary_frame(v, rng)
        span = cplx.Subspace.from_orthonormal([frame[c] for c in pattern])

        def adapted(span=span, d=d):
            basis = cplx.adapted_basis(span).basis
            return (cplx.complex_rank(span) == d and cplx.complex_rank(basis[:d]) == d
                    and is_adapted(basis, span.basis, d))

        add(f"adapted-{len(pattern)}-{d}-{''.join(map(str, pattern))}", 6, adapted,
            den_bits=_den_bits(span.basis))

    for i in range(3):
        entries = _shear(v, rng, 3).entries
        # A fresh matrix per check, so det_C is never served from its cache.
        add(f"det-identity-{i}", 6, lambda e=entries: cplx.det_identity_check(cplx.CMatrix(e)))

    diag = [(Fraction(2), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(1, 3), Fraction(0))]
    factor = math.prod(re * re + im * im for re, im in diag)
    psi = (cplx.CMatrix.diag(diag) @ _shear(v, rng, 2)).entries
    for name in ("scaling-simplex6", "scaling-simplex6b"):
        body = _simplex(v, rng, 6)

        def scaling(body=body):
            report = vl.scaling_relation_check(
                vl.volume_valuation(6), 6, cplx.CMatrix(psi), body, require_exact=True)
            return passes(report) and Fraction(report.witnesses[0]["factor"]) == factor

        add(name, 6, scaling, cells=len(body.triangulation), den_bits=_den_bits(body.vertices))

    for j in (2, 3, 5):
        seed = rng.randrange(2 ** 32)

        def klain(j=j, seed=seed):
            sub = cplx.sample_subspace(3, j, seed)
            value = vl.klain(vl.span_lebesgue_valuation(6, j), j, sub).value.coeff(())
            return abs(value - 1) <= 1e-9

        add(f"klain-{j}", 6, klain)

    def square(x):
        return v.symtensor.vector_power(x, 2)

    def shear4():
        return [[1, _small(rng), 0, 0], [0, 1, 0, 0], [0, 0, 1, _small(rng)], [0, 0, 0, 1]]

    corner = [_small(rng) for _ in range(4)]
    box = v.polytope.box(corner, [c + 1 + Fraction(k, 2) for k, c in enumerate(corner)])
    for name, body, phi, defect in (
            ("transfer-cross4", _crosspolytope(v, rng, 4), shear4(), ""),
            ("transfer-cross4b", _crosspolytope(v, rng, 4), shear4(), ""),
            ("transfer-cross4c", _crosspolytope(v, rng, 4), shear4(), ""),
            ("transfer-simplex4", _simplex(v, rng, 4), shear4(), ""),
            ("transfer-box4", box, shear4(),
             "linear_image turns a box into kind 'generic', for which "
             "surface_area_measure has no facet rule")):
        def transfer(body=body, phi=phi):
            return passes(vl.transfer_check(square, v.symtensor.RMatrix.from_rows(phi), body))

        add(name, body.dim, transfer, rank=2, cells=len(body.triangulation),
            den_bits=_den_bits(body.vertices), known_defect=defect)
    return cases


_BUILDERS = {
    "moment-kuhn": _moment_kuhn,
    "equivariance-c3": _equivariance_c3,
    "cascade": _cascade,
    "complex-structure": _complex_structure,
}


def build(name: str, seed: int, modules: dict) -> list[Case]:
    """One cycle of cases for workload ``name``, drawn from ``seed``."""
    return _BUILDERS[name](SimpleNamespace(**modules), random.Random(f"{name}:{seed}"))
