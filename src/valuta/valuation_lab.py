"""Verification harness for tensor-valued valuations on polytopes.

A valuation here is a callable body -> symmetric tensor with declared rank,
ambient dimension, parity, and translation behavior.  The harness extracts
homogeneous components by exact polynomial interpolation on integer dilates,
evaluates Klain functions on probe bodies inside subspaces, and checks
translation covariance, group equivariance, determinant scaling relations,
and the surface-area pairing that represents codimension-one components.

The interpolation weights, the inverse of the Vandermonde matrix on the
dilates 1..top + 1, depend only on top = n + rank; they are built once per
top as an int matrix and one denominator, so a decomposition is one int sum
per component and coefficient and one division.  The rehomogeneity check
reads both of its decompositions off one table of values: each dilate t K
is built off the body, K itself at t = 1, and z runs once per distinct
factor t, so a node k lambda that is an integer node costs nothing more.
The covariance cascade compares each translate against
``symtensor.shift_expansions``, the expansions sum_j Z^(r-j)(K) y^j / j! of
every suffix of the cascade by Horner's rule in y, in ints, from one
clearing of y per shift and one dense layout of each value; there the
moments of each body share one kernel pass (``moment._shared_passes``).

Every number is rational: bodies, tensors, matrices, subspaces, shifts and
dilation factors refuse a float, numpy float or ``complex`` with
``TypeError`` where they enter, so every check reaches its verdict in exact
arithmetic.  Every check compares (a, b) tensor pairs and reaches its
verdict by one rule (``_verdict``).  The residual of a pair is
``symtensor.view_distance``, max |a_k - b_k| on the tensors' integer views,
a ``Fraction`` from one int difference per key; equal views subtract
nothing.  A pair passes only at residual 0.  The check passes when every
pair does, and reports its worst residual (a failing pair's first) with
that pair's witness.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import linalg
from .cplx import CMatrix, Subspace, gram_schmidt, realify
from .errors import DimensionMismatch, GeometryError, ValutaError
from .linalg import cabs2, exact_sqrt, interpolation_weights
from .moment import _shared_passes, moment_tensor
from .polytope import (
    Polytope,
    atom_totals,
    cube,
    linear_image,
    scale,
    subspace_volume,
    translate,
    _view_body,
    volume,
)
from .symtensor import (
    RMatrix,
    SymTensor,
    format_rational,
    gl_action,
    shift_expansions,
    tensor_sum,
    view_distance,
)


@dataclass(frozen=True)
class Valuation:
    """A body -> tensor map with its declared invariance metadata."""

    name: str
    rank: int
    dim: int
    evaluator: Callable[[Polytope], SymTensor]
    parity: str = "none"        # even | odd | none
    translation: str = "none"   # invariant | covariant | none

    def __call__(self, body: Polytope) -> SymTensor:
        out = self.evaluator(body)
        if out.rank != self.rank or out.dim != self.dim:
            raise DimensionMismatch(
                f"{self.name} produced a tensor in T^{out.rank}(R^{out.dim}), "
                f"declared T^{self.rank}(R^{self.dim})")
        return out

    def scaled(self, c, name: str | None = None) -> "Valuation":
        return Valuation(
            name or f"{format_rational(c)}*{self.name}", self.rank, self.dim,
            lambda body: self.evaluator(body).scale(c), self.parity, self.translation)

    def plus(self, other: "Valuation", name: str | None = None) -> "Valuation":
        if (self.rank, self.dim) != (other.rank, other.dim):
            raise DimensionMismatch("cannot add valuations of different signature")
        return Valuation(
            name or f"{self.name}+{other.name}", self.rank, self.dim,
            lambda body: self.evaluator(body) + other.evaluator(body))

    def even_part(self) -> "Valuation":
        return self._parity_part(1, "even")

    def odd_part(self) -> "Valuation":
        return self._parity_part(-1, "odd")

    def _parity_part(self, sign: int, label: str) -> "Valuation":
        minus_id = RMatrix.diag([-1] * self.dim)

        def run(body: Polytope) -> SymTensor:
            direct = self.evaluator(body)
            mirrored = self.evaluator(linear_image(minus_id, body))
            if sign > 0:
                return (direct + mirrored).scale(Fraction(1, 2))
            return (direct - mirrored).scale(Fraction(1, 2))

        return Valuation(f"{self.name}^{label}", self.rank, self.dim, run, parity=label)


def moment_valuation(n: int, r: int) -> Valuation:
    return Valuation(
        f"moment[{r}]", r, n, lambda body: moment_tensor(body, r).tensor,
        parity="even" if r % 2 == 0 else "odd", translation="covariant")


def volume_valuation(n: int) -> Valuation:
    return Valuation(
        "volume", 0, n, lambda body: SymTensor.scalar(n, volume(body)),
        parity="even", translation="invariant")


def euler_valuation(n: int) -> Valuation:
    return Valuation(
        "euler", 0, n, lambda body: SymTensor.scalar(n, Fraction(1)),
        parity="even", translation="invariant")


def span_lebesgue_valuation(n: int, j: int) -> Valuation:
    """j-dimensional volume of bodies spanning a j-dimensional linear subspace;
    zero on lower-dimensional bodies (the Klain identity probe).  The span is
    orthonormalised by ``gram_schmidt`` of the body's integer view, whose
    rows have the vertices' directions."""

    def run(body: Polytope) -> SymTensor:
        basis = gram_schmidt(body.cleared[1])
        if len(basis) < j:
            return SymTensor.scalar(n, Fraction(0))
        if len(basis) > j:
            raise GeometryError(f"body spans {len(basis)} dimensions, expected {j}")
        return SymTensor.scalar(n, subspace_volume(body, basis))

    return Valuation(f"lebesgue[{j}]", 0, n, run, parity="even", translation="none")


# -- reports -------------------------------------------------------------------


@dataclass
class CheckReport:
    check: str
    passed: bool
    max_residual: Fraction
    witnesses: list

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "witnesses": self.witnesses,
            "max_residual": format_rational(self.max_residual),
            "pass": self.passed,
        }


def _verdict(check: str, pairs) -> CheckReport:
    """The report of a check on its (a, b, witness) pairs, by the rule in
    the module docstring; on a tie the first pair's witness is kept."""
    worst, witnesses = Fraction(0), []
    for a, b, witness in pairs:
        res = view_distance(a, b)
        if not witnesses or res > worst:
            worst, witnesses = res, [witness]
    return CheckReport(check, worst == 0, worst, witnesses)


# -- homogeneous decomposition ---------------------------------------------------


def mcmullen_decompose(z: Valuation, body: Polytope) -> list[SymTensor]:
    """Homogeneous components of a polynomial valuation.

    Evaluates z on the integer dilates 1..N+1 of the body, the body itself
    at 1 (``_dilates``), and solves the Vandermonde system exactly
    (``_components``); degree runs to n for scalar-rank valuations and to
    n + rank for translation-covariant tensor ones, so the returned list has
    n + rank + 1 entries.  Their sum reproduces z at the body.
    """
    return _components(z, _dilates(z, body, [(k, 1) for k in range(1, body.dim + z.rank + 2)]))


def _dilates(z: Valuation, body: Polytope, factors) -> list[SymTensor]:
    """z at the dilate t K for each factor t = a / b, given as its (a, b) in
    lowest terms: each dilate is built off the body (``scale``), K itself
    at t = 1, and z runs once per distinct factor, never on a dilate of a
    dilate and never served from another factor's value."""
    table: dict[tuple[int, int], SymTensor] = {}
    for a, b in factors:
        if (a, b) not in table:
            table[a, b] = z(body if a == b else scale(body, Fraction(a, b)))
    return [table[t] for t in factors]


def _components(z: Valuation, values: list[SymTensor]) -> list[SymTensor]:
    """The homogeneous components read off z's values on the dilates
    1..N + 1 of one body.  The values' integer views (``SymTensor.cleared``)
    are brought to their common scale L (``linalg.common_scale``); over the
    union of their keys, component j at a key is sum_i W[j][i] v_i[key] in
    ints, divided once by D L (``interpolation_weights``)."""
    keys = list({k: None for val in values for k in val.keys})
    lcm, views = linalg.common_scale(val.cleared for val in values)
    rows = [dict(zip(val.keys, ints)) for val, (ints,) in zip(values, views)]
    columns = [[row.get(k, 0) for row in rows] for k in keys]
    weights, d = interpolation_weights(len(values) - 1)
    return [SymTensor.from_totals(z.dim, z.rank, keys,
                                  [sum(map(operator.mul, w, col)) for col in columns], d * lcm)
            for w in weights]


def rehomogeneity_check(z: Valuation, body: Polytope, fresh_lambda) -> CheckReport:
    """Components extracted at a dilate scale like lambda^j against components
    extracted at the body itself, and their sum against z at the body.
    McMullen's z(lambda K) = sum_j lambda^j z_j(K) holds only for lambda > 0
    (lambda < 0 adds a point reflection), and lambda = 1 compares the body
    with itself, so lambda <= 0 and lambda = 1 raise ``ValueError``.

    The components at K read z on k K and those at lambda K on k lambda K,
    k = 1..N + 1, each dilate built off K.  z runs once per distinct factor
    of the union (``_dilates``): k lambda = k' is one body, so one value,
    and the sum is compared with the value at k = 1, z on K itself.
    """
    lam = linalg.frac(fresh_lambda)
    if lam <= 0 or lam == 1:
        raise ValueError(f"rehomogeneity needs lambda > 0 other than 1, got {lam}")
    p, q = lam.as_integer_ratio()
    ks = range(1, body.dim + z.rank + 2)
    values = _dilates(z, body, [(k, 1) for k in ks]
                      + [(k * p // g, q // g) for k in ks for g in (math.gcd(k, q),)])
    base, dilated = _components(z, values[:len(ks)]), _components(z, values[len(ks):])
    shown = format_rational(lam)
    pairs = [(b, a.scale(lam ** j), {"degree": j, "lambda": shown})
             for j, (a, b) in enumerate(zip(base, dilated))]
    pairs.append((tensor_sum(base), values[0], {"degree": "sum-at-1", "lambda": shown}))
    return _verdict("mcmullen-rehomogeneity", pairs)


# -- Klain functions ---------------------------------------------------------------


@dataclass(frozen=True)
class KlainValue:
    subspace: Subspace
    value: SymTensor
    degree: int


_CUBES: dict[int, tuple] = {}


def _model_cube(j: int) -> tuple:
    """The unit j-cube's int corners and Kuhn cells (``polytope.cube``),
    built once per j."""
    if j not in _CUBES:
        model = cube(j)
        _CUBES[j] = (model.cleared[1], model.triangulation)
    return _CUBES[j]


def _probe(l: Subspace, corners, cells) -> Polytope:
    """The body on ``cells`` whose points are sum c_i b_i for the int
    corners c, taken on l's integer view (D, B) as the ints c B over D.
    The corners include 0 and each e_i, so D is the lcm of the points'
    denominators and (D, c B) is the body's view (``polytope._view_body``)."""
    den, rows = l.cleared
    cols = list(zip(*rows))
    pts = tuple(tuple(sum(map(operator.mul, c, col)) for col in cols) for c in corners)
    return _view_body(l.ambient, cells, (den, pts))


def cube_probe(l: Subspace) -> Polytope:
    """Unit cube spanned by the subspace basis, Kuhn-triangulated: the model
    cube's int corners (kept per j) mapped on the basis's integer view."""
    return _probe(l, *_model_cube(l.dim))


def simplex_probe(l: Subspace) -> Polytope:
    """The simplex on 0 and the basis vectors, on the basis's integer view."""
    j = l.dim
    corners = [(0,) * j] + [tuple(int(k == i) for k in range(j)) for i in range(j)]
    return _probe(l, corners, (tuple(range(j + 1)),))


def _gram_root(l: Subspace):
    """sqrt(det G) for the Gram matrix G of l's basis rows, on its integer
    view: the j-volume of the parallelotope they span (1 on an orthonormal
    basis).  det G that is not the square of a rational raises
    ``ValutaError``."""
    d, rows = l.cleared
    gram = [[sum(map(operator.mul, a, b)) for b in rows] for a in rows]
    root = exact_sqrt(Fraction(linalg.bareiss(gram), d ** (2 * len(rows))))
    if root is None:
        raise ValutaError("the probe volume sqrt(det G) is irrational")
    return root


def klain(z: Valuation, j: int, l: Subspace) -> KlainValue:
    """Klain value of a j-homogeneous valuation on a j-dimensional subspace,
    cross-checked on a cube probe and a simplex probe: their values per unit
    j-volume must agree by the verdict rule, else ``ValutaError``.

    Both probes are images of the model cube and simplex under the basis,
    built as ints on the subspace's integer view (``Subspace.cleared``), so
    their j-volumes are sqrt(det G) and sqrt(det G) / j! (``_gram_root``,
    on the same view), taken without walking their cells; det G = 0 raises
    ``GeometryError`` and an irrational sqrt(det G) ``ValutaError``."""
    if l.dim != j:
        raise DimensionMismatch(f"subspace has dimension {l.dim}, expected {j}")
    unit = _gram_root(l)
    if unit == 0:
        raise GeometryError("degenerate probe body")
    results = [z(cube_probe(l)).scale(1 / unit),
               z(simplex_probe(l)).scale(math.factorial(j) / unit)]
    report = _verdict("klain", [(results[0], results[1], {"degree": j})])
    if not report.passed:
        raise ValutaError(
            f"Klain probes disagree by {format_rational(report.max_residual)}; valuation "
            f"is not {j}-homogeneous on this subspace")
    return KlainValue(l, results[0], j)


# -- translation covariance ----------------------------------------------------------


def verify_covariance(zs: Sequence[Valuation], body: Polytope,
                      ys: Sequence[Sequence]) -> CheckReport:
    """Check the covariance cascade: for every suffix of the cascade, the
    valuation of the translated body equals the binomial-type expansion in
    the shift of the values at the body (``shift_expansions``, all suffixes
    of one shift at once).  No valuation or no shift raises ``ValueError``."""
    if not zs or not ys:
        raise ValueError("translation covariance needs at least one valuation and one shift")
    ranks = [z.rank for z in zs]
    if ranks != list(range(ranks[0], -1, -1)):
        raise DimensionMismatch(f"ranks must descend r..0, got {ranks}")
    ys = [linalg.vec(y) for y in ys]
    pairs = []
    with _shared_passes():
        at_body = [z(body) for z in zs]
        for y in ys:
            shifted = translate(body, y)
            shown = [format_rational(c) for c in y]
            pairs += [(z(shifted), expansion, {"y": shown, "coefficient_rank": z.rank})
                      for z, expansion in zip(zs, shift_expansions(at_body, y))]
    return _verdict("translation-covariance", pairs)


# -- equivariance ----------------------------------------------------------------------


def verify_equivariance(z: Valuation, g_samples: Sequence, body: Polytope) -> CheckReport:
    """Residuals of z(phi K) against the tensor action of phi on z(K).  No
    sample raises ``ValueError``, a singular one ``GeometryError``."""
    if not g_samples:
        raise ValueError("equivariance needs at least one group sample")
    base = z(body)
    pairs = []
    for idx, sample in enumerate(g_samples):
        phi = realify(sample) if isinstance(sample, CMatrix) else sample
        if phi.det == 0:
            raise GeometryError("equivariance sample is singular")
        pairs.append((z(linear_image(phi, body)), gl_action(phi, base), {"sample_index": idx}))
    report = _verdict("group-equivariance", pairs)
    for witness in report.witnesses:  # only the reported sample's matrix is formatted
        witness["matrix"] = _matrix_witness(g_samples[witness["sample_index"]])
    return report


def _matrix_witness(sample) -> dict:
    if isinstance(sample, CMatrix):
        return sample.to_json_dict()
    return {"rows": [[format_rational(x) for x in row] for row in sample.entries]}


# -- determinant scaling ------------------------------------------------------------------


def scaling_relation_check(z: Valuation, j: int, psi: CMatrix, body: Polytope,
                           require_exact: bool = False) -> CheckReport:
    """Check z(psi K) = |det_C psi|^(j/m) z(K) for a j-homogeneous z.

    With F = |det_C psi|^2 and j/(2m) = p/q in lowest terms, the values are
    compared as s(z(psi K)) = F^p s(z(K)) with the signed power
    s(x) = x |x|^(q-1), which needs no root of F, so the verdict is exact at
    every degree; the witness's factor is F^p, shown as (F^p)^(1/q) when
    q > 1.  A singular psi (F = 0) raises ``GeometryError``, as a singular
    equivariance sample does.
    ``require_exact`` has nothing to refuse, since every verdict is exact; it
    stays while the benchmark's workloads pass it, and goes with the next
    benchmark change.
    """
    factor_sq = cabs2(psi.det_c)  # equals det of the realification
    if factor_sq == 0:
        raise GeometryError("scaling relation needs a nonsingular psi")
    p, q = Fraction(j, 2 * psi.m).as_integer_ratio()
    image, base = z(linear_image(realify(psi), body)), z(body)
    factor = factor_sq ** p
    shown = format_rational(factor) if q == 1 else f"({format_rational(factor)})^(1/{q})"
    return _verdict("determinant-scaling", [
        (_signed_power(image, q), _signed_power(base, q).scale(factor),
         {"factor": shown, "degree": j})])


def _signed_power(t: SymTensor, q: int) -> SymTensor:
    """Each coefficient x as x |x|^(q-1), which keeps the sign of x."""
    if q == 1:
        return t
    d, (values,) = t.cleared
    return SymTensor.from_totals(t.dim, t.rank, t.keys, [x * abs(x) ** (q - 1) for x in values],
                                 d ** q)


# -- surface-area pairing --------------------------------------------------------------------


def surface_pairing(f: Callable, p: Polytope):
    """Pair an integrand with the surface area measure: the sum of f over
    the outward area vectors, the atoms the body keeps
    (``polytope.atom_totals``), each divided once from its int total over
    their shared denominator.

    For a 1-homogeneous f that is the sum over facets of f at the unit
    normal times the facet measure, an integral against S(K), exact; any
    other f is paired the same way.  f may return scalars or tensors.
    Tensor values are summed by ``tensor_sum`` in one int pass; scalars are
    added in facet order with ``+``.  A body with no atoms gives None.
    """
    den, atoms = atom_totals(p)
    return _pair(f, [tuple(Fraction(x, den) for x in total) for total, _ in atoms])


def _pair(f: Callable, directions):
    """f at each direction, folded as ``surface_pairing`` folds; None for none."""
    values = [f(u) for u in directions]
    if not values:
        return None
    if all(isinstance(v, SymTensor) for v in values):
        return tensor_sum(values)
    return sum(values[1:], values[0])


def transfer_check(f: Callable, phi: RMatrix, p: Polytope) -> CheckReport:
    """Unimodular transfer: pairing f with the image body equals pairing
    f composed with the inverse transpose against the original.

    For |det phi| = 1 the atoms of phi K are phi^-T of those of K, one to
    one (Schneider, *Convex Bodies*, 2014, sec. 4.2), so the transfer holds
    for any integrand; 1-homogeneity only makes each side an integral
    against the surface area measure.  Each body's atoms come off its own
    points: K's are the ones K keeps (``Polytope.atoms``), read once per
    body however many checks pair it, and phi K, whose seed holds K's walk
    but never its atoms, reads its own.  phi^-T is applied to K's int
    totals t: with phi's view (q, A) and A^-1 = R / p
    (``linalg.inverse_view``, one Gauss-Jordan), phi^-T t is q R^T t over
    p den, one division per coordinate.  A body with no atoms raises
    ``GeometryError``.
    """
    if abs(phi.det) != 1:
        raise GeometryError(f"transfer needs det +-1, got {phi.det}")
    den, atoms = atom_totals(p)
    if not atoms:
        raise GeometryError("transfer needs surface area atoms; this body's triangulation "
                            "has no boundary face, or its area vectors cancel")
    q, rows = phi.cleared
    last, adj = linalg.inverse_view(rows)
    cols = list(zip(*adj))
    lhs = surface_pairing(f, linear_image(phi, p))
    rhs = _pair(f, [tuple(Fraction(q * sum(map(operator.mul, col, t)), last * den)
                          for col in cols) for t, _ in atoms])
    if not isinstance(lhs, SymTensor):
        lhs, rhs = SymTensor.scalar(p.dim, lhs), SymTensor.scalar(p.dim, rhs)
    return _verdict("surface-transfer", [(lhs, rhs, {"det": format_rational(phi.det)})])
