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
per component and coefficient and one division.  The covariance cascade
compares each translate against ``symtensor.shift_expansion``, the
expansion sum_j Z^(r-j)(K) y^j / j! by Horner's rule in y, in ints; there
the moments of each body share one kernel pass (``moment._shared_passes``).

All checks report a residual; for exact inputs the expected residual is an
exact zero, not merely a small number.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import linalg
from .cplx import CMatrix, Subspace, gram_schmidt, realify, span_tol
from .errors import DimensionMismatch, GeometryError, ValutaError
from .linalg import cabs2, exact_sqrt, interpolation_weights
from .moment import _shared_passes, moment_tensor
from .polytope import (
    Polytope,
    cube,
    linear_image,
    scale,
    subspace_volume,
    surface_area_measure,
    translate,
    volume,
)
from .symtensor import (
    RMatrix,
    SymTensor,
    divide_totals,
    format_rational,
    gl_action,
    shift_expansion,
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
    zero on lower-dimensional bodies (the Klain identity probe)."""

    def run(body: Polytope) -> SymTensor:
        basis = gram_schmidt(body.vertices, span_tol(body.vertices))
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
    max_residual: object = Fraction(0)
    witnesses: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        residual = self.max_residual
        if isinstance(residual, Fraction):
            residual = format_rational(residual)
        return {
            "check": self.check,
            "witnesses": self.witnesses,
            "max_residual": residual,
            "pass": self.passed,
        }


def _residual(a: SymTensor, b: SymTensor):
    """max |a_k - b_k| over the keys of either tensor; exact 0 when a == b."""
    if (a.dim, a.rank) != (b.dim, b.rank):
        raise DimensionMismatch(f"residual of T^{a.rank}(R^{a.dim}) and T^{b.rank}(R^{b.dim})")
    diffs = (abs(a.coeffs.get(k, 0) - b.coeffs.get(k, 0)) for k in {**a.coeffs, **b.coeffs})
    return max((x for x in diffs if x), default=Fraction(0))


# -- homogeneous decomposition ---------------------------------------------------


def mcmullen_decompose(z: Valuation, body: Polytope) -> list[SymTensor]:
    """Homogeneous components of a polynomial valuation.

    Evaluates z on the integer dilates 1..N+1 of the body and solves the
    Vandermonde system exactly; degree runs to n for scalar-rank valuations
    and to n + rank for translation-covariant tensor ones, so the returned
    list has n + rank + 1 entries.  Their sum reproduces z at the body.

    The values' coefficients are cleared by their lcm L once, over the union
    of their keys; component j at a key is sum_i W[j][i] v_i[key] in ints,
    divided once by D L (``interpolation_weights``).  Float values run the
    same sums with L = 1 and stay floats.
    """
    top = body.dim + z.rank
    values = [z(scale(body, k)) for k in range(1, top + 2)]
    keys = list({k: None for val in values for k in val.coeffs})
    lcm, rows = linalg.clear_denominators([[val.coeffs.get(k, 0) for k in keys] for val in values])
    weights, d = interpolation_weights(top)
    columns = list(zip(*rows))
    return [SymTensor._trusted(z.dim, z.rank, divide_totals(
        keys, (sum(map(operator.mul, w, col)) for col in columns), d * lcm))
        for w in weights]


def rehomogeneity_check(z: Valuation, body: Polytope, fresh_lambda) -> CheckReport:
    """Components extracted at a dilate scale like lambda^j against components
    extracted at the body itself; exact equality expected."""
    lam = linalg.frac(fresh_lambda)
    base = mcmullen_decompose(z, body)
    dilated = mcmullen_decompose(z, scale(body, lam))
    worst = Fraction(0)
    witnesses = []
    for j, (a, b) in enumerate(zip(base, dilated)):
        res = _residual(b, a.scale(lam ** j))
        if res > worst:
            worst = res
            witnesses = [{"degree": j, "lambda": format_rational(lam)}]
    total = base[0]
    for comp in base[1:]:
        total = total + comp
    sum_res = _residual(total, z(body))
    if sum_res > worst:
        worst = sum_res
        witnesses = [{"degree": "sum-at-1", "lambda": format_rational(lam)}]
    return CheckReport("mcmullen-rehomogeneity", worst == 0, worst, witnesses)


# -- Klain functions ---------------------------------------------------------------


@dataclass(frozen=True)
class KlainValue:
    subspace: Subspace
    value: SymTensor
    degree: int


def _map_points(points, basis):
    n = len(basis[0])
    out = []
    for coords in points:
        v = [0] * n
        for c, b in zip(coords, basis):
            v = [x + c * y for x, y in zip(v, b)]
        out.append(tuple(v))
    return tuple(out)


def cube_probe(l: Subspace) -> Polytope:
    """Unit cube spanned by the subspace basis, Kuhn-triangulated."""
    j = l.dim
    model = cube(j)
    return Polytope(l.ambient, _map_points(model.vertices, l.basis), model.triangulation)


def simplex_probe(l: Subspace) -> Polytope:
    j = l.dim
    corners = [tuple([0] * j)] + [
        tuple(1 if k == i else 0 for k in range(j)) for i in range(j)]
    return Polytope(l.ambient, _map_points(corners, l.basis),
                    (tuple(range(j + 1)),))


def klain(z: Valuation, j: int, l: Subspace, tol: float = 1e-9) -> KlainValue:
    """Klain value of a j-homogeneous valuation on a j-dimensional subspace,
    cross-checked on a cube probe and a simplex probe.  Exact probe values
    must agree exactly; ``tol`` bounds the mismatch of float ones."""
    if l.dim != j:
        raise DimensionMismatch(f"subspace has dimension {l.dim}, expected {j}")
    results = []
    for probe in (cube_probe(l), simplex_probe(l)):
        vj = subspace_volume(probe, l)
        if vj == 0:
            raise GeometryError("degenerate probe body")
        value = z(probe)
        if isinstance(vj, Fraction):
            results.append(value.scale(Fraction(1) / vj))
        else:
            results.append(value.scale(1.0 / vj))
    mismatch = _residual(results[0], results[1])
    if mismatch > (0 if isinstance(mismatch, Fraction) else tol):
        raise ValutaError(
            f"Klain probes disagree by {format_rational(mismatch)}; valuation is not "
            f"{j}-homogeneous on this subspace")
    return KlainValue(l, results[0], j)


# -- translation covariance ----------------------------------------------------------


def verify_covariance(zs: Sequence[Valuation], body: Polytope,
                      ys: Sequence[Sequence]) -> CheckReport:
    """Check the covariance cascade: for every prefix, the valuation of the
    translated body equals the binomial-type expansion in the shift
    (``shift_expansion`` of the values at the body)."""
    ranks = [z.rank for z in zs]
    r = ranks[0]
    if ranks != list(range(r, -1, -1)):
        raise DimensionMismatch(f"ranks must descend r..0, got {ranks}")
    worst = Fraction(0)
    witnesses = []
    passed = True
    with _shared_passes():
        at_body = [z(body) for z in zs]
        for y in ys:
            y = tuple(linalg.frac(c) for c in y)
            shifted = translate(body, y)
            for s, z in enumerate(zs):
                res = _residual(z(shifted), shift_expansion(at_body[s:], y))
                if res != 0:
                    passed = False
                if res > worst:
                    worst = res
                    witnesses = [{
                        "y": [format_rational(c) for c in y],
                        "coefficient_rank": z.rank,
                    }]
    return CheckReport("translation-covariance", passed, worst, witnesses)


# -- equivariance ----------------------------------------------------------------------


def _as_real_matrix(sample) -> RMatrix:
    if isinstance(sample, CMatrix):
        return realify(sample)
    return sample


def verify_equivariance(z: Valuation, g_samples: Sequence, body: Polytope) -> CheckReport:
    """Residuals of z(phi K) against the tensor action of phi on z(K)."""
    base = z(body)
    worst = Fraction(0)
    witnesses = []
    passed = True
    for idx, sample in enumerate(g_samples):
        phi = _as_real_matrix(sample)
        if phi.exact and phi.det == 0:
            raise GeometryError("equivariance sample is singular")
        res = _residual(z(linear_image(phi, body)), gl_action(phi, base))
        if res != 0:
            passed = False
        if res > worst:
            worst = res
            witnesses = [{"sample_index": idx, "matrix": _matrix_witness(sample)}]
    return CheckReport("group-equivariance", passed, worst, witnesses)


def _matrix_witness(sample) -> dict:
    if isinstance(sample, CMatrix):
        return sample.to_json_dict()
    return {"rows": [[format_rational(x) for x in row] for row in sample.entries]}


# -- determinant scaling ------------------------------------------------------------------


def scaling_relation_check(z: Valuation, j: int, psi: CMatrix, body: Polytope,
                           require_exact: bool = False, tol: float = 1e-9) -> CheckReport:
    """Check z(psi K) = |det_C psi|^(j/m) z(K) for a j-homogeneous z.

    The factor is exact when j is a multiple of 2m, or when |det_C|^2 is a
    perfect rational square and m divides j; otherwise the comparison runs
    in floating point (rejected when require_exact is set), and passes when
    the residual is at most tol * max(1, |z(K)|_max * factor).
    """
    m = psi.m
    factor_sq = cabs2(psi.det_c)  # equals det of the realification
    factor = None
    if psi.exact:
        if j % (2 * m) == 0:
            factor = factor_sq ** (j // (2 * m))
        elif j % m == 0:
            root = exact_sqrt(factor_sq)
            if root is not None:
                factor = root ** (j // m)
    if factor is None:
        if require_exact:
            raise ValutaError(
                f"|det_C|^({j}/{m}) is not rational here; only a float check is possible")
        factor = float(factor_sq) ** (j / (2 * m))
    image = linear_image(realify(psi), body)
    base = z(body)
    res = _residual(z(image), base.scale(factor))
    exact_mode = isinstance(factor, Fraction)
    passed = (res == 0 if exact_mode
              else float(res) <= tol * max(1.0, float(base.max_abs_coeff()) * float(factor)))
    witness = {
        "factor": format_rational(factor),
        "degree": j,
        "mode": "exact" if exact_mode else "float",
    }
    return CheckReport("determinant-scaling", passed, res, [witness])


# -- surface-area pairing --------------------------------------------------------------------


def surface_pairing(f: Callable, p: Polytope):
    """Pair a 1-homogeneous integrand with the surface area measure:
    the sum over facets of f at the unit normal times the facet measure.

    By 1-homogeneity that equals the sum of f over the outward area
    vectors, which keeps rational inputs exact.  f may return scalars or
    tensors.
    """
    total = None
    for facet in surface_area_measure(p):
        value = f(facet.direction)
        total = value if total is None else total + value
    return total


def transfer_check(f: Callable, phi: RMatrix, p: Polytope, tol: float = 1e-10) -> CheckReport:
    """Unimodular transfer: pairing f with the image body equals pairing
    f composed with the inverse transpose against the original."""
    if phi.exact:
        if abs(phi.det) != 1:
            raise GeometryError(f"transfer needs det +-1, got {phi.det}")
    elif not math.isclose(abs(phi.det), 1.0, rel_tol=1e-12):
        raise GeometryError(f"transfer needs det +-1, got {phi.det}")
    phi_inv_t = phi.inverse_transpose()
    lhs = surface_pairing(f, linear_image(phi, p))
    rhs = surface_pairing(lambda v: f(phi_inv_t.matvec(v)), p)
    if isinstance(lhs, SymTensor):
        res = _residual(lhs, rhs)
    else:
        res = abs(lhs - rhs)
    passed = res == 0 if isinstance(res, Fraction) else float(res) <= tol
    return CheckReport("surface-transfer", passed, res,
                       [{"det": format_rational(phi.det)}])
