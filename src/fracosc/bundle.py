"""The order-k fractional jet bundle over an n-dimensional positive chart.

Coordinates
-----------
A point carries base coordinates x^i (named ``x1..xn``) and fibre ("jet")
coordinates y^{i(a)} for levels a = 1..k (named ``y<i>_<a>``), normalized
against the iterated reviewed derivative of a curve:

    y^{i(a)}(t) = D^(alpha a) x^i(t) / Gamma(1 + alpha a),

where D^(alpha a) is the a-fold order-alpha derivative. Level 0 is the base.
:func:`fracosc.geometry.jet_var` is the one function that spells these names.
Natural-frame vectors and matrices order the slots x, y^{(1)}, ..., y^{(k)}:
coordinate i (0-indexed) at level a has index a*n + i.

Weight ladder
-------------
The canonical vertical dilation fields and sprays carry rung weights

    w_1 = Gamma(1 + alpha),     w_b = Gamma(alpha b)/Gamma(alpha)  (b >= 2).

They always apply, at every order, and make the whole structure telescope
exactly: the tangent shift J maps the order-a dilation field onto the
order-(a-1) one and maps any spray onto the top dilation field. An unweighted
order-1 field misses the shifted order-2 one by Gamma(1+alpha)-1; the tests
assert that defect.

Vertical structures
-------------------
* ``liouville_field(spec, a)``: order-a dilation field; occupies slot levels
  k-a+b with coefficient w_b y^{i(b)}, b = 1..a.
* ``tangent_shift``/``tangent_structure_matrix``: the order-alpha tangent
  endomorphism; shifts slot level c to c+1 and kills the top. Nilpotent of
  index k+1 with rank k*n.
* ``spray_field(spec, G)``: levels 1..k of the top dilation field, then
  -w_k G^i in the top slot; any such field satisfies J(S) = top dilation.

Change of charts
----------------
``jet_transform`` prolongs a base coordinate change u(x) to all jet levels:
level 1 is the weighted Jacobian acting on y^{(1)}, and level a >= 2 is

    w_a ybar^{i(a)} = sum_{b=1..a} w_b * Jw(Ybar^{(a-1)}, u^{(b-1)})^i_j y^{j(b)}

where Ybar^{(a-1)} are the already-transformed level-(a-1) expressions,
u^{(0)} = x, u^{(c)} = y^{(c)}, and Jw is the same (.)^(alpha-1)/(.)^(1-alpha)
weighted Jacobian with classical partials. Orders 1 and 2 are exactly
functorial; the order-3 round trip is a measured quantity (see tests).

Nonlinear connections
---------------------
Primal coefficients N^{(b)} define the adapted frame
delta_{(a)j} = D_{(a)j} - sum_b N^{(b)m}_j D_{(a+b)m}; dual coefficients
M^{(b)} define the adapted coframe. The two are related by the triangular
recursion M^{(d)} = N^{(d)} + sum_{f<d} M^{(d-f)} N^{(f)}, inverted exactly by
structural cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .expr import (
    Add,
    Expr,
    Mul,
    Num,
    Term,
    Var,
    collect_terms,
    compile_exprs,
    expand_terms,
    fold_terms,
    multiply_terms,
    normal_form,
    normalize_terms,
    partial_terms,
    scale_terms,
    simplify,
    simplify_node,
    terms_to_expr,
)
from .geometry import ChartMap, jet_var, require_invertible, weighted_jacobian_exprs
from .series import FracSeries, frac_derive
from .specfun import gamma

__all__ = [
    "BundleSpec",
    "rung_weight",
    "JetPoint",
    "jet_lift",
    "BundleField",
    "liouville_field",
    "tangent_shift",
    "tangent_structure_matrix",
    "spray_field",
    "spray_derivation",
    "jet_transform",
    "transform_jet_point",
    "jet_round_trip_residual",
    "PrimalCoefficients",
    "DualCoefficients",
    "primal_to_dual",
    "dual_to_primal",
    "adapted_frame",
    "dual_coframe",
    "pairing_residual",
    "spray_to_dual",
    "transform_primal_first_order",
    "horizontal_transform_residual",
]


@dataclass(frozen=True)
class BundleSpec:
    """Shape of the bundle: n base dimensions, k jet levels, order alpha."""

    n: int
    k: int
    alpha: float

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise DomainError(f"need n >= 1 and k >= 1, got n={self.n}, k={self.k}")
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"order must be in (0, 1], got {self.alpha}")

    def level_names(self, level: int) -> tuple[str, ...]:
        """Names at slot level 0..k (level 0 = base coordinates)."""
        return tuple(jet_var(i, level) for i in range(self.n))

    def all_names(self, upto: int | None = None) -> tuple[str, ...]:
        """Names at levels 0..upto (default k) in slot order."""
        upto = self.k if upto is None else upto
        return tuple(name for a in range(upto + 1) for name in self.level_names(a))

    @property
    def dim(self) -> int:
        return (self.k + 1) * self.n


def rung_weight(alpha: float, b: int) -> float:
    """Ladder weight w_b: Gamma(1+alpha) at b=1, Gamma(alpha b)/Gamma(alpha) after."""
    if b < 1:
        raise DomainError(f"rung index must be >= 1, got {b}")
    if b == 1:
        return gamma(1.0 + alpha)
    return gamma(alpha * b) / gamma(alpha)


# ------------------------------------------------------------------ points --


@dataclass(frozen=True)
class JetPoint:
    """Numeric point of the bundle; ``y`` may extend past level k when an
    operation (Euler-Lagrange, spray extraction) needs overshoot levels."""

    x: tuple[float, ...]
    y: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def levels(self) -> int:
        return len(self.y)

    def env(self) -> dict[str, float]:
        return {jet_var(i, a): v
                for a, level in enumerate((self.x, *self.y)) for i, v in enumerate(level)}

    def flat(self) -> np.ndarray:
        """Coordinates in slot order x, y^{(1)}, y^{(2)}, ..."""
        return np.array([v for level in (self.x, *self.y) for v in level])


def jet_lift(curves: list[FracSeries], alpha: float, levels: int,
             t: float | np.ndarray) -> JetPoint:
    """Jet of a curve at parameter t: level a is the a-fold order-alpha
    derivative scaled by 1/Gamma(1+alpha*a).

    ``t`` is a scalar or an ndarray. Each curve is derived once per level, so
    lifting a whole grid costs one call; on an array every coordinate of the
    returned point is an array over ``t``, bitwise equal to the jets lifted
    at each point."""
    x = tuple(c(t) for c in curves)
    ys = []
    ders = list(curves)
    for a in range(1, levels + 1):
        ders = [frac_derive(d, alpha) for d in ders]
        scale = 1.0 / gamma(1.0 + alpha * a)
        ys.append(tuple(scale * d(t) for d in ders))
    return JetPoint(x, tuple(ys))


# ------------------------------------------------------------------ fields --


@dataclass(frozen=True)
class BundleField:
    """Vector field on the bundle in the natural frame: one coefficient Expr
    per slot, levels 0..k (level 0 multiplies the base-partial slots)."""

    spec: BundleSpec
    coeffs: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        if len(self.coeffs) != self.spec.k + 1 or any(
            len(level) != self.spec.n for level in self.coeffs
        ):
            raise DomainError("field needs (k+1) levels of n coefficients")

    @cached_property
    def _compiled(self):
        return compile_exprs([c for level in self.coeffs for c in level])

    def eval_at(self, env: dict[str, float]) -> np.ndarray:
        return np.array(self._compiled(env))

    def is_structurally_zero(self) -> bool:
        return all(
            normal_form(c) == Num(0.0) for level in self.coeffs for c in level
        )


def _zero_level(n: int) -> tuple[Expr, ...]:
    return tuple(Num(0.0) for _ in range(n))


def liouville_field(spec: BundleSpec, a: int) -> BundleField:
    """Order-a vertical dilation field, 1 <= a <= k: slot level k-a+b carries
    w_b y^{i(b)} for b = 1..a (so order 1 populates only the top level)."""
    if not (1 <= a <= spec.k):
        raise DomainError(f"dilation order must be in 1..{spec.k}, got {a}")
    levels: list[tuple[Expr, ...]] = [_zero_level(spec.n) for _ in range(spec.k + 1)]
    for b in range(1, a + 1):
        w = rung_weight(spec.alpha, b)
        slot = spec.k - a + b
        levels[slot] = tuple(
            simplify(Mul(Num(w), Var(name))) for name in spec.level_names(b)
        )
    return BundleField(spec, tuple(levels))


def tangent_shift(field: BundleField) -> BundleField:
    """Order-alpha tangent endomorphism J: slot level c feeds level c+1, the
    top level is annihilated, the base level of the image is zero."""
    return BundleField(field.spec, (_zero_level(field.spec.n), *field.coeffs[:-1]))


def tangent_structure_matrix(spec: BundleSpec) -> np.ndarray:
    """J as a matrix on natural-frame coefficient vectors (integer 0/1): the
    identity on each block (c+1, c); nilpotent of index k+1 and rank k*n."""
    return np.eye(spec.dim, k=-spec.n, dtype=int)


def spray_field(spec: BundleSpec, G: tuple[Expr, ...]) -> BundleField:
    """Second-order-type field with coefficients G^i in the top slot: levels
    a < k are levels a+1 of the top dilation field, w_{a+1} y^{i(a+1)}, and the
    top level carries -w_k G^i; the tangent shift maps it onto that field."""
    if len(G) != spec.n:
        raise DomainError(f"spray needs {spec.n} coefficient expressions")
    top = tuple(simplify(Mul(Num(-rung_weight(spec.alpha, spec.k)), g)) for g in G)
    return BundleField(spec, (*liouville_field(spec, spec.k).coeffs[1:], top))


def spray_derivation(spec: BundleSpec, G: tuple[Expr, ...]):
    """The scalar derivation of the spray: fractional partials along the base
    (order alpha), classical partials along the fibre levels.

    S(f) = sum_h w_1 y^{h(1)} D^alpha_{x_h} f
         + sum_{b=2..k} sum_h w_b y^{h(b)} d f / d y^{h(b-1)}
         - sum_h w_k G^h d f / d y^{h(k)}.
    """
    if len(G) != spec.n:
        raise DomainError(f"spray needs {spec.n} coefficient expressions")
    G_terms = [expand_terms(g) for g in G]
    return lambda f: terms_to_expr(collect_terms(
        _spray_terms(spec, G_terms, f, normalize_terms(f))))


def _spray_terms(spec: BundleSpec, G_terms, f: Expr, f_terms) -> list[Term]:
    """The terms of S(f), uncollected, for G given by its expanded entries
    and f by its Expr and its collected terms."""
    alpha, n, k = spec.alpha, spec.n, spec.k
    # partials along level b - 1 for the rung b; the classical ones, along
    # the fibre levels 1..k, are taken in one pass
    rungs = partial_terms(f_terms, spec.level_names(0), alpha)
    rungs += partial_terms(f, spec.all_names()[n:], None)
    out = []
    for b in range(1, k + 1):
        w = rung_weight(alpha, b)
        for h in range(n):
            d = rungs[(b - 1) * n + h]
            out += multiply_terms(scale_terms(w, expand_terms(Var(jet_var(h, b)))), d)
    wk = -rung_weight(alpha, k)
    for h in range(n):
        out += multiply_terms(scale_terms(wk, G_terms[h]), rungs[k * n + h])
    return out


# ------------------------------------------------------------ jet transform --


def jet_transform(cm: ChartMap, spec: BundleSpec) -> list[tuple[Expr, ...]]:
    """Prolong a base chart change to all jet levels; returns levels 0..k as
    tuples of Exprs in the source variables (x and y up to each level).

    The prolongation is built once per chart map and spec; every call returns
    a fresh list of the same simplified levels."""
    return list(_prolongation(cm, spec).levels)


class _Prolongation:
    """A chart map's prolongation to one bundle: its levels, built once, and
    the compiled evaluators of what is read from them at points, each built
    on first use."""

    def __init__(self, cm: ChartMap, spec: BundleSpec):
        self.spec = spec
        self.levels = _prolong(cm, spec)

    @cached_property
    def levels_at(self):
        """Every level entry at a point, level by level."""
        return compile_exprs([c for level in self.levels for c in level])

    @cached_property
    def blocks_at(self):
        """The entries of the weighted Jacobian blocks Jx, Jyx and Jyy of a
        k = 1 prolongation at a point, row by row."""
        spec = self.spec
        xs, ys = spec.level_names(0), spec.level_names(1)
        base, fibre = self.levels
        return compile_exprs([
            e for comps, names in ((base, xs), (fibre, xs), (fibre, ys))
            for row in weighted_jacobian_exprs(comps, names, spec.alpha) for e in row])


def _prolongation(cm: ChartMap, spec: BundleSpec) -> _Prolongation:
    if cm.n != spec.n:
        raise DomainError(f"chart map dimension {cm.n} != bundle dimension {spec.n}")
    out = cm._prolongations.get(spec)
    if out is None:
        out = cm._prolongations[spec] = _Prolongation(cm, spec)
    return out


def _prolong(cm: ChartMap, spec: BundleSpec) -> tuple[tuple[Expr, ...], ...]:
    alpha, n = spec.alpha, spec.n
    levels: list[tuple[Expr, ...]] = [tuple(cm.components)]
    for a in range(1, spec.k + 1):
        w_a = rung_weight(alpha, a)
        # column (b-1) n + j differentiates along y^{j(b-1)} and pairs with y^{j(b)}
        J = weighted_jacobian_exprs(levels[-1], spec.all_names(a - 1), alpha)
        comps = []
        for i in range(n):
            acc: Expr = Num(0.0)
            for b in range(1, a + 1):
                w_b = rung_weight(alpha, b)
                for j in range(n):
                    y_b = Var(jet_var(j, b))
                    term = simplify_node(Mul(Num(w_b / w_a),
                                             simplify_node(Mul(J[i][(b - 1) * n + j], y_b))))
                    acc = simplify_node(Add(acc, term))
            comps.append(acc)
        levels.append(tuple(comps))
    return tuple(levels)


def transform_jet_point(cm: ChartMap, spec: BundleSpec, jp: JetPoint) -> JetPoint:
    """Numeric image of a jet point under the prolonged chart change."""
    if jp.levels < spec.k:
        raise DomainError(f"jet point has {jp.levels} levels, bundle needs {spec.k}")
    values = _prolongation(cm, spec).levels_at(jp.env())
    n = spec.n
    return JetPoint(values[:n], tuple(values[a * n:(a + 1) * n] for a in range(1, spec.k + 1)))


def jet_round_trip_residual(
    forward: ChartMap, inverse: ChartMap, spec: BundleSpec, jp: JetPoint
) -> float:
    """max |inverse-prolongation(forward-prolongation(jp)) - jp|."""
    there = transform_jet_point(forward, spec, jp)
    back = transform_jet_point(inverse, spec, there)
    return float(np.max(np.abs(back.flat() - jp.flat())))


# ------------------------------------------------- connection coefficients --


@dataclass(frozen=True)
class _Coefficients:
    """Connection coefficient matrices of orders b = 1..k, each n x n."""

    spec: BundleSpec
    mats: tuple[tuple[tuple[Expr, ...], ...], ...]

    def __post_init__(self):
        if len(self.mats) != self.spec.k:
            raise DomainError(f"need coefficient matrices for orders 1..{self.spec.k}")
        n = self.spec.n
        if any(len(m) != n or any(len(row) != n for row in m) for m in self.mats):
            raise DomainError("each coefficient matrix must be n x n")

    def order(self, b: int):
        return self.mats[b - 1]

    @classmethod
    def _bundle(cls, spec: BundleSpec, levels):
        """Coefficients of the :func:`_fold_matrix` pairs (Exprs, folded terms)
        of orders 1..k, keeping the folded terms as ``terms``."""
        out = cls(spec, tuple(mat for mat, _ in levels))
        vars(out)["terms"] = tuple(tuple(tuple(row) for row in terms) for _, terms in levels)
        return out

    @cached_property
    def terms(self) -> tuple:
        """``terms[b - 1][i][j]`` is what expanding entry (i, j) of order b gives:
        handed on by the builders, expanded on first use for matrices given as Exprs."""
        return tuple(tuple(tuple(expand_terms(e) for e in row) for row in mat)
                     for mat in self.mats)

    @cached_property
    def _compiled(self):
        return compile_exprs([e for mat in self.mats for row in mat for e in row])

    def values_at(self, env: dict[str, float]) -> np.ndarray:
        """All matrices at a point: ``values_at(env)[b - 1]`` is order b."""
        return np.array(self._compiled(env)).reshape(self.spec.k, self.spec.n, self.spec.n)


class PrimalCoefficients(_Coefficients):
    """Adapted-frame (primal) coefficients N^{(b)}, b = 1..k; entry [m][j] is
    the Expr multiplying -D_{(a+b)m} inside delta_{(a)j}."""


class DualCoefficients(_Coefficients):
    """Adapted-coframe (dual) coefficients M^{(b)}, b = 1..k."""


def _mat_mul(A, B, n: int) -> list:
    """Entry term lists of the product of two n x n matrices of term sums:
    entry (i, j) runs over l = 0..n-1 of the products A[i][l] B[l][j]."""
    return [[[t for l in range(n) for t in multiply_terms(A[i][l], B[l][j])]
             for j in range(n)] for i in range(n)]


def _fold_matrix(mat) -> tuple[tuple, list]:
    """The Expr matrix of a matrix of collected term sums, and the terms that
    expanding each of those Exprs gives back."""
    exprs = tuple(tuple(terms_to_expr(c) for c in row) for row in mat)
    return exprs, [[fold_terms(c) for c in row] for row in mat]


def _triangular(given, n: int, sign: float, built_left: bool) -> list:
    """Levels d = 1..k of X^{(d)} = Y^{(d)} + sign sum_{f<d} A^{(d-f)} B^{(f)}
    for the given levels Y, as term sums, where (A, B) = (X, Y) when
    ``built_left`` and (Y, X) otherwise; X comes as :func:`_fold_matrix` pairs."""
    built: list = []
    for d in range(1, len(given) + 1):
        acc = [[list(terms) for terms in row] for row in given[d - 1]]
        for f in range(1, d):
            if built_left:
                prod = _mat_mul(built[d - f - 1][1], given[f - 1], n)
            else:
                prod = _mat_mul(given[d - f - 1], built[f - 1][1], n)
            for i in range(n):
                for j in range(n):
                    acc[i][j] += scale_terms(sign, prod[i][j])
        built.append(_fold_matrix([[collect_terms(t) for t in row] for row in acc]))
    return built


def primal_to_dual(N: PrimalCoefficients) -> DualCoefficients:
    """M^{(d)} = N^{(d)} + sum_{f=1}^{d-1} M^{(d-f)} N^{(f)} (exact)."""
    return DualCoefficients._bundle(N.spec, _triangular(N.terms, N.spec.n, 1.0, True))


def dual_to_primal(M: DualCoefficients) -> PrimalCoefficients:
    """Inverse of :func:`primal_to_dual`; exact by structural cancellation."""
    return PrimalCoefficients._bundle(M.spec, _triangular(M.terms, M.spec.n, -1.0, False))


def adapted_frame(spec: BundleSpec, N: PrimalCoefficients, env: dict[str, float]) -> np.ndarray:
    """Rows = adapted fields delta_{(a)j} in natural-frame coordinates:
    block (a, a+b) is -N^{(b)T} for b >= 1, so F[a*n + j, (a+b)*n + m] =
    -N^{(b)}[m][j]."""
    F = np.eye(spec.dim)
    blocks = F.reshape(spec.k + 1, spec.n, spec.k + 1, spec.n)  # a view of F
    Ns = N.values_at(env)
    for a in range(spec.k + 1):
        for b in range(1, spec.k - a + 1):
            blocks[a, :, a + b, :] = -Ns[b - 1].T
    return F


def dual_coframe(spec: BundleSpec, M: DualCoefficients, env: dict[str, float]) -> np.ndarray:
    """Rows = adapted covectors in natural-coframe coordinates: block (a, a-b)
    is M^{(b)} for b >= 1, so D[a*n + j, (a-b)*n + m] = M^{(b)}[j][m]."""
    D = np.eye(spec.dim)
    blocks = D.reshape(spec.k + 1, spec.n, spec.k + 1, spec.n)  # a view of D
    Ms = M.values_at(env)
    for a in range(spec.k + 1):
        for b in range(1, a + 1):
            blocks[a, :, a - b, :] = Ms[b - 1]
    return D


def pairing_residual(spec: BundleSpec, N: PrimalCoefficients, M: DualCoefficients,
                     env: dict[str, float]) -> float:
    """max |<adapted coframe, adapted frame> - identity| at a point, for the
    frame of N and the coframe of M (for example primal_to_dual(N))."""
    F = adapted_frame(spec, N, env)
    D = dual_coframe(spec, M, env)
    return float(np.max(np.abs(D @ F.T - np.eye(spec.dim))))


def spray_to_dual(spec: BundleSpec, G: tuple[Expr, ...]) -> DualCoefficients:
    """Dual coefficients generated by a spray:

        M^{(1)i}_j = d G^i / d y^{j(1)}            (classical fibre partial)
        M^{(a+1)}  = [Gamma(alpha a)/Gamma(alpha(a+1))] (S(M^{(a)}) + M^{(1)} M^{(a)})

    with S the spray derivation (fractional along the base, classical along
    the fibres)."""
    n, alpha = spec.n, spec.alpha
    levels = [_fold_matrix([
        [collect_terms(d) for d in partial_terms(G[i], spec.level_names(1), None)]
        for i in range(n)])]
    M1_terms = levels[0][1]
    G_terms = [expand_terms(g) for g in G] if spec.k > 1 else []  # S runs for k > 1 only
    for a in range(1, spec.k):
        scale = gamma(alpha * a) / gamma(alpha * (a + 1))
        mat, prev = levels[-1]
        derived = [[fold_terms(collect_terms(_spray_terms(
                        spec, G_terms, mat[i][j], collect_terms(prev[i][j]))))
                    for j in range(n)] for i in range(n)]
        correction = _mat_mul(M1_terms, prev, n)
        levels.append(_fold_matrix([
            [collect_terms(scale_terms(scale, derived[i][j] + correction[i][j]))
             for j in range(n)] for i in range(n)]))
    return DualCoefficients._bundle(spec, levels)


# ---------------------------------------- first-order chart transformation --


def _first_order_blocks(cm: ChartMap, spec: BundleSpec, N: PrimalCoefficients,
                        jp: JetPoint) -> tuple[np.ndarray, ...]:
    """Jx, Jyx, Jyy (weighted Jacobian blocks of the prolonged chart change)
    and N^{(1)} at jp, for a k=1 bundle."""
    if spec.k != 1:
        raise DomainError("first-order transformation law needs k = 1")
    env = jp.env()
    blocks = _prolongation(cm, spec).blocks_at(env)
    Jx, Jyx, Jyy = np.array(blocks).reshape(3, spec.n, spec.n)
    return Jx, Jyx, Jyy, N.values_at(env)[0]


def _transformed_primal(Jx, Jyx, Jyy, N1) -> np.ndarray:
    return (Jyy @ N1 - Jyx) @ require_invertible(Jx, "base-block Jacobian")


def transform_primal_first_order(
    cm: ChartMap, spec: BundleSpec, N: PrimalCoefficients, jp: JetPoint
) -> np.ndarray:
    """Numeric transformed first-order primal coefficients at the image of jp
    for a k=1 bundle:  Nbar = (Jyy N - Jyx) Jx^{-1}, where Jx, Jyx, Jyy are
    the weighted Jacobian blocks of the prolonged chart change."""
    return _transformed_primal(*_first_order_blocks(cm, spec, N, jp))


def horizontal_transform_residual(
    cm: ChartMap, spec: BundleSpec, N: PrimalCoefficients, jp: JetPoint
) -> float:
    """Defect of the horizontal correspondence: the tangent map of the
    prolonged chart change must send each adapted field delta_{x^j} to the
    Jx-combination of the transformed adapted fields."""
    Jx, Jyx, Jyy, N1 = _first_order_blocks(cm, spec, N, jp)
    Nbar = _transformed_primal(Jx, Jyx, Jyy, N1)
    # T(delta_j) components: base part Jx[., j], fibre part Jyx[., j] - Jyy N1[., j]
    fibre_image = Jyx - Jyy @ N1
    # Jx-combination of transformed adapted fields: fibre part -Nbar Jx
    expected_fibre = -Nbar @ Jx
    return float(np.max(np.abs(fibre_image - expected_fibre)))
