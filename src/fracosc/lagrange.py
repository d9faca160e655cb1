"""Variational calculus on the order-k fractional bundle.

Euler-Lagrange operator
-----------------------
For a Lagrangian L(x, y^{(1)}, ..., y^{(k)}) the residual along coordinate i is

    E_i = d_{x^i} L + sum_{a=1..k} (-1)^a d_t ( d_{y^{i(a)}} L )

with the jet total derivative applied once per order,

    d_t = sum_{i} sum_{b=1..k+1} y^{i(b)} d_{y^{i(b-1)}}        (y^{(0)} = x).

Both derivative semantics are supported: ``mode="fractional"`` takes every
partial in the reviewed order-alpha sense, ``mode="classical"`` takes ordinary
partials; a mode resolves once to the order, alpha or None, that every partial
takes through :func:`fracosc.expr.partial_terms`. The residual involves jet
variables one level past k (the y^{(k+1)} introduced by d_t), so numeric
evaluation expects overshoot jet points.

A curve is extremal when the residual vanishes along its jet. The residual is
linear in the overshoot variables for Lagrangians polynomial in the fibre
coordinates, which is what :func:`extract_spray` exploits: it solves
E_i = 0 for y^{i(k+1)} when the overshoot coupling matrix is diagonal.

Covector ladder
---------------
``craig_synge_level`` builds the graded covector components

    E^{(l)}_i = sum_{a=max(l,1)..k} (-1)^a [1/Gamma(1+alpha a)]
                        d_t ( d_{y^{i(a)}} L ),     l = 0..k,

with the base partial d_{x^i} L added at level 0. An alternative closed form
for the next-to-top component circulates in terms of the fundamental tensor
(``craig_synge_closed_form``); the two disagree on quadratic Lagrangians and
the gap is exposed as a measured quantity (``covector_gap``), not patched.

Prolongations
-------------
``prolong_riemann`` is the one construction: a fundamental tensor g, its
Levi-Civita-type coefficients with base partials taken fractionally,

    gamma^i_{jl} = 1/2 g^{is} (D^alpha_{x^j} g_sl + D^alpha_{x^l} g_js
                               - D^alpha_{x^s} g_jl),

the quadratic spray G^i = 1/2 gamma^i_{pm} y^{p(1)} y^{m(1)} and the
first-order dual coefficients M^{(1)i}_j = gamma^i_{jm} y^{m(1)}.
``prolong_finsler`` and ``prolong_lagrange`` only produce g and call it: as
half the fractional fibre Hessian of an energy function (Finsler), or as half
the classical fibre Hessian of a Lagrangian (Lagrange). For a diagonal
metric g both the matched energy (:func:`alpha_square`) and the Lagrangian
sum_i g_ii (y^{i(1)})^2 have g as their tensor, so the three prolongations
agree there; symbolic inversion is only provided for structurally diagonal
fundamental tensors.

All of these builders combine term sums (:mod:`fracosc.expr`): each input is
expanded once and each returned entry is printed to an Expr once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bundle import BundleSpec, jet_lift
from .errors import DomainError
from .expr import (
    Add,
    Div,
    Expr,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Term,
    Var,
    classical_partials,
    collect_terms,
    compile_exprs,
    expand_terms,
    fold_terms,
    multiply_terms,
    negate_terms,
    normal_form,
    normalize_terms,
    partial_terms,
    scale_terms,
    terms_to_expr,
)
from .geometry import jet_var
from .series import FracSeries
from .specfun import gamma

__all__ = [
    "total_jet_derivative",
    "el_residual",
    "craig_synge_level",
    "craig_synge_closed_form",
    "covector_gap",
    "extract_spray",
    "spray_coefficient_from_el",
    "spray_ode_residual",
    "ReferenceProblem",
    "reference_problem_fractional",
    "reference_problem_classical",
    "reference_residual",
    "fundamental_tensor",
    "alpha_square",
    "diagonal_inverse",
    "Prolongation",
    "prolong_riemann",
    "prolong_finsler",
    "prolong_lagrange",
]


def _order(spec: BundleSpec, mode: str) -> float | None:
    """The order of the partials of ``mode``, as :func:`partial_terms` takes
    it: alpha for fractional partials, None for classical ones."""
    if mode not in ("fractional", "classical"):
        raise DomainError(f"unknown derivative mode {mode!r}")
    return spec.alpha if mode == "fractional" else None


def _source(f: Expr, order):
    """``f`` in the form the partials of ``order`` take: its collected terms
    for fractional partials, the Expr itself for classical ones."""
    return f if order is None else normalize_terms(f)


def _derive(f, names, order):
    """The partials of ``f`` along ``names``, again in :func:`_source` form."""
    if order is None:
        return classical_partials(f, names)
    return [collect_terms(d) for d in partial_terms(f, names, order)]


def _sum(terms) -> Expr:
    return terms_to_expr(collect_terms(terms))


def _jet_terms(spec: BundleSpec, f, order, levels: int | None = None) -> tuple[Term, ...]:
    """Collected terms of d_t f for f in :func:`_source` form."""
    names = spec.all_names(spec.k + 1 if levels is None else levels)
    out = []
    # the partial along the coordinate of slot r pairs with the one of slot r + n
    for r, d in enumerate(partial_terms(f, names[:-spec.n], order)):
        out += multiply_terms(expand_terms(Var(names[r + spec.n])), d)
    return collect_terms(out)


def _dragged(spec: BundleSpec, inner, order, levels: int | None = None) -> list[Term]:
    """The terms of d_t(inner) for inner = d_{y^{i(a)}} L in :func:`_source` form."""
    return fold_terms(_jet_terms(spec, inner, order, levels))


def total_jet_derivative(spec: BundleSpec, f: Expr, mode: str = "fractional") -> Expr:
    """Single application of d_t = sum_{i,b} y^{i(b)} d_{y^{i(b-1)}}, with b
    running to k+1, the overshoot needed by the Euler-Lagrange residual."""
    order = _order(spec, mode)
    return terms_to_expr(_jet_terms(spec, _source(f, order), order))


def _ladder(spec: BundleSpec, L: Expr, level: int, order, weight) -> tuple[Expr, ...]:
    """Components sum_{a=max(level,1)..k} weight(a) d_t(d_{y^{i(a)}} L), with
    the base partial d_{x^i} L added at level 0."""
    src = _source(L, order)
    rungs = range(max(level, 1), spec.k + 1)
    base = partial_terms(src, spec.level_names(0), order) if level == 0 else None
    inner = iter(_derive(src, [jet_var(i, a) for i in range(spec.n) for a in rungs], order))
    out = []
    for i in range(spec.n):
        terms = base[i] if level == 0 else []
        for a in rungs:
            terms += scale_terms(weight(a), _dragged(spec, next(inner), order))
        out.append(_sum(terms))
    return tuple(out)


def el_residual(spec: BundleSpec, L: Expr, mode: str = "fractional") -> tuple[Expr, ...]:
    """Euler-Lagrange residual components E_i (zero along extremal jets): the
    ladder at level 0 with the weights (-1)^a."""
    return _ladder(spec, L, 0, _order(spec, mode), lambda a: (-1.0) ** a)


# ------------------------------------------------------------ covector ladder --


def craig_synge_level(spec: BundleSpec, L: Expr, level: int) -> tuple[Expr, ...]:
    """Graded covector component at the given level (0..k), fractional mode."""
    if not (0 <= level <= spec.k):
        raise DomainError(f"ladder level must be in 0..{spec.k}, got {level}")
    return _ladder(spec, L, level, spec.alpha,
                   lambda a: (-1.0) ** a / gamma(1.0 + spec.alpha * a))


def craig_synge_closed_form(
    spec: BundleSpec, L: Expr, fundamental
) -> tuple[Expr, ...]:
    """Alternative closed form for the next-to-top covector component:

        d_{y^{i(k-1)}} L - d_t|_{trunc} ( d_{y^{i(k)}} L ) - g_ij y^{j(k+1)}

    with the total derivative truncated to levels <= k and g the fundamental
    tensor. Disagrees with the ladder on quadratic Lagrangians; see
    :func:`covector_gap`."""
    src = normalize_terms(L)
    below = partial_terms(src, spec.level_names(spec.k - 1), spec.alpha)
    inner = _derive(src, spec.level_names(spec.k), spec.alpha)
    out = []
    for i in range(spec.n):
        terms = below[i]
        terms += negate_terms(_dragged(spec, inner[i], spec.alpha, spec.k))
        for j in range(spec.n):
            top = expand_terms(Var(jet_var(j, spec.k + 1)))
            terms += negate_terms(multiply_terms(expand_terms(fundamental[i][j]), top))
        out.append(_sum(terms))
    return tuple(out)


def covector_gap(
    spec: BundleSpec, L: Expr, fundamental, env: dict[str, float]
) -> float:
    """Pointwise gap between the ladder's next-to-top component and the
    closed form — a reported measurement, deliberately not reconciled."""
    ladder = craig_synge_level(spec, L, spec.k - 1)
    closed = craig_synge_closed_form(spec, L, fundamental)
    values = compile_exprs([e for pair in zip(ladder, closed) for e in pair])(env)
    return float(np.max(np.abs(np.subtract(values[::2], values[1::2]))))


# ------------------------------------------------------------ spray extraction --


def extract_spray(spec: BundleSpec, L: Expr) -> tuple[Expr, ...]:
    """Solve the fractional E_i = 0 for the overshoot variables y^{i(k+1)}.

    Requires the overshoot coupling to be diagonal and structurally nonzero
    (true for fibre-decoupled polynomial Lagrangians); returns the solved
    expressions."""
    E = el_residual(spec, L)
    out = []
    for i in range(spec.n):
        for j, d in enumerate(classical_partials(E[i], spec.level_names(spec.k + 1))):
            A_ij = normal_form(d)
            if i == j:
                A_ii = A_ij
            elif A_ij != Num(0.0):
                raise DomainError(
                    "overshoot coupling is not diagonal; spray extraction "
                    "supports fibre-decoupled Lagrangians only"
                )
        if A_ii == Num(0.0):
            raise DomainError(f"Lagrangian is degenerate along coordinate {i + 1}")
        rest = normal_form(Sub(E[i], Mul(A_ii, Var(jet_var(i, spec.k + 1)))))
        out.append(normal_form(Div(Neg(rest), A_ii)))
    return tuple(out)


def spray_coefficient_from_el(spec: BundleSpec, solved: tuple[Expr, ...]) -> tuple[Expr, ...]:
    """Spray coefficients from the solved overshoot values:
    G^i = -[Gamma(1+alpha k)/Gamma(1+alpha(k+1))] y^{i(k+1)}_solved."""
    scale = -gamma(1.0 + spec.alpha * spec.k) / gamma(1.0 + spec.alpha * (spec.k + 1))
    return tuple(normal_form(Mul(Num(scale), g)) for g in solved)


def spray_ode_residual(
    spec: BundleSpec,
    solved: tuple[Expr, ...],
    curves: list[FracSeries],
    ts,
) -> float:
    """max over sample times of |y^{i(k+1)}(t) - solved_i(jet(t))| along the
    exact jet of the given curves."""
    jet = jet_lift(curves, spec.alpha, spec.k + 1, np.asarray(ts, dtype=float)).env()
    tops = np.array([jet[jet_var(i, spec.k + 1)] for i in range(spec.n)])
    gaps = np.abs(tops - compile_exprs(solved).grid(jet))
    return float(np.max(gaps, initial=0.0))  # np.max keeps a NaN gap


# ------------------------------------------------------------ reference problems --


@dataclass(frozen=True)
class ReferenceProblem:
    """A Lagrangian whose Euler-Lagrange residual has a pinned closed form."""

    spec: BundleSpec
    lagrangian: Expr
    target: Expr
    mode: str

    @cached_property
    def residual(self) -> tuple[Expr, ...]:
        """The Euler-Lagrange residual of the Lagrangian, built once."""
        return el_residual(self.spec, self.lagrangian, self.mode)

    @cached_property
    def _residual_and_target(self):
        """E_1, target, E_2, target, ... at a point, compiled once."""
        return compile_exprs([x for e in self.residual for x in (e, self.target)])


def _reference_target(alpha: float, power: float, c: float, coeffs) -> Expr:
    lead = c * gamma(1.0 + power) / gamma(1.0 + power - alpha)
    target: Expr = Mul(Num(lead), Pow(Var(jet_var(0, 0)), power - alpha))
    for a, a_coeff in enumerate(coeffs, start=1):
        scale = a_coeff * gamma(1.0 + alpha * (a + 1))
        target = Add(target, Mul(Num(scale), Var(jet_var(0, a + 1))))
    return normal_form(target)


def reference_problem_fractional(
    alpha: float = 0.3,
    power: float = 2.0,
    c: float = 1.0,
    coeffs=(1.0, 1.0, 1.0),
    fibre_exponent_alpha: bool = False,
) -> ReferenceProblem:
    """n = 1 Lagrangian  c x^p + sum_a c_a (y^{(a)})^{2 alpha}  with

        c_a = (-1)^a a_a Gamma(1+alpha(a+1)) / Gamma(1+2 alpha),

    whose fractional residual is exactly

        c G(1+p)/G(1+p-alpha) x^{p-alpha} + sum_a a_a Gamma(1+alpha(a+1)) y^{(a+1)}.

    ``fibre_exponent_alpha=True`` swaps the fibre exponent 2*alpha for alpha; the
    order-alpha partial of (y)^alpha is the constant Gamma(1+alpha), so every
    fibre term drops out of the residual and the target is missed — kept as a
    measurable variant."""
    k = len(coeffs)
    spec = BundleSpec(1, k, alpha)
    exponent = alpha if fibre_exponent_alpha else 2.0 * alpha
    L: Expr = Mul(Num(c), Pow(Var(jet_var(0, 0)), power))
    for a, a_coeff in enumerate(coeffs, start=1):
        c_a = (-1.0) ** a * a_coeff * gamma(1.0 + alpha * (a + 1)) / gamma(1.0 + 2.0 * alpha)
        L = Add(L, Mul(Num(c_a), Pow(Var(jet_var(0, a)), exponent)))
    return ReferenceProblem(
        spec, normal_form(L), _reference_target(alpha, power, c, coeffs), "fractional"
    )


def reference_problem_classical(
    alpha: float = 0.3,
    power: float = 2.0,
    c: float = 1.0,
    coeffs=(1.0, 1.0, 1.0),
) -> ReferenceProblem:
    """n = 1 Lagrangian with ordinary squares on the fibres,

        c G(1+p)/[G(1+p-alpha)(p-alpha+1)] x^{p-alpha+1}
            + sum_a (-1)^a (a_a/2) Gamma(1+alpha(a+1)) (y^{(a)})^2,

    whose classical residual hits the same target as the fractional problem."""
    k = len(coeffs)
    spec = BundleSpec(1, k, alpha)
    lead = c * gamma(1.0 + power) / (gamma(1.0 + power - alpha) * (power - alpha + 1.0))
    L: Expr = Mul(Num(lead), Pow(Var(jet_var(0, 0)), power - alpha + 1.0))
    for a, a_coeff in enumerate(coeffs, start=1):
        c_a = (-1.0) ** a * 0.5 * a_coeff * gamma(1.0 + alpha * (a + 1))
        L = Add(L, Mul(Num(c_a), Pow(Var(jet_var(0, a)), 2.0)))
    return ReferenceProblem(
        spec, normal_form(L), _reference_target(alpha, power, c, coeffs), "classical"
    )


def reference_residual(problem: ReferenceProblem, env: dict) -> float | np.ndarray:
    """|E(env) - target(env)| for the problem's single coordinate. An env of
    equal-length arrays (one sample per index) gives the array of per-sample
    values, read through the grid entry of the compiled evaluator."""
    f = problem._residual_and_target
    if isinstance(next(iter(env.values())), np.ndarray):
        values = f.grid(env)
        return np.max(np.abs(values[::2] - values[1::2]), axis=0)
    values = f(env)
    return max(abs(e - target) for e, target in zip(values[::2], values[1::2]))


# ------------------------------------------------------------- prolongations --


def fundamental_tensor(spec: BundleSpec, L: Expr, semantics: str = "classical"):
    """Half the level-1 fibre Hessian of L: classical partials or reviewed
    fractional partials depending on ``semantics``."""
    order = _order(spec, semantics)
    ys = spec.level_names(1)
    return tuple(tuple(_sum(scale_terms(0.5, d)) for d in partial_terms(di, ys, order))
                 for di in _derive(_source(L, order), ys, order))


def alpha_square(spec: BundleSpec, diag_entries) -> Expr:
    """Energy function matched to a diagonal metric: the fractional fibre
    Hessian of  (2/Gamma(1+2 alpha)) sum_i g_ii (y^{i(1)})^{2 alpha}  is
    exactly diag(g_ii)."""
    if len(diag_entries) != spec.n:
        raise DomainError(f"need {spec.n} diagonal entries")
    scale = 2.0 / gamma(1.0 + 2.0 * spec.alpha)
    terms = []
    for i, g in enumerate(diag_entries):
        power = expand_terms(Pow(Var(jet_var(i, 1)), 2.0 * spec.alpha))
        terms += scale_terms(scale, multiply_terms(expand_terms(g), power))
    return _sum(terms)


def diagonal_inverse(spec: BundleSpec, rows):
    """Symbolic inverse of a structurally diagonal tensor; off-diagonal
    entries must normalize to zero."""
    n = spec.n
    for i in range(n):
        for j in range(n):
            if i != j and normal_form(rows[i][j]) != Num(0.0):
                raise DomainError(
                    "symbolic inversion is only provided for diagonal tensors"
                )
    return tuple(
        tuple(
            normal_form(Div(Num(1.0), rows[i][i])) if i == j else Num(0.0)
            for j in range(n)
        )
        for i in range(n)
    )


@dataclass(frozen=True)
class Prolongation:
    """Canonical first-order data built from a fundamental tensor."""

    spec: BundleSpec
    fundamental: tuple
    christoffels: tuple  # gamma[i][j][l]
    spray: tuple[Expr, ...]  # G^i = 1/2 gamma^i_{pm} y^p y^m
    dual1: tuple  # M^{(1)i}_j = gamma^i_{jm} y^m


def prolong_riemann(spec: BundleSpec, rows, inverse_rows=None) -> Prolongation:
    """Prolongation of a base metric given as a full matrix of Exprs."""
    n, alpha = spec.n, spec.alpha
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DomainError(f"metric must be {n} x {n}")
    # the printed inverse is expanded: for a non-monomial diagonal it holds the
    # opaque factor den^-1, which the terms of 1/den would key as (den, -1)
    ginv = diagonal_inverse(spec, rows) if inverse_rows is None else inverse_rows
    ginv = [[expand_terms(e) for e in row] for row in ginv]
    g = [[normalize_terms(e) for e in row] for row in rows]
    # dg[s][l][j]: the order-alpha partial of g_sl along x^j
    dg = [[partial_terms(e, spec.level_names(0), alpha) for e in row] for row in g]

    def christoffel(i: int, j: int, l: int) -> tuple[Term, ...]:
        return collect_terms(
            t for s in range(n) for t in scale_terms(0.5, multiply_terms(
                ginv[i][s], dg[s][l][j] + dg[j][s][l] + negate_terms(dg[j][l][s]))))

    gam = [[[christoffel(i, j, l) for l in range(n)] for j in range(n)] for i in range(n)]
    folded = [[[fold_terms(c) for c in row] for row in mat] for mat in gam]
    y = [expand_terms(Var(jet_var(m, 1))) for m in range(n)]
    spray = tuple(
        _sum(t for p in range(n) for m in range(n)
             for t in scale_terms(0.5, multiply_terms(folded[i][p][m], multiply_terms(y[p], y[m]))))
        for i in range(n))
    dual1 = tuple(
        tuple(_sum(t for m in range(n) for t in multiply_terms(folded[i][j][m], y[m]))
              for j in range(n))
        for i in range(n))
    christoffels = tuple(tuple(tuple(terms_to_expr(c) for c in row) for row in mat)
                         for mat in gam)
    return Prolongation(spec, tuple(tuple(r) for r in rows), christoffels, spray, dual1)


def prolong_finsler(spec: BundleSpec, energy: Expr) -> Prolongation:
    """Prolongation of an energy function via its fractional fibre Hessian."""
    return prolong_riemann(spec, fundamental_tensor(spec, energy, "fractional"))


def prolong_lagrange(spec: BundleSpec, L: Expr) -> Prolongation:
    """Prolongation of a Lagrangian via its classical fibre Hessian."""
    return prolong_riemann(spec, fundamental_tensor(spec, L, "classical"))
