"""Fractional differential geometry on the positive orthant: coordinate
changes, fractional Jacobians, and the fractional exterior derivative.

Fractional Jacobian
-------------------
For a coordinate change u = u(x) on the positive orthant, the order-alpha
Jacobian used throughout the package is the *weighted* classical Jacobian

    J(u, x)^i_j = u^i(x)^(alpha-1) * (d u^i / d x^j) * (x^j)^(1-alpha).

This is the unique weighting for which the chain structure is exactly
involutive: J(x, u) evaluated at u(x) is the matrix inverse of J(u, x) for
*every* smooth invertible map, not just linear ones, and it reduces to the
ordinary Jacobian at alpha = 1.

A second, gamma-normalized form  (1/Gamma(1+alpha)) * D^alpha_{x^j} (u^i)^alpha
(with D^alpha the reviewed fractional partial) is provided for monomial maps
as :func:`frac_jacobian_gamma_form`. The two coincide for linear maps; for a
monomial x -> c x^p the coefficients differ by
p  vs  Gamma(1+alpha p) / (Gamma(1+alpha) Gamma(1+alpha(p-1))), a discrepancy
that :func:`jacobian_form_discrepancy` reports rather than hides.

Exterior derivative
-------------------
``frac_exterior_d0`` / ``frac_exterior_d1`` implement the order-alpha
exterior derivative on 0- and 1-forms over the monomial fragment, with
components carried as gamma-ledgered term tuples. Because mixed fractional
partials of monomials commute with *identical* gamma ledgers, d∘d = 0 holds
structurally (the antisymmetrized term lists cancel to literally empty), not
merely within a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SingularityError
from .expr import (
    Expr,
    Mul,
    Pow,
    Term,
    Var,
    classical_partials,
    collect_terms,
    compile_exprs,
    frac_partial_terms,
    free_vars,
    negate_terms,
    normalize_terms,
    simplify,
    simplify_node,
    term_frac_partial,
    terms_to_expr,
    to_str,
)
from .specfun import gamma

__all__ = [
    "ChartMap",
    "jet_var",
    "base_vars",
    "weighted_jacobian_exprs",
    "frac_jacobian",
    "frac_jacobian_gamma_form",
    "jacobian_form_discrepancy",
    "jacobian_identity_residual",
    "FracOneForm",
    "FracTwoForm",
    "frac_exterior_d0",
    "frac_exterior_d1",
]


def jet_var(i: int, level: int) -> str:
    """Name of jet coordinate i (0-indexed) at level 0, 1, 2, ...: ``x<i+1>``
    on the base, ``y<i+1>_<level>`` on the fibres. The one place in the
    package that spells a coordinate name."""
    return f"x{i + 1}" if level == 0 else f"y{i + 1}_{level}"


def base_vars(n: int) -> tuple[str, ...]:
    """Canonical base coordinate names x1..xn."""
    return tuple(jet_var(i, 0) for i in range(n))


@dataclass(frozen=True)
class ChartMap:
    """A coordinate change on the positive orthant.

    components[i] is the i-th target coordinate as an Expr in the source
    coordinates x1..xn. Maps used with fractional weights must send the
    positive orthant into itself; that is a property of points, checked at
    evaluation time rather than construction.
    """

    components: tuple[Expr, ...]

    def __post_init__(self):
        n = len(self.components)
        if n == 0:
            raise DomainError("chart map needs at least one component")
        allowed = set(base_vars(n))
        for i, comp in enumerate(self.components):
            extra = free_vars(comp) - allowed
            if extra:
                raise DomainError(
                    f"component {i + 1} uses variables {sorted(extra)} outside "
                    f"{sorted(allowed)}")

    @property
    def n(self) -> int:
        return len(self.components)

    def env(self, point) -> dict[str, float]:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.n,):
            raise DomainError(f"expected point of shape ({self.n},), got {point.shape}")
        return {name: float(v) for name, v in zip(base_vars(self.n), point)}

    @cached_property
    def _compiled(self):
        return compile_exprs(self.components)

    def apply(self, point) -> np.ndarray:
        return np.array(self._compiled(self.env(point)))

    @cached_property
    def _prolongations(self) -> dict:
        """Jet prolongations of this map by BundleSpec, with their compiled
        evaluators, filled by :mod:`fracosc.bundle` on first use."""
        return {}


def weighted_jacobian_exprs(
    components: tuple[Expr, ...], source_vars: tuple[str, ...], alpha: float
) -> list[list[Expr]]:
    """Symbolic matrix of the weighted Jacobian
    entry[i][j] = components[i]^(alpha-1) * d components[i]/d source_vars[j]
                  * source_vars[j]^(1-alpha).

    Works for any expressions whose classical partials exist in the language;
    fractional weights make sense on the positive orthant only. Entries are
    simplified; each component is simplified once and differentiated along
    every source variable in one pass of :func:`classical_partials`.
    """
    out: list[list[Expr]] = []
    for comp in components:
        weight = simplify_node(Pow(simplify(comp), alpha - 1.0))
        row = []
        for v, d in zip(source_vars, classical_partials(comp, source_vars)):
            scaled = simplify_node(Mul(weight, d))
            row.append(simplify_node(Mul(scaled, simplify_node(Pow(Var(v), 1.0 - alpha)))))
        out.append(row)
    return out


def frac_jacobian(cm: ChartMap, alpha: float, point) -> np.ndarray:
    """Weighted Jacobian of ``cm`` at ``point`` (positive orthant, target too)."""
    env = cm.env(point)
    if any(v <= 0.0 for v in env.values()):
        raise DomainError("fractional Jacobian needs a positive-orthant point")
    image = cm.apply(point)
    if np.any(image <= 0.0):
        raise DomainError("fractional Jacobian needs the image in the positive orthant")
    rows = weighted_jacobian_exprs(cm.components, base_vars(cm.n), alpha)
    values = compile_exprs([entry for row in rows for entry in row])(env)
    return np.array(values).reshape(cm.n, cm.n)


def _monomial_power_form(comp: Expr) -> Term:
    terms = normalize_terms(comp)
    if len(terms) != 1 or terms[0].others:
        raise DomainError(
            f"gamma-form Jacobian is defined for monomial components only, got "
            f"{to_str(comp)}")
    return terms[0]


def frac_jacobian_gamma_form(cm: ChartMap, alpha: float, point) -> np.ndarray:
    """Gamma-normalized Jacobian (1/Gamma(1+alpha)) D^alpha_{x^j} (u^i)^alpha
    for maps with monomial components.

    Kept as a cross-check: it equals :func:`frac_jacobian` for linear maps and
    deviates by a known gamma-ratio factor on curved monomials.
    """
    env = cm.env(point)
    if any(v <= 0.0 for v in env.values()):
        raise DomainError("gamma-form Jacobian needs a positive-orthant point")
    norm = gamma(1.0 + alpha)
    out = np.zeros((cm.n, cm.n))
    entries = []
    for i, comp in enumerate(cm.components):
        _monomial_power_form(comp)  # validate shape
        powered = normalize_terms(Pow(comp, alpha))
        for j, vj in enumerate(base_vars(cm.n)):
            d = term_frac_partial(powered[0], vj, alpha)
            if d is not None:
                entries.append((i, j, terms_to_expr([d])))
    values = compile_exprs([e for *_, e in entries])(env)
    for (i, j, _), v in zip(entries, values):
        out[i, j] = v / norm
    return out


def jacobian_form_discrepancy(cm: ChartMap, alpha: float, point) -> float:
    """max |closed-form - gamma-form| entrywise at ``point`` (monomial maps)."""
    a = frac_jacobian(cm, alpha, point)
    b = frac_jacobian_gamma_form(cm, alpha, point)
    return float(np.max(np.abs(a - b)))


def jacobian_identity_residual(
    forward: ChartMap, inverse: ChartMap, alpha: float, point
) -> float:
    """max |J(inverse, .)|_{u(x)} . J(forward, .)|_x  -  I| entrywise.

    ``forward`` maps the chart of ``point``; ``inverse`` must be its two-sided
    inverse (checked loosely through the round-tripped point).
    """
    image = forward.apply(point)
    back = inverse.apply(image)
    if np.max(np.abs(back - np.asarray(point, dtype=float))) > 1e-8 * (
        1.0 + np.max(np.abs(point))
    ):
        raise DomainError("inverse chart map does not round-trip the point")
    J_fwd = frac_jacobian(forward, alpha, point)
    J_inv = frac_jacobian(inverse, alpha, image)
    prod = J_inv @ J_fwd
    return float(np.max(np.abs(prod - np.eye(forward.n))))


def require_invertible(matrix: np.ndarray, what: str) -> np.ndarray:
    """Inverse with a package-taxonomy error instead of LinAlgError."""
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        raise SingularityError(f"{what} is singular") from None


# ------------------------------------------------------- exterior derivative


@dataclass(frozen=True)
class FracOneForm:
    """Order-alpha one-form sum_i (component_i) dx^i_alpha with components
    stored as gamma-ledgered term tuples over x1..xn."""

    alpha: float
    components: tuple[tuple[Term, ...], ...]

    @property
    def n(self) -> int:
        return len(self.components)

    def component_expr(self, i: int) -> Expr:
        return terms_to_expr(self.components[i])

    @property
    def is_zero(self) -> bool:
        return all(not c for c in self.components)


@dataclass(frozen=True)
class FracTwoForm:
    """Order-alpha two-form with components over i < j, term-tuple valued."""

    alpha: float
    n: int
    components: tuple[tuple[int, int, tuple[Term, ...]], ...]

    def component_terms(self, i: int, j: int) -> tuple[Term, ...]:
        for a, b, terms in self.components:
            if (a, b) == (i, j):
                return terms
        return ()

    def component_expr(self, i: int, j: int) -> Expr:
        return terms_to_expr(self.component_terms(i, j))

    @property
    def is_zero(self) -> bool:
        return all(not terms for _, _, terms in self.components)


def frac_exterior_d0(f: Expr, n: int, alpha: float) -> FracOneForm:
    """Fractional differential of a 0-form on the monomial fragment:
    component i is the order-alpha partial along x(i+1)."""
    terms = normalize_terms(f)
    comps = tuple(frac_partial_terms(terms, v, alpha) for v in base_vars(n))
    return FracOneForm(alpha, comps)


def frac_exterior_d1(omega: FracOneForm) -> FracTwoForm:
    """Fractional exterior derivative of a one-form:
    (d omega)_{ij} = D^alpha_{x_i} omega_j - D^alpha_{x_j} omega_i for i < j.

    Term-level cancellation makes d(d f) vanish structurally: both orders of
    the mixed partial produce identical gamma ledgers, so the antisymmetrized
    coefficients cancel to exact zero and the component term lists are empty.
    """
    names = base_vars(omega.n)
    comps = []
    for i in range(omega.n):
        for j in range(i + 1, omega.n):
            terms = list(frac_partial_terms(omega.components[j], names[i], omega.alpha))
            terms += negate_terms(frac_partial_terms(omega.components[i], names[j], omega.alpha))
            comps.append((i, j, collect_terms(terms)))
    return FracTwoForm(omega.alpha, omega.n, tuple(comps))
