"""Metrical connection and lifted metric on the order-k fractional bundle.

Given a symmetric metric g_ij (Exprs in the bundle coordinates) and primal
nonlinear-connection coefficients N^{(b)}, the adapted derivations are

    Delta_{x_j}      = D^alpha_{x_j}      - sum_{b,m} N^{(b)m}_j D^alpha_{y^{m(b)}}
    Delta_{y^{i(a)}} = D^alpha_{y^{i(a)}} - sum_{b,m} N^{(b)m}_i D^alpha_{y^{m(a+b)}}

(all partials taken in the reviewed fractional sense along every slot; terms
past level k are dropped). The metrical coefficients are the Levi-Civita-type
combinations

    L^i_{jl}      = 1/2 g^{is} (Delta_{x_j} g_sl + Delta_{x_l} g_js - Delta_{x_s} g_jl)
    C^{(a)i}_{jl} = 1/2 g^{is} (Delta_{y^{j(a)}} g_sl + Delta_{y^{l(a)}} g_js
                                 - Delta_{y^{s(a)}} g_jl)

evaluated numerically at a point. Because every slot of the combination uses
one shared derivation and the metric stores each symmetric entry once, the
compatibility identity (the adapted covariant derivative of g vanishing)
holds algebraically for *any* choice of N; the computed residual only carries
the rounding of the numeric matrix inversion.

The derivations are built as term sums (:mod:`fracosc.expr`): f is expanded
once and each coefficient N is read from ``primal.terms``. The derivations
of the metric are kept as term sums and compiled as such; ``delta_x`` and
``delta_y`` hand their result on as an Expr.

The lifted (diagonal-type) metric on the full bundle pairs the adapted
coframe blocks with g on every level: in natural coordinates it is
B^T blockdiag(g, ..., g) B for the coframe matrix B.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bundle import BundleSpec, DualCoefficients, PrimalCoefficients, dual_coframe
from .errors import DomainError
from .expr import (
    Expr,
    Term,
    collect_terms,
    compile_exprs,
    fold_coefficients,
    multiply_terms,
    negate_terms,
    normal_form,
    normalize_terms,
    partial_terms,
    terms_to_expr,
    to_str,
)
from .geometry import jet_var, require_invertible

__all__ = [
    "MetricField",
    "MetricalConnection",
    "ConnectionCoefficients",
    "sasaki_lift",
]


@dataclass(frozen=True)
class MetricField:
    """Symmetric metric on the base indices; each entry above the diagonal is
    stored once and aliased below it, so g_ij and g_ji are the same Expr and
    evaluate bitwise identically."""

    spec: BundleSpec
    upper: tuple[tuple[Expr, ...], ...]  # row i holds entries (i, i), ..., (i, n-1)

    def __post_init__(self):
        n = self.spec.n
        if len(self.upper) != n or any(
            len(row) != n - i for i, row in enumerate(self.upper)
        ):
            raise DomainError("metric storage must be the upper triangle, row-major")

    @staticmethod
    def from_matrix(spec: BundleSpec, rows) -> "MetricField":
        """Build from a full n x n matrix of Exprs; the two triangles must be
        structurally equal (after normalization) and only the upper one is kept."""
        n = spec.n
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError(f"metric must be {n} x {n}")
        for i in range(n):
            for j in range(i + 1, n):
                if to_str(normal_form(rows[i][j])) != to_str(normal_form(rows[j][i])):
                    raise DomainError(
                        f"metric entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ"
                    )
        return MetricField(
            spec, tuple(tuple(rows[i][j] for j in range(i, n)) for i in range(n))
        )

    def entry(self, i: int, j: int) -> Expr:
        if i > j:
            i, j = j, i
        return self.upper[i][j - i]

    @cached_property
    def _compiled(self):
        return compile_exprs([e for row in self.upper for e in row])

    def evaluate_at(self, env: dict[str, float]) -> np.ndarray:
        return _symmetric(self._compiled(env), self.spec.n)

    def inverse_at(self, env: dict[str, float]) -> np.ndarray:
        return _inverse(self.evaluate_at(env))


def _symmetric(upper, n: int) -> np.ndarray:
    """The n x n symmetric matrix of its upper triangle, given row-major."""
    g = np.empty((n, n))
    values = iter(upper)
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = next(values)
    return g


def _inverse(g: np.ndarray) -> np.ndarray:
    ginv = require_invertible(g, "metric at the evaluation point")
    return 0.5 * (ginv + ginv.T)


@dataclass(frozen=True)
class ConnectionCoefficients:
    """Numeric coefficients at a point: L[i,j,l] = L^i_{jl} for the base
    directions and C[a-1][i,j,l] = C^{(a)i}_{jl} for fibre level a."""

    L: np.ndarray
    C: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class MetricalConnection:
    spec: BundleSpec
    metric: MetricField
    primal: PrimalCoefficients

    def __post_init__(self):
        if self.metric.spec != self.spec or self.primal.spec != self.spec:
            raise DomainError("metric / coefficients built for a different bundle")

    # -- adapted derivations --------------------------------------------------

    def delta_x(self, f: Expr, j: int) -> Expr:
        """Delta along the j-th base direction (0-indexed)."""
        return terms_to_expr(self._delta(normalize_terms(f), j, 0))

    def delta_y(self, f: Expr, a: int, i: int) -> Expr:
        """Delta along fibre direction y^{i(a)} (level a in 1..k, i 0-indexed)."""
        if not (1 <= a <= self.spec.k):
            raise DomainError(f"fibre level must be in 1..{self.spec.k}, got {a}")
        return terms_to_expr(self._delta(normalize_terms(f), i, a))

    def _delta(self, f: tuple[Term, ...], i: int, a: int) -> tuple[Term, ...]:
        """Collected terms of D_{(a)i} f - sum_{b,m} N^{(b)m}_i D_{(a+b)m} f
        for f given by its collected terms: the derivation along the base
        direction i when a = 0, along y^{i(a)} otherwise."""
        spec = self.spec
        names = [jet_var(i, a)] + [
            jet_var(m, a + b) for b in range(1, spec.k - a + 1) for m in range(spec.n)]
        out, *rest = partial_terms(f, names, spec.alpha)
        for r, d in enumerate(rest):
            b, m = divmod(r, spec.n)  # d is the partial along y^{m(a+b+1)}
            out += negate_terms(multiply_terms(self.primal.terms[b][m][i], d))
        return collect_terms(out)

    # -- coefficients at a point ----------------------------------------------

    @cached_property
    def _delta_metric(self) -> tuple[tuple[tuple[int, int, int, tuple[Term, ...]], ...], ...]:
        """Adapted derivations of the metric, built once as collected term
        sums with their coefficients folded: entry 0 holds (j, s, l,
        Delta_{x_j} g_sl) and entry a holds (j, s, l, Delta_{y^{j(a)}} g_sl)
        for s <= l. Each metric entry is normalized once, and a fold that
        overflows names the entry."""
        n, k = self.spec.n, self.spec.k

        def delta(s: int, l: int, g, j: int, a: int) -> tuple[Term, ...]:
            try:
                return fold_coefficients(self._delta(g, j, a))
            except DomainError as exc:
                raise DomainError(f"metric entry ({s + 1}, {l + 1}): {exc}") from None

        entries = [(s, l, normalize_terms(self.metric.entry(s, l)))
                   for s in range(n) for l in range(s, n)]
        return tuple(
            tuple((j, s, l, delta(s, l, g, j, a)) for s, l, g in entries for j in range(n))
            for a in range(k + 1))

    @cached_property
    def _compiled(self):
        """The metric's upper triangle, then every entry of Delta g."""
        return compile_exprs([e for row in self.metric.upper for e in row]
                             + [d for level in self._delta_metric for *_, d in level])

    def _values_at(self, env) -> tuple[np.ndarray, list[np.ndarray]]:
        """g at env, and Dg[j, s, l] at env for the base (first) and each
        fibre level; Dg is symmetric in (s, l)."""
        n = self.spec.n
        values = self._compiled(env)
        if not np.isfinite(values).all():  # an inf entry would print NaN coefficients
            raise DomainError(
                "metric or its adapted derivatives not finite at the evaluation point")
        pos = n * (n + 1) // 2
        g = _symmetric(values[:pos], n)
        out = []
        for level in self._delta_metric:
            Dg = np.empty((n, n, n))
            for j, s, l, _ in level:
                Dg[j, s, l] = Dg[j, l, s] = values[pos]
                pos += 1
            out.append(Dg)
        return g, out

    @staticmethod
    def _levi_civita(ginv: np.ndarray, Dg: np.ndarray) -> np.ndarray:
        # B[s,j,l] = Dg[j,s,l] + Dg[l,j,s] - Dg[s,j,l]; K = 1/2 g^{-1} B
        B = Dg.transpose(1, 0, 2) + Dg.transpose(2, 1, 0) - Dg
        return 0.5 * np.einsum("is,sjl->ijl", ginv, B)

    def _coefficients_with_dg(self, env) -> tuple[ConnectionCoefficients, np.ndarray, list]:
        g, Dgs = self._values_at(env)
        ginv = _inverse(g)
        L = self._levi_civita(ginv, Dgs[0])
        C = tuple(self._levi_civita(ginv, Dg) for Dg in Dgs[1:])
        return ConnectionCoefficients(L, C), g, Dgs

    def coefficients_at(self, env: dict[str, float]) -> ConnectionCoefficients:
        return self._coefficients_with_dg(env)[0]

    # -- compatibility and covariant derivative --------------------------------

    def metricity_residual(self, env: dict[str, float]) -> float:
        """max over all adapted directions of the covariant derivative of g
        (NaN if any is NaN); zero up to inversion rounding for any primal
        coefficients."""
        coeff, g, Dgs = self._coefficients_with_dg(env)
        norms = [_nabla_g_norm(g, Dg, K) for Dg, K in zip(Dgs, (coeff.L, *coeff.C))]
        return float(np.max(norms))

    def covariant_derivative_x(self, tensor, env: dict[str, float]) -> np.ndarray:
        """Adapted covariant derivative of a covariant tensor (nested tuples of
        Exprs, any rank >= 1) along the base directions; returns the numeric
        components with the new direction index first:

            out[m, i1, ..., ir] = (Delta_m T)_{i1..ir}
                                  - sum_q L^s_{i_q m} T_{i1 .. s .. ir}.
        """
        n = self.spec.n
        shape = _shape(tensor, n)
        flat = list(_flatten(tensor))
        comps = np.array(compile_exprs(flat)(env)).reshape(shape)
        rank = comps.ndim
        L = self.coefficients_at(env).L
        terms = [normalize_terms(c) for c in flat]
        deltas = compile_exprs([self._delta(t, m, 0) for m in range(n) for t in terms])
        D = np.array(deltas(env)).reshape((n,) + shape)
        out = np.empty((n,) + shape)
        for m in range(n):
            d = D[m]
            for q in range(rank):
                corr = np.tensordot(L[:, :, m], comps, axes=([0], [q]))
                d = d - np.moveaxis(corr, 0, q)
            out[m] = d
        return out


def _nabla_g_norm(g: np.ndarray, Dg: np.ndarray, K: np.ndarray) -> float:
    # resid[i,j,m] = Dg[m,i,j] - K^s_{im} g_sj - K^s_{jm} g_is
    term1 = np.einsum("sj,sim->ijm", g, K)
    term2 = np.einsum("is,sjm->ijm", g, K)
    resid = np.einsum("mij->ijm", Dg) - term1 - term2
    return float(np.max(np.abs(resid)))


def _flatten(tensor):
    if isinstance(tensor, (tuple, list)):
        for t in tensor:
            yield from _flatten(t)
    else:
        yield tensor


def _shape(tensor, n: int) -> tuple[int, ...]:
    shape = []
    t = tensor
    while isinstance(t, (tuple, list)):
        if len(t) != n:
            raise DomainError("tensor components must have extent n in every slot")
        shape.append(len(t))
        t = t[0]
    return tuple(shape)


def sasaki_lift(
    spec: BundleSpec,
    metric: MetricField,
    dual: DualCoefficients,
    env: dict[str, float],
) -> np.ndarray:
    """Lifted metric on the full bundle in natural coordinates: the adapted
    coframe pairs each level with g, so the matrix is B^T blockdiag(g,...,g) B
    for the coframe matrix B. For k = 1, n = 1, g = 1 and dual coefficient m
    this is [[1 + m^2, m], [m, 1]]."""
    if metric.spec != spec or dual.spec != spec:
        raise DomainError("metric / coefficients built for a different bundle")
    B = dual_coframe(spec, dual, env)
    g = metric.evaluate_at(env)
    blocks = np.kron(np.eye(spec.k + 1), g)
    lifted = B.T @ blocks @ B
    return 0.5 * (lifted + lifted.T)
