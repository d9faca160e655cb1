"""Exact calculus on finite fractional-power series  f(t) = sum_i c_i t^{e_i}.

A series is a sum of collected :class:`~fracosc.expr.Term` s in the one
variable ``t``, so it has the expression layer's calculus: sums concatenate
terms, products are :func:`~fracosc.expr.multiply_terms`, and the reviewed
fractional derivative is :func:`~fracosc.expr.frac_partial_terms` along t,

    D^nu [t^g] = Gamma(1+g)/Gamma(1+g-nu) * t^(g-nu),        g >= nu,
    D^nu [t^0] = 0                                            (nu > 0),

where "reviewed" means the operator is applied to f - f(base), so constants
are annihilated and the result agrees with the Caputo derivative for smooth f
and 0 < nu <= 1 (Podlubny, *Fractional Differential Equations*, 1999).
Negative nu is the corresponding fractional *integral*; exponents in (0, nu)
raise DomainError. Coefficients keep their gamma ledgers, so iterated
derivatives telescope, and each is folded once, by ``GammaProduct.value()``,
when the series is read: :meth:`FracSeries.evaluate`, the JSON text and the
folded view :attr:`FracSeries.pairs`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import DomainError, EvalError
from .expr import (
    EXP_SNAP, Term, collect_terms, fold_coefficients, frac_partial_terms, multiply_terms,
    scale_terms,
)
from .gammaledger import GammaProduct
from .specfun import gamma, gen_binomial

__all__ = [
    "FracSeries",
    "frac_derive",
    "frac_derive_iterated",
    "classical_derive",
    "semigroup_residual",
    "leibniz_series",
    "ml_reconstruct",
    "series_distance",
    "definite_integral",
    "ml_series",
]

#: the variable of every series
_T = "t"


@dataclass(frozen=True)
class FracSeries:
    """Finite sum of real-power terms in t: collected terms, each coefficient
    with its gamma ledger. The domain is t >= 0 (t > 0 where negative
    exponents are present)."""

    terms: tuple[Term, ...]

    def __init__(self, pairs):
        """The sum of c * t^e over the (coefficient, exponent) ``pairs``; an
        exponent within EXP_SNAP of zero is zero."""
        object.__setattr__(self, "terms", collect_terms(
            Term(GammaProduct.of(c), () if abs(e) < EXP_SNAP else ((_T, float(e)),))
            for c, e in pairs))

    @staticmethod
    def of_terms(terms: Iterable[Term]) -> "FracSeries":
        """The sum of ``terms``, power terms in ``t`` with no opaque factors."""
        f = object.__new__(FracSeries)
        object.__setattr__(f, "terms", collect_terms(terms))
        return f

    @staticmethod
    def monomial(coeff: float, exponent: float) -> "FracSeries":
        return FracSeries([(coeff, exponent)])

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "FracSeries") -> "FracSeries":
        return FracSeries.of_terms(self.terms + other.terms)

    def scaled(self, c: float) -> "FracSeries":
        return FracSeries.of_terms(scale_terms(c, self.terms))

    def __mul__(self, other: "FracSeries") -> "FracSeries":
        return FracSeries.of_terms(multiply_terms(self.terms, other.terms))

    # -- queries --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @cached_property
    def pairs(self) -> tuple[tuple[float, float], ...]:
        """(coefficient, exponent) pairs: every ledger folded once, equal
        exponents summed, zero coefficients dropped, exponents ascending."""
        sums: dict[float, float] = {}  # folding drops zeros, so 0.0 + c is c
        for t in fold_coefficients(self.terms):
            e = t.power_of(_T)
            sums[e] = sums.get(e, 0.0) + t.coeff.factor
        return tuple((sums[e], e) for e in sorted(sums) if sums[e] != 0.0)

    def coefficient_at(self, exponent: float) -> float:
        """The coefficient of the term whose exponent is within EXP_SNAP of
        ``exponent``, 0 if there is none."""
        for c, e in self.pairs:
            if abs(e - exponent) <= EXP_SNAP:
                return c
        return 0.0

    def __call__(self, t):
        return self.evaluate(t)

    def evaluate(self, t):
        """Evaluate at scalar or ndarray t >= 0, summing in ascending exponent order."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0):
            raise EvalError("fractional-power series require t >= 0")
        out = np.zeros_like(arr)
        for c, e in self.pairs:
            if e == 0.0:
                out = out + c
            elif e < 0.0:
                if np.any(arr == 0.0):
                    raise EvalError(f"t=0 with negative exponent {e}")
                out = out + c * arr**e
            else:
                # 0**positive is fine and equals 0
                out = out + c * np.where(arr > 0, arr, 0.0) ** e
        return float(out) if np.isscalar(t) or out.ndim == 0 else out

    # -- serialization ---------------------------------------------------------

    def to_json_text(self) -> str:
        """JSON array of [coefficient, exponent] pairs, ascending exponents."""
        return json.dumps([[c, e] for c, e in self.pairs])

    @staticmethod
    def from_json_text(text: str) -> "FracSeries":
        """Inverse of :meth:`to_json_text`; every number must be finite."""
        try:
            terms = [(float(c), float(e)) for c, e in json.loads(text)]
            if not np.all(np.isfinite(terms)):
                raise ValueError("numbers must be finite")
            return FracSeries(terms)
        except (ValueError, TypeError) as exc:
            raise DomainError(f"bad series text {text!r}: {exc}") from None


def frac_derive(f: FracSeries, nu: float) -> FracSeries:
    """Reviewed fractional derivative (nu > 0) / integral (nu < 0) of order nu:
    the term partial of :mod:`fracosc.expr` along t, ledgers kept.

    Constants are annihilated for nu > 0 (reviewed convention); exponents in
    the open interval (0, nu) raise DomainError. nu = 0 returns f unchanged.
    """
    if nu == 0.0:
        return f
    return FracSeries.of_terms(frac_partial_terms(f.terms, _T, nu))


def frac_derive_iterated(f: FracSeries, alpha: float, times: int) -> FracSeries:
    """Apply the reviewed order-alpha derivative ``times`` times."""
    if times < 0:
        raise DomainError(f"iteration count must be >= 0, got {times}")
    for _ in range(times):
        f = frac_derive(f, alpha)
    return f


def classical_derive(f: FracSeries) -> FracSeries:
    """Ordinary derivative d/dt (exact on powers)."""
    return FracSeries([(c * e, e - 1.0) for c, e in f.pairs if e != 0.0])


def semigroup_residual(f: FracSeries, alpha: float, beta: float) -> float:
    """max |D^beta f  -  D^alpha (D^(beta-alpha) f)| over clusters of
    exponents (:func:`series_distance`).

    Preconditions: 0 < alpha < beta <= 1 and every exponent of f is 0 or
    >= beta (so both factorizations are admissible).
    """
    if not (0.0 < alpha < beta <= 1.0):
        raise DomainError(f"need 0 < alpha < beta <= 1, got {alpha}, {beta}")
    direct = frac_derive(f, beta)
    split = frac_derive(frac_derive(f, beta - alpha), alpha)
    return series_distance(direct, split)


def series_distance(a: FracSeries, b: FracSeries) -> float:
    """max |coefficient sum of a - coefficient sum of b| over the clusters of
    exponents of both series, a cluster being a run of sorted exponents each
    within 1e-9 of the one before. Two exponents that rounding has split, or
    merged, land in one cluster, so the same function to rounding is close."""
    signed = sorted([(e, c) for c, e in a.pairs] + [(e, -c) for c, e in b.pairs])
    worst, total, last = 0.0, 0.0, None
    for e, c in signed:
        if last is not None and e - last > 1e-9:
            worst, total = max(worst, abs(total)), 0.0
        total += c
        last = e
    return max(worst, abs(total))


def leibniz_series(f1: FracSeries, f2: FracSeries, alpha: float, K: int) -> FracSeries:
    """Truncated fractional product rule
    sum_{k=0}^{K} C(alpha, k) * D^(alpha-k) f1 * (d/dt)^k f2.

    For k >= 1 the order alpha-k is negative, i.e. those factors are
    fractional *integrals* of f1. If f2 is a polynomial the classical
    derivatives terminate and the truncated sum is exact once K exceeds its
    degree; otherwise the caller owns the truncation error (empirically
    ~K^-2 for half-power pairs). Very large K (>~300) produces terms whose
    evaluation can overflow for t > 1 even though their coefficients are
    negligible; stay in the K <= 200 operating range.
    """
    if K < 0:
        raise DomainError(f"K must be >= 0, got {K}")
    total = FracSeries(())
    d2 = f2
    for k in range(K + 1):
        if d2.is_zero and k > 0:
            break  # classical derivatives terminated: sum is exact
        coeff = gen_binomial(alpha, k)
        total = total + (frac_derive(f1, alpha - k) * d2).scaled(coeff)
        d2 = classical_derive(d2)
    return total


def ml_reconstruct(f: FracSeries, alpha: float, H: int) -> FracSeries:
    """Rebuild f from its fractional jet at the origin:

        sum_{h=0}^{H}  t^(alpha h) / Gamma(1 + alpha h) * (D^(alpha h) f)(0+)

    where D^(alpha h) is the h-fold reviewed derivative of order alpha. Exact
    (up to rounding) when every exponent of f is alpha*m with m <= H.
    """
    out = []
    jet = f
    for h in range(H + 1):
        c = jet.coefficient_at(0.0)  # (D^(alpha h) f)(0+): positive powers vanish
        if c != 0.0:
            out.append((c / gamma(1.0 + alpha * h), alpha * h))
        jet = frac_derive(jet, alpha)
    return FracSeries(out)


def definite_integral(f: FracSeries, b: float) -> float:
    """Exact integral of f over [0, b]: sum c * b^(e+1)/(e+1)."""
    if b < 0:
        raise DomainError(f"integration endpoint must be >= 0, got {b}")
    total = 0.0
    for c, e in f.pairs:
        if e <= -1.0:
            raise DomainError(f"exponent {e} not integrable at 0")
        total += c * b ** (e + 1.0) / (e + 1.0)
    return total


def ml_series(alpha: float, n_terms: int) -> FracSeries:
    """Truncation of E_alpha(t^alpha) = sum_m t^(alpha m)/Gamma(1+alpha m).

    Useful as an exact eigenfunction fragment: D^alpha applied to the
    truncation reproduces it up to the dropped tail term.
    """
    return FracSeries([(1.0 / gamma(1.0 + alpha * m), alpha * m) for m in range(n_terms)])
