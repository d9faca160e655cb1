"""Scalar special functions: gamma, generalized binomials, Mittag-Leffler.

The gamma function itself is delegated to :func:`math.gamma` (platform libm,
~1 ulp); this module adds the domain policy the rest of the package relies on
(poles raise :class:`~fracosc.errors.DomainError` instead of ``ValueError``)
plus the two series-based functions the calculus layer needs.

Conventions
-----------
* ``gen_binomial(alpha, k)`` is the generalized binomial coefficient
  ``C(alpha, k) = alpha (alpha-1) ... (alpha-k+1) / k!`` computed by the
  stable multiplicative recursion, valid for any real ``alpha``.
* ``mittag_leffler(alpha, z)`` is the one-parameter function
  ``E_alpha(z) = sum_m z^m / Gamma(1 + alpha m)`` summed directly with a
  tail-based stopping rule; it refuses to silently return garbage when the
  requested tolerance was not reached (raises AccuracyError).
"""

from __future__ import annotations

import math

from .errors import AccuracyError, DomainError

__all__ = ["gamma", "gamma_product", "gamma_ratio", "gen_binomial", "mittag_leffler"]


def gamma(x: float) -> float:
    """Gamma function with poles mapped to DomainError.

    ``math.gamma`` raises ``ValueError`` both at the poles (x = 0, -1, -2, ...)
    and nowhere else on the reals, so translating that exception is enough.
    """
    try:
        return math.gamma(x)
    except ValueError:
        raise DomainError(f"gamma pole at x={x!r}") from None
    except OverflowError:
        raise DomainError(f"gamma overflow at x={x!r}") from None


def gamma_product(factor: float, ledger: tuple[tuple[float, int], ...]) -> float:
    """factor * prod Gamma(a)**p over (argument, integer power) pairs sorted by
    argument, with the pole policy of :func:`gamma`: numerators first, then
    denominators, each in ascending argument order. If the largest argument is
    above 170 and the smallest positive, the product is formed in log space, so
    a huge denominator underflows to 0.0 instead of tripping the overflow of
    Gamma alone (beyond ~171); an overflowing logarithm raises DomainError."""
    if ledger and ledger[-1][0] > 170.0 and ledger[0][0] > 0.0:
        log = 0.0
        for a, p in ledger:
            log += p * math.lgamma(a)
        try:
            return factor * math.exp(log)
        except OverflowError:
            raise DomainError(f"gamma product overflow: {factor!r} * {ledger!r}") from None
    v = factor
    for a, p in ledger:
        for _ in range(p):
            v *= gamma(a)
    for a, p in ledger:
        for _ in range(-p):
            v /= gamma(a)
    return v


def gamma_ratio(top: float, bottom: float) -> float:
    """Gamma(top)/Gamma(bottom): the two-entry case of :func:`gamma_product`."""
    ledger = ((top, 1), (bottom, -1)) if top <= bottom else ((bottom, -1), (top, 1))
    return gamma_product(1.0, ledger)


def gen_binomial(alpha: float, k: int) -> float:
    """Generalized binomial coefficient C(alpha, k) for integer k >= 0.

    Uses the recursion C(alpha, 0) = 1, C(alpha, j) = C(alpha, j-1) *
    (alpha - j + 1)/j, which is well defined for every real alpha (no gamma
    poles to dodge) and numerically stable: each factor is O(1) for j > alpha.
    """
    if k < 0:
        raise DomainError(f"binomial order must be >= 0, got {k}")
    out = 1.0
    for j in range(1, k + 1):
        out *= (alpha - j + 1) / j
    return out


#: hard cap on summed Mittag-Leffler terms before giving up
ML_MAX_TERMS = 600
#: relative tail tolerance: summation stops once the current term is below
#: ``ML_TOL * max(1, |partial sum|)`` *and* terms have entered their
#: decreasing regime
ML_TOL = 1e-15


def mittag_leffler(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_alpha(z) by direct summation.

    Entire in z for alpha > 0; the series is summed until the term magnitude
    falls below the relative tolerance after the terms have started to
    decrease (for |z| > 1 the early terms grow before factorial decay wins).
    Raises AccuracyError if ``ML_MAX_TERMS`` terms were not enough --
    callers must never receive a silently unconverged value.
    """
    if alpha <= 0:
        raise DomainError(f"mittag_leffler requires alpha > 0, got {alpha}")
    total = 0.0
    prev = math.inf
    zm = 1.0  # z^m
    for m in range(ML_MAX_TERMS):
        term = zm / gamma(1.0 + alpha * m)
        total += term
        if abs(term) <= ML_TOL * max(1.0, abs(total)) and abs(term) <= prev:
            return total
        prev = abs(term)
        zm *= z
    raise AccuracyError(
        f"mittag_leffler(alpha={alpha}, z={z}) did not converge within "
        f"{ML_MAX_TERMS} terms (last |term|={abs(term):.3e})"
    )
