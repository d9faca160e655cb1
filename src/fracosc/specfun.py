"""Scalar special functions: gamma, generalized binomials, Mittag-Leffler.

The gamma function itself is delegated to :func:`math.gamma` (platform libm,
~1 ulp); this module adds the domain policy the rest of the package relies on
(poles raise :class:`~fracosc.errors.DomainError` instead of ``ValueError``)
plus the generalized binomial and the Mittag-Leffler function the calculus
layer needs.

Conventions
-----------
* ``gen_binomial(alpha, k)`` is the generalized binomial coefficient
  ``C(alpha, k) = alpha (alpha-1) ... (alpha-k+1) / k!`` computed by the
  stable multiplicative recursion, valid for any real ``alpha``.
* ``mittag_leffler(alpha, z)`` is the one-parameter function
  ``E_alpha(z) = sum_m z^m / Gamma(1 + alpha m)`` for real z and alpha > 0.
  It chooses a method by region, with s = |z|^(1/alpha), and returns a value
  within the accuracy below or raises; never a wrong finite value or inf.

  - Series, for z >= 0 with s <= 16, z < 0 with s <= 2, and z > 0 when
    alpha > 2: the terms divide by a cached table of Gamma(1 + alpha m) and
    stop at a 1e-15 relative tail. About 1e-14 relative for z >= 0; below
    3e-15 absolute for z < 0, where the cancellation costs at most e^2.
    AccuracyError after 600 terms or when the sum overflows; DomainError when
    Gamma(1 + alpha m) overflows first.
  - Contour, for z < 0 with s > 2 and alpha < 1: the trapezoidal rule on 17
    nodes of a parabolic Bromwich contour (Weideman & Trefethen, Math. Comp.
    76, 2007; Garrappa, SIAM J. Numer. Anal. 53, 2015). The error stays near
    2e-16 of the summed |terms|, so below 5e-15 absolute. AccuracyError when
    the value is too small for its sign to be resolved, which needs alpha
    within about 1e-12 of 1.
  - exp(z), for z < 0 with s > 2 and alpha = 1.
  - Contour + residue exp(s)/alpha, for z > 0 with s > 16 and alpha <= 2: the
    same trapezoidal sum plus the residue of the one pole s = z^(1/alpha),
    which lies outside the parabola. Below 2e-14 relative, plus up to
    s ln(s) 1e-16 from rounding s = z^(1/alpha). DomainError when the value
    is beyond the double range.
  - Gap: for alpha below about 0.1 the positive axis has s in about [5, 16]
    where the series needs more than 600 terms and the pole is too close to
    the contour; there it raises AccuracyError.
  - None, for z < 0 with s > 2 and alpha > 1: the series would lose its
    digits to cancellation, so AccuracyError.

  z may also be a 1-D ndarray (alpha stays a float): the series-region points
  are summed as one masked block, each stopping by the scalar rule, and the
  other regions go point by point, so every value is bitwise the scalar
  value. If any point fails, the points are replayed in order through the
  scalar function, which raises the error of the first failing point.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = ["gamma", "gamma_product", "gen_binomial", "mittag_leffler"]


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
    Gamma alone (beyond ~171). A product that is not finite raises DomainError."""
    if ledger and ledger[-1][0] > 170.0 and ledger[0][0] > 0.0:
        log = 0.0
        for a, p in ledger:
            log += p * math.lgamma(a)
        try:
            v = factor * math.exp(log)
        except OverflowError:
            v = math.inf
    else:
        v = factor
        for a, p in ledger:
            for _ in range(p):
                v *= gamma(a)
        for a, p in ledger:
            for _ in range(-p):
                v /= gamma(a)
    if not math.isfinite(v):
        raise DomainError(f"gamma product overflow: {factor!r} * {ledger!r}")
    return v


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
#: on the negative axis the series serves |z|^(1/alpha) <= ML_SERIES_S; its
#: cancellation there costs at most a factor e^2 on the rounding error
ML_SERIES_S = 2.0
#: on the positive axis (alpha <= 2) the contour plus the residue of the pole
#: s = z^(1/alpha) serves s > ML_RESIDUE_S, where that pole is far enough
#: outside the parabola for 2e-14 relative
ML_RESIDUE_S = 16.0
#: trapezoid nodes k = 0..N on the parabolic contour (Weideman & Trefethen 2007)
ML_CONTOUR_NODES = 17
#: a contour value below this fraction of its summed |terms| has no resolved
#: sign (against mpmath the error stays near 2e-16 of that sum)
ML_CONTOUR_FLOOR = 1e-14


def mittag_leffler(alpha: float, z: float | np.ndarray) -> float | np.ndarray:
    """One-parameter Mittag-Leffler function E_alpha(z), by region (see the
    module docstring): a value within tolerance, or AccuracyError /
    DomainError -- never a silently wrong or infinite value. An ndarray z
    gives an ndarray of the scalar values."""
    if alpha <= 0:
        raise DomainError(f"mittag_leffler requires alpha > 0, got {alpha}")
    if isinstance(z, np.ndarray):
        return _ml_array(alpha, z)
    s = _ml_s(alpha, z)
    if z < 0 and s > ML_SERIES_S:
        if alpha == 1.0:
            return math.exp(z)
        if alpha < 1.0:
            return _ml_contour(alpha, z)
        raise AccuracyError(
            f"mittag_leffler(alpha={alpha}, z={z}): alpha > 1 with |z|^(1/alpha) > "
            f"{ML_SERIES_S}, where the series loses its digits to cancellation")
    if z > 0 and s > ML_RESIDUE_S and alpha <= 2.0:
        try:
            residue = math.exp(s) / alpha
        except OverflowError:
            residue = math.inf
        if not math.isfinite(residue):
            raise DomainError(f"mittag_leffler(alpha={alpha}, z={z}) overflows: exp({s!r})/alpha")
        return _ml_contour(alpha, z) + residue
    return _ml_series(alpha, z)


def _ml_s(alpha: float, z: float) -> float:
    """s = |z|^(1/alpha), the radius that picks the region."""
    try:
        return abs(z) ** (1.0 / alpha)
    except OverflowError:
        return math.inf


def _ml_array(alpha: float, z: np.ndarray) -> np.ndarray:
    """:func:`mittag_leffler` at every point of a 1-D array z."""
    zs = z.tolist()
    try:
        s = np.array([_ml_s(alpha, x) for x in zs])
        other = (z < 0) & (s > ML_SERIES_S) | (z > 0) & (s > ML_RESIDUE_S) & (alpha <= 2.0)
        out = np.empty(len(zs))
        out[~other] = _ml_series_block(alpha, z[~other])
        for i in np.flatnonzero(other).tolist():
            out[i] = mittag_leffler(alpha, zs[i])
    except (AccuracyError, DomainError):
        return np.array([mittag_leffler(alpha, x) for x in zs])  # raises the first failure
    return out


@functools.lru_cache(maxsize=16)
def _gamma_table(alpha: float) -> tuple[float, ...]:
    """Gamma(1 + alpha m) for m = 0, 1, ... up to ML_MAX_TERMS or the first overflow."""
    out = []
    for m in range(ML_MAX_TERMS):
        try:
            out.append(math.gamma(1.0 + alpha * m))
        except OverflowError:
            break
    return tuple(out)


def _ml_series(alpha: float, z: float) -> float:
    """E_alpha(z) = sum_m z^m / Gamma(1 + alpha m), summed until the term
    magnitude falls below the relative tolerance after the terms have started
    to decrease (for |z| > 1 the early terms grow before factorial decay wins).
    Raises AccuracyError if ``ML_MAX_TERMS`` terms were not enough or the sum
    overflowed, DomainError if Gamma(1 + alpha m) overflows first."""
    table = _gamma_table(alpha)
    tol = ML_TOL
    total = 0.0
    prev = math.inf
    zm = 1.0  # z^m
    for g in table:
        term = zm / g
        total += term
        size = abs(term)
        if size <= prev:
            big = abs(total)
            if size <= tol * (big if big > 1.0 else 1.0):  # tol * max(1, |total|)
                if not math.isfinite(total):
                    raise AccuracyError(
                        f"mittag_leffler(alpha={alpha}, z={z}): the series overflowed")
                return total
        prev = size
        zm *= z
    if len(table) < ML_MAX_TERMS:
        raise DomainError(f"gamma overflow at x={1.0 + alpha * len(table)!r}")
    raise AccuracyError(
        f"mittag_leffler(alpha={alpha}, z={z}) did not converge within "
        f"{ML_MAX_TERMS} terms (last |term|={abs(term):.3e})"
    )


def _ml_series_block(alpha: float, z: np.ndarray) -> np.ndarray:
    """:func:`_ml_series` at every point of z: the same operations per point,
    each point leaving the block at the term where the scalar loop returns.
    Raises AccuracyError if some point fails, with no point named."""
    table = _gamma_table(alpha)
    out = np.empty(len(z))
    live = np.arange(len(z))
    total = np.zeros(len(z))
    prev = np.full(len(z), math.inf)
    zm = np.ones(len(z))
    with np.errstate(all="ignore"):  # overflow and inf - inf, as in Python floats
        for g in table:
            if not len(live):
                break
            term = zm / g
            total += term
            size = np.abs(term)
            big = np.abs(total)
            done = (size <= prev) & (size <= ML_TOL * np.where(big > 1.0, big, 1.0))
            if done.any():
                if not np.isfinite(total[done]).all():
                    raise AccuracyError("the series overflowed")
                out[live[done]] = total[done]
                keep = ~done
                live, total, size, zm, z = live[keep], total[keep], size[keep], zm[keep], z[keep]
            prev = size
            zm *= z
    if len(live):
        raise AccuracyError("the series did not converge")
    return out


@functools.lru_cache(maxsize=16)
def _contour_table(alpha: float) -> tuple[tuple[complex, complex], ...]:
    """(w_k p_k, p_k) with p_k = s_k^alpha at the nodes s_k = mu (1 + i u_k)^2,
    u_k = k h, h = 3/N, mu = pi N / 12 (N = ML_CONTOUR_NODES). Since
    s'(u)/s = 2i/(1 + iu), the rule h/(2 pi i) sum_k e^s F(s) s'(u) with
    F = s^(alpha-1)/(s^alpha - z) weighs p/(p - z) by w_k = 2 h e^s / (pi (1 + iu)),
    once the conjugate half k < 0 is folded into a real part (half weight at k = 0)."""
    n = ML_CONTOUR_NODES
    h, mu = 3.0 / n, math.pi * n / 12.0
    out = []
    for k in range(n + 1):
        root = 1.0 + 1j * k * h
        node = mu * root * root
        w = 2.0 * h * cmath.exp(node) / (math.pi * root)
        p = node**alpha
        out.append(((w / 2 if k == 0 else w) * p, p))
    return tuple(out)


def _ml_contour(alpha: float, z: float) -> float:
    """The trapezoidal rule on a parabola for the inverse Laplace transform of
    s^(alpha-1)/(s^alpha - z) at t = 1 (Garrappa 2015). For z < 0 and
    alpha < 1 no pole lies on the principal sheet, so only the branch cut on
    the negative axis is enclosed and the sum is E_alpha(z). For z > 0 and
    alpha <= 2 the one pole s = z^(1/alpha) lies outside the parabola once
    s > mu, and the caller adds its residue."""
    total = 0j
    size = 0.0
    for q, p in _contour_table(alpha):
        term = q / (p - z)
        total += term
        size += abs(term)
    value = total.real
    if z < 0 and value <= ML_CONTOUR_FLOOR * size:
        raise AccuracyError(
            f"mittag_leffler(alpha={alpha}, z={z}): the contour value {value!r} "
            f"is below its resolution {ML_CONTOUR_FLOOR * size:.1e}")
    return value
