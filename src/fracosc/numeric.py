"""Discretizations: Grunwald-Letnikov and L1 derivative schemes, fractional
integration by parts, and an Adams-Bashforth-Moulton solver for fractional
ODEs of Caputo type.

All schemes act on uniform grids. The *reviewed* derivative convention is
built in: sampled signals are differenced against their value at the expansion
endpoint (left end for the left derivative, right end for the right one), so
constants differentiate to exactly zero at every node.

Scheme facts relied on by tests:

* left GL with the shifted signal converges at order h^1 to the reviewed
  derivative of smooth inputs;
* L1 converges at order h^(2-alpha);
* the predictor-corrector solver (fractional Adams method) for
  D^alpha x = F(t, x) has global error O(h^(1+alpha)) for smooth F.

Costs on N nodes:

* GL and L1 sum their history as one causal convolution of a kernel with the
  increments of the signal, by zero-padded real FFT: O(N log N) (Hairer,
  Lubich and Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985). The result
  differs from the direct O(N^2) sum by rounding only;
* the Adams solver precomputes its weights, which depend only on n - j
  (Diethelm, Ford and Freed, Nonlinear Dyn. 29, 2002), and does two dot
  products per step: still O(N^2), about 3 s for 1e5 steps of the scalar
  equation D^alpha x = -x on one core of a 2-vCPU Xeon under Python 3.11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import gamma

__all__ = [
    "gl_weights",
    "gl_derivative",
    "l1_derivative",
    "int_by_parts_residual",
    "FodeResult",
    "solve_fode",
    "convergence_order",
]


#: the most steps :func:`solve_fode` takes; its history arrays grow with the count
MAX_STEPS = 10**7


def _check_order(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"derivative order must be in (0, 1], got {alpha}")


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """First n+1 Grunwald-Letnikov weights w_j = (-1)^j C(alpha, j).

    Multiplicative recursion w_0 = 1, w_j = w_{j-1} (1 - (alpha+1)/j);
    stable for all real alpha and the form every GL scheme consumes.
    The weights of order alpha-1 are the partial sums of those of order alpha.
    """
    if n < 0:
        raise DomainError(f"need n >= 0 weights past w_0, got {n}")
    w = np.empty(n + 1)
    w[:1] = 1.0
    # cumprod multiplies in the order of the recursion, so it is bitwise equal
    w[1:] = np.cumprod(1.0 - (alpha + 1.0) / np.arange(1, n + 1, dtype=float))
    return w


def _history_sum(kernel: np.ndarray, f: np.ndarray, scale: float) -> np.ndarray:
    """out[0] = 0, out[m] = scale * sum_{j<m} kernel[j] (f[m-j] - f[m-j-1]).

    The causal convolution of the kernel (length len(f) - 1) with the
    increments of f, by real FFT zero-padded to a power of two >= its full
    length, so nothing wraps around. Constant signals give exact zeros.
    numpy.fft is reached as an attribute at call time: importing this module
    does not load it.
    """
    n = len(f) - 1
    out = np.zeros(n + 1)
    if n > 0:
        size = 1 << (2 * n - 2).bit_length()
        spec = np.fft.rfft(kernel, size)
        spec *= np.fft.rfft(np.diff(f), size)
        out[1:] = np.fft.irfft(spec, size)[:n] * scale
    return out


def gl_derivative(values, alpha: float, h: float, side: str = "left") -> np.ndarray:
    """Grunwald-Letnikov derivative of a uniformly sampled signal.

    values: samples f(a), f(a+h), ..., f(b). Returns the derivative at the
    same nodes. side="left" expands from the first sample (and differences
    against it); side="right" is the mirror operator expanding from the last
    sample, computed by reversing the signal.

    out[m] = h^-alpha sum_{j<=m} w_j (f[m-j] - f[0]) is summed by parts as
    h^-alpha sum_{j<m} W_j (f[m-j] - f[m-j-1]), where W_j = sum_{i<=j} w_i
    are the GL weights of order alpha-1. The increments are O(h), so the
    rounding of the FFT sum does not grow like h^-alpha, and out[0] = 0.
    """
    _check_order(alpha)
    if h <= 0:
        raise DomainError(f"step must be positive, got {h}")
    f = np.asarray(values, dtype=float)
    if side == "right":
        return gl_derivative(f[::-1], alpha, h, side="left")[::-1]
    if side != "left":
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    if len(f) < 2:
        return np.zeros(len(f))  # nothing to difference against: out[0] = 0
    return _history_sum(gl_weights(alpha - 1.0, len(f) - 2), f, h**-alpha)


def l1_derivative(values, alpha: float, h: float) -> np.ndarray:
    """L1 scheme (piecewise-linear kernel quadrature), order h^(2-alpha).

    out[n] = h^-alpha/Gamma(2-alpha) * sum_{j=0}^{n-1} a_j (f[n-j] - f[n-j-1]),
    a_j = (j+1)^(1-alpha) - j^(1-alpha);  out[0] = 0.
    """
    _check_order(alpha)
    if h <= 0:
        raise DomainError(f"step must be positive, got {h}")
    f = np.asarray(values, dtype=float)
    j = np.arange(len(f) - 1, dtype=float)
    a = (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
    a[:1] = 1.0  # a_0 = 1 - 0^(1-alpha) = 1, also at alpha = 1 where numpy takes 0^0 = 1
    return _history_sum(a, f, h**-alpha / gamma(2.0 - alpha))


def _trapezoid(y: np.ndarray, dx: float) -> float:
    trap = getattr(np, "trapezoid", None) or np.trapz
    return float(trap(y, dx=dx))


def int_by_parts_residual(f1, f2, alpha: float, b: float, n: int) -> float:
    """Defect of fractional integration by parts on [0, b] at resolution n:

        | int_0^b f1 * (D^alpha_left f2) dt  -  int_0^b f2 * (D^alpha_right f1) dt |

    where the *left* integral is evaluated in closed form (f1, f2 are
    fractional power series, so f1 * D^alpha f2 integrates exactly term by
    term) and the *right* integral is discretized: GL mirror derivative of the
    sampled f1 and trapezoid quadrature on an (n+1)-point grid. The residual
    is therefore pure discretization error of the right side and shrinks at
    the GL rate O(1/n) as the grid is refined.

    Admissibility (checked): f2 must vanish at 0 (no constant term) and f1
    must vanish at b — these kill the boundary terms of the continuous
    identity for the reviewed operators. Note an all-discrete residual would
    be useless here: GL satisfies a summation-by-parts identity *exactly*, so
    discretizing both sides yields machine zero at every resolution.

    f1, f2: FracSeries instances.
    """
    if b <= 0 or n < 1:
        raise DomainError(f"need b > 0 and n >= 1, got b={b}, n={n}")
    if f2.coefficient_at(0.0) != 0.0:
        raise DomainError("f2 must vanish at 0 (no constant term)")
    if abs(f1(b)) > 1e-10 * max(1.0, max((abs(c) for c, _ in f1.pairs), default=0.0)):
        raise DomainError(f"f1 must vanish at the right endpoint b={b}")
    from .series import definite_integral, frac_derive

    left_exact = definite_integral(f1 * frac_derive(f2, alpha), b)
    t = np.linspace(0.0, b, n + 1)
    h = b / n
    right_disc = _trapezoid(
        f2.evaluate(t) * gl_derivative(f1.evaluate(t), alpha, h, side="right"), h
    )
    return abs(left_exact - right_disc)


@dataclass(frozen=True)
class FodeResult:
    """Trajectory of a fractional initial value problem on a uniform grid."""

    t: np.ndarray
    x: np.ndarray  # shape (len(t), dim)
    alpha: float


def solve_fode(rhs, x0, alpha: float, t_end: float, h: float) -> FodeResult:
    """Predictor-corrector (fractional Adams) solver for
    D^alpha x = F(t, x), x(0) = x0, 0 < alpha <= 1, on [0, t_end].

    rhs: callable (t, x) -> array_like of the same dimension as x0.
    The Caputo/reviewed derivative is the one matched by the scheme: the
    solution of D^alpha x = x, x(0) = 1 is the Mittag-Leffler eigenfunction.
    """
    _check_order(alpha)
    if not (math.isfinite(h) and math.isfinite(t_end)):
        raise DomainError(f"need finite h and t_end, got h={h}, t_end={t_end}")
    if h <= 0 or t_end <= 0:
        raise DomainError(f"need h > 0 and t_end > 0, got h={h}, t_end={t_end}")
    steps = t_end / h  # inf when it overflows
    if steps > MAX_STEPS:  # checked before any history array is allocated
        raise DomainError(f"solve_fode takes at most {MAX_STEPS} steps, got t_end/h = {steps:g}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dim = x0.shape[0]
    n_steps = int(round(steps))
    if n_steps < 1:
        raise DomainError(f"t_end={t_end} shorter than one step h={h}")
    t = np.arange(n_steps + 1) * h
    x = np.zeros((n_steps + 1, dim))
    fhist = np.zeros((n_steps + 1, dim))
    x[0] = x0
    fhist[0] = np.asarray(rhs(t[0], x0), dtype=float)
    c_pred = h**alpha / gamma(alpha + 1.0)
    c_corr = h**alpha / gamma(alpha + 2.0)
    # Weights depend only on m = n - j. Stored reversed, step n reads the
    # tail slice that lines up with fhist[0 : n+1]; copied so that the slice
    # is contiguous and the @ products run in BLAS.
    m = np.arange(n_steps + 1, dtype=float)
    pa = m**alpha
    pa1 = m ** (alpha + 1.0)
    b_rev = (pa[1:] - pa[:-1])[::-1].copy()  # predictor: (m+1)^a - m^a
    a_rev = (pa1[2:] + pa1[:-2] - 2.0 * pa1[1:-1])[::-1].copy()  # corrector, j >= 1
    for n in range(n_steps):
        pred = x0 + c_pred * (b_rev[n_steps - 1 - n :] @ fhist[: n + 1])
        a0 = n ** (alpha + 1.0) - (n - alpha) * (n + 1.0) ** alpha
        acc = a0 * fhist[0] + a_rev[n_steps - 1 - n :] @ fhist[1 : n + 1]
        f_pred = np.asarray(rhs(t[n + 1], pred), dtype=float)
        x[n + 1] = x0 + c_corr * (acc + f_pred)
        fhist[n + 1] = np.asarray(rhs(t[n + 1], x[n + 1]), dtype=float)
    return FodeResult(t=t, x=x, alpha=alpha)


def convergence_order(errors, steps) -> float:
    """Least-squares slope of log(error) against log(step)."""
    e = np.asarray(errors, dtype=float)
    s = np.asarray(steps, dtype=float)
    if np.any(e <= 0) or np.any(s <= 0):
        raise DomainError("convergence_order needs positive errors and steps")
    return float(np.polyfit(np.log(s), np.log(e), 1)[0])
