"""Reference values that do not import fracosc.

Each job class of the benchmark is checked against one of these:

* exact power-series derivatives: the power rule with ``math.lgamma``;
* GL and L1 output: the exact derivative plus the scheme's error bound at h;
* right-sided GL output: the right Caputo integral by ``mpmath.quad``;
* Mittag-Leffler values and relaxation solves: mpmath, with the series for
  |z| <= 1 and for moderate positive z (30 digits), the integral
  representation of E_alpha(-x) for negative z (20 digits), and the
  exponential asymptotics for large positive z;
* symbolic output: printed expressions are evaluated by Python itself
  (``^`` read as ``**``) and compared with a small independent monomial
  calculus (:class:`Poly`) that applies the fractional power rule.
"""

from __future__ import annotations

import math
import re

import mpmath as mp
import numpy as np

#: relative accuracy a double-precision Mittag-Leffler value must reach
ML_REL_TOL = 1e-8
#: absolute floor below which Mittag-Leffler values are compared absolutely
ML_ABS_TOL = 1e-14
#: largest argument of exp() that is still a finite double
_EXP_MAX = 709.78

_MP_DPS = 30


def gamma_ratio(top: float, bottom: float) -> float:
    """Gamma(top)/Gamma(bottom) from lgamma and the gamma sign; 0 at a
    pole of the denominator."""
    if bottom <= 0 and bottom == math.floor(bottom):
        return 0.0
    sign = _gamma_sign(top) * _gamma_sign(bottom)
    return sign * math.exp(math.lgamma(top) - math.lgamma(bottom))


def _gamma_sign(x: float) -> float:
    if x > 0:
        return 1.0
    return -1.0 if math.floor(x) % 2 else 1.0


# ------------------------------------------------------------ power series --


def series_values(terms, t: np.ndarray) -> np.ndarray:
    """sum c t^e on t >= 0 (0^0 = 1)."""
    out = np.zeros_like(t)
    for c, e in terms:
        out = out + c * (np.ones_like(t) if e == 0 else t**e)
    return out


def exact_derivative(terms, alpha: float, t: np.ndarray) -> np.ndarray:
    """Power rule: D^a t^g = Gamma(1+g)/Gamma(1+g-a) t^(g-a); constants -> 0."""
    out = np.zeros_like(t)
    for c, e in terms:
        if e == 0:
            continue
        new_e = e - alpha
        coeff = c * gamma_ratio(1.0 + e, 1.0 + new_e)
        out = out + coeff * (np.ones_like(t) if abs(new_e) < 1e-12 else t**new_e)
    return out


def scheme_bound(terms, alpha: float, h: float, t: np.ndarray, scheme: str) -> np.ndarray:
    """Error bound of the left GL (order 1) or L1 (order 2-alpha) scheme at
    nodes t >= T/2, for the series ``terms``.

    GL: the leading error term of the shifted GL sum is (alpha/2) h
    D^(alpha+1) f, so the bound is 4 x alpha/2 x h x sum |c Gamma(1+g) /
    Gamma(g-alpha) t^(g-alpha-1)| plus the same with h^2 and one more
    derivative. L1: h^(2-alpha) x sum |c g (g-1)| t^(g-2) x t^(1-alpha),
    times 4, plus the start-up term h^(1+g) t^(-1-alpha) of each term with
    g < 2. A floor of 1e-12 x the derivative's scale covers rounding.
    """
    scale = 1e-12 * (1.0 + np.max(np.abs(exact_derivative(terms, alpha, t))))
    bound = np.full_like(t, scale)
    for c, e in terms:
        if e == 0:
            continue
        if scheme == "gl":
            g1 = abs(c * gamma_ratio(1.0 + e, e - alpha)) * t ** (e - alpha - 1.0)
            g2 = abs(c * gamma_ratio(1.0 + e, e - alpha - 1.0)) * t ** (e - alpha - 2.0)
            bound += 4.0 * (0.5 * alpha * h * g1 + h * h * g2) + 4.0 * abs(c) * h ** (1.0 + e) * t ** (-1.0 - alpha)
        else:
            g2 = abs(c * e * (e - 1.0)) * t ** (e - 1.0 - alpha)
            bound += 4.0 * h ** (2.0 - alpha) * g2 + 4.0 * abs(c) * h ** min(2.0, 1.0 + e) * t ** (-1.0 - alpha)
    return bound


def _weakly_singular(g, alpha: float, length: float) -> float:
    """int_0^length g(u) u^-alpha du, with u = v^(1/(1-alpha)) taking out
    the endpoint singularity so that quadrature converges at 20 digits."""
    with mp.workdps(20):
        p = 1 / (1 - mp.mpf(alpha))
        top = mp.mpf(length) ** (1 - mp.mpf(alpha))
        return float(p * mp.quad(lambda v: g(v**p), [0, top / 2, top]))


def right_caputo(terms, alpha: float, b: float, t: float) -> float:
    """Right Caputo derivative on [t, b]: -1/Gamma(1-a) int_t^b f'(s) (s-t)^-a ds."""
    def fprime(u):
        return sum(c * e * (t + u) ** (e - 1) for c, e in terms if e != 0)

    return -_weakly_singular(fprime, alpha, b - t) / math.gamma(1 - alpha)


def left_caputo(fprime, alpha: float, T: float) -> float:
    """Left Caputo derivative at T of a function given by its derivative:
    1/Gamma(1-a) int_0^T f'(s) (T-s)^-a ds."""
    return _weakly_singular(lambda u: fprime(T - u), alpha, T) / math.gamma(1 - alpha)


# --------------------------------------------------------- Mittag-Leffler --

OVERFLOW = "overflow"


def mittag_leffler(alpha: float, z: float):
    """E_alpha(z) for 0 < alpha < 1 as a float, or OVERFLOW when the true
    value is beyond the double range."""
    if z == 0:
        return 1.0
    with mp.workdps(_MP_DPS):
        a = mp.mpf(alpha)
        zz = mp.mpf(z)
        if abs(z) <= 1:
            return float(_ml_series(a, zz))
        if z < 0:
            return float(_ml_negative(a, -zz))
        s = zz ** (1 / a)
        if s > _EXP_MAX + math.log(alpha):
            return OVERFLOW
        if s > 40:
            tail = sum(zz ** (-j) * mp.rgamma(1 - a * j) for j in range(1, 8))
            return float(mp.exp(s) / a - tail)
        return float(_ml_series(a, zz))


def _ml_negative(a, x):
    """E_a(-x), x > 0, from the integral representation
    E_a(-x) = sin(a pi)/(a pi) int_0^inf exp(-w^(1/a)) x / (w^2 + 2 w x cos(a pi) + x^2) dw,
    which is E_a(-x) = int_0^inf exp(-r x^(1/a)) K_a(r) dr after w = x r^a."""
    with mp.workdps(20):
        c, s = mp.cos(a * mp.pi), mp.sin(a * mp.pi)
        cuts = [mp.mpf(1) / 4, mp.mpf(1) / 2, 1, 2, 4, 8, 16]
        if c < 0:
            cuts.append(-c * x)  # the denominator's minimum
        pts = [0] + sorted(set(cuts)) + [mp.inf]
        integral = mp.quad(lambda w: mp.exp(-w ** (1 / a)) * x / (w * w + 2 * w * x * c + x * x), pts)
        return s / (a * mp.pi) * integral


def _ml_series(a, z):
    total = mp.mpf(0)
    m = 0
    while True:
        term = z**m * mp.rgamma(1 + a * m)
        total += term
        if m > 5 and abs(term) < mp.mpf(10) ** (-_MP_DPS) * max(1, abs(total)):
            return total
        m += 1


def ml_matches(got: float, want: float) -> bool:
    return abs(got - want) <= max(ML_ABS_TOL, ML_REL_TOL * abs(want))


# ---------------------------------------------- printed expression evaluator --

_POW = re.compile(r"\^")


def compile_printed(text: str):
    """Compile fracosc's printed expression syntax as Python: ``^`` binds
    tighter than unary minus in both, and ``*``/``/`` associate left in both."""
    return compile(_POW.sub("**", text), "<expr>", "eval")


def eval_printed(code, env: dict) -> float:
    scope = {"gamma": math.gamma, "ml": lambda a, z: mittag_leffler(a, z)}
    scope.update(env)
    return float(eval(code, {"__builtins__": {}}, scope))


# -------------------------------------------------------- monomial calculus --


class Poly:
    """Finite sum of c * prod v^p with real exponents: {((v, p), ...): c}."""

    def __init__(self, terms=None):
        self.terms: dict = {}
        for key, c in (terms or {}).items():
            self._add(key, c)

    def _add(self, key, c):
        key = tuple(sorted((v, p) for v, p in key if p != 0))
        self.terms[key] = self.terms.get(key, 0.0) + c

    @staticmethod
    def mono(c: float, **powers) -> "Poly":
        return Poly({tuple(powers.items()): c})

    def __add__(self, other: "Poly") -> "Poly":
        out = Poly(self.terms)
        for key, c in other.terms.items():
            out._add(key, c)
        return out

    def scaled(self, s: float) -> "Poly":
        return Poly({k: s * c for k, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out = Poly()
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                powers = dict(k1)
                for v, p in k2:
                    powers[v] = powers.get(v, 0.0) + p
                out._add(tuple(powers.items()), c1 * c2)
        return out

    def frac_partial(self, var: str, alpha: float) -> "Poly":
        """Power rule along var; terms free of var vanish. Exponents in
        (0, alpha) raise ValueError (inadmissible)."""
        out = Poly()
        for key, c in self.terms.items():
            powers = dict(key)
            p = powers.get(var, 0.0)
            if p == 0:
                continue
            if p < alpha - 1e-12:
                raise ValueError(f"inadmissible exponent {p} of {var} at order {alpha}")
            new_p = p - alpha
            if abs(new_p) < 1e-12:
                new_p = 0.0
            powers[var] = new_p
            out._add(tuple(powers.items()), c * gamma_ratio(1.0 + p, 1.0 + new_p))
        return out

    def classical_partial(self, var: str) -> "Poly":
        out = Poly()
        for key, c in self.terms.items():
            powers = dict(key)
            p = powers.get(var, 0.0)
            if p == 0:
                continue
            powers[var] = p - 1.0
            out._add(tuple(powers.items()), c * p)
        return out

    def partial(self, var: str, alpha: float, mode: str) -> "Poly":
        if mode == "fractional":
            return self.frac_partial(var, alpha)
        return self.classical_partial(var)

    def __call__(self, env: dict) -> float:
        total = 0.0
        for key, c in self.terms.items():
            v = c
            for name, p in key:
                v *= env[name] ** p
            total += v
        return total

    def to_text(self) -> str:
        """fracosc expression syntax."""
        pieces = []
        for key, c in sorted(self.terms.items()):
            factors = [repr(float(c))] + [f"{v}^{p!r}" for v, p in key]
            pieces.append("*".join(factors))
        return " + ".join(pieces) if pieces else "0"


def jet_var(i: int, level: int) -> str:
    return f"x{i + 1}" if level == 0 else f"y{i + 1}_{level}"


def el_residual(L: Poly, n: int, k: int, alpha: float, mode: str) -> list[Poly]:
    """E_i = P_{x_i} L + sum_a (-1)^a d_t(P_{y_i,a} L), with the total jet
    derivative d_t = sum_{b=1..k+1} sum_j y_{j,b} P_{y_{j,b-1}} and P the
    fractional or classical partial."""

    def total(f: Poly) -> Poly:
        out = Poly()
        for b in range(1, k + 2):
            for j in range(n):
                out = out + Poly.mono(1.0, **{jet_var(j, b): 1.0}) * f.partial(
                    jet_var(j, b - 1), alpha, mode)
        return out

    res = []
    for i in range(n):
        acc = L.partial(jet_var(i, 0), alpha, mode)
        for a in range(1, k + 1):
            acc = acc + total(L.partial(jet_var(i, a), alpha, mode)).scaled((-1.0) ** a)
        res.append(acc)
    return res


def rung_weight(alpha: float, b: int) -> float:
    """Ladder weight of the jet prolongation: Gamma(1+a) at b=1,
    Gamma(a b)/Gamma(a) after."""
    if b == 1:
        return math.gamma(1.0 + alpha)
    return math.gamma(alpha * b) / math.gamma(alpha)


def observed_order(errors, steps) -> float:
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
