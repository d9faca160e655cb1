"""Tests for gamma / generalized binomial / Mittag-Leffler."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracosc import specfun
from fracosc.errors import AccuracyError, DomainError
from fracosc.specfun import gamma, gamma_product, gen_binomial, mittag_leffler

from _reference_builders import mittag_leffler_series

# Reference values computed with mpmath at 30 significant digits
# (mp.gamma / direct 300-term series summation), frozen here.
ML_REFERENCE = [
    # (alpha, z, E_alpha(z))
    (0.5, 1.0, 5.0089800807622834663),
    (0.5, 2.0, 108.94090438997797241),
    (0.3, 0.7, 3.1748201253654240399),
    (0.9, -1.0, 0.37606602142464187902),
    (1.0, 1.5, 4.4816890703380648226),
]


def test_gamma_known_values():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma(1.0) == 1.0
    assert gamma(5.0) == 24.0


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
def test_gamma_poles_raise(x):
    with pytest.raises(DomainError):
        gamma(x)


@given(st.floats(min_value=0.05, max_value=50.0))
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_gamma_ratio_large_arguments_underflow_cleanly():
    # Gamma(1.5)/Gamma(200) is ~1e-371: representable only as 0.0, not an error
    assert gamma_product(1.0, ((1.5, 1), (200.0, -1))) == 0.0
    assert gamma_product(1.0, ((198.0, -1), (200.0, 1))) == pytest.approx(199.0 * 198.0, rel=1e-12)


def test_gamma_product_folds_numerators_then_denominators():
    ledger = ((0.5, -1), (1.5, 2), (3.25, -2))
    g = math.gamma
    assert gamma_product(1.5, ledger) == 1.5 * g(1.5) * g(1.5) / g(0.5) / g(3.25) / g(3.25)
    assert gamma_product(1.5, ()) == 1.5


def test_gamma_product_log_space_overflow_is_a_domain_error():
    with pytest.raises(DomainError):
        gamma_product(1.0, ((1.5, -1), (400.0, 1)))
    with pytest.raises(DomainError):  # a pole keeps the direct path
        gamma_product(1.0, ((-1.0, 1), (400.0, 1)))


def test_gen_binomial_small_cases():
    assert gen_binomial(0.5, 0) == 1.0
    assert gen_binomial(0.5, 1) == 0.5
    assert gen_binomial(0.5, 2) == -0.125
    assert gen_binomial(3.0, 2) == 3.0
    assert gen_binomial(3.0, 4) == 0.0  # integer alpha: vanishes past alpha


def test_gen_binomial_rejects_negative_k():
    with pytest.raises(DomainError):
        gen_binomial(0.5, -1)


@given(
    st.floats(min_value=-4.0, max_value=4.0),
    st.integers(min_value=1, max_value=40),
)
def test_gen_binomial_pascal_identity(alpha, k):
    lhs = gen_binomial(alpha, k)
    rhs = gen_binomial(alpha - 1.0, k) + gen_binomial(alpha - 1.0, k - 1)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


@given(st.integers(min_value=1, max_value=60))
def test_gen_binomial_alternates_for_fractional_order(k):
    # For 0 < alpha < 1 the signs alternate starting from C(alpha,1) > 0
    b = gen_binomial(0.5, k)
    assert math.copysign(1.0, b) == (-1.0) ** (k + 1)


@pytest.mark.parametrize("alpha,z,expected", ML_REFERENCE)
def test_mittag_leffler_reference_values(alpha, z, expected):
    assert mittag_leffler(alpha, z) == pytest.approx(expected, rel=1e-12)


@given(st.floats(min_value=-2.0, max_value=3.0))
def test_mittag_leffler_alpha_one_is_exp(z):
    assert mittag_leffler(1.0, z) == pytest.approx(math.exp(z), rel=1e-12)


def test_mittag_leffler_alpha_two_is_cosh_sqrt():
    # E_2(x^2) = cosh(x)
    assert mittag_leffler(2.0, 4.0) == pytest.approx(math.cosh(2.0), rel=1e-12)


def test_mittag_leffler_unconverged_raises():
    # near alpha = 0 the terms z^m / Gamma(1 + alpha m) decay too slowly for
    # the 600-term cap
    with pytest.raises(AccuracyError):
        mittag_leffler(0.001, 0.999)


def test_mittag_leffler_bad_alpha():
    with pytest.raises(DomainError):
        mittag_leffler(0.0, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(-0.5, 1.0)


def test_gamma_product_direct_overflow_is_a_domain_error():
    # every argument at most 170 keeps the direct fold, whose product overflows
    with pytest.raises(DomainError):
        gamma_product(1.0, ((170.0, 2),))
    with pytest.raises(DomainError):
        gamma_product(1e200 * 1e200, ())


# ------------------------------------------------- Mittag-Leffler by region --


def ml_oracle(alpha: float, z: float) -> float:
    """E_alpha(z) to at least 30 digits with mpmath, rounded to a float, or
    ``math.inf`` when |E_alpha(z)| is beyond the double range.

    Closed forms where they exist (alpha = 1/2, 1, 2); elsewhere the series
    with guard digits for its cancellation while z^(1/alpha) <= 80, the
    asymptotic expansion on the positive axis beyond, and on the negative
    axis (0 < alpha < 1) the integral representation
    E_a(-x) = sin(a pi)/(a pi) int_0^inf exp(-w^(1/a)) x / (w^2 + 2 w x cos(a pi) + x^2) dw.
    """
    with mp.workdps(30):
        a, x = mp.mpf(alpha), mp.mpf(z)
        s = abs(x) ** (1 / a)
        if alpha == 0.5:
            val = mp.exp(x * x) * mp.erfc(-x)
        elif alpha == 1:
            val = mp.exp(x)
        elif alpha == 2:
            val = mp.cosh(mp.sqrt(x)) if z >= 0 else mp.cos(mp.sqrt(-x))
        elif s <= 80:
            with mp.workdps(40 + int(s / 2)):
                val, m, term = mp.mpf(0), 0, mp.mpf(1)
                while a * m <= s + 1 or abs(term) > mp.mpf(10) ** -(40 + int(s / 2)):
                    term = x**m * mp.rgamma(1 + a * m)
                    val += term
                    m += 1
        elif z > 0:
            val = mp.exp(s) / a - sum(x ** -j * mp.rgamma(1 - a * j) for j in range(1, 12))
        else:
            c, sn, y = mp.cos(a * mp.pi), mp.sin(a * mp.pi), -x
            cuts = [0, 0.25, 0.5, 1, 2, 4] + ([-c * y] if c < 0 else [])
            val = sn / (a * mp.pi) * mp.quad(
                lambda w: mp.exp(-(w ** (1 / a))) * y / (w * w + 2 * w * y * c + y * y),
                sorted(set(mp.mpf(p) for p in cuts)) + [mp.inf])
        return float(val) if abs(val) < mp.mpf("1.7976931348623157e308") else math.inf


def ml_close(got: float, want: float) -> bool:
    """1e-12 relative, with a 1e-14 absolute floor for values near zero."""
    return abs(got - want) <= max(1e-14, 1e-12 * abs(want))


# the defects of the plain series: a value lost to cancellation (E_0.3(-3) was
# -31.4, E_0.8(-20) was -1448), a silent 4e-5 relative error, a 'gamma
# overflow' where the value is about 0.05, and inf for a value beyond range
ML_PROBES = [(0.3, -3.0), (0.5, -5.0), (0.5, -10.0), (0.8, -20.0), (0.5, 30.0)]


@pytest.mark.parametrize("alpha,z", ML_PROBES)
def test_mittag_leffler_probes_match_mpmath(alpha, z):
    want = ml_oracle(alpha, z)
    if want == math.inf:
        with pytest.raises(DomainError):
            mittag_leffler(alpha, z)
    else:
        assert ml_close(mittag_leffler(alpha, z), want)


@pytest.mark.parametrize("alpha,z", [
    (0.5, -40.0), (0.5, -7.5), (0.5, -2.5), (0.5, 0.75), (0.5, 4.0), (0.5, 25.0),
    (1.0, -300.0), (1.0, -30.0), (1.0, 150.0),
    (2.0, -3.0), (2.0, 900.0), (2.0, 1.0e4),
])
def test_mittag_leffler_closed_forms(alpha, z):
    # E_1/2(z) = exp(z^2) erfc(-z), E_1 = exp, E_2(z) = cosh(sqrt(z))
    assert ml_close(mittag_leffler(alpha, z), ml_oracle(alpha, z))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=1.0), st.floats(min_value=-60.0, max_value=0.0),
       st.floats(min_value=0.0, max_value=20.0))
def test_mittag_leffler_negative_axis_is_completely_monotone(alpha, z, dz):
    # Pollard (1948): for 0 < alpha <= 1, E_alpha(-x) is completely monotone,
    # so it lies in (0, 1] and does not increase as z decreases
    try:
        hi, lo = mittag_leffler(alpha, z), mittag_leffler(alpha, z - dz)
    except AccuracyError:
        return
    assert 0.0 < lo <= hi + 1e-14
    assert hi <= 1.0


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.1, max_value=1.0), st.floats(min_value=-50.0, max_value=50.0))
def test_mittag_leffler_matches_mpmath_or_raises(alpha, z):
    want = ml_oracle(alpha, z)
    try:
        got = mittag_leffler(alpha, z)
    except DomainError:
        assert want > 1e307
        return
    except AccuracyError:
        return
    assert math.isfinite(got)
    assert ml_close(got, want)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.05, max_value=3.0), st.floats(min_value=-30.0, max_value=30.0))
def test_mittag_leffler_series_is_bitwise_the_reference_loop(alpha, z):
    try:
        want = mittag_leffler_series(alpha, z)
    except (AccuracyError, DomainError) as exc:
        with pytest.raises(type(exc)):
            specfun._ml_series(alpha, z)
        return
    if not math.isfinite(want):
        with pytest.raises(AccuracyError):
            specfun._ml_series(alpha, z)
        return
    assert specfun._ml_series(alpha, z).hex() == want.hex()
    # the public function takes the series on the positive axis up to
    # z^(1/alpha) = ML_RESIDUE_S or for alpha > 2, and everywhere below
    # |z|^(1/alpha) = 2
    if (z >= 0 and (z ** (1 / alpha) <= specfun.ML_RESIDUE_S or alpha > 2)
            or abs(z) ** (1 / alpha) <= 2):
        assert mittag_leffler(alpha, z).hex() == want.hex()


def test_mittag_leffler_alpha_above_one_refuses_the_cancelling_series():
    with pytest.raises(AccuracyError, match="alpha > 1"):
        mittag_leffler(1.5, -10.0)


# on the positive axis the series runs out of its 600 terms before s = 40 when
# alpha is below about 0.155; the contour plus the residue of the pole covers it
@pytest.mark.parametrize("alpha,z", [(0.1, 1.4)] + [
    (alpha, s**alpha) for alpha, s in ((0.1, 20.0), (0.1, 39.0), (0.12, 30.0), (0.15, 38.0))])
def test_mittag_leffler_small_alpha_positive_axis_matches_mpmath(alpha, z):
    assert ml_close(mittag_leffler(alpha, z), ml_oracle(alpha, z))


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.1, max_value=2.0),
       st.floats(min_value=specfun.ML_RESIDUE_S, max_value=40.0, exclude_min=True))
def test_mittag_leffler_residue_region_agrees_with_the_series(alpha, s):
    # where the series converges, contour + residue stays within 5e-14 of it
    z = s**alpha
    try:
        want = specfun._ml_series(alpha, z)
    except AccuracyError:
        return
    assert abs(mittag_leffler(alpha, z) - want) <= 5e-14 * abs(want)


# an array z: the series block and the point-by-point regions, bit for bit
@pytest.mark.parametrize("alpha,z", [
    (0.6, np.linspace(-1.5, 5.0, 301)),  # series
    (0.6, np.linspace(-40.0, -1.6, 101)),  # contour
    (1.0, np.linspace(-30.0, -2.5, 101)),  # exp(z)
    (0.8, np.linspace(16.5, 40.0, 101) ** 0.8),  # contour + residue
    (0.7, np.linspace(-20.0, 20.0, 401)),  # all three alpha < 1 regions in one call
    (1.7, np.array([])),
], ids=["series", "contour", "exp", "residue", "mixed", "empty"])
def test_mittag_leffler_on_an_array_is_the_scalar_function_bit_for_bit(alpha, z):
    got = mittag_leffler(alpha, z)
    assert [v.hex() for v in got.tolist()] == [mittag_leffler(alpha, x).hex() for x in z.tolist()]


def test_mittag_leffler_on_an_array_raises_the_error_of_its_first_failing_point():
    # 5^0.05 lies in the small-alpha gap of the positive axis; 10^0.05 too
    with pytest.raises(AccuracyError) as want:
        mittag_leffler(0.05, 5**0.05)
    with pytest.raises(AccuracyError) as got:
        mittag_leffler(0.05, np.array([0.5, 5**0.05, 10**0.05]))
    assert str(got.value) == str(want.value)
