"""Tests for gamma / generalized binomial / Mittag-Leffler."""

import math

import pytest
from hypothesis import given, strategies as st

from fracosc.errors import AccuracyError, DomainError
from fracosc.specfun import gamma, gamma_product, gamma_ratio, gen_binomial, mittag_leffler

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
    assert gamma_ratio(1.5, 200.0) == 0.0
    assert gamma_ratio(200.0, 198.0) == pytest.approx(199.0 * 198.0, rel=1e-12)


@pytest.mark.parametrize("top,bottom", [(3.5, 1.5), (0.5, 4.25), (201.0, 200.5), (1.5, 200.0)])
def test_gamma_ratio_is_the_two_entry_product(top, bottom):
    ledger = tuple(sorted(((top, 1), (bottom, -1))))
    assert gamma_ratio(top, bottom).hex() == gamma_product(1.0, ledger).hex()


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
