"""Tests for the fractional-power-series calculus layer."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fracosc.errors import DomainError, EvalError
from fracosc.expr import Add, Mul, Num, Pow, Var, frac_partial_terms, normalize_terms, reviewed_exponent
from fracosc.series import (
    FracSeries,
    classical_derive,
    frac_derive,
    frac_derive_iterated,
    leibniz_series,
    ml_reconstruct,
    ml_series,
    semigroup_residual,
    series_distance,
)

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------- power rule

def test_power_rule_half_derivative_of_t():
    # D^0.5 t = Gamma(2)/Gamma(1.5) t^0.5 = (2/sqrt(pi)) t^0.5
    out = frac_derive(FracSeries.monomial(1.0, 1.0), 0.5)
    assert out.pairs == ((pytest.approx(2.0 / SQRT_PI, rel=1e-15), 0.5),)


def test_power_rule_exponent_equal_to_order_gives_constant():
    out = frac_derive(FracSeries.monomial(3.0, 0.7), 0.7)
    assert out.pairs == ((pytest.approx(3.0 * math.gamma(1.7), rel=1e-15), 0.0),)


def test_constants_are_annihilated():
    assert frac_derive(FracSeries.monomial(4.2, 0.0), 0.5).is_zero


def test_inadmissible_exponent_raises():
    with pytest.raises(DomainError):
        frac_derive(FracSeries.monomial(1.0, 0.3), 0.5)


def test_reviewed_exponent_rule():
    assert reviewed_exponent(0.0, 0.5) is None  # constants are annihilated
    assert reviewed_exponent(0.0, -0.5) == 0.5  # but integrated
    assert reviewed_exponent(1.5, 0.5) == 1.0
    assert reviewed_exponent(0.5 - 1e-13, 0.5) == 0.0  # snapped
    for e in (0.3, -0.5):
        with pytest.raises(DomainError):
            reviewed_exponent(e, 0.5)


def test_order_zero_is_identity():
    f = FracSeries([(1.0, 0.0), (2.5, 1.3)])
    assert frac_derive(f, 0.0) is f


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=1e-6, max_value=4.0),
)
def test_power_rule_coefficient_matches_gamma_ratio(alpha, gap):
    # exponent g = alpha + gap is always admissible (gap clear of the snap
    # window around 0); oracle computed inline
    g = alpha + gap
    out = frac_derive(FracSeries.monomial(1.0, g), alpha)
    expected = math.gamma(1.0 + g) / math.gamma(1.0 + g - alpha)
    (coeff, exp) = out.pairs[0]
    assert coeff == pytest.approx(expected, rel=1e-13)
    assert exp == pytest.approx(g - alpha, abs=1e-13)


@settings(max_examples=200)
@given(st.data())
def test_frac_derive_is_the_term_partial_of_the_same_expr(data):
    # one calculus: a series is its Expr in t, and frac_derive the partial
    # along t of that Expr's terms, each coefficient folded once
    nu = data.draw(st.floats(0.05, 0.95) | st.floats(-0.95, -0.05))
    exponents = st.just(0.0) | st.floats(max(nu, 0.01), 5.0)  # clear of the input snap
    pairs = data.draw(st.lists(st.tuples(st.floats(-10.0, 10.0).filter(bool), exponents),
                               min_size=1, max_size=6))
    e = Num(0.0)
    for c, g in pairs:
        e = Add(e, Mul(Num(c), Pow(Var("t"), g)))
    # the folded view drops coefficients that fold to zero and sums equal powers
    folded = ((t.power_of("t"), t.coeff.value())
              for t in frac_partial_terms(normalize_terms(e), "t", nu))
    want = sorted((g, c) for g, c in folded if c != 0.0)
    assume(len({g for g, _ in want}) == len(want))
    got = [(g, c) for c, g in frac_derive(FracSeries(pairs), nu).pairs]
    assert [(g.hex(), c.hex()) for g, c in got] == [(g.hex(), c.hex()) for g, c in want]


def test_a_coefficient_that_folds_to_zero_is_dropped():
    # 5e-324 * Gamma(3)/Gamma(3.75) underflows to 0.0 when folded
    assert frac_derive(FracSeries([(5e-324, 2.0)]), -0.75).pairs == ()


def test_integral_then_derivative_roundtrip():
    f = FracSeries([(2.0, 0.4), (-1.5, 2.0), (0.3, 3.7)])
    back = frac_derive(frac_derive(f, -0.6), 0.6)
    assert series_distance(f, back) < 1e-13


# ----------------------------------------------------------------- semigroup

@st.composite
def admissible_series(draw, beta):
    n = draw(st.integers(min_value=1, max_value=6))
    terms = []
    if draw(st.booleans()):
        terms.append((draw(st.floats(min_value=-10, max_value=10)), 0.0))
    for _ in range(n):
        c = draw(st.floats(min_value=-10, max_value=10))
        e = draw(st.floats(min_value=beta, max_value=5.0))
        terms.append((c, e))
    return FracSeries(terms)


@settings(max_examples=200)
@given(st.data())
def test_semigroup_property(data):
    alpha = data.draw(st.floats(min_value=0.05, max_value=0.9))
    beta = data.draw(st.floats(min_value=alpha + 0.05, max_value=1.0))
    f = data.draw(admissible_series(beta))
    assert semigroup_residual(f, alpha, beta) <= 1e-12


def test_semigroup_rejects_bad_orders():
    f = FracSeries.monomial(1.0, 2.0)
    with pytest.raises(DomainError):
        semigroup_residual(f, 0.7, 0.5)


# ----------------------------------------------------------- classical limit

def test_classical_limit_approaches_ordinary_derivative():
    # D^alpha t^2 -> 2t as alpha -> 1; discrepancy decreases monotonically
    f = FracSeries.monomial(1.0, 2.0)
    target = classical_derive(f)
    t = np.linspace(0.1, 2.0, 25)
    errs = []
    for alpha in (0.9, 0.99, 0.999):
        d = frac_derive(f, alpha)
        errs.append(np.max(np.abs(d.evaluate(t) - target.evaluate(t))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-3


# -------------------------------------------------------------- product rule

def test_leibniz_exact_for_polynomial_second_factor():
    alpha = 0.5
    f1 = FracSeries.monomial(1.0, 0.5)
    f2 = FracSeries([(1.0, 0.0), (2.0, 1.0), (-0.5, 3.0)])
    direct = frac_derive(f1 * f2, alpha)
    approx = leibniz_series(f1, f2, alpha, 40)
    assert series_distance(direct, approx) < 1e-12


def test_leibniz_exact_for_second_documented_pair():
    alpha = 0.7
    f1 = FracSeries([(2.0, 1.2), (1.0, 0.7)])
    f2 = FracSeries([(1.0, 0.0), (3.0, 1.0), (1.0, 2.0)])
    direct = frac_derive(f1 * f2, alpha)
    approx = leibniz_series(f1, f2, alpha, 40)
    assert series_distance(direct, approx) < 1e-12


def test_leibniz_half_power_pair_tail_is_slow():
    # Non-terminating case: the tail at K=40 is ~3.1e-5 (measured), far above
    # what terminating pairs achieve. Assert the measured band and the decay
    # so a regression in either direction is caught.
    alpha = 0.5
    f1 = FracSeries.monomial(1.0, 0.5)
    direct = frac_derive(f1 * f1, alpha)
    t = np.linspace(0.25, 2.0, 40)

    def sup_err(K):
        return np.max(np.abs(leibniz_series(f1, f1, alpha, K).evaluate(t) - direct.evaluate(t)))

    e40, e80 = sup_err(40), sup_err(80)
    assert 1e-6 < e40 < 1e-4
    assert e80 < e40 / 2.0


# ------------------------------------------------------ jet reconstruction

@settings(max_examples=60)
@given(st.data())
def test_ml_reconstruct_recovers_alpha_lattice_series(data):
    alpha = data.draw(st.floats(min_value=0.1, max_value=0.95))
    n = data.draw(st.integers(min_value=1, max_value=8))
    coeffs = data.draw(
        st.lists(st.floats(min_value=-5, max_value=5), min_size=n, max_size=n)
    )
    orders = data.draw(
        st.lists(st.integers(min_value=0, max_value=10), min_size=n, max_size=n)
    )
    f = FracSeries([(c, alpha * m) for c, m in zip(coeffs, orders)])
    rebuilt = ml_reconstruct(f, alpha, 10)
    assert series_distance(f, rebuilt) <= 1e-12


def test_ml_series_is_derivative_eigenfunction_fragment():
    # D^alpha applied to the M-term truncation drops exactly one term
    alpha = 0.4
    assert series_distance(
        frac_derive(ml_series(alpha, 12), alpha), ml_series(alpha, 11)
    ) < 1e-13


# ------------------------------------------------------------- housekeeping

def test_constructor_merges_and_sorts():
    f = FracSeries([(1.0, 2.0), (2.0, 0.5), (3.0, 2.0), (0.0, 1.0)])
    assert f.pairs == ((2.0, 0.5), (4.0, 2.0))


def test_iterated_derivative_snaps_to_constant_lattice():
    # 0.9 - 3*0.3 is not exactly 0.0 in floats; the snap keeps the lattice
    f = FracSeries.monomial(2.0, 0.9)
    third = frac_derive_iterated(f, 0.3, 3)
    assert third.pairs == ((pytest.approx(2.0 * math.gamma(1.9), rel=1e-13), 0.0),)
    assert frac_derive_iterated(f, 0.3, 4).is_zero


def test_evaluate_scalar_array_and_guards():
    f = FracSeries([(2.0, 0.0), (1.0, 0.5)])
    assert f(4.0) == pytest.approx(4.0)
    np.testing.assert_allclose(f(np.array([0.0, 1.0])), [2.0, 3.0])
    with pytest.raises(EvalError):
        f(-1.0)
    g = FracSeries.monomial(1.0, -0.5)
    with pytest.raises(EvalError):
        g(np.array([0.0, 1.0]))


@settings(max_examples=200)
@given(
    admissible_series(0.0),
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40),
)
def test_evaluate_on_array_is_bitwise_pointwise(f, ts):
    # the CLI evaluates whole grids at once; its CSV bytes rely on this
    ts = np.array(ts)
    assert np.array_equal(f.evaluate(ts), np.array([f(t) for t in ts]))


def test_json_round_trip():
    f = FracSeries([(1.25, 0.0), (-3.0, 1.5)])
    assert FracSeries.from_json_text(f.to_json_text()) == f
    with pytest.raises(DomainError):
        FracSeries.from_json_text("not json")


@pytest.mark.parametrize("text", ["[[NaN, 1.0]]", "[[1.0, Infinity]]", "[[1.0, 0.0], [-Infinity, 1.0]]",
                                  "[[1e400, 1.0]]"])
def test_json_numbers_must_be_finite(text):
    with pytest.raises(DomainError, match="numbers must be finite"):
        FracSeries.from_json_text(text)


def test_series_distance_flags_unmatched_terms():
    a = FracSeries([(1.0, 1.0)])
    b = FracSeries([(1.0, 1.0), (0.5, 2.0)])
    assert series_distance(a, b) == 0.5
