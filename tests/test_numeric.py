"""Tests for the discretization layer (GL, L1, integration by parts, solver)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracosc.errors import DomainError
from fracosc.numeric import (
    FodeResult,
    convergence_order,
    gl_derivative,
    gl_weights,
    int_by_parts_residual,
    l1_derivative,
    solve_fode,
)
from fracosc.series import FracSeries
from fracosc.specfun import gamma, gen_binomial, mittag_leffler


def _exact_power_derivative(g, alpha, t):
    return math.gamma(1 + g) / math.gamma(1 + g - alpha) * t ** (g - alpha)


# ------------------------------------------------------------------ weights

@given(st.floats(min_value=0.05, max_value=1.0), st.integers(min_value=0, max_value=80))
def test_gl_weights_are_signed_binomials(alpha, j):
    w = gl_weights(alpha, j)
    assert w[j] == pytest.approx((-1.0) ** j * gen_binomial(alpha, j), rel=1e-10, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.13, 0.5, 0.9, 1.0])
def test_gl_weights_equal_the_recursion_bitwise(alpha):
    n = 40_000
    ref = np.empty(n + 1)
    ref[0] = 1.0
    for j in range(1, n + 1):
        ref[j] = ref[j - 1] * (1.0 - (alpha + 1.0) / j)
    assert np.array_equal(gl_weights(alpha, n), ref)


def test_gl_weights_reject_a_negative_count():
    with pytest.raises(DomainError, match="n >= 0"):
        gl_weights(0.5, -3)


def test_gl_weights_partial_sums_positive():
    # sum_{j<=n} w_j = C(alpha-1, n)*(-1)^n > 0 for 0<alpha<1
    w = gl_weights(0.5, 60)
    sums = np.cumsum(w)
    assert np.all(sums > 0)


# ------------------------------------------------------------- GL / L1 rates

def test_gl_matches_power_rule_and_is_first_order():
    alpha = 0.6
    errs, hs = [], []
    for n in (128, 256, 512):
        t = np.linspace(0, 1, n + 1)
        approx = gl_derivative(t**2, alpha, 1 / n)
        errs.append(np.max(np.abs(approx - _exact_power_derivative(2, alpha, t))))
        hs.append(1 / n)
    assert abs(convergence_order(errs, hs) - 1.0) < 0.2


def test_l1_matches_power_rule_at_two_minus_alpha():
    alpha = 0.6
    errs, hs = [], []
    for n in (128, 256, 512):
        t = np.linspace(0, 1, n + 1)
        approx = l1_derivative(t**2, alpha, 1 / n)
        errs.append(np.max(np.abs(approx - _exact_power_derivative(2, alpha, t))))
        hs.append(1 / n)
    assert abs(convergence_order(errs, hs) - (2.0 - alpha)) < 0.2


def test_l1_at_alpha_one_is_the_backward_difference():
    t = np.linspace(0.0, 1.0, 5)
    got = l1_derivative(t**2, 1.0, 0.25)
    want = np.concatenate([[0.0], np.diff(t**2) / 0.25])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)
    assert np.array_equal(l1_derivative([2.5], 1.0, 0.1), [0.0])


def test_gl_annihilates_constants_exactly():
    out = gl_derivative(np.full(64, 3.7), 0.5, 0.01)
    assert np.all(out == 0.0)


def test_right_derivative_mirrors_left():
    t = np.linspace(0, 1, 201)
    f = t**1.5
    left = gl_derivative(f, 0.4, 0.005, side="left")
    right = gl_derivative(f[::-1], 0.4, 0.005, side="right")
    np.testing.assert_allclose(right, left[::-1], rtol=0, atol=0)


def test_first_node_is_zero_for_both_schemes():
    f = np.linspace(0, 1, 11) ** 1.2
    assert gl_derivative(f, 0.3, 0.1)[0] == 0.0
    assert gl_derivative(f, 0.3, 0.1, side="right")[-1] == 0.0
    assert l1_derivative(f, 0.3, 0.1)[0] == 0.0
    assert np.array_equal(gl_derivative([2.5], 0.3, 0.1), [0.0])
    assert np.array_equal(l1_derivative([2.5], 0.3, 0.1), [0.0])


def test_empty_signals_give_empty_derivatives():
    for out in (gl_derivative([], 0.5, 0.1), gl_derivative([], 0.5, 0.1, side="right"),
                l1_derivative([], 0.5, 0.1)):
        assert out.shape == (0,) and out.dtype == float


@pytest.mark.parametrize("bad", [0.0, -0.3, 1.5])
def test_order_validation(bad):
    with pytest.raises(DomainError):
        gl_derivative([0.0, 1.0], bad, 0.1)


# ------------------------------------------------------ integration by parts

def test_int_by_parts_residual_halves_under_refinement():
    f1 = FracSeries([(1.0, 0.7), (-1.0, 2.0)])  # vanishes at b = 1
    f2 = FracSeries([(1.0, 1.3), (2.0, 0.6)])   # vanishes at 0
    r200 = int_by_parts_residual(f1, f2, 0.5, 1.0, 200)
    r400 = int_by_parts_residual(f1, f2, 0.5, 1.0, 400)
    assert r200 / r400 >= 1.5
    assert r400 < 1e-3


def test_int_by_parts_residual_of_zero_f1_is_zero():
    zero = FracSeries(())
    assert int_by_parts_residual(zero, FracSeries([(1.0, 1.3)]), 0.5, 1.0, 50) == 0.0


def test_int_by_parts_preconditions():
    good_f1 = FracSeries([(1.0, 0.7), (-1.0, 2.0)])
    good_f2 = FracSeries([(1.0, 1.3)])
    with pytest.raises(DomainError):  # f2 has a constant term
        int_by_parts_residual(good_f1, FracSeries([(1.0, 0.0), (1.0, 1.0)]), 0.5, 1.0, 50)
    with pytest.raises(DomainError):  # f1 does not vanish at b
        int_by_parts_residual(FracSeries([(1.0, 2.0)]), good_f2, 0.5, 1.0, 50)


@pytest.mark.parametrize("n", [0, -2])
def test_int_by_parts_residual_needs_a_grid_interval(n):
    good_f1 = FracSeries([(1.0, 0.7), (-1.0, 2.0)])
    with pytest.raises(DomainError, match="n >= 1"):
        int_by_parts_residual(good_f1, FracSeries([(1.0, 1.3)]), 0.5, 1.0, n)


# ------------------------------------------------------------------- solver

def test_solver_reproduces_mittag_leffler_eigenfunction():
    res = solve_fode(lambda t, x: x, [1.0], 0.5, 1.0, 1e-3)
    target = mittag_leffler(0.5, 1.0)
    assert isinstance(res, FodeResult)
    assert res.x[-1, 0] == pytest.approx(target, abs=5e-3)
    # whole-trajectory check against E_alpha(t^alpha)
    ref = np.array([mittag_leffler(0.5, ti**0.5) for ti in res.t])
    assert np.max(np.abs(res.x[:, 0] - ref)) < 5e-3


def test_solver_alpha_one_reduces_to_classical_exponential():
    res = solve_fode(lambda t, x: -x, [2.0], 1.0, 1.0, 1e-3)
    assert res.x[-1, 0] == pytest.approx(2.0 * math.exp(-1.0), abs=1e-4)


def test_solver_handles_systems():
    # D^alpha (x, y) = (y, -x): fractional oscillator; energy-ish sanity only
    res = solve_fode(lambda t, x: np.array([x[1], -x[0]]), [1.0, 0.0], 0.9, 2.0, 1e-3)
    assert res.x.shape == (2001, 2)
    assert np.all(np.isfinite(res.x))


def test_solver_order_is_one_plus_alpha_ish():
    alpha = 0.5
    target = mittag_leffler(alpha, 1.0)
    errs, hs = [], []
    for h in (1 / 100, 1 / 200, 1 / 400):
        r = solve_fode(lambda t, x: x, [1.0], alpha, 1.0, h)
        errs.append(abs(r.x[-1, 0] - target))
        hs.append(h)
    assert 1.0 < convergence_order(errs, hs) < 2.0


def test_solver_input_validation():
    with pytest.raises(DomainError):
        solve_fode(lambda t, x: x, [1.0], 0.5, 1.0, -0.1)
    with pytest.raises(DomainError):
        solve_fode(lambda t, x: x, [1.0], 0.5, 0.001, 0.1)


@pytest.mark.parametrize("t_end, h, match", [
    (1.0, 1e-13, "at most 10000000 steps"),  # 1e13 steps: tens of TiB of history
    (1.0, 1e-320, "at most 10000000 steps"),  # t_end/h overflows to inf
    (1.0, math.nan, "finite"),
    (math.nan, 1e-3, "finite"),
])
def test_solver_rejects_unaffordable_or_undefined_step_counts(t_end, h, match):
    # a DomainError, raised before any history array is allocated
    with pytest.raises(DomainError, match=match):
        solve_fode(lambda t, x: x, [1.0], 0.5, t_end, h)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.2, max_value=1.0))
def test_solver_zero_rhs_stays_put(alpha):
    res = solve_fode(lambda t, x: np.zeros_like(x), [1.5, -2.0], alpha, 0.5, 0.01)
    assert np.max(np.abs(res.x - np.array([1.5, -2.0]))) < 1e-12


# ------------------------------------- fast history sums vs direct references
#
# The schemes sum their history by FFT and the solver by precomputed weights;
# these are the direct O(N^2) sums they replace, kept as references. The
# rounding of the direct GL sum grows like h^-alpha, hence the 1e-10 bound.


def _gl_direct(f, alpha, h, side="left"):
    if side == "right":
        return _gl_direct(f[::-1], alpha, h)[::-1]
    return np.convolve(gl_weights(alpha, len(f) - 1), f - f[0])[: len(f)] * h**-alpha


def _l1_direct(f, alpha, h):
    n = len(f) - 1
    j = np.arange(n, dtype=float)
    a = (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
    a[:1] = 1.0  # a_0 = 1 at every order; numpy's 0**0 = 1 would zero it at alpha = 1
    out = np.zeros(n + 1)
    out[1:] = np.convolve(a, np.diff(f))[:n] * h**-alpha / gamma(2.0 - alpha)
    return out


def _adams_direct(rhs, x0, alpha, t_end, h):
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n_steps = int(round(t_end / h))
    t = np.arange(n_steps + 1) * h
    x = np.zeros((n_steps + 1, x0.shape[0]))
    fhist = np.zeros_like(x)
    x[0] = x0
    fhist[0] = rhs(t[0], x0)
    c_pred = h**alpha / gamma(alpha + 1.0)
    c_corr = h**alpha / gamma(alpha + 2.0)
    for n in range(n_steps):
        j = np.arange(n + 1, dtype=float)
        b = (n + 1.0 - j) ** alpha - (n - j) ** alpha
        pred = x0 + c_pred * (b[:, None] * fhist[: n + 1]).sum(axis=0)
        acc = (n ** (alpha + 1.0) - (n - alpha) * (n + 1.0) ** alpha) * fhist[0]
        if n >= 1:
            jj = np.arange(1, n + 1, dtype=float)
            aj = (
                (n - jj + 2.0) ** (alpha + 1.0)
                + (n - jj) ** (alpha + 1.0)
                - 2.0 * (n - jj + 1.0) ** (alpha + 1.0)
            )
            acc = acc + (aj[:, None] * fhist[1 : n + 1]).sum(axis=0)
        x[n + 1] = x0 + c_corr * (acc + rhs(t[n + 1], pred))
        fhist[n + 1] = rhs(t[n + 1], x[n + 1])
    return x


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("n", [2**8, 2**12, 2**15])
def test_fft_history_sums_match_direct_sums(n, alpha):
    t = np.linspace(0.0, 1.0, n + 1)
    f = np.sin(3.0 * t) + t**1.5 + t**2
    h = 1.0 / n
    for side in ("left", "right"):
        direct = _gl_direct(f, alpha, h, side)
        fast = gl_derivative(f, alpha, h, side)
        assert np.max(np.abs(fast - direct)) <= 1e-10 * np.max(np.abs(direct))
    direct = _l1_direct(f, alpha, h)
    assert np.max(np.abs(l1_derivative(f, alpha, h) - direct)) <= 1e-10 * np.max(np.abs(direct))


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
def test_adams_weights_match_direct_solver(alpha):
    def rhs(t, x):
        return np.array([-x[1], x[0] - 0.5 * x[1] + math.sin(t)])

    res = solve_fode(rhs, [1.0, 0.5], alpha, 2.0, 1e-3)
    assert res.x.shape == (2001, 2)
    assert np.max(np.abs(res.x - _adams_direct(rhs, [1.0, 0.5], alpha, 2.0, 1e-3))) <= 1e-13
