"""Variational machinery: Euler-Lagrange residuals against pinned targets,
covector ladder, spray extraction with a closed-loop extremal, and the
prolongation overlap."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference_builders as ref
from fracosc import lagrange
from fracosc.bundle import BundleSpec, jet_lift, spray_to_dual
from fracosc.errors import DomainError
from fracosc.expr import Add, Mul, Num, Pow, Var, evaluate, normal_form, parse, to_str
from fracosc.lagrange import (
    alpha_square,
    covector_gap,
    craig_synge_closed_form,
    craig_synge_level,
    el_residual,
    extract_spray,
    fundamental_tensor,
    prolong_finsler,
    prolong_lagrange,
    prolong_riemann,
    reference_problem_classical,
    reference_problem_fractional,
    reference_residual,
    spray_coefficient_from_el,
    spray_ode_residual,
    total_jet_derivative,
)
from fracosc.numeric import solve_fode
from fracosc.series import FracSeries
from fracosc.specfun import gamma


def _env1(rng, levels):
    env = {"x1": rng.uniform(0.5, 2.0)}
    for a in range(1, levels + 1):
        env[f"y1_{a}"] = rng.uniform(0.5, 2.0)
    return env


# ------------------------------------------------------------ total derivative --


def test_total_jet_derivative_picks_next_level():
    spec = BundleSpec(1, 2, 0.4)
    # d_t of y^(1)-only function: only the b=2 slot contributes
    d = total_jet_derivative(spec, parse("y1_1^2"), "fractional")
    env = {"x1": 1.1, "y1_1": 0.8, "y1_2": 1.3, "y1_3": 0.6}
    expected = 1.3 * gamma(3.0) / gamma(2.6) * 0.8 ** 1.6
    assert evaluate(d, env) == pytest.approx(expected, rel=1e-12)


def test_total_jet_derivative_classical_mode():
    spec = BundleSpec(1, 1, 0.4)
    d = total_jet_derivative(spec, parse("x1*y1_1"), "classical")
    env = {"x1": 1.2, "y1_1": 0.7, "y1_2": 0.5}
    assert evaluate(d, env) == pytest.approx(0.7 * 0.7 + 0.5 * 1.2, rel=1e-12)


def test_unknown_mode_rejected():
    spec = BundleSpec(1, 1, 0.4)
    with pytest.raises(DomainError):
        el_residual(spec, parse("x1"), mode="mixed")


# ------------------------------------------------------------ reference targets --


def test_fractional_reference_hits_target():
    prob = reference_problem_fractional()  # alpha=0.3, k=3
    rng = np.random.default_rng(1)
    for _ in range(30):
        assert reference_residual(prob, _env1(rng, 4)) < 1e-12


def test_fractional_reference_general_parameters():
    prob = reference_problem_fractional(alpha=0.45, power=1.6, c=2.5, coeffs=(0.7, 1.3))
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert reference_residual(prob, _env1(rng, 3)) < 1e-12


def test_fibre_exponent_alpha_variant_misses_target():
    # the order-alpha partial of (y)^alpha is a constant, so every fibre term
    # of the residual drops; the gap at this point is the whole fibre part.
    prob = reference_problem_fractional(fibre_exponent_alpha=True)
    env = {"x1": 1.3, "y1_1": 0.8, "y1_2": 1.1, "y1_3": 0.7, "y1_4": 0.9}
    gap = reference_residual(prob, env)
    fibre = (
        gamma(1.6) * 1.1 + gamma(1.9) * 0.7 + gamma(2.2) * 0.9
    )
    assert gap == pytest.approx(fibre, rel=1e-12)


def test_classical_reference_hits_target():
    prob = reference_problem_classical()
    rng = np.random.default_rng(3)
    for _ in range(30):
        assert reference_residual(prob, _env1(rng, 4)) < 1e-12


def test_reference_targets_agree_across_modes():
    frac = reference_problem_fractional()
    clas = reference_problem_classical()
    assert to_str(frac.target) == to_str(clas.target)


# ------------------------------------------------------------ covector ladder --


ALPHA, A_COEFF, F_COEFF = 0.3, 2.0, 1.5
SPEC11 = BundleSpec(1, 1, ALPHA)
L_QUAD = parse(f"{A_COEFF}*y1_1^{2 * ALPHA} + {F_COEFF}*x1^{ALPHA}")


def test_ladder_level_guard():
    with pytest.raises(DomainError):
        craig_synge_level(SPEC11, L_QUAD, 2)


def test_ladder_level_zero_quadratic():
    # E^(0) = F Gamma(1+a) - [Gamma(1+2a)/Gamma(1+a)] A y^(2)
    lvl = craig_synge_level(SPEC11, L_QUAD, 0)[0]
    env = {"x1": 1.4, "y1_1": 0.9, "y1_2": 1.3}
    expected = F_COEFF * gamma(1 + ALPHA) - gamma(1 + 2 * ALPHA) / gamma(1 + ALPHA) * A_COEFF * 1.3
    assert evaluate(lvl, env) == pytest.approx(expected, rel=1e-12)


def test_fundamental_tensor_fractional_quadratic():
    fund = fundamental_tensor(SPEC11, L_QUAD, "fractional")
    assert evaluate(fund[0][0], {"y1_1": 1.7}) == pytest.approx(
        0.5 * A_COEFF * gamma(1 + 2 * ALPHA) * 2 / 2, rel=1e-12
    )


def test_covector_gap_measured_value():
    # the two next-to-top readings disagree on quadratics by
    # A Gamma(1+2a) |1/Gamma(1+a) - 1/2| |y^(2)| — deliberately left exposed
    fund = fundamental_tensor(SPEC11, L_QUAD, "fractional")
    env = {"x1": 1.4, "y1_1": 0.9, "y1_2": 1.3}
    gap = covector_gap(SPEC11, L_QUAD, fund, env)
    predicted = A_COEFF * gamma(1 + 2 * ALPHA) * abs(1 / gamma(1 + ALPHA) - 0.5) * 1.3
    assert gap == pytest.approx(predicted, rel=1e-10)
    assert gap > 0.1


def test_closed_form_reduces_to_base_partial_leading_term():
    fund = fundamental_tensor(SPEC11, L_QUAD, "fractional")
    closed = craig_synge_closed_form(SPEC11, L_QUAD, fund)[0]
    env = {"x1": 1.4, "y1_1": 0.9, "y1_2": 1.3}
    expected = (
        F_COEFF * gamma(1 + ALPHA)
        - 0.5 * A_COEFF * gamma(1 + 2 * ALPHA) * 1.3
    )
    assert evaluate(closed, env) == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------ spray extraction --


G0 = F_COEFF * gamma(1 + ALPHA) / (A_COEFF * gamma(1 + 2 * ALPHA))


def test_extract_spray_constant_forcing():
    solved = extract_spray(SPEC11, L_QUAD)
    assert evaluate(solved[0], {"x1": 1.0, "y1_1": 1.0, "y1_2": 1.0}) == pytest.approx(
        G0, rel=1e-13
    )
    coeff = spray_coefficient_from_el(SPEC11, solved)[0]
    expected = -gamma(1 + ALPHA) / gamma(1 + 2 * ALPHA) * G0
    assert evaluate(coeff, {}) == pytest.approx(expected, rel=1e-13)


def test_extract_spray_guards():
    with pytest.raises(DomainError):
        extract_spray(BundleSpec(2, 1, 0.3), parse("(y1_1*y2_1)^2 + x1"))
    with pytest.raises(DomainError):
        extract_spray(SPEC11, parse("x1^2"))


def test_closed_loop_extremal_curve():
    # quadratic fibre term + order-alpha base forcing has the exact extremal
    # x = x0 + v t^a + G0 t^(2a); its jet satisfies the solved overshoot
    # relation identically.
    solved = extract_spray(SPEC11, L_QUAD)
    x0, v = 0.7, 1.2
    curve = FracSeries(((x0, 0.0), (v, ALPHA), (G0, 2 * ALPHA)))
    ts = np.linspace(0.1, 2.0, 15)
    assert spray_ode_residual(SPEC11, solved, [curve], ts) < 1e-14


def test_spray_ode_residual_equals_the_pointwise_loop():
    # a detuned curve, so the residual is far from zero
    solved = extract_spray(SPEC11, L_QUAD)
    curve = FracSeries(((0.7, 0.0), (1.2, ALPHA), (0.9, 2 * ALPHA), (0.4, 3 * ALPHA)))
    ts = np.linspace(0.1, 2.0, 15)
    worst = 0.0
    for t in ts:
        jp = jet_lift([curve], ALPHA, SPEC11.k + 1, float(t))
        worst = max(worst, abs(jp.y[SPEC11.k][0] - ref.evaluate(solved[0], jp.env())))
    assert worst > 1e-3
    assert spray_ode_residual(SPEC11, solved, [curve], ts) == worst


def test_spray_ode_residual_keeps_a_nan_gap():
    # 1e300*1e300 overflows, and inf*x1 - inf*x1 is NaN at every sample
    solved = (parse("1e300*1e300*x1 - 1e300*1e300*x1"),)
    curve = FracSeries(((0.7, 0.0), (1.2, ALPHA)))
    assert np.isnan(spray_ode_residual(SPEC11, solved, [curve], np.linspace(0.1, 2.0, 5)))


@pytest.mark.parametrize("values", [(float("nan"), 0.0, 1.0, 0.5), (1.0, 0.5, float("nan"), 0.0)])
def test_covector_gap_keeps_a_nan_wherever_it_is(values, monkeypatch):
    monkeypatch.setattr(lagrange, "compile_exprs", lambda exprs: lambda env: values)
    fund = fundamental_tensor(SPEC11, L_QUAD, "fractional")
    assert np.isnan(covector_gap(SPEC11, L_QUAD, fund, {"x1": 1.4, "y1_1": 0.9, "y1_2": 1.3}))


def test_closed_loop_solver_corroboration():
    # first-order system D^a x = Gamma(1+a) y, D^a y = [Gamma(1+2a)/Gamma(1+a)] G0;
    # measured x error at h=1e-3 is ~1.8e-3 (startup singularity t^a dominates)
    x0, v = 0.7, 1.2

    def rhs(t, s):
        return np.array(
            [gamma(1 + ALPHA) * s[1], gamma(1 + 2 * ALPHA) / gamma(1 + ALPHA) * G0]
        )

    res = solve_fode(rhs, np.array([x0, v]), ALPHA, 1.0, 1e-3)
    exact_x = x0 + v * res.t**ALPHA + G0 * res.t ** (2 * ALPHA)
    exact_y = v + G0 * gamma(1 + 2 * ALPHA) / gamma(1 + ALPHA) ** 2 * res.t**ALPHA
    assert np.max(np.abs(res.x[:, 0] - exact_x)) < 5e-3
    assert np.max(np.abs(res.x[:, 1] - exact_y)) < 1e-9


def test_nonconstant_solved_overshoot():
    # base forcing with exponent 2a: the solved overshoot depends on x
    L = parse(f"{A_COEFF}*y1_1^{2 * ALPHA} + {F_COEFF}*x1^{2 * ALPHA}")
    solved = extract_spray(SPEC11, L)[0]
    env = {"x1": 1.6, "y1_1": 0.9, "y1_2": 0.4}
    expected = F_COEFF / (A_COEFF * gamma(1 + ALPHA)) * 1.6**ALPHA
    assert evaluate(solved, env) == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------ prolongations --


SPEC21 = BundleSpec(2, 1, 0.3)
G_ROWS = ((parse("x1^2"), parse("0.0")), (parse("0.0"), parse("2.0*x2")))


def test_riemann_christoffels_closed_form():
    pr = prolong_riemann(SPEC21, G_ROWS)
    env = {"x1": 1.5, "x2": 0.8}
    assert evaluate(pr.christoffels[0][0][0], env) == pytest.approx(
        gamma(3.0) / (2 * gamma(2.7)) * 1.5**-0.3, rel=1e-12
    )
    assert evaluate(pr.christoffels[1][1][1], env) == pytest.approx(
        1.0 / (2 * gamma(1.7)) * 0.8**-0.3, rel=1e-12
    )
    assert normal_form(pr.christoffels[0][1][1]) == Num(0.0)


def test_alpha_square_fundamental_recovers_metric():
    F2 = alpha_square(SPEC21, (parse("x1^2"), parse("2.0*x2")))
    pr = prolong_finsler(SPEC21, F2)
    rng = np.random.default_rng(9)
    for _ in range(10):
        env = {n: rng.uniform(0.5, 2.0) for n in ("x1", "x2", "y1_1", "y2_1")}
        for i in range(2):
            for j in range(2):
                assert evaluate(pr.fundamental[i][j], env) == pytest.approx(
                    evaluate(G_ROWS[i][j], env), abs=1e-12
                )


def test_prolongations_agree_on_product_metric():
    F2 = alpha_square(SPEC21, (parse("x1^2"), parse("2.0*x2")))
    pr_r = prolong_riemann(SPEC21, G_ROWS)
    candidates = (
        prolong_finsler(SPEC21, F2),
        prolong_lagrange(SPEC21, parse("x1^2*y1_1^2 + 2.0*x2*y2_1^2")),
    )
    rng = np.random.default_rng(10)
    for _ in range(10):
        env = {n: rng.uniform(0.5, 2.0) for n in ("x1", "x2", "y1_1", "y2_1")}
        for pr in candidates:
            for i in range(2):
                for j in range(2):
                    assert abs(
                        evaluate(pr.dual1[i][j], env) - evaluate(pr_r.dual1[i][j], env)
                    ) < 1e-8
                assert abs(
                    evaluate(pr.spray[i], env) - evaluate(pr_r.spray[i], env)
                ) < 1e-8


def test_dual_from_spray_matches_direct():
    pr = prolong_riemann(SPEC21, G_ROWS)
    M = spray_to_dual(SPEC21, pr.spray)
    rng = np.random.default_rng(12)
    for _ in range(10):
        env = {n: rng.uniform(0.5, 2.0) for n in ("x1", "x2", "y1_1", "y2_1")}
        for i in range(2):
            for j in range(2):
                assert abs(
                    evaluate(M.order(1)[i][j], env) - evaluate(pr.dual1[i][j], env)
                ) < 1e-10


def test_diagonal_inverse_guard():
    full = ((parse("1.0"), parse("x1")), (parse("x1"), parse("1.0")))
    with pytest.raises(DomainError):
        prolong_riemann(SPEC21, full)


def test_hybrid_vs_fractional_hessian_semantics():
    # classical square under the fractional Hessian does NOT recover g, and
    # the alpha-square under the classical Hessian does not either; the two
    # semantics are genuinely different readings.
    L = parse("x1^2*y1_1^2 + 2.0*x2*y2_1^2")
    frac = fundamental_tensor(SPEC21, L, "fractional")
    env = {"x1": 1.2, "x2": 0.9, "y1_1": 0.8, "y2_1": 1.4}
    classical_value = 1.2**2
    frac_value = evaluate(frac[0][0], env)
    assert abs(frac_value - classical_value) > 0.05


# ------------------------------------------------- Expr-sum reference copies --


def _same(got, want):
    assert got == want
    assert repr(got) == repr(want)


LAGRANGIANS = (
    "0.7*x1^2*y1_1^1.4 + x2*y2_1^2 + 1.3*y1_2^2*x1^1.5 + y2_2^1.2",
    "2.9*x1^2.5*y1_1^2*y2_1 - 0.37*x2^1.5*y2_2^2 + 2",
    "1.3*x1^2*y1_1^1.5/(z + 1) + 0.7*y2_2^2*x2",  # an opaque factor in z
)


@pytest.mark.parametrize("text", LAGRANGIANS)
@pytest.mark.parametrize("mode", ["fractional", "classical"])
def test_el_builders_equal_the_expr_sum_reference(text, mode):
    spec = BundleSpec(2, 2, 0.3)
    L = parse(text)
    _same(el_residual(spec, L, mode), ref.el_residual(spec, L, mode))
    _same(total_jet_derivative(spec, L, mode), ref.total_jet_derivative(spec, L, mode))
    semantics = "fractional" if mode == "fractional" else "classical"
    _same(fundamental_tensor(spec, L, semantics), ref.fundamental_tensor(spec, L, semantics))
    if mode == "fractional":
        for level in range(spec.k + 1):
            _same(craig_synge_level(spec, L, level), ref.craig_synge_level(spec, L, level))
        g = fundamental_tensor(spec, L, "fractional")
        _same(craig_synge_closed_form(spec, L, g), ref.craig_synge_closed_form(spec, L, g))


def test_reference_problems_equal_the_expr_sum_reference():
    for prob in (reference_problem_fractional(), reference_problem_classical(),
                 reference_problem_fractional(0.45, 2.5, 1.5, (1.0, -0.5))):
        _same(prob.residual, ref.el_residual(prob.spec, prob.lagrangian, prob.mode))
        assert prob.residual is prob.residual  # built once


PROLONGATION_METRICS = {
    "monomial": (("1.3*x1^2", "0.0"), ("0.0", "2.0*x2")),
    # 1/(1 + x1^2) keeps an opaque denominator through the Christoffels
    "non-monomial": (("1.0 + 0.7*x1^2", "0.0"), ("0.0", "x2 + 0.37*x1*x2")),
    "monomial-powers": (("0.37*x1^2.5*x2^1.5", "0.0"), ("0.0", "2.9*x1^1.5*x2^1.3")),
}


@pytest.mark.parametrize("name", PROLONGATION_METRICS)
def test_prolongations_equal_the_expr_sum_reference(name):
    rows = tuple(tuple(parse(e) for e in row) for row in PROLONGATION_METRICS[name])
    _same(prolong_riemann(SPEC21, rows), ref.prolong_riemann(SPEC21, rows))
    diag = (rows[0][0], rows[1][1])
    _same(alpha_square(SPEC21, diag), ref.alpha_square(SPEC21, diag))
    F2 = alpha_square(SPEC21, diag)
    _same(prolong_finsler(SPEC21, F2), ref.prolong_finsler(SPEC21, F2))
    L = Add(Mul(rows[0][0], Pow(Var("y1_1"), 2.0)), Mul(rows[1][1], Pow(Var("y2_1"), 2.0)))
    _same(prolong_lagrange(SPEC21, L), ref.prolong_lagrange(SPEC21, L))
    inverse = ((parse("0.7*x1^-2"), parse("0.0")), (parse("0.0"), parse("0.5/x2")))
    _same(prolong_riemann(SPEC21, rows, inverse),
          ref.prolong_riemann(SPEC21, rows, inverse))


_EXPONENTS = (0.0, 1.0, 1.5, 2.0, 2.5, 3.0)
_monomials = st.lists(
    st.tuples(st.sampled_from((0.7, -1.3, 2.9, 0.37)),
              st.lists(st.sampled_from(_EXPONENTS), min_size=6, max_size=6)),
    min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(_monomials, st.sampled_from((0.3, 0.5, 0.8)), st.sampled_from((1, 2)))
def test_random_monomial_lagrangians_equal_the_expr_sum_reference(monomials, alpha, k):
    spec = BundleSpec(2, k, alpha)
    names = spec.all_names()
    L = Num(0.0)
    for c, exps in monomials:
        term = Num(c)
        for name, p in zip(names, exps):
            if p:
                term = Mul(term, Pow(Var(name), p))
        L = Add(L, term)
    for mode in ("fractional", "classical"):
        try:
            want = ref.el_residual(spec, L, mode)
        except DomainError:
            with pytest.raises(DomainError):
                el_residual(spec, L, mode)
            continue
        _same(el_residual(spec, L, mode), want)
        _same(fundamental_tensor(spec, L, mode), ref.fundamental_tensor(spec, L, mode))
