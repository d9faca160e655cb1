"""Tests for the expression language: grammar, printing, partials, ledger."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import _reference_builders as ref
from fracosc.errors import DomainError, EvalError, ParseError
from fracosc.expr import (
    FALLBACK_STEP, Add, Call, Div, Mul, Neg, Num, Pow, Sub, Var,
    classical_partial, classical_partials, collect_terms, compile_exprs, evaluate, expand_terms,
    fold_terms, frac_partial, frac_partial_at, frac_partial_terms, free_vars, multiply_terms,
    normal_form, normalize_terms, parse, scale_terms, simplify, term_frac_partial,
    terms_to_expr, to_str,
)
from fracosc.gammaledger import GammaProduct
from fracosc.series import FracSeries, frac_derive

# ------------------------------------------------------------------ parsing

def test_precedence_power_beats_unary_minus_beats_mul():
    assert evaluate(parse("2 + 3*4^2"), {}) == 50.0
    assert evaluate(parse("-2^2"), {}) == -4.0        # -(2^2)
    assert evaluate(parse("2*-3"), {}) == -6.0        # unary binds before *
    assert evaluate(parse("-2*3"), {}) == -6.0        # (-2)*3
    assert evaluate(parse("2 - 3 - 4"), {}) == -5.0   # left associative
    assert evaluate(parse("24/4/2"), {}) == 3.0


def test_power_exponent_must_be_literal():
    with pytest.raises(ParseError):
        parse("x^y")
    with pytest.raises(ParseError):
        parse("x^(2)")
    e = parse("x^-0.5")
    assert isinstance(e, Pow) and e.exponent == -0.5


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("1 +\n2 * $")
    assert err.value.line == 2
    assert err.value.col == 5


def test_unknown_function_and_arity():
    with pytest.raises(ParseError):
        parse("sin(x)")
    with pytest.raises(ParseError):
        parse("gamma(1, 2)")
    with pytest.raises(ParseError):
        parse("ml(0.5)")


def test_call_parsing_and_eval():
    assert evaluate(parse("gamma(0.5)"), {}) == pytest.approx(math.sqrt(math.pi))
    from fracosc.specfun import mittag_leffler
    assert evaluate(parse("ml(0.5, 1.0)"), {}) == pytest.approx(
        mittag_leffler(0.5, 1.0))


# ----------------------------------------------------------------- printing

_leaf = st.one_of(
    st.sampled_from([Var("x1"), Var("x2"), Var("y1_1")]),
    st.floats(min_value=0.0, max_value=9.0).map(lambda v: Num(round(v, 3))),
)


def _branch(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: Add(*ab)),
        st.tuples(children, children).map(lambda ab: Sub(*ab)),
        st.tuples(children, children).map(lambda ab: Mul(*ab)),
        st.tuples(children, children).map(lambda ab: Div(*ab)),
        children.map(Neg),
        st.tuples(children, st.sampled_from([2.0, 3.0, 0.5, -1.0])).map(
            lambda bp: Pow(*bp)),
        children.map(lambda a: Call("gamma", (a,))),
    )


_exprs = st.recursive(_leaf, _branch, max_leaves=12)


@settings(max_examples=150)
@given(_exprs)
def test_print_parse_print_is_fixpoint(e):
    s = to_str(e)
    assert to_str(parse(s)) == s


@settings(max_examples=100)
@given(_exprs)
def test_parse_of_print_evaluates_identically(e):
    env = {"x1": 1.7, "x2": 0.9, "y1_1": 2.3}
    try:
        v1 = evaluate(e, env)
    except (EvalError, DomainError):
        assume(False)
    v2 = evaluate(parse(to_str(e)), env)
    assert v2 == pytest.approx(v1, rel=1e-12, abs=1e-12) or (
        math.isinf(v1) and math.isinf(v2))


# --------------------------------------------------------------- evaluation

def test_evaluate_guards():
    with pytest.raises(EvalError):
        evaluate(parse("x1"), {})
    with pytest.raises(EvalError):
        evaluate(parse("1/ (x1 - x1)"), {"x1": 3.0})
    with pytest.raises(EvalError):
        evaluate(parse("x1^-1"), {"x1": 0.0})
    with pytest.raises(EvalError):
        evaluate(parse("x1^0.5"), {"x1": -1.0})
    with pytest.raises(DomainError):
        evaluate(parse("gamma(0.0)"), {})


def test_free_vars():
    assert free_vars(parse("x1*gamma(2.0) + y1_2^2 - 4")) == {"x1", "y1_2"}


@pytest.mark.parametrize("text,col", [("1e400", 1), ("t^1e400", 3), ("2*t + 3E+999*t", 7)])
def test_literals_out_of_range_are_parse_errors(text, col):
    with pytest.raises(ParseError, match="number out of range") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (1, col)
    assert parse("1e-400") == Num(0.0)  # underflow to zero is a finite value


# ------------------------------------------------------------ normal form

def test_normal_form_distributes_and_cancels():
    e = parse("(x1 + x2)*(x1 - x2)")
    nf = normal_form(e)
    assert to_str(nf) == to_str(parse("x1^2.0 - x2^2.0")) or to_str(nf) in (
        "x1^2.0 + -1.0*x2^2.0",
    )
    assert to_str(normal_form(parse("x1*x2 - x2*x1"))) == "0.0"


def test_normal_form_is_deterministic_under_reordering():
    a = normal_form(parse("x2*x1 + 3*x1^2 + x1*x2"))
    b = normal_form(parse("x1*x2 + x1*x2 + x1^2*3"))
    assert to_str(a) == to_str(b)


def test_opaque_factors_survive_normalization():
    terms = normalize_terms(parse("gamma(x1 + 1)*x2"))
    assert len(terms) == 1
    assert terms[0].power_of("x2") == 1.0
    assert len(terms[0].others) == 1


# ---------------------------------------------------- fractional partials

def test_delta_identity_is_exact():
    e = parse("x1^0.5/gamma(1.5)")
    assert frac_partial(e, "x1", 0.5) == Num(1.0)


def test_power_rule_and_constant_annihilation():
    e = parse("3*x1^1.7 + 5 + x2^2")
    d = frac_partial(e, "x1", 0.7)
    # only the x1 term survives; coefficient 3*Gamma(2.7)/Gamma(2.0)
    expected = 3.0 * math.gamma(2.7) / math.gamma(2.0)
    assert to_str(d) == f"{expected!r}*x1"


def test_exponent_equal_to_order_leaves_constant():
    d = frac_partial(parse("x1^0.4"), "x1", 0.4)
    assert d == Num(math.gamma(1.4))


def test_negative_order_integrates_terms_free_of_the_variable():
    # I^0.5 c = c x1^0.5 / Gamma(1.5); the variable enters in sorted position
    terms = frac_partial_terms(normalize_terms(parse("3 + 2*x2 + x1")), "x1", -0.5)
    assert [(t.coeff, t.powers) for t in terms] == [
        (GammaProduct(2.0, ((1.5, -1),)), (("x1", 0.5), ("x2", 1.0))),
        (GammaProduct(3.0, ((1.5, -1),)), (("x1", 0.5),)),
        (GammaProduct(1.0, ((2.5, -1),)), (("x1", 1.5),)),
    ]


def test_inadmissible_exponent_raises():
    with pytest.raises(DomainError):
        frac_partial(parse("x1^0.2"), "x1", 0.5)


def test_large_exponent_matches_the_series_power_rule():
    # Gamma(201) overflows on its own; the ledger folds the ratio in log space
    d = frac_partial(parse("x1^200"), "x1", 0.5)
    (c, e), = frac_derive(FracSeries.monomial(1.0, 200.0), 0.5).pairs
    assert to_str(d) == "14.150977211993368*x1^199.5"
    assert d == Mul(Num(c), Pow(Var("x1"), e))


def test_var_inside_call_is_not_monomial():
    e = parse("gamma(x1 + 1.0)")
    with pytest.raises(DomainError):
        frac_partial(e, "x1", 0.5)


@settings(max_examples=150)
@given(
    st.floats(min_value=0.1, max_value=0.9),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=-4.0, max_value=4.0),
)
def test_mixed_partials_commute(alpha, g1, g2, c):
    assume(c != 0.0)  # a zero coefficient normalizes to the empty sum
    # exponents kept clear of the inadmissible strip
    p1, p2 = alpha + g1 + 1e-3, alpha + g2 + 1e-3
    e = Mul(Num(c), Mul(Pow(Var("x1"), p1), Pow(Var("x2"), p2)))

    # term level: the gamma ledger survives both steps, so the two orders
    # agree *bitwise* (same sorted argument multiset, same factor)
    (t,) = normalize_terms(e)
    t12 = term_frac_partial(term_frac_partial(t, "x1", alpha), "x2", alpha)
    t21 = term_frac_partial(term_frac_partial(t, "x2", alpha), "x1", alpha)
    assert t12 == t21

    # public Expr level folds between calls: agreement within rounding
    d12 = frac_partial(frac_partial(e, "x1", alpha), "x2", alpha)
    d21 = frac_partial(frac_partial(e, "x2", alpha), "x1", alpha)
    env = {"x1": 1.3, "x2": 0.8}
    assert evaluate(d12, env) == pytest.approx(evaluate(d21, env), rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(_exprs, st.one_of(st.sampled_from([0.0, -0.0, -1.0]),
                         st.floats(allow_nan=False, allow_infinity=False)))
def test_scale_terms_is_the_product_with_the_expanded_constant(e, c):
    try:
        terms = expand_terms(e)
    except (DomainError, EvalError):
        assume(False)
    # uncollected, collected, and a fractional partial with Gamma ledgers kept
    sums = [terms, list(collect_terms(terms))]
    try:
        sums.append(list(frac_partial_terms(sums[1], "x1", 0.5)))
    except DomainError:
        pass
    for terms in sums:
        want = multiply_terms(expand_terms(Num(c)), terms)
        got = scale_terms(c, terms)
        assert got == want and repr(got) == repr(want)


_OPAQUE = [parse("(x1 + x2)^-1"), parse("gamma(x2 + 1)"), parse("1/(y1_1 + 2)")]


@settings(max_examples=300, deadline=None)
@given(_exprs, st.sampled_from([None, *_OPAQUE]), st.sampled_from([0.5, 0.3, -0.5]))
def test_fold_terms_is_the_expansion_of_the_printed_sum(e, factor, order):
    # the connection builders keep fold_terms(c) as the terms of terms_to_expr(c)
    if factor is not None:
        e = Add(e, Mul(factor, e))
    try:
        collected = normalize_terms(e)
    except (DomainError, EvalError):
        assume(False)
    # plain, and the fractional partials with their Gamma ledgers kept
    sums = [collected]
    for var in ("x1", "x2", "y1_1"):
        try:
            sums.append(frac_partial_terms(collected, var, order))
        except DomainError:
            pass
    for c in sums:
        try:
            want = expand_terms(terms_to_expr(c))
        except DomainError as exc:  # a ledger through a Gamma pole fails both alike
            with pytest.raises(DomainError) as err:
                fold_terms(c)
            assert str(err.value) == str(exc)
            continue
        got = fold_terms(c)
        assert got == want and repr(got) == repr(want)


def test_numeric_fallback_with_unbound_axis_is_eval_error():
    # x1^0.2 is inadmissible at order 0.5, so the GL fallback needs env['x1']
    with pytest.raises(EvalError, match="unbound variable 'x1'"):
        frac_partial_at(parse("x1^0.2 + y"), "x1", 0.5, {"y": 1.0})


def test_numeric_fallback_matches_quadrature_oracle():
    # opaque in x1: (1 + x1^2)^0.5; oracle = Caputo integral via mpmath.quad
    import mpmath as mp

    e = parse("(1 + x1^2)^0.5")
    alpha, T = 0.6, 1.0
    got = frac_partial_at(e, "x1", alpha, {"x1": T})
    gprime = lambda s: s / mp.sqrt(1 + s * s)
    oracle = mp.quad(
        lambda s: gprime(s) * (T - s) ** (-alpha), [0, T]
    ) / mp.gamma(1 - alpha)
    assert got == pytest.approx(float(oracle), rel=7e-3)


def test_numeric_fallback_is_bitwise_the_pointwise_gl_sum():
    # the grid entry reads the axis grid with the bits of one call per point
    from fracosc.numeric import gl_derivative

    for text, alpha, env in (("x2^1.3 * ml(0.55, 0.9 * x1^0.55)", 0.55, {"x1": 0.05, "x2": 1.1}),
                             ("(1 + x1^2)^0.5 * x2 + gamma(1 + x1)", 0.6, {"x1": 0.08, "x2": -1.0})):
        e = parse(text)
        with pytest.raises(DomainError):
            frac_partial(e, "x1", alpha)
        T = env["x1"]
        n = round(T / FALLBACK_STEP)
        vals = [evaluate(e, {**env, "x1": T * j / n}) for j in range(n + 1)]
        want = float(gl_derivative(vals, alpha, T / n)[-1])
        assert frac_partial_at(e, "x1", alpha, env).hex() == want.hex()


# -------------------------------------------------------- classical partial

def test_classical_partial_product_and_chain():
    e = parse("x1^2*x2 + x2^3")
    assert to_str(classical_partial(e, "x2")) == to_str(
        simplify(parse("x1^2 + 3*x2^2")))
    d = classical_partial(parse("(x1^2 + 1)^0.5"), "x1")
    assert evaluate(d, {"x1": 2.0}) == pytest.approx(2.0 / math.sqrt(5.0))


def test_classical_partial_rejects_var_in_call():
    with pytest.raises(DomainError):
        classical_partial(parse("gamma(x1)"), "x1")


def test_classical_partial_reports_the_leftmost_call_first():
    for text, fn in (("gamma(x1)*ml(0.5, x1)", "gamma"), ("ml(0.5, x1)/gamma(x1) - x1", "ml")):
        with pytest.raises(DomainError, match=rf"through {fn}\(") as err:
            classical_partial(parse(text), "x1")
        with pytest.raises(DomainError) as want:
            ref.classical_partial(parse(text), "x1")
        assert str(err.value) == str(want.value)


# ------------------------------------- DAG builders against the tree reference

_LEAF_VALUES = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0]
_BINARY = [Add, Sub, Mul, Div]


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(lambda op, a, b: op(a, b), st.sampled_from(_BINARY), children, children),
        st.builds(Pow, children, st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.5, 3.0])),
        # shared subtrees: one object reached along two paths
        st.builds(lambda op, a: op(a, a), st.sampled_from(_BINARY), children),
        st.builds(lambda a, b: Mul(Add(a, b), Sub(b, a)), children, children),
        st.builds(lambda a: Call("gamma", (a,)), children),
        st.builds(lambda a: Call("ml", (Num(0.5), a)), children),
    )


_trees = st.recursive(
    st.one_of(st.sampled_from(_LEAF_VALUES).map(Num), st.sampled_from(["x", "y"]).map(Var)),
    _extend, max_leaves=12)


def _tree_size(e, memo=None) -> int:
    """Node count of the unfolded tree (shared subtrees counted per path)."""
    memo = {} if memo is None else memo
    if id(e) not in memo:
        kids = [getattr(e, f) for f in ("arg", "left", "right", "base") if hasattr(e, f)]
        kids += list(getattr(e, "args", ()))
        memo[id(e)] = 1 + sum(_tree_size(k, memo) for k in kids)
    return memo[id(e)]


def _built(fn, *args):
    """The repr of the built Expr, or the message of its DomainError."""
    try:
        return repr(fn(*args))
    except DomainError as err:
        return f"DomainError: {err}"


@settings(max_examples=300, deadline=None)
@given(_trees, st.sampled_from(["x", "y"]))
def test_dag_builders_equal_the_tree_reference(e, var):
    # repr is the exact structure, signed zeros included; a constant fold
    # that overflows is a DomainError in both
    assume(_tree_size(e) <= 150)
    s = _built(simplify, e)
    assert s == _built(ref.simplify, e)
    if not s.startswith("DomainError"):
        assert repr(simplify(simplify(e))) == s
    assert _built(classical_partial, e, var) == _built(ref.classical_partial, e, var)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_one_pass_partials_equal_the_tree_reference_per_name(e):
    # the derivative of a subtree free of a name is shared between the names
    # and must keep the signed zeros its structure gives; the first name
    # that meets a failure raises its DomainError
    assume(_tree_size(e) <= 150)
    want = [_built(ref.classical_partial, e, var) for var in ("x", "y")]
    errors = [w for w in want if w.startswith("DomainError")]
    got = _built(classical_partials, e, ("x", "y"))
    assert got == (errors[0] if errors else f"({want[0]}, {want[1]})")


def test_one_pass_partials_report_the_first_name_through_a_call():
    e = parse("x*y + gamma(y)*x")
    with pytest.raises(DomainError, match="through gamma\\(...\\) in 'y'"):
        classical_partials(e, ("x", "y"))
    assert classical_partials(e, ()) == ()
    assert classical_partials(e, ("x", "x")) == (classical_partial(e, "x"),) * 2


def test_builders_are_linear_in_the_shared_dag():
    e = Add(Var("x"), Num(2.0))
    for _ in range(40):
        e = Mul(e, Sub(e, Var("y")))
    # unfolded, e has more than 2^40 nodes; each distinct node is visited once
    assert simplify(e) is e
    d = classical_partial(e, "x")
    assert simplify(d) is d
    # not printed or compared: either walks all 2^40 paths of the unfolded tree
    dx, dy, dz = classical_partials(e, ("x", "y", "z"))
    assert simplify(dx) is dx and simplify(dy) is dy and dz == Num(0.0)


# ------------------------------- compiled evaluator against the tree walk

_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0])
#: a few points binding one set of names
_points = st.sets(st.sampled_from(["x", "y"])).flatmap(
    lambda names: st.lists(st.fixed_dictionaries({n: _values for n in sorted(names)}),
                           min_size=1, max_size=4))


def _outcome(fn):
    """The float bits of every value, or the type and message of the first
    failure."""
    try:
        values = fn()
    except Exception as err:
        return f"{type(err).__name__}: {err}"
    return [v.hex() for v in values]


@settings(max_examples=400, deadline=None)
@given(st.lists(_trees, min_size=1, max_size=3), _points)
def test_compiled_evaluation_equals_the_tree_walk(exprs, points):
    # the last root shares the nodes of the first and the second-to-last
    exprs.append(Div(exprs[0], Sub(exprs[-1], Var("y"))))
    assume(sum(_tree_size(e) for e in exprs) <= 400)
    f = compile_exprs(exprs)
    wants = []
    for env in points:
        want = _outcome(lambda: [ref.evaluate(e, env) for e in exprs])
        assert _outcome(lambda: f(env)) == want
        assert _outcome(lambda: [evaluate(e, env) for e in exprs]) == want
        wants.append(want)
    # the points stacked as columns: each point's bits, point after point,
    # or the failure of the first failing point (a grid's length comes from
    # its columns, so it needs one)
    if points[0]:
        columns = {name: np.array([env[name] for env in points]) for name in points[0]}
        failed = [w for w in wants if isinstance(w, str)]
        want = failed[0] if failed else [bits for w in wants for bits in w]
        assert _outcome(lambda: f.grid(columns).T.ravel().tolist()) == want


_BAD = Pow(Num(-2.0), 0.5)  # EvalError when it is reached


@pytest.mark.parametrize("e", [
    Add(Var("x"), Var("y")),  # unbound in the left operand
    Add(Num(1.0), Mul(Num(2.0), Var("y"))),  # unbound in the right operand
    Div(_BAD, Sub(Var("x"), Var("x"))),  # zero denominator before a bad numerator
    Div(Var("x"), Sub(Var("x"), Var("x"))),  # ... whose numerator is computed already
    Add(Div(Var("y"), Num(0.0)), _BAD),
    Mul(Pow(Sub(Num(1.0), Var("x")), 1.5), Var("y")),  # negative base
    Pow(Sub(Var("x"), Var("x")), -1.0),  # 0 to a negative power
    Add(Call("gamma", (Neg(Var("x")),)), Call("gamma", (Num(0.0),))),  # gamma pole
    Call("ml", (Num(0.5), Call("gamma", (Num(-1.0),)))),
    Call("erf", (Var("x"),)),  # unknown function
])
def test_compiled_evaluation_raises_the_first_error_of_the_tree_walk(e):
    with pytest.raises((EvalError, DomainError)) as want:
        ref.evaluate(e, {"x": 2.0})
    for fn in (lambda: compile_exprs((Num(1.0), e))({"x": 2.0}), lambda: evaluate(e, {"x": 2.0})):
        with pytest.raises(type(want.value)) as got:
            fn()
        assert str(got.value) == str(want.value)


def test_compiled_evaluation_is_built_once_and_read_at_many_points():
    f = compile_exprs((parse("x^2 + y"), parse("x^2 - y"), parse("3")))
    assert f({"x": 2.0, "y": 1.0}) == (5.0, 3.0, 3.0)
    assert f({"x": 1.0, "y": 0.5}) == (1.5, 0.5, 3.0)
    assert compile_exprs(())({}) == ()
    with pytest.raises(TypeError, match="not an Expr"):
        compile_exprs(("x",))


def test_evaluate_and_free_vars_are_linear_in_the_shared_dag():
    e = Var("x")
    for _ in range(40):
        e = Add(e, e)  # unfolded: 2^41 - 1 nodes
    assert free_vars(e) == {"x"}
    assert evaluate(e, {"x": 1.5}) == 1.5 * 2.0**40
    assert compile_exprs((e, Mul(e, e)))({"x": 1.0}) == (2.0**40, 2.0**80)


def test_overflowing_constant_fold_is_a_domain_error():
    # no infinite Num may reach the printer, which cannot format one
    e = parse("1e200*1e200*x1")
    with pytest.raises(DomainError):
        to_str(normal_form(e))
    assert _built(simplify, e) == _built(ref.simplify, e) == "DomainError: constant fold overflows"
    assert to_str(simplify(parse("1e200*1e100*x1"))) == "1e+300*x1"
