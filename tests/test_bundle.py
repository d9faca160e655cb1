"""Jet-bundle structure: dilation fields, tangent shift, sprays, prolonged
chart changes, and nonlinear connection coefficient algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _reference_builders as ref
from fracosc import bundle, expr, geometry
from fracosc.bundle import (
    BundleField,
    BundleSpec,
    DualCoefficients,
    JetPoint,
    PrimalCoefficients,
    adapted_frame,
    dual_coframe,
    dual_to_primal,
    horizontal_transform_residual,
    jet_lift,
    jet_round_trip_residual,
    jet_transform,
    liouville_field,
    pairing_residual,
    primal_to_dual,
    rung_weight,
    spray_derivation,
    spray_field,
    spray_to_dual,
    tangent_shift,
    tangent_structure_matrix,
    transform_jet_point,
    transform_primal_first_order,
)
from fracosc.connection import MetricalConnection, MetricField
from fracosc.errors import DomainError
from fracosc.expr import Num, Var, evaluate, normal_form, parse, to_str
from fracosc.geometry import ChartMap, base_vars, jet_var, weighted_jacobian_exprs
from fracosc.series import FracSeries
from fracosc.specfun import gamma


def _jet(rng, n, levels, lo=0.5, hi=2.0):
    vals = rng.uniform(lo, hi, size=(levels + 1, n))
    return JetPoint(tuple(vals[0]), tuple(tuple(row) for row in vals[1:]))


# ----------------------------------------------------------------- naming --


def test_spec_names():
    spec = BundleSpec(2, 3, 0.3)
    assert spec.level_names(0) == ("x1", "x2")
    assert spec.level_names(2) == ("y1_2", "y2_2")
    assert spec.all_names() == (
        "x1", "x2", "y1_1", "y2_1", "y1_2", "y2_2", "y1_3", "y2_3",
    )
    assert spec.dim == 8
    # one naming function; slot a*n + i holds coordinate i at level a
    assert base_vars(2) == spec.level_names(0)
    assert spec.level_names(3) == ("y1_3", "y2_3")
    assert spec.all_names(4)[-2:] == (jet_var(0, 4), jet_var(1, 4)) == ("y1_4", "y2_4")
    jp = JetPoint((1.0, 2.0), ((3.0, 4.0), (5.0, 6.0), (7.0, 8.0), (9.0, 10.0)))
    assert list(jp.env()) == list(spec.all_names(4))
    assert list(jp.env().values()) == jp.flat().tolist() == [float(v) for v in range(1, 11)]


@pytest.mark.parametrize("n,k,alpha", [(0, 1, 0.5), (1, 0, 0.5), (1, 1, 0.0), (1, 1, 1.2)])
def test_spec_validation(n, k, alpha):
    with pytest.raises(DomainError):
        BundleSpec(n, k, alpha)


def test_rung_weights():
    assert rung_weight(0.5, 1) == pytest.approx(gamma(1.5))
    assert rung_weight(0.5, 2) == pytest.approx(1.0 / math.sqrt(math.pi))
    assert rung_weight(0.3, 3) == pytest.approx(gamma(0.9) / gamma(0.3))
    with pytest.raises(DomainError):
        rung_weight(0.5, 0)


# ------------------------------------------------- dilation fields / shift --


def test_liouville_slot_structure():
    spec = BundleSpec(2, 3, 0.3)
    f = liouville_field(spec, 2)
    # levels k-a+b = 2, 3 populated; base and level 1 empty
    assert all(to_str(c) == "0.0" for c in f.coeffs[0] + f.coeffs[1])
    env = {"y1_1": 0.7, "y2_1": 1.1, "y1_2": 0.4, "y2_2": 0.9}
    w1, w2 = rung_weight(0.3, 1), rung_weight(0.3, 2)
    assert evaluate(f.coeffs[2][0], env) == pytest.approx(w1 * 0.7)
    assert evaluate(f.coeffs[3][1], env) == pytest.approx(w2 * 0.9)


def test_tangent_shift_ladder_exact():
    spec = BundleSpec(2, 3, 0.45)
    for a in range(2, spec.k + 1):
        assert tangent_shift(liouville_field(spec, a)).coeffs \
            == liouville_field(spec, a - 1).coeffs
    assert tangent_shift(liouville_field(spec, 1)).is_structurally_zero()


def test_unweighted_first_order_ladder_breaks_telescope():
    spec = BundleSpec(1, 2, 0.3)
    shifted = tangent_shift(liouville_field(spec, 2))
    unweighted = BundleField(spec, ((Num(0.0),), (Num(0.0),), (Var("y1_1"),)))
    env = {"y1_1": 1.0, "y1_2": 0.6}
    gap = abs(shifted.eval_at(env) - unweighted.eval_at(env)).max()
    # the unweighted order-1 field misses the shifted image by Gamma(1+alpha)-1
    assert gap == pytest.approx(abs(gamma(1.3) - 1.0))
    assert gap > 0.05
    corrected = liouville_field(spec, 1)
    assert tangent_shift(liouville_field(spec, 2)).coeffs == corrected.coeffs


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tangent_matrix_nilpotent_and_rank(k, n):
    spec = BundleSpec(n, k, 0.5)
    J = tangent_structure_matrix(spec)
    assert not np.linalg.matrix_power(J, k + 1).any()
    assert np.linalg.matrix_power(J, k).any()
    assert np.linalg.matrix_rank(J) == k * n


def test_spray_maps_to_top_dilation():
    spec = BundleSpec(2, 2, 0.5)
    G = (parse("x1*y1_1^2"), parse("x2^2*y2_1"))
    S = spray_field(spec, G)
    assert tangent_shift(S).coeffs == liouville_field(spec, spec.k).coeffs
    # top slot carries -w_k G
    env = {"x1": 1.2, "x2": 0.7, "y1_1": 0.9, "y2_1": 1.4, "y1_2": 0.5, "y2_2": 1.1}
    wk = rung_weight(0.5, 2)
    assert evaluate(S.coeffs[2][0], env) == pytest.approx(-wk * 1.2 * 0.9**2)
    assert evaluate(S.coeffs[2][1], env) == pytest.approx(-wk * 0.7**2 * 1.4)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_spray_levels_below_the_top_are_the_top_dilation_field(n, k):
    spec = BundleSpec(n, k, 0.35)
    G = tuple(parse(f"x{i + 1}*y{i + 1}_1^2 + 0.5*x1") for i in range(n))
    below, dilation = spray_field(spec, G).coeffs[:-1], liouville_field(spec, spec.k).coeffs[1:]
    assert below == dilation and repr(below) == repr(dilation)


# ---------------------------------------------------------- jet transform --


def test_jet_transform_level1_is_weighted_jacobian():
    spec = BundleSpec(1, 1, 0.4)
    levels = jet_transform(ChartMap((parse("2.0*x1"),)), spec)
    env = {"x1": 1.7, "y1_1": 0.8}
    assert evaluate(levels[1][0], env) == pytest.approx(2.0**0.4 * 0.8)


def test_jet_transform_alpha_one_level1_classical():
    spec = BundleSpec(1, 2, 1.0)
    levels = jet_transform(ChartMap((parse("x1^2"),)), spec)
    env = {"x1": 1.3, "y1_1": 0.7, "y1_2": 0.2}
    assert evaluate(levels[1][0], env) == pytest.approx(2 * 1.3 * 0.7)


FWD = ChartMap((parse("x1^2"), parse("x1*x2")))
INV = ChartMap((parse("x1^0.5"), parse("x2/x1^0.5")))


@pytest.mark.parametrize("k,bound", [(1, 1e-12), (2, 1e-7), (3, 1e-7)])
def test_jet_round_trip(k, bound):
    # measured on this monomial atlas: ~9e-16 (k=1), ~7e-15 (k=2), ~8e-14 (k=3)
    spec = BundleSpec(2, k, 0.3)
    rng = np.random.default_rng(20240 + k)
    worst = max(
        jet_round_trip_residual(FWD, INV, spec, _jet(rng, 2, k)) for _ in range(25)
    )
    assert worst <= bound


@pytest.mark.parametrize("comps", [("x1^2", "x1*x2"), ("x1^0.5", "x2/x1^0.5"),
                                   ("2*x1 + x2", "(x1 + x2)^1.5 - 0.5*x2")])
def test_prolongation_equals_the_tree_reference(comps):
    cm = ChartMap(tuple(parse(c) for c in comps))
    spec = BundleSpec(2, 2, 0.3)
    # repr is the exact structure, signed zeros included
    assert repr(jet_transform(cm, spec)) == repr(ref.jet_transform(cm, spec))
    names = spec.all_names(1)
    assert repr(weighted_jacobian_exprs(cm.components, names, 0.3)) == repr(
        ref.weighted_jacobian_exprs(cm.components, names, 0.3))


@pytest.mark.parametrize("comps", [("x1^1.5", "x1^2*x2", "x3*x1"),  # a benchmark atlas
                                   ("2*x1 + x2", "(x1 + x3)^1.5 - 0.5*x2", "x3/x1^0.5")])
def test_prolongation_equals_the_tree_reference_at_n3_k3(comps):
    # the largest shapes the benchmark prolongs: every level is differentiated
    # along up to 9 names in one pass
    cm = ChartMap(tuple(parse(c) for c in comps))
    spec = BundleSpec(3, 3, 0.45)
    levels = jet_transform(cm, spec)
    assert repr(levels) == repr(ref.jet_transform(cm, spec))
    names = spec.all_names(2)
    assert repr(weighted_jacobian_exprs(levels[2], names, 0.45)) == repr(
        ref.weighted_jacobian_exprs(levels[2], names, 0.45))


#: the monomial atlases of the benchmark: (a, b, c, d, e) is the chart
#: x -> (x1^a, x1^b x2^c, x1^e x3^d), printed as the benchmark prints it
ATLASES = [(2.0, 1.0, 1.0, 1.0, 0.5), (3.0, 0.5, 2.0, 2.0, 1.0), (1.5, 2.0, 1.0, 1.0, 1.0)]


def _atlas_chart(variant, n):
    a, b, c, d, e = ATLASES[variant]
    comps = (f"1.0*x1^{a!r}", f"1.0*x1^{b!r}*x2^{c!r}", f"1.0*x1^{e!r}*x3^{d!r}")
    return ChartMap(tuple(parse(t) for t in comps[:n]))


@pytest.mark.parametrize("variant,n,k", [(0, 2, 4), (1, 3, 3), (2, 3, 3)],
                         ids=["atlas0-n2k4", "atlas1-n3k3", "atlas2-n3k3"])
def test_prolongation_equals_the_tree_reference_at_the_benchmark_depths(variant, n, k):
    # the deepest shapes the benchmark prolongs; at k = 4 one derivative memo
    # spans four levels (the tree reference takes seconds there)
    cm = _atlas_chart(variant, n)
    spec = BundleSpec(n, k, 0.45)
    levels = jet_transform(cm, spec)
    assert repr(levels) == repr(ref.jet_transform(cm, spec))
    names = spec.all_names(k - 1)
    assert repr(weighted_jacobian_exprs(levels[k - 1], names, 0.45)) == repr(
        ref.weighted_jacobian_exprs(levels[k - 1], names, 0.45))


#: the most simplify_node calls a prolongation at alpha = 0.45 may make, by
#: (atlas, n, k): 5 % over the 3122, 1452, 1555 and 1451 calls of one memo over
#: all levels with the zero-factor rules. A memo per level takes 4047, 1676,
#: 1845 and 1675 calls; the full rules, 4756, 2072, 2229 and 2069; a memo per
#: classical_partials call with the full rules, 6729, 2590, 2868 and 2587.
SIMPLIFY_BOUNDS = {(0, 2, 4): 3279, (0, 3, 3): 1525, (1, 3, 3): 1633, (2, 3, 3): 1524}


@pytest.mark.parametrize("shape", list(SIMPLIFY_BOUNDS),
                         ids=["atlas0-n2k4", "atlas0-n3k3", "atlas1-n3k3", "atlas2-n3k3"])
def test_prolongation_simplifies_each_node_once_per_build(monkeypatch, shape):
    # a deterministic work count: a memo lost between levels fails it at once
    calls = []
    step = expr.simplify_node

    def counting(e):
        calls.append(None)
        return step(e)

    for module in (expr, geometry, bundle):
        monkeypatch.setattr(module, "simplify_node", counting)
    variant, n, k = shape
    jet_transform(_atlas_chart(variant, n), BundleSpec(n, k, 0.45))
    assert 0 < len(calls) <= SIMPLIFY_BOUNDS[shape]


def test_prolongation_is_built_once_per_chart_and_spec():
    cm = ChartMap((parse("x1^2"), parse("x1*x2")))
    spec = BundleSpec(2, 2, 0.3)
    first = jet_transform(cm, spec)
    again = jet_transform(cm, spec)
    assert again == first and again is not first
    assert all(a is b for a, b in zip(again, first))  # the same built levels
    first[1] = ()
    first.append(())
    assert jet_transform(cm, spec) == again  # the caller's list is its own
    lower = jet_transform(cm, BundleSpec(2, 1, 0.3))  # another spec, own entry
    assert len(lower) == 2 and lower == again[:2] and lower[1] is not again[1]
    with pytest.raises(DomainError):
        jet_transform(cm, BundleSpec(3, 2, 0.3))


def test_jet_transform_functorial_under_composition():
    u = ChartMap((parse("x1*x2"), parse("x2")))
    v = ChartMap((parse("x2"), parse("x1^3")))
    w = ChartMap((parse("x2"), parse("x1^3*x2^3")))  # v after u
    spec = BundleSpec(2, 2, 0.3)
    rng = np.random.default_rng(11)
    for _ in range(10):
        jp = _jet(rng, 2, 2)
        step = transform_jet_point(v, spec, transform_jet_point(u, spec, jp))
        direct = transform_jet_point(w, spec, jp)
        assert np.max(np.abs(step.flat() - direct.flat())) < 1e-12


def test_jet_lift_power_curve():
    # x(t) = t^0.6 + 2, alpha = 0.3: level 1 = G(1.6)/G(1.3)^2 t^0.3, level 2
    # exhausts the power: constant 1 after normalization.
    curve = FracSeries(((1.0, 0.6), (2.0, 0.0)))
    jp = jet_lift([curve], 0.3, 2, 0.7)
    assert jp.x[0] == pytest.approx(0.7**0.6 + 2.0)
    expected1 = gamma(1.6) / gamma(1.3) ** 2 * 0.7**0.3
    assert jp.y[0][0] == pytest.approx(expected1, rel=1e-13)
    assert jp.y[1][0] == pytest.approx(1.0, rel=1e-13)


_curves = st.lists(
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.2, 2.1])),
             min_size=1, max_size=4).map(FracSeries),
    min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(_curves, st.lists(st.floats(0.0, 20.0), max_size=30), st.integers(1, 3))
def test_jet_lift_on_a_grid_is_bitwise_the_pointwise_lift(curves, ts, levels):
    grid = jet_lift(curves, 0.3, levels, np.array(ts))
    for p, t in enumerate(ts):
        point = jet_lift(curves, 0.3, levels, t)
        assert [x[p] for x in grid.x] == list(point.x)
        assert [[y[p] for y in level] for level in grid.y] == [list(level) for level in point.y]


# ------------------------------------------------------- connection algebra --


def _sample_primal(spec):
    entries = ["x1", "y1_1", "2.0", "x2*y2_1", "0.0", "x1^2", "y1_2", "1.5", "x2"]
    mats, idx = [], 0
    for _ in range(spec.k):
        m = []
        for _ in range(spec.n):
            row = []
            for _ in range(spec.n):
                idx += 1
                row.append(parse(entries[idx % len(entries)]))
            m.append(tuple(row))
        mats.append(tuple(m))
    return PrimalCoefficients(spec, tuple(mats))


def test_primal_dual_round_trip_exact():
    spec = BundleSpec(2, 3, 0.4)
    N = _sample_primal(spec)
    back = dual_to_primal(primal_to_dual(N))
    for b in range(1, spec.k + 1):
        for i in range(spec.n):
            for j in range(spec.n):
                assert back.order(b)[i][j] == normal_form(N.order(b)[i][j])


def test_dual_recursion_k2_hand_value():
    # scalar case: M1 = N1, M2 = N2 + N1^2
    spec = BundleSpec(1, 2, 0.5)
    N = PrimalCoefficients(spec, (((parse("3.0"),),), ((parse("5.0"),),)))
    M = primal_to_dual(N)
    assert evaluate(M.order(1)[0][0], {}) == pytest.approx(3.0)
    assert evaluate(M.order(2)[0][0], {}) == pytest.approx(5.0 + 9.0)


def _sparse_coefficients(rng, spec):
    """k random n x n matrices of constants, about half of the entries 0.0
    and the rest of both signs; the first matrix is never symmetric."""
    mats = rng.uniform(-2.0, 2.0, size=(spec.k, spec.n, spec.n))
    mats[rng.uniform(size=mats.shape) < 0.5] = 0.0
    if spec.n > 1:
        mats[0, 0, 1], mats[0, 1, 0] = 1.5, 0.0
    return tuple(tuple(tuple(Num(float(v)) for v in row) for row in mat) for mat in mats)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_natural_frame_matrices_match_the_entrywise_builders(n, k):
    spec = BundleSpec(n, k, 0.5)
    rng = np.random.default_rng(10 * n + k)
    N = PrimalCoefficients(spec, _sparse_coefficients(rng, spec))
    M = DualCoefficients(spec, _sparse_coefficients(rng, spec))
    J = tangent_structure_matrix(spec)
    assert J.dtype == ref.tangent_structure_matrix(spec).dtype
    assert J.tobytes() == ref.tangent_structure_matrix(spec).tobytes()
    assert adapted_frame(spec, N, {}).tobytes() == ref.adapted_frame(spec, N, {}).tobytes()
    assert dual_coframe(spec, M, {}).tobytes() == ref.dual_coframe(spec, M, {}).tobytes()


def test_adapted_frame_and_coframe_blocks():
    spec = BundleSpec(1, 2, 0.5)
    a, b = 3.0, 5.0
    N = PrimalCoefficients(spec, (((parse("3.0"),),), ((parse("5.0"),),)))
    F = adapted_frame(spec, N, {})
    assert np.allclose(F, [[1, -a, -b], [0, 1, -a], [0, 0, 1]])
    D = dual_coframe(spec, primal_to_dual(N), {})
    assert np.allclose(D, [[1, 0, 0], [a, 1, 0], [b + a * a, a, 1]])
    assert np.allclose(D @ F.T, np.eye(3))


def test_pairing_residual_random_points():
    spec = BundleSpec(2, 3, 0.4)
    N = _sample_primal(spec)
    M = primal_to_dual(N)
    rng = np.random.default_rng(5)
    for _ in range(10):
        env = _jet(rng, 2, 3).env()
        assert pairing_residual(spec, N, M, env) < 1e-10


def test_spray_to_dual_first_order_is_fibre_gradient():
    spec = BundleSpec(1, 1, 0.5)
    M = spray_to_dual(spec, (parse("0.5*x1^2*y1_1^2"),))
    env = {"x1": 1.4, "y1_1": 0.9}
    assert evaluate(M.order(1)[0][0], env) == pytest.approx(1.4**2 * 0.9)


def test_spray_to_dual_k2_closed_form():
    # G = x y^2 at alpha = 1/2: M1 = 2 x y,
    # M2 = sqrt(pi) (S(M1) + M1^2) = 2 sqrt(pi) x^0.5 y^2 + 2 x y2 + 4 sqrt(pi) x^2 y^2
    spec = BundleSpec(1, 2, 0.5)
    M = spray_to_dual(spec, (parse("x1*y1_1^2"),))
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, y1, y2 = rng.uniform(0.5, 2.0, size=3)
        env = {"x1": x, "y1_1": y1, "y1_2": y2}
        expected = (
            2 * math.sqrt(math.pi) * x**0.5 * y1**2
            + 2 * x * y2
            + 4 * math.sqrt(math.pi) * x**2 * y1**2
        )
        assert evaluate(M.order(2)[0][0], env) == pytest.approx(expected, rel=1e-12)


def test_spray_to_dual_flat_is_zero():
    spec = BundleSpec(2, 2, 0.4)
    M = spray_to_dual(spec, (parse("0.0"), parse("0.0")))
    for b in (1, 2):
        for i in range(2):
            for j in range(2):
                assert normal_form(M.order(b)[i][j]) == parse("0.0")


SPRAYS = (
    ("0.7*x1*y1_1^2 + 0.5*y2_1^2", "1.3*x2^1.5*y1_1*y2_1"),
    ("y1_1^2/(z + 1) + 0.37*x1^2*y2_1", "2.9*x1*x2*y2_1^2 - y1_1*y2_1"),  # opaque in z
)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("texts", SPRAYS, ids=["monomial", "opaque"])
def test_connection_builders_equal_the_expr_sum_reference(texts, k):
    spec = BundleSpec(2, k, 0.3)
    G = tuple(parse(t) for t in texts)
    dual = spray_to_dual(spec, G)
    want = ref.spray_to_dual(spec, G)
    assert dual == want and repr(dual) == repr(want)
    primal = dual_to_primal(dual)
    want = ref.dual_to_primal(dual)
    assert primal == want and repr(primal) == repr(want)
    again = primal_to_dual(primal)
    want = ref.primal_to_dual(primal)
    assert again == want and repr(again) == repr(want)
    N = _sample_primal(spec)
    assert repr(primal_to_dual(N)) == repr(ref.primal_to_dual(N))
    f = parse("0.7*x1^2*y1_1^1.5 + 1.3*x2*y2_1^2*y1_1")
    assert repr(spray_derivation(spec, G)(f)) == repr(ref.spray_derivation(spec, G)(f))


def test_spray_to_dual_equals_the_expr_sum_reference_at_n3_k3():
    spec = BundleSpec(3, 3, 0.45)
    G = (parse("0.7*x1^0.9*y1_1^2 + 0.3*x2^0.45*y1_1*y2_1"),
         parse("0.5*x2^1.35*y2_1^2 + 0.2*x3^0.9*y2_1*y3_1"),
         parse("0.6*x3^0.45*y3_1^2 + 0.4*x1^0.9*y3_1*y1_1"))
    dual = spray_to_dual(spec, G)
    want = ref.spray_to_dual(spec, G)
    assert dual == want and repr(dual) == repr(want)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_connection_builders_expand_no_printed_entry(monkeypatch, n, k):
    # the CLI path: each builder hands on the terms it folded each entry from
    spec = BundleSpec(n, k, 0.3)
    G = tuple(parse(f"0.7*x{i}*y{i}_1^2 + 0.5*y{i % n + 1}_1^2/(z + 1)")
              for i in range(1, n + 1))
    metric = MetricField(spec, tuple(
        tuple(parse(f"1.5 + 0.2*x{i}^2*y{i}_1^2" if i == j else f"0.1*x{i}*x{j}")
              for j in range(i, n + 1)) for i in range(1, n + 1)))
    env = dict(zip(spec.all_names(), np.random.default_rng(n + 10 * k).uniform(
        0.5, 1.5, size=spec.dim)), z=0.8)
    expanded, expand = [], bundle.expand_terms

    def counting(e):
        expanded.append(e)
        return expand(e)

    monkeypatch.setattr(bundle, "expand_terms", counting)
    dual = spray_to_dual(spec, G)
    primal = dual_to_primal(dual)
    MetricalConnection(spec, metric, primal).coefficients_at(env)
    entries = {id(e) for c in (dual, primal) for mat in c.mats for row in mat for e in row}
    assert not [e for e in expanded if id(e) in entries]
    monkeypatch.undo()
    for c in (dual, primal, primal_to_dual(primal)):
        assert repr(c.terms) == repr(type(c)(spec, c.mats).terms)


# ------------------------------------------- first-order chart covariance --


def test_transform_primal_first_order_squaring_chart():
    # xbar = x^2: the weighted Jacobian blocks have closed forms
    #   Jx = 2 x^alpha, Jyy = 2^alpha x^(alpha^2),
    #   Jyx = alpha 2^alpha x^(alpha^2 - alpha) y^alpha.
    alpha, x, y, c = 0.4, 1.3, 0.9, 0.7
    spec = BundleSpec(1, 1, alpha)
    cm = ChartMap((parse("x1^2"),))
    N = PrimalCoefficients(spec, (((parse("0.7"),),),))
    jp = JetPoint((x,), ((y,),))
    Jx = 2 * x**alpha
    Jyy = 2**alpha * x**alpha**2
    Jyx = alpha * 2**alpha * x ** (alpha**2 - alpha) * y**alpha
    expected = (Jyy * c - Jyx) / Jx
    got = transform_primal_first_order(cm, spec, N, jp)
    assert got[0, 0] == pytest.approx(expected, rel=1e-12)
    assert horizontal_transform_residual(cm, spec, N, jp) < 1e-12


def test_transform_primal_requires_first_order():
    spec = BundleSpec(1, 2, 0.4)
    N = PrimalCoefficients(spec, (((parse("0.0"),),), ((parse("0.0"),),)))
    jp = JetPoint((1.0,), ((1.0,), (1.0,)))
    with pytest.raises(DomainError):
        transform_primal_first_order(ChartMap((parse("x1^2"),)), spec, N, jp)
