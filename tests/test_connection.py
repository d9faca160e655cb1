"""Metrical connection: adapted derivations, compatibility, covariant
derivative, and the lifted bundle metric."""

import sys
from pathlib import Path

import numpy as np
import pytest

import _reference_builders as ref
from fracosc import cli, expr
from fracosc.bundle import (
    BundleSpec,
    DualCoefficients,
    JetPoint,
    PrimalCoefficients,
    dual_to_primal,
    pairing_residual,
    spray_to_dual,
)
from fracosc.connection import MetricField, MetricalConnection, _nabla_g_norm, sasaki_lift
from fracosc.errors import DomainError, SingularityError
from fracosc.expr import evaluate, parse, terms_to_expr, to_str
from fracosc.specfun import gamma


def _zero_primal(spec):
    z = parse("0.0")
    mats = tuple(
        tuple(tuple(z for _ in range(spec.n)) for _ in range(spec.n))
        for _ in range(spec.k)
    )
    return PrimalCoefficients(spec, mats)


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


def _jet_env(rng, spec):
    vals = rng.uniform(0.5, 2.0, size=(spec.k + 1, spec.n))
    return JetPoint(tuple(vals[0]), tuple(tuple(r) for r in vals[1:])).env()


SPEC22 = BundleSpec(2, 2, 0.4)

FLAT = MetricField.from_matrix(
    SPEC22, ((parse("1.0"), parse("0.0")), (parse("0.0"), parse("1.0")))
)
BASE_DIAG = MetricField.from_matrix(
    SPEC22, ((parse("x1^2"), parse("0.0")), (parse("0.0"), parse("x1*x2")))
)
JET_FULL = MetricField.from_matrix(
    SPEC22,
    (
        (parse("1.0 + y1_1^2"), parse("0.5*x1")),
        (parse("0.5*x1"), parse("2.0 + x2^2")),
    ),
)


def test_metric_shared_storage_and_symmetry():
    assert JET_FULL.entry(0, 1) is JET_FULL.entry(1, 0)
    with pytest.raises(DomainError):
        MetricField.from_matrix(
            SPEC22, ((parse("1.0"), parse("x1")), (parse("x2"), parse("1.0")))
        )
    env = {"x1": 1.2, "x2": 0.7, "y1_1": 0.9, "y2_1": 1.1, "y1_2": 0.4, "y2_2": 1.3}
    g = JET_FULL.evaluate_at(env)
    assert g[0, 1] == g[1, 0] == 0.6
    assert np.allclose(JET_FULL.inverse_at(env) @ g, np.eye(2))


def test_metric_shape_validation():
    with pytest.raises(DomainError):
        MetricField.from_matrix(SPEC22, ((parse("1.0"),),))


def test_singular_metric_raises_singularity_error():
    zero = MetricField.from_matrix(SPEC22, ((parse("0"), parse("0")), (parse("0"), parse("0"))))
    with pytest.raises(SingularityError, match="singular"):
        zero.inverse_at({})


def test_delta_x_reduces_to_fractional_partial_for_zero_primal():
    conn = MetricalConnection(SPEC22, BASE_DIAG, _zero_primal(SPEC22))
    d = conn.delta_x(parse("x1^2"), 0)
    env = {"x1": 1.3}
    expected = gamma(3.0) / gamma(3.0 - 0.4) * 1.3 ** (2 - 0.4)
    assert evaluate(d, env) == pytest.approx(expected, rel=1e-12)


def test_delta_x_subtracts_connection_term():
    conn = MetricalConnection(SPEC22, BASE_DIAG, _sample_primal(SPEC22))
    f = parse("y1_1^2")
    d = conn.delta_x(f, 0)
    env = {"x1": 1.1, "x2": 0.8, "y1_1": 0.9, "y2_1": 1.2, "y1_2": 0.5, "y2_2": 1.4}
    # Delta_{x_1} f = -N^{(1)1}_1 D^alpha_{y1_1} f  (f depends only on y1_1)
    n11 = evaluate(_sample_primal(SPEC22).order(1)[0][0], env)
    dya = gamma(3.0) / gamma(3.0 - 0.4) * 0.9 ** (2 - 0.4)
    assert evaluate(d, env) == pytest.approx(-n11 * dya, rel=1e-12)


def test_delta_y_level_guard():
    conn = MetricalConnection(SPEC22, FLAT, _zero_primal(SPEC22))
    with pytest.raises(DomainError):
        conn.delta_y(parse("x1"), 3, 0)


def test_base_coefficients_power_metric_closed_form():
    # n=1: g = x^2, N = 0: L^1_11 = Gamma(3)/(2 Gamma(3-alpha)) x^{-alpha}
    spec = BundleSpec(1, 1, 0.4)
    g = MetricField.from_matrix(spec, ((parse("x1^2"),),))
    conn = MetricalConnection(spec, g, _zero_primal(spec))
    env = {"x1": 1.7, "y1_1": 0.6}
    L = conn.coefficients_at(env).L
    expected = gamma(3.0) / (2.0 * gamma(2.6)) * 1.7 ** (-0.4)
    assert L[0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_classical_limit_christoffel():
    spec = BundleSpec(1, 1, 1.0)
    g = MetricField.from_matrix(spec, ((parse("x1^2"),),))
    conn = MetricalConnection(spec, g, _zero_primal(spec))
    env = {"x1": 1.6, "y1_1": 0.9}
    assert conn.coefficients_at(env).L[0, 0, 0] == pytest.approx(1 / 1.6, rel=1e-12)


@pytest.mark.parametrize("metric", [FLAT, BASE_DIAG, JET_FULL])
def test_metricity_holds_for_any_primal(metric):
    conn = MetricalConnection(SPEC22, metric, _sample_primal(SPEC22))
    rng = np.random.default_rng(17)
    for _ in range(5):
        assert conn.metricity_residual(_jet_env(rng, SPEC22)) < 1e-8


def test_fibre_coefficients_vanish_for_base_metric():
    conn = MetricalConnection(SPEC22, BASE_DIAG, _zero_primal(SPEC22))
    rng = np.random.default_rng(4)
    coeff = conn.coefficients_at(_jet_env(rng, SPEC22))
    for Ca in coeff.C:
        assert np.max(np.abs(Ca)) < 1e-14


def test_covariant_derivative_classical_flat():
    spec = BundleSpec(2, 1, 1.0)
    g = MetricField.from_matrix(
        spec, ((parse("1.0"), parse("0.0")), (parse("0.0"), parse("1.0")))
    )
    conn = MetricalConnection(spec, g, _zero_primal(spec))
    T = (parse("x1^2"), parse("x2"))
    out = conn.covariant_derivative_x(T, {"x1": 1.4, "x2": 0.8, "y1_1": 1.0, "y2_1": 1.0})
    assert out == pytest.approx(np.array([[2.8, 0.0], [0.0, 1.0]]))


def test_covariant_derivative_of_metric_vanishes():
    conn = MetricalConnection(SPEC22, JET_FULL, _sample_primal(SPEC22))
    rng = np.random.default_rng(23)
    env = _jet_env(rng, SPEC22)
    T = tuple(
        tuple(JET_FULL.entry(i, j) for j in range(2)) for i in range(2)
    )
    out = conn.covariant_derivative_x(T, env)
    assert np.max(np.abs(out)) < 1e-10


def test_covariant_derivative_shape_guard():
    conn = MetricalConnection(SPEC22, FLAT, _zero_primal(SPEC22))
    with pytest.raises(DomainError):
        conn.covariant_derivative_x((parse("x1"),), {"x1": 1.0, "x2": 1.0})


def test_sasaki_lift_frozen_example():
    spec = BundleSpec(1, 1, 0.5)
    g = MetricField.from_matrix(spec, ((parse("1.0"),),))
    m = 0.7
    M = DualCoefficients(spec, (((parse("0.7"),),),))
    lifted = sasaki_lift(spec, g, M, {"x1": 1.0, "y1_1": 1.0})
    assert lifted == pytest.approx(np.array([[1 + m * m, m], [m, 1.0]]))


def test_sasaki_lift_positive_definite_on_samples():
    from fracosc.bundle import primal_to_dual

    conn_metric = JET_FULL
    M = primal_to_dual(_sample_primal(SPEC22))
    rng = np.random.default_rng(31)
    for _ in range(5):
        env = _jet_env(rng, SPEC22)
        lifted = sasaki_lift(SPEC22, conn_metric, M, env)
        assert np.all(np.linalg.eigvalsh(lifted) > 0)
        assert np.allclose(lifted, lifted.T)


def test_spec_mismatch_guard():
    other = BundleSpec(2, 1, 0.4)
    g_other = MetricField.from_matrix(
        other, ((parse("1.0"), parse("0.0")), (parse("0.0"), parse("1.0")))
    )
    with pytest.raises(DomainError):
        MetricalConnection(SPEC22, g_other, _sample_primal(SPEC22))


@pytest.mark.parametrize("metric", [BASE_DIAG, JET_FULL], ids=["base-diag", "jet-full"])
def test_coefficients_are_bitwise_the_direct_evaluation(metric):
    spec = SPEC22
    conn = MetricalConnection(spec, metric, _sample_primal(spec))
    env = _jet_env(np.random.default_rng(5), spec)
    n = spec.n

    def direct(delta):
        Dg = np.empty((n, n, n))
        for s in range(n):
            for l in range(s, n):
                for j in range(n):
                    Dg[j, s, l] = Dg[j, l, s] = evaluate(delta(metric.entry(s, l), j), env)
        return Dg

    ginv = metric.inverse_at(env)
    Dgs = [direct(conn.delta_x)] + [
        direct(lambda g, j, a=a: conn.delta_y(g, a, j)) for a in range(1, spec.k + 1)
    ]
    for _ in range(2):  # the first call builds the derivations, the second reuses them
        coeff = conn.coefficients_at(env)
        assert np.array_equal(coeff.L, MetricalConnection._levi_civita(ginv, Dgs[0]))
        for C, Dg in zip(coeff.C, Dgs[1:]):
            assert np.array_equal(C, MetricalConnection._levi_civita(ginv, Dg))
    g = metric.evaluate_at(env)
    want = max(_nabla_g_norm(g, Dg, K) for Dg, K in zip(Dgs, (coeff.L,) + coeff.C))
    assert conn.metricity_residual(env) == want


# the third metric keeps an opaque factor in z, a variable no derivation
# touches: its printed form re-expands to a differently keyed factor
DELTA_METRICS = {
    "base-diag": (("0.7*x1^2", "0.0"), ("0.0", "1.3*x1*x2")),
    "jet-full": (("1.0 + 0.37*y1_1^2", "0.3*x1"), ("0.3*x1", "2.0 + 1.7*x2^2")),
    "opaque": (("x1^2/(z + 1)", "0.3*x2*y2_1"), ("0.3*x2*y2_1", "2.9*y1_1^1.5/(z + 2) + x1")),
}


def _dense_primal(spec):
    entries = ["0.7*x1", "1.3*y1_1 + 0.1*x2", "2.9", "x2*y2_1/(z + 3)", "0.37*x1^2"]
    return PrimalCoefficients(spec, tuple(
        tuple(tuple(parse(entries[(b + i + 2 * j) % len(entries)]) for j in range(spec.n))
              for i in range(spec.n))
        for b in range(spec.k)))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", DELTA_METRICS)
def test_adapted_derivations_equal_the_expr_sum_reference(name, k):
    spec = BundleSpec(2, k, 0.4)
    rows = tuple(tuple(parse(e) for e in row) for row in DELTA_METRICS[name])
    metric = MetricField.from_matrix(spec, rows)
    conn = MetricalConnection(spec, metric, _dense_primal(spec))
    # the cached derivations are term sums; their Exprs are the derivations
    built = {(a, j, s, l): terms_to_expr(d) for a, level in enumerate(conn._delta_metric)
             for j, s, l, d in level}
    for s in range(2):
        for l in range(s, 2):
            g = metric.entry(s, l)
            for j in range(2):
                pairs = [(conn.delta_x(g, j), ref.delta_x(conn, g, j), built[0, j, s, l])]
                for a in range(1, k + 1):
                    pairs.append((conn.delta_y(g, a, j), ref.delta_y(conn, g, a, j),
                                  built[a, j, s, l]))
                for got, want, cached in pairs:
                    assert got == want == cached
                    assert repr(got) == repr(want) == repr(cached)


# ------------------------------------------- term sums read out without Exprs


def _count_terms_to_expr(monkeypatch) -> list:
    """The calls of expr.terms_to_expr from now on, through any fracosc module."""
    calls, real = [], expr.terms_to_expr

    def counting(terms):
        calls.append(terms)
        return real(terms)

    for name, module in list(sys.modules.items()):
        if name.startswith("fracosc") and getattr(module, "terms_to_expr", None) is real:
            monkeypatch.setattr(module, "terms_to_expr", counting)
    return calls


def test_connection_subcommand_builds_no_expr_of_a_term_sum(tmp_path, monkeypatch):
    # every coefficient is printed and compiled from its term sum
    calls = _count_terms_to_expr(monkeypatch)
    config = Path(__file__).resolve().parent.parent / "configs" / "connection_demo.cfg"
    assert cli.main(["connection", "--config", str(config), "--out", str(tmp_path / "c.json")]) == 0
    assert calls == []


@pytest.mark.parametrize("n,k", [(2, 2), (3, 3)])
def test_builder_made_coefficients_read_at_a_point_build_no_expr(monkeypatch, n, k):
    spec = BundleSpec(n, k, 0.4)
    G = tuple(parse(f"0.7*x{i}*y{i}_1^2 + 0.3*x{i % n + 1}*y{i % n + 1}_1")
              for i in range(1, n + 1))
    metric = MetricField(spec, tuple(
        tuple(parse(f"1.5 + 0.2*x{i}^2*y{i}_1^2" if i == j else f"0.1*x{i}*x{j}")
              for j in range(i, n + 1)) for i in range(1, n + 1)))
    env = dict(zip(spec.all_names(), np.random.default_rng(n + k).uniform(0.5, 1.5, spec.dim)))
    calls = _count_terms_to_expr(monkeypatch)
    dual = spray_to_dual(spec, G)
    primal = dual_to_primal(dual)
    conn = MetricalConnection(spec, metric, primal)
    conn.coefficients_at(env)
    assert pairing_residual(spec, primal, dual, env) < 1e-12
    assert calls == []
    # the Exprs, built on first read, evaluate and print as the sums do
    monkeypatch.undo()
    for c in (dual, primal):
        given = type(c)(spec, c.mats)
        assert np.array_equal(c.values_at(env), given.values_at(env))
        assert [c.printed(b) for b in range(1, k + 1)] == [given.printed(b) for b in range(1, k + 1)]
