"""Self-tests of the benchmark: deterministic generator, oracles that agree
with fracosc where fracosc is right, and transparent wrappers.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import collections
import json
import math
import os
import shutil
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs  # noqa: E402
import oracles as orc  # noqa: E402
import tracing  # noqa: E402

import fracosc.bundle as bd  # noqa: E402
import fracosc.cli as cli  # noqa: E402
import fracosc.expr as ex  # noqa: E402
import fracosc.lagrange as lg  # noqa: E402
from fracosc.errors import DomainError  # noqa: E402
from fracosc.series import FracSeries, frac_derive  # noqa: E402
from fracosc.specfun import mittag_leffler  # noqa: E402

WORKLOADS = sorted(jobs.BUILDERS)


# -------------------------------------------------------------- generator --


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for rnd in range(3):
        assert jobs.round_specs(workload, 7, rnd) == jobs.round_specs(workload, 7, rnd)
    assert jobs.round_specs(workload, 7, 0) != jobs.round_specs(workload, 8, 0)
    assert jobs.round_specs(workload, 7, 0) != jobs.round_specs(workload, 7, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_round_has_the_same_job_mix(workload):
    def mix(seed, rnd):
        return collections.Counter(jobs.job_label(s) for s in jobs.round_specs(workload, seed, rnd))

    assert mix(1, 0) == mix(2, 0) == mix(1, 5)


def test_generated_sprays_and_lagrangians_are_admissible():
    for seed in range(3):
        for spec in jobs.round_specs("symbolic-build", seed, 0):
            if spec["cls"] == "connection" and spec["k"] == 3:
                G = tuple(ex.parse(jobs._poly(t).to_text()) for t in spec["spray"])
                bd.spray_to_dual(bd.BundleSpec(spec["n"], spec["k"], spec["alpha"]), G)
            if spec["cls"] == "el_residual":
                orc.el_residual(jobs._poly(spec["L"]), spec["n"], spec["k"], spec["alpha"], spec["mode"])


def test_inadmissible_input_is_what_the_generator_avoids():
    # x1^1 at alpha = 0.4 leaves x1^0.2 after one derivation: k = 4 fails
    with pytest.raises(DomainError):
        bd.spray_to_dual(bd.BundleSpec(1, 4, 0.4), (ex.parse("x1^1 * y1_1^2"),))


# ---------------------------------------------------------------- oracles --


def test_power_rule_oracle_agrees_with_frac_derive():
    rng = jobs.rng_for("test", 0, 0)
    t = np.linspace(0.0, 3.0, 101)
    for _ in range(20):
        alpha = round(rng.uniform(0.2, 0.9), 3)
        terms = jobs._power_series(rng, alpha)
        d = frac_derive(FracSeries([tuple(x) for x in terms]), alpha)
        np.testing.assert_allclose(d(t), orc.exact_derivative(terms, alpha, t), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(FracSeries([tuple(x) for x in terms])(t),
                                   orc.series_values(terms, t), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("z", [-12.0, -10.0, -3.0, -0.5, 0.5, 2.0, 5.0])
def test_mittag_leffler_oracle_matches_the_half_order_closed_form(z):
    with mp.workdps(40):
        want = float(mp.exp(z * z) * mp.erfc(-z))
    assert orc.mittag_leffler(0.5, z) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("alpha,z", [(0.8, -3.0), (0.8, -1.0), (0.8, 0.5), (0.8, 10.0), (0.8, 30.0),
                                     (0.5, -2.0), (0.5, 1.0), (0.5, 5.0), (0.3, -1.5), (0.3, 3.0)])
def test_mittag_leffler_oracle_agrees_with_fracosc_in_range(alpha, z):
    assert orc.ml_matches(mittag_leffler(alpha, z), orc.mittag_leffler(alpha, z))


def test_mittag_leffler_oracle_reports_overflow():
    assert orc.mittag_leffler(0.5, 30.0) is orc.OVERFLOW


@pytest.mark.parametrize("z,got,cause", [
    (-3.0, -31.40906912686982, "ml-cancel"),
    (-10.0, DomainError("gamma overflow at x=172.0"), "ml-overflow"),
    (30.0, math.inf, "ml-inf"),
    (10.0, math.inf, "ml-inf"),
])
def test_seed_defects_are_classified(z, got, cause):
    alpha = 0.3 if z == -3.0 else 0.5
    assert jobs._ml_cause(z, got, orc.mittag_leffler(alpha, z)) == cause


def test_other_mittag_leffler_failures_are_not_classified_as_known():
    assert jobs._ml_cause(-0.5, 0.7, orc.mittag_leffler(0.5, -0.5)) not in jobs.KNOWN_DEFECTS
    assert jobs._ml_cause(2.0, 1.0, orc.mittag_leffler(0.5, 2.0)) not in jobs.KNOWN_DEFECTS
    assert jobs._ml_cause(-0.5, orc.mittag_leffler(0.5, -0.5), orc.mittag_leffler(0.5, -0.5)) == ""


def test_printed_expressions_evaluate_like_fracosc():
    env = {"x1": 1.3, "x2": 0.7, "y1_1": 0.9}
    for text in ["-x1^2 + 3*x2/x1^0.5", "2.5*(x1 + x2)^2 - -x2", "x1^-0.5*y1_1*gamma(1.5)",
                 "1/(x1*x2)*x1^0.25"]:
        e = ex.parse(text)
        printed = ex.to_str(e)
        assert orc.eval_printed(orc.compile_printed(printed), env) == pytest.approx(
            ex.evaluate(e, env), rel=1e-14)


def test_poly_partials_agree_with_expr():
    p = orc.Poly({(("x1", 0.8), ("y1_1", 2.0)): 1.5, (("x1", 2.0),): -0.5})
    env = {"x1": 1.2, "y1_1": 0.8}
    e = ex.parse(p.to_text())
    for var, alpha in [("x1", 0.4), ("y1_1", 0.4)]:
        assert p.frac_partial(var, alpha)(env) == pytest.approx(
            ex.evaluate(ex.frac_partial(e, var, alpha), env), rel=1e-13)
        assert p.classical_partial(var)(env) == pytest.approx(
            ex.evaluate(ex.classical_partial(e, var), env), rel=1e-13)


def test_poly_el_residual_agrees_with_the_reference_problem():
    prob = lg.reference_problem_fractional(0.3, 2.0, 1.0, (1.0, 0.5))
    L = orc.Poly({(("x1", 2.0),): 1.0})
    for a, a_coeff in enumerate((1.0, 0.5), start=1):
        c_a = (-1.0) ** a * a_coeff * math.gamma(1 + 0.3 * (a + 1)) / math.gamma(1.6)
        L = L + orc.Poly({((f"y1_{a}", 0.6),): c_a})
    env = {"x1": 1.1, "y1_1": 0.8, "y1_2": 1.2, "y1_3": 0.9}
    (E,) = orc.el_residual(L, 1, 2, 0.3, "fractional")
    assert E(env) == pytest.approx(ex.evaluate(prob.target, env), rel=1e-12)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_round_passes_its_oracles(workload, tmp_path):
    """Every job of a round passes, except the listed seed defects."""
    ctx = jobs.Context(str(tmp_path))
    specs = jobs.round_specs(workload, 11, 0)
    if workload == "symbolic-build":
        specs = [s for s in specs if s["cls"] != "jet_transform"]  # the k = 4 build takes seconds
    for spec in specs:
        run, check = jobs.make_job(ctx, spec)
        v = check(run())
        assert v.ok or v.known, (jobs.job_label(spec), v)
        ctx.cleanup()


# ---------------------------------------------------------------- tracing --


def _small_specs():
    specs = [s for s in jobs.round_specs("long-memory", 3, 0) if s["cls"] == "deriv" and s["e"] <= 9]
    specs += [s for s in jobs.round_specs("symbolic-build", 3, 0)
              if s["cls"] in ("connection", "el_reference") and s.get("k", 1) <= 2 and s.get("n", 1) <= 2]
    specs += [s for s in jobs.round_specs("pointwise-sweep", 3, 0)
              if s["cls"] in ("mittag_leffler", "coefficients", "reference_residual")]
    return specs


def test_wrappers_are_transparent_and_removable(tmp_path):
    import fracosc.connection as cn
    import fracosc.series as se

    before = {m.__name__: dict(vars(m)) for m in (cli, ex, bd, cn, lg, se)}
    before_methods = (se.FracSeries.__dict__["evaluate"], cn.MetricalConnection.__dict__["coefficients_at"])
    tracer = tracing.Tracer()
    ctx = jobs.Context(str(tmp_path))
    for spec in _small_specs():
        run, _ = jobs.make_job(ctx, spec)
        plain = jobs.fingerprint(run())
        tracer.install()
        try:
            assert hasattr(cli.evaluate, "__wrapped__") and hasattr(bd.classical_partial, "__wrapped__")
            run, _ = jobs.make_job(ctx, spec)
            traced = jobs.fingerprint(run())
        finally:
            tracer.uninstall()
        assert plain == traced, jobs.job_label(spec)
        ctx.cleanup()
    for m in (cli, ex, bd, cn, lg, se):
        assert all(vars(m)[k] is v for k, v in before[m.__name__].items())
    assert (se.FracSeries.__dict__["evaluate"], cn.MetricalConnection.__dict__["coefficients_at"]) == before_methods
    metrics = tracer.metrics(1.0, 1.0, 0)
    assert metrics["cli.main.calls"] > 0 and metrics["expr.simplify.calls"] > 0


def test_recursive_functions_get_one_span_per_outside_call():
    tracer = tracing.Tracer()
    e = ex.parse("(x1 + 2*x2)^2 * x1 - x2/x1")
    tracer.install()
    try:
        ex.evaluate(e, {"x1": 1.0, "x2": 2.0})
        ex.classical_partial(e, "x1")
    finally:
        tracer.uninstall()
    m = tracer.metrics(1.0, 1.0, 0)
    assert m["expr.evaluate.calls"] == 1
    assert m["expr.classical_partial.calls"] == 1
    assert m["expr.simplify.calls"] > 1  # counted at every level


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.main(["deriv", "--expr", "t^2 + 1", "--alpha", "0.5", "--grid", "0:1:0.001",
                  "--scheme", "gl", "--out", os.devnull])
    finally:
        tracer.uninstall()
    dur = np.array(tracer.span_end) - np.array(tracer.span_start)
    assert np.all(np.array(tracer.span_self) <= dur + 1e-12)
    root = [i for i in range(len(dur)) if tracer.span_parent[i] == -1]
    assert [tracer.names[tracer.span_name[i]] for i in root] == ["cli.main"]
    children = sum(dur[i] for i in range(len(dur)) if tracer.span_parent[i] == root[0])
    assert tracer.span_self[root[0]] == pytest.approx(dur[root[0]] - children, abs=1e-9)


# -------------------------------------------------------------- the command --


def test_benchmark_json_names_what_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "job_s.p50", "job_s.tail", "jobs_per_s", "peak_rss_mb"}


def test_command_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "long-memory", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
