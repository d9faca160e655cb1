"""Acceptance gate: one test per criterion, one PASS/FAIL line per test.

Each test prints ``C## PASS/FAIL — measurement (tolerance)`` and then asserts,
so `pytest -s tests/test_acceptance.py` doubles as the sign-off report. The
criteria pin behaviour end to end: exact calculus, discretizations, bundle
geometry, connections, variational equations, prolongations, and the CLI.
"""

import math
import time
from pathlib import Path

import numpy as np

from fracosc.bundle import (
    BundleSpec,
    PrimalCoefficients,
    dual_to_primal,
    liouville_field,
    pairing_residual,
    primal_to_dual,
    spray_field,
    tangent_shift,
    tangent_structure_matrix,
)
from fracosc.cli import main
from fracosc.connection import MetricField, MetricalConnection
from fracosc.expr import (
    Mul,
    Num,
    Pow,
    Var,
    evaluate,
    frac_partial,
    normal_form,
    parse,
)
from fracosc.geometry import ChartMap, frac_exterior_d0, frac_exterior_d1, frac_jacobian
from fracosc.lagrange import (
    alpha_square,
    el_residual,
    prolong_finsler,
    prolong_lagrange,
    prolong_riemann,
    reference_problem_classical,
    reference_problem_fractional,
)
from fracosc.numeric import (
    convergence_order,
    gl_derivative,
    int_by_parts_residual,
    l1_derivative,
    solve_fode,
)
from fracosc.series import (
    FracSeries,
    classical_derive,
    frac_derive,
    leibniz_series,
    ml_reconstruct,
    ml_series,
    semigroup_residual,
    series_distance,
)
from fracosc.specfun import gamma, mittag_leffler

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(cid: str, ok: bool, detail: str) -> bool:
    print(f"{cid} {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


# --------------------------------------------------------------------------


def test_c01_power_rule_exact_and_gl_corroborated():
    """Power rule on 1000 random admissible (exponent, order) pairs against an
    lgamma oracle, residual relative to 1+|value|; GL corroboration at h=1e-3;
    the whole criterion under 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        nu = rng.uniform(0.05, 0.95)
        g = nu + rng.uniform(0.0, 4.0)
        c = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.2, 2.0)
        d = frac_derive(FracSeries.monomial(c, g), nu)
        expected = (
            c * math.exp(math.lgamma(1.0 + g) - math.lgamma(1.0 + g - nu))
            * t ** (g - nu)
        )
        worst = max(worst, abs(d(t) - expected) / (1.0 + abs(expected)))
    f = FracSeries.monomial(1.0, 2.3)
    h = 1e-3
    ts = h * np.arange(1001)
    gl_err = float(np.max(np.abs(gl_derivative(f(ts), 0.5, h) - frac_derive(f, 0.5)(ts))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and gl_err <= 5e-3 and elapsed < 5.0
    assert report(
        "C01", ok,
        f"power rule {worst:.2e} (tol 1e-12), GL {gl_err:.2e} (tol 5e-3), {elapsed:.2f}s (cap 5s)",
    )


def test_c02_semigroup_on_random_series():
    """D^beta f factorizes through D^alpha D^(beta-alpha) on 500 random
    admissible series."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(500):
        beta = rng.uniform(0.3, 1.0)
        alpha = beta * rng.uniform(0.1, 0.9)
        n_terms = rng.integers(1, 5)
        terms = []
        for _ in range(n_terms):
            e = 0.0 if rng.random() < 0.2 else rng.uniform(beta, beta + 4.0)
            terms.append((rng.uniform(-2.0, 2.0), e))
        f = FracSeries(terms)
        worst = max(worst, semigroup_residual(f, alpha, beta))
    ok = worst <= 1e-12
    assert report("C02", ok, f"max semigroup residual {worst:.2e} over 500 series (tol 1e-12)")


def test_c03_classical_limit_monotone():
    """The order-alpha derivative of a fixed series approaches the ordinary
    derivative monotonically over alpha = 0.9, 0.99, 0.999."""
    f = FracSeries([(1.0, 2.0), (0.5, 3.5), (-0.25, 1.0)])
    fp = classical_derive(f)
    ts = np.linspace(0.3, 1.8, 7)
    errs = [
        max(abs(frac_derive(f, a)(t) - fp(t)) for t in ts)
        for a in (0.9, 0.99, 0.999)
    ]
    ok = errs[0] > errs[1] > errs[2]
    assert report(
        "C03", ok,
        "classical-limit errors " + " > ".join(f"{e:.2e}" for e in errs) + " (monotone)",
    )


def test_c04_leibniz_truncation():
    """Truncated fractional product rule at K = 40 against the exact
    derivative of the product, on three documented power pairs."""
    pairs = [
        (FracSeries.monomial(1.0, 1.2), FracSeries.monomial(1.0, 2.0), 0.6),
        (FracSeries.monomial(1.0, 0.5), FracSeries.monomial(1.0, 1.5), 0.5),
        (FracSeries.monomial(1.0, 2.5), FracSeries.monomial(1.0, 0.7), 0.3),
    ]
    ts = np.linspace(0.2, 1.0, 9)
    worst = 0.0
    for f1, f2, a in pairs:
        trunc = leibniz_series(f1, f2, a, 40)
        exact = frac_derive(f1 * f2, a)
        worst = max(worst, max(abs(trunc(t) - exact(t)) for t in ts))
    ok = worst <= 1e-6
    assert report("C04", ok, f"max Leibniz truncation error {worst:.2e} at K=40 (tol 1e-6)")


def test_c05_integration_by_parts_refines():
    """The discretized side of fractional integration by parts converges: the
    residual drops by at least 1.5x per grid halving."""
    f1 = FracSeries([(1.0, 0.7), (-1.0, 2.0)])
    f2 = FracSeries([(1.0, 1.3), (2.0, 0.6)])
    r = [int_by_parts_residual(f1, f2, 0.5, 1.0, n) for n in (400, 800, 1600)]
    ratios = [r[0] / r[1], r[1] / r[2]]
    ok = min(ratios) >= 1.5 and r[2] < 1e-3
    assert report(
        "C05", ok,
        f"residuals {r[0]:.2e}/{r[1]:.2e}/{r[2]:.2e}, halving ratios "
        f"{ratios[0]:.2f}, {ratios[1]:.2f} (floor 1.5)",
    )


def test_c06_mittag_leffler_reconstruction():
    """Rebuilding a series from its fractional jet at the origin (H = 10)
    recovers it exactly when the exponents sit on the alpha lattice."""
    alpha = 0.5
    worst = series_distance(ml_series(alpha, 11), ml_reconstruct(ml_series(alpha, 11), alpha, 10))
    f = FracSeries([(0.7, 0.0), (-1.2, alpha), (0.4, 3 * alpha), (2.0, 7 * alpha)])
    worst = max(worst, series_distance(f, ml_reconstruct(f, alpha, 10)))
    ok = worst <= 1e-12
    assert report("C06", ok, f"reconstruction distance {worst:.2e} with H=10 (tol 1e-12)")


def test_c07_delta_identity_and_commuting_partials():
    """Order-alpha partial of a bare coordinate is diagonal with the pinned
    gamma factor (off-diagonal structurally zero); mixed fractional partials
    commute on 300 random monomials."""
    alpha = 0.45
    delta_ok = True
    for m in range(1, 4):
        for j in range(1, 4):
            d = frac_partial(Var(f"x{m}"), f"x{j}", alpha)
            if m == j:
                x = 1.37
                lhs = evaluate(d, {f"x{m}": x})
                rhs = gamma(2.0) / gamma(2.0 - alpha) * x ** (1.0 - alpha)
                delta_ok = delta_ok and lhs == rhs
            else:
                delta_ok = delta_ok and normal_form(d) == Num(0.0)
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(300):
        a = rng.uniform(0.1, 0.9)
        p = 0.0 if rng.random() < 0.15 else rng.uniform(a, 4.0)
        q = 0.0 if rng.random() < 0.15 else rng.uniform(a, 4.0)
        f = Mul(Num(rng.uniform(-2.0, 2.0)), Mul(Pow(Var("x1"), p), Pow(Var("x2"), q)))
        d12 = frac_partial(frac_partial(f, "x1", a), "x2", a)
        d21 = frac_partial(frac_partial(f, "x2", a), "x1", a)
        env = {"x1": rng.uniform(0.3, 2.0), "x2": rng.uniform(0.3, 2.0)}
        worst = max(worst, abs(evaluate(d12, env) - evaluate(d21, env)))
    ok = delta_ok and worst <= 1e-12
    assert report(
        "C07", ok,
        f"delta identity exact: {delta_ok}, commutator {worst:.2e} on 300 monomials (tol 1e-12)",
    )


def _monomial_map(coeffs, P):
    comps = tuple(
        Mul(Num(c), Mul(Pow(Var("x1"), row[0]), Pow(Var("x2"), row[1])))
        for c, row in zip(coeffs, P)
    )
    return ChartMap(comps)


def test_c08_jacobian_functorial_on_monomial_maps():
    """Weighted Jacobians compose: J(v o u, x) = J(v, u(x)) . J(u, x) on 100
    random monomial chart maps of the positive orthant."""
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(0.2, 0.9)
        cu = rng.uniform(0.5, 1.5, 2)
        cv = rng.uniform(0.5, 1.5, 2)
        Pu = rng.uniform(0.3, 1.8, (2, 2))
        Pv = rng.uniform(0.3, 1.8, (2, 2))
        cw = cv * np.prod(cu ** Pv, axis=1)
        Pw = Pv @ Pu
        u = _monomial_map(cu, Pu)
        v = _monomial_map(cv, Pv)
        w = _monomial_map(cw, Pw)
        x = rng.uniform(0.6, 1.6, 2)
        lhs = frac_jacobian(w, alpha, x)
        rhs = frac_jacobian(v, alpha, u.apply(x)) @ frac_jacobian(u, alpha, x)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-7
    assert report("C08", ok, f"max composition defect {worst:.2e} on 100 maps (tol 1e-7)")


def test_c09_exterior_derivative_nilpotent():
    """d_alpha applied twice to 100 random monomial 0-forms in three
    variables yields the structurally zero two-form."""
    rng = np.random.default_rng(909)
    all_zero = True
    for _ in range(100):
        alpha = rng.uniform(0.2, 0.9)
        powers = [0.0 if rng.random() < 0.2 else rng.uniform(alpha, 3.0) for _ in range(3)]
        f = Num(rng.uniform(-2.0, 2.0))
        for i, p in enumerate(powers):
            f = Mul(f, Pow(Var(f"x{i + 1}"), p))
        dd = frac_exterior_d1(frac_exterior_d0(f, 3, alpha))
        all_zero = all_zero and dd.is_zero
    assert report("C09", all_zero, "d_alpha(d_alpha f) structurally zero on 100 monomial 0-forms")


def test_c10_tangent_structure_nilpotent_with_rank():
    """The tangent endomorphism matrix satisfies J^(k+1) = 0 exactly (integer
    arithmetic), J^k != 0, and rank(J) = k*n for k, n in {1,2,3}."""
    ok = True
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            J = tangent_structure_matrix(BundleSpec(n, k, 0.5))
            ok = ok and not np.any(np.linalg.matrix_power(J, k + 1))
            ok = ok and np.any(np.linalg.matrix_power(J, k))
            ok = ok and np.linalg.matrix_rank(J) == k * n
    assert report("C10", ok, "J^(k+1) = 0, J^k != 0, rank kn for k, n in {1,2,3}")


def test_c11_spray_property():
    """Applying the tangent endomorphism to a spray returns the top dilation
    field, checked at 200 random jet points across three bundle shapes."""
    rng = np.random.default_rng(111)
    shapes = [(1, 2), (2, 2), (2, 3), (3, 1)]
    worst = 0.0
    count = 0
    for n, k in shapes:
        spec = BundleSpec(n, k, 0.5)
        G = tuple(
            parse(f"{rng.uniform(0.5, 1.5):.3f} * x{i + 1}^{rng.uniform(0.4, 1.4):.3f}"
                  f" * y{i + 1}_1^2")
            for i in range(n)
        )
        shifted = tangent_shift(spray_field(spec, G))
        dilation = liouville_field(spec, k)
        for _ in range(50):
            env = {name: rng.uniform(0.5, 1.8) for name in spec.all_names()}
            worst = max(worst, float(np.max(np.abs(shifted.eval_at(env) - dilation.eval_at(env)))))
            count += 1
    ok = worst <= 1e-10 and count == 200
    assert report("C11", ok, f"max |J(spray) - top dilation| {worst:.2e} at {count} jet points (tol 1e-10)")


def test_c12_dual_primal_round_trip_and_pairing():
    """primal -> dual -> primal is the identity and the adapted frame/coframe
    pairing is the identity matrix, on random polynomial connections."""
    rng = np.random.default_rng(121)
    spec = BundleSpec(2, 3, 0.4)
    pool = ["x1", "x2^0.8", "y1_1", "y2_1", "y1_2", "1.0"]
    worst_rt = 0.0
    worst_pair = 0.0
    for _ in range(10):
        mats = tuple(
            tuple(
                tuple(
                    parse(f"{rng.uniform(-0.6, 0.6):.3f} * {pool[rng.integers(len(pool))]}")
                    for _ in range(2)
                )
                for _ in range(2)
            )
            for _ in range(3)
        )
        N = PrimalCoefficients(spec, mats)
        M = primal_to_dual(N)
        back = dual_to_primal(M)
        for _ in range(5):
            env = {name: rng.uniform(0.5, 1.8) for name in spec.all_names()}
            for b in range(1, spec.k + 1):
                for m in range(2):
                    for j in range(2):
                        worst_rt = max(worst_rt, abs(
                            evaluate(back.order(b)[m][j], env)
                            - evaluate(N.order(b)[m][j], env)
                        ))
            worst_pair = max(worst_pair, pairing_residual(spec, N, M, env))
    ok = worst_rt <= 1e-10 and worst_pair <= 1e-10
    assert report(
        "C12", ok,
        f"round-trip defect {worst_rt:.2e}, pairing defect {worst_pair:.2e} (tol 1e-10)",
    )


def test_c13_metricity_on_documented_metrics():
    """The metrical connection kills the covariant derivative of the metric at
    50 random jet points for each of three documented metrics on the (n=2,
    k=2, alpha=0.4) bundle: flat, base-diagonal, and a full jet metric."""
    spec = BundleSpec(2, 2, 0.4)
    metrics = {
        "flat": (("1.0", "0.0"), ("0.0", "1.0")),
        "base-diag": (("x1^2", "0.0"), ("0.0", "2.0 * x2")),
        "jet-full": (("1 + y1_1^2", "0.5 * x1"), ("0.5 * x1", "2 + x2^2")),
    }
    vals = [["0.3 * x1", "0.1 * y1_1"], ["0.2 * x2^0.8", "0.4 * y2_1"]]
    zero = parse("0.0")
    m1 = tuple(tuple(parse(vals[m][j]) for j in range(2)) for m in range(2))
    m2 = tuple(tuple(parse("0.05 * x1") if m == j else zero for j in range(2)) for m in range(2))
    N = PrimalCoefficients(spec, (m1, m2))
    rng = np.random.default_rng(131)
    worst = 0.0
    for rows_txt in metrics.values():
        rows = tuple(tuple(parse(e) for e in r) for r in rows_txt)
        conn = MetricalConnection(spec, MetricField.from_matrix(spec, rows), N)
        for _ in range(50):
            env = {name: rng.uniform(0.5, 1.8) for name in spec.all_names()}
            worst = max(worst, conn.metricity_residual(env))
    ok = worst <= 1e-8
    assert report(
        "C13", ok,
        f"max metricity residual {worst:.2e} over 3 metrics x 50 jet points (tol 1e-8)",
    )


def test_c14_reference_equation_reproduced():
    """Both reference Lagrangians (fractional-power fibres and classical
    squares) reproduce the closed-form equation on 200 random jets each,
    within 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(141)
    worst = 0.0
    for prob in (reference_problem_fractional(), reference_problem_classical()):
        E = el_residual(prob.spec, prob.lagrangian, prob.mode)[0]
        for _ in range(200):
            env = {"x1": rng.uniform(0.5, 2.0)}
            for a in range(1, prob.spec.k + 2):
                env[f"y1_{a}"] = rng.uniform(0.5, 2.0)
            worst = max(worst, abs(evaluate(E, env) - evaluate(prob.target, env)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    assert report(
        "C14", ok,
        f"max |residual - target| {worst:.2e} on 2 x 200 jets (tol 1e-8), {elapsed:.2f}s (cap 10s)",
    )


def test_c15_prolongations_consistent():
    """The metric, energy, and Lagrangian prolongations of matched data agree:
    same spray and same first-order dual coefficients (product metric
    diag(x1^2, 2 x2) on the n=2, k=1, alpha=0.3 bundle)."""
    spec = BundleSpec(2, 1, 0.3)
    zero = parse("0.0")
    rows = ((parse("x1^2"), zero), (zero, parse("2.0 * x2")))
    riem = prolong_riemann(spec, rows)
    energy = alpha_square(spec, (parse("x1^2"), parse("2.0 * x2")))
    fins = prolong_finsler(spec, energy)
    lagr = prolong_lagrange(spec, parse("x1^2 * y1_1^2 + 2.0 * x2 * y2_1^2"))
    rng = np.random.default_rng(151)
    worst = 0.0
    for _ in range(40):
        env = {name: rng.uniform(0.5, 1.8) for name in spec.all_names()}
        for other in (fins, lagr):
            for i in range(2):
                worst = max(worst, abs(
                    evaluate(riem.spray[i], env) - evaluate(other.spray[i], env)
                ))
                for j in range(2):
                    worst = max(worst, abs(
                        evaluate(riem.dual1[i][j], env) - evaluate(other.dual1[i][j], env)
                    ))
    ok = worst <= 1e-8
    assert report("C15", ok, f"max cross-prolongation deviation {worst:.2e} (tol 1e-8)")


def test_c16_fode_solver_and_scheme_orders():
    """The fractional Adams solver hits the Mittag-Leffler eigenfunction of
    D^0.5 at h = 1e-3; empirical orders: GL within 1 +/- 0.2 and L1 within
    (2 - alpha) +/- 0.2."""
    res = solve_fode(lambda t, x: x, [1.0], 0.5, 1.0, 1e-3)
    exact_end = 5.0089800807622834663  # E_{1/2}(1)
    ml_err = abs(mittag_leffler(0.5, 1.0) - exact_end)
    solver_err = abs(res.x[-1, 0] - exact_end)
    f = FracSeries.monomial(1.0, 2.3)
    orders = {}
    for label, alpha, scheme in (("gl", 0.5, gl_derivative), ("l1", 0.5, l1_derivative),
                                 ("l1b", 0.3, l1_derivative)):
        hs = [2.0 ** -e for e in range(6, 10)]
        errs = []
        d = frac_derive(f, alpha)
        for h in hs:
            t = h * np.arange(int(round(1.0 / h)) + 1)
            errs.append(np.max(np.abs(scheme(f(t), alpha, h)[1:] - d(t[1:]))))
        orders[label] = convergence_order(errs, hs)
    ok = (
        solver_err <= 5e-3
        and ml_err <= 1e-12
        and abs(orders["gl"] - 1.0) <= 0.2
        and abs(orders["l1"] - 1.5) <= 0.2
        and abs(orders["l1b"] - 1.7) <= 0.2
    )
    assert report(
        "C16", ok,
        f"solver error {solver_err:.2e} (tol 5e-3), orders GL {orders['gl']:.2f}"
        f" (1±0.2), L1 {orders['l1']:.2f} (1.5±0.2) / {orders['l1b']:.2f} (1.7±0.2)",
    )


def test_c17_cli_deterministic(tmp_path):
    """Repeated CLI runs on the shipped configs produce byte-identical files
    and the documented exit codes (reference run asserts clean, perturbed run
    exits 3)."""
    runs = {
        "el": ["el", "--config", str(CONFIGS / "el_reference.cfg")],
        "conn": ["connection", "--config", str(CONFIGS / "connection_demo.cfg")],
        "solve": ["solve", "--config", str(CONFIGS / "solve_eigen.cfg")],
    }
    identical = True
    for label, argv in runs.items():
        a = tmp_path / f"{label}_a"
        b = tmp_path / f"{label}_b"
        identical = identical and main(argv + ["--out", str(a)]) == 0
        identical = identical and main(argv + ["--out", str(b)]) == 0
        identical = identical and a.read_bytes() == b.read_bytes()
    codes_ok = (
        main(["el", "--config", str(CONFIGS / "el_reference.cfg"), "--assert", "1e-8",
              "--out", str(tmp_path / "ok.json")]) == 0
        and main(["el", "--config", str(CONFIGS / "el_perturbed.cfg"), "--assert", "1e-6",
                  "--out", str(tmp_path / "bad.json")]) == 3
    )
    ok = identical and codes_ok
    assert report("C17", ok, f"byte-identical outputs: {identical}, exit codes 0/3: {codes_ok}")


def test_c18_relaxation_follows_mittag_leffler():
    """D^a x = -lam x, x(0) = x0 on [0, 10] for a = 0.3, 0.5, 0.8: the Adams
    solver at h = 0.005 stays within 2 h^(1+a) x0 of x0 E_a(-lam t^a) on
    t >= 1, with lam = 1.5 taking E_a down to z = -1.5 * 10^a."""
    lam, x0, h = 1.5, 1.0, 0.005
    ratios = []
    for alpha in (0.3, 0.5, 0.8):
        res = solve_fode(lambda t, x: -lam * x, [x0], alpha, 10.0, h)
        late = res.t >= 1.0
        exact = np.array([x0 * mittag_leffler(alpha, -lam * t**alpha) for t in res.t[late]])
        err = float(np.max(np.abs(res.x[late, 0] - exact)))
        ratios.append(err / (2.0 * h ** (1.0 + alpha) * x0))
    ok = max(ratios) <= 1.0
    assert report("C18", ok, "relaxation error / bound 2h^(1+a) at a = 0.3, 0.5, 0.8: "
                  + ", ".join(f"{r:.2e}" for r in ratios) + " (tol 1)")
