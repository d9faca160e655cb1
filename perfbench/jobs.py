"""Seeded job streams of the three workloads, and the oracle of each job.

A *round* is one pass over a fixed mix of job classes and sizes; only the
inputs (coefficients, exponents, orders, points) change from round to round
and from seed to seed. A run repeats rounds, so the job-size distribution
that the timing statistics see is the same on every seed and every commit,
however many rounds fit in the measured time.

Specs are plain JSON-like dicts drawn from ``random.Random``; they are turned
into callables only when a job runs, so the generator itself never imports
fracosc. Every job class returns ``(run, check)``: ``run()`` is the timed user
action and returns its output; ``check(output)`` compares that output with
an oracle from :mod:`oracles` and returns a :class:`Verdict`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

import oracles as orc

ALPHAS_RELAX = (0.3, 0.5, 0.8)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    cause: str = ""  # why the output failed its oracle
    known: tuple[str, ...] = ()  # set when every failure is a KNOWN_DEFECTS entry


#: Seed-commit failures that the benchmark counts but does not treat as a
#: broken benchmark run. All three are in fracosc.specfun.mittag_leffler.
KNOWN_DEFECTS = {
    "ml-cancel": "finite but wrong value for z <= -1: the alternating series "
                 "loses every digit to cancellation, e.g. E_0.3(-3) -> -31.4",
    "ml-overflow": "DomainError 'gamma overflow' for large negative z, e.g. "
                   "z = -10, where the true value is about 0.05",
    "ml-inf": "inf returned for large positive z instead of the finite value "
              "or an error, e.g. z = 30",
}


def rng_for(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{rnd}")


def round_specs(workload: str, seed: int, rnd: int) -> list[dict]:
    """The job specs of round ``rnd`` of ``workload`` under ``seed``."""
    rng = rng_for(workload, seed, rnd)
    specs = BUILDERS[workload](rng)
    rng.shuffle(specs)
    return specs


def _coef(rng, lo=0.5, hi=2.0, signed=True) -> float:
    c = rng.uniform(lo, hi)
    if signed and rng.random() < 0.5:
        c = -c
    return round(c, 6)


def _exp_multiple(alpha: float, m: int) -> float:
    return round(alpha * m, 12)


def _power_series(rng, alpha: float) -> list:
    """A constant plus two admissible powers, each m*alpha (m = 1..3) or in
    [1, 3]. The term count is fixed because per-point evaluation cost grows
    with it."""
    terms = [[_coef(rng), 0.0]]
    while len(terms) < 3:
        if rng.random() < 0.5:
            e = _exp_multiple(alpha, rng.randint(1, 3))
        else:
            e = round(rng.uniform(1.0, 3.0), 6)
        if e not in [t[1] for t in terms]:
            terms.append([_coef(rng), e])
    return terms


# ------------------------------------------------------------ long-memory --

DERIV_CLASSES = (("gl", "left"), ("gl", "right"), ("l1", "left"))
#: (grid exponent e, scheme, side): two grids per octave 2^8..2^15, the
#: three scheme classes taking turns
LONG_DERIV = [(8 + i // 2, *DERIV_CLASSES[i % 3]) for i in range(16)]
LONG_SOLVE_STEPS = (2000, 4000, 8000)


def long_memory(rng) -> list[dict]:
    specs = []
    for e, scheme, side in LONG_DERIV:
        alpha = round(rng.uniform(0.2, 0.9), 3)
        specs.append({
            "cls": "deriv", "scheme": scheme, "side": side, "alpha": alpha,
            "e": e, "T": rng.choice([1.0, 2.0, 4.0]),
            "series": _power_series(rng, alpha),
        })
    alphas = list(ALPHAS_RELAX)
    rng.shuffle(alphas)
    for steps, alpha in zip(LONG_SOLVE_STEPS, alphas):
        specs.append({
            "cls": "solve", "alpha": alpha, "steps": steps,
            "lam": round(rng.uniform(0.5, 1.5), 6), "x0": round(rng.uniform(0.5, 2.0), 6),
        })
    for scheme in ("gl", "l1", "abm"):
        specs.append({
            "cls": "convergence", "scheme": scheme,
            "alpha": rng.choice(ALPHAS_RELAX), "power": round(rng.uniform(2.0, 3.0), 6),
        })
    return specs


# --------------------------------------------------------- symbolic-build --


def _point(rng, names) -> dict:
    return {name: round(rng.uniform(0.6, 1.4), 6) for name in names}


def _names(n: int, k: int) -> list[str]:
    out = [f"x{i + 1}" for i in range(n)]
    for a in range(1, k + 1):
        out += [f"y{i + 1}_{a}" for i in range(n)]
    return out


def _connection_spec(rng, n: int, k: int) -> dict:
    """Spray and metric whose x-exponents are multiples of alpha, so the
    k-1 fractional derivations inside spray_to_dual stay admissible."""
    alpha = round(rng.uniform(0.3, 0.6), 3)
    spray = []
    for i in range(n):
        terms = [[_coef(rng, 0.2, 1.0), {f"x{i + 1}": _exp_multiple(alpha, rng.randint(1, 3)),
                                         f"y{i + 1}_1": 2.0}]]
        if n > 1:
            j = (i + 1) % n
            terms.append([_coef(rng, 0.1, 0.5), {f"x{j + 1}": _exp_multiple(alpha, rng.randint(1, 3)),
                                                 f"y{i + 1}_1": 1.0, f"y{j + 1}_1": 1.0}])
        spray.append(terms)
    metric = {}
    for i in range(n):
        metric[f"{i + 1}.{i + 1}"] = [
            [round(rng.uniform(2.0, 3.0), 6), {}],
            [round(rng.uniform(0.1, 0.5), 6), {f"x{i + 1}": _exp_multiple(alpha, rng.randint(1, 3))}],
            [round(rng.uniform(0.1, 0.5), 6), {f"y{i + 1}_1": 2.0}],
        ]
        for j in range(i + 1, n):
            metric[f"{i + 1}.{j + 1}"] = [
                [round(rng.uniform(0.05, 0.2), 6), {f"x{i + 1}": _exp_multiple(alpha, rng.randint(1, 2))}],
            ]
    return {"cls": "connection", "n": n, "k": k, "alpha": alpha, "spray": spray,
            "metric": metric, "point": _point(rng, _names(n, k))}


def _el_reference_spec(rng, k: int, samples: int, kind: str) -> dict:
    return {"cls": "el_reference", "kind": kind,
            "alpha": round(rng.uniform(0.2, 0.45), 3), "power": round(rng.uniform(1.5, 3.0), 6),
            "c": round(rng.uniform(0.5, 2.0), 6),
            "coeffs": [round(rng.uniform(0.5, 1.5), 6) for _ in range(k)],
            "samples": samples, "seed": rng.randrange(1 << 30)}


#: exponents (a, b, c, d, e) of the monomial atlases; fixed per job slot
#: because the size of the symbolic prolongation depends on them
ATLASES = [(2.0, 1.0, 1.0, 1.0, 0.5), (3.0, 0.5, 2.0, 2.0, 1.0), (1.5, 2.0, 1.0, 1.0, 1.0)]


def _atlas(variant: int, n: int) -> dict:
    """Monomial chart x -> (x1^a, x1^b x2^c, x3^d x1^e) with positive
    exponents, and its exact inverse."""
    a, b, c, d, e = ATLASES[variant % len(ATLASES)]
    fwd = [{"x1": a}, {"x1": b, "x2": c}]
    inv = [{"x1": 1.0 / a}, {"x2": 1.0 / c, "x1": -b / (a * c)}]
    if n == 3:
        fwd.append({"x3": d, "x1": e})
        inv.append({"x3": 1.0 / d, "x1": -e / (a * d)})
    return {"fwd": fwd, "inv": inv}


def _lagrangian_spec(rng, n: int, k: int) -> dict:
    """Polynomial Lagrangian; fibre exponents >= 2 alpha and x-exponents
    multiples of alpha keep the nested partials of el_residual admissible."""
    alpha = round(rng.uniform(0.25, 0.5), 3)
    terms = []
    for i in range(n):
        terms.append([_coef(rng), {f"x{i + 1}": round(rng.uniform(1.0, 2.5), 6)}])
        for a in range(1, k + 1):
            q = rng.choice([_exp_multiple(alpha, 2), _exp_multiple(alpha, 3), 2.0])
            terms.append([_coef(rng), {f"y{i + 1}_{a}": q}])
        terms.append([_coef(rng, 0.1, 0.5), {f"x{i + 1}": _exp_multiple(alpha, rng.randint(1, 3)),
                                             f"y{i + 1}_1": 2.0}])
    return {"cls": "el_residual", "n": n, "k": k, "alpha": alpha,
            "mode": ("fractional", "classical")[(n + k) % 2], "L": terms,
            "point": _point(rng, _names(n, k + 1))}


def _prolong_spec(rng, n: int) -> dict:
    alpha = round(rng.uniform(0.3, 0.6), 3)
    terms = []
    for i in range(n):
        terms.append([round(rng.uniform(1.0, 2.0), 6), {f"y{i + 1}_1": 2.0}])
        terms.append([round(rng.uniform(0.1, 0.5), 6),
                      {f"x{i + 1}": _exp_multiple(alpha, rng.randint(1, 3)), f"y{i + 1}_1": 2.0}])
        if n > 1:
            j = (i + 1) % n
            terms.append([round(rng.uniform(0.1, 0.3), 6),
                          {f"x{j + 1}": _exp_multiple(alpha, rng.randint(1, 3)), f"y{i + 1}_1": 2.0}])
    return {"cls": "prolong", "n": n, "alpha": alpha, "L": terms,
            "point": _point(rng, _names(n, 1))}


SYMBOLIC_JETS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]


def symbolic_build(rng) -> list[dict]:
    specs = []
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            specs.append(_connection_spec(rng, n, k))
    for k in (1, 2, 3, 4):
        specs.append(_el_reference_spec(rng, k, 5, ("fractional", "classical")[k % 2]))
    for slot, (n, k) in enumerate(SYMBOLIC_JETS):
        specs.append({"cls": "round_trip", "n": n, "k": k, "alpha": round(rng.uniform(0.3, 0.7), 3),
                      "atlas": _atlas(slot, n), "jets": [_point(rng, _names(n, k))]})
    specs.append({"cls": "jet_transform", "n": 2, "k": 4, "alpha": round(rng.uniform(0.3, 0.7), 3),
                  "atlas": _atlas(0, 2), "jet": _point(rng, _names(2, 4))})
    for n in (1, 2):
        for k in (1, 2, 3):
            specs.append(_lagrangian_spec(rng, n, k))
        specs.append(_prolong_spec(rng, n))
    return specs


# -------------------------------------------------------- pointwise-sweep --

POINTWISE_EXACT = (12, 13, 14)
#: (k, jets per job) of the round-trip sweeps
POINTWISE_JETS = [(1, 200), (2, 30), (3, 3)]


def pointwise_sweep(rng) -> list[dict]:
    specs = []
    for e in POINTWISE_EXACT:
        alpha = round(rng.uniform(0.2, 0.9), 3)
        specs.append({"cls": "deriv", "scheme": "exact", "side": "left", "alpha": alpha,
                      "e": e, "T": rng.choice([1.0, 2.0, 4.0]),
                      "series": _power_series(rng, alpha)})
    for n in (1, 2):
        alpha = round(rng.uniform(0.2, 0.45), 3)
        curves = []
        for _ in range(n):
            curves.append({"A": round(rng.uniform(1.0, 3.0), 6), "B": round(rng.uniform(0.5, 2.0), 6),
                           "a0": round(rng.uniform(0.2, 1.0), 6), "a1": round(rng.uniform(0.5, 1.5), 6)})
        specs.append({"cls": "el_curve", "alpha": alpha, "curves": curves,
                      "T": round(rng.uniform(1.0, 3.0), 6), "points": 1500})
    specs.append(_el_reference_spec(rng, 3, 1500, "classical"))
    for slot, (k, count) in enumerate(POINTWISE_JETS):
        specs.append({"cls": "round_trip", "n": 2, "k": k, "alpha": round(rng.uniform(0.3, 0.7), 3),
                      "atlas": _atlas(slot, 2), "jets": [_point(rng, _names(2, k)) for _ in range(count)]})
    spec = _connection_spec(rng, 2, 2)
    spec.update(cls="coefficients", points=[_point(rng, _names(2, 2)) for _ in range(60)])
    specs.append(spec)
    ref = _el_reference_spec(rng, 3, 150, "fractional")
    ref["cls"] = "reference_residual"
    specs.append(ref)
    # the GL fallback costs one evaluation per 1e-4 of T, so T is fixed per job
    specs.append({"cls": "frac_partial_at", "form": "eigen", "alpha": round(rng.uniform(0.3, 0.8), 3),
                  "lam": round(rng.uniform(0.5, 1.5), 6), "q": round(rng.uniform(0.5, 2.0), 6),
                  "T": 0.5, "u": round(rng.uniform(0.6, 1.4), 6)})
    specs.append({"cls": "frac_partial_at", "form": "sqrt", "alpha": round(rng.uniform(0.3, 0.8), 3),
                  "T": 0.8, "u": 1.0, "lam": 1.0, "q": 1.0})
    for alpha in ALPHAS_RELAX:
        z_min = rng.uniform(10.0, 12.0)
        specs.append({"cls": "mittag_leffler", "alpha": alpha, "lam": round(z_min / 10.0**alpha, 6),
                      "points": 400, "zpos": [0.5, 3.0, round(rng.uniform(5.0, 10.0), 6), 30.0]})
    return specs


BUILDERS = {
    "long-memory": long_memory,
    "symbolic-build": symbolic_build,
    "pointwise-sweep": pointwise_sweep,
}


# ================================================================ running ==


def _poly(terms) -> orc.Poly:
    out = orc.Poly()
    for c, powers in terms:
        out = out + orc.Poly({tuple(powers.items()): c})
    return out


def _ok_close(got, want, rel, what) -> Verdict:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not np.all(np.isfinite(got)) or err > rel * scale:
        return Verdict(False, f"{what}: error {err:.3e} > {rel:.1e} x {scale:.3g}")
    return Verdict(True)


def _read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", skiprows=3, ndmin=2)


class Context:
    """What a job needs from the run: the fracosc modules and a scratch dir."""

    def __init__(self, tmpdir: str):
        import fracosc.bundle
        import fracosc.cli
        import fracosc.connection
        import fracosc.errors
        import fracosc.expr
        import fracosc.geometry
        import fracosc.lagrange
        import fracosc.numeric
        import fracosc.series
        import fracosc.specfun

        self.tmpdir = tmpdir
        self.cli = fracosc.cli
        self.expr = fracosc.expr
        self.series = fracosc.series
        self.numeric = fracosc.numeric
        self.specfun = fracosc.specfun
        self.geometry = fracosc.geometry
        self.bundle = fracosc.bundle
        self.connection = fracosc.connection
        self.lagrange = fracosc.lagrange
        self.errors = fracosc.errors
        self._n = 0

    def path(self, suffix: str) -> str:
        self._n += 1
        return os.path.join(self.tmpdir, f"f{self._n}{suffix}")

    def cleanup(self):
        """Delete the files the last job wrote."""
        for name in os.listdir(self.tmpdir):
            os.remove(os.path.join(self.tmpdir, name))

    def write(self, text: str, suffix: str = ".cfg") -> str:
        p = self.path(suffix)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        return p


def _cfg(pairs) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs)


@dataclass(frozen=True)
class CliRun:
    """Exit code and ``--out`` file of one subcommand run."""

    code: int
    path: str


def _cli(ctx: Context, argv: list[str], suffix: str, check_file):
    """A subcommand job: ``fracosc.cli.main(argv + ['--out', file])``; the
    oracle ``check_file(path)`` runs when the exit code is 0."""
    out = ctx.path(suffix)

    def run():
        return CliRun(ctx.cli.main(argv + ["--out", out]), out)

    def check(result: CliRun) -> Verdict:
        if result.code != 0:
            return Verdict(False, f"exit code {result.code}")
        return check_file(result.path)

    return run, check


# ----------------------------------------------------------------- deriv --


def job_deriv(ctx: Context, s: dict):
    h = s["T"] / 2 ** s["e"]
    argv = ["deriv", "--series", json.dumps(s["series"]), "--alpha", repr(s["alpha"]),
            "--grid", f"0:{s['T']!r}:{h!r}", "--scheme", s["scheme"], "--side", s["side"]]

    def check(path):
        data = _read_csv(path)
        t, f, d = data[:, 0], data[:, 1], data[:, 2]
        if len(t) != 2 ** s["e"] + 1:
            return Verdict(False, f"grid has {len(t)} points")
        v = _ok_close(f, orc.series_values(s["series"], t), 1e-12, "f column")
        if not v.ok:
            return v
        if s["scheme"] == "exact":
            return _ok_close(d, orc.exact_derivative(s["series"], s["alpha"], t), 1e-11, "exact derivative")
        if s["side"] == "right":
            idx = np.linspace(len(t) // 4, len(t) // 2, 4).astype(int)
            want = np.array([orc.right_caputo(s["series"], s["alpha"], t[-1], t[i]) for i in idx])
            bound = 10.0 * h * (1.0 + np.max(np.abs(want)))
            err = np.abs(d[idx] - want)
            if np.any(err > bound):
                return Verdict(False, f"right GL error {err.max():.3e} > bound {bound:.3e}")
            return Verdict(True)
        half = t >= t[-1] / 2
        want = orc.exact_derivative(s["series"], s["alpha"], t[half])
        bound = orc.scheme_bound(s["series"], s["alpha"], h, t[half], s["scheme"])
        err = np.abs(d[half] - want)
        if np.any(err > bound):
            i = int(np.argmax(err / bound))
            return Verdict(False, f"{s['scheme']} error {err[i]:.3e} > bound {bound[i]:.3e}")
        return Verdict(True)

    return _cli(ctx, argv, ".csv", check)


# ----------------------------------------------------------------- solve --


def job_solve(ctx: Context, s: dict):
    h = 10.0 / s["steps"]
    cfg = ctx.write(_cfg([("solve.alpha", repr(s["alpha"])), ("solve.h", repr(h)),
                          ("solve.t_end", "10.0"), ("solve.x0", repr(s["x0"])),
                          ("solve.rhs.1", f"-{s['lam']!r} * x1")]))

    def check(path):
        data = _read_csv(path)
        t, x = data[:, 0], data[:, 1]
        a = s["alpha"]
        tol = solve_tolerance(a, h)
        for i in np.linspace(len(t) // 10, len(t) - 1, 6).astype(int):
            want = s["x0"] * orc.mittag_leffler(a, -s["lam"] * t[i] ** a)
            if abs(x[i] - want) > tol * s["x0"]:
                return Verdict(False, f"x({t[i]:.3g}) off by {abs(x[i] - want):.3e} > {tol * s['x0']:.3e}")
        return Verdict(True)

    return _cli(ctx, ["solve", "--config", cfg], ".csv", check)


def solve_tolerance(alpha: float, h: float) -> float:
    """Bound on the Adams error for the relaxation problem, checked on
    t >= 1: twice the scheme's h^(1+alpha) (relative to x0)."""
    return 2.0 * h ** (1.0 + alpha)


# ----------------------------------------------------------- convergence --

CONV_HS = [2.0**-e for e in range(6, 11)]
#: observed order must lie within this distance of the expected order
CONV_BAND = {"gl": 0.15, "l1": 0.25, "abm": 0.35}


def job_convergence(ctx: Context, s: dict):
    a, scheme = s["alpha"], s["scheme"]
    series, numeric, specfun = ctx.series, ctx.numeric, ctx.specfun

    def run():
        errs = []
        if scheme == "abm":
            for h in CONV_HS:
                res = numeric.solve_fode(lambda t, x: x, np.array([1.0]), a, 1.0, h)
                exact = np.array([specfun.mittag_leffler(a, t**a) for t in res.t])
                errs.append(float(np.max(np.abs(res.x[:, 0] - exact))))
        else:
            f = series.FracSeries.monomial(1.0, s["power"])
            d = series.frac_derive(f, a)
            fn = numeric.gl_derivative if scheme == "gl" else numeric.l1_derivative
            for h in CONV_HS:
                t = h * np.arange(int(round(1.0 / h)) + 1)
                approx = fn(f(t), a, h)
                errs.append(float(np.max(np.abs(approx[1:] - d(t[1:])))))
        return errs, numeric.convergence_order(errs, CONV_HS)

    def check(output):
        errs, order = output
        expected = {"gl": 1.0, "l1": 2.0 - a, "abm": 1.0 + a}[scheme]
        observed = orc.observed_order(errs, CONV_HS)
        if abs(observed - order) > 1e-9:
            return Verdict(False, f"convergence_order {order} != least-squares slope {observed}")
        if abs(observed - expected) > CONV_BAND[scheme]:
            return Verdict(False, f"{scheme} order {observed:.3f} outside {expected:.2f} +- {CONV_BAND[scheme]}")
        return Verdict(True)

    return run, check


# ------------------------------------------------------------ connection --


def _check_dual1(s, dual1, point) -> Verdict:
    """Printed M^(1) of a connection job against dG/dy_1 of the generated spray."""
    n = s["n"]
    for i in range(n):
        G = _poly(s["spray"][i])
        for j in range(n):
            want = G.classical_partial(f"y{j + 1}_1")(point)
            got = orc.eval_printed(orc.compile_printed(dual1[i][j]), point)
            if abs(got - want) > 1e-10 * max(1.0, abs(want)):
                return Verdict(False, f"M1[{i}][{j}] = {got} != dG/dy = {want}")
    return Verdict(True)


def _levi_civita_L(s, primal, point) -> np.ndarray:
    """Base coefficients L = 1/2 g^-1 (D_j g_sl + D_l g_js - D_s g_jl) with the
    adapted derivative D_j = P_xj - sum_b,m N^(b)_mj P_y(m,b), P the power
    rule on the generated metric and N^(b) evaluated from its printed form."""
    n, k, a = s["n"], s["k"], s["alpha"]
    g = [[None] * n for _ in range(n)]
    for key, terms in s["metric"].items():
        i, j = (int(v) - 1 for v in key.split("."))
        g[i][j] = g[j][i] = _poly(terms)
    N = {b: [[orc.eval_printed(orc.compile_printed(primal[str(b)][m][j]), point)
              for j in range(n)] for m in range(n)] for b in range(1, k + 1)}
    Dg = np.empty((n, n, n))
    for j in range(n):
        for r in range(n):
            for l in range(n):
                v = g[r][l].frac_partial(f"x{j + 1}", a)(point)
                for b in range(1, k + 1):
                    for m in range(n):
                        v -= N[b][m][j] * g[r][l].frac_partial(f"y{m + 1}_{b}", a)(point)
                Dg[j, r, l] = v
    gv = np.array([[g[i][j](point) for j in range(n)] for i in range(n)])
    B = Dg.transpose(1, 0, 2) + Dg.transpose(2, 1, 0) - Dg
    return 0.5 * np.einsum("is,sjl->ijl", np.linalg.inv(gv), B)


def job_connection(ctx: Context, s: dict):
    n, k = s["n"], s["k"]
    pairs = [("bundle.alpha", repr(s["alpha"])), ("bundle.k", k), ("bundle.n", n)]
    pairs += [(f"spray.{i + 1}", _poly(s["spray"][i]).to_text()) for i in range(n)]
    pairs += [(f"metric.{key}", _poly(t).to_text()) for key, t in s["metric"].items()]
    pairs += [(f"point.{name}", repr(v)) for name, v in s["point"].items()]
    cfg = ctx.write(_cfg(pairs))

    def check(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["checks"]["pairing_residual"] > 1e-12:
            return Verdict(False, f"pairing residual {doc['checks']['pairing_residual']:.3e}")
        if doc["checks"]["metricity_residual"] > 1e-10:
            return Verdict(False, f"metricity residual {doc['checks']['metricity_residual']:.3e}")
        if doc["primal"]["1"] != doc["dual"]["1"]:
            return Verdict(False, "N1 != M1")
        v = _check_dual1(s, doc["dual"]["1"], s["point"])
        if not v.ok:
            return v
        return _ok_close(doc["metrical"]["L"], _levi_civita_L(s, doc["primal"], s["point"]), 1e-9,
                         "Levi-Civita L")

    return _cli(ctx, ["connection", "--config", cfg], ".json", check)


def job_coefficients(ctx: Context, s: dict):
    """Build a metrical connection once, then coefficients_at many points."""
    n, k, a = s["n"], s["k"], s["alpha"]
    ex, bd, cn = ctx.expr, ctx.bundle, ctx.connection
    spray_text = [_poly(t).to_text() for t in s["spray"]]
    metric_text = {key: _poly(t).to_text() for key, t in s["metric"].items()}

    def run():
        spec = bd.BundleSpec(n, k, a)
        primal = bd.dual_to_primal(bd.spray_to_dual(spec, tuple(ex.parse(g) for g in spray_text)))
        rows = [[None] * n for _ in range(n)]
        for key, text in metric_text.items():
            i, j = (int(v) - 1 for v in key.split("."))
            rows[i][j] = rows[j][i] = ex.parse(text)
        metric = cn.MetricField.from_matrix(spec, tuple(tuple(r) for r in rows))
        conn = cn.MetricalConnection(spec, metric, primal)
        coeffs = [conn.coefficients_at(p) for p in s["points"]]
        printed = {str(b): [[ex.to_str(primal.order(b)[m][j]) for j in range(n)] for m in range(n)]
                   for b in range(1, k + 1)}
        return coeffs, printed

    def check(output):
        coeffs, printed = output
        for idx in (0, len(s["points"]) // 2, len(s["points"]) - 1):
            want = _levi_civita_L(s, printed, s["points"][idx])
            v = _ok_close(coeffs[idx].L, want, 1e-9, f"L at point {idx}")
            if not v.ok:
                return v
        return Verdict(True)

    return run, check


# -------------------------------------------------------------------- el --


def _reference_closed_form(s, env):
    """Target of the reference family (see lagrange.reference_problem_*)."""
    a, p, c = s["alpha"], s["power"], s["c"]
    val = c * orc.gamma_ratio(1 + p, 1 + p - a) * env["x1"] ** (p - a)
    for i, ai in enumerate(s["coeffs"], start=1):
        val += ai * math.gamma(1 + a * (i + 1)) * env[f"y1_{i + 1}"]
    return val


def _check_target(s, target_text) -> Verdict:
    env = {"x1": 1.3, **{f"y1_{i}": 0.7 + 0.1 * i for i in range(1, len(s["coeffs"]) + 2)}}
    got = orc.eval_printed(orc.compile_printed(target_text), env)
    want = _reference_closed_form(s, env)
    if abs(got - want) > 1e-12 * max(1.0, abs(want)):
        return Verdict(False, f"printed target {got} != closed form {want}")
    return Verdict(True)


def _reference_tolerance(s) -> float:
    return 1e-10 * (1.0 + sum(s["coeffs"]))


def job_el_reference(ctx: Context, s: dict):
    cfg = ctx.write(_cfg([("el.mode", "reference"), ("el.kind", s["kind"]),
                          ("el.alpha", repr(s["alpha"])), ("el.power", repr(s["power"])),
                          ("el.c", repr(s["c"])), ("el.coeffs", ", ".join(map(repr, s["coeffs"]))),
                          ("el.samples", s["samples"]), ("el.seed", s["seed"])]))

    def check(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["samples"] != s["samples"] or doc["k"] != len(s["coeffs"]):
            return Verdict(False, "run shape differs from the config")
        if doc["max_residual"] > _reference_tolerance(s):
            return Verdict(False, f"max residual {doc['max_residual']:.3e}")
        return _check_target(s, doc["target"])

    return _cli(ctx, ["el", "--config", cfg], ".json", check)


def job_reference_residual(ctx: Context, s: dict):
    """el_reproduction.py: one problem, reference_residual per random sample."""
    lg, ex = ctx.lagrange, ctx.expr
    build = lg.reference_problem_fractional if s["kind"] == "fractional" else lg.reference_problem_classical

    def run():
        prob = build(s["alpha"], s["power"], s["c"], tuple(s["coeffs"]))
        rng = np.random.default_rng(s["seed"])
        out = []
        for _ in range(s["samples"]):
            env = {"x1": rng.uniform(0.5, 2.0)}
            for a in range(1, prob.spec.k + 2):
                env[f"y1_{a}"] = rng.uniform(0.5, 2.0)
            out.append(lg.reference_residual(prob, env))
        return out, ex.to_str(prob.target)

    def check(output):
        res, target = output
        if max(res) > _reference_tolerance(s):
            return Verdict(False, f"max residual {max(res):.3e}")
        return _check_target(s, target)

    return run, check


def job_el_curve(ctx: Context, s: dict):
    """Exact extremals of L = sum_i A_i y_i1^(2a) + B_i x_i^a: x_i(t) = a0 +
    a1 t^a + G0 t^(2a), G0 = B Gamma(1+a) / (A Gamma(1+2a)); the residual is
    zero along them."""
    a = s["alpha"]
    pairs = [("el.mode", "curve"), ("el.kind", "fractional"), ("el.alpha", repr(a)), ("el.k", 1)]
    L, scale = [], 0.0
    for i, c in enumerate(s["curves"], start=1):
        L.append(f"{c['A']!r} * y{i}_1^{2 * a!r} + {c['B']!r} * x{i}^{a!r}")
        g0 = c["B"] * math.gamma(1 + a) / (c["A"] * math.gamma(1 + 2 * a))
        pairs.append((f"curve.x{i}", json.dumps([[c["a0"], 0.0], [c["a1"], a], [g0, 2 * a]])))
        scale = max(scale, c["B"] * math.gamma(1 + a))
    h = (s["T"] - 0.05) / (s["points"] - 1)
    pairs += [("el.lagrangian", " + ".join(L)), ("el.grid", f"0.05:{s['T']!r}:{h!r}")]
    cfg = ctx.write(_cfg(pairs))

    def check(path):
        data = _read_csv(path)
        if data.shape != (s["points"], 1 + len(s["curves"])):
            return Verdict(False, f"output shape {data.shape}")
        worst = float(np.max(np.abs(data[:, 1:])))
        if worst > 1e-11 * max(1.0, scale):
            return Verdict(False, f"residual {worst:.3e} along an exact extremal")
        return Verdict(True)

    return _cli(ctx, ["el", "--config", cfg], ".csv", check)


def job_el_residual(ctx: Context, s: dict):
    n, k, a, mode = s["n"], s["k"], s["alpha"], s["mode"]
    ex, bd, lg = ctx.expr, ctx.bundle, ctx.lagrange
    text = _poly(s["L"]).to_text()

    def run():
        E = lg.el_residual(bd.BundleSpec(n, k, a), ex.parse(text), mode)
        return [ex.evaluate(e, s["point"]) for e in E]

    def check(output):
        want = [e(s["point"]) for e in orc.el_residual(_poly(s["L"]), n, k, a, mode)]
        return _ok_close(output, want, 1e-10, "Euler-Lagrange residual")

    return run, check


def job_prolong(ctx: Context, s: dict):
    """prolong_lagrange of L = sum_i g_i(x) y_i1^2: fundamental tensor diag(g),
    spray G^i = 1/2 Gamma^i_pm y_p y_m with the power-rule Christoffels."""
    n, a = s["n"], s["alpha"]
    ex, bd, lg = ctx.expr, ctx.bundle, ctx.lagrange
    text = _poly(s["L"]).to_text()

    def run():
        pro = lg.prolong_lagrange(bd.BundleSpec(n, 1, a), ex.parse(text))
        return [ex.evaluate(g, s["point"]) for g in pro.spray]

    def check(output):
        L = _poly(s["L"])
        env = s["point"]
        g = [L.classical_partial(f"y{i + 1}_1").classical_partial(f"y{i + 1}_1").scaled(0.5)
             for i in range(n)]
        # Dg[i][j] = D^a_xj g_ii; Gamma^i_pm = g_ii^-1 / 2 (Dg_ip [i=m] + Dg_im [i=p] - Dg_pi [p=m])
        Dg = [[g[i].frac_partial(f"x{j + 1}", a)(env) for j in range(n)] for i in range(n)]
        y = [env[f"y{i + 1}_1"] for i in range(n)]
        want = []
        for i in range(n):
            total = 0.0
            for p in range(n):
                for m in range(n):
                    gam = 0.5 / g[i](env) * ((Dg[i][p] if i == m else 0.0) + (Dg[i][m] if i == p else 0.0)
                                             - (Dg[p][i] if p == m else 0.0))
                    total += 0.5 * gam * y[p] * y[m]
            want.append(total)
        return _ok_close(output, want, 1e-10, "prolongation spray")

    return run, check


# --------------------------------------------------------------- bundle --


def _chart_text(comps) -> list[str]:
    return [_poly([[1.0, c]]).to_text() for c in comps]


def _chart_value(comp: dict, env: dict) -> float:
    v = 1.0
    for name, p in comp.items():
        v *= env[name] ** p
    return v


def _level_check(comps, levels_text, values, alpha, n, k, jet) -> Verdict:
    """Level 0 from the chart, level 1 from the closed-form weighted
    Jacobian, levels >= 2 from the prolongation recursion applied to the
    printed previous level with central differences."""
    xs = [f"x{i + 1}" for i in range(n)]
    want0 = [_chart_value(c, jet) for c in comps]
    v = _ok_close(values[0], want0, 1e-12, "level 0")
    if not v.ok:
        return v
    want1 = []
    for i, c in enumerate(comps):
        acc = 0.0
        for j, x in enumerate(xs):
            p = c.get(x, 0.0)
            if p:
                d = p * want0[i] / jet[x]
                acc += want0[i] ** (alpha - 1) * d * jet[x] ** (1 - alpha) * jet[f"y{j + 1}_1"]
        want1.append(acc)
    v = _ok_close(values[1], want1, 1e-11, "level 1")
    if not v.ok:
        return v
    for lev in range(2, k + 1):
        prev = [orc.compile_printed(t) for t in levels_text[lev - 1]]
        w_a = orc.rung_weight(alpha, lev)
        want = []
        for i in range(n):
            f0 = orc.eval_printed(prev[i], jet)
            acc = 0.0
            for b in range(1, lev + 1):
                names = xs if b == 1 else [f"y{j + 1}_{b - 1}" for j in range(n)]
                for j, v_name in enumerate(names):
                    step = 1e-5 * jet[v_name]
                    up, dn = dict(jet), dict(jet)
                    up[v_name] += step
                    dn[v_name] -= step
                    dfd = (orc.eval_printed(prev[i], up) - orc.eval_printed(prev[i], dn)) / (2 * step)
                    weighted = f0 ** (alpha - 1) * dfd * jet[v_name] ** (1 - alpha)
                    acc += orc.rung_weight(alpha, b) / w_a * weighted * jet[f"y{j + 1}_{b}"]
            want.append(acc)
        v = _ok_close(values[lev], want, 1e-6, f"level {lev}")
        if not v.ok:
            return v
    return Verdict(True)


def job_jet_transform(ctx: Context, s: dict):
    """Build one k-order prolongation and evaluate it at one jet."""
    n, k, a = s["n"], s["k"], s["alpha"]
    ex, bd, geo = ctx.expr, ctx.bundle, ctx.geometry
    comps = _chart_text(s["atlas"]["fwd"])

    def run():
        levels = bd.jet_transform(geo.ChartMap(tuple(ex.parse(c) for c in comps)), bd.BundleSpec(n, k, a))
        values = [[ex.evaluate(e, s["jet"]) for e in lev] for lev in levels]
        return levels, values

    def check(output):
        levels, values = output
        text = [[ctx.expr.to_str(e) for e in lev] for lev in levels]
        return _level_check(s["atlas"]["fwd"], text, values, a, n, k, s["jet"])

    return run, check


def round_trip_tolerance(k: int) -> float:
    return {1: 1e-12, 2: 1e-11, 3: 1e-10}[k]


def job_round_trip(ctx: Context, s: dict):
    """jet_round_trip_residual at each jet, plus the forward image of the
    first jet, whose base point must be the chart's value."""
    n, k, a = s["n"], s["k"], s["alpha"]
    ex, bd, geo = ctx.expr, ctx.bundle, ctx.geometry
    fwd, inv = _chart_text(s["atlas"]["fwd"]), _chart_text(s["atlas"]["inv"])

    def jet_point(env):
        return bd.JetPoint(tuple(env[f"x{i + 1}"] for i in range(n)),
                           tuple(tuple(env[f"y{i + 1}_{b}"] for i in range(n)) for b in range(1, k + 1)))

    def run():
        F = geo.ChartMap(tuple(ex.parse(c) for c in fwd))
        G = geo.ChartMap(tuple(ex.parse(c) for c in inv))
        spec = bd.BundleSpec(n, k, a)
        res = [bd.jet_round_trip_residual(F, G, spec, jet_point(j)) for j in s["jets"]]
        image = bd.transform_jet_point(F, spec, jet_point(s["jets"][0]))
        return res, image

    def check(output):
        res, image = output
        tol = round_trip_tolerance(k)
        if not all(math.isfinite(r) and r <= tol for r in res):
            return Verdict(False, f"round-trip residual {max(res):.3e} > {tol:.0e}")
        want0 = [_chart_value(c, s["jets"][0]) for c in s["atlas"]["fwd"]]
        return _ok_close(image.x, want0, 1e-12, "forward image")

    return run, check


# ------------------------------------------------------- pointwise special --


def fallback_tolerance(h: float, scale: float) -> float:
    """Bound of the first-order GL fallback with step h (1e-4 by default):
    20 h |value|, plus a rounding floor."""
    return 20.0 * h * scale + 1e-12


def job_frac_partial_at(ctx: Context, s: dict):
    a, T, u = s["alpha"], s["T"], s["u"]
    ex = ctx.expr
    if s["form"] == "eigen":
        text = f"x2^{s['q']!r} * ml({a!r}, {s['lam']!r} * x1^{a!r})"
    else:
        text = "(1 + x1^2)^0.5 * x2"

    def run():
        return ex.frac_partial_at(ex.parse(text), "x1", a, {"x1": T, "x2": u})

    def check(got):
        if s["form"] == "eigen":
            ml = orc.mittag_leffler(a, s["lam"] * T**a)
            want = s["lam"] * u ** s["q"] * ml
        else:
            want = u * orc.left_caputo(lambda x: x / (1 + x * x) ** 0.5, a, T)
        tol = fallback_tolerance(1e-4, abs(want))
        if not abs(got - want) <= tol:
            return Verdict(False, f"frac_partial_at {got} vs {want} (tol {tol:.2e})")
        return Verdict(True)

    return run, check


def ml_points(s: dict) -> list[float]:
    t = np.linspace(0.0, 10.0, s["points"])
    return [float(-s["lam"] * v ** s["alpha"]) for v in t] + list(s["zpos"])


def job_mittag_leffler(ctx: Context, s: dict):
    a = s["alpha"]
    zs = ml_points(s)
    specfun, err = ctx.specfun, ctx.errors

    def run():
        out = []
        for z in zs:
            try:
                out.append(specfun.mittag_leffler(a, z))
            except err.FracoscError as exc:
                out.append(exc)
        return out

    def check(values):
        neg = [i for i, z in enumerate(zs) if z < 0]
        probe = sorted(set(np.linspace(neg[0], neg[-1], 10).astype(int).tolist()))
        probe += list(range(len(zs) - len(s["zpos"]), len(zs)))
        causes = set()
        for i in probe:
            z, got = zs[i], values[i]
            want = orc.mittag_leffler(a, z)
            cause = _ml_cause(z, got, want)
            if cause:
                causes.add(cause)
        if not causes:
            return Verdict(True)
        unknown = sorted(c for c in causes if c not in KNOWN_DEFECTS)
        if unknown:
            return Verdict(False, unknown[0])
        return Verdict(False, ", ".join(sorted(causes)), known=tuple(sorted(causes)))

    return run, check


def _ml_cause(z, got, want) -> str:
    if want is orc.OVERFLOW:
        if isinstance(got, Exception):
            return ""
        return "ml-inf" if got == math.inf else f"E({z}) = {got!r} where the true value overflows"
    if isinstance(got, Exception):
        if z <= -1 and "overflow" in str(got):
            return "ml-overflow"
        return f"E({z}) raised {type(got).__name__}: {got}"
    if orc.ml_matches(got, want):
        return ""
    if z > 0 and got == math.inf:
        return "ml-inf"
    if z <= -1 and math.isfinite(got):
        return "ml-cancel"
    return f"E({z}) = {got!r}, oracle {want!r}"


JOBS = {
    "deriv": job_deriv,
    "solve": job_solve,
    "convergence": job_convergence,
    "connection": job_connection,
    "coefficients": job_coefficients,
    "el_reference": job_el_reference,
    "reference_residual": job_reference_residual,
    "el_curve": job_el_curve,
    "el_residual": job_el_residual,
    "prolong": job_prolong,
    "jet_transform": job_jet_transform,
    "round_trip": job_round_trip,
    "frac_partial_at": job_frac_partial_at,
    "mittag_leffler": job_mittag_leffler,
}


def make_job(ctx: Context, spec: dict):
    return JOBS[spec["cls"]](ctx, spec)


def job_label(spec: dict) -> str:
    """Short class label used in reports: class plus the size knob."""
    cls = spec["cls"]
    if cls == "deriv":
        return f"deriv-{spec['scheme']}-{spec['side']}-2^{spec['e']}"
    if cls == "solve":
        return f"solve-{spec['steps']}"
    if cls in ("connection", "round_trip", "jet_transform"):
        return f"{cls}-n{spec['n']}k{spec['k']}"
    if cls in ("el_reference", "reference_residual"):
        return f"{cls}-k{len(spec['coeffs'])}-s{spec['samples']}"
    return cls


def fingerprint(output) -> bytes:
    """Canonical bytes of a job output, for the traced/untraced comparison:
    a subcommand's exit code and ``--out`` bytes, floats in hex, arrays as
    raw bytes, dataclasses field by field."""
    parts: list[bytes] = []

    def walk(o):
        if isinstance(o, CliRun):
            with open(o.path, "rb") as fh:
                parts.append(repr(o.code).encode() + b":" + fh.read())
        elif isinstance(o, np.ndarray):
            parts.append(repr((o.dtype.str, o.shape)).encode() + o.tobytes())
        elif isinstance(o, (list, tuple)):
            parts.append(b"[")
            for x in o:
                walk(x)
            parts.append(b"]")
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            parts.append(type(o).__name__.encode())
            for f in dataclasses.fields(o):
                walk(getattr(o, f.name))
        elif isinstance(o, BaseException):
            parts.append(f"{type(o).__name__}:{o}".encode())
        elif isinstance(o, float):
            parts.append(o.hex().encode())
        else:
            parts.append(repr(o).encode())

    walk(output)
    return b"|".join(parts)
