"""Command-line interface.

Subcommands
-----------
deriv       evaluate an order-alpha derivative of an expression in t (or a
            power-series given as JSON [[coeff, exponent], ...]) on a grid,
            exactly or by a discretization, writing CSV
el          Euler-Lagrange runs from a config file: ``reference`` mode checks
            the residual of a built-in family against its closed-form target
            on random jet samples; ``curve`` mode evaluates the residual along
            the exact jet of user-supplied curves, writing CSV
connection  build nonlinear-connection data from spray coefficients (dual and
            primal transcripts, metrical coefficients at a point, self-check
            residuals), writing JSON
solve       integrate a fractional ODE system D^alpha x = f(t, x) with the
            Adams-Bashforth-Moulton scheme, writing CSV

Exit codes: 0 success, 1 usage/config/parse problems, 2 domain or evaluation
failures, 3 failed accuracy assertions (``--assert``). Output is byte
deterministic: no timestamps, seeded sampling, canonical float repr. The
exact derivatives of ``deriv --scheme exact`` and the jets of ``el`` curve
mode are series whose coefficients keep their gamma ledger through every
derivative; each is folded once, by ``gamma_product``, when it is evaluated.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .bundle import BundleSpec, dual_to_primal, jet_lift, pairing_residual, spray_to_dual
from .config import get_float, get_floats, get_int, get_str, load_config
from .connection import MetricField, MetricalConnection
from .errors import (
    AccuracyError,
    DomainError,
    EvalError,
    ParseError,
    SingularityError,
)
from .expr import Add, Mul, Num, Pow, Var, compile_exprs, normalize_terms, parse, to_str
from .geometry import base_vars, jet_var
from .lagrange import (
    el_residual,
    reference_problem_classical,
    reference_problem_fractional,
    reference_residual,
)
from .numeric import gl_derivative, l1_derivative, solve_fode
from .series import FracSeries, frac_derive


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems map to exit code 1, not 2
        raise ParseError(message)


def _write(chunks, out: str | None):
    """Write an iterable of text chunks to stdout or to the file ``out``."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


#: rows of a CSV block, converted to Python floats and formatted at a time;
#: a block's text stays near 4 KB (blocks of 256 or 1 024 rows raised the
#: peak RSS of the CSV-writing benchmark workloads round after round)
_CSV_BLOCK = 64


def _csv(meta: dict, columns: list[str], data: list[np.ndarray]):
    """CSV lines of equal-length float64 arrays, one per column, each line
    ending in a newline, produced a block of rows at a time: each cell is
    the ``repr`` of its float, and a block is one ``%r`` row template filled
    with the block's values in row-major order."""
    yield f"# tool=fracosc version={__version__}\n"
    yield "# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n"
    yield ",".join(columns) + "\n"
    row = ",".join(["%r"] * len(data)) + "\n"
    for start in range(0, len(data[0]), _CSV_BLOCK):
        values = np.column_stack([c[start:start + _CSV_BLOCK] for c in data]).ravel().tolist()
        yield row * (len(values) // len(data)) % tuple(values)


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _gate(worst: float, tol: float | None, what: str) -> int:
    """Exit code of an ``--assert`` gate: 3, with one line on stderr, when the
    worst residual exceeds ``tol`` or is NaN; 0 otherwise or without a gate."""
    if tol is None or worst <= tol:
        return 0
    print(f"assertion failed: {what} {worst:.3e} > {tol:.3e}", file=sys.stderr)
    return 3


def _finite(text: str) -> float:
    """argparse type of a number option: a float that is neither NaN nor
    infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


#: the most points a grid, or steps a solve, may have, checked before
#: allocating: 10^7 points are 80 MB a float64 column and about 0.4 GB of CSV text
MAX_GRID_POINTS = 10**7


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid must be start:stop:step, got {text!r}")
    try:
        a, b, h = (float(p) for p in parts)
    except ValueError:
        raise ParseError(f"grid values must be numbers: {text!r}") from None
    if not all(map(math.isfinite, (a, b, h))):
        raise ParseError(f"grid values must be finite: {text!r}")
    if h <= 0 or b <= a:
        raise ParseError("grid needs stop > start and step > 0")
    steps = (b - a) / h + 1e-9
    if not steps < MAX_GRID_POINTS:  # also an infinite count
        raise ParseError(f"grid has more than {MAX_GRID_POINTS} points: {text!r}")
    return a + h * np.arange(math.floor(steps) + 1)


def _series_from_expr(e) -> FracSeries:
    terms = normalize_terms(e)
    for t in terms:
        if t.others:
            raise DomainError("expression is not a pure power series in t")
        for name, _ in t.powers:
            if name != "t":
                raise DomainError(f"unexpected variable {name!r}; expected t")
    return FracSeries.of_terms(terms)


# ------------------------------------------------------------------- deriv --


def cmd_deriv(args) -> int:
    alpha = args.alpha
    if args.side != "left" and args.scheme != "gl":
        raise ParseError(f"{args.scheme} supports only the left-sided derivative")
    ts = _parse_grid(args.grid)
    if args.series is not None:
        f = FracSeries.from_json_text(args.series)
    else:
        f = _series_from_expr(parse(args.expr))
    values = f.evaluate(ts)
    if args.scheme == "exact":
        dvals = frac_derive(f, alpha).evaluate(ts)
    else:
        if ts[0] != 0.0:
            raise ParseError("gl/l1 grids must start at the base point 0")
        if len(ts) < 2:
            raise ParseError("gl/l1 grids need at least two points")
        h = float(ts[1] - ts[0])
        if args.scheme == "gl":
            dvals = gl_derivative(values, alpha, h, side=args.side)
        else:
            dvals = l1_derivative(values, alpha, h)
    meta = {"alpha": repr(alpha), "k": 1, "n": 1, "scheme": args.scheme,
            "config_sha256": "-"}
    _write(_csv(meta, ["t", "f", "d"], [ts, values, dvals]), args.out)
    return 0


# ---------------------------------------------------------------------- el --


def _reference_problem(kind, alpha, power, c, coeffs, perturb):
    if kind == "fractional":
        prob = reference_problem_fractional(alpha, power, c, coeffs)
        fibre_exp = 2.0 * alpha
    else:
        prob = reference_problem_classical(alpha, power, c, coeffs)
        fibre_exp = 2.0
    if perturb != 0.0:
        # deliberately detune the Lagrangian (not the target)
        bad = Add(prob.lagrangian, Mul(Num(perturb), Pow(Var(jet_var(0, 1)), fibre_exp)))
        prob = type(prob)(prob.spec, bad, prob.target, prob.mode)
    return prob


def _el_reference(cfg, sha, tol, out) -> int:
    kind = get_str(cfg, "el.kind", "fractional")
    if kind not in ("fractional", "classical"):
        raise ParseError(f"el.kind must be fractional or classical, got {kind!r}")
    alpha = get_float(cfg, "el.alpha", 0.3)
    power = get_float(cfg, "el.power", 2.0)
    c = get_float(cfg, "el.c", 1.0)
    coeffs = get_floats(cfg, "el.coeffs", (1.0, 1.0, 1.0))
    perturb = get_float(cfg, "el.perturb", 0.0)
    samples = get_int(cfg, "el.samples", 25)
    seed = get_int(cfg, "el.seed", 7)
    for key, value, least in (("el.samples", samples, 1), ("el.seed", seed, 0)):
        if value < least:
            raise ParseError(f"config key {key!r} must be >= {least}, got {value}")
    cfg.check_all_read()
    prob = _reference_problem(kind, alpha, power, c, coeffs, perturb)
    rng = np.random.default_rng(seed)
    names = prob.spec.all_names(prob.spec.k + 1)
    jets = rng.uniform(0.5, 2.0, size=(samples, len(names)))  # row-major: sample by sample
    residuals = reference_residual(prob, dict(zip(names, jets.T)))
    worst = float(np.max(residuals))  # NaN, if any, propagates
    payload = {
        "tool": "fracosc",
        "version": __version__,
        "mode": "reference",
        "kind": kind,
        "alpha": prob.spec.alpha,
        "k": prob.spec.k,
        "n": 1,
        "samples": samples,
        "max_residual": worst,
        "lagrangian": to_str(prob.lagrangian),
        "target": to_str(prob.target),
        "config_sha256": sha,
    }
    _write([_json(payload)], out)
    return _gate(worst, tol, "max residual")


def _el_curve(cfg, sha, tol, out) -> int:
    alpha = get_float(cfg, "el.alpha")
    k = get_int(cfg, "el.k")
    mode = get_str(cfg, "el.kind", "fractional")
    if mode not in ("fractional", "classical"):
        raise ParseError(f"el.kind must be fractional or classical, got {mode!r}")
    L = parse(get_str(cfg, "el.lagrangian"))
    curves = []
    while (key := f"curve.{jet_var(len(curves), 0)}") in cfg:
        curves.append(FracSeries.from_json_text(cfg[key]))
    if not curves:
        raise ParseError("curve mode needs curve.x1 (JSON [[coeff, exponent], ...])")
    spec = BundleSpec(len(curves), k, alpha)
    ts = _parse_grid(get_str(cfg, "el.grid"))
    if ts[0] <= 0.0:
        ts = ts[1:]  # jets of power curves blow up / degenerate at t = 0
    if not len(ts):
        raise ParseError("config key 'el.grid' has no point with t > 0")
    cfg.check_all_read()
    residual = compile_exprs(el_residual(spec, L, mode))
    rows = residual.grid(jet_lift(curves, alpha, k + 1, ts).env())
    meta = {"alpha": repr(alpha), "k": k, "n": spec.n, "config_sha256": sha}
    cols = ["t"] + [f"residual_{i + 1}" for i in range(spec.n)]
    _write(_csv(meta, cols, [ts, *rows]), out)
    return _gate(float(np.max(np.abs(rows), initial=0.0)), tol, "max residual")


def cmd_el(args) -> int:
    cfg, sha = load_config(args.config)
    mode = get_str(cfg, "el.mode", "reference")
    if mode == "reference":
        return _el_reference(cfg, sha, args.assert_tol, args.out)
    if mode == "curve":
        return _el_curve(cfg, sha, args.assert_tol, args.out)
    raise ParseError(f"el.mode must be reference or curve, got {mode!r}")


# -------------------------------------------------------------- connection --


def cmd_connection(args) -> int:
    cfg, sha = load_config(args.config)
    alpha = get_float(cfg, "bundle.alpha")
    k = get_int(cfg, "bundle.k")
    n = get_int(cfg, "bundle.n")
    spec = BundleSpec(n, k, alpha)
    G = tuple(parse(get_str(cfg, f"spray.{i + 1}")) for i in range(n))
    metric = MetricField(spec, tuple(
        tuple(parse(get_str(cfg, f"metric.{i + 1}.{j + 1}")) for j in range(i, n))
        for i in range(n)))
    env = {}
    for name in spec.all_names():
        env[name] = get_float(cfg, f"point.{name}")
    cfg.check_all_read()
    dual = spray_to_dual(spec, G)
    primal = dual_to_primal(dual)
    conn = MetricalConnection(spec, metric, primal)
    coeff = conn.coefficients_at(env)
    payload = {
        "tool": "fracosc",
        "version": __version__,
        "alpha": alpha,
        "k": k,
        "n": n,
        "dual": {
            str(b): [[to_str(dual.order(b)[i][j]) for j in range(n)] for i in range(n)]
            for b in range(1, k + 1)
        },
        "primal": {
            str(b): [[to_str(primal.order(b)[i][j]) for j in range(n)] for i in range(n)]
            for b in range(1, k + 1)
        },
        "metrical": {
            "L": coeff.L.tolist(),
            "C": [c.tolist() for c in coeff.C],
        },
        "checks": {
            "pairing_residual": pairing_residual(spec, primal, dual, env),
            "metricity_residual": conn.metricity_residual(env),
        },
        "config_sha256": sha,
    }
    _write([_json(payload)], args.out)
    worst = float(np.max(list(payload["checks"].values())))
    return _gate(worst, args.assert_tol, "self-check residual")


# ------------------------------------------------------------------- solve --


def cmd_solve(args) -> int:
    cfg, sha = load_config(args.config)
    alpha = get_float(cfg, "solve.alpha")
    h = get_float(cfg, "solve.h")
    t_end = get_float(cfg, "solve.t_end")
    if h > 0 and t_end / h > MAX_GRID_POINTS:  # one CSV row per step
        raise ParseError(f"solve has more than {MAX_GRID_POINTS} steps: t_end={t_end!r}, h={h!r}")
    x0 = np.array(get_floats(cfg, "solve.x0"))
    n = len(x0)
    f = compile_exprs([parse(get_str(cfg, f"solve.rhs.{i + 1}")) for i in range(n)])
    cfg.check_all_read()
    names = base_vars(n)
    env: dict = {}  # refilled at every call; solve_fode converts the tuple

    def rhs(t, s):
        env["t"] = float(t)
        env.update(zip(names, s.tolist()))
        return f(env)

    res = solve_fode(rhs, x0, alpha, t_end, h)
    meta = {"alpha": repr(alpha), "k": 1, "n": n, "config_sha256": sha}
    cols = ["t", *names]
    _write(_csv(meta, cols, [res.t, *res.x.T]), args.out)
    return 0


# -------------------------------------------------------------------- main --


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process (parsing leaves it as is)."""
    p = _Parser(prog="fracosc", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"fracosc {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("deriv", help="order-alpha derivative on a grid")
    src = d.add_mutually_exclusive_group(required=True)
    src.add_argument("--expr", help="expression in t, e.g. 't^2 + 1'")
    src.add_argument("--series", help="JSON [[coeff, exponent], ...]")
    d.add_argument("--alpha", type=_finite, required=True)
    d.add_argument("--grid", required=True, help="start:stop:step")
    d.add_argument("--scheme", choices=("exact", "gl", "l1"), default="exact")
    d.add_argument("--side", choices=("left", "right"), default="left")
    d.add_argument("--out")
    d.set_defaults(func=cmd_deriv)

    e = sub.add_parser("el", help="Euler-Lagrange residual runs")
    e.add_argument("--config", required=True)
    e.add_argument("--assert", dest="assert_tol", type=_finite, default=None,
                   help="exit 3 if the max residual exceeds this")
    e.add_argument("--out")
    e.set_defaults(func=cmd_el)

    c = sub.add_parser("connection", help="nonlinear connection from a spray")
    c.add_argument("--config", required=True)
    c.add_argument("--assert", dest="assert_tol", type=_finite, default=None,
                   help="exit 3 if a self-check residual exceeds this")
    c.add_argument("--out")
    c.set_defaults(func=cmd_connection)

    s = sub.add_parser("solve", help="integrate D^alpha x = f(t, x)")
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.set_defaults(func=cmd_solve)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ParseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, EvalError, SingularityError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("expression error: too long or too deeply nested", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
