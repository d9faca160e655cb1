"""Outside-in tracing of fracosc's public functions for the traced run.

Wrappers are installed from the benchmark's side, wherever a name is looked
up: every ``fracosc.*`` module global bound to the original function (``from
.x import f`` copies the binding into ``cli``, ``bundle``, ``connection``,
``lagrange`` and ``geometry``; ``frac_partial_at`` imports ``gl_derivative``
lazily from the module), and methods on their class. A wrapper records one
span for the outermost call of its name only, so functions that recurse
through their module globals (``evaluate``, ``classical_partial``, right-sided
``gl_derivative``) give one span per outside call. Count-only wrappers
(``simplify``, ``gamma``, ``GammaProduct.value``) count every call.

Spans live in flat arrays (name, parent, job, start, end, self time) and are
written out once, when the run ends. Self time is a span's duration minus the
durations of its child spans, kept exactly on exit.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from array import array

import numpy as np


def _len0(args, kwargs):
    return len(args[0])


def _steps(args, kwargs):
    # solve_fode(rhs, x0, alpha, t_end, h)
    return int(round(args[3] / args[4]))


#: (metric prefix, module, attribute path, kind, size function)
#: kind: "span" records spans; "count" counts every call.
TARGETS = [
    ("numeric.gl_derivative", "fracosc.numeric", "gl_derivative", "span", _len0),
    ("numeric.l1_derivative", "fracosc.numeric", "l1_derivative", "span", _len0),
    ("numeric.solve_fode", "fracosc.numeric", "solve_fode", "span", _steps),
    ("series.FracSeries.evaluate", "fracosc.series", "FracSeries.evaluate", "span", None),
    ("series.frac_derive", "fracosc.series", "frac_derive", "span", None),
    ("cli.main", "fracosc.cli", "main", "span", None),
    ("config.load_config", "fracosc.config", "load_config", "span", None),
    ("expr.parse", "fracosc.expr", "parse", "span", None),
    ("expr.evaluate", "fracosc.expr", "evaluate", "span", None),
    ("expr.normalize_terms", "fracosc.expr", "normalize_terms", "span", None),
    ("expr.normal_form", "fracosc.expr", "normal_form", "span", None),
    ("expr.frac_partial", "fracosc.expr", "frac_partial", "span", None),
    ("expr.classical_partial", "fracosc.expr", "classical_partial", "span", None),
    ("expr.frac_partial_at", "fracosc.expr", "frac_partial_at", "span", None),
    ("expr.simplify", "fracosc.expr", "simplify", "count", None),
    ("specfun.mittag_leffler", "fracosc.specfun", "mittag_leffler", "span", None),
    ("specfun.gamma", "fracosc.specfun", "gamma", "count", None),
    ("gammaledger.GammaProduct.value", "fracosc.gammaledger", "GammaProduct.value", "count", None),
    ("geometry.weighted_jacobian_exprs", "fracosc.geometry", "weighted_jacobian_exprs", "span", None),
    ("bundle.jet_transform", "fracosc.bundle", "jet_transform", "span", None),
    ("bundle.transform_jet_point", "fracosc.bundle", "transform_jet_point", "span", None),
    ("bundle.jet_lift", "fracosc.bundle", "jet_lift", "span", None),
    ("bundle.spray_to_dual", "fracosc.bundle", "spray_to_dual", "span", None),
    ("bundle.dual_to_primal", "fracosc.bundle", "dual_to_primal", "span", None),
    ("bundle.pairing_residual", "fracosc.bundle", "pairing_residual", "span", None),
    ("connection.MetricalConnection.coefficients_at", "fracosc.connection",
     "MetricalConnection.coefficients_at", "span", None),
    ("connection.MetricalConnection.metricity_residual", "fracosc.connection",
     "MetricalConnection.metricity_residual", "span", None),
    ("lagrange.el_residual", "fracosc.lagrange", "el_residual", "span", None),
    ("lagrange.reference_residual", "fracosc.lagrange", "reference_residual", "span", None),
    ("lagrange.total_jet_derivative", "fracosc.lagrange", "total_jet_derivative", "span", None),
]

#: builders whose outputs are printed after each job for expr.max_expr_chars
EXPR_BUILDERS = {
    "expr.normal_form", "expr.frac_partial", "expr.classical_partial",
    "geometry.weighted_jacobian_exprs", "bundle.jet_transform", "bundle.spray_to_dual",
    "bundle.dual_to_primal", "lagrange.el_residual", "lagrange.total_jet_derivative",
}

NUMERIC = ("numeric.gl_derivative", "numeric.l1_derivative", "numeric.solve_fode")


def history_terms(name: str, size: int) -> int:
    """Products in the direct history sums, from the input size alone:
    GL on N samples sums n+1 weights at node n; L1 sums n differences;
    the Adams solver sums n+1 predictor and n corrector weights at step n."""
    if name == "numeric.gl_derivative":
        return size * (size + 1) // 2
    if name == "numeric.l1_derivative":
        return (size - 1) * size // 2
    return size * size


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run prints."""
    out = []
    for name, _mod, _attr, kind, _size in TARGETS:
        out.append((f"{name}.calls", "count", "lower"))
        if kind == "count":
            continue
        if name != "lagrange.total_jet_derivative":
            out.append((f"{name}.self_s", "s", "lower"))
        if name in NUMERIC:
            out.append((f"{name}.slope", "exponent", "lower"))
        if name in ("expr.frac_partial", "specfun.mittag_leffler"):
            out.append((f"{name}.errors", "count", "lower"))
        if name == "expr.frac_partial_at":
            out.append((f"{name}.symbolic_ratio", "ratio", "higher"))
    out += [
        ("numeric.history_terms", "count", "lower"),
        ("numeric.history_terms_per_s", "1/s", "higher"),
        ("expr.max_expr_chars", "chars", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.top_span_share", "ratio", "higher"),
    ]
    return out


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    """Span recorder; ``install()`` patches fracosc, ``uninstall()`` undoes it."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.errors = [0] * n
        self.active = [False] * n
        self.sizes: dict[int, list] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.stack: list = []
        self.job = -1
        self.built: list = []
        self._patches: list = []
        self._wrappers: list = []
        for idx, (name, module, path, kind, size_fn) in enumerate(TARGETS):
            owner, attr = _resolve(module, path)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if kind == "count":
                wrapper = self._counter(idx, fn)
            else:
                wrapper = self._spanner(idx, fn, size_fn, name in EXPR_BUILDERS)
            self._wrappers.append((owner, attr, fn, wrapper))

    # -- wrappers -------------------------------------------------------------

    def _counter(self, idx, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _spanner(self, idx, fn, size_fn, keeps_output):
        tr = self
        active, calls, errors, stack = self.active, self.calls, self.errors, self.stack
        clock = time.perf_counter
        sizes = self.sizes.setdefault(idx, []) if size_fn else None

        def spanned(*args, **kwargs):
            if active[idx]:
                return fn(*args, **kwargs)
            active[idx] = True
            sid = len(tr.span_start)
            tr.span_name.append(idx)
            tr.span_parent.append(stack[-1][0] if stack else -1)
            tr.span_job.append(tr.job)
            tr.span_start.append(0.0)
            tr.span_end.append(0.0)
            tr.span_self.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[idx] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                active[idx] = False
                dur = t1 - t0
                tr.span_start[sid] = t0
                tr.span_end[sid] = t1
                tr.span_self[sid] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                calls[idx] += 1
                if sizes is not None:
                    sizes.append((size_fn(args, kwargs), sid))
            if keeps_output:
                tr.built.append(out)
            return out

        spanned.__wrapped__ = fn
        return spanned

    # -- installation -----------------------------------------------------------

    def install(self):
        """Bind every wrapper wherever fracosc code looks its name up."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "fracosc" or name.startswith("fracosc.")]
        for owner, attr, fn, wrapper in self._wrappers:
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()

    def take_built(self) -> list:
        out, self.built = self.built, []
        return out

    # -- results ---------------------------------------------------------------

    def metrics(self, traced_s: float, untraced_s: float, max_expr_chars: int) -> dict:
        idx = {name: i for i, name in enumerate(self.names)}
        names = np.array(self.span_name, dtype=np.int64)
        selfs = np.array(self.span_self, dtype=np.float64)
        out = {}
        for metric, _unit, _better in per_layer_metrics():
            prefix, stat = metric.rsplit(".", 1)
            if prefix not in idx:
                continue
            i = idx[prefix]
            if stat == "calls":
                out[metric] = self.calls[i]
            elif stat == "self_s":
                out[metric] = float(selfs[names == i].sum())
            elif stat == "errors":
                out[metric] = self.errors[i]
            elif stat == "slope":
                out[metric] = self._slope(i)
            elif stat == "symbolic_ratio":
                out[metric] = self._symbolic_ratio(i, idx["numeric.gl_derivative"])
        terms, busy = 0, 0.0
        for name in NUMERIC:
            i = idx[name]
            for size, sid in self.sizes.get(i, []):
                terms += history_terms(name, size)
                busy += self.span_self[sid]
        out["numeric.history_terms"] = terms
        out["numeric.history_terms_per_s"] = terms / busy if busy > 0 else 0.0
        out["expr.max_expr_chars"] = max_expr_chars
        out["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s > 0 else 0.0
        top = np.array(self.span_parent, dtype=np.int64) == -1
        dur = np.array(self.span_end, dtype=np.float64) - np.array(self.span_start, dtype=np.float64)
        out["trace.top_span_share"] = float(dur[top].sum()) / traced_s if traced_s > 0 else 0.0
        return out

    def _slope(self, i: int) -> float:
        """Least-squares slope of log self time against log size (0 with
        fewer than two distinct sizes)."""
        pts = [(size, self.span_self[sid]) for size, sid in self.sizes.get(i, [])
               if size > 1 and self.span_self[sid] > 0]
        if len({p[0] for p in pts}) < 2:
            return 0.0
        x = np.log([p[0] for p in pts])
        y = np.log([p[1] for p in pts])
        return float(np.polyfit(x, y, 1)[0])

    def _symbolic_ratio(self, i: int, gl: int) -> float:
        """Share of frac_partial_at calls with no gl_derivative span below
        them (1 when there were no calls)."""
        total = self.calls[i]
        if total == 0:
            return 1.0
        fallback = set()
        for sid in range(len(self.span_name)):
            if self.span_name[sid] != gl:
                continue
            p = self.span_parent[sid]
            while p != -1:
                if self.span_name[p] == i:
                    fallback.add(p)
                    break
                p = self.span_parent[p]
        return 1.0 - len(fallback) / total

    def dump(self, path: str):
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "job", "start", "end", "self"],
            "spans": [self.span_name.tolist(), self.span_parent.tolist(), self.span_job.tolist(),
                      self.span_start.tolist(), self.span_end.tolist(), self.span_self.tolist()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def max_printed_chars(objs, to_str, expr_types) -> int:
    """Largest printed Expr reachable through tuples, lists and dataclasses."""
    best = 0
    todo = list(objs)
    while todo:
        o = todo.pop()
        if isinstance(o, expr_types):
            best = max(best, len(to_str(o)))
        elif isinstance(o, (list, tuple)):
            todo.extend(o)
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            todo.extend(getattr(o, f.name) for f in dataclasses.fields(o))
    return best
