"""Reference copies of the original symbolic builders.

``simplify`` here re-simplifies whole subtrees and ``classical_partial``
simplifies at every recursion level, so both cost far more than the library
versions on large or shared expressions. The geometry builders below
(adapted derivations, Euler-Lagrange residuals, spray and connection
coefficients, prolongations) combine their pieces as Exprs and take the
normal form of the whole sum, re-distributing every piece. ``evaluate`` walks
the unfolded tree, so a shared subtree is computed once per path. They are
kept only as the oracle that the library's builders and its compiled
evaluator must reproduce exactly (``==``, the same printed form including
signed zeros, the same float bits, the same first error). The natural-frame
matrices at the end fill one entry at a time from the slot index a*n + i; the
library assigns whole n x n blocks and must match them byte for byte.
``GammaProduct`` keeps its gamma arguments as two sorted tuples, ``num``
and ``den``; the library's one signed ledger must hold the same multiset and
fold to the same bits. ``mittag_leffler_series`` calls ``gamma`` once per
term; the library's series reads a cached table of the same values and must
return the same bits wherever this loop returns a finite value.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from fracosc.bundle import DualCoefficients, PrimalCoefficients, rung_weight
from fracosc.errors import AccuracyError, DomainError, EvalError
from fracosc.expr import (
    Add, Call, Div, Mul, Neg, Num, Pow, Sub, Var, _pow_value, frac_partial, free_vars,
    normal_form,
)
from fracosc.expr import classical_partial as lib_classical_partial
from fracosc.lagrange import Prolongation, jet_var
from fracosc.specfun import ML_MAX_TERMS, ML_TOL, gamma, mittag_leffler


def evaluate(e, env):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Call):
        vals = [evaluate(a, env) for a in e.args]
        if e.fn == "gamma":
            return gamma(vals[0])
        if e.fn == "ml":
            return mittag_leffler(vals[0], vals[1])
        raise EvalError(f"unknown function {e.fn!r}")
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Add):
        return evaluate(e.left, env) + evaluate(e.right, env)
    if isinstance(e, Sub):
        return evaluate(e.left, env) - evaluate(e.right, env)
    if isinstance(e, Mul):
        return evaluate(e.left, env) * evaluate(e.right, env)
    if isinstance(e, Div):
        denom = evaluate(e.right, env)
        if denom == 0.0:
            raise EvalError("division by zero")
        return evaluate(e.left, env) / denom
    if isinstance(e, Pow):
        base = evaluate(e.base, env)
        return _pow_value(base, e.exponent)
    raise TypeError(f"not an Expr: {e!r}")


def _folded(v):
    if not math.isfinite(v):
        raise DomainError("constant fold overflows")
    return Num(v)


def simplify(e):
    if isinstance(e, (Num, Var)):
        return e
    if isinstance(e, Call):
        return Call(e.fn, tuple(simplify(a) for a in e.args))
    if isinstance(e, Neg):
        a = simplify(e.arg)
        if isinstance(a, Num):
            return Num(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return Neg(a)
    if isinstance(e, Pow):
        b = simplify(e.base)
        if e.exponent == 0.0:
            return Num(1.0)
        if e.exponent == 1.0:
            return b
        if isinstance(b, Num):
            try:
                return Num(_pow_value(b.value, e.exponent))
            except EvalError:
                return Pow(b, e.exponent)
        return Pow(b, e.exponent)
    a, b = simplify(e.left), simplify(e.right)
    if isinstance(e, Add):
        if isinstance(a, Num) and a.value == 0.0:
            return b
        if isinstance(b, Num) and b.value == 0.0:
            return a
        if isinstance(a, Num) and isinstance(b, Num):
            return _folded(a.value + b.value)
        return Add(a, b)
    if isinstance(e, Sub):
        if isinstance(b, Num) and b.value == 0.0:
            return a
        if isinstance(a, Num) and isinstance(b, Num):
            return _folded(a.value - b.value)
        if isinstance(a, Num) and a.value == 0.0:
            return simplify(Neg(b))
        return Sub(a, b)
    if isinstance(e, Mul):
        if isinstance(a, Num):
            if a.value == 0.0:
                return Num(0.0)
            if a.value == 1.0:
                return b
        if isinstance(b, Num):
            if b.value == 0.0:
                return Num(0.0)
            if b.value == 1.0:
                return a
        if isinstance(a, Num) and isinstance(b, Num):
            return _folded(a.value * b.value)
        return Mul(a, b)
    if isinstance(e, Div):
        if isinstance(b, Num) and b.value == 1.0:
            return a
        if isinstance(a, Num) and a.value == 0.0 and not (
            isinstance(b, Num) and b.value == 0.0
        ):
            return Num(0.0)
        if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
            return _folded(a.value / b.value)
        return Div(a, b)
    raise TypeError(f"not an Expr: {e!r}")


def classical_partial(e, var):
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name == var else 0.0)
    if isinstance(e, Call):
        if var in free_vars(e):
            raise DomainError(
                f"classical_partial cannot differentiate through {e.fn}(...) in {var!r}")
        return Num(0.0)
    if isinstance(e, Neg):
        return simplify(Neg(classical_partial(e.arg, var)))
    if isinstance(e, Add):
        return simplify(Add(classical_partial(e.left, var),
                            classical_partial(e.right, var)))
    if isinstance(e, Sub):
        return simplify(Sub(classical_partial(e.left, var),
                            classical_partial(e.right, var)))
    if isinstance(e, Mul):
        return simplify(Add(Mul(classical_partial(e.left, var), e.right),
                            Mul(e.left, classical_partial(e.right, var))))
    if isinstance(e, Div):
        num = Sub(Mul(classical_partial(e.left, var), e.right),
                  Mul(e.left, classical_partial(e.right, var)))
        return simplify(Div(num, Pow(e.right, 2.0)))
    if isinstance(e, Pow):
        inner = classical_partial(e.base, var)
        return simplify(Mul(Mul(Num(e.exponent), Pow(e.base, e.exponent - 1.0)), inner))
    raise TypeError(f"not an Expr: {e!r}")


def weighted_jacobian_exprs(components, source_vars, alpha):
    out = []
    for comp in components:
        row = []
        for v in source_vars:
            d = classical_partial(comp, v)
            entry = Mul(Mul(Pow(comp, alpha - 1.0), d), Pow(Var(v), 1.0 - alpha))
            row.append(simplify(entry))
        out.append(row)
    return out


def jet_transform(cm, spec):
    alpha = spec.alpha
    levels = [tuple(cm.components)]
    for a in range(1, spec.k + 1):
        prev = levels[a - 1]
        w_a = rung_weight(alpha, a)
        comps = []
        for i in range(spec.n):
            acc = Num(0.0)
            for b in range(1, a + 1):
                w_b = rung_weight(alpha, b)
                source_names = spec.level_names(b - 1)
                Jrow = weighted_jacobian_exprs((prev[i],), source_names, alpha)[0]
                for j in range(spec.n):
                    y_b = Var(spec.level_names(b)[j])
                    acc = Add(acc, Mul(Num(w_b / w_a), Mul(Jrow[j], y_b)))
            comps.append(simplify(acc))
        levels.append(tuple(comps))
    return levels


# ------------------------------------------------ normal form of Expr sums --


def normal_sum(pieces):
    out = Num(0.0)
    for p in pieces:
        out = Add(out, p)
    return normal_form(out)


def delta_x(conn, f, j):
    spec = conn.spec
    pieces = [frac_partial(f, f"x{j + 1}", spec.alpha)]
    for b in range(1, spec.k + 1):
        Nb = conn.primal.order(b)
        for m in range(spec.n):
            d = frac_partial(f, f"y{m + 1}_{b}", spec.alpha)
            pieces.append(Neg(Mul(Nb[m][j], d)))
    return normal_sum(pieces)


def delta_y(conn, f, a, i):
    spec = conn.spec
    pieces = [frac_partial(f, f"y{i + 1}_{a}", spec.alpha)]
    for b in range(1, spec.k - a + 1):
        Nb = conn.primal.order(b)
        for m in range(spec.n):
            d = frac_partial(f, f"y{m + 1}_{a + b}", spec.alpha)
            pieces.append(Neg(Mul(Nb[m][i], d)))
    return normal_sum(pieces)


def _partial(f, var, alpha, mode):
    if mode == "fractional":
        return frac_partial(f, var, alpha)
    return lib_classical_partial(f, var)


def total_jet_derivative(spec, f, mode="fractional", levels=None):
    levels = spec.k + 1 if levels is None else levels
    pieces = []
    for b in range(1, levels + 1):
        for i in range(spec.n):
            d = _partial(f, jet_var(i, b - 1), spec.alpha, mode)
            pieces.append(Mul(Var(jet_var(i, b)), d))
    return normal_sum(pieces)


def el_residual(spec, L, mode="fractional"):
    out = []
    for i in range(spec.n):
        pieces = [_partial(L, jet_var(i, 0), spec.alpha, mode)]
        for a in range(1, spec.k + 1):
            inner = _partial(L, jet_var(i, a), spec.alpha, mode)
            term = total_jet_derivative(spec, inner, mode)
            pieces.append(Mul(Num((-1.0) ** a), term))
        out.append(normal_sum(pieces))
    return tuple(out)


def craig_synge_level(spec, L, level):
    out = []
    for i in range(spec.n):
        pieces = []
        if level == 0:
            pieces.append(frac_partial(L, jet_var(i, 0), spec.alpha))
        for a in range(max(level, 1), spec.k + 1):
            inner = frac_partial(L, jet_var(i, a), spec.alpha)
            term = total_jet_derivative(spec, inner, "fractional")
            scale = (-1.0) ** a / gamma(1.0 + spec.alpha * a)
            pieces.append(Mul(Num(scale), term))
        out.append(normal_sum(pieces))
    return tuple(out)


def craig_synge_closed_form(spec, L, fundamental):
    out = []
    for i in range(spec.n):
        lead = frac_partial(L, jet_var(i, spec.k - 1), spec.alpha)
        inner = frac_partial(L, jet_var(i, spec.k), spec.alpha)
        dragged = total_jet_derivative(spec, inner, "fractional", levels=spec.k)
        pieces = [lead, Neg(dragged)]
        for j in range(spec.n):
            pieces.append(Neg(Mul(fundamental[i][j], Var(jet_var(j, spec.k + 1)))))
        out.append(normal_sum(pieces))
    return tuple(out)


def fundamental_tensor(spec, L, semantics="classical"):
    rows = []
    for i in range(spec.n):
        di = _partial(L, jet_var(i, 1), spec.alpha, semantics)
        row = []
        for j in range(spec.n):
            dij = _partial(di, jet_var(j, 1), spec.alpha, semantics)
            row.append(normal_form(Mul(Num(0.5), dij)))
        rows.append(tuple(row))
    return tuple(rows)


def alpha_square(spec, diag_entries):
    scale = 2.0 / gamma(1.0 + 2.0 * spec.alpha)
    return normal_sum(
        Mul(Num(scale), Mul(g, Pow(Var(jet_var(i, 1)), 2.0 * spec.alpha)))
        for i, g in enumerate(diag_entries)
    )


def diagonal_inverse(spec, rows):
    n = spec.n
    return tuple(
        tuple(normal_form(Div(Num(1.0), rows[i][i])) if i == j else Num(0.0)
              for j in range(n))
        for i in range(n)
    )


def prolong_riemann(spec, rows, inverse_rows=None):
    n, alpha = spec.n, spec.alpha
    ginv = diagonal_inverse(spec, rows) if inverse_rows is None else inverse_rows
    dgs = [[[frac_partial(rows[s][l], f"x{j + 1}", alpha) for l in range(n)]
            for s in range(n)] for j in range(n)]
    christoffels = tuple(
        tuple(
            tuple(
                normal_sum(
                    Mul(Num(0.5), Mul(ginv[i][s], Sub(Add(dgs[j][s][l], dgs[l][j][s]),
                                                      dgs[s][j][l])))
                    for s in range(n))
                for l in range(n))
            for j in range(n))
        for i in range(n))
    spray = tuple(
        normal_sum(
            Mul(Num(0.5),
                Mul(christoffels[i][p][m], Mul(Var(jet_var(p, 1)), Var(jet_var(m, 1)))))
            for p in range(n) for m in range(n))
        for i in range(n))
    dual1 = tuple(
        tuple(normal_sum(Mul(christoffels[i][j][m], Var(jet_var(m, 1))) for m in range(n))
              for j in range(n))
        for i in range(n))
    return Prolongation(spec, tuple(tuple(r) for r in rows), christoffels, spray, dual1)


def prolong_finsler(spec, energy):
    return prolong_riemann(spec, fundamental_tensor(spec, energy, "fractional"))


def prolong_lagrange(spec, L):
    return prolong_riemann(spec, fundamental_tensor(spec, L, "classical"))


def spray_derivation(spec, G):
    def apply(f):
        pieces = []
        for h in range(spec.n):
            d = frac_partial(f, f"x{h + 1}", spec.alpha)
            pieces.append(Mul(Mul(Num(rung_weight(spec.alpha, 1)), Var(f"y{h + 1}_1")), d))
        for b in range(2, spec.k + 1):
            w = rung_weight(spec.alpha, b)
            for h in range(spec.n):
                d = lib_classical_partial(f, f"y{h + 1}_{b - 1}")
                pieces.append(Mul(Mul(Num(w), Var(f"y{h + 1}_{b}")), d))
        wk = rung_weight(spec.alpha, spec.k)
        for h in range(spec.n):
            d = lib_classical_partial(f, f"y{h + 1}_{spec.k}")
            pieces.append(Mul(Mul(Num(-wk), G[h]), d))
        return normal_sum(pieces)

    return apply


def _mat_mul(A, B, n):
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Num(0.0)
            for l in range(n):
                acc = Add(acc, Mul(A[i][l], B[l][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_add(A, B, n, sign=1.0):
    return tuple(tuple(Add(A[i][j], Mul(Num(sign), B[i][j])) for j in range(n))
                 for i in range(n))


def _mat_normal(A, n):
    return tuple(tuple(normal_form(A[i][j]) for j in range(n)) for i in range(n))


def primal_to_dual(N):
    n, k = N.spec.n, N.spec.k
    M = []
    for d in range(1, k + 1):
        acc = N.order(d)
        for f in range(1, d):
            acc = _mat_add(acc, _mat_mul(M[d - f - 1], N.order(f), n), n)
        M.append(_mat_normal(acc, n))
    return DualCoefficients(N.spec, tuple(M))


def dual_to_primal(M):
    n, k = M.spec.n, M.spec.k
    N = []
    for d in range(1, k + 1):
        acc = M.order(d)
        for f in range(1, d):
            acc = _mat_add(acc, _mat_mul(M.order(d - f), N[f - 1], n), n, sign=-1.0)
        N.append(_mat_normal(acc, n))
    return PrimalCoefficients(M.spec, tuple(N))


def spray_to_dual(spec, G):
    n, alpha = spec.n, spec.alpha
    S = spray_derivation(spec, G)
    M1 = tuple(tuple(normal_form(lib_classical_partial(G[i], f"y{j + 1}_1"))
                     for j in range(n)) for i in range(n))
    mats = [M1]
    for a in range(1, spec.k):
        scale = gamma(alpha * a) / gamma(alpha * (a + 1))
        prev = mats[-1]
        derived = tuple(tuple(S(prev[i][j]) for j in range(n)) for i in range(n))
        correction = _mat_mul(M1, prev, n)
        mats.append(tuple(
            tuple(normal_form(Mul(Num(scale), Add(derived[i][j], correction[i][j])))
                  for j in range(n))
            for i in range(n)))
    return DualCoefficients(spec, tuple(mats))


# ------------------------------------------- natural-frame matrices by entry --


def tangent_structure_matrix(spec):
    d = spec.dim
    J = np.zeros((d, d), dtype=int)
    for c in range(spec.k):
        for i in range(spec.n):
            J[(c + 1) * spec.n + i, c * spec.n + i] = 1
    return J


def adapted_frame(spec, N, env):
    d = spec.dim
    F = np.eye(d)
    Ns = N.values_at(env)
    for a in range(spec.k + 1):
        for b in range(1, spec.k - a + 1):
            Nb = Ns[b - 1]
            for j in range(spec.n):
                for m in range(spec.n):
                    F[a * spec.n + j, (a + b) * spec.n + m] = -Nb[m][j]
    return F


def dual_coframe(spec, M, env):
    d = spec.dim
    D = np.eye(d)
    Ms = M.values_at(env)
    for a in range(spec.k + 1):
        for b in range(1, a + 1):
            Mb = Ms[b - 1]
            for j in range(spec.n):
                for m in range(spec.n):
                    D[a * spec.n + j, (a - b) * spec.n + m] = Mb[j][m]
    return D


def _insert(args, x):
    out = list(args)
    out.append(x)
    out.sort()
    return tuple(out)


def _remove_first(args, x):
    try:
        i = args.index(x)
    except ValueError:
        return None
    return args[:i] + args[i + 1:]


@dataclass(frozen=True)
class GammaProduct:
    factor: float = 1.0
    num: tuple = field(default_factory=tuple)
    den: tuple = field(default_factory=tuple)

    def _push_num(self, a):
        if a in (1.0, 2.0):
            return self
        reduced = _remove_first(self.den, a)
        if reduced is not None:
            return GammaProduct(self.factor, self.num, reduced)
        return GammaProduct(self.factor, _insert(self.num, a), self.den)

    def _push_den(self, a):
        if a in (1.0, 2.0):
            return self
        reduced = _remove_first(self.num, a)
        if reduced is not None:
            return GammaProduct(self.factor, reduced, self.den)
        return GammaProduct(self.factor, self.num, _insert(self.den, a))

    def times_ratio(self, top, bottom):
        return self._push_num(top)._push_den(bottom)

    def times(self, other):
        out = GammaProduct(self.factor * other.factor, self.num, self.den)
        for a in other.num:
            out = out._push_num(a)
        for a in other.den:
            out = out._push_den(a)
        return out

    def scaled(self, c):
        return GammaProduct(self.factor * c, self.num, self.den)

    def value(self):
        v = self.factor
        for a in self.num:
            v *= gamma(a)
        for a in self.den:
            v /= gamma(a)
        return v


def mittag_leffler_series(alpha, z):
    total = 0.0
    prev = math.inf
    zm = 1.0  # z^m
    for m in range(ML_MAX_TERMS):
        term = zm / gamma(1.0 + alpha * m)
        total += term
        if abs(term) <= ML_TOL * max(1.0, abs(total)) and abs(term) <= prev:
            return total
        prev = abs(term)
        zm *= z
    raise AccuracyError(
        f"mittag_leffler(alpha={alpha}, z={z}) did not converge within "
        f"{ML_MAX_TERMS} terms (last |term|={abs(term):.3e})"
    )
