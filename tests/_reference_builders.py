"""Reference copies of the original tree-recursive symbolic builders.

``simplify`` here re-simplifies whole subtrees and ``classical_partial``
simplifies at every recursion level, so both cost far more than the library
versions on large or shared expressions. They are kept only as the oracle
that the library's DAG-linear builders must reproduce exactly (``==``, and
the same printed form including signed zeros).
"""

from fracosc.bundle import rung_weight
from fracosc.errors import DomainError, EvalError
from fracosc.expr import (
    Add, Call, Div, Mul, Neg, Num, Pow, Sub, Var, _pow_value, free_vars,
)


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
            return Num(a.value + b.value)
        return Add(a, b)
    if isinstance(e, Sub):
        if isinstance(b, Num) and b.value == 0.0:
            return a
        if isinstance(a, Num) and isinstance(b, Num):
            return Num(a.value - b.value)
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
            return Num(a.value * b.value)
        return Mul(a, b)
    if isinstance(e, Div):
        if isinstance(b, Num) and b.value == 1.0:
            return a
        if isinstance(a, Num) and a.value == 0.0 and not (
            isinstance(b, Num) and b.value == 0.0
        ):
            return Num(0.0)
        if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
            return Num(a.value / b.value)
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
                    y_b = Var(spec.y_names(b)[j])
                    acc = Add(acc, Mul(Num(w_b / w_a), Mul(Jrow[j], y_b)))
            comps.append(simplify(acc))
        levels.append(tuple(comps))
    return levels
