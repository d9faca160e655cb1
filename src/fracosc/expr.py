"""A small expression language for multivariate fractional calculus.

Grammar (EBNF; whitespace insignificant, ``#`` starts nothing — comments are
handled by the config layer, not here)::

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ['^' exponent]
    exponent := ['-'] NUMBER
    atom     := NUMBER | IDENT ['(' expr (',' expr)* ')'] | '(' expr ')'

Precedence, tightest first: power, unary minus, ``* /``, ``+ -``; all binary
operators are left-associative, power is non-associative and its exponent
must be a (possibly negated) numeric literal — fractional calculus on the
monomial fragment needs exponents known at parse time.

Known functions: ``gamma(x)`` and ``ml(alpha, z)`` (one-parameter
Mittag-Leffler). Variables are arbitrary identifiers; the geometry layers use
``x1..xn`` for base coordinates and ``y<i>_<a>`` for the order-``a`` fibre
coordinate of axis ``i``.

The *monomial fragment* is the set of expressions that normalize to sums
``sum_k c_k * prod_v v^(p_kv) * (opaque factors)``; fractional partial
derivatives are exact there, with coefficients tracked as
:class:`~fracosc.gammaledger.GammaProduct` so telescoped gamma ratios cancel
structurally (bitwise) rather than merely to rounding.

The geometry builders combine such term sums (:func:`expand_terms` each input
once, then :func:`multiply_terms`, :func:`scale_terms`, :func:`negate_terms`,
:func:`frac_partial_terms`, concatenation, :func:`collect_terms`) and print
each result once with :func:`terms_to_str`, which prints what
:func:`terms_to_expr` would build without building it; :func:`terms_to_expr`
remains for the builders whose callers are handed Exprs.
:func:`fold_coefficients` is the one fold: it turns each gamma ledger of a
sum into its float with the keys kept, so the folded sum reads out as the
sum did. :func:`partial_terms` is the one partial of every term builder,
order-alpha or classical, taken on the terms of a collected sum.

Expressions built once are read at many points through :func:`compile_exprs`:
the distinct nodes of a tuple of Exprs laid out once in post-order, one slot
each, and run at each point (an evaluation procedure over the computational
graph, Griewank & Walther, *Evaluating Derivatives*, 2008, ch. 2). Collected
term sums are compiled there directly, with the bits of their Exprs.
:func:`evaluate` is its one-point call; its grid entry runs the same list once
over arrays of points, with the same bits at each point.

Classical partials of Exprs, by the product and quotient rules, serve the
chart prolongations, whose levels are Exprs, and the terms with an opaque
factor. Those of one Expr along several variables are one pass of
:func:`classical_partials` (vector mode, ibid., ch. 3): it costs one walk
over the shared DAG plus, per variable, the distinct nodes that contain it.
:func:`classical_partial` is its one-variable call. A build whose Exprs
contain each other's partials, as the levels of a prolongation do, keeps one
:class:`DerivativeMemo` for all of them, so that each node is differentiated
once per build.

The fractional partial derivative along ``var`` follows the reviewed
power-rule convention: terms free of ``var`` are annihilated, exponents in
(0, alpha) are inadmissible (DomainError), and ``v^alpha -> Gamma(1+alpha)``.
A negative order is the integral, which integrates constants too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import DomainError, EvalError, FracoscError, ParseError
from .gammaledger import GammaProduct
from .specfun import gamma as _gamma_fn
from .specfun import mittag_leffler as _ml_fn

__all__ = [
    "Expr", "Num", "Var", "Call", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
    "parse", "to_str", "compile_exprs", "evaluate", "free_vars", "simplify", "simplify_node",
    "Term", "expand_terms", "collect_terms", "normalize_terms", "terms_to_expr",
    "terms_to_str", "fold_coefficients", "multiply_terms", "scale_terms",
    "negate_terms", "normal_form", "term_frac_partial", "frac_partial_terms", "frac_partial",
    "classical_partial", "classical_partials", "DerivativeMemo", "frac_partial_at",
    "FALLBACK_STEP", "partial_terms", "reviewed_exponent", "EXP_SNAP",
]

# --------------------------------------------------------------------- AST --

# The value types (the nodes below, Term and GammaProduct) are immutable by
# convention: slotted, with no instance __dict__, compared and hashed by their
# fields, and never assigned to once built. They are not frozen: a frozen
# __init__ stores each field through object.__setattr__, which makes building
# one, the commonest operation of every builder, about three times dearer.


@dataclass(slots=True, unsafe_hash=True)
class Num:
    value: float


@dataclass(slots=True, unsafe_hash=True)
class Var:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class Call:
    fn: str
    args: tuple["Expr", ...]


@dataclass(slots=True, unsafe_hash=True)
class Neg:
    arg: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Pow:
    base: "Expr"
    exponent: float


Expr = Union[Num, Var, Call, Neg, Add, Sub, Mul, Div, Pow]

_FUNCTION_ARITY = {"gamma": 1, "ml": 2}

# --------------------------------------------------------------- tokenizer --

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | op | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    # grammar rules ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.at_op("+", "-"):
            op = self.next().text
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.at_op("*", "/"):
            op = self.next().text
            rhs = self.parse_unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_unary(self) -> Expr:
        if self.at_op("-"):
            self.next()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.at_op("^"):
            self.next()
            sign = 1.0
            if self.at_op("-"):
                self.next()
                sign = -1.0
            tok = self.next()
            if tok.kind != "number":
                raise ParseError("power exponent must be a numeric literal",
                                 tok.line, tok.col)
            return Pow(base, sign * _number(tok))
        return base

    def parse_atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "number":
            return Num(_number(tok))
        if tok.kind == "ident":
            if self.at_op("("):
                if tok.text not in _FUNCTION_ARITY:
                    raise ParseError(f"unknown function {tok.text!r}", tok.line, tok.col)
                self.next()
                args = [self.parse_expr()]
                while self.at_op(","):
                    self.next()
                    args.append(self.parse_expr())
                self.expect_op(")")
                arity = _FUNCTION_ARITY[tok.text]
                if len(args) != arity:
                    raise ParseError(
                        f"{tok.text} takes {arity} argument(s), got {len(args)}",
                        tok.line, tok.col)
                return Call(tok.text, tuple(args))
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}",
                         tok.line, tok.col)


def _number(tok: _Token) -> float:
    value = float(tok.text)
    if math.isinf(value):
        raise ParseError("number out of range", tok.line, tok.col)
    return value


def parse(text: str) -> Expr:
    """Parse ``text`` into an Expr; raises ParseError with line/col."""
    p = _Parser(text)
    node = p.parse_expr()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
    return node

# ----------------------------------------------------------------- printing --


def _fmt_num(v: float) -> str:
    # repr round-trips; integer-valued floats get a stable short form
    if v == int(v) and abs(v) < 1e16:
        return f"{int(v)}.0"
    return repr(v)


def _fmt_signed(v: float) -> str:
    """A Num's text: a leading minus for negative values and for -0.0."""
    if v < 0 or (v == 0 and math.copysign(1, v) < 0):
        return f"-{_fmt_num(-v)}"
    return _fmt_num(v)


def _fmt_exponent(p: float) -> str:
    return _fmt_num(p) if p >= 0 else f"-{_fmt_num(-p)}"


def _wrap(s: str, prec: int, parent_prec: int, strict: bool = False) -> str:
    """``s``, the text of an operand of precedence ``prec``, parenthesized
    where its parent of precedence ``parent_prec`` needs it: a tighter
    operand never, a looser one always, and one of equal precedence only on
    the ``strict`` (right, or power base) side."""
    if prec < parent_prec or (strict and prec == parent_prec):
        return f"({s})"
    return s


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return 1
    if isinstance(e, (Mul, Div)):
        return 2
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Pow):
        return 4
    return 5  # atoms


def _paren(child: Expr, parent_prec: int, strict: bool = False) -> str:
    return _wrap(to_str(child), _prec(child), parent_prec, strict)


def to_str(e: Expr) -> str:
    """Canonical text form; ``parse(to_str(e))`` reproduces the same tree
    shape up to constant-sign normalization, and printing is idempotent."""
    if isinstance(e, Num):
        return _fmt_signed(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(to_str(a) for a in e.args)})"
    if isinstance(e, Neg):
        return f"-{_paren(e.arg, 3)}"
    if isinstance(e, Add):
        return f"{_paren(e.left, 1)} + {_paren(e.right, 1, strict=True)}"
    if isinstance(e, Sub):
        return f"{_paren(e.left, 1)} - {_paren(e.right, 1, strict=True)}"
    if isinstance(e, Mul):
        return f"{_paren(e.left, 2)}*{_paren(e.right, 2, strict=True)}"
    if isinstance(e, Div):
        return f"{_paren(e.left, 2)}/{_paren(e.right, 2, strict=True)}"
    if isinstance(e, Pow):
        return f"{_paren(e.base, 4, strict=True)}^{_fmt_exponent(e.exponent)}"
    raise TypeError(f"not an Expr: {e!r}")

# --------------------------------------------------------------- evaluation --


# Instructions of a compiled evaluator, ``(op, out, a, b)``: slot ``out``
# receives op applied to slots ``a`` and ``b``. For _VAR ``a`` is the variable
# name; for _POW ``b`` is the exponent and for _CALL the function name;
# _NONZERO checks the denominator in slot ``b`` and fills no slot.
_MUL, _ADD, _POW, _SUB, _NEG, _VAR, _DIV, _NONZERO, _GAMMA, _ML, _CALL = range(11)
_BINARY_OPS = {Add: _ADD, Sub: _SUB, Mul: _MUL}
_CALLS = {"gamma": _GAMMA, "ml": _ML}


def compile_exprs(
        exprs: Iterable[Expr | Sequence[Term]]) -> Callable[[dict], tuple[float, ...]]:
    """One evaluator for a tuple of Exprs over their shared DAG.

    The returned ``f(env)`` gives the value of every Expr at ``env`` as a
    tuple of floats. Building it visits each distinct node once (keyed by
    ``id``) and lays the nodes out in post-order, one slot each; ``f`` runs
    that list in one loop, so a node shared by several paths or several Exprs
    is computed once per call. Operands are taken left before right, except
    that a quotient takes its denominator first and checks it for zero before
    its numerator, so the first failure is the one a recursive evaluation
    would meet: unknown variables and arithmetic domain failures raise
    EvalError, gamma poles DomainError. Values are Python floats.

    An item may also be a collected term sum (a tuple or list of Terms),
    read as ``terms_to_expr(item)`` without building that Expr: its terms
    are written into the same instruction list, one slot per distinct
    (name, power) factor, each term's coefficient times its factors
    multiplied left to right and the terms added left to right, as in the
    tree, so the values and the first failure are bitwise those of the
    tree. Opaque factors go through the Expr visitor.

    ``f.grid(env)`` is the entry for many points: ``env`` maps each name to a
    1-D float64 array, all of one length n, or to a float for a name that is
    constant over the points, and the result is an array of shape
    (len(exprs), n). It runs the same instructions once over the arrays, one
    numpy operation for each of ``+ - * /`` and negation, and a slot that no
    array reaches stays one Python float, so its values are bitwise those of
    ``f`` at each point; powers (Python's ``**``), gamma and Mittag-Leffler
    go point by point or through the array form of
    :func:`~fracosc.specfun.mittag_leffler`, with the same bits. If any
    instruction fails, the points are replayed in order through ``f``, which
    raises the error of the first failing point."""
    exprs = tuple(exprs)  # keeps every node alive, so the ids below stay valid
    slots: dict[int, int] = {}  # id(node) -> slot
    factors: dict[tuple, int] = {}  # (name or id(opaque factor), power) -> slot
    template: list = []  # one slot per distinct node; constants filled in
    code: list[tuple] = []

    def emit(op: int, a, b) -> int:
        out = len(template)
        template.append(None)
        code.append((op, out, a, b))
        return out

    def constant(c: float) -> int:
        template.append(c)
        return len(template) - 1

    def visit(e: Expr) -> int:
        hit = slots.get(id(e))
        if hit is not None:
            return hit
        kind = type(e)
        op = _BINARY_OPS.get(kind)
        if op is not None:
            a = visit(e.left)
            b = visit(e.right)
        elif kind is Pow:
            op, a, b = _POW, visit(e.base), e.exponent
        elif kind is Num:
            slots[id(e)] = len(template)
            template.append(e.value)
            return len(template) - 1
        elif kind is Var:
            op, a, b = _VAR, e.name, None
        elif kind is Neg:
            op, a, b = _NEG, visit(e.arg), None
        elif kind is Div:
            b = visit(e.right)
            check = (_NONZERO, None, None, b)
            code.append(check)
            a = visit(e.left)
            if code[-1] is check:  # the numerator was computed before
                code.pop()
            op = _DIV
        elif kind is Call:
            args = [visit(x) for x in e.args]
            op = _CALLS.get(e.fn, _CALL)
            a, b = args[0], (args[-1] if op == _ML else e.fn)
        else:
            raise TypeError(f"not an Expr: {e!r}")
        out = slots[id(e)] = len(template)
        template.append(None)
        code.append((op, out, a, b))
        return out

    def factor(f: str | Expr, p: float) -> int:
        """The slot of the factor f^p of a term: f a variable name or an
        opaque Expr."""
        named = type(f) is str
        key = (f if named else id(f), p)
        out = factors.get(key)
        if out is None:
            if p != 1.0:
                out = emit(_POW, factor(f, 1.0), p)
            else:
                out = emit(_VAR, f, None) if named else visit(f)
            factors[key] = out
        return out

    def visit_sum(terms: Sequence[Term]) -> int:
        total = None
        for t in terms:
            c = t.coeff.value()
            if c == 0.0:
                continue
            prod = None
            for f, p in (*t.powers, *t.others):
                slot = factor(f, p)
                prod = slot if prod is None else emit(_MUL, prod, slot)
            if prod is None:
                piece = constant(c)
            else:
                piece = prod if c == 1.0 else emit(_MUL, constant(c), prod)
            total = piece if total is None else emit(_ADD, total, piece)
        return constant(0.0) if total is None else total

    roots = [visit_sum(e) if isinstance(e, (tuple, list)) else visit(e) for e in exprs]

    def run(env: dict) -> tuple[float, ...]:
        v = template[:]
        for op, out, a, b in code:
            if op == _MUL:
                v[out] = v[a] * v[b]
            elif op == _ADD:
                v[out] = v[a] + v[b]
            elif op == _POW:
                v[out] = _pow_value(v[a], b)
            elif op == _SUB:
                v[out] = v[a] - v[b]
            elif op == _NEG:
                v[out] = -v[a]
            elif op == _VAR:
                try:
                    v[out] = float(env[a])
                except KeyError:
                    raise EvalError(f"unbound variable {a!r}") from None
            elif op == _DIV or op == _NONZERO:
                x = v[b]
                if x == 0.0:
                    raise EvalError("division by zero")
                if op == _DIV:
                    v[out] = v[a] / x
            elif op == _GAMMA:
                v[out] = _gamma_fn(v[a])
            elif op == _ML:
                v[out] = _ml_fn(v[a], v[b])
            else:
                raise EvalError(f"unknown function {b!r}")
        return tuple([v[r] for r in roots])

    def grid(env: dict) -> np.ndarray:
        env = {name: np.asarray(c, dtype=np.float64) if np.ndim(c) else float(c)
               for name, c in env.items()}
        n = next((len(c) for c in env.values() if isinstance(c, np.ndarray)), 0)
        try:
            v = _run_grid(code, template, env)
        except (FracoscError, ArithmeticError, LookupError, ValueError):
            # the one-point loop raises the first failing point's error
            f = compile_exprs(exprs)  # not ``run``: a cycle through run.grid would outlive f
            columns = [c.tolist() if isinstance(c, np.ndarray) else [c] * n for c in env.values()]
            points = [dict(zip(env, p)) for p in zip(*columns)]
            return np.array([f(p) for p in points]).reshape(n, len(roots)).T
        out = np.empty((len(roots), n))
        for i, r in enumerate(roots):
            out[i] = v[r]
        return out

    run.grid = grid
    return run


def _run_grid(code: list, template: list, env: dict) -> list:
    """The slots of a compiled evaluator over arrays (see :func:`compile_exprs`);
    a slot that no array-valued name reaches stays a Python float. Raises on
    any failure, with no point named."""
    v = template[:]
    with np.errstate(all="ignore"):
        for op, out, a, b in code:
            if op == _MUL:
                v[out] = v[a] * v[b]
            elif op == _ADD:
                v[out] = v[a] + v[b]
            elif op == _POW:
                v[out] = _pow_grid(v[a], b)
            elif op == _SUB:
                v[out] = v[a] - v[b]
            elif op == _NEG:
                v[out] = -v[a]
            elif op == _VAR:
                v[out] = env[a]
            elif op == _DIV or op == _NONZERO:
                x = v[b]
                if np.any(x == 0.0):
                    raise EvalError("division by zero")
                if op == _DIV:
                    v[out] = v[a] / x
            elif op == _GAMMA:
                x = v[a]
                v[out] = (np.array([_gamma_fn(y) for y in x.tolist()])
                          if isinstance(x, np.ndarray) else _gamma_fn(x))
            elif op == _ML:
                al, z = v[a], v[b]
                if isinstance(al, np.ndarray):
                    al, z = np.broadcast_arrays(al, z)
                    v[out] = np.array([_ml_fn(p, q) for p, q in zip(al.tolist(), z.tolist())])
                else:
                    v[out] = _ml_fn(al, z)
            else:
                raise EvalError(f"unknown function {b!r}")
    return v


def evaluate(e: Expr, env: dict[str, float]) -> float:
    """Evaluate at a point: the one-point call of :func:`compile_exprs`.
    Code that evaluates the same Exprs at many points compiles them once."""
    return compile_exprs((e,))(env)[0]


def _pow_value(base: float, p: float) -> float:
    if base == 0.0:
        if p > 0:
            return 0.0
        if p == 0:
            return 1.0
        raise EvalError("0 raised to a negative power")
    if base < 0.0 and p != int(p):
        raise EvalError(f"negative base {base} with non-integer exponent {p}")
    try:
        return base**p
    except OverflowError:
        raise EvalError(f"overflow computing {base}^{p}") from None


def _pow_grid(base, p: float):
    """:func:`_pow_value` at every point of an array base, by Python's ``**``."""
    if not isinstance(base, np.ndarray):
        return _pow_value(base, p)
    zero = base == 0.0
    if p < 0 and zero.any() or (base < 0.0).any() and p != int(p):
        raise EvalError(f"no real power {p!r} at some point")
    out = (base.astype(object) ** p).astype(np.float64)
    if p > 0:
        out[zero] = 0.0  # not -0.0: _pow_value maps any zero base to 0.0
    return out


def free_vars(e: Expr) -> frozenset[str]:
    """The variable names in ``e``; each distinct node is visited once."""
    seen: set[int] = set()  # ids of visited nodes, all kept alive by ``e``
    names: set[str] = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Var):
            names.add(x.name)
        elif isinstance(x, Call):
            stack.extend(x.args)
        elif isinstance(x, Neg):
            stack.append(x.arg)
        elif isinstance(x, Pow):
            stack.append(x.base)
        elif not isinstance(x, Num):
            stack += (x.left, x.right)
    return frozenset(names)


# ---------------------------------------------------------------- simplify --


def simplify(e: Expr) -> Expr:
    """Cheap structural cleanup: constant folding and 0/1 identities.
    gamma/ml calls are *not* folded (the term layer keeps them exact). A
    constant fold that overflows raises DomainError.

    Every output is a fixed point of the rules, so one bottom-up pass of
    :func:`simplify_node` suffices; shared subtrees are visited once per call."""
    return _simplify(e, {})


def _simplify(e: Expr, memo: dict) -> Expr:
    # memo maps id(node) -> (node, simplified); holding the node keeps the id valid
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    if isinstance(e, (Num, Var)):
        return e
    if isinstance(e, Call):
        out: Expr = Call(e.fn, tuple(_simplify(a, memo) for a in e.args))
    elif isinstance(e, Neg):
        a = _simplify(e.arg, memo)
        out = simplify_node(e if a is e.arg else Neg(a))
    elif isinstance(e, Pow):
        b = _simplify(e.base, memo)
        out = simplify_node(e if b is e.base else Pow(b, e.exponent))
    elif isinstance(e, (Add, Sub, Mul, Div)):
        a, b = _simplify(e.left, memo), _simplify(e.right, memo)
        out = simplify_node(e if a is e.left and b is e.right else type(e)(a, b))
    else:
        raise TypeError(f"not an Expr: {e!r}")
    memo[id(e)] = (e, out)
    return out


def _folded(v: float) -> Num:
    """A folded constant; an overflow to inf raises DomainError, so that no
    infinite Num is built."""
    if not math.isfinite(v):
        raise DomainError("constant fold overflows")
    return Num(v)


def simplify_node(e: Expr) -> Expr:
    """The rules of :func:`simplify` applied at the root of ``e`` only; the
    children of ``e`` must already be simplified."""
    if isinstance(e, (Num, Var, Call)):
        return e
    if isinstance(e, Neg):
        a = e.arg
        if isinstance(a, Num):
            return Num(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return e
    if isinstance(e, Pow):
        b = e.base
        if e.exponent == 0.0:
            return Num(1.0)
        if e.exponent == 1.0:
            return b
        if isinstance(b, Num):
            try:
                return Num(_pow_value(b.value, e.exponent))
            except EvalError:
                return e
        return e
    a, b = e.left, e.right
    if isinstance(e, Add):
        if isinstance(a, Num) and a.value == 0.0:
            return b
        if isinstance(b, Num) and b.value == 0.0:
            return a
        if isinstance(a, Num) and isinstance(b, Num):
            return _folded(a.value + b.value)
        return e
    if isinstance(e, Sub):
        if isinstance(b, Num) and b.value == 0.0:
            return a
        if isinstance(a, Num) and isinstance(b, Num):
            return _folded(a.value - b.value)
        if isinstance(a, Num) and a.value == 0.0:
            return simplify_node(Neg(b))
        return e
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
        return e
    if isinstance(e, Div):
        if isinstance(b, Num) and b.value == 1.0:
            return a
        if isinstance(a, Num) and a.value == 0.0 and not (
            isinstance(b, Num) and b.value == 0.0
        ):
            return Num(0.0)
        if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
            return _folded(a.value / b.value)
        return e
    raise TypeError(f"not an Expr: {e!r}")

# -------------------------------------------------------- monomial fragment --


@dataclass(slots=True, unsafe_hash=True)
class Term:
    """One monomial:  coeff * prod(var^power) * prod(opaque_factor^power).

    ``powers`` maps variable names to real exponents (sorted tuple of pairs);
    ``others`` holds non-decomposable factors (calls with variable arguments,
    powers of sums, ...) keyed canonically by their printed form. Immutable
    by convention, like the Expr nodes.
    """

    coeff: GammaProduct
    powers: tuple[tuple[str, float], ...] = ()
    others: tuple[tuple[Expr, float], ...] = ()

    def power_of(self, var: str) -> float:
        for name, p in self.powers:
            if name == var:
                return p
        return 0.0

    def collection_key(self):
        return (self.powers, tuple((to_str(f), p) for f, p in self.others))


def _term_one() -> Term:
    return Term(GammaProduct.of(1.0))


def _term_mul(a: Term, b: Term) -> Term:
    powers: dict[str, float] = dict(a.powers)
    for name, p in b.powers:
        powers[name] = powers.get(name, 0.0) + p
    others: dict[str, tuple[Expr, float]] = {to_str(f): (f, p) for f, p in a.others}
    for f, p in b.others:
        key = to_str(f)
        if key in others:
            others[key] = (others[key][0], others[key][1] + p)
        else:
            others[key] = (f, p)
    return Term(
        a.coeff.times(b.coeff),
        tuple(sorted((n, p) for n, p in powers.items() if p != 0.0)),
        tuple(sorted(((f, p) for f, p in others.values() if p != 0.0),
                     key=lambda fp: (to_str(fp[0]), fp[1]))),
    )


def _term_pow(t: Term, p: float) -> Term | None:
    """Raise a single term to a real power; None when that is not sound
    (ledgered gamma content with non-integer power)."""
    if p == int(p) and abs(p) <= 8:
        # exact by repeated multiplication / inversion
        k = int(p)
        if k == 0:
            return _term_one()
        base = t if k > 0 else _term_invert(t)
        if base is None:
            return None
        out = base
        for _ in range(abs(k) - 1):
            out = _term_mul(out, base)
        return out
    if t.coeff.ledger:
        return None
    if t.coeff.factor < 0.0:
        return None
    return Term(
        GammaProduct.of(t.coeff.factor**p),
        tuple((n, q * p) for n, q in t.powers),
        tuple((f, q * p) for f, q in t.others),
    )


def _term_invert(t: Term) -> Term | None:
    if t.coeff.factor == 0.0:
        return None
    return Term(
        t.coeff.inverse(),
        tuple((n, -p) for n, p in t.powers),
        tuple((f, -p) for f, p in t.others),
    )


def expand_terms(e: Expr) -> list[Term]:
    """Distribute ``e`` into monomial terms, uncollected and in a fixed order.
    Total: parts that do not decompose become opaque factors inside their term."""
    if isinstance(e, Num):
        return [] if e.value == 0.0 else [Term(GammaProduct.of(e.value))]
    if isinstance(e, Var):
        return [Term(GammaProduct.of(1.0), ((e.name, 1.0),))]
    if isinstance(e, Call):
        if e.fn == "gamma" and isinstance(e.args[0], Num):
            return [Term(GammaProduct.of(1.0).times_ratio(e.args[0].value, 1.0))]
        if not free_vars(e):
            return expand_terms(Num(evaluate(e, {})))
        return [Term(GammaProduct.of(1.0), (), ((e, 1.0),))]
    if isinstance(e, Neg):
        return negate_terms(expand_terms(e.arg))
    if isinstance(e, Add):
        return expand_terms(e.left) + expand_terms(e.right)
    if isinstance(e, Sub):
        return expand_terms(e.left) + negate_terms(expand_terms(e.right))
    if isinstance(e, Mul):
        right = expand_terms(e.right)
        return multiply_terms(expand_terms(e.left), right)
    if isinstance(e, Div):
        dens = expand_terms(e.right)
        inv = _term_invert(dens[0]) if len(dens) == 1 else None
        if inv is None:
            inv = Term(GammaProduct.of(1.0), (), ((simplify(e.right), -1.0),))
        return multiply_terms(expand_terms(e.left), [inv])
    if isinstance(e, Pow):
        bases = expand_terms(e.base)
        if len(bases) == 1:
            raised = _term_pow(bases[0], e.exponent)
            if raised is not None:
                return [raised]
        elif e.exponent == int(e.exponent) and 0 <= e.exponent <= 8:
            out = [_term_one()]
            for _ in range(int(e.exponent)):
                out = multiply_terms(out, bases)
            return out
        return [Term(GammaProduct.of(1.0), (), ((simplify(e), 1.0),))]
    raise TypeError(f"not an Expr: {e!r}")


def multiply_terms(a: Iterable[Term], b: Sequence[Term]) -> list[Term]:
    """Distributed product of two term sums, in the order :func:`expand_terms`
    distributes a product: each term of ``a`` times every term of ``b``."""
    return [_term_mul(ta, tb) for ta in a for tb in b]


def scale_terms(c: float, terms: Iterable[Term]) -> list[Term]:
    """c times a term sum, bitwise what ``multiply_terms(expand_terms(Num(c)),
    terms)`` gives: every coefficient scaled by c, and no terms for c = 0."""
    if c == 0.0:
        return []
    return [Term(t.coeff.scaled(c), t.powers, t.others) for t in terms]


def negate_terms(terms: Iterable[Term]) -> list[Term]:
    return scale_terms(-1.0, terms)


def collect_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    """Group structurally identical monomials; coefficients with the same
    gamma ledger add exactly (so opposite pairs cancel to true zero)."""
    groups: dict = {}  # (collection key, ledger) -> the summed term
    for t in terms:
        if t.coeff.is_zero:
            continue
        slot = (t.collection_key(), t.coeff.ledger)
        prev = groups.get(slot)
        groups[slot] = t if prev is None else Term(
            GammaProduct(prev.coeff.factor + t.coeff.factor, t.coeff.ledger),
            t.powers, t.others)
    # a stable sort keeps the ledgers of one key in the order they first came
    ordered = sorted(groups.items(), key=lambda item: item[0][0])
    return tuple(t for _, t in ordered if not t.coeff.is_zero)


def normalize_terms(e: Expr) -> tuple[Term, ...]:
    """Full distribution of ``e`` into collected monomial terms."""
    return collect_terms(expand_terms(e))


def terms_to_expr(terms: Iterable[Term]) -> Expr:
    """Fold a term list back into a deterministic Expr (ledgers folded)."""
    pieces: list[Expr] = []
    for t in terms:
        factors: list[Expr] = []
        c = t.coeff.value()
        if c == 0.0:
            continue
        for name, p in t.powers:
            factors.append(Var(name) if p == 1.0 else Pow(Var(name), p))
        for f, p in t.others:
            factors.append(f if p == 1.0 else Pow(f, p))
        node: Expr = Num(c)
        if factors:
            prod = factors[0]
            for f in factors[1:]:
                prod = Mul(prod, f)
            node = prod if c == 1.0 else Mul(Num(c), prod)
        pieces.append(node)
    if not pieces:
        return Num(0.0)
    out = pieces[0]
    for p in pieces[1:]:
        out = Add(out, p)
    return out


def terms_to_str(terms: Iterable[Term]) -> str:
    """``to_str(terms_to_expr(terms))`` byte for byte, printed from the terms
    without building the Expr: each term is its coefficient times its
    factors, multiplied left to right, the terms are added left to right,
    and every operand is parenthesized as :func:`to_str` parenthesizes it."""
    pieces: list[tuple[str, int]] = []  # (text, precedence) of each term
    for t in terms:
        c = t.coeff.value()
        if c == 0.0:
            continue
        factors = [(name, 5) if p == 1.0 else (f"{name}^{_fmt_exponent(p)}", 4)
                   for name, p in t.powers]
        factors += [(to_str(f), _prec(f)) if p == 1.0
                    else (f"{_paren(f, 4, strict=True)}^{_fmt_exponent(p)}", 4)
                    for f, p in t.others]
        if not factors:
            pieces.append((_fmt_signed(c), 5))
            continue
        text, prec = factors[0]
        for s, p in factors[1:]:
            text, prec = f"{_wrap(text, prec, 2)}*{_wrap(s, p, 2, strict=True)}", 2
        if c != 1.0:
            text, prec = f"{_fmt_signed(c)}*{_wrap(text, prec, 2, strict=True)}", 2
        pieces.append((text, prec))
    if not pieces:
        return "0.0"
    text = pieces[0][0]  # the left operand of a sum is never parenthesized
    for s, p in pieces[1:]:
        text = f"{text} + {_wrap(s, p, 1, strict=True)}"
    return text


def fold_coefficients(terms: Iterable[Term]) -> list[Term]:
    """The terms with each gamma ledger folded into its coefficient, as
    :func:`terms_to_expr` folds them, and the terms that fold to zero left
    out; keys and order are kept, so every readout of the result (Expr,
    text, compiled value) is the one of ``terms``. A fold that overflows
    raises DomainError here rather than at the first readout."""
    folded = ((t, t.coeff.value()) for t in terms)
    return [Term(GammaProduct.of(c), t.powers, t.others) for t, c in folded if c != 0.0]


def normal_form(e: Expr) -> Expr:
    """Distribute, collect, cancel, rebuild. Deterministic canonical sum."""
    return terms_to_expr(normalize_terms(e))

# ------------------------------------------------------ fractional partials --


#: exponents closer to an admissibility boundary than this are snapped to it
EXP_SNAP = 1e-12


def reviewed_exponent(e: float, nu: float) -> float | None:
    """The exponent of D^nu v^e under the reviewed power rule, snapped to 0.0
    within EXP_SNAP; None for a constant under nu > 0 (annihilated), and
    DomainError for any other exponent below nu > 0."""
    if nu > 0.0:
        if e == 0.0:
            return None  # reviewed operator kills constants
        if e < nu - EXP_SNAP:
            raise DomainError(
                f"exponent {e} below derivative order {nu} (and nonzero): "
                "fractional power rule inadmissible"
            )
    new_e = e - nu
    return 0.0 if abs(new_e) < EXP_SNAP else new_e


def term_frac_partial(t: Term, var: str, alpha: float) -> Term | None:
    """Reviewed fractional partial of a single term along ``var``, the
    package's one power rule (an integral for alpha < 0).

    Returns None when the term is annihilated (no ``var`` content, alpha > 0).
    Raises DomainError when ``var`` occurs inside an opaque factor (not in the
    monomial fragment) or carries an inadmissible exponent.
    """
    for f, _ in t.others:
        if var in free_vars(f):
            raise DomainError(
                f"term has non-monomial dependence on {var!r}: {to_str(f)}")
    p = t.power_of(var)
    new_p = reviewed_exponent(p, alpha)
    if new_p is None:
        return None
    coeff = t.coeff.times_ratio(1.0 + p, 1.0 + new_p)
    powers = tuple((n, new_p if n == var else q) for n, q in t.powers if n != var or new_p)
    if p == 0.0 and new_p:  # an integrated constant: var enters the term
        powers = tuple(sorted(powers + ((var, new_p),)))
    return Term(coeff, powers, t.others)


def frac_partial_terms(terms: Iterable[Term], var: str, alpha: float) -> tuple[Term, ...]:
    """Reviewed fractional partial of a term sum along ``var``, collected with
    the gamma ledgers kept (DomainError off the monomial fragment)."""
    parts = [term_frac_partial(t, var, alpha) for t in terms]
    return collect_terms(d for d in parts if d is not None)


def frac_partial(e: Expr, var: str, alpha: float) -> Expr:
    """Exact fractional partial on the monomial fragment (DomainError off it)."""
    return terms_to_expr(frac_partial_terms(normalize_terms(e), var, alpha))


#: the step of the Grunwald-Letnikov fallback of :func:`frac_partial_at`
FALLBACK_STEP = 1e-4


def frac_partial_at(e: Expr, var: str, alpha: float, env: dict[str, float]) -> float:
    """Fractional partial evaluated at a point.

    Symbolic path when available; otherwise a Grunwald-Letnikov fallback
    along the ``var`` axis from 0 to env[var] with step ~FALLBACK_STEP (the
    reviewed convention is honored by differencing f - f(axis origin)). The
    fallback reads the whole axis grid in one call of the grid entry of
    :func:`compile_exprs`, bitwise the values of a point-by-point loop."""
    try:
        return evaluate(frac_partial(e, var, alpha), env)
    except DomainError:
        pass
    from .numeric import gl_derivative  # local import: numeric is expr-free

    if var not in env:
        raise EvalError(f"unbound variable {var!r}")
    T = env[var]
    if T <= 0:
        raise DomainError(f"numeric fractional partial needs {var!r} > 0 at the point")
    n = max(8, int(round(T / FALLBACK_STEP)))
    # the other names are constant along the axis: one value each, not a column
    (vals,) = compile_exprs((e,)).grid({**env, var: T * np.arange(n + 1) / n})
    return float(gl_derivative(vals, alpha, T / n)[-1])

# ------------------------------------------------------- classical partials --


def classical_partial(e: Expr, var: str) -> Expr:
    """Ordinary symbolic partial derivative: the one-variable call of
    :func:`classical_partials`. Code that differentiates the same Expr along
    several variables passes them all at once."""
    return classical_partials(e, (var,))[0]


def classical_partials(e: Expr, names: Sequence[str]) -> tuple[Expr, ...]:
    """The ordinary symbolic partial derivatives of ``e`` along each of
    ``names``, simplified. Function calls must not contain a differentiated
    variable (their derivatives are outside this small language); the first
    such call, in the order of ``names`` and then left before right, raises
    DomainError.

    One pass over the shared expression DAG serves every name (vector mode,
    Griewank & Walther, *Evaluating Derivatives*, 2008, ch. 3): the simplified
    operands, the set of names in each node, and the derivative of each
    subtree free of the variable are built once. That derivative comes from
    the same rules taken along a variable that occurs nowhere, not from a
    literal zero, because its signed zeros depend on the structure
    (``-0.0`` is the derivative of ``Neg(Num(0.0))``). Per name, only the
    nodes that contain it are differentiated again, each once. A build that
    differentiates many Exprs sharing nodes keeps one :class:`DerivativeMemo`
    instead, so that no node is differentiated twice across its calls."""
    names = tuple(names)
    return DerivativeMemo(names).partials(e, names)


class DerivativeMemo:
    """The memo of :func:`classical_partials` kept over the calls of one
    build: the Exprs it differentiates may contain each other or each other's
    partials (a prolongation's level a + 1 contains level a), and every node
    is differentiated once along each name. It holds the bits of ``names``,
    the names in each node, the simplify memo of the operands (which
    :meth:`simplify` shares) and one derivative memo per name, and it keeps
    every Expr given to it alive, so that the ids it is keyed by stay valid;
    it dies with the build that made it.

    In the product and quotient rules, a factor whose derivative is a zero
    Num fixes the result, and the nodes that simplification would drop are
    not built."""

    def __init__(self, names: Sequence[str]):
        bits = {name: 1 << i for i, name in enumerate(names)}
        masks: dict = {}  # id(node) -> bits of the names in it
        self._operands = operands = {}  # the simplify memo of the operands and of simplify
        along_names: dict = {}  # name -> its derivative function, with its memo
        self._roots: list = []  # every Expr differentiated, keeping the ids above valid

        def mask(x: Expr) -> int:
            m = masks.get(id(x))
            if m is None:
                if isinstance(x, Var):
                    m = bits.get(x.name, 0)
                elif isinstance(x, Num):
                    m = 0
                elif isinstance(x, Call):
                    m = 0
                    for a in x.args:
                        m |= mask(a)
                elif isinstance(x, Neg):
                    m = mask(x.arg)
                elif isinstance(x, Pow):
                    m = mask(x.base)
                else:
                    m = mask(x.left) | mask(x.right)
                masks[id(x)] = m
            return m

        def along(var: str | None, bit: int, free: Callable[[Expr], Expr] | None):
            """The derivative along ``var``; ``free``, when given, differentiates
            the subtrees that do not contain it."""
            derivs: dict = {}  # id(node) -> derivative
            step = simplify_node  # one rewrite at the root

            def d(x: Expr) -> Expr:
                hit = derivs.get(id(x))
                if hit is not None:
                    return hit
                if free is not None and not mask(x) & bit:
                    out: Expr = free(x)
                elif isinstance(x, Num):
                    out = Num(0.0)
                elif isinstance(x, Var):
                    out = Num(1.0 if x.name == var else 0.0)
                elif isinstance(x, Call):
                    if mask(x) & bit:
                        raise DomainError(
                            f"classical_partial cannot differentiate through {x.fn}(...) in {var!r}")
                    out = Num(0.0)
                elif isinstance(x, Neg):
                    out = step(Neg(d(x.arg)))
                elif isinstance(x, Add):
                    out = step(Add(d(x.left), d(x.right)))
                elif isinstance(x, Sub):
                    out = step(Sub(d(x.left), d(x.right)))
                elif isinstance(x, (Mul, Div)):
                    dl, dr = d(x.left), d(x.right)
                    left, right = _simplify(x.left, operands), _simplify(x.right, operands)
                    rule = _product_rule if isinstance(x, Mul) else _quotient_rule
                    out = rule(left, right, dl, dr)
                elif isinstance(x, Pow):
                    inner = d(x.base)
                    base = _simplify(x.base, operands)
                    scale = step(Mul(Num(x.exponent), step(Pow(base, x.exponent - 1.0))))
                    out = step(Mul(scale, inner))
                else:
                    raise TypeError(f"not an Expr: {x!r}")
                derivs[id(x)] = out
                return out

            return d

        def derivative(var: str):
            d = along_names.get(var)
            if d is None:
                d = along_names[var] = along(var, bits[var], nowhere)
            return d

        # with one name nothing is shared, and testing each node would only cost
        nowhere = along(None, 0, None) if len(bits) > 1 else None
        self._derivative = derivative

    def partials(self, e: Expr, names: Sequence[str]) -> tuple[Expr, ...]:
        """The classical partials of ``e`` along each of ``names``, which must
        be names this memo was made for: :func:`classical_partials`, with the
        derivatives taken in earlier calls reused."""
        self._roots.append(e)
        return tuple(self._derivative(var)(e) for var in names)

    def simplify(self, e: Expr) -> Expr:
        """:func:`simplify`, through the memo that simplifies the operands
        of the partials."""
        return _simplify(e, self._operands)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _product_rule(left: Expr, right: Expr, dl: Expr, dr: Expr) -> Expr:
    """The simplified ``dl*right + left*dr``, that is
    ``step(Add(step(Mul(dl, right)), step(Mul(left, dr))))`` for ``step`` =
    :func:`simplify_node`, without the nodes whose result a zero Num ``dl``
    or ``dr`` already fixes: a zero ``dl`` makes the first product
    ``Num(0.0)``, which the sum drops, and a zero ``dr`` makes the second a
    zero Num, which the sum keeps only when the first is a zero Num too (it
    is ``dr`` itself, signed, when ``left`` is ``Num(1.0)``)."""
    if _is_zero(dl):
        return simplify_node(Mul(left, dr))
    first = simplify_node(Mul(dl, right))
    if _is_zero(dr):
        return simplify_node(Mul(left, dr)) if _is_zero(first) else first
    return simplify_node(Add(first, simplify_node(Mul(left, dr))))


def _quotient_rule(left: Expr, right: Expr, dl: Expr, dr: Expr) -> Expr:
    """The simplified ``(dl*right - left*dr) / right^2``, each node simplified
    as it is built, without ``left*dr`` and the difference when ``dr`` is a
    zero Num: that product is then a zero Num, which the difference drops."""
    num = simplify_node(Mul(dl, right))
    if not _is_zero(dr):
        num = simplify_node(Sub(num, simplify_node(Mul(left, dr))))
    return simplify_node(Div(num, simplify_node(Pow(right, 2.0))))


def partial_terms(terms: Sequence[Term], names: Sequence[str],
                  order: float | None) -> list[list[Term]]:
    """The partials of the collected term sum ``terms``, one folded term list
    per name of ``names``: the reviewed order-``order`` partials, or for
    ``order=None`` the classical ones (:func:`_classical_partial_terms`).
    Every term builder takes its partials here."""
    if order is None:
        return _classical_partial_terms(terms, names)
    return [fold_coefficients(frac_partial_terms(terms, var, order)) for var in names]


def _classical_partial_terms(terms: Sequence[Term], names: Sequence[str]) -> list[list[Term]]:
    """The classical partials of a term sum, term by term: a monomial
    ``c * v^p * ...`` gives ``c p v^(p-1) * ...`` with ``c`` folded, and a
    term with an opaque factor is printed once and differentiated on the
    Expr route, through one :class:`DerivativeMemo` for the call. Every
    coefficient is folded and every opaque term printed before any partial
    is taken; then names go in order and terms left to right, so the first
    DomainError is the one of the printed sum."""
    pieces = [(t.coeff.value(), t, terms_to_expr((t,)) if t.others else None) for t in terms]
    memo = DerivativeMemo(names) if any(e is not None for *_, e in pieces) else None
    out = []
    for var in names:
        found: list[Term] = []
        for c, t, e in pieces:
            if e is not None:
                found += expand_terms(memo.partials(e, (var,))[0])
            elif c != 0.0 and (p := t.power_of(var)) != 0.0:
                found.append(Term(GammaProduct.of(c * p), tuple(
                    (n, q - 1.0 if n == var else q) for n, q in t.powers if n != var or q != 1.0)))
        out.append(found)
    return out
