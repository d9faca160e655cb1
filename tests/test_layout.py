"""Module boundaries of the package: no module reaches into another's
private names, only ``expr`` evaluates an Expr inside a loop, only
``geometry.jet_var`` spells a jet-coordinate name, only ``specfun`` calls
the gamma functions of ``math``, only ``expr`` expands a constant into a
term sum to scale by it, only ``expr`` turns a partial into its terms or
takes one classical partial inside a loop, only the chart prolongation takes
classical partials of Exprs outside ``expr``, no module outside ``expr``
prints, compiles or expands a term sum through its Expr, only
``gammaledger`` folds a gamma ledger and only ``expr`` applies the power
rule, every defaulted parameter is passed by some call, and a module's
``__all__`` lists only names the module defines."""

import ast
import re
from pathlib import Path

import fracosc

PACKAGE = Path(fracosc.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_imports_a_private_name_from_another():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".")
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                parts = [p for a in node.names for p in a.name.split(".")]
                names = []
            else:
                continue
            for name in parts + names:
                if _private(name):
                    offenders.append(f"{path.name}:{node.lineno} imports {name}")
    assert offenders == []


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _calls_evaluate(node) -> bool:
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "evaluate"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "evaluate"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "expr")


def test_no_module_evaluates_an_expr_in_a_loop():
    # build once, evaluate many: loops read an evaluator from compile_exprs
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "expr.py":
            continue
        for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(loop, _LOOPS):
                offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(loop)
                              if _calls_evaluate(node)]
    assert offenders == []


#: a jet-coordinate name in an f-string template (placeholders as "{}"):
#: x{}, y{}_..., y<digits>_{}, not preceded by a letter, digit or underscore
_SPELLED = re.compile(r"(?<![A-Za-z0-9_])(x\{\}|y\{\}|y\d+_\{\})")
#: a whole jet-coordinate name as a string constant: x1, y2_3, ...
_NAME = re.compile(r"x\d+|y\d+_\d+")


def _template(node: ast.JoinedStr) -> str:
    return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)


def test_only_jet_var_spells_a_jet_coordinate_name():
    # coordinate names and their slot order have one owner, geometry.jet_var
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = set()
        if path.name == "geometry.py":
            owner = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef)
                     and f.name == "jet_var" for n in ast.walk(f)}
        for node in ast.walk(tree):
            if id(node) in owner:
                continue
            if isinstance(node, ast.JoinedStr) and _SPELLED.search(_template(node)) or (
                    isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and _NAME.fullmatch(node.value)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_specfun_calls_math_gamma():
    # one pole and overflow policy: every other module goes through specfun
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "specfun.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("gamma", "lgamma") and (
                    isinstance(node.value, ast.Name) and node.value.id == "math"):
                offenders.append(f"{path.name}:{node.lineno} math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math" and any(
                    a.name in ("gamma", "lgamma") for a in node.names):
                offenders.append(f"{path.name}:{node.lineno} from math import")
    assert offenders == []


def _called(node, name: str) -> bool:
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_only_expr_expands_a_constant_to_scale_terms():
    # term scaling has one owner: expr.scale_terms, not expand_terms(Num(c))
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "expr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _called(node, "expand_terms") and any(_called(a, "Num") for a in node.args):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _iterables(node):
    """The iterables of a for loop or of each generator of a comprehension."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    return [g.iter for g in getattr(node, "generators", ())]


def test_only_expr_turns_a_partial_into_terms():
    # the partial of every term builder has one owner: expr.partial_terms,
    # which takes the classical partials along several names in one pass
    pairs = {("fold_coefficients", "frac_partial_terms"), ("expand_terms", "classical_partial"),
             ("normalize_terms", "classical_partial"), ("expand_terms", "classical_partials"),
             ("normalize_terms", "classical_partials")}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "expr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if any(_called(node, outer) and any(_called(a, inner) for a in node.args)
                   for outer, inner in pairs):
                offenders.append(f"{path.name}:{node.lineno}")
            # a loop over the partials of one pass that expands each of them
            if isinstance(node, _LOOPS) and any(
                    _called(sub, inner) for it in _iterables(node) for sub in ast.walk(it)
                    for _, inner in pairs):
                if any(_called(sub, outer) for sub in ast.walk(node) for outer, _ in pairs):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_module_calls_classical_partial_in_a_loop():
    # one Expr along several names is one pass of expr.classical_partials
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "expr.py":
            continue
        for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(loop, _LOOPS):
                offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(loop)
                              if _called(node, "classical_partial")]
    assert offenders == []


#: the Expr route of classical partials (the product and quotient rules over
#: a DAG), and the functions outside expr that may take it: the chart
#: prolongation, whose levels are Exprs; every term builder differentiates
#: its term sums through expr.partial_terms
_EXPR_ROUTE = {"classical_partial", "classical_partials", "DerivativeMemo"}
_EXPR_ROUTE_USERS = {"geometry.py": "weighted_jacobian_exprs", "bundle.py": "_prolong"}


def test_only_the_chart_prolongation_takes_the_expr_route():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "expr.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef)
                   and f.name == _EXPR_ROUTE_USERS.get(path.name) for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names} & _EXPR_ROUTE
                if names and path.name not in _EXPR_ROUTE_USERS:
                    offenders.append(f"{path.name}:{node.lineno} imports {sorted(names)}")
            elif id(node) not in allowed and (getattr(node, "id", None) in _EXPR_ROUTE
                                              or getattr(node, "attr", None) in _EXPR_ROUTE):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_module_prints_or_compiles_a_term_sum_through_its_expr():
    # term sums are read out by expr.terms_to_str and compile_exprs directly
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "expr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (_called(node, "to_str") or _called(node, "compile_exprs")) and any(
                    _called(sub, "terms_to_expr") for a in node.args for sub in ast.walk(a)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_module_expands_the_expr_of_a_term_sum():
    # a term sum is folded by expr.fold_coefficients, not printed and expanded
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "expr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (_called(node, "expand_terms") or _called(node, "normalize_terms")) and any(
                    _called(sub, "terms_to_expr") for a in node.args for sub in ast.walk(a)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_one_gamma_fold_and_one_power_rule():
    # one fold, GammaProduct.value, and one power rule, expr.term_frac_partial:
    # the series layer differentiates through expr's terms
    owners = {"gamma_product": "gammaledger.py", "reviewed_exponent": "expr.py",
              "times_ratio": "expr.py"}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            offenders += [f"{path.name}:{node.lineno} {name}" for name, owner in owners.items()
                          if path.name != owner and _called(node, name)]
    assert offenders == []


def _defaulted(tree):
    """(called name, parameter, call position) of each defaulted parameter:
    a method's ``self`` shifts positions by one, and ``__init__`` is called
    by its class name; keyword-only parameters have no position."""
    for owner in ast.walk(tree):
        for fn in ast.iter_child_nodes(owner):
            if not isinstance(fn, ast.FunctionDef):
                continue
            method = isinstance(owner, ast.ClassDef) and not any(
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            name = owner.name if method and fn.name == "__init__" else fn.name
            args = fn.args.posonlyargs + fn.args.args
            for i in range(len(args) - len(fn.args.defaults), len(args)):
                yield name, args[i].arg, i - int(method)
            for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, a.arg, None


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call overrides is a constant spelled as an option;
    # calls are matched by name, and *args or **kwargs pass everything
    passed = set()
    root = Path(__file__).resolve().parent.parent
    for path in sorted(p for d in ("src", "scripts", "perfbench", "tests")
                       for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                passed |= {(name, i) for i in range(len(node.args))}
                passed |= {(name, k.arg or "*") for k in node.keywords}
                if any(isinstance(a, ast.Starred) for a in node.args):
                    passed.add((name, "*"))
    offenders = [f"{path.name}: {name}({param})" for path in sorted(PACKAGE.glob("*.py"))
                 for name, param, pos in _defaulted(ast.parse(path.read_text(encoding="utf-8")))
                 if not {(name, param), (name, pos), (name, "*")} & passed]
    assert offenders == []


def _defined(tree) -> tuple[set[str], list[str]]:
    """(names a module binds at top level other than by import, its __all__)."""
    names, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                exported = ast.literal_eval(node.value)
    return names, exported


def test_all_lists_only_names_the_module_defines():
    # a name re-exported through __all__ is a second public path to one object
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        names, exported = _defined(ast.parse(path.read_text(encoding="utf-8")))
        offenders += [f"{path.name}: {name}" for name in exported if name not in names]
    assert offenders == []
