"""Module boundaries of the package: no module reaches into another's
private names."""

import ast
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
