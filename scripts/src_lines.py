#!/usr/bin/env python3
"""Line count of the package source, src/fracosc/*.py, by kind.

Prints the total number of lines and its split into code, docstring,
comment and blank lines, read with :mod:`tokenize`:

* code: a line that holds any token other than a comment or a docstring;
* docstring: a line of a string that is a statement of its own (a module,
  class or function docstring), blank lines inside it included;
* comment: a line whose only token is a comment;
* blank: every other line.

Usage: ``python scripts/src_lines.py`` (no options).
"""

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fracosc"

#: tokens that carry no code of their own
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.COMMENT}


def line_kinds(text: str) -> dict[str, int]:
    """The number of lines of each kind in the Python source ``text``."""
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    code: set[int] = set()
    doc: set[int] = set()
    comment: set[int] = set()
    prev = tokenize.NEWLINE  # the last token before this one that starts or ends a statement
    for i, tok in enumerate(tokens):
        rows = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type == tokenize.STRING and prev in (
                tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT) and next(
                t.type for t in tokens[i + 1:] if t.type != tokenize.COMMENT) in (
                tokenize.NEWLINE, tokenize.ENDMARKER):
            doc.update(rows)
        elif tok.type not in _LAYOUT:
            code.update(rows)
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            prev = tok.type
    total = len(text.splitlines())
    doc -= code
    comment -= code | doc
    return {"total": total, "code": len(code), "docstring": len(doc),
            "comment": len(comment), "blank": total - len(code) - len(doc) - len(comment)}


def main() -> None:
    counts = dict.fromkeys(("total", "code", "docstring", "comment", "blank"), 0)
    for path in sorted(SRC.glob("*.py")):
        for kind, n in line_kinds(path.read_text(encoding="utf-8")).items():
            counts[kind] += n
    print(f"src/fracosc/*.py: {counts['total']} lines = {counts['code']} code"
          f" + {counts['docstring']} docstring + {counts['comment']} comment"
          f" + {counts['blank']} blank")


if __name__ == "__main__":
    main()
