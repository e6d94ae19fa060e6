"""Line budget of ``src/qcooling``: the lines of each module and of all of
them, split into code, docstring, comment-only and blank lines.

A code line holds a token that is neither a comment nor part of a
docstring (the leading string of a module, class or function body); a
docstring line holds part of a docstring and no such token; a comment
line holds a comment alone; a blank line holds nothing.  Given a git ref,
it also prints the same counts of the modules at that ref (read with
``git show REF:path``) and the change from there to the working tree:

    python tools/src_lines.py            # the working tree
    python tools/src_lines.py HEAD~1     # and the change since HEAD~1

The standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = "src/qcooling"
KINDS = ("total", "code", "docstring", "comment", "blank")
# tokens that hold no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_spans(text: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions, (line, column), of every docstring in ``text``."""
    spans = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def counts(text: str) -> dict[str, int]:
    """The lines of the module source ``text``, by kind (:data:`KINDS`)."""
    spans = docstring_spans(text)
    code, docs, comments = set(), set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comments.update(lines)
        elif tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b
                                                 for a, b in spans):
            docs.update(lines)
        elif tok.type not in LAYOUT:
            code.update(lines)
    docs -= code
    comments -= code | docs
    total = len(text.splitlines())
    return dict(total=total, code=len(code), docstring=len(docs), comment=len(comments),
                blank=total - len(code) - len(docs) - len(comments))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def sources(ref: str | None) -> dict[str, str]:
    """Each module's name and source, in the working tree or at ``ref``."""
    if ref is None:
        return {p.name: p.read_text() for p in sorted((ROOT / SRC).glob("*.py"))}
    names = git("ls-tree", "--name-only", f"{ref}:{SRC}").split()
    return {name: git("show", f"{ref}:{SRC}/{name}") for name in names if name.endswith(".py")}


def table(title: str, rows: dict[str, dict[str, int]], signed: bool = False) -> str:
    rows = {**rows, "all": {k: sum(r[k] for r in rows.values()) for k in KINDS}}
    cell = "{:+10d}" if signed else "{:10d}"
    lines = [f"{title:<24}" + "".join(f"{k:>10}" for k in KINDS)]
    lines += [f"{name:<24}" + "".join(cell.format(r[k]) for k in KINDS)
              for name, r in rows.items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", help="a git ref to compare the working tree with")
    args = parser.parse_args(argv)
    now = {name: counts(text) for name, text in sources(None).items()}
    print(table(f"{SRC} lines", now))
    if args.ref is not None:
        then = {name: counts(text) for name, text in sources(args.ref).items()}
        zero = dict.fromkeys(KINDS, 0)
        names = sorted({*now, *then})
        print()
        print(table(f"at {args.ref}", then))
        print()
        print(table(f"change since {args.ref}",
                    {name: {k: now.get(name, zero)[k] - then.get(name, zero)[k] for k in KINDS}
                     for name in names}, signed=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
