"""Line budget of ``src/qcooling``: the lines of each module and of all of
them, split into code, docstring, comment-only and blank lines.

A code line holds a token that is neither a comment nor part of a
docstring (the leading string of a module, class or function body); a
docstring line holds part of a docstring and no such token; a comment
line holds a comment alone; a blank line holds nothing.  Given a git ref,
it also prints the same counts of the modules at that ref (read with
``git show REF:path``) and the change from there to the working tree,
with a last column that says whether each module's code changed: its
``ast.dump`` with every docstring removed, which ignores comments and
layout, at the ref against the working tree:

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


def docstrings(tree: ast.AST) -> list[tuple[ast.AST, ast.Expr]]:
    """(node, docstring expression) of every docstring in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.append((node, first))
    return found


def docstring_spans(text: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions, (line, column), of every docstring in ``text``."""
    return [((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset))
            for _, doc in docstrings(ast.parse(text))]


def code_dump(text: str) -> str:
    """``ast.dump`` of the module source ``text`` with every docstring removed."""
    tree = ast.parse(text)
    for node, doc in docstrings(tree):
        node.body.remove(doc)
    return ast.dump(tree)


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


def table(title: str, rows: dict[str, dict[str, int]], signed: bool = False,
          code: dict[str, str] | None = None) -> str:
    """The rows by kind and their sum, and the ``code`` column if given."""
    rows = {**rows, "all": {k: sum(r[k] for r in rows.values()) for k in KINDS}}
    cell = "{:+10d}" if signed else "{:10d}"
    lines = [f"{title:<24}" + "".join(f"{k:>10}" for k in KINDS) + (" code" if code else "")]
    lines += [f"{name:<24}" + "".join(cell.format(r[k]) for k in KINDS)
              + (f" {code[name]}" if code else "") for name, r in rows.items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", help="a git ref to compare the working tree with")
    args = parser.parse_args(argv)
    texts = sources(None)
    now = {name: counts(text) for name, text in texts.items()}
    print(table(f"{SRC} lines", now))
    if args.ref is not None:
        old = sources(args.ref)
        then = {name: counts(text) for name, text in old.items()}
        zero = dict.fromkeys(KINDS, 0)
        names = sorted({*now, *then})
        # a module on one side only is compared with an empty one
        code = {name: "same" if code_dump(texts.get(name, "")) == code_dump(old.get(name, ""))
                else "changed" for name in names}
        code["all"] = f"{sum(v != 'same' for v in code.values())} changed"
        print()
        print(table(f"at {args.ref}", then))
        print()
        print(table(f"change since {args.ref}",
                    {name: {k: now.get(name, zero)[k] - then.get(name, zero)[k] for k in KINDS}
                     for name in names}, signed=True, code=code))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
