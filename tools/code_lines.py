"""Count the code lines of Python modules.

A code line holds at least one token that is not a comment and is not part
of a docstring; blank lines, comment lines and docstrings do not count.
A docstring is the string that opens a module, class or function body.

    python tools/code_lines.py src/rigidpow

prints one line per module, then the total.  Arguments are files or
directories; a directory counts every ``*.py`` file under it.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path):
    source = Path(path).read_text(encoding="utf-8")
    lines = set()
    with open(path, "rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(args):
    for arg in map(Path, args):
        yield from sorted(arg.rglob("*.py")) if arg.is_dir() else [arg]


def main(args):
    if not args:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in modules(args):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
