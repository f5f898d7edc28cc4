"""Count the code lines of Python sources: lines that hold code, not blank
lines, comment-only lines or docstring lines.

A line counts when a token other than a comment or a line break starts,
ends or passes through it, so every line of a multi-line expression or
string literal counts.  A docstring (the first statement of a module, class
or function, when it is a string) drops out with all its lines.

    python tests/code_lines.py src

prints each file's count and then the total.  A path that is neither a file
nor a directory ends the count with exit status 2.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    for arg in argv:
        if not (Path(arg).is_file() or Path(arg).is_dir()):
            print(f"code_lines.py: {arg} is neither a file nor a directory", file=sys.stderr)
            return 2
    files = sorted(f for arg in argv
                   for f in ([Path(arg)] if Path(arg).is_file() else Path(arg).rglob("*.py")))
    total = 0
    for path in files:
        count = count_code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
