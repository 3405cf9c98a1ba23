"""Count the lines of Python files: all lines, and code lines.

Code lines are the lines that hold a token of code: blank lines, comment
lines and the lines of docstrings (a string literal that is the first
statement of a module, class or function, found with ``ast``) do not count.

Run: python tools/loc.py src/bugloc/*.py
"""

import ast
import io
import sys
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def counts(source: str) -> tuple[int, int]:
    """(total lines, code lines) of the Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(paths) -> None:
    total = code = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines, code_lines = counts(fh.read())
        total += lines
        code += code_lines
    print(f"{len(paths)} files: {total} lines, {code} code lines")


if __name__ == "__main__":
    main(sys.argv[1:])
