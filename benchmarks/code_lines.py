"""Count the code lines of the library, per module and in total.

A code line holds at least one token that is not a comment, a docstring or
whitespace: blank lines, comment lines and the lines of module, class and
function docstrings do not count.

    python benchmarks/code_lines.py [SOURCE_DIR]

SOURCE_DIR defaults to this checkout's src/curvkind.  The output is one
JSON object, {"modules": {name: count}, "total": count}.
"""

import ast
import io
import json
from pathlib import Path
import sys
import tokenize

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """The line numbers covered by every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """Number of lines of source that hold a token other than a comment or docstring."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def count(directory):
    modules = {
        path.name: code_lines(path.read_text()) for path in sorted(Path(directory).glob("*.py"))
    }
    return {"modules": modules, "total": sum(modules.values())}


if __name__ == "__main__":
    default = Path(__file__).resolve().parents[1] / "src" / "curvkind"
    print(json.dumps(count(sys.argv[1] if len(sys.argv) > 1 else default), indent=1))
