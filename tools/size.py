"""Print the size of sigmakit's source: lines and Python tokens, per module and in total.

Usage: python3 tools/size.py [DIRECTORY]

DIRECTORY defaults to src/sigmakit.  Lines are all physical lines of each
``*.py`` file.  Tokens come from ``tokenize``, without comments, layout
tokens (NEWLINE, NL, INDENT, DEDENT, ENCODING, ENDMARKER) and every token on
a docstring line, a docstring being the leading string of a module, class
or function.  Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that the docstrings below tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def size(text):
    """(lines, tokens) of one module's source text."""
    skipped = docstring_lines(ast.parse(text))
    tokens = sum(1 for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                 if tok.type not in LAYOUT and tok.start[0] not in skipped)
    return len(text.splitlines()), tokens


def main(argv):
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "sigmakit"
    total_lines = total_tokens = 0
    print(f"{'module':<16}{'lines':>8}{'tokens':>9}")
    for path in sorted(root.glob("*.py")):
        lines, tokens = size(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_tokens += tokens
        print(f"{path.name:<16}{lines:>8}{tokens:>9}")
    print(f"{'total':<16}{total_lines:>8}{total_tokens:>9}")


if __name__ == "__main__":
    main(sys.argv[1:])
