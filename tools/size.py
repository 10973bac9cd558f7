"""Print the size of sigmakit's source: lines and Python tokens, per module and in total.

Usage: python3 tools/size.py [DIRECTORY [BASE]]

DIRECTORY defaults to src/sigmakit.  Given BASE, another copy of the
package (such as the parent commit's src/sigmakit), two more columns give
each count minus BASE's, a module missing from either side counting 0 there.
Lines are all physical lines of each ``*.py`` file.  Tokens come from
``tokenize``, without comments, layout tokens (NEWLINE, NL, INDENT, DEDENT,
ENCODING, ENDMARKER) and every token on a docstring line, a docstring being
the leading string of a module, class or function.  Standard library only.
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


def sizes(root):
    """{module file name: (lines, tokens)} of the ``*.py`` files in root."""
    return {path.name: size(path.read_text(encoding="utf-8")) for path in root.glob("*.py")}


def main(argv):
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "sigmakit"
    counts = sizes(root)
    compare = len(argv) > 1
    base = sizes(Path(argv[1])) if compare else {}
    rows = [(name, counts.get(name, (0, 0)), base.get(name, (0, 0)))
            for name in sorted(counts.keys() | base.keys())]
    total = [sum(row[i][j] for row in rows) for i in (1, 2) for j in (0, 1)]
    rows.append(("total", total[:2], total[2:]))
    header = f"{'module':<16}{'lines':>8}{'tokens':>9}"
    print(f"{header}{'+lines':>8}{'+tokens':>9}" if compare else header)
    for name, (lines, tokens), (base_lines, base_tokens) in rows:
        row = f"{name:<16}{lines:>8}{tokens:>9}"
        print(f"{row}{lines - base_lines:>+8}{tokens - base_tokens:>+9}" if compare else row)


if __name__ == "__main__":
    main(sys.argv[1:])
