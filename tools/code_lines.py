"""Count the lines of src/lrec, the measure of ROADMAP aim 2.

Prints raw lines and code lines: those with a token that is not a
comment, leaving out docstrings and blank lines. The total comes first,
then each module's code lines as a Markdown table. Run it from anywhere:

    python tools/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lrec"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(src: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(src)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef,
                              ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main():
    raw = 0
    per_module = {}
    for path in sorted(SRC.glob("*.py")):
        src = path.read_text()
        raw += src.count("\n")
        per_module[path.name] = code_lines(src)
    print(f"src/lrec: {raw} lines, {sum(per_module.values())} code lines")
    print("\n| module | code lines |\n|---|---|")
    for name, n in per_module.items():
        print(f"| {name} | {n} |")


if __name__ == "__main__":
    main()
