#!/usr/bin/env python3
"""Code lines of each src/hcps module of one or two hcps checkouts.

    python3 bench/code_lines.py <root> [<root>]

A code line holds some Python token other than a comment and is not part
of a docstring (the leading string of a module, class or function); blank
lines do not count.  For each module it prints the code lines beside the
file's line count (wc -l), then a total row.  With two checkouts it prints
both sides and the change from the first to the second; a module only one
side has counts as zero lines on the other.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "hcps"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of source that hold code: no blank, comment-only or docstring line."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def module_counts(root: Path) -> dict[str, tuple[int, int]]:
    """{module file name: (code lines, wc -l)} over root's src/hcps."""
    counts = {}
    for path in sorted((root / PACKAGE).glob("*.py")):
        text = path.read_text()
        counts[path.name] = (code_lines(text), text.count("\n"))
    return counts


def table(sides: list[dict[str, tuple[int, int]]]) -> list[str]:
    """The printed rows: per module and in total, each side's code lines and
    wc -l, and with two sides the change of each."""
    names = sorted(set().union(*sides))
    rows = [[name, *(side.get(name, (0, 0)) for side in sides)] for name in names]
    rows.append(["total", *(tuple(map(sum, zip(*side.values()))) for side in sides)])
    head = ["module", "code", "wc -l"] if len(sides) == 1 else \
        ["module", "code", "code'", "change", "wc -l", "wc -l'", "change"]
    out = [head]
    for name, *counts in rows:
        if len(counts) == 1:
            out.append([name, *map(str, counts[0])])
        else:
            (code_a, wc_a), (code_b, wc_b) = counts
            out.append([name, str(code_a), str(code_b), f"{code_b - code_a:+d}",
                        str(wc_a), str(wc_b), f"{wc_b - wc_a:+d}"])
    widths = [max(len(row[i]) for row in out) for i in range(len(head))]
    return ["  ".join(cell.ljust(w) if i == 0 else cell.rjust(w)
                      for i, (cell, w) in enumerate(zip(row, widths))).rstrip() for row in out]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", type=Path, nargs="+", help="one or two checkout roots")
    args = parser.parse_args(argv)
    if len(args.roots) > 2:
        parser.error("give one or two checkout roots")
    for root in args.roots:
        if not (root / PACKAGE).is_dir():
            parser.error(f"{root} has no {PACKAGE}")
    print("\n".join(table([module_counts(root) for root in args.roots])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
