"""Logical and physical lines of each module of rigkit, with the totals.

Usage:

    python3 scripts/line_counts.py [ROOT]

ROOT is the root of a rigkit source tree (default: the tree this script is
in); every ROOT/src/rigkit/*.py is counted, one row per module in name
order, then the totals.

A logical line is a line that some token other than a comment, a newline
or an indent spans, and that lies outside every docstring, where a
docstring is any string that is a statement on its own.  Blank lines,
comment lines and docstrings thus count for nothing, and a statement split
over several lines counts each of them.  A physical line is any line, as
wc -l counts them.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import tokenize

HERE = os.path.dirname(os.path.abspath(__file__))
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def logical_lines(text: str) -> int:
    """Lines that code spans in text, outside its docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(iter(text.splitlines(True)).__next__):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=os.path.dirname(HERE),
                        help="root of a rigkit source tree")
    args = parser.parse_args(argv)
    paths = sorted(glob.glob(os.path.join(args.root, "src", "rigkit", "*.py")))
    if not paths:
        parser.error(f"no src/rigkit/*.py under {args.root}")
    print(f"{'module':<12} {'logical':>8} {'physical':>9}")
    total_logical = total_physical = 0
    for path in paths:
        with open(path) as fh:
            text = fh.read()
        logical, physical = logical_lines(text), text.count("\n")
        total_logical += logical
        total_physical += physical
        name = os.path.splitext(os.path.basename(path))[0]
        print(f"{name:<12} {logical:>8} {physical:>9}")
    print(f"{'total':<12} {total_logical:>8} {total_physical:>9}")


if __name__ == "__main__":
    main()
