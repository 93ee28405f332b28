"""scripts/line_counts.py's logical_lines on small sources, each count
written out: docstrings, comments and blank lines count for nothing, and a
statement split over several lines counts each of them."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "line_counts.py"

MODULE_DOCSTRING = '''"""A module docstring,
over two lines."""
'''
COMMENTS = "# a comment line\n    # an indented comment line\n"
BLANKS = "\n\n   \n"
FUNCTION = '''def f(a):
    """A function docstring."""
    return a  # a trailing comment does not count the line twice
'''
SPLIT_STATEMENT = "total = (1 +\n         2 +\n         3)\n"


def load_line_counts():
    spec = importlib.util.spec_from_file_location("line_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("source, logical", [
    (MODULE_DOCSTRING, 0),
    (COMMENTS, 0),
    (BLANKS, 0),
    (FUNCTION, 2),  # the def line and the return line
    (SPLIT_STATEMENT, 3),
    (MODULE_DOCSTRING + BLANKS + COMMENTS + FUNCTION + BLANKS + SPLIT_STATEMENT, 5),
])
def test_logical_lines(source, logical):
    assert load_line_counts().logical_lines(source) == logical
