"""tools/code_lines.py, which gives the code-line counts of the docs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_multi_line_statement_counts_each_line():
    source = "x = max(\n    1,\n    2,\n)\n"
    assert code_lines.code_lines(source) == 4


def test_docstrings_comments_and_blanks_are_not_code():
    source = '''"""Module docstring,
over two lines."""

# A comment.


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        # Another comment.
        return 1  # a trailing comment leaves the line code


def g():
    """Only a docstring."""
'''
    # "class A:", "def f(self):", "return 1", "def g():"
    assert code_lines.code_lines(source) == 4


def test_string_that_is_not_first_is_code():
    source = 'def f():\n    x = 1\n    """not a docstring"""\n'
    assert code_lines.code_lines(source) == 3


def test_main_prints_one_row_per_module_and_their_total(capsys):
    package = ROOT / "src" / "ssem"
    assert code_lines.main([str(package)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(path.stem for path in package.glob("*.py"))
    assert [name for name, _ in rows[:-1]] == modules
    assert all(len(row) == 2 for row in rows)
    counts = [int(count) for _, count in rows[:-1]]
    assert all(count > 0 for count in counts)
    assert rows[-1] == ["total", str(sum(counts))]
