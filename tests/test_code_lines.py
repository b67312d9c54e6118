import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "code_lines.py"


def _counter():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_code_lines_skip_docstrings_comments_and_blanks():
    source = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    x = (
        1,
    )

    def f(self):
        """Function docstring."""
        return """not a docstring,
        but a string literal"""
'''
    # import, class, x = (, 1,, ), def, return and its string's second line
    assert _counter()(source) == 8
