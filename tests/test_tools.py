import importlib.util

from conftest import ROOT


def load_tool(stem):
    spec = importlib.util.spec_from_file_location(stem, ROOT / "tools" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
two lines."""

# a comment
import math  # a trailing comment


def area(r):
    """A docstring."""

    text = """not a docstring:
    an assigned string"""
    return (math.pi
            * r ** 2)
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, def, the two lines of the assigned string, the two of the return
    assert load_tool("count_code_lines").code_lines(path) == 6
