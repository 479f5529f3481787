"""tools/code_lines.py on a small fixture source."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 10 code lines: the import, the class line, both lines of x, both lines of
# f's signature, both of its return, g's line and its return
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment alone
class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self, a,
          b):
        """Function docstring."""
        return (a +
                b)


async def g():
    \'\'\'Async docstring.\'\'\'
    return 1
'''


def test_counts_code_lines_only():
    assert code_lines.code_lines(FIXTURE) == 10
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0
    # a one-line function whose body is its docstring keeps its def line
    assert code_lines.code_lines('def f(): """Doc."""\n') == 1


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["10", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")], ["11", "total"]]
