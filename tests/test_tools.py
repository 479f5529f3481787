"""tools/code_lines.py on a small fixture source, and AST scans of the
package's modules: dead names, restated dimension lists, branches on a
family label, and the oracles' imports of production code."""

import ast
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


_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlorlicz"


def _dead_names(source: str) -> list:
    """Names a module binds but never reads: each imported name, and each
    private (single underscore) top-level function, class or constant.  A
    name counts as read wherever it is loaded, annotations included."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        bound += [n for n in names if n.startswith("_") and not n.startswith("__")]
    return [n for n in bound if n not in read]


def test_dead_name_scan_on_a_fixture():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Optional\n"
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "def _helper(x: Optional[int]):\n"
        "    return np.abs(x) + _USED\n"
        "def _orphan():\n"
        "    pass\n"
        "def public():\n"
        "    return _helper(0)\n"
    )
    assert _dead_names(source) == ["os", "_UNUSED", "_orphan"]


def test_no_unread_imports_or_private_names():
    dead = {p.name: _dead_names(p.read_text(encoding="utf-8"))
            for p in sorted(_PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    assert {name: names for name, names in dead.items() if names} == {}


def _dimension_lists(source: str, dimensions: tuple) -> list:
    """Line numbers of the tuple, list and set literals whose elements are
    exactly the integers of dimensions, in order: a restated list of the
    supported dimensions.  Floats such as (1.0, 2.0) are not dimensions."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Tuple, ast.List, ast.Set))
            and all(isinstance(e, ast.Constant) and type(e.value) is int for e in node.elts)
            and tuple(e.value for e in node.elts) == dimensions]


def test_dimension_scan_on_a_fixture():
    source = (
        "DIMS = (1, 2)\n"
        "x = [1, 2]\n"
        "y = {1, 2}\n"
        "z = (1, 2, 3)\n"
        "w = (2, 1)\n"
        "v = (1, n)\n"
        "u = (1.0, 2.0)\n"
        "if dim not in (1, 2):\n"
        "    pass\n"
    )
    assert _dimension_lists(source, (1, 2)) == [1, 2, 3, 8]


def test_only_grid_lists_the_dimensions():
    from nlorlicz.grid import DIMENSIONS

    found = {p.name: _dimension_lists(p.read_text(encoding="utf-8"), DIMENSIONS)
             for p in sorted(_PACKAGE.glob("*.py")) if p.name != "grid.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _dimension_lists((_PACKAGE / "grid.py").read_text(encoding="utf-8"),
                            DIMENSIONS) != []


def _family_comparisons(source: str) -> list:
    """Line numbers of the comparisons with a `.family` attribute among their
    operands: code that branches on how a kernel or a Young function was
    spelled, where it should read the structure the object carries."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(isinstance(e, ast.Attribute) and e.attr == "family"
                    for e in [node.left, *node.comparators])]


def test_family_scan_on_a_fixture():
    source = (
        "if kern.family == 'fractional':\n"
        "    pass\n"
        "ok = 'log' != asm.kernel.family\n"
        "x = y.family in ('power', 'power_sum')\n"
        "if family == 'power':\n"
        "    pass\n"
        "label = [kern.family, kern.dim]\n"
        "z = a < b < c.family\n"
    )
    assert _family_comparisons(source) == [1, 3, 4, 8]


def test_no_code_branches_on_a_family_label():
    found = {p.name: _family_comparisons(p.read_text(encoding="utf-8"))
             for p in sorted(_PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


_PRODUCTION = {"solvers", "harness", "cli", "linalg"}


def _production_imports(source: str) -> list:
    """Line numbers of the imports that tie a module to the production code
    paths: anything from solvers, harness, cli or linalg, and any name from
    energy but EnergyAssembly, spelled relative or from nlorlicz."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [(a.name.split(".")[1], None) for a in node.names
                       if a.name.startswith("nlorlicz.")]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "")
                                                   .split(".")[0] == "nlorlicz"):
            module = (node.module or "").removeprefix("nlorlicz").lstrip(".")
            # "from . import solvers" names the module itself
            targets = ([(module, a.name) for a in node.names] if module
                       else [(a.name, None) for a in node.names])
        else:
            continue
        if any(m in _PRODUCTION or (m == "energy" and name != "EnergyAssembly")
               for m, name in targets):
            found.append(node.lineno)
    return found


def test_production_import_scan_on_a_fixture():
    source = (
        "import numpy as np\n"
        "from scipy.linalg import solve\n"
        "from .energy import EnergyAssembly\n"
        "from .energy import EnergyAssembly, E_value\n"
        "from .solvers import mountain_pass_search\n"
        "from . import harness\n"
        "from nlorlicz.linalg import dot\n"
        "import nlorlicz.cli\n"
        "from .grid import bump\n"
        "from nlorlicz import energy\n"
        "def f():\n"
        "    from .linalg import cholesky_solve\n"
    )
    assert _production_imports(source) == [4, 5, 6, 7, 8, 10, 12]


def test_oracles_import_no_production_path():
    source = (_PACKAGE / "oracles.py").read_text(encoding="utf-8")
    assert _production_imports(source) == []
    assert _production_imports(source.replace(
        "from .energy import EnergyAssembly", "from .energy import EnergyAssembly, E_value")) != []


def test_step_sweep_counts_one_solve():
    # tools/step_sweep.py counts a solve's joint passes and CG products by
    # wrapping solvers' names for the one call, and puts them back
    from nlorlicz import assemble, bump, make_grid, make_kernel, make_young, solvers

    spec = importlib.util.spec_from_file_location(
        "step_sweep", Path(__file__).resolve().parents[1] / "tools" / "step_sweep.py")
    step_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(step_sweep)
    joint, pcg = solvers.E_and_gradient, solvers._pcg
    # 256 nodes at growth 3: CG steps on the circulant
    g = make_grid("interval", 256, (-1.0, 1.0))
    asm = assemble(g, make_kernel("fractional", dim=1, alpha=0.5), make_young("power", p=3.0))
    rep, passes, products = step_sweep.counted_solve(asm, bump(g, g.center, 0.5, 1.0))
    assert rep.converged
    assert passes >= rep.iterations + 1 and products >= rep.iterations
    assert solvers.E_and_gradient is joint and solvers._pcg is pcg
