import os
from pathlib import Path

import numpy as np
import pytest

from nlorlicz import assemble, make_grid, make_kernel, make_young

# pyproject's pythonpath puts src on this process's path; the tests that
# run `python -m nlorlicz.cli` in a subprocess need it in the environment
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def g1d():
    return make_grid("interval", 64, (-1.0, 1.0))


@pytest.fixture(scope="session")
def g1d_small():
    return make_grid("interval", 16, (-1.0, 1.0))


@pytest.fixture(scope="session")
def g2d_box():
    return make_grid("box", 16, (0.0, 1.0, 0.0, 1.0))


@pytest.fixture(scope="session")
def frac05_1d():
    return make_kernel("fractional", dim=1, alpha=0.5)


@pytest.fixture(scope="session")
def y_p2():
    return make_young("power", p=2.0)


@pytest.fixture(scope="session")
def y_sum():
    return make_young("power_sum", terms=[(0.5, 2.0), (0.5, 4.0)])


@pytest.fixture(scope="session")
def asm_quad(g1d, frac05_1d, y_p2):
    """Quadratic nonlinearity, fractional kernel, 1D n=64."""
    return assemble(g1d, frac05_1d, y_p2)


@pytest.fixture(scope="session")
def asm_sum(g1d, frac05_1d, y_sum):
    """Sum-of-powers nonlinearity on the same kernel and grid."""
    return assemble(g1d, frac05_1d, y_sum)


@pytest.fixture(scope="session")
def asm_quad_2d(g2d_box, y_p2):
    return assemble(g2d_box, make_kernel("fractional", dim=2, alpha=1.0), y_p2)


def random_values(n, seed, amplitude=1.0):
    return np.random.default_rng(seed).uniform(-amplitude, amplitude, n)
