"""Uniform cell-centered grids on bounded 1D/2D domains and grid functions.

Functions carry values on interior nodes only; the complement of the domain
is implicitly zero everywhere (the zero-exterior convention of the nonlocal
Dirichlet problem).  Node ordering is row-major over axis indices: the first
axis is the slowest, so in 2D the y index varies fastest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class DomainGrid:
    """Cell-centered discretization of an interval, box, or ball."""

    dim: int
    shape: str  # "interval" | "box" | "ball"
    bounds: tuple  # interval: (a, b); box: (a1, b1, a2, b2); ball: (cx, cy, radius)
    n_per_axis: int
    spacing: float
    nodes: np.ndarray  # (n_nodes, dim), row-major over axis indices

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def center(self) -> np.ndarray:
        if self.shape == "interval":
            a, b = self.bounds
            return np.array([0.5 * (a + b)])
        if self.shape == "box":
            a1, b1, a2, b2 = self.bounds
            return np.array([0.5 * (a1 + b1), 0.5 * (a2 + b2)])
        cx, cy, _ = self.bounds
        return np.array([cx, cy])

    @property
    def volume(self) -> float:
        """Measure of the continuum domain (not of the union of cells)."""
        if self.shape == "interval":
            a, b = self.bounds
            return b - a
        if self.shape == "box":
            a1, b1, a2, b2 = self.bounds
            return (b1 - a1) * (b2 - a2)
        return np.pi * self.bounds[2] ** 2

    @property
    def inradius(self) -> float:
        """sup over the domain of the distance to the complement."""
        if self.shape == "interval":
            a, b = self.bounds
            return 0.5 * (b - a)
        if self.shape == "box":
            a1, b1, a2, b2 = self.bounds
            return 0.5 * min(b1 - a1, b2 - a2)
        return self.bounds[2]

    def __hash__(self):
        return hash((self.dim, self.shape, self.bounds, self.n_per_axis))

    def __eq__(self, other):
        return (
            isinstance(other, DomainGrid)
            and (self.dim, self.shape, self.bounds, self.n_per_axis)
            == (other.dim, other.shape, other.bounds, other.n_per_axis)
        )


@dataclass(frozen=True)
class GridFunction:
    """Real values on the interior nodes of a grid, zero on the complement."""

    grid: DomainGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise ValidationError(
                f"value vector has shape {v.shape}, grid has {self.grid.n_nodes} nodes"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("grid function carries non-finite values")
        object.__setattr__(self, "values", v)


def _cell_centres(lower: tuple, h: float, n_per_axis: int) -> np.ndarray:
    """Centres of the n_per_axis^N cells of side h above the lower corner,
    row-major over axis indices."""
    cells = np.indices((n_per_axis,) * len(lower)).reshape(len(lower), -1)
    return np.ascontiguousarray((np.array(lower)[:, None] + h * (cells + 0.5)).T)


def make_grid(shape: str, n_per_axis: int, bounds: Optional[tuple] = None) -> DomainGrid:
    """Build a cell-centered grid.

    shape "interval" with bounds (a, b); "box" with (a1, b1, a2, b2);
    "ball" with (cx, cy, radius).  For balls, the nodes are the centers of
    the bounding-box cells that fall inside the ball.
    """
    if n_per_axis < 4:
        raise ValidationError("need at least 4 nodes per axis")
    if shape == "interval":
        bounds = a, b = bounds if bounds is not None else (-1.0, 1.0)
        if not b > a:
            raise ValidationError("degenerate interval")
        h, lower = (b - a) / n_per_axis, (a,)
    elif shape == "box":
        bounds = a1, b1, a2, b2 = bounds if bounds is not None else (0.0, 1.0, 0.0, 1.0)
        if not (b1 > a1 and b2 > a2):
            raise ValidationError("degenerate box")
        if abs((b1 - a1) - (b2 - a2)) > 1e-12 * (b1 - a1):
            # one spacing h for both axes keeps the pair weights a function
            # of the lattice offset
            raise ValidationError("box must be square (uniform spacing on both axes)")
        h, lower = (b1 - a1) / n_per_axis, (a1, a2)
    elif shape == "ball":
        bounds = cx, cy, radius = bounds if bounds is not None else (0.0, 0.0, 1.0)
        if radius <= 0.0:
            raise ValidationError("degenerate ball")
        h, lower = 2.0 * radius / n_per_axis, (cx - radius, cy - radius)
    else:
        raise ValidationError(f"unknown grid shape {shape!r}")
    nodes = _cell_centres(lower, h, n_per_axis)
    if shape == "ball":
        nodes = nodes[np.hypot(nodes[:, 0] - cx, nodes[:, 1] - cy) < radius]
    return DomainGrid(
        dim=len(lower),
        shape=shape,
        bounds=tuple(float(v) for v in bounds),
        n_per_axis=n_per_axis,
        spacing=h,
        nodes=nodes,
    )


def decreasing_rearrangement(u: GridFunction) -> GridFunction:
    """Radially nonincreasing rearrangement of |u| on the grid's own nodes.

    Sorts the absolute values in descending order and assigns them to nodes
    ranked by distance from the domain center, ties broken by node index.
    This is an exact rearrangement of the discrete value multiset, not an
    interpolation of the continuum symmetrization.
    """
    g = u.grid
    dist = np.linalg.norm(g.nodes - g.center, axis=1)
    order = np.lexsort((np.arange(g.n_nodes), dist))
    sorted_vals = np.sort(np.abs(u.values))[::-1]
    out = np.empty_like(sorted_vals)
    out[order] = sorted_vals
    return GridFunction(grid=g, values=out)


def bump(grid: DomainGrid, center, radius: float, height: float) -> GridFunction:
    """Smooth compactly supported bump with a raised-cosine profile."""
    return GridFunction(grid=grid, values=bump_values(grid, center, radius, height))


def bump_values(grid: DomainGrid, center, radius, height) -> np.ndarray:
    """The node values of bump; radius and height may be (k, 1) columns,
    which give k bumps about one center as the rows of a (k, n) stack."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    r = np.linalg.norm(grid.nodes - center, axis=1)
    return np.where(r < radius, height * np.cos(0.5 * np.pi * r / radius) ** 2, 0.0)


def random_function(grid: DomainGrid, seed: int, amplitude: float = 1.0) -> GridFunction:
    """Sign-mixed uniform values in [-amplitude, amplitude], PCG64-seeded."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-amplitude, amplitude, grid.n_nodes)
    return GridFunction(grid=grid, values=vals)


def indicator_function(grid: DomainGrid, seed: int, fraction: float = 0.3,
                       height: float = 1.0) -> GridFunction:
    """Indicator of a random node subset, for rearrangement and corpus tests."""
    rng = np.random.default_rng(seed)
    k = max(1, int(fraction * grid.n_nodes))
    idx = rng.choice(grid.n_nodes, size=k, replace=False)
    vals = np.zeros(grid.n_nodes)
    vals[idx] = height
    return GridFunction(grid=grid, values=vals)


# to_csv's header line, by grid dimension
CSV_HEADERS = {1: "x,value", 2: "x,y,value"}


def to_csv(u: GridFunction) -> str:
    """Serialize in the documented row-major CSV layout."""
    g = u.grid
    header = CSV_HEADERS[g.dim] + "\n"
    row = ",".join(["%.17g"] * (g.dim + 1)) + "\n"
    table = np.column_stack([g.nodes, u.values])
    return header + (row * len(table)) % tuple(table.ravel().tolist())


def from_csv(grid: DomainGrid, text: str) -> GridFunction:
    """Parse the CSV layout written by to_csv against a known grid."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    vals = np.array([float(ln.rsplit(",", 1)[1]) for ln in lines[1:]])
    return GridFunction(grid=grid, values=vals)
