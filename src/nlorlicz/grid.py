"""Uniform cell-centered grids on bounded domains of R^N and grid functions.

A domain is a box or a ball, and its bounds have one layout per kind for
every N: a box, the interval being the 1-D box, is (a_1, b_1, ..., a_N,
b_N), and a ball is (c_1, ..., c_N, R).  DIMENSIONS lists the dimensions
that the package supports, and _SHAPES gives each shape its dimension and
its default bounds.

Functions carry values on interior nodes only; the complement of the domain
is implicitly zero everywhere (the zero-exterior convention of the nonlocal
Dirichlet problem).  Node ordering is row-major over axis indices: the first
axis is the slowest, so in 2D the y index varies fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

DIMENSIONS = (1, 2)

# unit sphere measure omega_N = 2 pi^(N/2) / Gamma(N/2) (N=1: two points;
# N=2: circle length) and unit ball volume omega_N / N
SPHERE_MEASURE = {N: 2.0 * math.pi ** (N / 2) / math.gamma(N / 2) for N in DIMENSIONS}
BALL_VOLUME = {N: SPHERE_MEASURE[N] / N for N in DIMENSIONS}

# each shape's dimension and default bounds; "ball" alone has the ball layout
_SHAPES = {"interval": (1, (-1.0, 1.0)), "box": (2, (0.0, 1.0, 0.0, 1.0)),
           "ball": (2, (0.0, 0.0, 1.0))}


def _box_sides(bounds: tuple) -> list:
    """The side lengths b_i - a_i of the box layout (a_1, b_1, ..., a_N, b_N)."""
    return [b - a for a, b in zip(bounds[0::2], bounds[1::2])]


@dataclass(frozen=True)
class DomainGrid:
    """Cell-centered discretization of a box (an interval in 1D) or a ball."""

    dim: int
    shape: str  # "interval" | "box" | "ball"
    bounds: tuple  # box layout (a_1, b_1, ..., a_N, b_N); ball (c_1, ..., c_N, R)
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
        if self.shape == "ball":
            return np.array(self.bounds[:-1])
        return 0.5 * (np.array(self.bounds[0::2]) + np.array(self.bounds[1::2]))

    @property
    def volume(self) -> float:
        """Measure of the continuum domain (not of the union of cells)."""
        if self.shape == "ball":
            return BALL_VOLUME[self.dim] * self.bounds[-1] ** self.dim
        return math.prod(_box_sides(self.bounds))

    @property
    def inradius(self) -> float:
        """sup over the domain of the distance to the complement."""
        return self.bounds[-1] if self.shape == "ball" else 0.5 * min(_box_sides(self.bounds))

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
    """Build a cell-centered grid with n_per_axis cells on each axis.

    "interval" (N = 1) and "box" (N = 2) take the box layout (a_1, b_1, ...,
    a_N, b_N), with equal sides; "ball" (N = 2) takes (c_1, ..., c_N, R),
    and its nodes are the centres of the bounding box's cells that fall
    inside the ball.  Bounds left out take the shape's default; bounds of
    the wrong length, not finite or degenerate raise a ValidationError.
    """
    if n_per_axis < 4:
        raise ValidationError("need at least 4 nodes per axis")
    if shape not in _SHAPES:
        raise ValidationError(f"unknown grid shape {shape!r}")
    dim, default = _SHAPES[shape]
    bounds = tuple(float(v) for v in (default if bounds is None else bounds))
    ball = shape == "ball"
    size, layout = (dim + 1, "(c_1, ..., c_N, R)") if ball else (2 * dim, "(a_1, b_1, ...)")
    if len(bounds) != size:
        raise ValidationError(
            f"{shape} bounds {layout} need {size} numbers, got {len(bounds)}")
    if not all(map(math.isfinite, bounds)):
        raise ValidationError(f"{shape} bounds must be finite, got {bounds}")
    if ball:
        *centre, radius = bounds
        sides, lower = [2.0 * radius], [c - radius for c in centre]
    else:
        sides, lower = _box_sides(bounds), bounds[0::2]
    if not min(sides) > 0.0:
        raise ValidationError(f"degenerate {shape}")
    if max(sides) - min(sides) > 1e-12 * sides[0]:
        # one spacing h for every axis keeps the pair weights a function of
        # the lattice offset
        raise ValidationError("box must be square (uniform spacing on both axes)")
    h = sides[0] / n_per_axis
    nodes = _cell_centres(lower, h, n_per_axis)
    if ball:
        # the hypot fold has np.hypot's bits in 2D, which np.linalg.norm has not
        nodes = nodes[np.hypot.reduce((nodes - centre).T, axis=0, initial=0.0) < radius]
    return DomainGrid(dim=dim, shape=shape, bounds=bounds, n_per_axis=n_per_axis,
                      spacing=h, nodes=nodes)


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
CSV_HEADERS = {N: ",".join([*"xyz"[:N], "value"]) for N in DIMENSIONS}


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
