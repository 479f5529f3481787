import numpy as np
import pytest

from nlorlicz import (
    GridFunction,
    ValidationError,
    bump,
    decreasing_rearrangement,
    indicator_function,
    make_grid,
    random_function,
)
from nlorlicz.grid import (BALL_VOLUME, CSV_HEADERS, DIMENSIONS, SPHERE_MEASURE, DomainGrid,
                           _cell_centres, from_csv, to_csv)


class TestMakeGrid:
    def test_interval_cell_centers(self):
        g = make_grid("interval", 8, (-1.0, 1.0))
        assert g.spacing == pytest.approx(0.25)
        assert np.allclose(g.nodes.ravel(),
                           [-0.875, -0.625, -0.375, -0.125, 0.125, 0.375, 0.625, 0.875])
        assert g.cell_volume == pytest.approx(0.25)

    def test_box_counts(self):
        g = make_grid("box", 4, (0.0, 1.0, 0.0, 1.0))
        assert g.n_nodes == 16
        assert g.cell_volume == pytest.approx(1.0 / 16.0)
        # row-major: second axis fastest
        assert np.allclose(g.nodes[0], [0.125, 0.125])
        assert np.allclose(g.nodes[1], [0.125, 0.375])

    def test_ball_is_the_box_lattice_inside_the_ball(self):
        for n in (8, 17, 24):
            ball = make_grid("ball", n, (0.0, 0.0, 1.0))
            box = make_grid("box", n, (-1.0, 1.0, -1.0, 1.0))
            assert ball.spacing == box.spacing
            inside = np.hypot(box.nodes[:, 0], box.nodes[:, 1]) < 1.0
            assert np.array_equal(ball.nodes, box.nodes[inside])

    def test_ball_count_tracks_area(self):
        g = make_grid("ball", 8, (0.0, 0.0, 1.0))
        assert g.n_nodes == 52  # centers inside the disk; ~pi/4 * 64
        assert abs(g.n_nodes - np.pi / 4 * 64) <= 8
        assert np.all(np.hypot(*(g.nodes - g.center).T) < 1.0)
        assert g.cell_volume * g.n_nodes == pytest.approx(g.volume, rel=0.05)

    def test_rejections(self):
        with pytest.raises(ValidationError):
            make_grid("interval", 3, (-1.0, 1.0))
        with pytest.raises(ValidationError):
            make_grid("interval", 8, (1.0, 1.0))
        with pytest.raises(ValidationError):
            make_grid("ball", 8, (0.0, 0.0, 0.0))
        with pytest.raises(ValidationError):
            make_grid("box", 8, (0.0, 2.0, 0.0, 1.0))  # not square
        with pytest.raises(ValidationError):
            make_grid("hexagon", 8)
        # bounds of the wrong length name the shape and the count it needs
        for shape, bounds, size in (("interval", (0.0, 1.0, 2.0), 2),
                                    ("box", (0.0, 1.0), 4), ("ball", (0.0, 1.0), 3),
                                    ("ball", (0.0, 0.0, 0.0, 1.0), 3)):
            with pytest.raises(ValidationError, match=f"{shape} bounds .* need {size} numbers"):
                make_grid(shape, 8, bounds)
        # non-finite bounds, which gave spacing inf or a grid of no nodes
        for shape, bounds in (("interval", (0.0, np.inf)), ("interval", (np.nan, 1.0)),
                              ("box", (0.0, 1.0, -np.inf, 1.0)), ("ball", (0.0, 0.0, np.inf)),
                              ("ball", (np.nan, 0.0, 1.0))):
            with pytest.raises(ValidationError, match="finite"):
                make_grid(shape, 8, bounds)

    @pytest.mark.parametrize("n", [8, 24, 37])
    def test_off_centre_ball_is_the_hypot_mask(self, n):
        # the ball mask, a hypot fold over the axes, keeps np.hypot's bits on
        # an off-centre ball of non-unit radius
        cx, cy, R = 0.3, -0.7, 1.3795
        ball = make_grid("ball", n, (cx, cy, R))
        lattice = _cell_centres((cx - R, cy - R), 2.0 * R / n, n)
        inside = np.hypot(lattice[:, 0] - cx, lattice[:, 1] - cy) < R
        assert ball.spacing == 2.0 * R / n
        assert np.array_equal(ball.nodes, lattice[inside])

    def test_center_and_inradius_read_off_the_layouts_in_3d(self):
        # a hand-built N = 3 box and ball: the geometry has no per-N branch
        box_bounds = (0.0, 0.75, -1.0, -0.25, 2.0, 2.75)
        box = DomainGrid(dim=3, shape="box", bounds=box_bounds, n_per_axis=4, spacing=0.1875,
                         nodes=_cell_centres((0.0, -1.0, 2.0), 0.1875, 4))
        assert box.n_nodes == 64
        assert np.array_equal(box.center, [0.375, -0.625, 2.375])
        assert box.inradius == 0.375
        assert box.volume == 0.75 ** 3
        ball = DomainGrid(dim=3, shape="ball", bounds=(0.3, -0.7, 2.0, 1.3795), n_per_axis=4,
                          spacing=2.0 * 1.3795 / 4,
                          nodes=_cell_centres((0.3 - 1.3795, -0.7 - 1.3795, 2.0 - 1.3795),
                                              2.0 * 1.3795 / 4, 4))
        assert np.array_equal(ball.center, [0.3, -0.7, 2.0])
        assert ball.inradius == 1.3795

    def test_dimension_tables_are_keyed_by_the_dimensions(self):
        assert tuple(SPHERE_MEASURE) == tuple(BALL_VOLUME) == tuple(CSV_HEADERS) == DIMENSIONS
        assert CSV_HEADERS == {1: "x,value", 2: "x,y,value"}

    def test_grid_function_validation(self):
        g = make_grid("interval", 8, (-1.0, 1.0))
        with pytest.raises(ValidationError):
            GridFunction(g, np.zeros(5))
        with pytest.raises(ValidationError):
            GridFunction(g, np.full(8, np.nan))


class TestRearrangement:
    def test_fixed_point(self):
        g = make_grid("interval", 16, (-1.0, 1.0))
        vals = np.exp(-np.abs(g.nodes.ravel()))  # radially decreasing, positive
        u = GridFunction(g, vals)
        out = decreasing_rearrangement(u)
        assert np.allclose(out.values, vals)

    def test_indicator_moves_to_center(self):
        g = make_grid("interval", 16, (-1.0, 1.0))
        u = indicator_function(g, seed=4, fraction=0.25, height=1.0)
        k = int(u.values.sum())
        out = decreasing_rearrangement(u)
        dist = np.abs(g.nodes.ravel() - g.center[0])
        nearest = np.argsort(dist, kind="stable")[:k]
        assert set(np.nonzero(out.values)[0]) == set(nearest)

    def test_preserves_value_multiset(self):
        g = make_grid("ball", 8, (0.0, 0.0, 1.0))
        u = random_function(g, seed=9)
        out = decreasing_rearrangement(u)
        assert np.allclose(np.sort(np.abs(u.values)), np.sort(out.values))

    def test_idempotent(self):
        g = make_grid("ball", 8, (0.0, 0.0, 1.0))
        u = random_function(g, seed=10)
        once = decreasing_rearrangement(u)
        twice = decreasing_rearrangement(once)
        assert np.array_equal(once.values, twice.values)

    def test_radially_nonincreasing(self):
        g = make_grid("interval", 32, (-1.0, 1.0))
        u = random_function(g, seed=11)
        out = decreasing_rearrangement(u)
        dist = np.abs(g.nodes.ravel() - g.center[0])
        order = np.argsort(dist, kind="stable")
        assert np.all(np.diff(out.values[order]) <= 1e-15)


class TestGenerators:
    def test_bump_center_and_support(self):
        g = make_grid("interval", 64, (-1.0, 1.0))
        center = g.nodes[40]  # place the apex exactly on a node
        u = bump(g, center, 0.5, 2.0)
        assert u.values[40] == pytest.approx(2.0)
        assert np.all(u.values[np.abs(g.nodes.ravel() - center[0]) >= 0.5] == 0.0)

    def test_zero_height_bump(self):
        g = make_grid("interval", 8, (-1.0, 1.0))
        assert not np.any(bump(g, [0.0], 0.5, 0.0).values)

    def test_random_function_deterministic(self):
        g = make_grid("interval", 32, (-1.0, 1.0))
        a = random_function(g, seed=77, amplitude=2.0)
        b = random_function(g, seed=77, amplitude=2.0)
        c = random_function(g, seed=78, amplitude=2.0)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert np.max(np.abs(a.values)) <= 2.0

    def test_csv_roundtrip(self):
        g = make_grid("box", 4, (0.0, 1.0, 0.0, 1.0))
        u = random_function(g, seed=3)
        text = to_csv(u)
        assert text.splitlines()[0] == "x,y,value"
        back = from_csv(g, text)
        assert np.array_equal(back.values, u.values)

    @pytest.mark.parametrize("shape, n, bounds", [
        ("interval", 512, (-1.0, 1.0)),
        ("box", 24, (-1.0, 1.0, -1.0, 1.0)),
        ("ball", 24, (0.0, 0.0, 1.0)),
    ])
    def test_csv_bytes_of_the_per_node_format(self, shape, n, bounds):
        g = make_grid(shape, n, bounds)
        u = random_function(g, seed=5)
        u.values[:3] = (-0.0, 1e-300, -2.5e17)

        lines = ["x,value" if g.dim == 1 else "x,y,value"]
        for node, v in zip(g.nodes, u.values):
            coords = ",".join(f"{c:.17g}" for c in node)
            lines.append(f"{coords},{v:.17g}")
        assert to_csv(u) == "\n".join(lines) + "\n"
