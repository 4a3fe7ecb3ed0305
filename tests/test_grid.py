import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpcompact import (
    DyadicPartition,
    Grid,
    GridFunction,
    ModelError,
    all_cube_averages,
    ball_average_field,
    inside_mask,
    outside_mask,
    shift_stencil,
)


def test_grid_geometry():
    g = Grid(dim=1, box_level=0, cell_exp=-2)
    assert g.cell_side == 0.25
    assert g.cells_per_axis == 8
    assert g.shape == (8,)
    assert g.n_cells == 8
    assert g.cell_volume == 0.25
    # half-open cells [a, a+h): centers sit at a + h/2
    np.testing.assert_allclose(
        g.axis_centers(), [-0.875, -0.625, -0.375, -0.125, 0.125, 0.375, 0.625, 0.875]
    )


def test_grid_geometry_2d():
    g = Grid(dim=2, box_level=1, cell_exp=-1)
    assert g.shape == (8, 8)
    assert g.cell_volume == 0.25
    assert g.center_radii().shape == (8, 8)
    # corner cell center at (-1.75, -1.75)
    assert g.center_radii()[0, 0] == pytest.approx(np.hypot(1.75, 1.75))
    assert g.center_maxnorm()[0, 0] == pytest.approx(1.75)


def test_grid_rejects_bad_levels():
    with pytest.raises(ModelError):
        Grid(dim=1, box_level=-1, cell_exp=0)
    with pytest.raises(ModelError):
        Grid(dim=0, box_level=0, cell_exp=-2)


@pytest.mark.parametrize(
    "dim, box_level, cell_exp",
    [(1, 10 ** 400, 0), (1, 0, -(10 ** 400)), (1, 62, 0), (2, 31, 0), (2, 0, -31)],
    ids=["huge_box", "huge_cells", "1d_63_levels", "2d_32_levels", "2d_32_cell_levels"],
)
def test_grid_rejects_more_cells_than_numpy_can_index(dim, box_level, cell_exp):
    # the check comes before any power of two: 2**(10**400) is never formed
    with pytest.raises(ModelError, match="more cells than numpy can index"):
        Grid(dim=dim, box_level=box_level, cell_exp=cell_exp)


@pytest.mark.parametrize(
    "dim, box_level, cell_exp",
    [(1, 1100, 1099), (1, 1024, 1000), (1, -1014, -1075), (2, 512, 512), (2, -537, -538),
     (1, 10 ** 400, 10 ** 400)],
    ids=["two_cells_past_range", "half_width", "cell_side", "volume_over", "volume_under",
         "huge_levels"],
)
def test_grid_rejects_lengths_outside_the_float_range(dim, box_level, cell_exp):
    with pytest.raises(ModelError, match="leave the float range"):
        Grid(dim=dim, box_level=box_level, cell_exp=cell_exp)


@pytest.mark.parametrize(
    "dim, box_level, cell_exp",
    [(1, 61, 0), (2, 30, 0), (1, 1023, 1000), (1, -1013, -1074), (2, 511, 511), (2, -537, -537)],
)
def test_grid_accepts_the_level_bounds(dim, box_level, cell_exp):
    # the largest cell count and the extreme lengths that stay in range,
    # checked on the grid's numbers alone: none of these is allocated
    g = Grid(dim=dim, box_level=box_level, cell_exp=cell_exp)
    assert g.n_cells <= 2 ** 62
    assert g.cell_side == math.ldexp(1.0, cell_exp)
    assert 0.0 < g.cell_volume < math.inf


def test_gridfunction_validation(grid1d):
    with pytest.raises(ModelError):
        GridFunction(grid1d, np.zeros(7))
    with pytest.raises(ModelError):
        GridFunction(grid1d, np.array([np.nan] * 8))
    f = GridFunction(grid1d, np.arange(8.0))
    with pytest.raises(ValueError):
        f.values[0] = 5.0  # frozen buffer


def test_gridfunction_owns_one_copy_of_its_values(grid1d):
    values = np.arange(8.0)
    f = GridFunction(grid1d, values)
    values[0] = 5.0
    assert f.values[0] == 0.0
    assert not f.values.flags.writeable
    # from a list the float64 array is built once, not built and copied
    wide = Grid(dim=2, box_level=1, cell_exp=-6)
    rows = np.ones(wide.shape).tolist()
    tracemalloc.start()
    try:
        g = GridFunction(wide, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * g.values.nbytes


def test_gridfunction_keeps_only_an_array_nothing_else_can_write(grid1d):
    # a read-only float64 array that owns its data is shared; a writable one,
    # a read-only view of a writable base and another dtype are copied
    owned = np.arange(8.0)
    owned.flags.writeable = False
    assert GridFunction(grid1d, owned).values is owned
    for values, base in [
        (np.arange(8.0), None),
        (np.arange(16.0)[::2], None),
        (np.arange(8, dtype=np.float32), None),
    ]:
        kept = GridFunction(grid1d, values).values
        assert kept.flags.owndata and not kept.flags.writeable
        assert not np.shares_memory(kept, values)
    base = np.arange(8.0)
    view = base[:]
    view.flags.writeable = False
    f = GridFunction(grid1d, view)
    assert not np.shares_memory(f.values, base)
    base[0] = 5.0
    assert f.values[0] == 0.0
    # the checks hold for a kept array too
    bad = np.array([np.nan] * 8)
    bad.flags.writeable = False
    with pytest.raises(ModelError, match="finite"):
        GridFunction(grid1d, bad)
    short = np.zeros(7)
    short.flags.writeable = False
    with pytest.raises(ModelError, match="shape"):
        GridFunction(grid1d, short)


def test_gridfunction_results_own_their_values(grid1d):
    # every result a library operation makes is handed over without a copy
    f = GridFunction(grid1d, np.arange(8.0))
    for g in (f + f, f - f, f * 2.0, -f, abs(f), GridFunction.zeros(grid1d),
              ball_average_field(f, 0.5)):
        assert g.values.flags.owndata and not g.values.flags.writeable
        assert not np.shares_memory(g.values, f.values)


def test_gridfunction_arithmetic(grid1d):
    f = GridFunction(grid1d, np.arange(8.0))
    g = GridFunction(grid1d, np.ones(8))
    np.testing.assert_array_equal((f + g).values, np.arange(8.0) + 1)
    np.testing.assert_array_equal((f - g).values, np.arange(8.0) - 1)
    np.testing.assert_array_equal((f * 2.0).values, np.arange(8.0) * 2)
    np.testing.assert_array_equal(abs(f - g * 5.0).values, np.abs(np.arange(8.0) - 5))
    other = Grid(dim=1, box_level=1, cell_exp=-2)
    with pytest.raises(ModelError):
        f + GridFunction(other, np.zeros(other.shape))


def test_masks_by_center(grid1d):
    # open ball of radius 0.5: |center| < 0.5 picks the middle four cells
    m = inside_mask(grid1d, 0.5)
    np.testing.assert_array_equal(m, [0, 0, 1, 1, 1, 1, 0, 0])
    np.testing.assert_array_equal(outside_mask(grid1d, 0.5), ~m)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_masks_reject_a_radius_that_is_not_positive(grid1d, radius):
    with pytest.raises(ModelError, match=f"region radius must be positive, got {radius}"):
        inside_mask(grid1d, radius)


def test_masks_at_infinite_radius(grid1d):
    # a region of infinite radius holds every cell
    assert np.all(inside_mask(grid1d, math.inf, "ball"))
    assert not np.any(outside_mask(grid1d, math.inf, "box"))


def test_masks_box_vs_ball(grid2d):
    ball = inside_mask(grid2d, 0.5, region="ball")
    box = inside_mask(grid2d, 0.5, region="box")
    # box region contains the ball and differs on the diagonal corner cells
    assert np.all(box[ball])
    assert ball.sum() < box.sum()


def test_partition_layout():
    g = Grid(dim=1, box_level=1, cell_exp=-2)  # 16 cells on [-2, 2)
    part = DyadicPartition(g, 0, -1)  # cover [-1, 1) with cubes of side 1/2
    assert part.cubes_per_axis == 4
    assert part.cells_per_cube_axis == 2
    assert part.cell_start == 4
    assert part.inside_slices() == (slice(4, 12),)
    assert part.cube_slices(1) == (slice(6, 8),)


def test_partition_validation():
    g = Grid(dim=1, box_level=0, cell_exp=-2)
    with pytest.raises(ModelError):
        DyadicPartition(g, 1, -1)  # box bigger than the grid
    with pytest.raises(ModelError):
        DyadicPartition(g, 0, -3)  # cube finer than a cell


def test_cube_averages_match_loop(grid2d, rng):
    f = GridFunction(grid2d, rng.standard_normal(grid2d.shape))
    part = DyadicPartition(grid2d, 0, -1)
    avgs = all_cube_averages(f, part)
    for idx in range(part.n_cubes):
        blk = f.values[part.cube_slices(idx)]
        assert avgs[idx] == pytest.approx(blk.mean(), rel=1e-15)


def test_cube_average_exactness():
    # power-of-two cell counts: averages of lattice values are exact dyadics
    g = Grid(dim=1, box_level=0, cell_exp=-3)
    f = GridFunction(g, np.array([1.0, 3.0] * 8))
    part = DyadicPartition(g, 0, -2)
    np.testing.assert_array_equal(all_cube_averages(f, part), [2.0] * 8)


def test_shift_stencil_small():
    g = Grid(dim=2, box_level=0, cell_exp=-2)
    h = g.cell_side
    ball = shift_stencil(g, h, "ball")
    assert set(ball) == {(-1, 0), (0, -1), (0, 1), (1, 0)}
    box = shift_stencil(g, h, "box")
    assert len(box) == 8  # full 3x3 ring minus the origin
    ball0 = shift_stencil(g, h, "ball", include_zero=True)
    assert (0, 0) in ball0 and len(ball0) == 5
    # deterministic lexicographic order
    assert ball == sorted(ball)


def _itertools_stencil(grid, radius, kind, include_zero):
    """The stencil by its definition: every k in the cube of side 2 kmax + 1,
    lexicographically, kept when |k h| <= radius."""
    h = grid.cell_side
    kmax = int(np.floor(radius / h + 1e-12))
    offsets = []
    for k in itertools.product(range(-kmax, kmax + 1), repeat=grid.dim):
        if not include_zero and all(c == 0 for c in k):
            continue
        if kind == "ball":
            if sum((c * h) ** 2 for c in k) > radius * radius:
                continue
        elif max(abs(c) for c in k) * h > radius:
            continue
        offsets.append(k)
    return offsets


_radius_in_cells = st.one_of(
    st.sampled_from([-3.0, -1.0, 0.0, 0.25, 1.0 - 1e-13, 1.0 + 1e-13, 2.0 - 1e-13, 5.0 + 1e-13]),
    st.floats(min_value=0.0, max_value=6.0),
    st.sampled_from([math.sqrt(2), math.sqrt(5), math.pi, 2.5, 13 / 3]),
    st.integers(min_value=-2, max_value=3).map(lambda i: 2.0**i),
)


@settings(max_examples=300, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    cell_exp=st.integers(min_value=-8, max_value=0),
    cells=_radius_in_cells,
    kind=st.sampled_from(["ball", "box"]),
    include_zero=st.booleans(),
)
@example(dim=2, cell_exp=-3, cells=1.0 - 1e-13, kind="box", include_zero=False)
@example(dim=2, cell_exp=-3, cells=math.sqrt(2), kind="ball", include_zero=True)
@example(dim=1, cell_exp=0, cells=-1.0, kind="ball", include_zero=True)
def test_shift_stencil_is_its_definition(dim, cell_exp, cells, kind, include_zero):
    # the numpy ring source lists exactly the definition's shifts, in its
    # order, each coordinate a Python int
    grid = Grid(dim=dim, box_level=1, cell_exp=cell_exp)
    radius = cells * grid.cell_side
    stencil = shift_stencil(grid, radius, kind, include_zero=include_zero)
    assert stencil == _itertools_stencil(grid, radius, kind, include_zero)
    assert all(type(c) is int for k in stencil for c in k)


def test_shift_stencil_radius_too_small(grid1d):
    # no admissible shift: the primitive reports an empty stencil, callers decide
    assert shift_stencil(grid1d, grid1d.cell_side / 4, "ball") == []
    with pytest.raises(ModelError):
        ball_average_field(
            GridFunction(grid1d, np.zeros(grid1d.shape)), grid1d.cell_side / 4
        )


def test_ball_average_field_oracle(grid1d):
    f = GridFunction(grid1d, np.arange(8.0))
    avg = ball_average_field(f, grid1d.cell_side)
    # stencil {-1, 0, +1} with zero-fill outside the box
    vals = f.values
    expected = (np.r_[0.0, vals[:-1]] + vals + np.r_[vals[1:], 0.0]) / 3.0
    np.testing.assert_allclose(avg.values, expected, rtol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=999))
def test_partition_reassembly(seed):
    # expanding the cube averages preserves the mean over every cube
    g = Grid(dim=1, box_level=0, cell_exp=-4)
    r = np.random.default_rng(seed)
    f = GridFunction(g, r.standard_normal(g.shape))
    part = DyadicPartition(g, 0, -2)
    avgs = all_cube_averages(f, part)
    for idx in range(part.n_cubes):
        blk = f.values[part.cube_slices(idx)]
        assert blk.mean() == pytest.approx(avgs[idx], rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
def test_center_mesh_is_read_only(dim):
    # profiles sampled together share one mesh, which none of them can
    # change: one array per axis, which broadcasts to the cell shape
    g = Grid(dim=dim, box_level=0, cell_exp=-2)
    mesh = g.center_mesh()
    fresh = np.meshgrid(*[g.axis_centers()] * dim, indexing="ij", sparse=True)
    assert np.broadcast_shapes(*(c.shape for c in mesh)) == g.shape
    for c, f in zip(mesh, fresh, strict=True):
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[(0,) * dim] = 1.0
        assert c.shape == f.shape
        np.testing.assert_array_equal(c, f)
