import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from lpcompact import (
    Constant,
    Grid,
    GridFunction,
    ModelError,
    PowerLaw,
    WeightedSpace,
    blowup_fit,
    blowup_ratio,
    completeness_run,
    indicator_mass_ratio,
    inside_mask,
    sample,
    weighted_norm,
)


def test_power_weight_values():
    grid = Grid(dim=1, box_level=0, cell_exp=-3)
    flat = sample(PowerLaw(0.0), grid)
    np.testing.assert_array_equal(flat.values, 1.0)
    quad = sample(PowerLaw(2.0), grid)
    np.testing.assert_allclose(quad.values, np.abs(grid.axis_centers()) ** 2)
    # centers are symmetric about the origin, so the weight is too
    np.testing.assert_array_equal(quad.values, quad.values[::-1])


def test_indicator_mass_ratio_hand_value():
    grid = Grid(dim=1, box_level=0, cell_exp=-3)
    sp = WeightedSpace(2.0, sample(PowerLaw(0.0), grid))
    # ball of radius 1/2 holds 8 cells of side 1/8: mass 1, norm 1
    assert indicator_mass_ratio(sp, 0.5) == 1.0

    # weight supported only outside the ball: the norm vanishes
    w = np.where(np.abs(grid.axis_centers()) > 0.5, 1.0, 0.0)
    dead = WeightedSpace(2.0, GridFunction(grid, w))
    with pytest.raises(ModelError):
        indicator_mass_ratio(dead, 0.5)


def test_indicator_mass_ratio_weight_scaling():
    grid = Grid(dim=1, box_level=0, cell_exp=-6)
    w = sample(PowerLaw(1.5), grid)
    base = indicator_mass_ratio(WeightedSpace(2.0, w), 0.25)
    scaled = indicator_mass_ratio(WeightedSpace(2.0, 5.0 * w), 0.25)
    assert scaled == pytest.approx(base / 5.0 ** 0.5, rel=1e-12)


def test_blowup_ratio_p1_exact():
    grid = Grid(dim=1, box_level=0, cell_exp=-10)
    for n in (8, 16, 64, 256):
        assert blowup_ratio(1.0, grid, n) == 2.0 * n


def test_blowup_ratio_p2_closed_form():
    # with K cells per radius the squared denominator is h^3 K (4K^2 - 1) / 6
    grid = Grid(dim=1, box_level=0, cell_exp=-10)
    h = grid.cell_side
    for n in (8, 32, 128):
        k = round(1.0 / (n * h))
        expected = 2.0 * math.sqrt(6.0 * k / (h * (4.0 * k * k - 1.0)))
        assert blowup_ratio(2.0, grid, n) == pytest.approx(expected, rel=1e-12)


def test_blowup_ratio_unresolvable():
    grid = Grid(dim=1, box_level=0, cell_exp=-10)
    with pytest.raises(ModelError, match="multiple of the cell side"):
        blowup_ratio(2.0, grid, 3)
    with pytest.raises(ModelError):
        blowup_ratio(2.0, grid, 2048)  # radius under one cell
    with pytest.raises(ModelError):
        blowup_ratio(2.0, grid, 0)
    with pytest.raises(ModelError):
        blowup_ratio(-1.0, grid, 8)
    with pytest.raises(ModelError, match="p must be positive"):
        blowup_ratio(math.nan, grid, 8)


def test_blowup_fit_slopes():
    grid = Grid(dim=1, box_level=0, cell_exp=-10)
    ns = [2 ** k for k in range(3, 10)]
    rep1 = blowup_fit(1.0, grid, ns)
    assert rep1.slope == pytest.approx(1.0, rel=1e-10)
    assert rep1.weight_exponent == 1.0
    assert [n for n, _ in rep1.rows] == ns

    rep2 = blowup_fit(2.0, grid, ns)
    assert rep2.slope == pytest.approx(0.5, rel=0.05)
    assert rep2.weight_exponent == 2.0

    # flat-weight control at p=1: the ratio is identically one
    flat = blowup_fit(1.0, grid, ns, weight_exponent=0.0)
    assert all(r == 1.0 for _, r in flat.rows)
    assert flat.slope == 0.0

    with pytest.raises(ModelError, match="at least 4"):
        blowup_fit(2.0, grid, [8, 16, 32])


def test_blowup_report_as_dict():
    grid = Grid(dim=1, box_level=0, cell_exp=-8)
    rep = blowup_fit(1.0, grid, [8, 16, 32, 64])
    doc = json.loads(json.dumps(asdict(rep)))
    assert doc["p"] == 1.0 and doc["dim"] == 1
    assert doc["rows"] == [[n, r] for n, r in rep.rows]
    assert doc["slope"] == rep.slope


@pytest.fixture
def completeness_space():
    grid = Grid(dim=1, box_level=0, cell_exp=-5)
    return WeightedSpace(2.0, sample(Constant(1.0), grid))


def test_completeness_run_bounds(completeness_space, rng):
    sp = completeness_space
    seed = GridFunction(sp.grid, rng.normal(size=sp.grid.shape))
    rep = completeness_run(sp, seed, steps=6)
    assert rep.passed
    assert len(rep.tail_rows) == 6
    for k, bound, measured in rep.tail_rows:
        assert bound == 2.0 ** (1 - k)
        assert measured <= bound + 1e-12
    tails = [m for _, _, m in rep.tail_rows]
    assert tails == sorted(tails, reverse=True)
    doms = [m for _, _, m in rep.dominator_rows]
    assert doms == sorted(doms)
    assert all(m <= 1.0 + 1e-12 for m in doms)
    assert rep.dominator_finite


def test_completeness_run_scale(completeness_space, rng):
    sp = completeness_space
    seed = GridFunction(sp.grid, rng.normal(size=sp.grid.shape))
    rep = completeness_run(sp, seed, steps=4, scale=0.25)
    assert rep.passed
    assert rep.tail_rows[0][1] == 0.25  # 2^(1-1) * scale

    frozen = completeness_run(sp, seed, steps=4, scale=0.0)
    assert frozen.passed
    assert all(m == 0.0 for _, _, m in frozen.tail_rows)


def test_completeness_run_rejections(completeness_space, rng):
    sp = completeness_space
    seed = GridFunction(sp.grid, rng.normal(size=sp.grid.shape))
    with pytest.raises(ModelError, match="two steps"):
        completeness_run(sp, seed, steps=1)
    with pytest.raises(ModelError):
        completeness_run(sp, seed, steps=5, scale=-1.0)
    with pytest.raises(ModelError, match="scale must be nonnegative"):
        completeness_run(sp, seed, steps=5, scale=math.nan)
    quasi = WeightedSpace(0.5, sp.weight)
    with pytest.raises(ModelError, match="p >= 1"):
        completeness_run(quasi, seed, steps=5)
    other = Grid(dim=1, box_level=0, cell_exp=-4)
    with pytest.raises(ModelError):
        completeness_run(sp, GridFunction(other, np.zeros(other.shape)), steps=5)


def test_completeness_null_weight_cells(rng):
    # increments avoid weight-killed cells, so the ladder still realises
    grid = Grid(dim=1, box_level=0, cell_exp=-4)
    w = np.ones(grid.shape)
    w[: grid.n_cells // 2] = 0.0
    sp = WeightedSpace(2.0, GridFunction(grid, w))
    seed = GridFunction(grid, rng.normal(size=grid.shape))
    rep = completeness_run(sp, seed, steps=5)
    assert rep.passed
    assert rep.tail_rows[0][2] > 0.0
