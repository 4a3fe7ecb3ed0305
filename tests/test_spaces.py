import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcompact import (
    Constant,
    Grid,
    GridFunction,
    ModelError,
    PowerLaw,
    WeightedSpace,
    a1_constant,
    ap_constant,
    check_lattice_axioms,
    dyadic_cube_family,
    finiteness_witness,
    indicator_norm,
    inside_mask,
    l1_embedding_constant,
    l1_embedding_sweep,
    sample,
    weighted_norm,
)

from conftest import random_family


def test_weighted_norm_hand_value():
    g = Grid(dim=1, box_level=0, cell_exp=-1)  # 4 cells, h = 1/2
    sp = WeightedSpace(2.0, sample(Constant(1.0), g))
    f = GridFunction(g, np.array([1.0, 2.0, 3.0, 4.0]))
    # (1 + 4 + 9 + 16) * 0.5 = 15
    assert weighted_norm(f, sp) == pytest.approx(math.sqrt(15.0), rel=1e-15)
    sp1 = WeightedSpace(1.0, sample(Constant(2.0), g))
    assert weighted_norm(f, sp1) == pytest.approx(10.0, rel=1e-15)


def test_weighted_norm_quasi_exponent():
    g = Grid(dim=1, box_level=0, cell_exp=-1)
    sp = WeightedSpace(0.5, sample(Constant(1.0), g))
    f = GridFunction(g, np.array([4.0, 0.0, 0.0, 0.0]))
    # (sum |f|^1/2 * 0.5)^2 = (2 * 0.5)^2 = 1
    assert weighted_norm(f, sp) == pytest.approx(1.0, rel=1e-15)


def test_space_validation(grid1d):
    with pytest.raises(ModelError):
        WeightedSpace(0.0, sample(Constant(1.0), grid1d))
    with pytest.raises(ModelError):
        WeightedSpace(2.0, GridFunction(grid1d, -np.ones(grid1d.shape)))
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid1d))
    assert sp.conjugate == 2.0
    assert WeightedSpace(1.5, sample(Constant(1.0), grid1d)).conjugate == 3.0
    with pytest.raises(ModelError):
        _ = WeightedSpace(1.0, sample(Constant(1.0), grid1d)).conjugate


def test_norm_scaling_and_distance(flat_space, grid1d, rng):
    f = GridFunction(grid1d, rng.standard_normal(grid1d.shape))
    assert weighted_norm(f * 3.0, flat_space) == pytest.approx(
        3.0 * weighted_norm(f, flat_space), rel=1e-12
    )
    assert weighted_norm(f - f, flat_space) == 0.0


@pytest.mark.parametrize("value", [1e-3, 10.0])
def test_large_exponent_norm_of_a_constant(value):
    # at p = 400 the power of 1e-3 underflows and that of 10 overflows; the
    # norm on [-1, 1] with weight 1 is still value * 2**(1/p)
    g = Grid(dim=1, box_level=0, cell_exp=-6)
    sp = WeightedSpace(400.0, sample(Constant(1.0), g))
    f = GridFunction(g, np.full(g.shape, value))
    with np.errstate(over="ignore", under="ignore"):
        assert weighted_norm(f, sp) == pytest.approx(value * 2.0 ** (1 / 400), rel=1e-12)


def test_large_exponent_rescaling_ignores_zero_weight_cells():
    # the norm cannot see a zero-weight cell, so its value must not set the
    # scale that the visible cells are measured against
    g = Grid(dim=1, box_level=0, cell_exp=-6)
    w = np.ones(g.shape)
    w[0] = 0.0
    values = np.full(g.shape, 0.5)
    values[0] = 1e300
    sp = WeightedSpace(400.0, GridFunction(g, w))
    # the first pass overflows, and meets inf * 0 at the zero-weight cell:
    # the rescaled pass handles both, so neither may warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        measured = weighted_norm(GridFunction(g, values), sp)
    assert measured == pytest.approx(0.5 * (2.0 - g.cell_side) ** (1 / 400), rel=1e-12)


def test_square_is_power_two_bitwise():
    # the p = 2 power sum squares; np.square must give the bits of
    # np.power(x, 2.0), or every p = 2 certificate would move
    x = np.concatenate([np.geomspace(1e-150, 1e150, 65536), [0.0, -0.0, 5e-324, 1.7e308]])
    with np.errstate(over="ignore"):
        assert np.square(x).tobytes() == np.power(x, 2.0).tobytes()


@pytest.mark.parametrize("p", [0.6, 2.0])
def test_norm_beyond_float_range_is_model_error(p):
    # 1.7e308 on [-1, 1): at p = 0.6 the power sum is finite and its root is
    # not; at p = 2 the sum overflows, and so does the rescaled norm
    # 1.7e308 * 2**(1/2).  At 1e308 the rescaled norm 1.41e308 still fits.
    g = Grid(dim=1, box_level=0, cell_exp=-4)
    sp = WeightedSpace(p, sample(Constant(1.0), g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match=f"a norm at p = {p} exceeds the float range"):
            weighted_norm(GridFunction(g, np.full(g.shape, 1.7e308)), sp)
        if p == 2.0:
            fits = weighted_norm(GridFunction(g, np.full(g.shape, 1e308)), sp)
            assert fits == pytest.approx(1e308 * math.sqrt(2.0), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=500.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.booleans(),
)
def test_norm_is_homogeneous_over_the_exponent_range(seed, p, log_c, negative):
    g = Grid(dim=1, box_level=0, cell_exp=-4)
    r = np.random.default_rng(seed)
    w = r.uniform(0.0, 2.0, g.shape) * (r.uniform(size=g.shape) > 0.3)
    sp = WeightedSpace(p, GridFunction(g, w))
    f = GridFunction(g, r.standard_normal(g.shape) * 10.0 ** r.uniform(-3.0, 3.0))
    c = (-1.0 if negative else 1.0) * 10.0 ** log_c
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        scaled, plain = weighted_norm(f * c, sp), weighted_norm(f, sp)
    assert scaled == pytest.approx(abs(c) * plain, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=1.0, max_value=4.0))
def test_triangle_inequality_banach(seed, p):
    g = Grid(dim=1, box_level=0, cell_exp=-3)
    r = np.random.default_rng(seed)
    sp = WeightedSpace(p, GridFunction(g, r.uniform(0.0, 2.0, g.shape)))
    f = GridFunction(g, r.standard_normal(g.shape))
    h = GridFunction(g, r.standard_normal(g.shape))
    lhs = weighted_norm(f + h, sp)
    assert lhs <= weighted_norm(f, sp) + weighted_norm(h, sp) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.2, max_value=0.95))
def test_p_triangle_quasi(seed, p):
    # for p < 1 the p-th power of the norm is subadditive
    g = Grid(dim=1, box_level=0, cell_exp=-3)
    r = np.random.default_rng(seed)
    sp = WeightedSpace(p, GridFunction(g, r.uniform(0.0, 2.0, g.shape)))
    f = GridFunction(g, np.abs(r.standard_normal(g.shape)))
    h = GridFunction(g, np.abs(r.standard_normal(g.shape)))
    lhs = weighted_norm(f + h, sp) ** p
    rhs = weighted_norm(f, sp) ** p + weighted_norm(h, sp) ** p
    assert lhs <= rhs * (1 + 1e-12)


def test_power_norm_identity(grid1d, rng):
    f = GridFunction(grid1d, np.abs(rng.standard_normal(grid1d.shape)))
    sp = WeightedSpace(0.5, GridFunction(grid1d, rng.uniform(0.1, 1.0, grid1d.shape)))
    y = WeightedSpace(1.5, sp.weight)
    root = GridFunction(grid1d, f.values ** (1.0 / 3.0))
    assert weighted_norm(root, y) == pytest.approx(
        weighted_norm(f, sp) ** (1.0 / 3.0), rel=1e-12
    )


def test_indicator_norm(grid1d):
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid1d))
    mask = inside_mask(grid1d, 0.5)
    assert indicator_norm(sp, mask) == pytest.approx(1.0, rel=1e-15)  # 4 cells * 1/4


def test_lattice_axioms_pass(grid1d, rng):
    sp = WeightedSpace(2.0, GridFunction(grid1d, rng.uniform(0.1, 2.0, grid1d.shape)))
    probes = [GridFunction(grid1d, rng.standard_normal(grid1d.shape)) for _ in range(20)]
    base = GridFunction(grid1d, np.abs(rng.standard_normal(grid1d.shape)))
    chains = [[base * (k / 4.0) for k in range(1, 5)]]
    report = check_lattice_axioms(sp, probes, chains)
    assert report.passed
    assert {c.name for c in report.checks} == {
        "definiteness",
        "absolute_value",
        "monotonicity",
        "monotone_limits",
    }
    assert report["absolute_value"].passed


def test_definiteness_notes_null_cells(grid1d):
    w = np.ones(grid1d.shape)
    w[:2] = 0.0
    sp = WeightedSpace(2.0, GridFunction(grid1d, w))
    ghost = np.zeros(grid1d.shape)
    ghost[0] = 7.0  # invisible to the norm
    report = check_lattice_axioms(sp, [GridFunction(grid1d, ghost)])
    assert report.passed
    assert "null" in report["definiteness"].detail


def test_finiteness_witness(grid1d, rng):
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid1d))
    f = GridFunction(grid1d, rng.standard_normal(grid1d.shape))
    wit = finiteness_witness(sp, f, inside_mask(grid1d, 0.5))
    assert wit.cell == (2,)  # first positive-weight cell of the mask, row-major
    assert wit.center == (-0.375,)
    # a mask killed by the weight has no witness
    w = np.ones(grid1d.shape)
    w[2:6] = 0.0
    spz = WeightedSpace(2.0, GridFunction(grid1d, w))
    with pytest.raises(ModelError):
        finiteness_witness(spz, f, inside_mask(grid1d, 0.5))


def test_l1_embedding_constant_hand_values(grid1d):
    # p = 2, w = 1: dual mass = measure of the set
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid1d))
    mask = inside_mask(grid1d, 0.5)
    assert l1_embedding_constant(sp, mask) == pytest.approx(1.0, rel=1e-15)
    # p = 1: sup of 1/w
    sp1 = WeightedSpace(1.0, sample(Constant(4.0), grid1d))
    assert l1_embedding_constant(sp1, mask) == 0.25
    # zero weight inside the set diverges
    w = np.ones(grid1d.shape)
    w[3] = 0.0
    assert l1_embedding_constant(WeightedSpace(2.0, GridFunction(grid1d, w)), mask) == math.inf
    assert l1_embedding_constant(sp, np.zeros(grid1d.shape, dtype=bool)) == 0.0


def test_l1_embedding_sweep_growth():
    masses = l1_embedding_sweep(PowerLaw(2.0), 2.0, 1, 0, [-6, -7, -8], 1.0, "box")
    assert masses[1] / masses[0] == pytest.approx(2.0, abs=0.01)
    assert masses[2] / masses[1] == pytest.approx(2.0, abs=0.01)
    stable = l1_embedding_sweep(PowerLaw(0.5), 2.0, 1, 0, [-6, -7, -8], 1.0, "box")
    assert stable[2] / stable[1] < 1.1


def test_ap_constant_exact_for_constants(grid1d):
    for c in (0.5, 1.0, 3.0, 0.1, 7.3):
        w = sample(Constant(c), grid1d)
        for p in (1.5, 2.0, 4.0, 1.01):
            assert ap_constant(w, p) == 1.0
        assert a1_constant(w) == 1.0


def test_ap_constant_regression_and_oracle():
    # weight |x|^{1/2}, p = 2, h = 2^-10 on [-1, 1)
    g = Grid(dim=1, box_level=0, cell_exp=-10)
    w = sample(PowerLaw(0.5), g)
    val = ap_constant(w, 2.0)
    assert val == pytest.approx(1.1492323234919042, rel=1e-13)

    # independent oracle: direct loop over every dyadic cube
    def oracle(wv, p, cell_exp, box_level):
        best = 0.0
        pp = p / (p - 1.0)
        for i in range(cell_exp, box_level + 1):
            cpc = 2 ** (i - cell_exp)
            for start in range(0, len(wv), cpc):
                blk = wv[start : start + cpc]
                wa = blk.mean()
                da = np.mean(blk ** (1.0 - pp))
                if wa > 0:
                    best = max(best, (da / wa ** (1.0 - pp)) ** (1.0 / pp))
        return best

    assert val == pytest.approx(oracle(w.values, 2.0, -10, 0), rel=1e-12)
    assert a1_constant(w) == pytest.approx(30.169972522600517, rel=1e-13)


def test_ap_constant_null_cube_is_infinite(grid1d):
    w = np.ones(grid1d.shape)
    w[:2] = 0.0  # kills a dyadic cube
    assert ap_constant(GridFunction(grid1d, w), 2.0) == math.inf
    assert a1_constant(GridFunction(grid1d, w)) == math.inf


def test_ap_constant_isolated_zero_diverges(grid1d):
    w = np.ones(grid1d.shape)
    w[3] = 0.0  # no full null cube, but the dual average blows up
    assert ap_constant(GridFunction(grid1d, w), 2.0) == math.inf
    assert a1_constant(GridFunction(grid1d, w)) == math.inf


def test_ap_constant_monotone_in_cube_family():
    g = Grid(dim=1, box_level=0, cell_exp=-6)
    w = sample(PowerLaw(1.0), g)
    fam = dyadic_cube_family(g)
    partial = ap_constant(w, 2.0, cube_family=fam[:2])
    full = ap_constant(w, 2.0, cube_family=fam)
    assert partial <= full
    assert full == ap_constant(w, 2.0)


def test_ap_needs_p_above_one(grid1d):
    with pytest.raises(ModelError):
        ap_constant(sample(Constant(1.0), grid1d), 1.0)
