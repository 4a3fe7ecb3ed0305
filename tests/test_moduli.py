import contextlib
import itertools
import json
import math
import tracemalloc
import warnings
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lpcompact import (
    Constant,
    Family,
    Gaussian,
    Grid,
    GridFunction,
    Indicator,
    ModelError,
    PowerLaw,
    WeightedSpace,
    averaged_modulus,
    ball_average_field,
    bound_modulus,
    load_problem,
    measure_moduli,
    outside_mask,
    sample,
    select_mesh,
    tail_modulus,
    translation_modulus,
    verify_averaging_bound,
    weighted_norm,
)

from conftest import random_family, shift_norm, translation_reference
from lpcompact import moduli
from lpcompact.grid import shift_stencil
from lpcompact.moduli import _shifted_difference, _translation_scan
from lpcompact.spaces import _array_norm
from test_benchmark_pins import WORKLOADS


def _shift_axis(values, k, axis):
    """Reference zero-fill shift by k cells along one axis (no wraparound)."""
    if k == 0:
        return values
    out = np.zeros_like(values)
    n = values.shape[axis]
    if abs(k) >= n:
        return out
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    if k > 0:
        dst[axis] = slice(k, None)
        src[axis] = slice(None, n - k)
    else:
        dst[axis] = slice(None, n + k)
        src[axis] = slice(-k, None)
    out[tuple(dst)] = values[tuple(src)]
    return out


def _shift_cells(values, offsets):
    """Reference zero-fill shift by a cell offset vector, one axis at a time."""
    out = values
    for axis, k in enumerate(offsets):
        out = _shift_axis(out, k, axis)
    return out


def test_family_validation(grid1d):
    f = GridFunction(grid1d, np.ones(grid1d.shape))
    with pytest.raises(ModelError):
        Family(grid1d, (), ())
    with pytest.raises(ModelError):
        Family(grid1d, (f, f), ("a", "a"))
    with pytest.raises(ModelError):
        Family(grid1d, (f,), ("a", "b"))
    other = Grid(dim=1, box_level=1, cell_exp=-2)
    g = GridFunction(other, np.ones(other.shape))
    with pytest.raises(ModelError):
        Family(grid1d, (f, g), ("a", "b"))
    fam = Family.from_profiles(grid1d, [Constant(1.0), Constant(2.0)])
    assert fam.labels == ("m00", "m01")
    assert len(fam) == 2


def test_bound_modulus_hand_value(grid1d, flat_space):
    fam = Family.from_profiles(grid1d, [Constant(1.0), Constant(3.0)])
    # ||3|| = 3 * sqrt(2) on a box of measure 2
    assert bound_modulus(fam, flat_space) == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-15)


def test_tail_modulus_hand_value(grid1d, flat_space):
    fam = Family.from_profiles(grid1d, [Constant(2.0)])
    # outside the open ball of radius 0.5: four cells, measure 1
    assert tail_modulus(fam, flat_space, 0.5) == pytest.approx(2.0, rel=1e-15)
    # box region at the full box: nothing outside
    assert tail_modulus(fam, flat_space, 1.0, region="box") == 0.0


def test_tail_modulus_is_max_over_members(grid1d, flat_space):
    fam = Family.from_profiles(grid1d, [Constant(1.0), Constant(5.0)])
    assert tail_modulus(fam, flat_space, 0.5) == pytest.approx(5.0, rel=1e-15)


def test_tail_modulus_threshold_returns_the_first_member_over_it(grid1d, flat_space, rng):
    # each member's own tail, from a one-member family; at a threshold t the
    # walk returns the first of them in member order that is not below t,
    # and the largest where every one is below t
    fam = random_family(grid1d, rng, n=5)
    alone = [
        tail_modulus(Family(grid1d, (f,), ("a",)), flat_space, 0.5) for f in fam.members
    ]
    assert len(set(alone)) == len(alone)
    full = tail_modulus(fam, flat_space, 0.5)
    assert full == max(alone)
    for t in sorted(alone) + [0.0, np.nextafter(max(alone), np.inf), math.inf]:
        first = next((tail for tail in alone if tail >= t), full)
        assert tail_modulus(fam, flat_space, 0.5, threshold=t) == first


def test_translation_modulus_indicator_oracle():
    # half-box indicator: shifting by k cells moves 2k cells of unit mass
    g = Grid(dim=1, box_level=1, cell_exp=-6)
    sp = WeightedSpace(2.0, sample(Constant(1.0), g))
    fam = Family.from_profiles(g, [Indicator(center=0.5, radius=0.5)])
    h = g.cell_side
    for i in (-6, -5, -4):
        r = 2.0**i
        k = int(round(r / h))
        expected = math.sqrt(2.0 * k * h)
        assert translation_modulus(fam, sp, r, stencil="box") == pytest.approx(
            expected, rel=1e-12
        )


def test_translation_modulus_monotone_in_radius(grid1d, flat_space, rng):
    fam = random_family(grid1d, rng)
    h = grid1d.cell_side
    vals = [translation_modulus(fam, flat_space, r) for r in (h, 2 * h, 3 * h)]
    assert vals[0] <= vals[1] <= vals[2]


def test_translation_modulus_requires_a_shift(grid1d, flat_space, rng):
    fam = random_family(grid1d, rng)
    with pytest.raises(ModelError):
        translation_modulus(fam, flat_space, grid1d.cell_side / 4)


def test_averaged_dominated_by_translation(grid1d, rng):
    # (c) => (c*) for p >= 1, matched ball stencils
    for p in (1.0, 2.0):
        sp = WeightedSpace(p, GridFunction(grid1d, rng.uniform(0.05, 2.0, grid1d.shape)))
        fam = random_family(grid1d, rng)
        b = bound_modulus(fam, sp)
        h = grid1d.cell_side
        for r in (h, 2 * h):
            assert averaged_modulus(fam, sp, r) <= translation_modulus(
                fam, sp, r
            ) + 1e-10 * b


def test_verify_averaging_bound(grid1d, flat_space, rng):
    fam = random_family(grid1d, rng)
    cmp = verify_averaging_bound(fam, flat_space, grid1d.cell_side)
    assert cmp.passed
    assert cmp.margin >= 0.0
    assert cmp.averaged <= cmp.translation + cmp.tolerance


def test_verify_averaging_bound_refuses_quasi(grid1d, rng):
    sp = WeightedSpace(0.5, sample(Constant(1.0), grid1d))
    fam = random_family(grid1d, rng)
    with pytest.raises(ModelError):
        verify_averaging_bound(fam, sp, grid1d.cell_side)


def test_measure_moduli_report(grid1d, flat_space, rng):
    fam = random_family(grid1d, rng)
    h = grid1d.cell_side
    rep = measure_moduli(fam, flat_space, shift_radii=[h, 2 * h], tail_radii=[0.25, 0.5])
    assert rep.bound == bound_modulus(fam, flat_space)
    assert [r for r, _ in rep.tail] == [0.25, 0.5]
    assert [r for r, _ in rep.translation] == [h, 2 * h]
    assert len(rep.averaged) == 2
    d = asdict(rep)
    assert set(d) == {"bound", "tail", "translation", "averaged"}
    # tail curve nonincreasing in the radius
    assert rep.tail[0][1] >= rep.tail[1][1]


def test_measure_moduli_rejects_foreign_space(grid1d, rng):
    fam = random_family(grid1d, rng)
    other = Grid(dim=1, box_level=1, cell_exp=-2)
    sp = WeightedSpace(2.0, sample(Constant(1.0), other))
    with pytest.raises(ModelError):
        measure_moduli(fam, sp, shift_radii=[0.25], tail_radii=[0.5])


def test_zero_family_all_zero_curves(grid1d, flat_space):
    fam = Family.from_profiles(grid1d, [Constant(0.0)])
    h = grid1d.cell_side
    rep = measure_moduli(fam, flat_space, shift_radii=[h], tail_radii=[0.5])
    assert rep.bound == 0.0
    assert rep.tail[0][1] == 0.0
    assert rep.translation[0][1] == 0.0
    assert rep.averaged[0][1] == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=9999))
def test_translation_modulus_reflection_invariant(seed):
    # mirroring every member mirrors the shifts; the max over the stencil is invariant
    g = Grid(dim=1, box_level=0, cell_exp=-4)
    r = np.random.default_rng(seed)
    sp = WeightedSpace(2.0, GridFunction(g, np.ones(g.shape)))
    vals = r.standard_normal(g.shape)
    fam = Family(g, (GridFunction(g, vals),), ("a",))
    mirrored = Family(g, (GridFunction(g, vals[::-1].copy()),), ("a",))
    h = g.cell_side
    assert translation_modulus(fam, sp, 2 * h) == pytest.approx(
        translation_modulus(mirrored, sp, 2 * h), rel=1e-12
    )


def _weights_with_zeros(grid, rng):
    w = rng.uniform(0.05, 2.0, grid.shape)
    w[rng.random(grid.shape) < 0.3] = 0.0
    return GridFunction(grid, w)


def _translation_reference(f, space, radius, kind="box"):
    """Translation modulus of one member through GridFunction arithmetic,
    one shifted copy per stencil offset."""
    worst = 0.0
    for k in shift_stencil(f.grid, radius, kind=kind):
        shifted = GridFunction(f.grid, _shift_cells(f.values, k))
        worst = max(worst, weighted_norm(shifted - f, space))
    return worst


@pytest.mark.parametrize("dim", [1, 2])
def test_shifted_difference_matches_shift_cells(dim):
    # every cell of the buffer is written, with the values of the allocating
    # form, for shifts inside, at and past the box edge (8 cells per axis)
    rng = np.random.default_rng(dim)
    values = rng.standard_normal((8,) * dim)
    reach = range(-10, 11) if dim == 1 else (-9, -8, -3, 0, 2, 8, 12)
    for offsets in itertools.product(reach, repeat=dim):
        out = np.full(values.shape, np.nan)
        _shifted_difference(values, offsets, out)
        np.testing.assert_array_equal(out, _shift_cells(values, offsets) - values)


@pytest.mark.parametrize("dim", [1, 2])
def test_ball_average_field_matches_shift_cells(dim):
    # the in-place slice sums give the bits of summing zero-filled copies,
    # -0.0 entries and stencils reaching past the box included
    grid = Grid(dim=dim, box_level=0, cell_exp=-3 if dim == 1 else -2)
    rng = np.random.default_rng(dim)
    values = rng.standard_normal(grid.shape)
    values[rng.random(grid.shape) < 0.2] = -0.0
    f = GridFunction(grid, values)
    for radius in (0.5 * grid.cell_side, grid.cell_side, 2.5 * grid.cell_side, 3.0):
        stencil = shift_stencil(grid, radius, kind="ball", include_zero=True)
        acc = np.zeros(grid.shape)
        for k in stencil:
            acc += _shift_cells(f.values, k)
        expected = acc / len(stencil)
        assert ball_average_field(f, radius).values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize(
    "grid", [Grid(dim=1, box_level=0, cell_exp=-5), Grid(dim=2, box_level=0, cell_exp=-3)]
)
def test_ring_scan_equals_translation_modulus(grid, p):
    # the scan's per-member curve equals, bit for bit, the reference scan's
    # and the modulus computed through GridFunction copies, at every radius
    # of either stencil; the dyadic radii are select_mesh's, the others are
    # not nested dyadically
    rng = np.random.default_rng(int(10 * p) + grid.dim)
    sp = WeightedSpace(p, _weights_with_zeros(grid, rng))
    fam = random_family(grid, rng)
    h = grid.cell_side
    dyadic = [2.0**i for i in range(grid.cell_exp, grid.box_level + 1)]
    for stencil, radii in (("box", dyadic), ("ball", [h, 1.5 * h, 2.3 * h, 2.3 * h, 5.0 * h])):
        levels = [moduli() for moduli in _translation_scan(fam, sp, radii, stencil)]
        assert levels == translation_reference(fam, sp, radii, stencil)
        assert len(levels) == len(radii)
        for radius, moduli in zip(radii, levels):
            for f, value in zip(fam.members, moduli):
                assert value == _translation_reference(f, sp, radius, stencil)
            assert max(moduli) == translation_modulus(fam, sp, radius, stencil)


@pytest.mark.parametrize("stencil", ["ball", "box"])
@pytest.mark.parametrize(
    "grid", [Grid(dim=1, box_level=0, cell_exp=-4), Grid(dim=2, box_level=0, cell_exp=-2)]
)
def test_measure_moduli_unsorted_repeated_radii(grid, stencil):
    # one scan over the sorted distinct radii reports, in the caller's order,
    # the floats a separate measurement per radius gives
    rng = np.random.default_rng(grid.dim)
    sp = WeightedSpace(1.5, _weights_with_zeros(grid, rng))
    fam = random_family(grid, rng)
    h = grid.cell_side
    radii = [3.7 * h, h, 3.7 * h, 1.4 * h, 0.5, h]
    rep = measure_moduli(fam, sp, shift_radii=radii, tail_radii=[0.5], stencil=stencil)
    assert [r for r, _ in rep.translation] == radii
    assert [r for r, _ in rep.averaged] == radii
    for r, value in rep.translation:
        assert value == max(_translation_reference(f, sp, r, stencil) for f in fam.members)
    for r, value in rep.averaged:
        assert value == averaged_modulus(fam, sp, r)
    with pytest.raises(ModelError, match=f"translation radius {h / 4} admits no nonzero"):
        measure_moduli(fam, sp, shift_radii=[h, h / 4], tail_radii=[0.5], stencil=stencil)


def _full_scan_selection(family, space, levels, threshold):
    """What the mesh walk must return: the last of the box ``levels`` the
    reference scan accepts, before the first whose largest modulus reaches
    ``threshold``, with that scan's moduli there; or None with its
    first-level moduli (``()`` for no levels)."""
    best = None, ()
    full = translation_reference(family, space, [2.0**i for i in levels], "box")
    for n, (i, moduli) in enumerate(zip(levels, full)):
        if not max(moduli) < threshold:
            return best if n else (None, moduli)
        best = i, moduli
    return best


def _drawn_threshold(family, space, levels, data):
    """A threshold at one of the exact moduli, an ulp either side, or
    anywhere up to twice the largest."""
    full = translation_reference(family, space, [2.0**i for i in levels], "box")
    values = sorted({v for moduli in full for v in moduli}) or [1.0]
    threshold = data.draw(
        st.one_of(
            st.sampled_from(values),
            st.floats(min_value=0.0, max_value=2.0 * values[-1]),
        )
    )
    toward = data.draw(st.sampled_from([-np.inf, threshold, np.inf]))
    return float(np.nextafter(threshold, toward))


def _walked_selection(family, space, levels, threshold):
    """The mesh walk as ``select_mesh`` takes it: the last of the box
    ``levels`` that passes, with its confirmed moduli, or None with the first
    level's moduli as ``translation_modulus`` measures them, at threshold inf
    (``()`` for no levels)."""
    radii = [2.0**i for i in levels]
    level = None
    for level, moduli in zip(levels, _translation_scan(family, space, radii, "box", threshold)):
        pass
    if level is not None:
        return level, moduli()
    return None, next(_translation_scan(family, space, radii[:1], "box"))() if radii else ()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=9999),
    dim=st.sampled_from([1, 2]),
    p=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    data=st.data(),
)
def test_early_stopping_scan_matches_full_scan(seed, dim, p, data):
    # at any threshold the mesh walker, which stops at the first failing
    # shift, returns what the full scan selects
    grid = Grid(dim=dim, box_level=0, cell_exp=-4 if dim == 1 else -2)
    rng = np.random.default_rng(seed)
    sp = WeightedSpace(p, _weights_with_zeros(grid, rng))
    fam = random_family(grid, rng)
    top = data.draw(st.integers(min_value=grid.cell_exp - 1, max_value=grid.box_level))
    levels = range(grid.cell_exp, top + 1)
    threshold = _drawn_threshold(fam, sp, levels, data)
    expected = _full_scan_selection(fam, sp, levels, threshold)
    assert _walked_selection(fam, sp, levels, threshold) == expected


@pytest.mark.parametrize(
    "grid", [Grid(dim=1, box_level=0, cell_exp=-4), Grid(dim=2, box_level=0, cell_exp=-2)]
)
def test_scan_yields_nothing_where_the_first_radius_reaches_the_threshold(grid):
    # the first shift that reaches the threshold ends the walk at any radius,
    # the first included: at the one-cell modulus, or below it, no radius
    # passes, and an ulp above it the one-cell radius does
    rng = np.random.default_rng(grid.dim)
    sp = WeightedSpace(2.0, _weights_with_zeros(grid, rng))
    fam = random_family(grid, rng)
    radii = [2.0**i for i in range(grid.cell_exp, grid.box_level + 1)]
    one_cell = translation_reference(fam, sp, radii[:1], "box")[0]
    for threshold in (0.0, min(one_cell), max(one_cell)):
        assert list(_translation_scan(fam, sp, radii, "box", threshold)) == []
    above = float(np.nextafter(max(one_cell), np.inf))
    walk = _translation_scan(fam, sp, radii, "box", above)
    assert next(walk)() == one_cell


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=9999),
    dim=st.sampled_from([1, 2]),
    p=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    stencil=st.sampled_from(["box", "ball"]),
    cells=st.lists(
        st.sampled_from([1.0, 1.5, 2.0, 2.3, 3.7, 4.0, 6.1, 8.0]), min_size=1, max_size=6
    ),
    loose=st.booleans(),
)
def test_scan_confirms_each_radius_measuring_each_shift_once(seed, dim, p, stencil, cells, loose):
    # at threshold inf, the moduli read after each of nondecreasing radii,
    # repeats and non-dyadic multiples of the cell side included, are the
    # reference scan's, bit for bit, from the 1-D ring bounds or from loose
    # random ones; and the exact kernel meets no (member, shift) twice
    grid = Grid(dim=dim, box_level=0, cell_exp=-4 if dim == 1 else -2)
    rng = np.random.default_rng(seed)
    sp = WeightedSpace(p, _weights_with_zeros(grid, rng))
    fam = random_family(grid, rng)
    radii = [c * grid.cell_side for c in sorted(cells)]
    expected = translation_reference(fam, sp, radii, stencil)
    names = {id(f.values): j for j, f in enumerate(fam.members)}
    measured = []

    def counted(values, offsets, out):
        measured.append((names[id(values)], offsets))
        _shifted_difference(values, offsets, out)

    bounds = (
        mock.patch.object(moduli._RingBound, "member", _loose_ring_bounds(fam, sp, rng))
        if loose else contextlib.nullcontext()
    )
    with bounds, mock.patch.object(moduli, "_shifted_difference", counted):
        found = [confirm() for confirm in _translation_scan(fam, sp, radii, stencil)]
    assert found == expected
    assert len(measured) == len(set(measured))


def test_scan_screens_nothing_at_a_radius_that_adds_no_shift():
    # 1.2 and 1.6 cells add no box shift to one cell: the scan measures no
    # shift for them, and their moduli are those of one cell, whose two
    # shifts it measures at most once per member
    grid = Grid(dim=1, box_level=0, cell_exp=-6)
    rng = np.random.default_rng(5)
    sp = WeightedSpace(2.0, _weights_with_zeros(grid, rng))
    fam = random_family(grid, rng)
    radii = [grid.cell_side * c for c in (1.0, 1.2, 1.6)]
    measured, found = [], []

    def counted(*args):
        measured.append(1)
        _shifted_difference(*args)

    with mock.patch.object(moduli, "_shifted_difference", counted):
        for confirm in _translation_scan(fam, sp, radii, "box"):
            found.append((confirm(), len(measured)))
    assert found == [(level, found[0][1]) for level in translation_reference(fam, sp, radii, "box")]
    assert 0 < found[0][1] <= 2 * len(fam)


@pytest.mark.parametrize(
    "grid, p, stencil",
    [
        (Grid(dim=1, box_level=0, cell_exp=-5), 2.0, "box"),
        (Grid(dim=2, box_level=0, cell_exp=-2), 1.0, "ball"),
    ],
    ids=["1d-box", "2d-ball"],
)
def test_scan_past_the_grid_measures_no_more_than_at_its_cap(grid, p, stencil, rng, monkeypatch):
    # a shift by a whole axis or more leaves only -f, so eight grid widths
    # give the modulus at the cap, n h (times sqrt(dim) for the ball), and
    # take no more shifted differences than it
    fam = random_family(grid, rng)
    sp = WeightedSpace(p, sample(Constant(1.0), grid))
    width = grid.cells_per_axis * grid.cell_side
    calls = []

    def counted(values, offsets, out):
        calls.append(offsets)
        _shifted_difference(values, offsets, out)

    monkeypatch.setattr("lpcompact.moduli._shifted_difference", counted)
    found = []
    for radius in (width * math.sqrt(grid.dim) if stencil == "ball" else width, 8 * width):
        calls.clear()
        found.append((translation_modulus(fam, sp, radius, stencil), len(calls)))
    (at_cap, cap_calls), (far, far_calls) = found
    assert far == at_cap
    assert far_calls <= cap_calls


def test_measure_moduli_measures_each_shift_once(tmp_path, monkeypatch):
    # bank1d at radii of 1, 2, 4 and 8 cells: the ball stencils hold 2 + 4 +
    # 8 + 16 shifts, but only the 16 of the largest are distinct, so a full
    # scan of the 20 members takes 320 shifted differences, not 600; the
    # screened scan takes fewer, none of them twice, for the same moduli
    spec_path = tmp_path / "bank1d.json"
    spec_path.write_text(json.dumps(WORKLOADS.WORKLOADS["bank1d"].spec(WORKLOADS.DEFAULT_SEED)))
    problem = load_problem(spec_path)
    h = problem.grid.cell_side
    radii = [h, 2 * h, 4 * h, 8 * h]
    expected = [max(m) for m in translation_reference(problem.family, problem.space, radii, "ball")]
    names = {id(f.values): j for j, f in enumerate(problem.family.members)}
    calls = []

    def counted(values, offsets, out):
        calls.append((names[id(values)], offsets))
        _shifted_difference(values, offsets, out)

    monkeypatch.setattr("lpcompact.moduli._shifted_difference", counted)
    rep = measure_moduli(
        problem.family, problem.space, shift_radii=radii, tail_radii=[1.0], with_averaged=False,
    )
    assert [value for _, value in rep.translation] == expected
    assert len(calls) == len(set(calls)) < 320
    assert {k for _, k in calls} <= set(shift_stencil(problem.grid, 8 * h, "ball"))


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize(
    "grid", [Grid(dim=1, box_level=1, cell_exp=-4), Grid(dim=2, box_level=1, cell_exp=-3)]
)
def test_tail_modulus_equals_per_member_restriction(grid, p):
    # one outside mask per radius gives the same floats as restricting each member
    rng = np.random.default_rng(int(10 * p) + grid.dim)
    sp = WeightedSpace(p, _weights_with_zeros(grid, rng))
    fam = random_family(grid, rng)
    for region in ("ball", "box"):
        for m in range(grid.cell_exp, grid.box_level + 1):
            r = 2.0**m
            expected = max(
                weighted_norm(GridFunction(grid, f.values * outside_mask(grid, r, region)), sp)
                for f in fam.members
            )
            assert tail_modulus(fam, sp, r, region) == expected


def test_translation_modulus_rejects_non_finite_difference():
    # adjacent +-1e308 overflow the shifted difference: the same error a
    # GridFunction holding that difference raises, at every exponent and
    # without a numpy warning from the scan's in-place pass
    g = Grid(dim=1, box_level=0, cell_exp=-3)
    vals = np.zeros(g.shape)
    vals[3], vals[4] = 1e308, -1e308
    fam = Family(g, (GridFunction(g, vals),), ("big",))
    for p in (0.5, 1.0, 2.0, 3.0, 40.0):
        sp = WeightedSpace(p, sample(Constant(1.0), g))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="grid function values must be finite"):
                translation_modulus(fam, sp, g.cell_side, stencil="box")
            with pytest.raises(ModelError, match="grid function values must be finite"):
                measure_moduli(
                    fam, sp, shift_radii=[g.cell_side], tail_radii=[], stencil="box",
                    with_averaged=False,
                )


def _norm_or_error(measure):
    try:
        return measure().hex()
    except ModelError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 40.0]),
    dim=st.sampled_from([1, 2]),
    scale=st.sampled_from([1.0, 1e-200, 1e200]),
    seed=st.integers(0, 2**32 - 1),
    offsets=st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
)
# the two ways into the exponent pass: |d|**40 underflows to 0 and d**2
# overflows to inf
@example(p=40.0, dim=1, scale=1e-200, seed=0, offsets=(3, 0))
@example(p=2.0, dim=2, scale=1e200, seed=1, offsets=(-2, 5))
def test_scan_value_is_array_norm_of_the_shifted_difference(p, dim, scale, seed, offsets):
    # one pair of shifts k and -k per scan, through a ring laid out as
    # _shift_ring lays it out: the scanned value is the larger _array_norm
    # of the two allocating shifted differences, bit for bit, or the same
    # ModelError
    offsets = offsets[:dim]
    assume(any(offsets))
    grid = Grid(dim=dim, box_level=0, cell_exp=-3 if dim == 1 else -2)
    rng = np.random.default_rng(seed)
    sp = WeightedSpace(p, _weights_with_zeros(grid, rng))
    values = scale * rng.standard_normal(grid.shape)
    fam = Family(grid, (GridFunction(grid, values),), ("f",))
    ring = [offsets, tuple(-a for a in offsets)]
    references = [
        _norm_or_error(lambda k=k: _array_norm(_shift_cells(values, k) - values, sp)) for k in ring
    ]
    errors = [r for r in references if not r.startswith("0x")]
    expected = errors or [max(references, key=float.fromhex)]
    with mock.patch("lpcompact.moduli._shift_ring", lambda grid, inner, radius, kind: ring):
        scanned = _norm_or_error(lambda: translation_modulus(fam, sp, grid.cell_side, "box"))
    assert scanned in expected


@pytest.mark.parametrize("p", [0.5, 1.5])
def test_scan_measures_every_shift_of_an_unpaired_ring(p):
    # a ring that is not laid out as k and -k, and reaches past the one cell
    # its radius holds, still has every shift measured: a one-cell radius
    # takes no ring bound at p = 1.5, and one at one cell would not cover the
    # shift by 2
    grid = Grid(dim=1, box_level=0, cell_exp=-3)
    rng = np.random.default_rng(3)
    sp = WeightedSpace(p, _weights_with_zeros(grid, rng))
    fam = random_family(grid, rng)
    unpaired = [(-1,), (2,), (1,)]
    expected = max(
        _array_norm(_shift_cells(f.values, k) - f.values, sp)
        for f in fam.members for k in unpaired
    )
    with mock.patch("lpcompact.moduli._shift_ring", lambda grid, inner, radius, kind: unpaired):
        assert translation_modulus(fam, sp, grid.cell_side, "box") == expected


@pytest.mark.parametrize("p", [0.5, 1.5, 2.0])
def test_scan_allocates_one_grid_sized_buffer(p):
    # 64 shifts on 65,536 cells: every difference and its power sum share one
    # buffer of 512 KiB; at p >= 1 the ring bound adds its own two, a
    # member's difference powers over a cell more than the grid and the
    # weight's prefix sum padded by a sixteenth of the grid each side
    grid = Grid(dim=1, box_level=2, cell_exp=-13)
    sp = WeightedSpace(p, sample(PowerLaw(0.5), grid))
    fam = Family.from_profiles(grid, [Gaussian(center=0.25, sigma=0.5)])
    radius = 32 * grid.cell_side
    assert len(shift_stencil(grid, radius, kind="box")) == 64
    grid_bytes = grid.n_cells * 8
    ring_bytes = 0
    if p >= 1.0:
        ring_bytes = 8 * (grid.n_cells + 1) + 8 * (grid.n_cells + 1 + 2 * (grid.n_cells // 16))
    tracemalloc.start()
    try:
        translation_modulus(fam, sp, radius, "box")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid_bytes <= peak < grid_bytes + ring_bytes + 0.25 * grid_bytes


def test_power_slack_covers_numpy_power():
    # the ring bound allows np.power(x, p), its own and the kernel's, an
    # error of _POWER_SLACK times x**p plus _TINY per term; pin that on x
    # log-uniform over the whole float range, subnormals included, through
    # the kernel's own in-place call, at p = 1.5 and at the other exponents
    # the scan and the power transfer's companion exponents (0.4 ->
    # 1.2000000000000002, 0.7 -> 1.4) meet.  Half the slack is asserted, so that the rounding
    # of the reference cannot hide a loop that uses all of it: x * sqrt(x)
    # at p = 1.5, and an 80-bit long double pow at the others
    rng = np.random.default_rng(15)
    x = np.ldexp(rng.uniform(0.5, 1.0, 200_000), rng.integers(-1073, 1025, 200_000))
    top = np.finfo(np.float64).max
    edges = [5e-324, 2.0**-1030, np.finfo(np.float64).tiny, 2.0**-681, 1.0, 2.0**682, top]
    x = np.concatenate([x, edges, np.nextafter(edges, 0.0), np.nextafter(edges[:-1], np.inf)])
    assert np.finfo(np.longdouble).nmant >= 63
    for p in (1.5, 1.0, 3.0, 1.4, 1.2000000000000002, 40.0):
        got = np.abs(x)
        with np.errstate(over="ignore", under="ignore"):
            np.power(got, p, out=got)
            if p == 1.5:
                reference = x * np.sqrt(x)
            else:
                reference = np.power(x.astype(np.longdouble), np.longdouble(p))
        finite = reference <= top / 2.0
        assert finite.sum() > 100_000, p
        error = np.abs(got[finite] - reference[finite])
        assert np.all(error <= 0.5 * moduli._POWER_SLACK * reference[finite] + moduli._TINY), p
    # a power past the range overflows to inf: the ring bound's sum of a
    # member's difference powers carries it, and the bound is inf
    with np.errstate(over="ignore"):
        assert np.all(np.isinf(np.power(x[x >= 2.0**683], 1.5)))


def _ring_bound_member(grid, rng, kind, scale):
    """One member of ``grid``, ``scale`` times: a smooth bump, noise, a step
    (a jump inside the box), or a constant (a jump at each end of the box)."""
    x = grid.axis_centers()
    values = {
        "smooth": lambda: np.exp(-((x - rng.uniform(-0.5, 0.5)) ** 2) / 0.1),
        "rough": lambda: rng.uniform(-1.0, 1.0, grid.shape),
        "step": lambda: np.where(x < rng.uniform(-0.5, 0.5), 1.0, -0.5),
        "flat": lambda: np.ones(grid.shape),
    }[kind]()
    return values * scale


@settings(max_examples=250, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 1.2000000000000002, 7.0]),
    kind=st.sampled_from(["smooth", "rough", "step", "flat"]),
    scale_exp=st.integers(min_value=-1074, max_value=1023),
    sum_exp=st.integers(min_value=-1100, max_value=1040),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    reach=st.integers(min_value=1, max_value=70),
)
# sums near 1, near the floor and near max / 2; subnormal members and
# weights; a weight that vanishes everywhere
@example(seed=0, p=2.0, kind="smooth", scale_exp=0, sum_exp=0, zeros=0.0, reach=1)
@example(seed=1, p=1.0, kind="rough", scale_exp=0, sum_exp=0, zeros=0.3, reach=5)
@example(seed=2, p=1.5, kind="flat", scale_exp=-3, sum_exp=-1015, zeros=0.0, reach=8)
@example(seed=3, p=2.0, kind="step", scale_exp=500, sum_exp=1020, zeros=0.0, reach=64)
@example(seed=4, p=3.0, kind="smooth", scale_exp=-1060, sum_exp=-1000, zeros=0.3, reach=3)
@example(seed=5, p=2.0, kind="rough", scale_exp=-540, sum_exp=-1020, zeros=0.0, reach=2)
@example(seed=6, p=1.0, kind="smooth", scale_exp=1023, sum_exp=1030, zeros=0.0, reach=1)
@example(seed=7, p=2.0, kind="smooth", scale_exp=0, sum_exp=0, zeros=1.0, reach=4)
@example(seed=0, p=7.0, kind="smooth", scale_exp=0, sum_exp=1010, zeros=0.0, reach=34)
def test_scan_ring_bound_covers_the_kernel(seed, p, kind, scale_exp, sum_exp, zeros, reach):
    # a member's ring bound at K cells lies at or above the value the exact
    # kernel returns at every shift by 1 to K cells and by -1 to -K, on 64
    # cells: smooth members, rough ones and jumps, scaled from subnormal to
    # the top of the float range, under weights scaled so that the power
    # sums land near 2**sum_exp, with zeros at random cells.  Where the
    # kernel raises (a difference or a norm past the float range), the bound
    # is inf and decides nothing
    grid = Grid(dim=1, box_level=0, cell_exp=-5)
    rng = np.random.default_rng(seed)
    values = _ring_bound_member(grid, rng, kind, math.ldexp(1.0, scale_exp))
    weight = rng.uniform(0.5, 2.0, grid.shape)
    weight[rng.random(grid.shape) < zeros] = 0.0
    weight = np.ldexp(weight, min(max(sum_exp - round(p * scale_exp), -1074), 1023))
    sp = WeightedSpace(p, GridFunction(grid, weight))
    fam = Family(grid, (GridFunction(grid, values),), ("f",))
    bounds = moduli._RingBound(fam, sp).member(0)(reach)
    for bound, sign in zip(bounds, (1, -1)):
        for k in range(1, reach + 1):
            try:
                norm = shift_norm(values, (sign * k,), sp)
            except ModelError:
                assert bound == math.inf
                continue
            assert norm <= bound, (sign * k, norm, bound)


def _ring_bound_and_kernel(values, weight, p, reach):
    """The ring bounds at ``reach`` of one member of a 64-cell grid, and the
    kernel's values at every shift they cover, in the order of the bounds:
    by 1 to K cells, then by -1 to -K; a ModelError is kept as raised."""
    grid = Grid(dim=1, box_level=0, cell_exp=-5)
    sp = WeightedSpace(p, GridFunction(grid, weight))
    fam = Family(grid, (GridFunction(grid, values),), ("f",))
    norms = []
    bounds = moduli._RingBound(fam, sp).member(0)(reach)
    for sign in (1, -1):
        row = []
        for k in range(1, reach + 1):
            try:
                row.append(shift_norm(values, (sign * k,), sp))
            except ModelError as exc:
                row.append(exc)
        norms.append(row)
    return bounds, norms


def test_scan_ring_bound_covers_a_window_lost_to_rounding():
    # a step at cell 30 under a weight of 1 everywhere but there, where it is
    # 0.4 ulp of the prefix sum 30: the prefix sum rounds that weight away,
    # so the window at the step reads 0 and both dots of the bound read
    # 30 x (the step)**p.  The kernel's norm at one cell is the weight there,
    # which only the windows' and the dots' allowances cover, each alone
    weight = np.ones(64)
    weight[30] = 0.4 * math.ulp(30.0)
    values = np.where(np.arange(64) >= 30, 1.0, 0.0)
    for p in (1.0, 2.0):
        (up, down), norms = _ring_bound_and_kernel(values, weight, p, 1)
        assert 0.0 < norms[0][0] <= up
        assert norms[1][0] <= down


def test_scan_ring_bound_is_inf_where_a_difference_overflows():
    # +-1.5 * 2**1023 at the two ends of the grid: every one-cell difference
    # is finite, but the shift by 63 cells sets them side by side, where
    # their difference leaves the float range and the kernel raises.  Under
    # weights near 2**-1000 the bound's dots stay finite; the bound is inf
    # because the sum of its |difference|**p, 6 * 2**1023, overflows
    values = np.zeros(64)
    values[0], values[-1] = 1.5 * 2.0**1023, -1.5 * 2.0**1023
    (up, down), norms = _ring_bound_and_kernel(values, np.full(64, 2.0**-1000), 1.0, 63)
    assert isinstance(norms[0][-1], ModelError) and isinstance(norms[1][-1], ModelError)
    assert up == down == math.inf


def test_scan_ring_bound_is_tight_on_bank1d(tmp_path):
    # bank1d's members are smooth at the cell scale: at 32 cells, the level
    # select_mesh chooses, each member's ring bound in each direction is
    # within 10**-5 of the largest exact norm of its shifts
    spec_path = tmp_path / "bank1d.json"
    spec_path.write_text(json.dumps(WORKLOADS.WORKLOADS["bank1d"].spec(WORKLOADS.DEFAULT_SEED)))
    problem = load_problem(spec_path)
    fam, sp = problem.family, problem.space
    ring = moduli._RingBound(fam, sp)
    for j in (0, 9, 19):
        bounds = ring.member(j)(32)
        for bound, sign in zip(bounds, (1, -1)):
            norms = [shift_norm(fam.members[j].values, (sign * k,), sp) for k in range(1, 33)]
            assert max(norms) <= bound <= max(norms) * (1.0 + 1e-5)


def _loose_ring_bounds(family, space, rng):
    """A stand-in for ``_RingBound.member``: per reach K, random bounds at or
    above the largest exact norm of the shifts by 1 to K cells and by -1 to
    -K, which may meet a threshold or a modulus exactly; a third of them are
    that norm itself.  It measures through ``_shift_cells``, out of sight of
    a patch that counts the scan's ``_shifted_difference``."""

    def member(ring, j):
        values = family.members[j].values

        def norm(k):
            return _array_norm(_shift_cells(values, k) - values, space)

        def at(reach):
            tops = np.array([
                max(norm((sign * k,)) for k in range(1, reach + 1)) for sign in (1, -1)
            ])
            slack = rng.uniform(0.0, 0.5, 2) * (rng.random(2) < 2 / 3)
            return tuple(float(v) for v in tops * (1.0 + slack))

        return at

    return member


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=9999),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    data=st.data(),
)
def test_scan_trusts_ring_bounds_only_as_bounds(seed, p, data):
    # with loose random ring bounds in place of the real ones, which may
    # meet the threshold or a modulus exactly, the 1-D walker still returns
    # what the full scan selects: the shifts it leaves unmeasured can never
    # hold a member's maximum
    grid = Grid(dim=1, box_level=0, cell_exp=-4)
    rng = np.random.default_rng(seed)
    sp = WeightedSpace(p, _weights_with_zeros(grid, rng))
    fam = random_family(grid, rng)
    if rng.random() < 0.5:
        # smooth members, whose ring bounds pass several rings
        fam = Family(grid, tuple(GridFunction(grid, np.cumsum(f.values) / 8.0) for f in fam.members), fam.labels)
    levels = range(grid.cell_exp, grid.box_level + 1)
    threshold = _drawn_threshold(fam, sp, levels, data)
    expected = _full_scan_selection(fam, sp, levels, threshold)
    with mock.patch.object(moduli._RingBound, "member", _loose_ring_bounds(fam, sp, rng)):
        assert _walked_selection(fam, sp, levels, threshold) == expected


def test_scan_screens_only_the_failing_ring_on_bank1d(tmp_path):
    # bank1d's mesh walk: the ring bounds pass every ring up to 32 cells
    # whole and not the ring at 64, whose first shift, the first member's
    # by -64 cells, is measured and fails; nothing past it is measured.  At
    # 32 cells each member then takes one exact norm, at 32 or -32 cells,
    # where with exact norms alone the walk took 1,281
    workload = WORKLOADS.WORKLOADS["bank1d"]
    spec_path = tmp_path / "bank1d.json"
    spec_path.write_text(json.dumps(workload.spec(WORKLOADS.DEFAULT_SEED)))
    problem = load_problem(spec_path)
    epsilon = workload.eps_share * bound_modulus(problem.family, problem.space)
    names = {id(f.values): j for j, f in enumerate(problem.family.members)}
    measured = []

    def counted(values, offsets, out):
        measured.append((names[id(values)], offsets))
        _shifted_difference(values, offsets, out)

    with mock.patch.object(moduli, "_shifted_difference", counted):
        level, found = select_mesh(problem.family, problem.space, epsilon)
    assert level == -8
    assert measured[0] == (0, (-64,))
    assert sorted(j for j, _ in measured[1:]) == list(range(len(problem.family)))
    assert {abs(k[0]) for _, k in measured[1:]} == {32}
    walked = _walked_selection(problem.family, problem.space, [-8], math.inf)
    assert found == walked[1]


def _inner_modulus_member(grid):
    """A sine of period 8 cells under a bump: its box modulus at 8 cells is
    its norm at 4 cells, four cells inside the outer shift, where the shift
    by 8 cells almost cancels."""
    x = grid.axis_centers()
    return np.sin(2.0 * math.pi * x / (8 * grid.cell_side)) * np.exp(-(x**2) / 0.1)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_scan_ring_bounds_survive_the_exact_norms_between_their_reads(p):
    # the walk in from the outer shifts forms the member once and reads its
    # ring bounds at 6 cells and below with exact norms between the reads:
    # every bound it reads is what a fresh ring bound gives, so the exact
    # norms cannot write over the bound's powers, and the modulus, held 4
    # cells inside, is the exact one
    grid = Grid(dim=1, box_level=0, cell_exp=-5)
    sp = WeightedSpace(p, sample(Constant(1.0), grid))
    fam = Family(grid, (GridFunction(grid, _inner_modulus_member(grid)),), ("sine",))
    radius = 8 * grid.cell_side
    reads = []
    member = moduli._RingBound.member

    def recorded(ring, j):
        at = member(ring, j)

        def read(reach):
            reads.append((reach, at(reach)))
            return reads[-1][1]

        return read

    with mock.patch.object(moduli._RingBound, "member", recorded):
        found = translation_modulus(fam, sp, radius, "box")
    reference = [_translation_reference(fam.members[0], sp, c * grid.cell_side) for c in (3, 4, 8)]
    assert found == reference[2] == reference[1] > reference[0]
    assert min(reach for reach, _ in reads) <= 4
    fresh = moduli._RingBound(fam, sp).member(0)
    assert reads == [(reach, fresh(reach)) for reach, _ in reads]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_one_cell_scan_takes_no_ring_bound(p):
    # at one cell the confirm step measures the same two shifts a ring
    # bound would cover, so the scan builds none; the moduli have the bits
    # of a scan that reaches two cells and passes the one-cell ring by its
    # bounds, and of the exact shifted differences
    grid = Grid(dim=1, box_level=0, cell_exp=-5)
    rng = np.random.default_rng(28)
    sp = WeightedSpace(p, _weights_with_zeros(grid, rng))
    fam = Family.from_profiles(
        grid, [Gaussian(center=c, sigma=0.3) for c in (-0.4, 0.0, 0.5)]
    )
    h = grid.cell_side
    built = []
    ring_bound = moduli._RingBound

    def counted(*args):
        built.append(args)
        return ring_bound(*args)

    with mock.patch.object(moduli, "_RingBound", counted):
        alone = next(_translation_scan(fam, sp, [h], "box"))()
        assert built == []
        assert translation_modulus(fam, sp, h, "box") == max(alone)
        assert built == []
        bounded = next(_translation_scan(fam, sp, [h, 2 * h], "box"))()
        assert len(built) == 1
    exact = tuple(
        max(_array_norm(_shift_cells(f.values, k) - f.values, sp) for k in ((1,), (-1,)))
        for f in fam.members
    )
    assert [v.hex() for v in alone] == [v.hex() for v in bounded] == [v.hex() for v in exact]
