import decimal
import json
import math
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lpcompact import (
    Bump,
    Constant,
    DyadicPartition,
    Family,
    Gaussian,
    Grid,
    GridFunction,
    HypothesisError,
    Indicator,
    ModelError,
    PowerLaw,
    WeightedSpace,
    all_cube_averages,
    bound_modulus,
    build_certificate,
    certificate_from_dict,
    certificate_to_dict,
    cube_projection,
    expand_coefficients,
    inside_mask,
    load_certificate,
    projection_error,
    quantize_net,
    quasi_certificate,
    sample,
    save_certificate,
    select_mesh,
    shift_stencil,
    select_tail_level,
    tail_modulus,
    translation_modulus,
    validate_certificate,
    validate_quasi_certificate,
    weighted_norm,
)

from conftest import random_family, shift_norm, translation_reference
from lpcompact import moduli, netbuilder
from lpcompact.grid import _shift_ring
from lpcompact.netbuilder import _net_distances, _remeasure, cube_witnesses, null_cube_mask
from lpcompact.spaces import _array_norm, _weighted_power_sum


@pytest.fixture(scope="module")
def gauss_problem():
    grid = Grid(dim=1, box_level=2, cell_exp=-9)
    centers = np.linspace(-1.5, 1.5, 20)
    fam = Family.from_profiles(grid, [Gaussian(center=float(c), sigma=0.5) for c in centers])
    from lpcompact import PowerLaw, bound_modulus

    space = WeightedSpace(2.0, sample(PowerLaw(0.5), grid))
    return grid, fam, space, bound_modulus(fam, space)


def test_select_tail_level_indicator_oracle():
    grid = Grid(dim=1, box_level=2, cell_exp=-6)
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid))
    fam = Family.from_profiles(grid, [Indicator(center=0.0, radius=0.3)])
    # support inside [-0.3, 0.3]: the box at level -1 ([-0.5, 0.5]) already
    # has zero tail, the level below does not
    assert select_tail_level(fam, sp, 1e-9) == (-1, 0.0)
    with pytest.raises(ModelError):
        select_tail_level(fam, sp, 0.0)
    with pytest.raises(ModelError, match="epsilon must be positive"):
        select_tail_level(fam, sp, math.nan)
    # epsilon / 3 rounds to zero
    with pytest.raises(ModelError, match="no positive tail budget"):
        select_tail_level(fam, sp, 5e-324)


def test_select_tail_level_ambient_box_always_works():
    # members vanish outside the ambient box, so the scan resolves at the top
    # scale no matter how small epsilon is: truncation makes the tail
    # hypothesis vacuous at the box level
    grid = Grid(dim=1, box_level=0, cell_exp=-4)
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid))
    fam = Family.from_profiles(grid, [Constant(1.0)])  # mass up to the boundary
    assert select_tail_level(fam, sp, 1e-9) == (0, 0.0)


def _tail_level_upward(family, space, epsilon):
    """Reference: the scan up from the cell level, which measures every level
    below the answer and returns the first that passes."""
    threshold = epsilon / 3.0
    for m in range(family.grid.cell_exp, family.grid.box_level + 1):
        tail = tail_modulus(family, space, 2.0**m, region="box")
        if tail < threshold:
            return m, tail


def _tail_scan_case(name):
    grid = Grid(dim=1, box_level=2, cell_exp=-5)
    one = sample(Constant(1.0), grid)
    gauss = [sample(Gaussian(center=c, sigma=0.6), grid) for c in (-1.0, 0.3, 2.5)]
    tiny = [GridFunction(grid, 1e-160 * f.values) for f in gauss]
    if name == "zero-ring":
        # mass at the centre and in [2.5, 3.5]: the rings between the level -2
        # and level 1 boxes hold none, so those levels share one tail
        outer = sample(Indicator(center=0.0, radius=0.2), grid) + sample(
            Indicator(center=3.0, radius=0.5), grid
        )
        return WeightedSpace(2.0, one), [outer, sample(Gaussian(center=-1.0, sigma=0.1), grid)]
    if name == "zero-weight-ring":
        # the weight vanishes for 0.5 <= |x| < 2
        r = grid.center_maxnorm()
        gap = np.where(r < 0.5, 1.0, 0.0) + np.where(r >= 2.0, 0.5, 0.0)
        return WeightedSpace(1.5, GridFunction(grid, gap)), gauss
    # |f|^p is at most 1e-320: every tail sum underflows and takes the
    # exponent pass
    if name == "underflow-p2":
        return WeightedSpace(2.0, one), tiny
    return WeightedSpace(3.0, sample(PowerLaw(0.5), grid)), tiny


@pytest.mark.parametrize("name", ["zero-ring", "zero-weight-ring", "underflow-p2", "underflow-p3"])
def test_select_tail_level_down_scan_matches_upward_scan(name):
    # at every tail value of the curve, and one ulp either side of it, the
    # scan down from the box returns the level and the tail bits of the scan
    # up from the cell level
    space, members = _tail_scan_case(name)
    grid = space.grid
    fam = Family(grid, tuple(members), tuple(f"t{i}" for i in range(len(members))))
    levels = range(grid.cell_exp, grid.box_level + 1)
    curve = [tail_modulus(fam, space, 2.0**m, region="box") for m in levels]
    assert curve[-1] == 0.0
    if name.startswith("underflow"):
        sums = [_weighted_power_sum(np.abs(f.values), space) for f in members]
        assert max(sums) < np.finfo(np.float64).tiny and curve[0] > 0
    else:
        assert len(set(curve)) < len(curve)
    for value in set(curve) - {0.0}:
        for eps in (3 * value, np.nextafter(3 * value, 0.0), np.nextafter(3 * value, np.inf)):
            eps = float(eps)
            assert select_tail_level(fam, space, eps) == _tail_level_upward(fam, space, eps)


def test_select_tail_level_keeps_the_larger_box_at_an_ulp_rise(monkeypatch):
    # the tail is nonincreasing in the level while its sums stay in the plain
    # pass, but a sum below the floor takes the exponent pass, and across the
    # two passes a tail may rise by an ulp.  No small family is known to show
    # it, so the curve is stood in: the level -2 tail one ulp below the level
    # -1 tail, which meets the threshold 0.5 exactly.  The upward scan stops
    # at level -2 although level -1 fails; the scan down keeps level 0
    grid = Grid(dim=1, box_level=0, cell_exp=-2)
    fam = Family.from_profiles(grid, [Constant(1.0)])
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid))
    mid = 0.5
    low = float(np.nextafter(mid, 0.0))
    curve = {0.25: low, 0.5: mid}

    def stand_in(family, space, radius, region="ball", threshold=math.inf):
        assert (family, space, region) == (fam, sp, "box")
        return curve[radius]

    monkeypatch.setattr(netbuilder, "tail_modulus", stand_in)
    monkeypatch.setitem(globals(), "tail_modulus", stand_in)
    assert _tail_level_upward(fam, sp, 3 * mid) == (-2, low)
    assert select_tail_level(fam, sp, 3 * mid) == (0, 0.0)


def _support_family(grid, centers):
    # indicators of radius 0.3: a member centred at 0 has no tail down to the
    # level -1 box, one at 1.0 fails at level 0, one at 3.0 at level 1
    members = [sample(Indicator(center=c, radius=0.3), grid) for c in centers]
    return Family(grid, tuple(members), tuple(f"s{i}" for i in range(len(members))))


@pytest.mark.parametrize(
    "centers, norms",
    [
        # member 0 fails at the first level below the ambient box: one norm
        ((3.0, 0.0, 0.0), 1),
        # the only failing member comes last: every member is measured
        ((0.0, 0.0, 3.0), 3),
        # level 1 passes on all three, level 0 fails at member 1
        ((0.0, 1.0, 0.0), 3 + 2),
    ],
)
def test_select_tail_level_stops_at_the_first_member_over_budget(centers, norms):
    # member norms counted as calls of the kernel through moduli, which the
    # tail scan reaches only through tail_modulus
    grid = Grid(dim=1, box_level=2, cell_exp=-5)
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid))
    fam = _support_family(grid, centers)
    expected = _tail_level_full_scan(fam, sp, 1e-6)
    assert expected == ((2, 0.0) if 3.0 in centers else (1, 0.0))
    with mock.patch.object(moduli, "_array_norm", wraps=moduli._array_norm) as kernel:
        assert select_tail_level(fam, sp, 1e-6) == expected
    assert kernel.call_count == norms


def _tail_level_full_scan(family, space, epsilon):
    """Reference: the scan down from the ambient box with every member
    measured at every level, the tail scan before it stopped early."""
    threshold = epsilon / 3.0
    best = family.grid.box_level, 0.0
    for m in range(family.grid.box_level - 1, family.grid.cell_exp - 1, -1):
        tail = tail_modulus(family, space, 2.0**m, region="box")
        if not tail < threshold:
            break
        best = m, tail
    return best


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.sampled_from([1, 2]),
    n=st.integers(min_value=1, max_value=4),
    p=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    scale=st.sampled_from([1.0, 2.0**-540, 2.0**500]),
    widest_last=st.booleans(),
    pick=st.integers(min_value=0, max_value=2**16),
    ulps=st.sampled_from([-1, 0, 1]),
)
def test_tail_scan_property_matches_full_scan(seed, dim, n, p, scale, widest_last, pick, ulps):
    # random members, each zero outside its own box, on a weight with zeros;
    # with widest_last the member whose support reaches furthest comes last,
    # and at the largest box that fails it is often the only one with mass
    # outside.  At epsilon three times a tail of the full scan's curve, or an
    # ulp either side, the early stop returns the full scan's level and tail
    # bits; and at a threshold above every member's tail, tail_modulus
    # returns the inf result's bits
    grid = Grid(dim=dim, box_level=1, cell_exp=-3 if dim == 1 else -2)
    rng = np.random.default_rng(seed)
    weight = rng.uniform(0.0, 2.0, grid.shape) * (rng.uniform(size=grid.shape) < 0.8)
    sp = WeightedSpace(p, GridFunction(grid, weight))
    reach = rng.uniform(0.0, 2.0, n)
    if widest_last:
        reach.sort()
    r = grid.center_maxnorm()
    members = tuple(
        GridFunction(grid, scale * rng.standard_normal(grid.shape) * (r < reach[j]))
        for j in range(n)
    )
    fam = Family(grid, members, tuple(f"q{j}" for j in range(n)))
    levels = range(grid.cell_exp, grid.box_level)
    curve = [tail_modulus(fam, sp, 2.0**m, region="box") for m in levels]
    for m, value in zip(levels, curve):
        above = float(np.nextafter(value, np.inf))
        assert tail_modulus(fam, sp, 2.0**m, region="box", threshold=above).hex() == value.hex()
    positive = [value for value in curve if value > 0] or [1.0]
    epsilon = 3.0 * positive[pick % len(positive)]
    if ulps:
        epsilon = float(np.nextafter(epsilon, ulps * np.inf))
    assume(epsilon / 3.0 > 0 and math.isfinite(epsilon))
    level, tail = select_tail_level(fam, sp, epsilon)
    ref_level, ref_tail = _tail_level_full_scan(fam, sp, epsilon)
    assert (level, tail.hex()) == (ref_level, ref_tail.hex())


def test_select_mesh_halfbox_oracle():
    # half-box indicator: box-shift modulus at radius 2^i is sqrt(2 * 2^i),
    # needs < eps/6; at eps = 2 the largest admissible exponent is -5
    grid = Grid(dim=1, box_level=1, cell_exp=-6)
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid))
    fam = Family.from_profiles(grid, [Indicator(center=0.5, radius=0.5)])
    level, moduli = select_mesh(fam, sp, 2.0)
    assert level == -5
    assert moduli == (translation_modulus(fam, sp, 2.0**-5, stencil="box"),)
    with pytest.raises(HypothesisError) as err:
        select_mesh(fam, sp, 1.0)
    assert err.value.criterion == "equicontinuity"
    assert "select_mesh" in str(err.value)


def test_select_mesh_one_cell_failure_reports_full_modulus():
    # the first member alone already misses the budget at one cell; the
    # message still reports the modulus over every member, the second's
    grid = Grid(dim=1, box_level=1, cell_exp=-6)
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid))
    step = sample(Indicator(center=0.5, radius=0.5), grid)
    fam = Family(grid, (step, GridFunction(grid, 3.0 * step.values)), ("one", "three"))
    h = grid.cell_side
    first = translation_modulus(Family(grid, (step,), ("one",)), sp, h, stencil="box")
    full = translation_modulus(fam, sp, h, stencil="box")
    eps = 3.0 * first  # a budget of first / 2 per one-cell shift
    assert full == pytest.approx(3.0 * first)
    with pytest.raises(HypothesisError) as err:
        select_mesh(fam, sp, eps)
    least = _buildable_epsilon(full, 1)
    assert str(err.value) == (
        f"select_mesh: translation modulus is {full:.6g} already at one cell (shift "
        f"{h}), needs < {0.5 * eps / 3.0:.6g}; the family is not equicontinuous at this "
        f"resolution; epsilon {least} or above builds"
    )
    # the epsilon named builds, within six digits of the sharp 6 * full
    assert select_mesh(fam, sp, float(least))[0] == grid.cell_exp
    assert 6.0 * full < float(least) <= 6.0 * full * (1.0 + 1e-5)


def test_select_mesh_respects_max_exp():
    grid = Grid(dim=1, box_level=1, cell_exp=-6)
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid))
    fam = Family.from_profiles(grid, [Constant(1.0)])  # translation-invariant inside
    # without a cap the scan would run to the box level
    assert select_mesh(fam, sp, 100.0, max_exp=-2)[0] == -2


@pytest.mark.parametrize("select", [select_tail_level, select_mesh])
def test_selectors_reject_non_finite_epsilon(select):
    grid = Grid(dim=1, box_level=1, cell_exp=-6)
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid))
    fam = Family.from_profiles(grid, [Indicator(center=0.5, radius=0.5)])
    for epsilon in (math.inf, math.nan):
        with pytest.raises(ModelError) as err:
            select(fam, sp, epsilon)
        assert str(err.value) == f"epsilon must be positive and finite, got {epsilon!r}"
    for epsilon in (0.0, -1.0, -math.inf):
        with pytest.raises(ModelError) as err:
            select(fam, sp, epsilon)
        assert str(err.value) == "epsilon must be positive"


def _select_mesh_reference(family, space, epsilon, max_exp=None):
    """The mesh selection with every shift measured exactly, level by level
    up the box stencils: the first level in full, and past it up to the first
    shift whose norm reaches the threshold."""
    grid = family.grid
    hi = grid.box_level if max_exp is None else max_exp
    if hi < grid.cell_exp:
        raise ModelError(f"select_mesh: max_exp {max_exp} is below the cell level {grid.cell_exp}")
    threshold = 2.0 ** (-grid.dim) * epsilon / 3.0
    best, value = None, math.inf
    found, seen = [0.0] * len(family), set()
    for n, i in enumerate(range(grid.cell_exp, hi + 1)):
        ring = [k for k in shift_stencil(grid, 2.0**i, "box") if k not in seen]
        seen.update(ring)
        for j, f in enumerate(family.members):
            for k in ring:
                norm = shift_norm(f.values, k, space)
                found[j] = max(found[j], norm)
                if n and not norm < threshold:
                    return best
        value = max(found)
        if not value < threshold:
            break
        best = i, tuple(found)
    if best is None:
        least = _buildable_epsilon(value, grid.dim)
        raise HypothesisError(
            "equicontinuity",
            f"select_mesh: translation modulus is {value:.6g} already at one cell "
            f"(shift {grid.cell_side}), needs < {threshold:.6g}; the family is not "
            f"equicontinuous at this resolution" + (f"; epsilon {least} or above builds" if least else ""),
        )
    return best


def _buildable_epsilon(top, dim):
    """The least float epsilon whose mesh threshold 2**-dim * epsilon / 3
    lies above ``top``, found by float steps from 3 * 2**dim * top, as the
    least six-digit decimal that reads as a float at or above it, or None
    past the float range."""
    def builds(epsilon):
        return top < 2.0 ** (-dim) * epsilon / 3.0

    epsilon = 3.0 * 2.0**dim * top
    if top == math.inf:
        return None
    while not builds(epsilon):
        epsilon = math.nextafter(epsilon, math.inf)
    while builds(math.nextafter(epsilon, 0.0)):
        epsilon = math.nextafter(epsilon, 0.0)
    if epsilon == math.inf:
        return None
    least = decimal.Decimal(epsilon)
    step = decimal.Decimal(1).scaleb(least.adjusted() - 5)
    up = least.quantize(step, rounding=decimal.ROUND_CEILING)
    # the decimal a step below may still read as that float
    digits = up - step if float(up - step) >= epsilon else up
    return f"{float(digits):.6g}"


def _measured_outcome(select, family, space, epsilon, max_exp):
    """What ``select`` returns or raises, and the (member, shift) pairs that
    reach the exact kernel."""
    names = {id(f.values): j for j, f in enumerate(family.members)}
    reached = set()
    inner = moduli._shifted_difference

    def counted(values, offsets, out):
        reached.add((names[id(values)], tuple(offsets)))
        inner(values, offsets, out)

    with mock.patch.object(moduli, "_shifted_difference", counted):
        try:
            outcome = "ok", select(family, space, epsilon, max_exp)
        except (HypothesisError, ModelError) as err:
            outcome = type(err).__name__, str(err)
    return outcome, reached


def _epsilon_at(threshold, dim):
    """An epsilon whose mesh threshold 2**-dim * epsilon / 3 is ``threshold``
    itself, when a float near 3 * 2**dim * threshold gives it."""
    epsilon = min(3.0 * 2.0**dim * threshold, sys.float_info.max)
    for _ in range(8):
        got = 2.0 ** (-dim) * epsilon / 3.0
        if got == threshold:
            break
        epsilon = math.nextafter(epsilon, math.inf if got < threshold else 0.0)
    return epsilon


def _framed_space(grid, rng, weight_scale, frame, p=2.0):
    """A space with random zero weights, inside a zero frame of ``frame``
    cells; every second draw is mirror-symmetric."""
    w = rng.uniform(0.05, 2.0, grid.shape) * weight_scale
    w[rng.random(grid.shape) < 0.2] = 0.0
    if rng.random() < 0.5:
        w = np.maximum(w, np.flip(w))
    if frame:
        inside = w[(slice(frame, -frame),) * grid.dim].copy()
        w[...] = 0.0
        w[(slice(frame, -frame),) * grid.dim] = inside
    return WeightedSpace(p, GridFunction(grid, w))


def _noise_family(grid, rng, scale, smooth):
    """Three members in [-2, 2] * scale: noise, or its running sum when
    ``smooth`` (small moduli, which the ring bounds hold close); the last is
    mirror-symmetric, so the shifts k and -k tie up to rounding."""
    members = []
    for _ in range(3):
        v = rng.standard_normal(grid.shape)
        if smooth:
            v = np.cumsum(v, axis=-1) / grid.shape[-1]
        members.append(np.clip(v, -2.0, 2.0) * scale)
    members[-1] = 0.5 * members[-1] + 0.5 * np.flip(members[-1])
    return Family(grid, tuple(GridFunction(grid, v) for v in members), ("a", "b", "c"))


# (inner, reach) of rings in cells: the mesh walker's box levels, then radii
# that are not dyadic
_RING_RADII = [
    (0, 1), (1, 2), (2, 4), (4, 8), (8, 16), (16, 32),
    (0, 1.5), (1.5, 2.3), (math.sqrt(2), 3.7), (2.9, 6.1),
]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize(
    "kind, inner, reach",
    [
        pytest.param(kind, inner, reach, id=("" if kind == "box" else "ball-") + f"{inner:g}-{reach:g}")
        for kind in ("box", "ball")
        for inner, reach in _RING_RADII
    ],
)
def test_screen_ring_layout_pairs_each_shift_with_its_negation(kind, inner, reach, dim):
    # a ring in lexicographic order is its first half, then that half
    # negated in reverse; radii in cells, dyadic or not
    grid = Grid(dim=dim, box_level=0, cell_exp=-6)
    h = grid.cell_side
    ring = np.array(_shift_ring(grid, inner * h, reach * h, kind))
    half = len(ring) // 2
    assert len(ring) == 2 * half > 0
    np.testing.assert_array_equal(ring[half:], -ring[:half][::-1])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=99999),
    dim=st.sampled_from([1, 2]),
    scale=st.sampled_from([1.0, 1e-160, 1e154, 8e307]),
    weight_scale=st.sampled_from([1.0, 1e-200, 1e200]),
    smooth=st.booleans(),
    frame=st.integers(min_value=0, max_value=2),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 1.2000000000000002]),
    data=st.data(),
)
def test_screened_select_mesh_is_the_exact_scan(
    seed, dim, scale, weight_scale, smooth, frame, p, data
):
    # select_mesh passes 1-D rings whole on their ring bounds at every
    # p >= 1 and measures every other shift; whatever the threshold and
    # max_exp, below the cell level included, it returns or raises exactly
    # what the exact scan does, and the exact kernel only meets shifts that
    # scan measures
    grid = Grid(dim=dim, box_level=0, cell_exp=-5 if dim == 1 else -3)
    rng = np.random.default_rng(seed)
    sp = _framed_space(grid, rng, weight_scale, frame, p)
    fam = _noise_family(grid, rng, scale, smooth)
    max_exp = data.draw(st.sampled_from([None, grid.cell_exp - 1, grid.cell_exp, -1]))
    # thresholds at the exact moduli, an ulp either side, and anywhere
    radii = [2.0**i for i in range(grid.cell_exp, grid.box_level + 1)]
    try:
        values = sorted({v for level in translation_reference(fam, sp, radii, "box") for v in level})
    except ModelError:
        values = [1.0]
    threshold = data.draw(
        st.one_of(st.sampled_from(values), st.floats(min_value=0.0, max_value=2.0 * values[-1]))
    )
    threshold = math.nextafter(threshold, data.draw(st.sampled_from([-math.inf, threshold, math.inf])))
    epsilon = _epsilon_at(threshold, dim)
    if not epsilon > 0:
        return
    expected, measured = _measured_outcome(_select_mesh_reference, fam, sp, epsilon, max_exp)
    got, met = _measured_outcome(select_mesh, fam, sp, epsilon, max_exp)
    assert got == expected
    assert met <= measured


def test_screened_select_mesh_confirms_a_threshold_on_a_modulus():
    # the threshold is a shift's exact norm: no bound can tell that shift
    # from the threshold, so the exact kernel decides, and the level fails
    grid = Grid(dim=1, box_level=1, cell_exp=-6)
    sp = WeightedSpace(2.0, sample(PowerLaw(0.5), grid))
    fam = Family.from_profiles(grid, [Gaussian(center=0.1, sigma=0.3), Gaussian(center=-0.2, sigma=0.4)])
    level, found = select_mesh(fam, sp, 1.0)
    nxt = max(translation_reference(fam, sp, [2.0 ** (level + 1)], "box")[0])
    epsilon = _epsilon_at(nxt, 1)
    assert 0.5 * epsilon / 3.0 == nxt
    assert select_mesh(fam, sp, epsilon) == _select_mesh_reference(fam, sp, epsilon)
    above = float(np.nextafter(epsilon, math.inf))
    assert select_mesh(fam, sp, above) == _select_mesh_reference(fam, sp, above)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_select_mesh_screens_no_shift_past_the_first_failure(p):
    # the threshold lies between the box moduli of the second and third
    # levels, so the walk fails in the third ring.  The ring bounds pass the
    # first two rings whole and not the third, whose first shift, the first
    # member's by -4 cells, is measured and fails: the walk measures no
    # shift past it, and that shift is one the exact scan measures too
    grid = Grid(dim=1, box_level=1, cell_exp=-6)
    sp = WeightedSpace(p, sample(PowerLaw(0.5), grid))
    fam = Family.from_profiles(grid, [Gaussian(center=c, sigma=0.3) for c in (-0.4, 0.0, 0.3)])
    radii = [2.0**i for i in range(grid.cell_exp, grid.cell_exp + 3)]
    levels = [max(level) for level in translation_reference(fam, sp, radii, "box")]
    epsilon = 3.0 * 2.0**grid.dim * 0.5 * (levels[1] + levels[2])
    expected, measured = _measured_outcome(_select_mesh_reference, fam, sp, epsilon, None)
    assert expected == ("ok", (grid.cell_exp + 1, expected[1][1]))
    # the exact scan leaves the third ring (4 shifts per member) early
    assert len(measured) < 3 * (2 + 2 + 4)
    got, met = _measured_outcome(select_mesh, fam, sp, epsilon, None)
    assert got == expected
    assert {(j, k) for j, k in met if abs(k[0]) > 2} == {(0, (-4,))}
    assert (0, (-4,)) in measured


def test_select_mesh_rejects_max_exp_below_the_cell_level():
    # no level lies between the cell level and a max_exp below it: a model
    # error naming both, not a verdict on the family
    grid = Grid(dim=1, box_level=0, cell_exp=-4)
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid))
    fam = Family.from_profiles(grid, [Gaussian(center=0.0, sigma=0.3)])
    with pytest.raises(ModelError) as err:
        select_mesh(fam, sp, 1.0, max_exp=-5)
    assert str(err.value) == "select_mesh: max_exp -5 is below the cell level -4"
    assert select_mesh(fam, sp, 1.0, max_exp=-4)[0] == -4


def _null_cube_mask_loop(part, space):
    """Reference: one cube at a time, through the cube's own slices."""
    flags = np.empty(part.n_cubes, dtype=bool)
    for k in range(part.n_cubes):
        flags[k] = not np.any(space.weight.values[part.cube_slices(k)] > 0)
    return flags


def _cube_witnesses_loop(part, space):
    """Reference: the first positive cell of each cube in its local row-major
    order, mapped back to a flat grid index."""
    shape = part.grid.shape
    out = []
    for k in range(part.n_cubes):
        block = space.weight.values[part.cube_slices(k)] > 0
        if not np.any(block):
            out.append(-1)
            continue
        local = np.unravel_index(int(np.flatnonzero(block.reshape(-1))[0]), block.shape)
        sl = part.cube_slices(k)
        cell = tuple(s.start + i for s, i in zip(sl, local))
        out.append(int(np.ravel_multi_index(cell, shape)))
    return tuple(out)


@pytest.mark.parametrize("dim", [1, 2])
def test_cube_reductions_match_loops(dim):
    rng = np.random.default_rng(dim)
    grid = Grid(dim=dim, box_level=1, cell_exp=-4 if dim == 1 else -3)
    for density in (0.0, 0.03, 0.3, 1.0):
        keep = rng.uniform(size=grid.shape) < density
        w = np.where(keep, rng.uniform(0.1, 2.0, grid.shape), 0.0)
        space = WeightedSpace(2.0, GridFunction(grid, w))
        for box_level in range(grid.cell_exp, grid.box_level + 1):
            for cube_exp in range(grid.cell_exp, box_level + 1):
                part = DyadicPartition(grid, box_level, cube_exp)
                np.testing.assert_array_equal(
                    null_cube_mask(part, space), _null_cube_mask_loop(part, space), strict=True
                )
                np.testing.assert_array_equal(
                    cube_witnesses(part, space), _cube_witnesses_loop(part, space)
                )


def test_cube_projection_fixes_cubewise_constants(grid1d):
    part = DyadicPartition(grid1d, 0, -1)
    f = GridFunction(grid1d, np.repeat([1.0, -2.0, 3.0, 0.5], 2))
    coeffs = cube_projection(f, part)
    np.testing.assert_array_equal(coeffs, [1.0, -2.0, 3.0, 0.5])
    back = expand_coefficients(coeffs, part)
    np.testing.assert_array_equal(back.values, f.values)


def test_cube_projection_vanishing_zeroes_null_cubes(grid1d):
    w = np.ones(grid1d.shape)
    w[:2] = 0.0
    sp = WeightedSpace(2.0, GridFunction(grid1d, w))
    part = DyadicPartition(grid1d, 0, -1)
    f = GridFunction(grid1d, np.ones(grid1d.shape))
    banach = cube_projection(f, part)
    vanishing = cube_projection(f, part, nulls=null_cube_mask(part, sp))
    assert banach[0] == 1.0
    assert vanishing[0] == 0.0
    np.testing.assert_array_equal(vanishing[1:], banach[1:])


def test_projection_error_guarantee(grid1d, rng):
    sp = WeightedSpace(2.0, GridFunction(grid1d, rng.uniform(0.1, 1.0, grid1d.shape)))
    fam = random_family(grid1d, rng)
    part = DyadicPartition(grid1d, 0, -1)
    # the moduli the build passes in: select_mesh's scan at the cube side
    moduli = translation_reference(fam, sp, [0.5], "box")[0]
    for f, modulus in zip(fam.members, moduli):
        coeffs = all_cube_averages(f, part)
        measured, guarantee = projection_error(f, coeffs, part, sp, modulus, check=True)
        assert measured <= guarantee + 1e-12
        assert guarantee == pytest.approx(
            2.0 * translation_modulus(fam := Family(grid1d, (f,), ("x",)), sp, 0.5, "box"),
            rel=1e-12,
        )


def _projection_case(grid1d, rng):
    """A non-constant member, its cube averages and its measured error."""
    sp = WeightedSpace(2.0, GridFunction(grid1d, rng.uniform(0.1, 1.0, grid1d.shape)))
    f = GridFunction(grid1d, rng.normal(size=grid1d.shape))
    part = DyadicPartition(grid1d, 0, -1)
    coeffs = all_cube_averages(f, part)
    measured = projection_error(f, coeffs, part, sp, 0.0)[0]
    assert measured > 0.0
    return f, coeffs, part, sp, measured


def test_projection_check_raises_past_its_guarantee(grid1d, rng):
    f, coeffs, part, sp, _ = _projection_case(grid1d, rng)
    with pytest.raises(ModelError, match="exceeds its guarantee"):
        projection_error(f, coeffs, part, sp, 0.0, check=True)


def test_projection_check_forgives_rounding_within_its_slack(grid1d, rng):
    # past the guarantee by far less than 1e-10 ||f|| passes; by 2e-10 ||f||
    # it raises
    f, coeffs, part, sp, measured = _projection_case(grid1d, rng)
    assert projection_error(f, coeffs, part, sp, measured * (0.5 - 1e-13), check=True) == (
        measured,
        2.0 * (measured * (0.5 - 1e-13)),
    )
    norm = weighted_norm(f, sp)
    with pytest.raises(ModelError, match="exceeds its guarantee"):
        projection_error(f, coeffs, part, sp, (measured - 2e-10 * norm) / 2.0, check=True)


def test_projection_check_within_its_guarantee_takes_one_norm(grid1d, rng, monkeypatch):
    f, coeffs, part, sp, measured = _projection_case(grid1d, rng)
    calls = []

    def counted(*args):
        calls.append(args)
        return _array_norm(*args)

    monkeypatch.setattr(netbuilder, "_array_norm", counted)
    assert projection_error(f, coeffs, part, sp, measured, check=True)[0] == measured
    assert len(calls) == 1


def test_quantize_net_lattice_and_dedup(grid1d, flat_space):
    part = DyadicPartition(grid1d, 0, -1)
    coeffs = np.array(
        [
            [0.30, 0.50, -0.20, 0.00],
            [0.31, 0.52, -0.21, 0.01],  # rounds onto the same lattice point
            [0.80, 0.10, 0.40, -0.30],
        ]
    )
    qn = quantize_net(coeffs, 0.25, part, flat_space)
    assert qn.net_elements.shape[0] == 2  # first two rows collide after rounding
    assert np.all(np.abs(qn.net_elements) <= 1.0)
    lattice = qn.net_elements / 0.25
    np.testing.assert_allclose(lattice, np.rint(lattice), atol=1e-12)
    # rounding error per member is at most (step/2) * ||chi||
    assert max(qn.distances) <= 0.125 * weighted_norm(
        GridFunction(grid1d, np.ones(grid1d.shape)), flat_space
    ) * (1 + 1e-12)
    assert qn.assignment[0] == qn.assignment[1] == 0
    assert qn.assignment[2] == 1
    for step in (0.0, math.nan):
        with pytest.raises(ModelError, match="quantization step must be positive"):
            quantize_net(coeffs, step, part, flat_space)


def test_quantize_net_bound_is_a_lattice_multiple_past_an_ulp_short_ceil(grid1d, flat_space):
    # step * ceil(top / step) lands one ulp below top here; the bound is the
    # next lattice multiple, so it still covers every coefficient
    part = DyadicPartition(grid1d, 0, -1)
    top, step = 3.890947545710138, 0.007555237952835219
    assert step * math.ceil(top / step) < top
    qn = quantize_net(np.array([[0.5, -top, 0.0, 1.0]]), step, part, flat_space)
    assert qn.coeff_bound == step * math.ceil(top / step) + step
    assert np.all(np.abs(qn.net_elements) <= qn.coeff_bound)


def test_build_certificate_end_to_end(gauss_problem):
    grid, fam, space, bound = gauss_problem
    eps = 0.05 * bound
    cert = build_certificate(fam, space, eps)
    plan = cert.plan
    assert plan.box_level == 2
    assert plan.cube_exp == -8
    assert plan.budget.tail < eps / 3
    assert plan.budget.projection < eps / 3
    assert plan.budget.quantization <= eps / 3
    assert max(cert.distances) < eps
    assert cert.n_net == 20
    assert cert.labels == fam.labels
    report = validate_certificate(fam, cert, space)
    assert report.passed
    assert report.failures == ()
    np.testing.assert_allclose(report.distances, cert.distances, rtol=1e-12)


@pytest.mark.parametrize("p, k", [(2.0, 600), (1.5, 800), (3.0, 400)])
def test_build_certificate_through_the_exponent_pass(p, k):
    # six Gaussians, and the same times 2**-k at epsilon times 2**-k: every
    # power |f|**p of the scaled family is below 2**-1100 and flushes to 0,
    # so each of its norms, in the scans, the projection, the quantization
    # and the validator, takes the exponent pass.  The build must not move:
    # the same levels and assignment, the net times 2**-k bit for bit, and
    # distances within a few ulps of the unscaled ones
    grid = Grid(dim=1, box_level=2, cell_exp=-8)
    space = WeightedSpace(p, sample(PowerLaw(0.5), grid))
    fam = Family.from_profiles(
        grid, [Gaussian(center=float(c), sigma=0.5) for c in np.linspace(-1.5, 1.5, 6)]
    )
    tiny = Family(
        grid, tuple(GridFunction(grid, np.ldexp(f.values, -k)) for f in fam.members), fam.labels
    )
    assert all(_weighted_power_sum(f.values, space) == 0.0 for f in tiny.members)
    eps = 0.2 * bound_modulus(fam, space)
    cert = build_certificate(fam, space, eps)
    scaled = build_certificate(tiny, space, math.ldexp(eps, -k))
    assert (scaled.plan.box_level, scaled.plan.cube_exp) == (cert.plan.box_level, cert.plan.cube_exp)
    assert scaled.assignment == cert.assignment
    assert scaled.net_elements.tobytes() == np.ldexp(cert.net_elements, -k).tobytes()
    assert validate_certificate(tiny, scaled, space).passed
    np.testing.assert_allclose(
        np.ldexp(scaled.distances, k), cert.distances, rtol=6e-16, atol=0.0
    )


def test_build_certificate_in_a_box_of_zero_weight():
    # weight 0 on |x| <= 1 and 1 outside: the tail outside the box of level
    # -4 is the Gaussians' far tails, far below epsilon / 3, so that box is
    # chosen, and its indicator norm is 0.  The build then takes the step
    # 1.0, every coefficient rounds to the lattice within it, and nothing
    # the box holds is seen by the norm
    grid = Grid(dim=1, box_level=1, cell_exp=-4)
    weight = np.where(np.abs(grid.axis_centers()) <= 1.0, 0.0, 1.0)
    space = WeightedSpace(2.0, GridFunction(grid, weight))
    fam = Family.from_profiles(grid, [Gaussian(center=c, sigma=0.1) for c in (0.0, 0.1)])
    cert = build_certificate(fam, space, 0.5)
    plan = cert.plan
    assert (plan.box_level, plan.cube_exp) == (-4, -4)
    assert (plan.quant_step, plan.coeff_bound) == (1.0, 1.0)
    assert plan.budget.tail == pytest.approx(3.68e-20, rel=1e-3)
    assert (plan.budget.projection, plan.budget.quantization) == (0.0, 0.0)
    assert len(cert.net_elements) == 2
    assert validate_certificate(fam, cert, space).passed


def test_certificate_roundtrip(tmp_path, gauss_problem):
    grid, fam, space, bound = gauss_problem
    cert = build_certificate(fam, space, 0.1 * bound)
    doc = certificate_to_dict(cert)
    assert doc["cube_order"] == "row-major by cube corner"
    clone = certificate_from_dict(doc)
    assert clone.plan == cert.plan
    np.testing.assert_array_equal(clone.net_elements, cert.net_elements)
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    again = load_certificate(path)
    assert again.plan == cert.plan
    assert validate_certificate(fam, again, space).passed
    # byte-identical serialization
    save_certificate(again, tmp_path / "cert2.json")
    assert (tmp_path / "cert.json").read_bytes() == (tmp_path / "cert2.json").read_bytes()


def test_validate_rejects_tampering(gauss_problem):
    grid, fam, space, bound = gauss_problem
    eps = 0.1 * bound
    cert = build_certificate(fam, space, eps)

    # off-lattice net element
    net = np.array(cert.net_elements)
    net[0, 0] += cert.plan.quant_step / 3.0
    bad = replace(cert, net_elements=net)
    rep = validate_certificate(fam, bad, space)
    assert not rep.passed
    assert any("lattice" in msg for msg in rep.failures)

    # recorded distance that does not match a re-measurement
    bad2 = replace(cert, distances=tuple(d * 1.5 for d in cert.distances))
    rep2 = validate_certificate(fam, bad2, space)
    assert not rep2.passed

    # wrong family (one member replaced)
    members = list(fam.members)
    members[3] = members[3] * 1.5
    fam2 = Family(grid, tuple(members), fam.labels)
    rep3 = validate_certificate(fam2, cert, space)
    assert not rep3.passed
    assert any(fam.labels[3] in msg for msg in rep3.failures)


def test_build_certificate_rejects_quasi(grid1d, rng):
    sp = WeightedSpace(0.5, sample(Constant(1.0), grid1d))
    fam = random_family(grid1d, rng)
    with pytest.raises(ModelError):
        build_certificate(fam, sp, 1.0)


def test_vanishing_variant_null_cubes(gauss_problem):
    grid, fam, _, _ = gauss_problem
    from lpcompact import PowerLaw

    wv = sample(PowerLaw(0.5), grid).values.copy()
    wv[:16] = 0.0
    space = WeightedSpace(2.0, GridFunction(grid, wv))
    from lpcompact import bound_modulus

    eps = 0.05 * bound_modulus(fam, space)
    cert = build_certificate(fam, space, eps, variant="vanishing")
    assert cert.variant == "vanishing"
    assert len(cert.null_cubes) > 0
    net = np.asarray(cert.net_elements)
    assert np.all(net[:, list(cert.null_cubes)] == 0.0)
    assert len(cert.witness_cells) == cert.net_elements.shape[1]
    assert validate_certificate(fam, cert, space).passed


def test_certificate_size_ladder_monotone(gauss_problem):
    grid, fam, space, bound = gauss_problem
    sizes = [
        build_certificate(fam, space, frac * bound).n_net for frac in (0.02, 0.05, 0.1, 0.2)
    ]
    assert sizes == sorted(sizes, reverse=True)


def test_zero_family_certificate():
    grid = Grid(dim=1, box_level=0, cell_exp=-5)
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid))
    zero = GridFunction(grid, np.zeros(grid.shape))
    fam = Family(grid, (zero, zero), ("z0", "z1"))
    cert = build_certificate(fam, sp, 0.5)
    assert cert.n_net == 1
    assert np.all(cert.net_elements == 0.0)
    assert cert.distances == (0.0, 0.0)
    assert validate_certificate(fam, cert, sp).passed


def test_projection_error_zero_coeffs_is_truncated_norm(grid1d, flat_space, rng):
    f = GridFunction(grid1d, rng.normal(size=grid1d.shape))
    part = DyadicPartition(grid1d, -1, -2)
    zeros = np.zeros(part.n_cubes)
    modulus = translation_modulus(Family(grid1d, (f,), ("f",)), flat_space, 0.25, "box")
    measured, _ = projection_error(f, zeros, part, flat_space, modulus)

    assert measured == pytest.approx(
        weighted_norm(GridFunction(grid1d, f.values * inside_mask(grid1d, 0.5, "box")), flat_space),
        rel=1e-12,
    )


def test_shrunken_epsilon_certificate_rejected(gauss_problem):
    # budgets sized for eps cannot satisfy the eps/100 invariants, so the
    # tampered document is refused at reconstruction
    grid, fam, space, bound = gauss_problem
    cert = build_certificate(fam, space, 0.1 * bound)
    doc = certificate_to_dict(cert)
    doc["plan"]["epsilon"] = doc["plan"]["epsilon"] / 100.0
    with pytest.raises(ModelError):
        certificate_from_dict(doc)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=99))
def test_certificate_distances_below_epsilon(seed):
    g = Grid(dim=1, box_level=1, cell_exp=-7)
    r = np.random.default_rng(seed)
    sp = WeightedSpace(2.0, GridFunction(g, r.uniform(0.2, 1.0, g.shape)))
    members = []
    for _ in range(4):
        c = r.uniform(-0.8, 0.8)
        members.append(sample(Gaussian(center=float(c), sigma=0.4), g))
    fam = Family(g, tuple(members), tuple(f"g{i}" for i in range(4)))
    from lpcompact import bound_modulus

    eps = 0.2 * bound_modulus(fam, sp)
    cert = build_certificate(fam, sp, eps)
    assert max(cert.distances) < eps
    assert validate_certificate(fam, cert, sp).passed


def test_select_tail_level_returns_tail_modulus(gauss_problem):
    # the returned tail is the modulus at the chosen level, and the level
    # below it misses the budget
    grid, fam, space, bound = gauss_problem
    eps = 0.05 * bound
    m, tail = select_tail_level(fam, space, eps)
    assert tail == tail_modulus(fam, space, 2.0**m, region="box")
    assert tail < eps / 3
    assert tail_modulus(fam, space, 2.0 ** (m - 1), region="box") >= eps / 3


def test_build_certificate_non_finite_difference_is_model_error():
    # +-1e308 in adjacent cells: the one-cell shifted difference overflows,
    # which is a model violation, not a failed compactness hypothesis
    grid = Grid(dim=1, box_level=0, cell_exp=-3)
    sp = WeightedSpace(2.0, sample(Constant(1.0), grid))
    vals = np.zeros(grid.shape)
    vals[3], vals[4] = 1e308, -1e308
    fam = Family(grid, (GridFunction(grid, vals),), ("big",))
    with pytest.raises(ModelError, match="finite"):
        build_certificate(fam, sp, 1.0)


@pytest.mark.parametrize(
    "path, value",
    [
        (("plan", "epsilon"), math.inf),
        (("plan", "epsilon"), math.nan),
        (("plan", "quant_step"), math.inf),
        (("plan", "coeff_bound"), -math.inf),
        (("plan", "budget", "quantization"), math.nan),
        (("variant",), "bogus"),
    ],
)
def test_certificate_from_dict_rejects_bad_plan_and_variant(gauss_problem, path, value):
    grid, fam, space, bound = gauss_problem
    doc = certificate_to_dict(build_certificate(fam, space, 0.1 * bound))
    *parents, key = path
    target = doc
    for name in parents:
        target = target[name]
    target[key] = value
    with pytest.raises(ModelError):
        certificate_from_dict(doc)


def test_validate_reports_label_mismatch(gauss_problem):
    grid, fam, space, bound = gauss_problem
    cert = build_certificate(fam, space, 0.1 * bound)
    relabelled = replace(cert, labels=tuple(reversed(cert.labels)))
    rep = validate_certificate(fam, relabelled, space)
    assert not rep.passed
    assert any("labels" in msg for msg in rep.failures)


def test_validate_checks_cube_claims(gauss_problem):
    grid, fam, _, _ = gauss_problem
    wv = sample(PowerLaw(0.5), grid).values.copy()
    wv[:16] = 0.0
    space = WeightedSpace(2.0, GridFunction(grid, wv))
    eps = 0.05 * bound_modulus(fam, space)
    cert = build_certificate(fam, space, eps, variant="vanishing")
    nulls, witnesses = cert.null_cubes, cert.witness_cells
    assert validate_certificate(fam, cert, space).passed
    first_live = next(k for k in range(len(witnesses)) if k not in nulls)
    moved = list(witnesses)
    moved[first_live] = witnesses[first_live + 1]  # a positive cell of the next cube
    tampered = [
        (
            replace(cert, null_cubes=(), witness_cells=(0,) * len(witnesses)),
            "no positive-weight witness",
        ),
        (replace(cert, null_cubes=nulls + (first_live,)), "listed as null hold positive weight"),
        (replace(cert, null_cubes=nulls[1:]), "no positive-weight witness"),
        (replace(cert, null_cubes=nulls + nulls[:1]), "repeats a cube"),
        (replace(cert, null_cubes=nulls + (len(witnesses),)), "outside the partition"),
        (replace(cert, witness_cells=tuple(moved)), f"(first: cube {first_live})"),
        (replace(cert, witness_cells=witnesses[:-1]), "witness list has"),
        (replace(cert, witness_cells=(10**30,) + witnesses[1:]), "64-bit"),
        (replace(cert, variant="banach"), "banach certificate lists"),
    ]
    for bad, reason in tampered:
        rep = validate_certificate(fam, bad, space)
        assert not rep.passed
        assert any(reason in msg for msg in rep.failures), rep.failures


def _expand_by_repeat(coeffs, part):
    """Reference: the expansion as np.repeat along each axis, zero outside."""
    b, c = part.cubes_per_axis, part.cells_per_cube_axis
    values = np.zeros(part.grid.shape)
    if part.grid.dim == 1:
        inner = np.repeat(coeffs, c)
    else:
        inner = np.repeat(np.repeat(coeffs.reshape(b, b), c, axis=0), c, axis=1)
    values[part.inside_slices()] = inner
    return GridFunction(part.grid, values)


def _cube_kernel_cases(dim):
    """Random members, coefficients and zero-holding weights on a grid, with
    partitions whose box is smaller than the grid's and one that fills it."""
    rng = np.random.default_rng(10 + dim)
    grid = Grid(dim=dim, box_level=1, cell_exp=-4 if dim == 1 else -3)
    weight = rng.uniform(0.1, 2.0, grid.shape) * (rng.uniform(size=grid.shape) > 0.3)
    fam = random_family(grid, rng, n=4)
    for box_level, cube_exp in ((0, -2), (-1, -3), (1, -1)):
        part = DyadicPartition(grid, box_level, cube_exp)
        for p in (1.0, 1.5, 2.0, 3.0):
            coeffs = rng.normal(size=(len(fam), part.n_cubes))
            yield fam, part, WeightedSpace(p, GridFunction(grid, weight)), coeffs


@pytest.mark.parametrize("dim", [1, 2])
def test_cube_kernel_equals_expanded_reference(dim):
    # every distance after the mesh scan, against the expression it replaced
    for fam, part, space, coeffs in _cube_kernel_cases(dim):
        radius = 2.0 ** part.box_level
        # one buffer serves every member of a partition, as in a build
        buffer = np.zeros(part.grid.shape)
        for f, c in zip(fam.members, coeffs):
            np.testing.assert_array_equal(
                expand_coefficients(c, part).values, _expand_by_repeat(c, part).values
            )
            expected = weighted_norm(
                GridFunction(f.grid, f.values * inside_mask(f.grid, radius, "box"))
                - expand_coefficients(c, part),
                space,
            )
            assert projection_error(f, c, part, space, 0.0)[0] == expected
            assert projection_error(f, c, part, space, 0.0, buffer=buffer)[0] == expected
        qn = quantize_net(coeffs, 0.5, part, space)
        assert qn.distances == tuple(
            weighted_norm(expand_coefficients(c - qn.net_elements[j], part), space)
            for c, j in zip(coeffs, qn.assignment)
        )
        assignment = (2, 0, 3, 0)
        expected = tuple(
            weighted_norm(f - expand_coefficients(coeffs[j], part), space)
            for f, j in zip(fam.members, assignment)
        )
        assert _net_distances(fam, coeffs, assignment, part, space, math.inf) == expected
        distances, failures = _remeasure(
            fam, coeffs, assignment, expected, part, space, math.inf, "distance"
        )
        assert distances == expected and failures == []


def test_quasi_audit_equals_expanded_reference():
    grid = Grid(dim=1, box_level=1, cell_exp=-6)
    space = WeightedSpace(0.5, sample(PowerLaw(0.5), grid))
    fam = Family.from_profiles(
        grid, [Gaussian(center=c, sigma=0.4) for c in (-0.4, 0.0, 0.3, 0.5)]
    )
    cert = quasi_certificate(fam, space, 0.4 * bound_modulus(fam, space))
    n, part = cert.quasi.n_power, cert.partition
    expected = tuple(
        weighted_norm(f - expand_coefficients(cert.net_elements[j] ** n, part), space)
        for f, j in zip(fam.members, cert.assignment)
    )
    assert cert.quasi.audit_distances == expected
    assert validate_quasi_certificate(fam, cert, space).distances == expected


def _quantize_by_tuple_keys(coeffs, step):
    """Reference: the dedup on tuples of lattice coordinates it replaced."""
    seen, assignment = {}, []
    for row in np.rint(coeffs / step).astype(np.int64):
        key = tuple(row.tolist())
        if key not in seen:
            seen[key] = len(seen)
        assignment.append(seen[key])
    elements = np.array(
        [np.array(key, dtype=np.float64) * step for key in seen], dtype=np.float64
    ).reshape(len(seen), coeffs.shape[1])
    return elements, tuple(assignment)


@st.composite
def _quantizer_cases(draw):
    """Coefficient rows on 2, 4 or 8 cubes at a step from 2**-60 to 1, with
    repeated rows and entries that round to -0.0."""
    cube_exp = draw(st.integers(-2, 0))
    n_cubes = 2 ** (1 - cube_exp)
    step = draw(st.floats(1.0, 2.0, exclude_max=True)) * 2.0 ** draw(st.integers(-60, -1))
    entry = st.one_of(
        st.floats(-1.0, 1.0),
        st.sampled_from([-0.4, -0.1, 0.0, -0.0, 0.3, -1.0, 1.0]).map(lambda t: t * step),
    )
    pool = draw(st.lists(st.lists(entry, min_size=n_cubes, max_size=n_cubes), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    return cube_exp, np.array([pool[i] for i in picks]), step


@settings(max_examples=80, deadline=None)
@given(_quantizer_cases())
# rows 0 and 1 round to the same point, (-0.0, 1, 2, -2) and (0, 1, 2, -2)
@example((-1, np.array([[-0.1, 0.3, 0.6, -0.6], [0.1, 0.3, 0.6, -0.6]] * 2), 0.25))
@example((0, np.array([[0.0, 1.0]]), 3.3306690738754696e-16))
def test_quantize_net_matches_tuple_key_reference(case):
    cube_exp, coeffs, step = case
    grid = Grid(dim=1, box_level=0, cell_exp=-3)
    part = DyadicPartition(grid, 0, cube_exp)
    space = WeightedSpace(2.0, sample(Constant(1.0), grid))
    # at a step that is not a power of two, j * step can miss c by more than
    # step/2 once step is near an ulp of c; both must then refuse
    moved = np.abs(coeffs - np.rint(coeffs / step) * step)
    if np.any(moved > 0.5 * step * (1 + 1e-12)):
        with pytest.raises(ModelError, match="beyond half a step"):
            quantize_net(coeffs, step, part, space)
        return
    qn = quantize_net(coeffs, step, part, space)
    elements, assignment = _quantize_by_tuple_keys(coeffs, step)
    assert qn.assignment == assignment
    assert qn.net_elements.tobytes() == elements.tobytes()
    assert qn.distances == tuple(
        weighted_norm(expand_coefficients(c - elements[j], part), space)
        for c, j in zip(coeffs, assignment)
    )


def test_quantize_net_keeps_points_past_the_int64_range(grid1d, flat_space):
    # 0.5 / 1e-20 = 5e19 lies past 2**63: cast to int64 the two lattice
    # points became one, with the distances breaking the step/2 promise
    part = DyadicPartition(grid1d, 0, -1)
    coeffs = np.array([[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.75]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        qn = quantize_net(coeffs, 1e-20, part, flat_space)
    np.testing.assert_array_equal(qn.net_elements, coeffs)
    assert qn.assignment == (0, 1)
    assert qn.distances == (0.0, 0.0)


def test_quantize_net_tells_apart_rows_that_share_a_bucket(grid1d, flat_space, monkeypatch):
    part = DyadicPartition(grid1d, 0, -1)
    rng = np.random.default_rng(5)
    pool = rng.uniform(-1.0, 1.0, (3, part.n_cubes))
    coeffs = pool[[0, 1, 0, 2, 1, 2, 0]]
    expected = quantize_net(coeffs, 0.125, part, flat_space)
    monkeypatch.setattr(netbuilder, "_row_key", lambda point: 0)
    qn = quantize_net(coeffs, 0.125, part, flat_space)
    assert qn.assignment == expected.assignment == (0, 1, 0, 2, 1, 2, 0)
    np.testing.assert_array_equal(qn.net_elements, expected.net_elements)
    assert qn.distances == expected.distances


@pytest.fixture(scope="module")
def wide_net():
    """Eight members on 65,536 one-cell cubes, the shape of the benchmark's
    per-cube workload, their quantized net and its certificate."""
    grid = Grid(dim=2, box_level=1, cell_exp=-6)
    part = DyadicPartition(grid, 1, -6)
    space = WeightedSpace(2.0, sample(Constant(1.0), grid))
    coeffs = np.random.default_rng(0).uniform(-1.0, 1.0, (8, part.n_cubes))
    fam = Family(
        grid,
        tuple(GridFunction(grid, c.reshape(grid.shape)) for c in coeffs),
        tuple(f"m{i}" for i in range(8)),
    )
    qn = quantize_net(coeffs, 0.1, part, space)
    plan = netbuilder.NetPlan(
        epsilon=10.0, box_level=1, cube_exp=-6, quant_step=0.1, coeff_bound=1.0,
        budget=netbuilder.EpsilonBudget(0.0, 0.0, max(qn.distances)),
    )
    cert = netbuilder.NetCertificate(
        plan=plan, grid=grid, space_p=2.0, variant="banach", net_elements=qn.net_elements,
        assignment=qn.assignment, distances=qn.distances, labels=fam.labels,
    )
    assert cert.n_net == 8
    return coeffs, part, space, fam, cert


def _peak_share(call, nbytes):
    """Peak traced allocation of ``call()`` over ``nbytes``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / nbytes
    finally:
        tracemalloc.stop()


def test_quantize_net_peaks_at_the_net_and_a_few_rows(wide_net):
    coeffs, part, space, _, _ = wide_net
    assert _peak_share(lambda: quantize_net(coeffs, 0.1, part, space), coeffs.nbytes) <= 1.5
    # every row twice: the lattice of 16 rows, the copy of its 8 leading rows
    # the net keeps and a row buffer, not the distances' grid buffer too
    twice = np.vstack([coeffs, coeffs])
    assert _peak_share(lambda: quantize_net(twice, 0.1, part, space), twice.nbytes) <= 1.6


def test_validate_certificate_peaks_below_the_net(wide_net):
    _, _, space, fam, cert = wide_net
    assert validate_certificate(fam, cert, space).passed
    share = _peak_share(lambda: validate_certificate(fam, cert, space), cert.net_elements.nbytes)
    assert share <= 1.0


def test_save_certificate_peaks_below_the_net(wide_net, tmp_path):
    # a vanishing certificate with a witness for each of its 65,536 cubes:
    # the per-cube lists and each net row's texts go out a chunk at a time,
    # so the writer's row buffers set the peak
    cert = wide_net[4]
    cert = replace(
        cert, variant="vanishing", null_cubes=tuple(range(0, cert.partition.n_cubes, 3)),
        witness_cells=tuple(-1 if c % 3 == 0 else c for c in range(cert.partition.n_cubes)),
    )
    path = tmp_path / "cert.json"
    share = _peak_share(lambda: save_certificate(cert, path), cert.net_elements.nbytes)
    assert share <= 0.6
    assert path.read_text() == json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True) + "\n"


def test_load_certificate_shares_each_distinct_number(wide_net, tmp_path):
    # the quantized net holds 21 distinct values: each is parsed once, so the
    # rows hold shared floats and the reader peaks at the text, the rows'
    # lists and the array
    cert = wide_net[4]
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    share = _peak_share(lambda: load_certificate(path), cert.net_elements.nbytes)
    assert share <= 4.5
    loaded = load_certificate(path)
    np.testing.assert_array_equal(loaded.net_elements.view(np.int64), cert.net_elements.view(np.int64))


def test_load_certificate_of_an_all_distinct_net(wide_net, tmp_path):
    # past the table's cap each number parses on its own: the same bits, and
    # the memory of json.load's own parse
    net = np.random.default_rng(1).uniform(-1.0, 1.0, wide_net[4].net_elements.shape)
    assert len(np.unique(net)) == net.size
    path = tmp_path / "cert.json"
    save_certificate(replace(wide_net[4], net_elements=net), path)

    def default_parse():
        with open(path) as fh:
            return certificate_from_dict(json.load(fh))

    loaded = load_certificate(path)
    np.testing.assert_array_equal(loaded.net_elements.view(np.int64), net.view(np.int64))
    assert _peak_share(lambda: load_certificate(path), 1) <= 1.1 * _peak_share(default_parse, 1)


def _whole_net_lattice_failures(elements, step, bound):
    """Reference: the whole-net lattice and bound checks of the validator."""
    failures = []
    with np.errstate(all="ignore"):
        snapped = np.rint(elements / step) * step
        on_lattice = np.abs(elements - snapped) <= 1e-9 * np.abs(elements)
    if not np.all(on_lattice):
        row = int(np.argmin(on_lattice.all(axis=1)))
        failures.append(f"net element {row} leaves the quantization lattice")
    if np.any(np.abs(elements) > bound * (1 + 1e-12)):
        failures.append("a net coefficient exceeds the declared bound")
    return failures


@pytest.fixture(scope="module")
def gauss_certificate(gauss_problem):
    _, fam, space, bound = gauss_problem
    return fam, space, build_certificate(fam, space, 0.1 * bound)


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["off", "beyond", "-0.0"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(_EDITS)
@example([("beyond", 7, 0), ("off", 3, 1)])
def test_validator_lattice_checks_match_the_whole_net_reference(gauss_certificate, edits):
    fam, space, cert = gauss_certificate
    plan = cert.plan
    net = np.array(cert.net_elements)
    for kind, row, col in edits:
        row, col = row % net.shape[0], col % net.shape[1]
        net[row, col] = {
            "off": net[row, col] + plan.quant_step / 3.0,
            "beyond": plan.quant_step * math.ceil(2.0 * plan.coeff_bound / plan.quant_step),
            "-0.0": -0.0,
        }[kind]
    report = validate_certificate(fam, replace(cert, net_elements=net), space)
    found = [f for f in report.failures if "lattice" in f or "declared bound" in f]
    assert found == _whole_net_lattice_failures(net, plan.quant_step, plan.coeff_bound)


def test_build_computes_the_null_cube_mask_once(gauss_problem, monkeypatch):
    import lpcompact.netbuilder as nb

    grid, fam, _, _ = gauss_problem
    wv = sample(PowerLaw(0.5), grid).values.copy()
    wv[:16] = 0.0
    space = WeightedSpace(2.0, GridFunction(grid, wv))
    calls = []
    reduce = nb._first_positive_cells
    monkeypatch.setattr(nb, "_first_positive_cells", lambda *a: calls.append(a) or reduce(*a))
    cert = build_certificate(fam, space, 0.05 * bound_modulus(fam, space), variant="vanishing")
    assert cert.null_cubes and len(fam) == 20
    assert len(calls) == 1


def test_certificate_keeps_the_quantized_net_without_a_copy(gauss_problem, monkeypatch):
    # the net quantize_net hands over is the certificate's: the whole lattice
    # when no row merged, else a copy of its leading rows alone
    grid, fam, space, bound = gauss_problem
    nets = []
    quantize = netbuilder.quantize_net
    monkeypatch.setattr(netbuilder, "quantize_net", lambda *a: nets.append(quantize(*a)) or nets[-1])
    twice = Family(grid, fam.members * 2, [*fam.labels, *(f"{lab}'" for lab in fam.labels)])
    for family in (fam, twice):
        cert = build_certificate(family, space, 0.1 * bound)
        net = nets[-1].net_elements
        assert cert.net_elements is net
        assert net.flags.owndata and not net.flags.writeable
        assert replace(cert, labels=family.labels).net_elements is net
    assert len(fam) == cert.n_net < len(twice)
    writable = np.array(cert.net_elements)
    assert not np.shares_memory(replace(cert, net_elements=writable).net_elements, writable)


def _random_problem(seed, dim, p, kinds, power, support):
    """A random small problem: 1-4 Gaussian, bump or indicator members on a
    grid of at most 2**8 cells per axis, under a constant weight or |x|**power,
    cut to the box of half-width ``support`` when that is given."""
    rng = np.random.default_rng(seed)
    cells = int(rng.integers(5, 9)) if dim == 1 else int(rng.integers(4, 7))
    grid = Grid(dim=dim, box_level=0, cell_exp=1 - cells)
    if support is not None:
        weight = PowerLaw(power or 0.0, support=support)
    else:
        weight = Constant(1.0) if power is None else PowerLaw(power)
    sp = WeightedSpace(p, sample(weight, grid))

    def center():
        c = rng.uniform(-0.6, 0.6, dim)
        return float(c[0]) if dim == 1 else tuple(float(x) for x in c)

    profiles = {
        "gaussian": lambda: Gaussian(center=center(), sigma=float(rng.uniform(0.1, 0.6))),
        "bump": lambda: Bump(center=center(), radius=float(rng.uniform(0.2, 0.8))),
        "indicator": lambda: Indicator(center=center(), radius=float(rng.uniform(0.1, 0.5))),
    }
    return grid, Family.from_profiles(grid, [profiles[k]() for k in kinds]), sp


def _assert_rebuilds_byte_for_byte(build):
    with tempfile.TemporaryDirectory() as work:
        paths = [Path(work) / "a.json", Path(work) / "b.json"]
        for path in paths:
            save_certificate(build(), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


_RANDOM_PROBLEM = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.sampled_from([1, 2]),
    kinds=st.lists(st.sampled_from(["gaussian", "bump", "indicator"]), min_size=1, max_size=4),
    power=st.sampled_from([None, 0.5, 1.0]),
    support=st.sampled_from([None, 0.3, 0.6]),
)


@settings(max_examples=25, deadline=None)
@given(
    **_RANDOM_PROBLEM,
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    factor=st.floats(min_value=1.0, max_value=4.0, exclude_min=True),
    variant=st.sampled_from(["banach", "vanishing"]),
)
def test_random_problem_builds_above_its_least_epsilon(
    seed, dim, p, kinds, power, support, factor, variant
):
    # end to end over random small problems: smooth members pass whole rings
    # on their ring bounds, rough ones fall back to exact norms.  At epsilon
    # above the least that builds, 3 2**dim times the largest one-cell box
    # modulus, the build validates, keeps every stage below epsilon / 3 and
    # rebuilds byte for byte; just below that least epsilon it refuses.  A
    # weight cut to a box inside the grid vanishes on a frame of null cubes,
    # which the vanishing variant zeroes
    if support is not None:
        variant = "vanishing"
    grid, fam, sp = _random_problem(seed, dim, p, kinds, power, support)
    least = 3.0 * 2.0**dim * translation_modulus(fam, sp, grid.cell_side, stencil="box")
    # members that the weight does not see have nothing to refuse
    assume(least > 0)
    with pytest.raises(HypothesisError):
        build_certificate(fam, sp, least * (1.0 - 1e-9), variant=variant)
    epsilon = least * factor
    cert = build_certificate(fam, sp, epsilon, variant=variant)
    assert validate_certificate(fam, cert, sp).passed
    # the null cubes are those on which the weight vanishes
    part = cert.partition
    blocks = sp.weight.values[part.inside_slices()].reshape(
        (part.cubes_per_axis, part.cells_per_cube_axis) * dim
    )
    null = np.flatnonzero(np.max(blocks, axis=(1, 3)[:dim]).ravel() == 0.0)
    assert cert.null_cubes == (tuple(null.tolist()) if variant == "vanishing" else ())
    budget = cert.plan.budget
    assert max(budget.tail, budget.projection, budget.quantization) < epsilon / 3.0
    _assert_rebuilds_byte_for_byte(lambda: build_certificate(fam, sp, epsilon, variant=variant))


@settings(max_examples=15, deadline=None)
@given(
    **_RANDOM_PROBLEM,
    p=st.sampled_from([0.5, 0.75]),
    factor=st.floats(min_value=1.0 + 1e-9, max_value=4.0),
    variant=st.sampled_from(["banach", "vanishing"]),
)
def test_random_quasi_problem_builds_above_its_least_epsilon(
    seed, dim, p, kinds, power, support, factor, variant
):
    # below p = 1 through the power transfer: the roots' mesh is built at
    # epsilon / c_max, so the least epsilon is c_max times the roots' least,
    # up to the rounding of that quotient, which the 1e-9 margins cover
    if support is not None:
        variant = "vanishing"
    grid, fam, sp = _random_problem(seed, dim, p, kinds, power, support)
    n = math.floor(1.0 / p) + 1
    roots = Family(grid, [GridFunction(grid, f.values ** (1.0 / n)) for f in fam.members],
                   fam.labels)
    modulus = translation_modulus(roots, WeightedSpace(p * n, sp.weight), grid.cell_side, "box")
    c_max = n * bound_modulus(fam, sp) ** ((n - 1) / n)
    least = 3.0 * 2.0**dim * c_max * modulus
    assume(least > 0)
    with pytest.raises(HypothesisError, match="or above builds"):
        quasi_certificate(fam, sp, least * (1.0 - 1e-9), variant=variant)
    epsilon = least * factor
    cert = quasi_certificate(fam, sp, epsilon, variant=variant)
    assert validate_quasi_certificate(fam, cert, sp).passed
    assert max(cert.quasi.audit_distances) < epsilon
    budget = cert.plan.budget
    assert max(budget.tail, budget.projection, budget.quantization) < cert.plan.epsilon / 3.0
    _assert_rebuilds_byte_for_byte(lambda: quasi_certificate(fam, sp, epsilon, variant=variant))
