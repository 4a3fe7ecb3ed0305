import importlib
import math
import pkgutil
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lpcompact
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
    finiteness_witness,
    indicator_norm,
    inside_mask,
    l1_embedding_constant,
    l1_embedding_sweep,
    sample,
    weighted_norm,
)

from conftest import random_family
from lpcompact.spaces import _array_norm


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
    # top exponent that the visible cells are measured against
    g = Grid(dim=1, box_level=0, cell_exp=-6)
    w = np.ones(g.shape)
    w[0] = 0.0
    values = np.full(g.shape, 0.5)
    values[0] = 1e300
    sp = WeightedSpace(400.0, GridFunction(g, w))
    # the plain pass overflows, and meets inf * 0 at the zero-weight cell:
    # the exponent pass handles both, so neither may warn
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


@pytest.mark.parametrize(
    "scale, writes", [(1.0, 1), (1e-200, 2), (0.0, 2), (1e200, 2)],
    ids=["in-range", "below-floor", "zeros", "overflow"],
)
def test_array_norm_measures_in_the_buffer_write_fills(scale, writes):
    # with ``write``, _array_norm fills the caller's buffer and forms the
    # terms there, and fills it again only for the exponent pass: a power
    # sum in range takes one write, and one below the floor (1e-200 at p =
    # 2), zero or one that overflows (1e200) takes two.  The norm has the
    # bits of the one without ``write``, which leaves its values untouched,
    # and a non-finite entry raises on both paths
    g = Grid(dim=1, box_level=0, cell_exp=-3)
    rng = np.random.default_rng(7)
    sp = WeightedSpace(2.0, GridFunction(g, rng.uniform(0.5, 2.0, g.shape)))
    source = scale * rng.standard_normal(g.shape)
    untouched = source.copy()
    buf, writes_seen = np.empty(g.shape), []

    def write():
        writes_seen.append(1)
        np.copyto(buf, source)

    expected = _array_norm(source, sp)
    assert source.tobytes() == untouched.tobytes()
    assert _array_norm(buf, sp, write).hex() == expected.hex()
    assert len(writes_seen) == writes
    source[5] = math.inf
    with pytest.raises(ModelError, match="grid function values must be finite"):
        _array_norm(source, sp)
    with pytest.raises(ModelError, match="grid function values must be finite"):
        _array_norm(buf, sp, write)


def test_only_spaces_binds_the_norm_passes():
    # one norm kernel: every other module measures through _array_norm, so
    # an outward bound on the norm, or a count of norms, acts in one place
    passes = {"_exponent_norm", "_sum_root", "_weighted_power_sum"}
    for info in pkgutil.iter_modules(lpcompact.__path__):
        module = importlib.import_module(f"lpcompact.{info.name}")
        if info.name != "spaces":
            assert not passes & set(vars(module)), info.name


@pytest.mark.parametrize("p", [0.6, 2.0])
def test_norm_beyond_float_range_is_model_error(p):
    # 1.7e308 on [-1, 1): at p = 0.6 the power sum is finite and its root is
    # not; at p = 2 the sum overflows, and so does the exponent pass's norm
    # 1.7e308 * 2**(1/2).  At 1e308 its norm 1.41e308 still fits.
    g = Grid(dim=1, box_level=0, cell_exp=-4)
    sp = WeightedSpace(p, sample(Constant(1.0), g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match=f"a norm at p = {p} exceeds the float range"):
            weighted_norm(GridFunction(g, np.full(g.shape, 1.7e308)), sp)
        if p == 2.0:
            fits = weighted_norm(GridFunction(g, np.full(g.shape, 1e308)), sp)
            assert fits == pytest.approx(1e308 * math.sqrt(2.0), rel=1e-12)


def test_indicator_norm_past_the_float_range_of_its_weight_sum():
    # 256 cells of weight 1e307 sum past float range before the cell volume
    # 1/64 brings the total back to 4e307; the norm is its square root
    g = Grid(dim=1, box_level=1, cell_exp=-6)
    sp = WeightedSpace(2.0, sample(Constant(1e307), g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = indicator_norm(sp, np.ones(g.shape, dtype=bool))
    assert norm == pytest.approx(math.sqrt(4e307), rel=1e-15)


_GRIDS = (Grid(dim=1, box_level=0, cell_exp=-2), Grid(dim=2, box_level=0, cell_exp=-1))
_ULP = 2.0**-52


def _reference_log_sum(values, weight, p, cell_volume) -> Decimal | None:
    """ln(sum |v|^p * w * cell_volume) to 60 digits, None for a zero sum.
    For integer p the sum is an exact binary integer cut to its top 256 bits;
    otherwise each term is a 60-digit decimal power."""
    with localcontext() as ctx:
        ctx.prec = 60
        if p == int(p):
            terms = []
            for v, w in zip(values, weight):
                if v != 0 and w != 0:
                    # floats are n / 2**k: exact integers and binary exponents
                    vn, vd = abs(v).as_integer_ratio()
                    wn, wd = w.as_integer_ratio()
                    shift = (vd.bit_length() - 1) * int(p) + wd.bit_length() - 1
                    terms.append((vn ** int(p) * wn, -shift))
            if not terms:
                return None
            low = min(e for _, e in terms)
            total = sum(n << (e - low) for n, e in terms)
            cut = max(total.bit_length() - 256, 0)
            ln2 = Decimal(2).ln()
            return Decimal(total >> cut).ln() + (low + cut) * ln2 + Decimal(cell_volume).ln()
        total = Decimal(cell_volume) * sum(
            Decimal(abs(v)) ** Decimal(p) * Decimal(w) for v, w in zip(values, weight)
        )
        return total.ln() if total else None


def _rooted_log_bound(log_sum, log_peak, space) -> Decimal:
    """A bound on |ln T| for the sum T that ``_array_norm`` raises to 1 / p.

    Models its two passes: the plain sum, which any |v|^p past float range
    spoils (``log_peak`` is ln max |v| over all cells, zero weights too), is
    taken when it is at least the floor and its sum before the cell volume
    is finite.  Within a factor of two of that test either pass may be
    taken, so both count; with room past it, ``_exponent_norm`` roots a sum
    of at least 2**-(min(p, 256) + 1) and at most twice the cell count."""
    p = Decimal(space.p)
    with localcontext() as ctx:
        ctx.prec = 60
        slack = Decimal(2).ln()
        low = Decimal(space._sum_floor).ln()
        high = Decimal(sys.float_info.max).ln()
        log_top = max(p * log_peak, log_sum - Decimal(space.grid.cell_volume).ln())
        plain = abs(log_sum)
        if log_sum >= low + slack and log_top <= high - slack:
            return plain
        split = max((min(p, Decimal(256)) + 1) * slack, Decimal(2 * space.grid.n_cells).ln())
        if log_sum >= low - slack and log_top <= high + slack:
            return max(plain, split)
        return split


def _binary(min_exp, max_exp):
    """Positive floats m * 2**e, m in [1/2, 1), spread evenly over e."""
    return st.builds(
        math.ldexp,
        st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
        st.integers(min_value=min_exp, max_value=max_exp),
    )


@st.composite
def _extreme_norms(draw):
    """A small grid, p (1.3 has too many bits for p * exponent to be exact
    in one product; past 256 the power is split into chunks), values over 1e-300..1e300 of either sign and weights
    over 1e-300..1.8e308, each with zeros."""
    grid = draw(st.sampled_from(_GRIDS))
    p = draw(st.sampled_from([0.5, 1.0, 1.3, 1.5, 2.0, 3.0, 40.0, 1100.5, 2000.0]))
    magnitude = st.one_of(st.just(0.0), _binary(-995, 996))
    value = st.builds(lambda m, neg: -m if neg else m, magnitude, st.booleans())
    weight = st.one_of(st.just(0.0), _binary(-995, 1024))
    n = grid.n_cells
    values = draw(st.lists(value, min_size=n, max_size=n))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    return grid, p, values, weights


@settings(max_examples=300, deadline=None)
@given(_extreme_norms())
# the constant 1e-300 under weight 1e308: the plain power sum underflows, and
# the exponent pass splits both factors; the norm is 2**(1/2) * 1e-146
@example((_GRIDS[0], 2.0, [1e-300] * 8, [1e308] * 8))
# 1e-160 squares to a subnormal that the weight 1e308 lifts back into range:
# the plain sum is in range but off in its fifth digit
@example((_GRIDS[0], 2.0, [1e-160] * 8, [1e308] * 8))
# one cell dominates through its weight, the other through its value
@example((_GRIDS[0], 2.0, [1.0, 1e-160] + [0.0] * 6, [1e-300, 1e308] + [0.0] * 6))
@example((_GRIDS[1], 40.0, [1e-300] * 16, [1e-300] * 16))
# 1/2 ** 2000 underflows, so the power goes in chunks: the plain sum
# overflows, then falls below the floor
@example((_GRIDS[0], 2000.0, [1.0] * 8, [1e308] * 8))
@example((_GRIDS[0], 2000.0, [1.0] * 8, [1e-310] * 8))
def test_norm_matches_exact_reference_at_extreme_scales(case):
    grid, p, values, weights = case
    space = WeightedSpace(p, GridFunction(grid, np.reshape(weights, grid.shape)))
    f = GridFunction(grid, np.reshape(values, grid.shape))
    log_sum = _reference_log_sum(values, weights, p, grid.cell_volume)
    if log_sum is None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert weighted_norm(f, space) == 0.0
        return
    peak = max(abs(v) for v in values)
    with localcontext() as ctx:
        ctx.prec = 60
        reference = (log_sum / Decimal(p)).exp()
        log_peak = Decimal(peak).ln()
    # a few ulps, more at p < 1 where the root raises the sum's error to 1/p.
    # The root also raises a float sum T to the rounded 1 / p, which moves
    # the norm by |ln T| times that rounding: up to 2.8e-14 at p = 1.5 for
    # sums near either end of the float range, a few ulps for sums near one
    exponent_error = abs(Fraction(1) / Fraction(p) - Fraction(1.0 / p))
    rooted = float(_rooted_log_bound(log_sum, log_peak, space))
    tol = 16 * _ULP * max(1.0, 1.0 / p) + rooted * float(exponent_error)
    largest = Decimal(sys.float_info.max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if reference > largest * Decimal(1 + tol):
            with pytest.raises(ModelError, match="exceeds the float range"):
                weighted_norm(f, space)
            return
        try:
            measured = weighted_norm(f, space)
        except ModelError:
            assert reference > largest * Decimal(1 - tol)
            return
    # below the normal range only the subnormal spacing is left
    error = abs(Decimal(measured) - reference)
    assert error <= reference * Decimal(tol) + Decimal(2.0**-1072)


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


def test_lattice_axioms_take_each_probe_norm_once(grid1d, rng, monkeypatch):
    # five nonnegative multiples of one probe: every pair is ordered one
    # way, and the monotonicity scan reuses the probes' norms
    from lpcompact import spaces

    sp = WeightedSpace(2.0, GridFunction(grid1d, rng.uniform(0.1, 2.0, grid1d.shape)))
    base = GridFunction(grid1d, np.abs(rng.standard_normal(grid1d.shape)))
    probes = [base * k for k in range(5)]
    calls = []

    def counted(f, space):
        calls.append(f)
        return weighted_norm(f, space)

    monkeypatch.setattr(spaces, "weighted_norm", counted)
    report = check_lattice_axioms(sp, probes)
    assert report.passed
    assert report["monotonicity"].detail == "10 ordered pairs checked"
    # one norm per probe, and one of its absolute value
    assert len(calls) == 2 * len(probes)


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


def test_ap_needs_p_above_one(grid1d):
    with pytest.raises(ModelError):
        ap_constant(sample(Constant(1.0), grid1d), 1.0)
