import math

import numpy as np
import pytest

from lpcompact import Bump, Constant, Gaussian, Grid, Indicator, ModelError, PowerLaw, Table, sample
from lpcompact.profiles import _sample_all


def test_constant(grid1d):
    f = sample(Constant(2.5), grid1d)
    np.testing.assert_array_equal(f.values, 2.5)


def test_gaussian_values(grid1d):
    f = sample(Gaussian(center=0.125, sigma=0.5), grid1d)
    # peak cell center coincides with the profile center
    assert f.values[4] == 1.0
    # one cell over: exp(-0.25^2 / (2 * 0.25))
    assert f.values[5] == pytest.approx(math.exp(-0.125), rel=1e-15)
    assert sample(Gaussian(center=0.125, sigma=0.5, amplitude=3.0), grid1d).values[4] == 3.0


def test_gaussian_rejects_bad_sigma():
    with pytest.raises(ModelError):
        Gaussian(center=0.0, sigma=0.0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Gaussian(center=0.0, sigma=math.nan), "gaussian sigma must be positive"),
        (lambda: Bump(center=0.0, radius=math.nan), "bump radius must be positive"),
        (lambda: Indicator(center=0.0, radius=math.nan), "indicator radius must be positive"),
        (
            lambda: sample(PowerLaw(1.0, support=math.nan), Grid(1, 0, -2)),
            "power-law support must be positive",
        ),
    ],
)
def test_profiles_reject_a_nan_size(make, message):
    # a NaN fails no `x <= 0` test; it would sample an all-zero member
    with pytest.raises(ModelError, match=message):
        make()


def test_bump_support(grid1d):
    f = sample(Bump(center=0.125, radius=0.5), grid1d)
    # open ball support: centers at distance exactly 0.5 stay outside
    assert np.all(f.values[3:6] > 0)
    assert np.all(f.values[:3] == 0) and np.all(f.values[6:] == 0)
    assert f.values[4] == 1.0  # normalized peak at the center


def test_indicator(grid1d):
    f = sample(Indicator(center=0.0, radius=0.5), grid1d)
    np.testing.assert_array_equal(f.values, [0, 0, 1, 1, 1, 1, 0, 0])


def test_power_law(grid1d):
    f = sample(PowerLaw(2.0), grid1d)
    assert f.values[4] == pytest.approx(0.125**2, rel=1e-15)
    assert f.values[0] == pytest.approx(0.875**2, rel=1e-15)
    # symmetric on mirrored centers
    np.testing.assert_allclose(f.values, f.values[::-1], rtol=1e-15)
    clipped = sample(PowerLaw(2.0, support=0.5), grid1d)
    np.testing.assert_array_equal(clipped.values[:2], 0.0)
    np.testing.assert_array_equal(clipped.values[2:6], f.values[2:6])


def test_table(grid1d):
    f = sample(Table(values=tuple(float(i) for i in range(8))), grid1d)
    np.testing.assert_array_equal(f.values, np.arange(8.0))
    with pytest.raises(ModelError):
        sample(Table(values=(1.0, 2.0)), grid1d)


def test_sample_2d_gaussian(grid2d):
    f = sample(Gaussian(center=(0.125, -0.125), sigma=1.0), grid2d)
    assert f.values.shape == (8, 8)
    assert f.values[4, 3] == 1.0
    assert np.all(f.values > 0)


def test_sample_rejects_nonfinite(grid1d):
    with pytest.raises(ModelError):
        sample(Table(values=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, float("inf"))), grid1d)


def test_gaussian_divisor_is_the_pow_square(grid1d):
    # at this sigma libm's pow(sigma, 2) and sigma * sigma differ by one ulp;
    # certificates were pinned with the former
    sigma = 0.503299
    assert sigma ** 2 != sigma * sigma
    x = grid1d.center_mesh()[0]
    expected = np.exp(np.negative(np.square(x - 0.1)) / (2.0 * sigma ** 2))
    got = sample(Gaussian(center=0.1, sigma=sigma), grid1d).values
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sigma", [1e155, 1e308])
def test_gaussian_past_the_square_range_is_flat(grid1d, sigma):
    # sigma ** 2 leaves the float range: the divisor is infinite, as it is at
    # an infinite sigma
    flat = sample(Gaussian(center=0.0, sigma=sigma, amplitude=3.0), grid1d)
    assert flat.values.tobytes() == sample(Gaussian(0.0, math.inf, 3.0), grid1d).values.tobytes()
    np.testing.assert_array_equal(flat.values, 3.0)


@pytest.mark.parametrize(
    "profile",
    [Gaussian(center=1e200, sigma=0.5), Bump(center=0.0, radius=1e-320),
     Indicator(center=1e308, radius=1e308)],
    ids=["gaussian_far_center", "bump_tiny_radius", "indicator_huge"],
)
def test_sampling_that_overflows_warns_nothing(grid1d, profile):
    # pytest turns a RuntimeWarning into an error: these used to print
    # numpy's overflow warning, and all sample to zero
    np.testing.assert_array_equal(sample(profile, grid1d).values, 0.0)


def test_sampling_overflow_to_inf_is_the_non_finite_error(grid1d):
    with pytest.raises(ModelError, match="produced non-finite samples"):
        sample(PowerLaw(-1e308), grid1d)


def test_powerlaw_negative_exponent_finite(grid1d):
    # centers never hit zero, so negative exponents stay finite
    f = sample(PowerLaw(-0.5), grid1d)
    assert np.all(np.isfinite(f.values))
    assert f.values[4] == pytest.approx(0.125**-0.5, rel=1e-15)


@pytest.mark.parametrize(
    "grid", [Grid(dim=1, box_level=0, cell_exp=-3), Grid(dim=1, box_level=2, cell_exp=-13),
             Grid(dim=2, box_level=1, cell_exp=-3)]
)
def test_gaussian_and_constant_match_closed_forms(grid):
    # the in-place evaluation keeps the bits of the closed-form expressions
    mesh = np.meshgrid(*[grid.axis_centers()] * grid.dim, indexing="ij")
    rng = np.random.default_rng(grid.n_cells)
    for _ in range(20):
        centre = rng.normal(0.0, 2.0, grid.dim)
        sigma, amplitude = float(rng.uniform(1e-3, 3.0)), float(rng.normal(0.0, 10.0))
        profile = Gaussian(center=tuple(centre), sigma=sigma, amplitude=amplitude)
        r2 = sum((x - x0) ** 2 for x, x0 in zip(mesh, centre))
        expected = amplitude * np.exp(-r2 / (2.0 * sigma ** 2))
        assert sample(profile, grid).values.tobytes() == expected.tobytes()
        value = float(rng.normal())
        assert sample(Constant(value), grid).values.tobytes() == np.full(grid.shape, value).tobytes()
    # a scalar centre on a 2-D grid, an integer width and the default amplitude
    r2 = sum((x - 0.3) ** 2 for x in mesh)
    expected = 1.0 * np.exp(-r2 / (2.0 * 2 ** 2))
    assert sample(Gaussian(center=0.3, sigma=2), grid).values.tobytes() == expected.tobytes()


def _dense_reference(profile, grid):
    """The profile's closed form on the full (dense) center mesh, operation
    for operation as every profile evaluated before the mesh broadcast."""
    n = grid.cells_per_axis
    axis = (np.arange(n) - n // 2 + 0.5) * grid.cell_side
    mesh = np.meshgrid(*[axis] * grid.dim, indexing="ij")

    def centre():
        c = np.atleast_1d(np.asarray(profile.center, dtype=np.float64))
        return np.repeat(c, grid.dim) if c.shape == (1,) else c

    def distance():
        return np.sqrt(sum((x - x0) ** 2 for x, x0 in zip(mesh, centre())))

    with np.errstate(over="ignore"):
        if isinstance(profile, Constant):
            return np.full_like(mesh[0], float(profile.value))
        if isinstance(profile, Gaussian):
            r2 = sum((x - x0) ** 2 for x, x0 in zip(mesh, centre()))
            return profile.amplitude * np.exp(-r2 / (2.0 * np.float64(profile.sigma) ** 2))
        if isinstance(profile, Bump):
            t2 = (distance() / profile.radius) ** 2
            out = np.zeros_like(mesh[0])
            inside = t2 < 1.0
            out[inside] = profile.amplitude * np.exp(1.0 - 1.0 / (1.0 - t2[inside]))
            return out
        if isinstance(profile, Indicator):
            return np.where(distance() < profile.radius, 1.0, 0.0)
        if isinstance(profile, PowerLaw):
            out = np.sqrt(sum(c * c for c in mesh)) ** profile.exponent
            if profile.support is not None:
                maxnorm = np.maximum.reduce([np.abs(c) for c in mesh])
                out = np.where(maxnorm < profile.support, out, 0.0)
            return out
    return np.array(profile.values, dtype=np.float64)


def _profiles_of_every_kind(grid, rng):
    def centre():
        c = rng.uniform(-1.0, 1.0, grid.dim)
        return float(c[0]) if grid.dim == 1 else tuple(float(x) for x in c)

    amplitude = float(rng.normal(0.0, 10.0))
    return [
        Constant(float(rng.normal())),
        Gaussian(center=centre(), sigma=float(rng.uniform(0.05, 2.0))),
        Gaussian(center=centre(), sigma=float(rng.uniform(0.05, 2.0)), amplitude=amplitude),
        Gaussian(center=0.25, sigma=float(rng.uniform(0.05, 2.0)), amplitude=1.0),
        # 2 sigma**2 overflows: the flat profile, at amplitude 1 and not
        Gaussian(center=centre(), sigma=1e200),
        Gaussian(center=centre(), sigma=1e200, amplitude=amplitude),
        Bump(center=centre(), radius=float(rng.uniform(0.2, 2.0))),
        Bump(center=centre(), radius=float(rng.uniform(0.2, 2.0)), amplitude=amplitude),
        Indicator(center=centre(), radius=float(rng.uniform(0.2, 2.0))),
        PowerLaw(float(rng.uniform(-1.5, 2.5))),
        PowerLaw(float(rng.uniform(-1.5, 2.5)), support=float(rng.uniform(0.1, 1.5))),
        Table(values=tuple(np.round(rng.normal(size=grid.shape), 3).tolist())),
    ]


@pytest.mark.parametrize(
    "grid", [Grid(dim=1, box_level=1, cell_exp=-5), Grid(dim=2, box_level=1, cell_exp=-3)],
    ids=["1d", "2d"],
)
def test_every_profile_samples_as_its_dense_closed_form(grid):
    # the broadcast mesh, the sign folded into the Gaussian's divisor and the
    # product by an amplitude of 1 skipped leave every bit as it was
    rng = np.random.default_rng(grid.dim)
    for _ in range(5):
        for profile in _profiles_of_every_kind(grid, rng):
            expected = _dense_reference(profile, grid)
            got = sample(profile, grid).values
            assert got.shape == grid.shape
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def test_a_sample_is_kept_and_checked_for_finiteness_once(monkeypatch):
    # a spec's weight and members are evaluated into fresh arrays, which their
    # GridFunctions keep read-only, with one finiteness pass over each
    grid = Grid(dim=2, box_level=1, cell_exp=-3)
    profiles = _profiles_of_every_kind(grid, np.random.default_rng(5))
    passes = []
    isfinite = np.isfinite

    def counted(x, *args, **kwargs):
        if np.size(x) == grid.n_cells:
            passes.append(1)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    sampled = _sample_all(profiles, grid)
    assert len(passes) == len(profiles)
    for f in sampled:
        assert f.values.flags.owndata and not f.values.flags.writeable
