import numpy as np
import pytest

from lpcompact import Constant, Family, Grid, GridFunction, WeightedSpace, sample
from lpcompact import moduli
from lpcompact.grid import shift_stencil
from lpcompact.spaces import _array_norm


@pytest.fixture
def grid1d():
    # 8 cells on [-1, 1), h = 1/4
    return Grid(dim=1, box_level=0, cell_exp=-2)


@pytest.fixture
def grid2d():
    return Grid(dim=2, box_level=0, cell_exp=-2)


@pytest.fixture
def flat_space(grid1d):
    return WeightedSpace(2.0, sample(Constant(1.0), grid1d))


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def random_family(grid, rng, n=3):
    members = tuple(GridFunction(grid, rng.standard_normal(grid.shape)) for _ in range(n))
    return Family(grid, members, tuple(f"r{i}" for i in range(n)))


def shift_norm(values, offsets, space):
    """The norm of one shifted difference, as the translation scan measures
    it: written by ``moduli._shifted_difference``, looked up on the module so
    that a patch of it sees this reference too, and measured by
    ``_array_norm``, whose plain and exponent passes give the same bits with
    ``write`` or without."""
    diff = np.empty(values.shape)
    moduli._shifted_difference(values, offsets, diff)
    return _array_norm(diff, space)


def translation_reference(family, space, radii, stencil="box"):
    """The exact translation scan: for each of the nondecreasing ``radii``,
    every member's translation modulus.  It walks ``shift_stencil`` with a
    seen set and measures each new shift once, through ``shift_norm``."""
    found, seen, levels = [0.0] * len(family), set(), []
    for radius in radii:
        ring = [k for k in shift_stencil(family.grid, radius, stencil) if k not in seen]
        seen.update(ring)
        for j, f in enumerate(family.members):
            for k in ring:
                found[j] = max(found[j], shift_norm(f.values, k, space))
        levels.append(tuple(found))
    return levels
