"""Compactness moduli of finite function families.

Three quantities control total boundedness of a family: a uniform norm bound,
a tail modulus measuring mass escaping every bounded region, and a translation
modulus measuring equicontinuity in the norm.  The averaged modulus compares
the running ball-average against the translations; for exponents >= 1 the
average can never exceed the worst translation, and ``verify_averaging_bound``
checks that domination on matched shift stencils.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .grid import (
    Grid,
    GridFunction,
    _shift_slices,
    ball_average_field,
    outside_mask,
    shift_stencil,
)
from .profiles import _sample_all
from .spaces import (
    WeightedSpace,
    _array_norm,
    _sum_root,
    _weighted_power_sum,
    weighted_norm,
)

__all__ = [
    "Family",
    "ModuliReport",
    "AveragingComparison",
    "bound_modulus",
    "tail_modulus",
    "translation_modulus",
    "averaged_modulus",
    "verify_averaging_bound",
    "measure_moduli",
]


@dataclass(frozen=True)
class Family:
    """A finite labelled family of functions on a shared grid."""

    grid: Grid
    members: tuple[GridFunction, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.members:
            raise ModelError("a family needs at least one member")
        for f in self.members:
            if f.grid != self.grid:
                raise ModelError("family members live on different grids")
        if len(self.labels) != len(self.members):
            raise ModelError("one label per member is required")
        if len(set(self.labels)) != len(self.labels):
            raise ModelError("labels must be unique")

    def __len__(self) -> int:
        return len(self.members)

    @classmethod
    def from_profiles(cls, grid: Grid, profiles, labels=None) -> "Family":
        members = _sample_all(profiles, grid)
        if labels is None:
            labels = tuple(f"m{i:02d}" for i in range(len(members)))
        return cls(grid=grid, members=members, labels=tuple(labels))


def _check_space(family: Family, space: WeightedSpace) -> None:
    if family.grid != space.grid:
        raise ModelError("family and space live on different grids")


def bound_modulus(family: Family, space: WeightedSpace) -> float:
    """Largest member norm; permutation invariant by construction."""
    _check_space(family, space)
    return max(weighted_norm(f, space) for f in family.members)


def tail_modulus(family: Family, space: WeightedSpace, radius: float, region: str = "ball") -> float:
    """Largest member norm outside the region of the given radius."""
    _check_space(family, space)
    outside = outside_mask(family.grid, radius, region)
    kept = np.empty(family.grid.shape)
    scratch = np.empty(family.grid.shape)
    # multiplying by the mask zeroes the region: members are finite, and the
    # sign a zero picks up is lost to the absolute value
    return max(
        _array_norm(np.multiply(f.values, outside, out=kept), space, scratch)
        for f in family.members
    )


def _shifted_difference(values: np.ndarray, offsets: tuple[int, ...], out: np.ndarray) -> None:
    """Write the zero-fill shift of ``values`` by ``offsets``, minus ``values``,
    into ``out`` without allocating; the strips take ``0.0 - values``.  A
    difference beyond float range comes out inf, for the norm to reject; the
    scan calls this under ``np.errstate(over="ignore")``."""
    dst, src, strips = _shift_slices(values.shape, offsets)
    np.subtract(values[src], values[dst], out=out[dst])
    for strip in strips:
        np.subtract(0.0, values[strip], out=out[strip])


def translation_modulus(
    family: Family, space: WeightedSpace, radius: float, stencil: str = "ball"
) -> float:
    """Worst norm distance to a grid-aligned translate within the radius.

    Shifts run over the closed stencil |y| <= radius excluding zero, in the
    Euclidean norm for ``stencil="ball"`` and the sup norm for ``"box"``; the
    box stencil at radius 2**i realises the whole dyadic shift box of level i.
    Radii below one cell admit no shift at all and are rejected.
    """
    return max(next(_translation_levels(family, space, [radius], stencil)))


def _translation_levels(
    family: Family, space: WeightedSpace, radii, stencil: str, stop: float = math.inf
):
    """Yield, for each of the nondecreasing ``radii``, every member's
    translation modulus at that radius.

    Closed stencils nest, so a radius only measures the shifts the smaller
    radii lacked, and a running maximum per member carries the rest.  Each
    shifted difference is written into one buffer reused for the whole scan,
    and its terms |d|^p * weight are formed over it in place; only a power
    sum outside [``space._sum_floor``, inf) writes the difference again and
    hands it to ``_array_norm``, which rescales it or raises, under the caller's own
    floating-point error settings.  Every value equals ``_array_norm`` of
    the shifted difference bit for bit.  A consumer that stops iterating
    stops the scan after the last radius it received.

    The scan also ends after the first radius whose largest modulus reaches
    ``stop``.  Past the first radius it leaves the ring as soon as one
    member's modulus reaches ``stop``, so the moduli of that last yield may
    fall short of the full ones; a threshold search only needs to see that one
    of them reached it.
    """
    _check_space(family, space)
    grid = family.grid
    diff = np.empty(grid.shape)
    moduli = [0.0] * len(family)
    seen = set()
    errors = np.geterr()
    floor = space._sum_floor
    for n, radius in enumerate(radii):
        offsets = shift_stencil(grid, radius, kind=stencil)
        if not offsets:
            raise ModelError(
                f"translation radius {radius} admits no nonzero grid shift "
                f"(cell side {grid.cell_side})"
            )
        ring = [k for k in offsets if k not in seen]
        seen.update(ring)
        # the difference and its power sum may overflow, or meet inf * 0
        with np.errstate(over="ignore", invalid="ignore"):
            for j, k in itertools.product(range(len(family)), ring):
                values = family.members[j].values
                _shifted_difference(values, k, diff)
                total = _weighted_power_sum(diff, space, diff)
                if floor <= total < math.inf:
                    norm = _sum_root(total, space)
                else:
                    _shifted_difference(values, k, diff)
                    with np.errstate(**errors):
                        norm = _array_norm(diff, space)
                moduli[j] = max(moduli[j], norm)
                if n and moduli[j] >= stop:
                    break
        yield tuple(moduli)
        if max(moduli) >= stop:
            return


def averaged_modulus(family: Family, space: WeightedSpace, radius: float) -> float:
    """Worst norm distance to the running ball average at the given radius."""
    _check_space(family, space)
    return max(
        weighted_norm(ball_average_field(f, radius) - f, space) for f in family.members
    )


@dataclass(frozen=True)
class AveragingComparison:
    radius: float
    averaged: float
    translation: float
    tolerance: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.translation + self.tolerance - self.averaged


def verify_averaging_bound(
    family: Family, space: WeightedSpace, radius: float, rel_tol: float = 1e-10
) -> AveragingComparison:
    """Check that the averaged modulus is dominated by the translation modulus.

    The ball average is a convex combination of translates over the very same
    closed stencil the translation modulus scans, so for p >= 1 the triangle
    inequality forces domination; for p < 1 convexity of the quasi-norm fails
    and the comparison refuses to certify anything.
    """
    if space.p < 1:
        raise ModelError("the averaging bound is only asserted for p >= 1")
    avg = averaged_modulus(family, space, radius)
    trans = translation_modulus(family, space, radius, stencil="ball")
    tol = rel_tol * bound_modulus(family, space)
    return AveragingComparison(
        radius=radius,
        averaged=avg,
        translation=trans,
        tolerance=tol,
        passed=avg <= trans + tol,
    )


@dataclass(frozen=True)
class ModuliReport:
    """Moduli curves of one family: tail per region size, shift and averaged
    moduli per radius, plus the uniform bound."""

    bound: float
    tail: tuple[tuple[float, float], ...]
    translation: tuple[tuple[float, float], ...]
    averaged: tuple[tuple[float, float], ...]

    def as_dict(self) -> dict:
        return {
            "bound": self.bound,
            "tail": [list(row) for row in self.tail],
            "translation": [list(row) for row in self.translation],
            "averaged": [list(row) for row in self.averaged],
        }


def measure_moduli(
    family: Family,
    space: WeightedSpace,
    shift_radii,
    tail_radii,
    region: str = "ball",
    stencil: str = "ball",
    with_averaged: bool = True,
) -> ModuliReport:
    """Evaluate all moduli curves; radii are reported in the given order, and
    one scan over the distinct shift radii measures each shift once."""
    tail = tuple((float(r), tail_modulus(family, space, r, region)) for r in tail_radii)
    radii = [float(r) for r in shift_radii]
    distinct = sorted(set(radii))
    scan = dict(zip(distinct, map(max, _translation_levels(family, space, distinct, stencil))))
    trans = tuple((r, scan[r]) for r in radii)
    averaged = {r: averaged_modulus(family, space, r) for r in distinct if with_averaged}
    avg = tuple((r, averaged[r]) for r in radii) if with_averaged else ()
    return ModuliReport(
        bound=bound_modulus(family, space), tail=tail, translation=trans, averaged=avg
    )
