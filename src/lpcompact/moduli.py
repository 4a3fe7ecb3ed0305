"""Compactness moduli of finite function families.

Three quantities control total boundedness of a family: a uniform norm bound,
a tail modulus measuring mass escaping every bounded region, and a translation
modulus measuring equicontinuity in the norm.  The averaged modulus compares
the running ball-average against the translations; for exponents >= 1 the
average can never exceed the worst translation, and ``verify_averaging_bound``
checks that domination on matched shift stencils.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .grid import (
    Grid,
    GridFunction,
    ball_average_field,
    outside_mask,
    shift_stencil,
)
from .profiles import sample
from .spaces import WeightedSpace, _array_norm, weighted_norm

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
        members = tuple(sample(p, grid) for p in profiles)
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
    """Write ``_shift_cells(values, offsets) - values`` into ``out``, allocating
    nothing: one subtraction where the source cell lies in the box, and
    ``0.0 - values`` on the strips where the ambient zero is shifted in."""
    shape = values.shape
    ks = [max(-n, min(n, k)) for k, n in zip(offsets, shape)]
    dst = tuple(slice(k, None) if k >= 0 else slice(None, n + k) for k, n in zip(ks, shape))
    src = tuple(slice(None, n - k) if k >= 0 else slice(-k, None) for k, n in zip(ks, shape))
    np.subtract(values[src], values[dst], out=out[dst])
    for axis, (k, n) in enumerate(zip(ks, shape)):
        if k:
            edge = slice(None, k) if k > 0 else slice(n + k, None)
            strip = (*dst[:axis], edge) + (slice(None),) * (len(shape) - axis - 1)
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
    _check_space(family, space)
    offsets = shift_stencil(family.grid, radius, kind=stencil, include_zero=False)
    if not offsets:
        raise ModelError(
            f"translation radius {radius} admits no nonzero grid shift "
            f"(cell side {family.grid.cell_side})"
        )
    diff = np.empty(family.grid.shape)
    scratch = np.empty(family.grid.shape)
    worst = 0.0
    for f in family.members:
        for k in offsets:
            _shifted_difference(f.values, k, diff)
            worst = max(worst, _array_norm(diff, space, scratch))
    return worst


def _box_translation_levels(family: Family, space: WeightedSpace, hi_exp: int):
    """Yield ``(i, moduli)`` for i = cell_exp, ..., hi_exp, where ``moduli[j]``
    is member j's box translation modulus at radius 2**i.

    Box stencils nest, so level i only adds the ring K_{i-1} < |k|_inf <= K_i
    (K_i = 2**(i - cell_exp) cells) to the shifts already measured; a running
    maximum per member carries the smaller levels.  Every shift is measured
    once, on two buffers reused for the whole scan, and each value equals
    the one ``translation_modulus`` gives a one-member family.  A consumer
    that stops iterating stops the scan after the last level it received.
    """
    _check_space(family, space)
    grid = family.grid
    diff = np.empty(grid.shape)
    scratch = np.empty(grid.shape)
    moduli = [0.0] * len(family)
    inner = 0
    for i in range(grid.cell_exp, hi_exp + 1):
        ring = [
            k for k in shift_stencil(grid, 2.0 ** i, kind="box") if max(map(abs, k)) > inner
        ]
        for j, f in enumerate(family.members):
            for k in ring:
                _shifted_difference(f.values, k, diff)
                moduli[j] = max(moduli[j], _array_norm(diff, space, scratch))
        inner = 2 ** (i - grid.cell_exp)
        yield i, tuple(moduli)


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
    """Evaluate all moduli curves; radii are reported in the given order."""
    _check_space(family, space)
    tail = tuple((float(r), tail_modulus(family, space, r, region)) for r in tail_radii)
    trans = tuple(
        (float(r), translation_modulus(family, space, r, stencil)) for r in shift_radii
    )
    if with_averaged:
        avg = tuple((float(r), averaged_modulus(family, space, r)) for r in shift_radii)
    else:
        avg = ()
    return ModuliReport(
        bound=bound_modulus(family, space), tail=tail, translation=trans, averaged=avg
    )
