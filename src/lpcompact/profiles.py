"""Analytic primitives sampled onto grids at cell centers.

A profile evaluates pointwise on the grid's center mesh, one coordinate
array per axis that broadcasts to the cell shape, and returns a fresh array
of that shape; ``sample`` turns it into a GridFunction by evaluating at every
cell center.  The table profile bypasses evaluation and supplies raw
per-cell values directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError
from .grid import Grid, GridFunction, _frozen

__all__ = [
    "Constant",
    "Gaussian",
    "Bump",
    "Indicator",
    "PowerLaw",
    "Table",
    "sample",
]


def _center_vector(value, dim: int) -> np.ndarray:
    vec = np.atleast_1d(np.asarray(value, dtype=np.float64))
    if vec.shape == (1,) and dim == 2:
        vec = np.repeat(vec, 2)
    if vec.shape != (dim,):
        raise ModelError(f"center must have {dim} coordinates")
    return vec


def _shape(mesh: tuple[np.ndarray, ...]) -> tuple[int, ...]:
    """The cell shape a broadcast center mesh spans."""
    return np.broadcast_shapes(*(c.shape for c in mesh))


def _squared_distance(mesh: tuple[np.ndarray, ...], center: np.ndarray) -> np.ndarray:
    """sum over the axes of (x - x0)**2, in a fresh array of the cell shape:
    each axis's terms are formed in place on that axis's values alone, and
    the sum broadcasts them over the cells."""
    terms = [np.subtract(x, x0) for x, x0 in zip(mesh, center)]
    return functools.reduce(np.add, [np.square(t, out=t) for t in terms])


def _radial_distance(mesh: tuple[np.ndarray, ...], center: np.ndarray) -> np.ndarray:
    return np.sqrt(_squared_distance(mesh, center))


@dataclass(frozen=True)
class Constant:
    value: float

    def evaluate(self, mesh: tuple[np.ndarray, ...]) -> np.ndarray:
        return np.full(_shape(mesh), float(self.value))


@dataclass(frozen=True)
class Gaussian:
    """amplitude * exp(-|x - center|^2 / (2 sigma^2))."""

    center: float | tuple = 0.0
    sigma: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ModelError("gaussian sigma must be positive")

    def evaluate(self, mesh: tuple[np.ndarray, ...]) -> np.ndarray:
        # the bits of amplitude * exp(-sum((x - x0) ** 2) / (2 sigma^2)) in
        # one output array: x / -d rounds as -x / d does, zeros and infinities
        # included, and a product by 1.0 changes no float
        out = _squared_distance(mesh, _center_vector(self.center, len(mesh)))
        # numpy's power is libm's pow, as Python's is, so every finite 2 sigma^2
        # keeps its bits, while one past the float range is inf: a flat profile
        np.divide(out, -(2.0 * np.float64(self.sigma) ** 2), out=out)
        np.exp(out, out=out)
        if self.amplitude != 1.0:
            np.multiply(out, self.amplitude, out=out)
        return out


@dataclass(frozen=True)
class Bump:
    """Smooth bump supported on the open ball of the given radius, peak = amplitude."""

    center: float | tuple = 0.0
    radius: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ModelError("bump radius must be positive")

    def evaluate(self, mesh: tuple[np.ndarray, ...]) -> np.ndarray:
        c = _center_vector(self.center, len(mesh))
        t2 = (_radial_distance(mesh, c) / self.radius) ** 2
        out = np.zeros(t2.shape)
        inside = t2 < 1.0
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - t2[inside]))
        return out


@dataclass(frozen=True)
class Indicator:
    """Indicator of the open ball of the given radius."""

    center: float | tuple = 0.0
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ModelError("indicator radius must be positive")

    def evaluate(self, mesh: tuple[np.ndarray, ...]) -> np.ndarray:
        c = _center_vector(self.center, len(mesh))
        return np.where(_radial_distance(mesh, c) < self.radius, 1.0, 0.0)


@dataclass(frozen=True)
class PowerLaw:
    """|x|**exponent, optionally cut to the box of half-width ``support``.

    Cell centers never sit at the origin, so negative exponents stay finite.
    """

    exponent: float
    support: float | None = None

    def evaluate(self, mesh: tuple[np.ndarray, ...]) -> np.ndarray:
        out = _radial_distance(mesh, np.zeros(len(mesh))) ** self.exponent
        if self.support is not None:
            if not self.support > 0:
                raise ModelError("power-law support must be positive")
            maxnorm = functools.reduce(np.maximum, [np.abs(c) for c in mesh])
            out = np.where(maxnorm < self.support, out, 0.0)
        return out


@dataclass(frozen=True)
class Table:
    """Raw per-cell values; the shape must match the target grid exactly."""

    values: tuple = field(default=())

    def evaluate(self, mesh: tuple[np.ndarray, ...]) -> np.ndarray:
        arr = np.array(self.values, dtype=np.float64)
        if arr.shape != _shape(mesh):
            raise ModelError(
                f"table shape {arr.shape} does not match grid shape {_shape(mesh)}"
            )
        return arr


def sample(profile, grid: Grid) -> GridFunction:
    """Evaluate a profile at every cell center of the grid."""
    return _sample_all((profile,), grid)[0]


def _sample_all(profiles, grid: Grid) -> tuple[GridFunction, ...]:
    """Evaluate each profile at every cell center of the grid, all on one
    read-only center mesh, freed when the last profile is sampled.  An
    ``evaluate`` returns a fresh array, which its GridFunction keeps,
    read-only, without a copy; its one finiteness check is the
    GridFunction's."""
    mesh = grid.center_mesh()
    out = []
    for profile in profiles:
        # an overflow, a division by zero or an invalid operation shows as
        # an inf or NaN sample, which the GridFunction rejects
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            values = _frozen(np.asarray(profile.evaluate(mesh)))
        try:
            out.append(GridFunction(grid, values))
        except ModelError:
            if np.all(np.isfinite(values)):
                raise
            # a table's repr holds every entry: past a line's length, the
            # message names the kind and the first non-finite cell instead
            name = repr(profile)
            if len(name) > 200:
                cell = tuple(np.argwhere(~np.isfinite(values))[0].tolist())
                name = f"{type(profile).__name__} (first non-finite at cell {cell})"
            raise ModelError(f"profile {name} produced non-finite samples") from None
    return tuple(out)
