"""Analytic primitives sampled onto grids at cell centers.

A profile evaluates pointwise on arrays of coordinates; ``sample`` turns it
into a GridFunction by evaluating at every cell center.  The table profile
bypasses evaluation and supplies raw per-cell values directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError
from .grid import Grid, GridFunction

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


def _radial_distance(mesh: tuple[np.ndarray, ...], center: np.ndarray) -> np.ndarray:
    return np.sqrt(sum((c - x0) ** 2 for c, x0 in zip(mesh, center)))


@dataclass(frozen=True)
class Constant:
    value: float

    def evaluate(self, mesh: tuple[np.ndarray, ...]) -> np.ndarray:
        return np.full_like(mesh[0], float(self.value))


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
        # the operations of amplitude * exp(-sum((x - x0) ** 2) / (2 sigma^2)),
        # in its order and so with its bits, in one output array
        c = _center_vector(self.center, len(mesh))
        out = np.subtract(mesh[0], c[0])
        np.square(out, out=out)
        for x, x0 in zip(mesh[1:], c[1:]):
            term = np.subtract(x, x0)
            np.add(out, np.square(term, out=term), out=out)
        np.negative(out, out=out)
        # numpy's power is libm's pow, as Python's is, so every finite 2 sigma^2
        # keeps its bits, while one past the float range is inf: a flat profile
        np.divide(out, 2.0 * np.float64(self.sigma) ** 2, out=out)
        np.exp(out, out=out)
        return np.multiply(out, self.amplitude, out=out)


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
        out = np.zeros_like(mesh[0])
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
        r = np.sqrt(sum(c * c for c in mesh))
        out = r ** self.exponent
        if self.support is not None:
            if not self.support > 0:
                raise ModelError("power-law support must be positive")
            maxnorm = np.maximum.reduce([np.abs(c) for c in mesh])
            out = np.where(maxnorm < self.support, out, 0.0)
        return out


@dataclass(frozen=True)
class Table:
    """Raw per-cell values; the shape must match the target grid exactly."""

    values: tuple = field(default=())

    def evaluate(self, mesh: tuple[np.ndarray, ...]) -> np.ndarray:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != mesh[0].shape:
            raise ModelError(
                f"table shape {arr.shape} does not match grid shape {mesh[0].shape}"
            )
        return arr


def sample(profile, grid: Grid) -> GridFunction:
    """Evaluate a profile at every cell center of the grid."""
    return _sample_all((profile,), grid)[0]


def _sample_all(profiles, grid: Grid) -> tuple[GridFunction, ...]:
    """Evaluate each profile at every cell center of the grid, all on one
    read-only center mesh, freed when the last profile is sampled."""
    mesh = grid.center_mesh()
    out = []
    for profile in profiles:
        # an overflow, a division by zero or an invalid operation shows as
        # an inf or NaN sample, which the check below reports
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            values = profile.evaluate(mesh)
        if not np.all(np.isfinite(values)):
            # a table's repr holds every entry: past a line's length, the
            # message names the kind and the first non-finite cell instead
            name = repr(profile)
            if len(name) > 200:
                cell = tuple(np.argwhere(~np.isfinite(values))[0].tolist())
                name = f"{type(profile).__name__} (first non-finite at cell {cell})"
            raise ModelError(f"profile {name} produced non-finite samples")
        out.append(GridFunction(grid, values))
    return tuple(out)
