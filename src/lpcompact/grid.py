"""Dyadic grids and piecewise-constant functions on symmetric boxes.

Conventions used throughout the package:

- The ambient domain is the box ``[-2**box_level, 2**box_level]**dim``.
- Cells are half-open, ``[a, a + h)`` per axis with side ``h = 2**cell_exp``,
  so every point of the domain belongs to exactly one cell and cube borders
  are never ambiguous.
- A function is one real value per cell and is identically 0 outside the box.
- Whether a cell belongs to a ball or box region is decided by its center.
  A cell counts as *outside* radius ``r`` when its center is not in the open
  region, i.e. the discrete complement realises ``{|x| >= r}``.
- All dyadic lengths are carried as integer exponents, so cells, cubes and
  truncation boxes align exactly, with no floating-point drift.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError

__all__ = [
    "Grid",
    "GridFunction",
    "DyadicPartition",
    "inside_mask",
    "outside_mask",
    "all_cube_averages",
    "ball_average_field",
    "shift_stencil",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid of half-open cells tiling ``[-2**box_level, 2**box_level]**dim``."""

    dim: int
    box_level: int
    cell_exp: int

    def __post_init__(self):
        # a number of any count of digits is left out of a message
        def short(*numbers) -> bool:
            return all(isinstance(x, (int, float)) and abs(x) < 1e15 for x in numbers)

        if self.dim not in (1, 2):
            got = f", got {self.dim}" if short(self.dim) else ""
            raise ModelError(f"dim must be 1 or 2{got}")
        if self.cell_exp > self.box_level:
            raise ModelError(
                f"cell_exp={self.cell_exp} must not exceed box_level={self.box_level}"
                if short(self.cell_exp, self.box_level)
                else "cell_exp must not exceed box_level"
            )
        # checked before any power of two is formed
        if (self.box_level - self.cell_exp + 1) * self.dim > 62:
            raise ModelError(
                "grid has more cells than numpy can index: "
                "(box_level - cell_exp + 1) * dim must not exceed 62"
            )
        exponents = (self.box_level, self.cell_exp, self.cell_exp * self.dim)
        if not all(-1074 <= e <= 1023 for e in exponents):
            raise ModelError(
                "grid lengths leave the float range: the half-width 2**box_level, "
                "the cell side and the cell volume must be finite nonzero floats"
            )

    @property
    def cell_side(self) -> float:
        return 2.0 ** self.cell_exp

    @property
    def cells_per_axis(self) -> int:
        return 2 ** (self.box_level - self.cell_exp + 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.dim

    @property
    def n_cells(self) -> int:
        return self.cells_per_axis ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.cell_side ** self.dim

    def axis_centers(self) -> np.ndarray:
        """Cell centers along one axis; they sit at odd multiples of h/2."""
        # in place, with the bits of (k - half + 0.5) * h: k - half + 0.5 is
        # exact in floats
        centers = np.arange(self.cells_per_axis, dtype=np.float64)
        centers -= self.cells_per_axis // 2 - 0.5
        centers *= self.cell_side
        return centers

    def center_mesh(self) -> tuple[np.ndarray, ...]:
        """Per-axis center coordinates, one read-only array per axis shaped to
        broadcast to ``shape`` (``np.meshgrid(..., sparse=True)``): every
        profile sampled on one mesh sees the same, and an axis's own work runs
        on its ``cells_per_axis`` values."""
        axes = [self.axis_centers() for _ in range(self.dim)]
        mesh = tuple(np.meshgrid(*axes, indexing="ij", sparse=True, copy=False))
        for c in mesh:
            c.flags.writeable = False
        return mesh

    def center_radii(self) -> np.ndarray:
        """Euclidean norm of every cell center."""
        return np.sqrt(functools.reduce(np.add, [c * c for c in self.center_mesh()]))

    def center_maxnorm(self) -> np.ndarray:
        """Sup-norm of every cell center."""
        return functools.reduce(np.maximum, [np.abs(c) for c in self.center_mesh()])


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only: a fresh array handed to a ``GridFunction`` or a
    certificate, which then keeps it without a copy."""
    arr.flags.writeable = False
    return arr


def _kept(values) -> np.ndarray:
    """``values`` itself when it is a float64 array that is read-only and owns
    its data, so that no writable view of another array can change it;
    anything else as a read-only float64 copy."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    return _frozen(np.array(values, dtype=np.float64))


@dataclass(frozen=True)
class GridFunction:
    """A finite value per cell of a fixed grid; zero outside the ambient box.

    Values are stored as a read-only float64 array of shape ``grid.shape``:
    one that is read-only and owns its data is kept as it is, anything else
    is copied (``_kept``).  Functions on different grids never combine; there
    is no interpolation.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        arr = _kept(self.values)
        if arr.shape != self.grid.shape:
            raise ModelError(
                f"values shape {arr.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ModelError("grid function values must be finite")
        object.__setattr__(self, "values", arr)

    @classmethod
    def zeros(cls, grid: Grid) -> "GridFunction":
        return cls(grid, _frozen(np.zeros(grid.shape)))

    def _require_same_grid(self, other: "GridFunction") -> None:
        if self.grid != other.grid:
            raise ModelError("grid functions live on different grids")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_grid(other)
        return GridFunction(self.grid, _frozen(self.values + other.values))

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_grid(other)
        return GridFunction(self.grid, _frozen(self.values - other.values))

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.grid, _frozen(self.values * float(scalar)))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, _frozen(-self.values))

    def __abs__(self) -> "GridFunction":
        return GridFunction(self.grid, _frozen(np.abs(self.values)))


def _shift_slices(shape: tuple[int, ...], offsets: tuple[int, ...]):
    """``(dst, src, strips)`` of the shift by ``offsets`` cells with zero fill
    and no wraparound: the shifted array is ``values[src]`` at ``dst`` and 0 on
    the strips, which with ``dst`` tile the array."""
    ks = [max(-n, min(n, k)) for k, n in zip(offsets, shape)]
    dst = tuple(slice(k, None) if k >= 0 else slice(None, n + k) for k, n in zip(ks, shape))
    src = tuple(slice(None, n - k) if k >= 0 else slice(-k, None) for k, n in zip(ks, shape))
    strips = [
        (*dst[:axis], slice(None, k) if k > 0 else slice(n + k, None), ...)
        for axis, (k, n) in enumerate(zip(ks, shape)) if k
    ]
    return dst, src, strips


def inside_mask(grid: Grid, radius: float, region: str = "ball") -> np.ndarray:
    """Cells whose center lies in the open ball or box of the given radius."""
    if not radius > 0:
        raise ModelError(f"region radius must be positive, got {radius}")
    if region == "ball":
        return grid.center_radii() < radius
    if region == "box":
        return grid.center_maxnorm() < radius
    raise ModelError(f"unknown region kind {region!r}")


def outside_mask(grid: Grid, radius: float, region: str = "ball") -> np.ndarray:
    return ~inside_mask(grid, radius, region)


@dataclass(frozen=True)
class DyadicPartition:
    """Partition of the box ``[-2**box_level, 2**box_level]**dim`` into cubes
    of side ``2**cube_exp``.

    Cubes are half-open, aligned to the cell lattice, and enumerated row-major
    by their lower corner, so a flat cube index is meaningful across runs.
    """

    grid: Grid
    box_level: int
    cube_exp: int

    def __post_init__(self):
        if not (self.grid.cell_exp <= self.cube_exp <= self.box_level <= self.grid.box_level):
            raise ModelError(
                "need cell_exp <= cube_exp <= box_level <= grid.box_level, got "
                f"cell_exp={self.grid.cell_exp}, cube_exp={self.cube_exp}, "
                f"box_level={self.box_level}, grid.box_level={self.grid.box_level}"
            )

    @property
    def cubes_per_axis(self) -> int:
        return 2 ** (self.box_level - self.cube_exp + 1)

    @property
    def cells_per_cube_axis(self) -> int:
        return 2 ** (self.cube_exp - self.grid.cell_exp)

    @property
    def n_cubes(self) -> int:
        return self.cubes_per_axis ** self.grid.dim

    @property
    def cell_start(self) -> int:
        """Cell index of the partition's lower corner along each axis."""
        return self.grid.cells_per_axis // 2 - 2 ** (self.box_level - self.grid.cell_exp)

    @property
    def cells_per_axis_inside(self) -> int:
        return self.cubes_per_axis * self.cells_per_cube_axis

    def inside_slices(self) -> tuple[slice, ...]:
        lo = self.cell_start
        hi = lo + self.cells_per_axis_inside
        return tuple(slice(lo, hi) for _ in range(self.grid.dim))

    def cube_slices(self, flat: int) -> tuple[slice, ...]:
        """Cell slices (into the full grid array) covered by one cube."""
        multi = np.unravel_index(flat, (self.cubes_per_axis,) * self.grid.dim)
        c = self.cells_per_cube_axis
        lo = self.cell_start
        return tuple(slice(lo + int(i) * c, lo + (int(i) + 1) * c) for i in multi)


def _block_view(arr: np.ndarray, part: DyadicPartition) -> np.ndarray:
    """Reshape the partition's interior so cube averages reduce over cell axes."""
    inner = arr[part.inside_slices()]
    b, c = part.cubes_per_axis, part.cells_per_cube_axis
    if part.grid.dim == 1:
        return inner.reshape(b, c)
    return inner.reshape(b, c, b, c)


def _per_cube(arr: np.ndarray, part: DyadicPartition, reduce) -> np.ndarray:
    """Apply a numpy reduction (``np.mean``, ``np.min``, ...) over the cells of
    every cube; the result is flat, row-major by cube corner."""
    axes = (1,) if part.grid.dim == 1 else (1, 3)
    return reduce(_block_view(arr, part), axis=axes).reshape(-1)


def _first_positive_cells(weight: np.ndarray, part: DyadicPartition) -> np.ndarray:
    """Per cube, the smallest flat grid index of a cell of positive weight, or
    ``grid.n_cells`` when the cube has none.

    Within a cube the flat grid index rises in the cube's local row-major
    order, so the minimum is the cube's first positive cell in that order.
    """
    n = part.grid.n_cells
    index = np.where(weight > 0, np.arange(n).reshape(part.grid.shape), n)
    return _per_cube(index, part, np.min)


def all_cube_averages(f: GridFunction, part: DyadicPartition) -> np.ndarray:
    """Exact mean of f over every cube, flat row-major by cube corner.

    Cells within a cube have equal measure and their count is a power of two,
    so the mean is an exact finite sum with no quadrature error.
    """
    return _per_cube(f.values, part, np.mean)


def shift_stencil(
    grid: Grid, radius: float, kind: str = "ball", include_zero: bool = False
) -> list[tuple[int, ...]]:
    """Grid-aligned shift vectors (in cells) with |k*h| <= radius, closed.

    ``kind="ball"`` measures the Euclidean norm, ``kind="box"`` the sup norm;
    with the closed inequality the box stencil at radius 2**i realises the
    whole dyadic box of level i.  Deterministic lexicographic order.
    """
    return _shift_ring(grid, -1.0 if include_zero else 0.0, radius, kind)


def _shift_reach(grid: Grid, radius: float) -> int:
    """The largest |k_i| in cells that a stencil or ring of this radius holds, at most."""
    return math.floor(radius / grid.cell_side + 1e-12)


def _shift_ring(grid: Grid, inner: float, radius: float, kind: str) -> list[tuple[int, ...]]:
    """The shifts k (in cells, as tuples of ints) with inner < |k*h| <=
    radius, in lexicographic order: the one source of stencils and rings.

    |k*h| is the sup norm for ``kind="box"``; for ``"ball"`` the squared
    Euclidean norm, a sum of (k_i h)**2, is compared with the squared radii.
    A ring with inner >= 0 is symmetric and omits zero, so its order lists a
    first half, then that half negated in reverse (entries i and n - 1 - i
    are k and -k).
    """
    if kind not in ("ball", "box"):
        raise ModelError(f"unknown stencil kind {kind!r}")
    if not math.isfinite(radius):
        raise ModelError(f"shift radius {radius} is not finite")
    h = grid.cell_side
    kmax = _shift_reach(grid, radius)
    if kmax < 0:
        return []
    cube = np.indices((2 * kmax + 1,) * grid.dim).reshape(grid.dim, -1).T - kmax
    if kind == "ball":
        size, low, high = np.sum((cube * h) ** 2, axis=1), inner * abs(inner), radius * radius
    else:
        size, low, high = np.max(np.abs(cube), axis=1) * h, inner, radius
    return list(map(tuple, cube[(low < size) & (size <= high)].tolist()))


def ball_average_field(f: GridFunction, radius: float) -> GridFunction:
    """Average of f over the closed ball of given radius around each cell center.

    The average runs over cells whose centers lie within ``radius`` of the
    target center, which is the same as averaging the translates of f over the
    symmetric stencil; beyond the box the ambient zeros participate.  Radii
    below half a cell side leave no admissible stencil and are rejected.
    """
    h = f.grid.cell_side
    if radius < h / 2:
        raise ModelError(f"averaging radius {radius} is below half a cell side {h / 2}")
    stencil = shift_stencil(f.grid, radius, kind="ball", include_zero=True)
    acc = np.zeros_like(f.values)
    for dst, src, _ in (_shift_slices(f.grid.shape, k) for k in stencil):
        # acc starts at +0.0 and is never -0.0, so the zero strips add nothing
        acc[dst] += f.values[src]
    acc /= len(stencil)
    return GridFunction(f.grid, _frozen(acc))
