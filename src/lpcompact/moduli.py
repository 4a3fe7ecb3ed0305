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
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    _TINY,
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


def _shift_norm(
    values: np.ndarray, offsets, space: WeightedSpace, diff: np.ndarray, errors: dict
) -> float:
    """The exact kernel: ``_array_norm`` of the shifted difference, bit for bit.

    The difference is written into ``diff`` and its terms |d|^p * weight are
    formed over it in place; only a power sum outside [``space._sum_floor``,
    inf) writes the difference again and hands it to ``_array_norm``, which
    rescales it or raises under the caller's own floating-point settings
    ``errors``.  Called under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    _shifted_difference(values, offsets, diff)
    total = _weighted_power_sum(diff, space, diff)
    if space._sum_floor <= total < math.inf:
        return _sum_root(total, space)
    _shifted_difference(values, offsets, diff)
    with np.errstate(**errors):
        return _array_norm(diff, space)


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


def _translation_levels(family: Family, space: WeightedSpace, radii, stencil: str):
    """Yield, for each of the nondecreasing ``radii``, every member's
    translation modulus at that radius: the full scan behind
    ``translation_modulus`` and ``measure_moduli``.

    Closed stencils nest, so a radius only measures the shifts the smaller
    radii lacked, and a running maximum per member carries the rest.  Every
    shift goes through ``_shift_norm`` with one buffer reused for the whole
    scan, so every value equals ``_array_norm`` of the shifted difference bit
    for bit.  A consumer that stops iterating stops the scan after the last
    radius it received.
    """
    _check_space(family, space)
    grid = family.grid
    diff = np.empty(grid.shape)
    moduli = [0.0] * len(family)
    seen = set()
    errors = np.geterr()
    for radius in radii:
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
                norm = _shift_norm(family.members[j].values, k, space, diff, errors)
                moduli[j] = max(moduli[j], norm)
        yield tuple(moduli)


# the screen's dots are at most this long: OpenBLAS hands long dots to its
# threads, which can stall for milliseconds, and short blocks of a window
# stay in cache across the windows of a box
_DOT_BLOCK = 2048
_UNIT_ROUNDOFF = 2.0**-53
# pow(total, 1 / p) in ``_sum_root`` is within an ulp of the real root, and
# np.sqrt or pow of a bound within an ulp; 8 ulps cover both
_ROOT_SLACK = 2.0**-50
_HALF_MAX = sys.float_info.max / 2.0
# the per-term error ``_PowerScreen`` allows np.power(x, 1.5): relative to
# x**1.5, plus _TINY absolute (a flushed or inexact subnormal).  libm's pow is
# within an ulp and numpy's SIMD loops within a few; 2**-40 is some 4,000 ulps
_POWER_SLACK = 2.0**-40
# the p = 1.5 screen's float32 unit roundoff and smallest normal float32
_FLOAT32_ROUNDOFF = 2.0**-24
_FLOAT32_TINY = 2.0**-126
# x ** _TWO_THIRDS, with the exponent rounded, is within |ln x| * 2**-54 and
# an ulp of x**(2/3): under 2**-45 over the float range
_TWO_THIRDS = 2.0 / 3.0
_NORM_SLACK = 2.0**-44


def _select_level(family: Family, space: WeightedSpace, levels: range, threshold: float):
    """Walk up the consecutive box ``levels`` and stop at the first whose
    box-shift modulus reaches ``threshold``: the mesh selection behind
    ``select_mesh``.

    Returns the last level below the threshold with each member's modulus
    there, or None with the first level's moduli when even that level fails
    (and ``()`` when ``levels`` is empty).  Each level adds the ring of
    shifts the smaller boxes lacked (``_box_ring``), each shift with bounds on
    its exact norm: the enclosure of ``_ShiftScreen`` at p = 2 and of
    ``_PowerScreen`` at p = 1.5, (-inf, inf) at any other p.
    Levels, then members, then shifts go in stencil order.  A shift surely
    below the threshold passes, one surely at or above it fails, and
    ``_shift_norm`` measures any other.  The first level is gone through in
    full; past it the first failing shift ends the walk.

    At the end of a level each member keeps only the shifts whose upper bound
    reaches its largest lower bound so far.  That bound only rises, so the
    shift of the maximum stays, and ``_confirmed_moduli`` reads the kept
    shifts alone.  The result is that of the exact scan, bit for bit.
    """
    if not levels:
        return None, ()
    _check_space(family, space)
    grid = family.grid
    errors = np.geterr()
    diff = np.empty(grid.shape)

    def exact(j, k):
        return _shift_norm(family.members[j].values, k, space, diff, errors)

    # per member, the largest lower bound so far and the kept shifts, each
    # as (shift, lower bound, upper bound)
    top, kept = [-math.inf] * len(family), [[] for _ in family.members]
    screen, squares = None, []  # per member, kept across screens
    inner = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n, i in enumerate(levels):
            reach = round(2.0 ** (i - grid.cell_exp))
            ring = _box_ring(inner, reach, grid.dim)
            offsets = list(map(tuple, ring.tolist()))
            if space.p not in (1.5, 2.0):
                width = len(ring)
                enclosures = ([[-math.inf] * width, [math.inf] * width] for _ in family.members)
            else:
                if screen is None or screen.room < reach:
                    # the p = 1.5 screen forms its terms in the kernel's
                    # buffer, which is free while the screen runs
                    screen = (
                        _ShiftScreen(family, space, reach, squares) if space.p == 2.0
                        else _PowerScreen(family, space, reach, diff)
                    )
                enclosures = screen.enclosures(inner, reach, ring)
            bounds, fails = [], False
            for j, (low, high) in enumerate(enclosures):
                for pos, k in enumerate(offsets):
                    if high[pos] < threshold:
                        continue
                    if not low[pos] >= threshold:
                        low[pos] = high[pos] = norm = exact(j, k)
                        if norm < threshold:
                            continue
                    if n:
                        return levels[n - 1], _confirmed_moduli(kept, exact)
                    fails = True
                bounds.append((low, high))
            for j, (low, high) in enumerate(bounds):
                top[j] = max(top[j], *low)
                kept[j] = [s for s in (*kept[j], *zip(offsets, low, high)) if s[2] >= top[j]]
            if fails:
                return None, _confirmed_moduli(kept, exact)
            inner = reach
        return levels[-1], _confirmed_moduli(kept, exact)


def _confirmed_moduli(kept, exact) -> tuple[float, ...]:
    """Each member's exact modulus: the largest exact norm among its kept
    shifts, which include the shift of the maximum.  Shifts measured already
    carry their norm as both bounds."""
    return tuple(
        max(lo if lo == hi else exact(j, k) for k, lo, hi in member)
        for j, member in enumerate(kept)
    )


class _ShiftScreen:
    """Enclosures, at p = 2, of the norms the exact kernel computes, for a
    whole ring of shifts of one member at a time: the bounds ``_select_level``
    decides from at that p.

    With the zero-fill shift, ||tau_k f - f||^2 / cell_volume = A + B_k - 2 C_k
    for A = sum w f^2, B_k = sum_x w(x) f^2(x - k) and C_k = sum_x (w f)(x)
    f(x - k).  One member's f^2 and f sit in zero-padded buffers, read flat:
    the window that starts at sum_a (room - k_a) * pitch_a, against w and w f
    laid out at the same pitch, gives B_k and C_k as one dot each, and a box
    of shifts is a basic slice of the windows.  The padding ``room`` covers
    the ring being scanned, and at least a sixteenth of the grid's narrowest
    side, so that the first levels share one set of buffers.

    A dot of N terms is within gamma_N times the sum of its |terms| of its
    exact value in any order (Higham, Accuracy and Stability, 3.1),
    |C_k| <= (A + B_k) / 2, and the kernel's own sum is at most 2 (A + B_k);
    a product that underflows loses at most 2**-1075 times its other factor,
    a weight, |f| or 1.  So the power sum the kernel rounds and scales lies
    within gamma * (A + B_k) plus that allowance of the screened value.  The
    screen vouches for a shift when that value is finite and the whole
    enclosure lies in [``space._sum_floor``, max / 2], where the kernel takes
    its plain pass and ``_sum_root``'s pow moves the root by an ulp; other
    shifts get the bounds -inf and inf.  Used under ``np.errstate(over="ignore",
    invalid="ignore")``.
    """

    def __init__(self, family: Family, space: WeightedSpace, reach: int, squares: list):
        grid = family.grid
        self.family, self.space, self.room = family, space, max(reach, min(grid.shape) // 16)
        padded = tuple(size + 2 * self.room for size in grid.shape)
        pitched = (grid.shape[0], *padded[1:])
        span = math.prod(pitched)
        # the screen's three dots and the kernel's sum, with room for the
        # roundings of the combination and of the bound itself
        self.gamma = 8.0 * (span + 4) * _UNIT_ROUNDOFF / (1.0 - (span + 4) * _UNIT_ROUNDOFF)
        # f^2 and f, with room for a window to start at any (room - k_0) *
        # pitch + s, 0 <= s < pitch
        self.pads, self.windows = [], []
        for _ in range(2):
            flat = np.zeros(math.prod(padded) + math.prod(padded[1:]) - 1)
            windows = sliding_window_view(flat, span)
            self.pads.append(flat[: math.prod(padded)].reshape(padded))
            self.windows.append(windows.reshape(2 * self.room + 1, *padded[1:], span, copy=False))
        self.corner = tuple(slice(0, size) for size in grid.shape)
        self.interior = tuple(slice(self.room, self.room + size) for size in grid.shape)
        # w and w f at the padded pitch, zero in the padding
        self.weight = space.weight.values
        if pitched != grid.shape:
            self.weight = np.zeros(pitched)
            self.weight[self.corner] = space.weight.values
        self.weighted = np.zeros(pitched)
        # per member, A and the underflow allowance, kept across rings
        self.squares = squares

    def _load(self, j: int) -> tuple[float, float]:
        """Put member j into the buffers; return its A and underflow allowance."""
        f = self.family.members[j].values
        weight = self.space.weight.values
        np.multiply(f, f, out=self.pads[0][self.interior])
        self.pads[1][self.interior] = f
        np.multiply(weight, f, out=self.weighted[self.corner])
        if j == len(self.squares):
            square = float(_box_dots(self.weight, self.windows[0][(self.room,) * f.ndim]))
            top = max(float(np.max(f)), -float(np.min(f)), float(np.max(weight)))
            # the power of two first: the product could pass max
            lost = math.ldexp(f.size * 5.0, -1073) * (top + 1.0)
            self.squares.append((square, lost))
        return self.squares[j]

    def enclosures(self, inner: int, reach: int, ring: np.ndarray):
        """Each member's lower and upper bounds on the kernel's norm at the
        shifts of ``ring``, those with inner < max|k| <= reach (cells), as two
        lists."""
        grid, space, room = self.family.grid, self.space, self.room
        spots = tuple((ring + reach).T)
        b, c = np.empty((2, *(2 * reach + 1,) * grid.dim))
        for j in range(len(self.family)):
            square, lost = self._load(j)
            for box in _ring_boxes(inner, reach, grid.dim):
                # the window at room - k holds f(x - k)
                window = tuple(slice(room - hi, room - lo + 1) for lo, hi in box)
                spot = tuple(slice(reach + lo, reach + hi + 1) for lo, hi in box)
                b[spot] = np.flip(_box_dots(self.weight, self.windows[0][window]))
                c[spot] = np.flip(_box_dots(self.weighted, self.windows[1][window]))
            mass = square + b[spots]
            screened = mass - 2.0 * c[spots]
            bound = self.gamma * mass + lost
            low = (screened - bound) * grid.cell_volume
            high = (screened + bound) * grid.cell_volume
            sure = (
                np.isfinite(screened) & np.isfinite(bound) & (low >= space._sum_floor)
                & (np.maximum(screened + bound, high) <= _HALF_MAX)
            )
            yield (
                np.where(sure, np.sqrt(low) * (1.0 - _ROOT_SLACK), -math.inf).tolist(),
                np.where(sure, np.sqrt(high) * (1.0 + _ROOT_SLACK), math.inf).tolist(),
            )


class _PowerScreen:
    """Enclosures, at p = 1.5, of the norms the exact kernel computes, for a
    whole ring of shifts of one member at a time: the bounds ``_select_level``
    decides from at that p.  Each shift is screened in float32.

    N(g) = (sum_x w(x) |g(x)|**1.5)**(2/3) is the weighted norm, a norm at
    p = 1.5, and N_1 the unweighted one.  Member j is scaled by 2**-t (t even,
    max|f| 2**-t in [2**32, 2**34)) and the weight by 2**-s (max w 2**-s in
    [2**48, 2**49)); a scaled value or weight below 2**-126 is flushed to 0,
    so that float32 never runs on a subnormal input, and the rest are
    rounded to float32 once.  All that follows is in these scaled units,
    and a sum goes back by the exact factor 2**(1.5 t + s).  The window at
    room - k of the zero-padded member holds f(x - k), and each shift takes
    five float32 passes: the difference d', |d'|, its root, their product,
    and a dot with the weight in blocks of ``_DOT_BLOCK`` cells (one
    ``vecdot``), whose sums are added in float64.

    - Minkowski.  The member's rounding e_j = fl32(f) - f (flushes included)
      is exact in float64, and d' - d, against the kernel's float64
      difference d, is e_j(x - k) - e_j(x), plus the roundings of the two
      subtractions (u32 = 2**-24 of |d'|, u of |d|) and, should a
      flush-to-zero mode take a subnormal d' to 0, 2**-126.  N(e_j) and
      N(e_j(. - k)) are at most (max w)**(2/3) N_1(e_j), so |N(d') - N(d)|
      <= N(d' - d) <= 2 u32 N(d') + rho_j, with one number per member rho_j
      = 2 (max w)**(2/3) N_1(e_j) + 2**-126 (N max w)**(2/3) over the N
      cells, with N_1(e_j) bounded from above as np.power's slack allows.
      Cancellation in d costs nothing: rho_j does not depend on the shift.
    - The float32 sum S.  The roundings of the weight, the root, the
      product and a block's dot (any order), and the float64 sum of the
      blocks, put the real sum of w |d'|**1.5 within ``spread`` S of S
      (Higham, Accuracy and Stability, 3.1), up to ``underflow``: a float32
      result that underflows, even to 0, is off by at most 2**-126, and a
      weight flushed to 0 drops a term below 2**-126 |d'|**1.5 <= 2**-73.
    - The kernel.  np.power is taken to be within ``_POWER_SLACK`` (eta) of
      |d|**1.5 plus ``_TINY`` per term, and the kernel rounds each power
      times w once and sums pairwise: within ``gamma`` = 2 eta + 8 (N + 4) u /
      (1 - (N + 4) u) of the real sum N(d)**1.5, which also covers the
      roundings of the bound itself, up to ``lost``, four times the
      underflow of N cells.

    So N(d) lies in [n_lo, n_hi] (``_norm_bounds``), n_lo = ((S - underflow)
    (1 - spread))**(2/3) (1 - 3 u32) - rho_j and n_hi = ((S + underflow)
    (1 + 2 spread))**(2/3) (1 + 3 u32) + rho_j, and the kernel's sum within
    gamma of [max(n_lo, 0)**1.5, n_hi**1.5], up to lost.  The screen
    vouches for a shift when that enclosure lies in [``space._sum_floor``,
    max / 2]: there the kernel takes its plain pass and ``_sum_root`` raises
    that sum to the rounded 1 / p, and the bounds are the enclosure raised
    to that same exponent by the same pow, each moved by ``_ROOT_SLACK``.
    Where the allowances are far below the sum, the bounds on the norm are
    within 2 rho_j (cell_volume 2**(1.5 t + s))**(2/3) + 3 spread hi of
    each other.  A member with max|f| above 2**680 could overflow a power in
    the kernel, so it gets the bounds -inf and inf at every shift, as does
    any shift not vouched for.  Used under ``np.errstate(over="ignore",
    invalid="ignore")``.
    """

    def __init__(self, family: Family, space: WeightedSpace, reach: int, diff: np.ndarray):
        grid = family.grid
        cells = grid.n_cells
        self.family, self.space, self.room = family, space, max(reach, min(grid.shape) // 16)
        self.pad = np.zeros(tuple(size + 2 * self.room for size in grid.shape), dtype=np.float32)
        self.interior = tuple(slice(self.room, self.room + size) for size in grid.shape)
        # the terms and the roots in the two halves of ``diff`` (grid-shaped,
        # left to the screen between the yields of ``enclosures``)
        self.terms, self.roots = np.split(diff.reshape(-1).view(np.float32), 2)
        # the weight times 2**-s, flushed and rounded
        top = float(np.max(space.weight.values))
        s = math.frexp(top)[1] - 49
        top = math.ldexp(top, -s)
        weight = np.ldexp(space.weight.values, -s, out=np.empty(grid.shape, np.float32))
        weight[weight < _FLOAT32_TINY] = 0.0
        block = math.gcd(cells, _DOT_BLOCK)
        self.weight = weight.reshape(-1, block)
        self.spread = (
            _gamma(block + 4, _FLOAT32_ROUNDOFF) + 2.0 * _gamma(cells // block + 4, _UNIT_ROUNDOFF)
        )
        self.underflow = math.ldexp(cells, -72)
        self.gamma = 2.0 * _POWER_SLACK + 8.0 * _gamma(cells + 4, _UNIT_ROUNDOFF)
        self.lost = math.ldexp(cells, -1019) * (float(np.max(space.weight.values)) + 1.0)
        # (max w)**(2/3), the flush allowance 2**-126 (N max w)**(2/3), and
        # what lifts a sum of N np.power terms above their real sum
        lift = top**_TWO_THIRDS * (1.0 + _NORM_SLACK)
        flush = _FLOAT32_TINY * (cells * top) ** _TWO_THIRDS * (1.0 + _NORM_SLACK)
        above = 1.0 + 2.0 * _POWER_SLACK + _gamma(cells, _UNIT_ROUNDOFF)
        # per member, t, the power of two of its sums (1.5 t + s) and rho_j;
        # None for a member past 2**680
        self.members = []
        for f in family.members:
            big = max(float(np.max(f.values)), -float(np.min(f.values)))
            if big > 2.0**680:
                self.members.append(None)
                continue
            t = 2 * math.ceil((math.frexp(big)[1] - 34) / 2)
            # _load uses ``diff`` as scratch, so it goes first
            rounded = self._load(f.values, t)
            error = np.ldexp(f.values, -t, out=diff)
            np.subtract(rounded, error, out=error)
            np.abs(error, out=error)
            np.power(error, 1.5, out=error)
            plain = ((float(np.sum(error)) + cells * _TINY) * above) ** _TWO_THIRDS
            rho = 2.0 * lift * plain * (1.0 + _NORM_SLACK) + flush
            self.members.append((t, 3 * t // 2 + s, rho * (1.0 + _NORM_SLACK)))

    def _load(self, values: np.ndarray, t: int) -> np.ndarray:
        """Put ``values`` times 2**-t, flushed and rounded, into the padded
        buffer; return its interior."""
        rounded = self.pad[self.interior]
        np.ldexp(values, -t, out=rounded)
        scratch = self.terms.reshape(rounded.shape)
        np.copyto(rounded, 0.0, where=np.abs(rounded, out=scratch) < _FLOAT32_TINY)
        return rounded

    def _norm_bounds(self, j: int, offsets):
        """Bounds on N(d), in scaled units, for member j at ``offsets``."""
        values = self._load(self.family.members[j].values, self.members[j][0])
        terms, roots, room = self.terms, self.roots, self.room
        rho, underflow, spread = self.members[j][2], self.underflow, self.spread
        for k in offsets:
            window = tuple(slice(room - a, room - a + size) for a, size in zip(k, values.shape))
            np.subtract(self.pad[window], values, out=terms.reshape(values.shape))
            np.abs(terms, out=terms)
            np.sqrt(terms, out=roots)
            np.multiply(terms, roots, out=terms)
            blocks = np.vecdot(self.weight, terms.reshape(self.weight.shape))
            screened = float(blocks.sum(dtype=np.float64))
            low = (screened - underflow) * (1.0 - spread)
            high = (screened + underflow) * (1.0 + 2.0 * spread)
            low = low**_TWO_THIRDS * (1.0 - 3.0 * _FLOAT32_ROUNDOFF) if low > 0.0 else 0.0
            yield low - rho, high**_TWO_THIRDS * (1.0 + 3.0 * _FLOAT32_ROUNDOFF) + rho

    def enclosures(self, inner: int, reach: int, ring: np.ndarray):
        """Each member's lower and upper bounds on the kernel's norm at the
        shifts of ``ring``, those with inner < max|k| <= reach (cells), as two
        lists."""
        cell_volume, floor = self.family.grid.cell_volume, self.space._sum_floor
        offsets = ring.tolist()
        exponent = 1.0 / self.space.p
        for j, member in enumerate(self.members):
            if member is None:
                yield [-math.inf] * len(offsets), [math.inf] * len(offsets)
                continue
            low, high = [], []
            for n_lo, n_hi in self._norm_bounds(j, offsets):
                try:
                    e_lo = math.ldexp(max(n_lo, 0.0) ** 1.5 * (1.0 - _ROOT_SLACK), member[1])
                    e_hi = math.ldexp(n_hi**1.5 * (1.0 + _ROOT_SLACK), member[1])
                except OverflowError:
                    e_lo, e_hi = 0.0, math.inf
                lo = (e_lo - self.gamma * e_lo - self.lost) * cell_volume
                top = e_hi + self.gamma * e_hi + self.lost
                hi = top * cell_volume
                if floor <= lo and max(top, hi) <= _HALF_MAX:
                    low.append(lo**exponent * (1.0 - _ROOT_SLACK))
                    high.append(hi**exponent * (1.0 + _ROOT_SLACK))
                else:
                    low.append(-math.inf)
                    high.append(math.inf)
            yield low, high


def _gamma(n: int, unit: float) -> float:
    """Higham's gamma_n at the unit roundoff ``unit``."""
    return n * unit / (1.0 - n * unit)


def _box_ring(inner: int, reach: int, dim: int) -> np.ndarray:
    """The shifts k with inner < max|k| <= reach (cells), one per row, in
    stencil order."""
    cube = np.indices((2 * reach + 1,) * dim) - reach
    return np.argwhere(np.max(np.abs(cube), axis=0) > inner) - reach


def _ring_boxes(inner: int, reach: int, dim: int):
    """The offsets k with inner < max|k| <= reach as 2 * dim boxes, each a
    tuple of inclusive per-axis ranges (lo, hi)."""
    for axis in range(dim):
        for side in ((-reach, -inner - 1), (inner + 1, reach)):
            yield ((-inner, inner),) * axis + (side,) + ((-reach, reach),) * (dim - axis - 1)


def _box_dots(factor: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """The dot product of ``factor``, flattened, with each of ``windows``
    (flat windows on their last axis).  That axis is viewed, without a copy,
    as blocks of at most ``_DOT_BLOCK`` cells, one dot each, so that no dot
    leaves this thread."""
    cells = windows.shape[-1]
    block = math.gcd(cells, _DOT_BLOCK)
    windows = windows.reshape(*windows.shape[:-1], cells // block, block, copy=False)
    return np.vecdot(factor.reshape(cells // block, block), windows).sum(axis=-1)


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
