"""Compactness moduli of finite function families.

Three quantities control total boundedness of a family: a uniform norm bound,
a tail modulus measuring mass escaping every bounded region, and a translation
modulus measuring equicontinuity in the norm.  The averaged modulus compares
the running ball-average against the translations; for exponents >= 1 the
average can never exceed the worst translation, and ``verify_averaging_bound``
checks that domination on matched shift stencils.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .grid import (
    Grid,
    GridFunction,
    _shift_reach,
    _shift_ring,
    _shift_slices,
    ball_average_field,
    outside_mask,
)
from .profiles import _sample_all
from .spaces import _TINY, WeightedSpace, _array_norm, weighted_norm

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


def tail_modulus(
    family: Family,
    space: WeightedSpace,
    radius: float,
    region: str = "ball",
    threshold: float = math.inf,
) -> float:
    """Largest member norm outside the region of the given radius.

    Members are measured in order, and the first tail that is not below
    ``threshold`` ends the walk and is returned: a partial value, which
    shows only that the modulus reaches the threshold.  Where every tail is
    below it, the largest is returned, the modulus bit for bit; at the
    default inf that is always so.
    """
    _check_space(family, space)
    outside = outside_mask(family.grid, radius, region)
    kept = np.empty(family.grid.shape)
    worst = 0.0
    for f in family.members:
        # multiplying by the mask zeroes the region: members are finite, and
        # the sign a zero picks up is lost to the absolute value
        tail = _array_norm(kept, space, lambda: np.multiply(f.values, outside, out=kept))
        if not tail < threshold:
            return tail
        worst = max(worst, tail)
    return worst


def _shifted_difference(values: np.ndarray, offsets: tuple[int, ...], out: np.ndarray) -> None:
    """Write the zero-fill shift of ``values`` by ``offsets``, minus ``values``,
    into ``out`` without allocating; the strips take ``0.0 - values``.  A
    difference beyond float range comes out inf, without a warning, for the
    norm to reject."""
    dst, src, strips = _shift_slices(values.shape, offsets)
    with np.errstate(over="ignore"):
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
    return max(next(_translation_scan(family, space, [radius], stencil))())


# the ring bound's dots go in rows of at most this many cells, one
# ``vecdot`` row each, summed by ``math.fsum``: each row then rounds within
# Higham's gamma of its length, and no dot is long enough for OpenBLAS to
# hand it to its threads, which can stall for milliseconds
_DOT_BLOCK = 2048
_UNIT_ROUNDOFF = 2.0**-53
# pow(total, 1 / p) in ``_sum_root`` is within an ulp of the real root, and
# ``_exponent_norm``'s split root, two pows and a product, within four; pow
# of a bound is within an ulp, and 8 ulps cover both
_ROOT_SLACK = 2.0**-50
_HALF_MAX = sys.float_info.max / 2.0
# the per-term error ``_RingBound`` allows np.power(x, p), its own and the
# kernel's: relative to x**p, plus _TINY absolute (a flushed or inexact
# subnormal).  libm's pow is within an ulp and numpy's SIMD loops within a
# few; 2**-40 is some 4,000 ulps
_POWER_SLACK = 2.0**-40


def _translation_scan(
    family: Family, space: WeightedSpace, radii, stencil: str, threshold: float = math.inf
):
    """Walk up the nondecreasing ``radii`` and yield, after each radius whose
    every shift is below ``threshold``, a function that returns each member's
    modulus there, exactly, until the walk goes on: the one translation scan.
    The first shift that reaches the threshold ends the walk, at any radius.
    ``translation_modulus`` and ``measure_moduli`` walk it at threshold inf,
    where it never stops early, and ``select_mesh`` at its mesh threshold
    over the box levels.

    Each radius adds the ring of shifts the smaller radii lacked
    (``_shift_ring``).  Radii, then members, then shifts go in stencil order.
    On a 1-D grid at p >= 1 where a radius reaches past one cell, each
    member's ring bounds (``_RingBound``) are taken first, up the reaches of
    the radii to the first that reaches the threshold, and a ring passes
    whole where the bounds at its reach or beyond, which cover every shift
    up to there, are below the threshold.  Every shift of every other ring
    is measured exactly: ``_shifted_difference`` writes it into the scan's
    one grid-sized buffer, where ``_array_norm`` forms its terms in place.

    Each member keeps the largest exact norm so far, its top.  Reading the
    moduli first resolves the shifts a member's ring bounds cover and no
    reading has met (``resolve``), so no (member, shift) is measured twice,
    and the result is that of the exact scan, bit for bit.

    A finite radius is capped at n h, n cells per axis, times sqrt(dim) for
    the ball stencil: that stencil holds every shift with all |k_i| < n and
    one by n cells along an axis, and a shift by n cells or more along any
    axis leaves only -f, so the moduli past the cap equal those at it.
    """
    _check_space(family, space)
    grid = family.grid
    diff = np.empty(grid.shape)
    cap = grid.cells_per_axis * grid.cell_side * (math.sqrt(grid.dim) if stencil == "ball" else 1.0)
    radii = [min(r, cap) if math.isfinite(r) else r for r in radii]
    # per member, the ring bounds below the threshold as (reach, bounds) up
    # the reaches of the radii, and the bounds one cell inside the last
    passing, inside = [[] for _ in family.members], [(0, None)] * len(family)
    reaches = sorted({_shift_reach(grid, r) for r in radii if math.isfinite(r)} - {0})
    bound = None
    # at a reach of one cell the confirm step measures the same two shifts
    if grid.dim == 1 and space.p >= 1.0 and max(reaches, default=0) > 1:
        bound = _RingBound(family, space)
        for j in range(len(family)):
            passing[j], inside[j] = bound.passing(j, reaches, threshold)

    def exact(j, k):
        values = family.members[j].values
        return _array_norm(diff, space, lambda: _shifted_difference(values, k, diff))

    def resolve(j):
        """Fold into member j's top the shifts its ring bounds cover and no
        reading has met, walking in from the outer shifts: at each r, the
        shift by r or -r is measured where its bound at r (at the outer
        shifts, the bound that passed their ring) reaches the top, the larger
        bound first, and the walk stops at the first r whose bounds are both
        below the top, as every shift inside is."""
        (reach, bounds), at = covered[j], None
        for r in range(reach, resolved[j], -1):
            if r < reach:
                cells, bounds = inside[j]
                if r != cells:
                    at = at or bound.member(j)
                    bounds = at(r)
            if max(bounds) < top[j]:
                break
            for high, k in sorted(zip(bounds, [(r,), (-r,)]), reverse=True):
                if not high < top[j]:
                    top[j] = max(top[j], exact(j, k))
        resolved[j] = reach

    def confirm() -> tuple[float, ...]:
        for j in range(len(family)):
            if covered[j][0] > resolved[j]:
                resolve(j)
        return tuple(top)

    # per member, the top; the reach in cells its ring bounds cover, with
    # their bounds there; and the reach up to which readings resolved them
    top = [-math.inf] * len(family)
    covered, resolved = [(0, None)] * len(family), [0] * len(family)
    inner = 0.0
    for radius in radii:
        offsets = _shift_ring(grid, inner, radius, stencil)
        if not offsets and not inner:
            raise ModelError(
                f"translation radius {radius} admits no nonzero grid shift "
                f"(cell side {grid.cell_side})"
            )
        reach = max(map(abs, itertools.chain.from_iterable(offsets)), default=0)
        # the ring's largest norm per member measured, and the members its
        # bounds cover, folded in only once the ring is through: a walk that
        # stops in a ring leaves the last radius yielded as it was
        ring, decided = {}, {}
        for j in range(len(family)) if offsets else ():
            cover = next((b for cells, b in passing[j] if cells >= reach), None)
            if cover:
                decided[j] = reach, cover
                continue
            for k in offsets:
                norm = exact(j, k)
                if not norm < threshold:
                    return
                ring[j] = max(ring.get(j, -math.inf), norm)
        for j, norm in ring.items():
            top[j] = max(top[j], norm)
        for j, cover in decided.items():
            covered[j] = cover
        yield confirm
        inner = radius


class _RingBound:
    """Upper bounds on the norm the kernel, ``_array_norm``, returns at every
    shift of a 1-D grid by 1 to K cells in one direction, one per member,
    direction and K: the bounds the translation scan passes whole rings by.

    Shifts fill with zeros, so for 1 <= k <= K the difference f(y - k) - f(y)
    is the sum over 0 <= i < k of g(y - i), g(y) = f(y - 1) - f(y), with f =
    0 off the grid, and by the power-mean inequality

        N(f(. - k) - f)**p <= K**(p - 1) cell_volume sum_y |g(y)|**p W(y),

    W(y) = sum_{0 <= i < K} w(y + i); the shift by -k takes |f(y + 1) -
    f(y)|**p, the same differences moved by a cell, and W(y) = sum_{0 <= i <
    K} w(y - i).  At p = 1 this is the triangle inequality, and the bound is
    nondecreasing in K; past K = N cells, the grid's length, K is taken as N.
    Both directions read one array of the member's |difference|**p over the
    grid and a cell past it (``powers``), and every window is a difference of
    one prefix sum C of the weight, which all members share (``prefix``,
    padded by ``room`` cells of 0 before and of C's total after): sum_y P(y)
    W(y) is sum_y P(y) C(y + K) - sum_y P(y) C(y), two dots of the grid's
    length in rows of ``_DOT_BLOCK`` cells summed by ``math.fsum``.

    The bound is on the value the kernel returns, not the real norm, with u
    the unit roundoff:

    - The bound's float64 steps: the difference and its power (within (1 +
      u)**p and ``_POWER_SLACK``, plus ``_TINY`` per cell, which sum_y W(y)
      <= K C(N) carries), the prefix sum (each C(y) within gamma_N C(N), so
      each window within 2 gamma_N C(N), taken as 4 gamma_(N+1) times the
      computed C(N), times sum_y P(y)), the dots (each
      row within gamma of its length, plus 2**-1074 per underflowing
      product) and their difference (within that gamma of their sum), and
      K**(p - 1) (p - 1 rounded, and pow within an ulp, within 64 p u).
    - The kernel: its subtraction, within (1 + u)**p; its np.power, within
      ``_POWER_SLACK`` of |d|**p plus ``_TINY`` per term, and its pairwise
      sum of each power times w, rounded once, within 2 ``_POWER_SLACK`` + 8
      gamma_(N+4) of the real sum; and the sum's underflows, ``lost``, four
      times the underflow of N cells under the heaviest weight.  The
      kernel's root, the sum to the rounded 1 / p, lies within 2**-43 / p of
      the real root of its power sum, which the bound's sum covers with
      2**-40 more.
    - Where the kernel's sum falls below ``space._sum_floor``,
      ``_exponent_norm`` measures the difference again.  Its errors are all
      relative: a few ulps per term and the pairwise sum's gamma, inside the
      kernel's slack above, and the terms it drops, some 2**-1074 of its
      largest.  Its root takes the same rounded 1 / p, and its split
      exponent's power of two adds at most four ulps, inside ``_ROOT_SLACK``.
    - A difference f(y - k) - f(y) beyond float range, which the kernel
      rejects, overflows the bound too: the zero-filled member climbs from 0
      to f(y - k), on to f(y) and back to 0, so sum_y |g(y)| is at least
      twice |f(y - k) - f(y)|, past twice max, and for p >= 1 the float sum
      of |g|**p over the N + 1 differences overflows.  ``spread`` carries
      that inf (a NaN where the weight sums to 0), and the bound is inf.

    ``_root_bound`` then raises the bound to 1 / p, and gives inf for a sum
    outside [``space._sum_floor``, max / 2], or an inf or NaN, which decides
    nothing.  ``member`` and ``_dot`` ignore the overflows and the inf * 0
    that carry such a sum, whatever the caller's floating-point settings.
    """

    def __init__(self, family: Family, space: WeightedSpace):
        cells, p, u = family.grid.n_cells, space.p, _UNIT_ROUNDOFF
        weight = space.weight.values
        self.family, self.space = family, space
        # one member's powers, in the bound's own buffer, so that exact norms
        # may run between its reads
        self.powers = np.empty(cells + 1)
        self.block = math.gcd(cells, _DOT_BLOCK)
        self.prefix = None
        self.total = float(self._padded(0)[0][-1])
        self.window_error = 4.0 * _gamma(cells + 1, u) * self.total
        self.dot_error = 2.0 * _gamma(self.block + 8, u)
        self.relative = (
            (1.0 + 2.0 * _POWER_SLACK + (64.0 * p + 64.0) * u)
            * (1.0 + 2.0 * _POWER_SLACK + 8.0 * _gamma(cells + 4, u))
            * (1.0 + 2.0**-40)
        )
        self.lost = math.ldexp(cells, -1019) * (float(np.max(weight)) + 1.0)

    def _padded(self, reach: int):
        """The prefix sum padded by ``room`` cells, at least ``reach`` and a
        sixteenth of the grid, so that short reaches never grow it, and that
        room."""
        if self.prefix is None or self.room < reach:
            cells = self.family.grid.n_cells
            # the old buffer goes before the new one is formed
            self.prefix, self.room = None, max(reach, cells // 16)
            self.prefix = np.zeros(cells + 1 + 2 * self.room)
            prefix = self.prefix[self.room + 1 : self.room + 1 + cells]
            with np.errstate(over="ignore"):
                np.cumsum(self.space.weight.values, out=prefix)
            self.prefix[self.room + 1 + cells :] = prefix[-1]
        return self.prefix, self.room

    def _dot(self, a: np.ndarray, b: np.ndarray) -> float:
        rows = (-1, self.block)
        with np.errstate(over="ignore", invalid="ignore"):
            dots = np.vecdot(a.reshape(rows), b.reshape(rows))
        return math.fsum(dots.tolist())

    def member(self, j: int):
        """Form member j's differences and return the function that gives,
        per K, the bounds on the norms of its shifts by 1 to K and by -1 to
        -K cells: it reads the bound's buffer, so only until the next member
        is formed."""
        f = self.family.members[j].values
        cells, p, powers, lost = f.size, self.space.p, self.powers, self.lost
        powers[0], powers[cells] = f[0], -f[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(f[1:], f[:-1], out=powers[1:cells])
            if p == 2.0:
                np.square(powers, out=powers)
            else:
                np.abs(powers, out=powers)
                if p == 1.5:
                    # within a few ulps, as np.power is, in a third of the time
                    for start in range(0, cells + 1, _DOT_BLOCK):
                        block = powers[start : start + _DOT_BLOCK]
                        np.multiply(block, np.sqrt(block), out=block)
                elif p != 1.0:
                    np.power(powers, p, out=powers)
            spread = float(np.sum(powers)) * (1.0 + _gamma(cells + 1, _UNIT_ROUNDOFF))
        prefix, room = self._padded(0)
        spread *= self.window_error
        ahead_here = self._dot(powers[:cells], prefix[room : room + cells])
        behind_here = self._dot(powers[1:], prefix[room + 1 : room + 1 + cells])

        def at(reach: int) -> tuple[float, float]:
            k = min(reach, cells)
            prefix, room = self._padded(k)
            ahead = self._dot(powers[:cells], prefix[room + k : room + k + cells])
            behind = self._dot(powers[1:], prefix[room + 1 - k : room + 1 - k + cells])
            extra = spread + 2.0 * _TINY * k * self.total + math.ldexp(cells, -1072)
            try:
                scale = float(k) ** (p - 1.0) * self.relative
            except OverflowError:
                scale = math.inf
            ahead = ahead - ahead_here + self.dot_error * (ahead + ahead_here)
            behind = behind_here - behind + self.dot_error * (behind_here + behind)
            return tuple(
                _root_bound(total, self.space)
                for total in ((ahead + extra) * scale + lost, (behind + extra) * scale + lost)
            )

        return at

    def passing(self, j: int, reaches, threshold: float):
        """Member j's ring bounds below ``threshold`` as (K, bounds), up the
        increasing ``reaches`` to the first K that fails, and the bounds one
        cell inside the last of them, for ``resolve``.  The bounds grow about
        as K does, so past a pass the next K tried is the farthest at which
        that growth stays below the threshold; where that fails, the reaches
        are taken one at a time."""
        at, passed, reaches, i = self.member(j), [], list(reaches), 0
        while i < len(reaches):
            guess = i
            if passed:
                cells, bounds = passed[-1]
                far = cells * threshold / max(bounds) if max(bounds) > 0.0 else math.inf
                guess = max(i, bisect.bisect_right(reaches, far) - 1)
            bounds = at(reaches[guess])
            if max(bounds) < threshold:
                passed.append((reaches[guess], bounds))
                i = guess + 1
            elif guess > i:
                del reaches[guess:]
            else:
                break
        if passed and passed[-1][0] > 1:
            return passed, (passed[-1][0] - 1, at(passed[-1][0] - 1))
        return passed, (0, None)


def _root_bound(total: float, space: WeightedSpace) -> float:
    """A bound on the norm ``_array_norm`` returns, from a bound ``total`` on
    its power sum before the product with the cell volume: the ring bound's
    sum-to-norm step.  Where the sum times the cell volume lies in
    [``space._sum_floor``, max / 2], and so does the sum before it, the
    kernel takes its plain pass, and ``_sum_root`` raises that sum to the
    rounded 1 / p; the bound is ``total`` raised to that same exponent by the
    same pow, moved by ``_ROOT_SLACK``.  Anywhere else, NaN included, inf."""
    scaled = total * space.grid.cell_volume
    if space._sum_floor <= scaled and max(total, scaled) <= _HALF_MAX:
        return scaled ** (1.0 / space.p) * (1.0 + _ROOT_SLACK)
    return math.inf


def _gamma(n: int, unit: float) -> float:
    """Higham's gamma_n at the unit roundoff ``unit``."""
    return n * unit / (1.0 - n * unit)


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
    walk = _translation_scan(family, space, distinct, stencil)
    scan = {r: max(moduli()) for r, moduli in zip(distinct, walk)}
    trans = tuple((r, scan[r]) for r in radii)
    averaged = {r: averaged_modulus(family, space, r) for r in distinct if with_averaged}
    avg = tuple((r, averaged[r]) for r in radii) if with_averaged else ()
    return ModuliReport(
        bound=bound_modulus(family, space), tail=tail, translation=trans, averaged=avg
    )
