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
    _, moduli = next(_translation_scan(family, space, [radius], stencil))
    return max(moduli())


# a shift's float32 dot goes in blocks of at most this many cells of the
# last axis, one ``vecdot`` row each, summed by ``math.fsum``: each block
# then rounds within Higham's gamma of its length, and no dot is long enough
# for OpenBLAS to hand it to its threads, which can stall for milliseconds
_DOT_BLOCK = 2048
_UNIT_ROUNDOFF = 2.0**-53
# pow(total, 1 / p) in ``_sum_root`` is within an ulp of the real root, and
# pow of a bound within an ulp; 8 ulps cover both
_ROOT_SLACK = 2.0**-50
_HALF_MAX = sys.float_info.max / 2.0
# the per-term error ``_PowerScreen`` allows the kernel's np.power(x, p):
# relative to x**p, plus _TINY absolute (a flushed or inexact subnormal).
# libm's pow is within an ulp and numpy's SIMD loops within a few; 2**-40 is
# some 4,000 ulps
_POWER_SLACK = 2.0**-40
# the screen's float32 unit roundoff and smallest normal float32
_FLOAT32_ROUNDOFF = 2.0**-24
_FLOAT32_TINY = 2.0**-126
# the per-term error the screen allows float32 np.power(x, p) once p is
# rounded to float32: relative to x**p32, plus 2**-126 absolute.  numpy's
# float32 loops are within 2 u32
_FLOAT32_LOOP_SLACK = 8.0 * _FLOAT32_ROUNDOFF
# x ** (1 / p), with the exponent rounded (by at most 2**-54 at p >= 1), is
# within |ln x| * 2**-54 and an ulp of x**(1/p): under 2**-44 over the float
# range
_NORM_SLACK = 2.0**-44
# the screen scales members so that a difference's power is at most
# 2**_TERM_EXP; with weights below 2**49 a block of 2**11 terms sums below
# 2**112.5, inside float32
_TERM_EXP = 52.5
# a member the screen serves takes no power past 2**_KERNEL_EXP in the
# kernel, inside the range np.power's slack is pinned on
_KERNEL_EXP = 1021.5


def _translation_scan(
    family: Family, space: WeightedSpace, radii, stencil: str, threshold: float = math.inf
):
    """Walk up the nondecreasing ``radii`` and yield, after each, whether its
    translation modulus reaches ``threshold``, and a function that returns
    each member's modulus there, exactly, until the walk goes on: the one
    translation scan.  ``translation_modulus`` and ``measure_moduli`` walk it
    at threshold inf, where it never stops early, and ``select_mesh`` at its
    mesh threshold over the box levels.

    Each radius adds the ring of shifts the smaller radii lacked
    (``_shift_ring``).  Radii, then members, then shifts go in stencil order.
    At a finite threshold on a 1-D grid at p >= 1, each member's ring bounds
    (``_RingBound``) are taken first, up the reaches of the radii to the
    first that reaches the threshold, and a ring passes whole where the
    bounds at its reach or beyond, which cover every shift up to there, are
    below the threshold.  Every other ring takes bounds on each shift's
    exact norm from ``_PowerScreen``, shift by shift as the walk goes: a
    shift surely below the threshold passes, one surely at or above it
    fails, and ``_shift_norm`` measures any other.  The first radius is gone
    through in full; past it the first failing shift ends the walk before
    that radius is yielded, and the screen forms no powers past that shift's
    pair of k and -k.

    At the end of a radius each member keeps only the screened shifts whose
    upper bound reaches its largest lower bound so far.  That bound only
    rises, so the shift of the maximum stays, and the moduli are the largest
    exact norms among the kept shifts.  Reading them first resolves the
    shifts a member's ring bounds cover (``resolve``), then measures the kept
    shifts not measured yet and keeps the shifts of the maximum, with their
    norm as both bounds, so no (member, shift) is measured twice.  The result
    is that of the exact scan, bit for bit.
    """
    _check_space(family, space)
    grid = family.grid
    errors = np.geterr()
    # the kernel's buffer, and a cell past it for the ring bound's powers
    work = np.empty(grid.n_cells + 1)
    diff = work[:-1].reshape(grid.shape)
    radii = list(radii)
    # per member, the ring bounds below the threshold as (reach, bounds) up
    # the reaches of the radii, and the bounds one cell inside the last
    passing, inside = [[] for _ in family.members], [(0, None)] * len(family)
    bound = None
    if threshold < math.inf and grid.dim == 1 and space.p >= 1.0:
        bound = _RingBound(family, space, work)
        reaches = sorted({_shift_reach(grid, r) for r in radii if math.isfinite(r)} - {0})
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(len(family)):
                passing[j], inside[j] = bound.passing(j, reaches, threshold)
    screen = None

    def exact(j, k):
        return _shift_norm(family.members[j].values, k, space, diff, errors)

    def screened(reach, offsets) -> list:
        """Per member, the screen's enclosures over the ring ``offsets``."""
        nonlocal screen
        if screen is None or screen.room < reach:
            screen = _PowerScreen(family, space, reach, diff)
        return list(screen.enclosures(offsets))

    def resolve(j):
        """Fold the shifts member j's ring bounds cover, and which no reading
        has met, into its kept shifts.  The outer shift of the direction with
        the larger bound is measured, and the other direction's too unless
        its bound is below the top so far; the shifts inside are dropped
        where the bounds one cell in are below the top in both directions,
        and screened otherwise."""
        reach, bounds = covered[j]
        for high, k in sorted(zip(bounds, [(reach,), (-reach,)]), reverse=True):
            if high < top[j]:
                break
            norm = exact(j, k)
            kept[j].append((k, norm, norm))
            top[j] = max(top[j], norm)
        cells, bounds = inside[j]
        if reach - 1 > resolved[j] and not max(
            bounds if cells == reach - 1 else bound.member(j)(reach - 1)
        ) < top[j]:
            h = grid.cell_side
            offsets = _shift_ring(grid, resolved[j] * h, (reach - 1) * h, stencil)
            enclosures = screened(reach - 1, offsets)[j]
            ring = [(k, low, high) for k, (low, high) in zip(offsets, enclosures, strict=True)]
            top[j] = max((top[j], *(low for _, low, _ in ring)))
            kept[j] += ring
        kept[j] = [s for s in kept[j] if s[2] >= top[j]]
        resolved[j] = reach

    def confirm() -> tuple[float, ...]:
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(len(family)):
                if covered[j][0] > resolved[j]:
                    resolve(j)
                norms = [low if low == high else exact(j, k) for k, low, high in kept[j]]
                top[j] = max(norms)
                kept[j] = [(s[0], norm, norm) for s, norm in zip(kept[j], norms) if norm == top[j]]
        return tuple(top)

    # per member, the largest lower bound so far and the kept shifts, each
    # as (shift, lower bound, upper bound); a measured shift carries its norm
    # as both bounds.  Then the reach in cells the ring bounds cover with
    # their bounds there, and the reach up to which readings resolved them
    top, kept = [-math.inf] * len(family), [[] for _ in family.members]
    covered, resolved = [(0, None)] * len(family), [0] * len(family)
    inner = 0.0
    for n, radius in enumerate(radii):
        offsets = _shift_ring(grid, inner, radius, stencil)
        if not offsets and not n:
            raise ModelError(
                f"translation radius {radius} admits no nonzero grid shift "
                f"(cell side {grid.cell_side})"
            )
        reach = max(map(abs, itertools.chain.from_iterable(offsets)), default=0)
        rings, decided, fails = [[] for _ in family.members], {}, False
        enclosures = None
        with np.errstate(over="ignore", invalid="ignore"):
            # a radius that adds no shift loads no member into the screen
            for j in range(len(family)) if offsets else ():
                cover = next((b for cells, b in passing[j] if cells >= reach), None)
                if cover:
                    decided[j] = reach, cover
                    continue
                enclosures = enclosures or screened(reach, offsets)
                for k, (low, high) in zip(offsets, enclosures[j], strict=True):
                    if not high < threshold and not low >= threshold:
                        low = high = exact(j, k)
                    if not high < threshold:
                        if n:
                            return
                        fails = True
                    rings[j].append((k, low, high))
        for j, ring in enumerate(rings):
            top[j] = max((top[j], *(low for _, low, _ in ring)))
            kept[j] = [s for s in (*kept[j], *ring) if s[2] >= top[j]]
        for j, cover in decided.items():
            covered[j] = cover
        yield fails, confirm
        if fails:
            return
        inner = radius


class _RingBound:
    """Upper bounds on the norm ``_shift_norm`` returns at every shift of a
    1-D grid by 1 to K cells in one direction, one per member, direction and
    K: the bounds the translation scan passes whole rings by.

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
    - The kernel: its subtraction, within (1 + u)**p, its np.power and
      pairwise sum (``_PowerScreen``'s gamma), and the sum's underflows
      (``_PowerScreen``'s lost).  Where its sum falls below
      ``space._sum_floor``, ``_array_norm`` measures |d| / s again, with s =
      max|d| <= 2 max|f| on the weight's support, and its underflows weigh s**p
      times as much, so lost is taken max(1, (2 max|f|)**p) times; a member
      with that past the float range gets the bound inf, as its differences
      may not even be finite.  The kernel's root, s times the sum to the
      rounded 1 / p, lies within 2**-43 / p of the real root of its power
      sum, which the bound's sum covers with 2**-40 more.

    ``_root_bounds`` then raises the bound to 1 / p, and gives inf for a sum
    outside [``space._sum_floor``, max / 2], or an inf or NaN, which decides
    nothing.  Used under ``np.errstate(over="ignore", invalid="ignore")``.
    """

    def __init__(self, family: Family, space: WeightedSpace, work: np.ndarray):
        cells, p, u = family.grid.n_cells, space.p, _UNIT_ROUNDOFF
        weight = space.weight.values
        # the kernel's buffer and a cell past it, free between the kernel's
        # calls, holds one member's powers from ``member`` to its last ``at``
        self.family, self.space, self.powers = family, space, work
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
        sixteenth of the grid as the screen's pad is, and that room."""
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
        return math.fsum(np.vecdot(a.reshape(rows), b.reshape(rows)).tolist())

    def member(self, j: int):
        """Form member j's differences and return the function that gives,
        per K, the bounds on the norms of its shifts by 1 to K and by -1 to
        -K cells: it reads the shared buffers, so only until the next member
        is formed."""
        f = self.family.members[j].values
        cells, p, powers = f.size, self.space.p, self.powers
        try:
            lost = self.lost * max(1.0, (2.0 * max(float(np.max(f)), -float(np.min(f)))) ** p)
        except OverflowError:
            lost = math.inf
        if lost == math.inf:
            return lambda reach: (math.inf, math.inf)
        powers[0], powers[cells] = f[0], -f[-1]
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
        prefix, room = self._padded(0)
        spread = float(np.sum(powers)) * (1.0 + _gamma(cells + 1, _UNIT_ROUNDOFF))
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
                _root_bounds(total, total, self.space)[1]
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


class _PowerScreen:
    """Enclosures of the norms the exact kernel computes, for a whole ring
    of shifts of one member at a time: the bounds the translation scan
    decides from where ring bounds do not.  Each shift is screened in
    float32, the same way at every p >= 1.

    N(g) = (sum_x w(x) |g(x)|**p)**(1/p) is the weighted norm, a norm at
    p >= 1, and N_1 the unweighted one.  The weight is scaled by 2**-s (max w
    2**-s in [2**48, 2**49)), and member j by 2**-t: t is the least multiple
    of q that puts max|f| 2**-t below 2**m, m = floor(52.5 / p) - 1, where q
    is the denominator of p if that is at most 8 (p t is then an integer) and
    1 otherwise.  So a scaled difference's power is at most 2**52.5
    (``_TERM_EXP``).  A scaled value or weight below 2**-126 is flushed to 0,
    so that float32 never runs on a subnormal input (a member is checked for
    such values once), and the rest are rounded to float32 once.  All that
    follows is in these scaled units; a sum goes back by the factor 2**(p t
    + s), exactly where p t + s is an integer and otherwise as a power of two
    times a float within 2**-51 of 2**frac(p t + s).  The window at room - k
    of the zero-padded member holds f(x - k).  Each pair of shifts k and -k
    takes the difference d' of the windows at k and 0 over the grid and the
    grid moved by k, and its power (|d'| at p = 1, d' d' at 2, |d'| sqrt|d'|
    at 1.5, d' d' |d'| at 3, float32 np.power at any other p); since
    d'_-k(x) = -d'_k(x + k) in float32 too, k reads its terms over the grid
    and -k over the grid moved by k (``windows``).  Each shift's sum is a dot
    with the weight in blocks of the last axis (one ``vecdot``), whose sums
    ``math.fsum`` adds with one rounding.

    - Minkowski.  The member's rounding e_j = fl32(f) - f (flushes included)
      is exact in float64, and d' - d, against the kernel's float64
      difference d, is e_j(x - k) - e_j(x), plus the roundings of the two
      subtractions (u32 = 2**-24 of |d'|, u of |d|) and, should a
      flush-to-zero mode take a subnormal d' to 0, 2**-126.  N(e_j) and
      N(e_j(. - k)) are at most (max w)**(1/p) N_1(e_j), so |N(d') - N(d)|
      <= N(d' - d) <= 2 u32 N(d') + rho_j, with one number per member rho_j
      = 2 (max w)**(1/p) N_1(e_j) + 2**-126 (N max w)**(1/p) over the N
      cells, with N_1(e_j) bounded from above as np.power's slack allows.
      Cancellation in d costs nothing: rho_j does not depend on the shift.
    - The float32 sum S.  The roundings of the weight, the power (at most
      two IEEE operations, or np.power within ``_FLOAT32_LOOP_SLACK`` of
      x**p32 for p rounded to float32, p32, and x**p32 within 2**(150 |p32 -
      p|) - 1 of x**p over the float32 range) and a block's dot (any order),
      and the rounding of the sum of the blocks (within Higham's bound for a
      float64 sum of them), put the real sum of w |d'|**p within
      ``spread`` S of S (Higham, Accuracy and Stability, 3.1), up to
      ``underflow``: a float32 result that underflows, even to 0, is off by
      at most 2**-126, and a weight flushed to 0 drops a term below 2**-126
      |d'|**p <= 2**-73.5.
    - The kernel.  np.power is taken to be within ``_POWER_SLACK`` (eta) of
      |d|**p plus ``_TINY`` per term, and the kernel rounds each power times
      w once and sums pairwise: within ``gamma`` = 2 eta + 8 (N + 4) u / (1 -
      (N + 4) u) of the real sum N(d)**p, which also covers the roundings of
      the bound itself, up to ``lost``, four times the underflow of N cells.

    So N(d) lies in [n_lo, n_hi] (``_norm_bounds``), n_lo = ((S - underflow)
    (1 - spread))**(1/p) (1 - 3 u32) - rho_j and n_hi = ((S + underflow)
    (1 + 2 spread))**(1/p) (1 + 3 u32) + rho_j, and the kernel's sum within
    gamma of [max(n_lo, 0)**p, n_hi**p], up to lost; ``_root_bounds`` turns
    that enclosure into bounds on the norm.  Where the allowances are far
    below the sum, the bounds on the norm are within 2 rho_j (cell_volume
    2**(p t + s))**(1/p) + (3 / p + 1) spread hi of each other.

    A member with max|f| above 2**(1021.5 / p - 1) (2**680 at p = 1.5) could
    take a power past 2**1021.5 (``_KERNEL_EXP``) in the kernel, so it gets
    the bounds -inf and inf at every shift.  So does every member at p < 1,
    where N is no norm, and wherever p (m - q) < -126 (at every p above 63),
    where a member's scaled powers may all fall below float32's range; and
    so does any shift not vouched for.  A member is set up, t and rho_j, the
    first time it is screened (``members``), with its rounding measured in
    the kernel's buffer.  Used under ``np.errstate(over="ignore",
    invalid="ignore")``.
    """

    def __init__(self, family: Family, space: WeightedSpace, reach: int, diff: np.ndarray):
        grid, p = family.grid, space.p
        cells = grid.n_cells
        self.family, self.space, self.room = family, space, max(reach, min(grid.shape) // 16)
        # the kernel's buffer, free between its calls: the set-up's scratch
        self.scratch = diff
        # per member set up, t, whether its scaled values need flushing, the
        # whole and the fractional part of p t + s, and rho_j; None for a
        # member the screen does not serve
        self.members = {}
        self.ratio = p.as_integer_ratio()
        self.step = self.ratio[1] if self.ratio[1] <= 8 else 1
        self.m = math.floor(_TERM_EXP / p) - 1
        self.served = not (p < 1.0 or p * (self.m - self.step) < -126)
        if not self.served:
            return
        padded = tuple(size + 2 * self.room for size in grid.shape)
        self.pad = np.zeros(padded, dtype=np.float32)
        self.interior = tuple(slice(self.room, self.room + size) for size in grid.shape)
        # the powers |d'|**p and the roots, laid out as the padded member
        self.terms, self.roots = np.empty((2, *padded), dtype=np.float32)
        # the weight times 2**-s, flushed and rounded
        heaviest = float(np.max(space.weight.values))
        self.s = math.frexp(heaviest)[1] - 49
        top = math.ldexp(heaviest, -self.s)
        weight = np.ldexp(space.weight.values, -self.s, out=np.empty(grid.shape, np.float32))
        weight[weight < _FLOAT32_TINY] = 0.0
        # the blocks split the last axis
        block = math.gcd(grid.shape[-1], _DOT_BLOCK)
        self.weight = weight.reshape(*grid.shape[:-1], -1, block)
        # np.power's error at p outside the four IEEE forms, p32 - p included
        power32 = 0.0
        if p not in (1.0, 1.5, 2.0, 3.0):
            power32 = _float32_power_slack(p)
        self.spread = (
            _gamma(block + 4, _FLOAT32_ROUNDOFF) + 2.0 * power32
            + 2.0 * _gamma(cells // block + 4, _UNIT_ROUNDOFF)
        )
        self.underflow = math.ldexp(cells, -72)
        self.gamma = 2.0 * _POWER_SLACK + 8.0 * _gamma(cells + 4, _UNIT_ROUNDOFF)
        self.lost = math.ldexp(cells, -1019) * (heaviest + 1.0)
        # (max w)**(1/p), the flush allowance 2**-126 (N max w)**(1/p), and
        # what lifts a sum of N np.power terms above their real sum
        root = 1.0 / p
        self.lift = top**root * (1.0 + _NORM_SLACK)
        self.flush = _FLOAT32_TINY * (cells * top) ** root * (1.0 + _NORM_SLACK)
        self.above = 1.0 + 2.0 * _POWER_SLACK + _gamma(cells, _UNIT_ROUNDOFF)
        self.cap = 2.0 ** (_KERNEL_EXP / p - 1.0)

    def _member(self, j: int):
        """Member j's set-up, made the first time it is asked for."""
        if j not in self.members:
            self.members[j] = self._set_up(self.family.members[j].values) if self.served else None
        return self.members[j]

    def _set_up(self, values: np.ndarray):
        """t, the flush flag, p t + s split and rho_j of a member with these
        ``values``, or None past the cap."""
        p, cells, scratch = self.space.p, self.family.grid.n_cells, self.scratch
        size = np.abs(values, out=scratch)
        big = float(np.max(size))
        if big > self.cap:
            return None
        t = self.step * math.ceil((math.frexp(big)[1] - self.m) / self.step)
        flushes = bool(np.any(values[size < math.ldexp(_FLOAT32_TINY, t)]))
        # the rounding, against the scaled values in float64
        rounded = self._load(values, t, flushes)
        error = np.subtract(rounded, np.ldexp(values, -t, out=scratch), out=scratch)
        np.abs(error, out=error)
        np.power(error, p, out=error)
        plain = ((float(np.sum(error)) + cells * _TINY) * self.above) ** (1.0 / p)
        rho = 2.0 * self.lift * plain * (1.0 + _NORM_SLACK) + self.flush
        numerator, denominator = self.ratio
        whole, part = divmod(numerator * t + self.s * denominator, denominator)
        return t, flushes, whole, part / denominator, rho * (1.0 + _NORM_SLACK)

    def _load(self, values: np.ndarray, t: int, flushes: bool) -> np.ndarray:
        """Put ``values`` times 2**-t, rounded, into the padded buffer, with
        the values below 2**-126 flushed to 0 where ``flushes``; return its
        interior.  np.ldexp scales in float64 and casts into the float32 pad,
        rounding each scaled value once."""
        rounded = np.ldexp(values, -t, out=self.pad[self.interior], casting="same_kind")
        if flushes:
            scratch = self.terms[self.interior]
            np.copyto(rounded, 0.0, where=np.abs(rounded, out=scratch) < _FLOAT32_TINY)
        return rounded

    def _powers(self, terms: np.ndarray, roots: np.ndarray) -> None:
        """Replace the float32 differences ``terms`` by |terms|**p, with
        ``roots`` (of their shape) as scratch."""
        p = self.space.p
        if p == 2.0:
            np.multiply(terms, terms, out=terms)
            return
        np.abs(terms, out=terms)
        if p == 1.5:
            np.sqrt(terms, out=roots)
            np.multiply(terms, roots, out=terms)
        elif p == 3.0:
            np.multiply(terms, terms, out=roots)
            np.multiply(terms, roots, out=terms)
        elif p != 1.0:
            np.power(terms, p, out=terms)

    def windows(self, offsets) -> list:
        """Per shift k of the first half of ``offsets``, a ring in the layout
        of ``_shift_ring``, the views that form |d'_k|**p once for k and -k:
        the padded member at x - k and at x, and the powers and roots, over
        the union of the grid and the grid moved by k; and the powers over
        each of the two, in the weight's blocks."""
        room, shape = self.room, self.family.grid.shape

        def blocks(k):
            window = self.terms[tuple(slice(room + a, room + a + n) for a, n in zip(k, shape))]
            return window.reshape(self.weight.shape, copy=False)

        here = blocks((0,) * len(shape))
        views = []
        for k in offsets[: len(offsets) // 2]:
            union = tuple(slice(room + min(a, 0), room + n + max(a, 0)) for a, n in zip(k, shape))
            moved = tuple(slice(u.start - a, u.stop - a) for u, a in zip(union, k))
            views.append((
                self.pad[moved], self.pad[union], self.terms[union], self.roots[union],
                here, blocks(k),
            ))
        return views

    def _norm_bounds(self, j: int, windows):
        """Bounds on N(d), in scaled units, for member j at each shift of the
        ring whose first half gave ``windows``: the first half's shifts in
        order, then their negations in reverse, as ``_shift_ring`` lays out."""
        t, flushes, _, _, rho = self.members[j]
        self._load(self.family.members[j].values, t, flushes)
        root, underflow, spread = 1.0 / self.space.p, self.underflow, self.spread

        def bounds(terms):
            screened = math.fsum(np.vecdot(self.weight, terms).ravel().tolist())
            low = (screened - underflow) * (1.0 - spread)
            high = (screened + underflow) * (1.0 + 2.0 * spread)
            low = low**root * (1.0 - 3.0 * _FLOAT32_ROUNDOFF) if low > 0.0 else 0.0
            return low - rho, high**root * (1.0 + 3.0 * _FLOAT32_ROUNDOFF) + rho

        negated = []
        for moved, values, terms, roots, here, there in windows:
            np.subtract(moved, values, out=terms)
            self._powers(terms, roots)
            negated.append(bounds(there))
            yield bounds(here)
        yield from reversed(negated)

    def enclosures(self, offsets):
        """Per member, a generator of the lower and upper bounds on the
        kernel's norm at each shift of the ring ``offsets`` as pairs, each
        computed as taken; a member is set up, loaded and screened only as
        its generator runs."""
        views = []
        for j in range(len(self.family)):
            yield self._enclose(j, offsets, views)

    def _enclose(self, j: int, offsets, views: list):
        member = self._member(j)
        if member is None:
            yield from itertools.repeat((-math.inf, math.inf), len(offsets))
            return
        # the ring's windows, formed for the first member screened
        if not views:
            views.extend(self.windows(offsets))
        p, (_, _, whole, part, _) = self.space.p, member
        # 2**part, as a float within 2**-51 of it
        fraction = 2.0**part
        slack = 4.0 * _ROOT_SLACK if part else _ROOT_SLACK
        for n_lo, n_hi in self._norm_bounds(j, views):
            try:
                e_lo = math.ldexp(max(n_lo, 0.0) ** p * (fraction * (1.0 - slack)), whole)
                e_hi = math.ldexp(n_hi**p * (fraction * (1.0 + slack)), whole)
            except OverflowError:
                e_lo, e_hi = 0.0, math.inf
            low = e_lo - self.gamma * e_lo - self.lost
            yield _root_bounds(low, e_hi + self.gamma * e_hi + self.lost, self.space)


def _root_bounds(low: float, high: float, space: WeightedSpace) -> tuple[float, float]:
    """Bounds on the norm ``_shift_norm`` returns, from bounds ``low`` <=
    ``high`` on its power sum before the product with the cell volume, the
    one sum-to-norm step of both the screen and the ring bound.  Where the
    sum times the cell volume surely lies in [``space._sum_floor``, max / 2],
    and so does the sum before it, the kernel takes its plain pass, and
    ``_sum_root`` raises that sum to the rounded 1 / p; the bounds are the
    enclosure raised to that same exponent by the same pow, each moved by
    ``_ROOT_SLACK``.  Anywhere else, NaN included, -inf and inf."""
    cell_volume = space.grid.cell_volume
    lo, hi = low * cell_volume, high * cell_volume
    if space._sum_floor <= lo and max(high, hi) <= _HALF_MAX:
        exponent = 1.0 / space.p
        return lo**exponent * (1.0 - _ROOT_SLACK), hi**exponent * (1.0 + _ROOT_SLACK)
    return -math.inf, math.inf


def _float32_power_slack(p: float) -> float:
    """The relative error the screen allows float32 np.power(x, p) over the
    float32 range, |log2 x| <= 150: numpy rounds p to float32, p32, which
    moves x**p by at most 2**(150 |p32 - p|) - 1, and its loop is within
    ``_FLOAT32_LOOP_SLACK`` of x**p32."""
    return math.expm1(150.0 * math.log(2.0) * abs(float(np.float32(p)) - p)) + _FLOAT32_LOOP_SLACK


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
    walk = _translation_scan(family, space, distinct, stencil)
    scan = {r: max(moduli()) for r, (_, moduli) in zip(distinct, walk)}
    trans = tuple((r, scan[r]) for r in radii)
    averaged = {r: averaged_modulus(family, space, r) for r in distinct if with_averaged}
    avg = tuple((r, averaged[r]) for r in radii) if with_averaged else ()
    return ModuliReport(
        bound=bound_modulus(family, space), tail=tail, translation=trans, averaged=avg
    )
