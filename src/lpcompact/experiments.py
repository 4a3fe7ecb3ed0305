"""Numerical studies: the embedding blow-up family and a completeness run.

The blow-up study measures how shrinking indicators defeat any uniform bound
of the plain integral by the weighted norm when the weight degenerates at the
origin: with weight |x|**(dim*(p-1)+1) the ratio of Lebesgue mass to weighted
norm of chi_{B(0,1/N)} grows like N**(1/p).  The completeness run builds a
telescoping Cauchy sequence with increment norms 2**-j and verifies the
classical bounds: the absolute-increment dominator stays at norm <= 1 and the
limit is approached at rate 2**(1-k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .grid import Grid, GridFunction, inside_mask
from .profiles import PowerLaw, sample
from .spaces import WeightedSpace, indicator_norm, weighted_norm

__all__ = [
    "indicator_mass_ratio",
    "blowup_ratio",
    "BlowupReport",
    "blowup_fit",
    "CompletenessReport",
    "completeness_run",
]


def _resolvable_radius(grid: Grid, n_value: int) -> float:
    if n_value < 1:
        raise ModelError("N must be a positive integer")
    radius = 1.0 / n_value
    cells = radius / grid.cell_side
    if not cells.is_integer() or cells < 1:
        raise ModelError(
            f"1/N = {radius!r} is not a positive multiple of the cell side "
            f"{grid.cell_side!r}; pick N a power of two within resolution"
        )
    return radius


def _weight_exponent(p: float, grid: Grid, weight_exponent: float | None) -> float:
    """The exponent given, or the critical one, dim*(p-1)+1, by default."""
    return grid.dim * (p - 1.0) + 1.0 if weight_exponent is None else weight_exponent


def indicator_mass_ratio(space: WeightedSpace, radius: float) -> float:
    """Lebesgue mass of the discrete ball indicator over its weighted norm."""
    mask = inside_mask(space.grid, radius, region="ball")
    numerator = float(np.count_nonzero(mask)) * space.grid.cell_volume
    denominator = indicator_norm(space, mask)
    if denominator == 0:
        raise ModelError("the indicator has zero weighted norm; the ratio diverges")
    return numerator / denominator


def blowup_ratio(p: float, grid: Grid, n_value: int, weight_exponent: float | None = None) -> float:
    """Ratio for chi_{B(0,1/N)} under the critical power weight.

    The default exponent dim*(p-1)+1 is exactly the degeneration that makes
    the ratio grow like N**(1/p); pass 0 to see the flat unweighted control.
    1/N must be an exact multiple of the cell side so the discrete indicator
    is the true ball and the numerator is exact.
    """
    if not p > 0:
        raise ModelError("p must be positive")
    radius = _resolvable_radius(grid, n_value)
    a = _weight_exponent(p, grid, weight_exponent)
    space = WeightedSpace(p, sample(PowerLaw(exponent=a), grid))
    return indicator_mass_ratio(space, radius)


@dataclass(frozen=True)
class BlowupReport:
    p: float
    dim: int
    weight_exponent: float
    rows: tuple[tuple[int, float], ...]  # (N, ratio)
    slope: float


def blowup_fit(p: float, grid: Grid, n_values, weight_exponent: float | None = None) -> BlowupReport:
    """Least-squares slope of log ratio against log N; needs >= 4 sizes."""
    n_values = [int(n) for n in n_values]
    if len(n_values) < 4:
        raise ModelError("a meaningful fit needs at least 4 values of N")
    a = _weight_exponent(p, grid, weight_exponent)
    rows = tuple((n, blowup_ratio(p, grid, n, a)) for n in n_values)
    logs_n = np.log([n for n, _ in rows])
    logs_r = np.log([r for _, r in rows])
    slope = float(np.polyfit(logs_n, logs_r, 1)[0])
    return BlowupReport(p=p, dim=grid.dim, weight_exponent=a, rows=rows, slope=slope)


@dataclass(frozen=True)
class CompletenessReport:
    """Measured bounds along a synthetic Cauchy telescope.

    ``tail_rows`` holds (k, bound, measured ||f - f_k||); ``dominator_rows``
    holds (m, bound, ||g_m||) for the running sum of absolute increments.
    """

    steps: int
    scale: float
    tail_rows: tuple[tuple[int, float, float], ...]
    dominator_rows: tuple[tuple[int, float, float], ...]
    dominator_finite: bool

    @property
    def passed(self) -> bool:
        ok_tails = all(measured <= bound + 1e-12 for _, bound, measured in self.tail_rows)
        ok_dom = all(norm <= bound + 1e-12 for _, bound, norm in self.dominator_rows)
        return ok_tails and ok_dom and self.dominator_finite


def completeness_run(
    space: WeightedSpace, seed: GridFunction, steps: int, scale: float = 1.0
) -> CompletenessReport:
    """Drive a telescoping Cauchy sequence toward ``seed`` and measure bounds.

    Increments are indicators of positive-weight cells scaled to norm exactly
    scale * 2**-j; the sequence is f_k = seed - sum_{j >= k} increment_j, so
    consecutive distances realise the geometric ladder.  Requires p >= 1: the
    bounds being verified are triangle-inequality consequences.  With scale 0
    every increment vanishes and every bound holds with equality 0.
    """
    if space.p < 1:
        raise ModelError("the completeness bounds rely on p >= 1")
    if steps < 2:
        raise ModelError("need at least two steps to exhibit the geometric ladder")
    if not scale >= 0:
        raise ModelError("scale must be nonnegative")
    if seed.grid != space.grid:
        raise ModelError("seed and space live on different grids")

    positive = np.flatnonzero(space.weight.values.reshape(-1) > 0)
    increments: list[GridFunction] = []
    for j in range(1, steps + 1):
        target = scale * 2.0 ** (-j)
        if target == 0.0 or positive.size == 0:
            increments.append(GridFunction.zeros(space.grid))
            continue
        cell = int(positive[(j - 1) % positive.size])
        values = np.zeros(space.grid.n_cells)
        values[cell] = 1.0
        u = GridFunction(space.grid, values.reshape(space.grid.shape))
        increments.append((target / weighted_norm(u, space)) * u)

    tail_rows = []
    for k in range(1, steps + 1):
        tail = increments[k - 1]
        for inc in increments[k:]:
            tail = tail + inc
        measured = weighted_norm(tail, space)
        tail_rows.append((k, scale * 2.0 ** (1 - k), measured))

    dominator_rows = []
    g = GridFunction.zeros(space.grid)
    for m in range(1, steps + 1):
        g = g + abs(increments[m - 1])
        bound = scale * (1.0 - 2.0 ** (-m))
        dominator_rows.append((m, bound, weighted_norm(g, space)))
    finite = bool(np.all(np.isfinite(g.values)))

    return CompletenessReport(
        steps=steps,
        scale=scale,
        tail_rows=tuple(tail_rows),
        dominator_rows=tuple(dominator_rows),
        dominator_finite=finite,
    )
