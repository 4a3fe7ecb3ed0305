"""Weighted Lp norms on grids, lattice axiom checks and Muckenhoupt constants.

The weight is an arbitrary nonnegative grid function; zeros are allowed and
every operation states how it treats cells of zero weighted measure.  For
p < 1 the same formula defines a quasi-norm and the checks that rely on the
triangle inequality refuse to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelError
from .grid import (
    DyadicPartition,
    Grid,
    GridFunction,
    _block_view,
    _per_cube,
    inside_mask,
)
from .profiles import sample

__all__ = [
    "WeightedSpace",
    "AxiomCheck",
    "AxiomReport",
    "Witness",
    "weighted_norm",
    "indicator_norm",
    "check_lattice_axioms",
    "finiteness_witness",
    "l1_embedding_constant",
    "l1_embedding_sweep",
    "ap_constant",
    "a1_constant",
]

# a Python float, so that a bound formed from it overflows to inf quietly,
# where a numpy scalar's product would raise an overflow warning
_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class WeightedSpace:
    """Lp space over a grid with a nonnegative cellwise weight."""

    p: float
    weight: GridFunction

    def __post_init__(self):
        if not (self.p > 0 and math.isfinite(self.p)):
            raise ModelError(f"exponent p must be positive and finite, got {self.p}")
        if np.any(self.weight.values < 0):
            raise ModelError("weight must be nonnegative")

    @property
    def grid(self) -> Grid:
        return self.weight.grid

    @property
    def conjugate(self) -> float:
        if self.p <= 1:
            raise ModelError("conjugate exponent needs p > 1")
        return self.p / (self.p - 1.0)

    @cached_property
    def _sum_floor(self) -> float:
        """The smallest power sum a plain pass over |v|^p * weight vouches for.

        A power or product that underflows is off by at most 2**-1074 times
        the cell's weight, or 2**-1074, so the terms lost to underflow move
        the sum by at most 2**-1074 * (max weight + 1) * cells * cell_volume;
        at or above this floor that is half an ulp of the sum.
        """
        grid = self.grid
        per_cell = math.ldexp(float(np.max(self.weight.values)) + 1.0, -1021)
        return max(_TINY, per_cell * grid.n_cells * grid.cell_volume)


def _array_norm(values: np.ndarray, space: WeightedSpace, write=None) -> float:
    """The weighted norm of a raw array of the grid's shape, in two passes:
    the one norm kernel.

    The plain pass forms the terms |v|^p * weight, every float that of
    ``np.abs(v) ** p * weight``: in one fresh array, leaving ``values``
    untouched, or, given ``write``, a function of no arguments that fills
    ``values``, a buffer the caller owns, over that buffer in place after
    ``write()``.  The sum is rooted where it lies in [``space._sum_floor``,
    inf).  A sum below the floor, zero included, one that overflows and a
    NaN go to ``_exponent_norm``, after ``write()`` again where the terms
    took the buffer; it carries each term's binary exponent apart and raises
    ``ModelError`` on a non-finite entry, as a ``GridFunction`` does; so does
    a norm beyond float range.
    """
    if write is not None:
        write()
    # this pass may overflow, or meet inf * 0: the exponent pass takes both
    with np.errstate(over="ignore", invalid="ignore"):
        total = _weighted_power_sum(values, space, None if write is None else values)
    if space._sum_floor <= total < math.inf:
        return _sum_root(total, space)
    if write is not None:
        write()
    return _exponent_norm(values, space)


def _weighted_power_sum(
    values: np.ndarray, space: WeightedSpace, out: np.ndarray | None = None
) -> float:
    """sum |v|^p * weight * cell_volume, with the terms formed in ``out``
    (``_array_norm`` passes ``values``) or in one fresh array.  At p = 2 the
    signed values are squared: the same bits as squaring |v|, one pass fewer."""
    if space.p == 2.0:
        # the same bits as np.power(np.abs(values), 2.0), in a third of the time
        terms = np.square(values, out=out)
    else:
        terms = np.abs(values, out=out)
        np.power(terms, space.p, out=terms)
    np.multiply(terms, space.weight.values, out=terms)
    return np.sum(terms) * space.grid.cell_volume


def _sum_root(total: float, space: WeightedSpace) -> float:
    """``total ** (1/p)``: the norm whose power sum is ``total``; a norm
    beyond float range raises ``ModelError``."""
    # in Python floats: pow is libm's, as in numpy, but raises on overflow
    try:
        return float(total) ** (1.0 / space.p)
    except OverflowError:
        raise ModelError(f"a norm at p = {space.p} exceeds the float range") from None


def _mantissa_power(m: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray | int]:
    """``m ** p`` for m in [1/2, 1) as a mantissa in [2**-256, 1] times 2 to
    an integer exponent.  Above p = 256 the power is taken in chunks of 256,
    p = 256 * n + rem, each chunk renormalised by ``np.frexp`` so that none
    underflows; the chunks' rounding errors add up to about p / 512 ulps,
    which the root divides by p again."""
    if p <= 256:
        return np.power(m, p), 0
    rem = math.fmod(p, 256.0)
    chunk, chunk_exp = np.frexp(np.power(m, 256.0))
    mant, exp = _mantissa_power(chunk, (p - rem) / 256.0)
    mant, rem_exp = np.frexp(mant * np.power(m, rem))
    return mant, exp + chunk_exp * ((p - rem) / 256.0) + rem_exp


def _exponent_norm(values: np.ndarray, space: WeightedSpace) -> float:
    """The norm with each term |v|^p * weight held as a mantissa in about
    [2**-256, 2] times an exact power of two, so no term over- or underflows
    before the largest is scaled to one; the root splits its exponent the
    same way.  A few ulps from the exact norm at any p.  A non-finite entry,
    of any weight, raises ``ModelError``; with no nonzero entry of positive
    weight the norm is 0.0.
    """
    if not np.all(np.isfinite(values)):
        raise ModelError("grid function values must be finite")
    p = space.p
    weight = space.weight.values
    keep = (weight > 0) & (values != 0)
    if not np.any(keep):
        return 0.0
    mv, ev = np.frexp(np.abs(values[keep]))
    mw, ew = np.frexp(weight[keep])
    # p * ev as k + f with integer k: p_hi has 40 bits, so p_hi * ev is exact
    m, e = math.frexp(p)
    p_hi = math.ldexp(math.floor(math.ldexp(m, 40)), e - 40)
    k = np.floor(p_hi * ev)
    f = (p_hi * ev - k) + (p - p_hi) * ev
    carry = np.floor(f)
    power, power_exp = _mantissa_power(mv, p)
    k += carry + ew + power_exp
    terms = power * np.exp2(f - carry) * mw
    top = np.max(k)
    total = np.sum(np.ldexp(terms, np.maximum(k - top, -1100).astype(np.int64)))
    # norm = (total * 2**shift) ** (1/p), with shift = q * p + r exactly
    shift = top + space.grid.cell_exp * space.grid.dim
    r = math.fmod(shift, p)
    q = round((shift - r) / p)
    try:
        return math.ldexp(float(total) ** (1.0 / p) * 2.0 ** (r / p), q)
    except OverflowError:
        raise ModelError(f"a norm at p = {p} exceeds the float range") from None


def weighted_norm(f: GridFunction, space: WeightedSpace) -> float:
    """(sum |f|^p * weight * cell_volume) ** (1/p); a quasi-norm for p < 1."""
    if f.grid != space.grid:
        raise ModelError("function and space live on different grids")
    return _array_norm(f.values, space)


def indicator_norm(space: WeightedSpace, mask: np.ndarray) -> float:
    """Norm of the indicator of a union of cells."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != space.grid.shape:
        raise ModelError("mask shape does not match the grid")
    # a sum of weights is exact to rounding wherever it is in range
    with np.errstate(over="ignore"):
        total = np.sum(space.weight.values[mask]) * space.grid.cell_volume
    if total == 0.0 or _TINY <= total < math.inf:
        return _sum_root(total, space)
    return _exponent_norm(mask.astype(np.float64), space)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_lattice_axioms(space, probes, chains=()) -> AxiomReport:
    """Verify the norm-lattice axioms on finite probe material.

    * definiteness: norm vanishes iff the probe vanishes off the null cells
      (zero weighted measure); probes that are nonzero only on null cells pass
      and the detail records the fact.
    * absolute value: the norm of |f| equals the norm of f.
    * monotonicity: for every probe pair with 0 <= g <= f pointwise the norms
      are ordered; pairs are discovered by scanning the probe list.
    * monotone limits: each chain must rise pointwise and its norms must rise
      to the norm of the pointwise supremum.
    """
    null = space.weight.values == 0
    checks = []
    norms = [weighted_norm(f, space) for f in probes]

    failed = None
    noted = ""
    for idx, (f, nrm) in enumerate(zip(probes, norms)):
        ae_zero = bool(np.all(f.values[~null] == 0))
        if (nrm == 0.0) != ae_zero:
            failed = f"probe {idx}: norm {nrm!r} vs a.e.-zero {ae_zero}"
            break
        if nrm == 0.0 and np.any(f.values != 0):
            noted = f"probe {idx} is nonzero only on weight-null cells"
    checks.append(AxiomCheck("definiteness", failed is None, failed or noted))

    failed = None
    for idx, (f, nrm) in enumerate(zip(probes, norms)):
        if weighted_norm(abs(f), space) != nrm:
            failed = f"probe {idx}: norm changed under absolute value"
            break
    checks.append(AxiomCheck("absolute_value", failed is None, failed or ""))

    failed = None
    n_pairs = 0
    for i, g in enumerate(probes):
        if np.any(g.values < 0):
            continue
        for j, f in enumerate(probes):
            if i == j or not np.all(g.values <= f.values):
                continue
            n_pairs += 1
            if norms[i] > norms[j]:
                failed = f"probes {i} <= {j} but norms are not ordered"
                break
        if failed:
            break
    checks.append(
        AxiomCheck("monotonicity", failed is None, failed or f"{n_pairs} ordered pairs checked")
    )

    failed = None
    for c_idx, chain in enumerate(chains):
        seq = list(chain)
        if not seq:
            continue
        prev_vals = None
        prev_norm = 0.0
        for s_idx, f in enumerate(seq):
            if prev_vals is not None and np.any(f.values < prev_vals):
                failed = f"chain {c_idx} is not pointwise nondecreasing at step {s_idx}"
                break
            nrm = weighted_norm(f, space)
            if nrm < prev_norm * (1 - 1e-12):
                failed = f"chain {c_idx}: norms decreased at step {s_idx}"
                break
            prev_vals, prev_norm = f.values, nrm
        if failed:
            break
        # on a finite grid the supremum of a monotone chain is its last element;
        # recompute it as a pointwise max so a wrong chain cannot slip through
        sup = np.maximum.reduce([f.values for f in seq])
        limit_norm = weighted_norm(GridFunction(space.grid, sup), space)
        if not math.isclose(prev_norm, limit_norm, rel_tol=1e-12, abs_tol=1e-300):
            failed = f"chain {c_idx}: norms rise to {prev_norm!r} but the supremum has norm {limit_norm!r}"
            break
    checks.append(AxiomCheck("monotone_limits", failed is None, failed or ""))

    return AxiomReport(tuple(checks))


@dataclass(frozen=True)
class Witness:
    cell: tuple[int, ...]
    center: tuple[float, ...]


def finiteness_witness(space: WeightedSpace, f: GridFunction, mask: np.ndarray) -> Witness:
    """A cell of positive weight in the set where f is finite.

    Grid functions are finite everywhere by construction, so the witness is
    the first positive-weight cell of the set in row-major order; it realises
    the principle that a finite weighted norm forces finiteness somewhere on
    every set of nonzero indicator norm.  Sets of zero indicator norm admit no
    witness and are rejected.
    """
    mask = np.asarray(mask, dtype=bool)
    if f.grid != space.grid or mask.shape != space.grid.shape:
        raise ModelError("witness arguments live on different grids")
    if indicator_norm(space, mask) == 0.0:
        raise ModelError("the set has zero weighted measure; no witness exists")
    eligible = mask & (space.weight.values > 0)
    flat = int(np.flatnonzero(eligible.reshape(-1))[0])
    cell = tuple(int(i) for i in np.unravel_index(flat, space.grid.shape))
    axis = space.grid.axis_centers()
    return Witness(cell=cell, center=tuple(float(axis[i]) for i in cell))


def l1_embedding_constant(space: WeightedSpace, mask: np.ndarray) -> float:
    """Discrete dual mass controlling integral-versus-norm comparison on a set.

    For p > 1 this is sum_A weight**(1 - p') * cell_volume (a proxy for the
    p'-th power of the best constant in int_A |f| <= C(A) ||f||); for p = 1 it
    is the essential sup of 1/weight on the set.  Weight zeros inside the set
    produce +inf, the honest report of failure.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != space.grid.shape:
        raise ModelError("mask shape does not match the grid")
    w = space.weight.values[mask]
    if w.size == 0:
        return 0.0
    with np.errstate(divide="ignore"):
        if space.p == 1.0:
            return float(np.max(np.where(w > 0, 1.0 / w, np.inf)))
        dual = w ** (1.0 - space.conjugate)
    return float(np.sum(dual) * space.grid.cell_volume)


def l1_embedding_sweep(
    weight_profile,
    p: float,
    dim: int,
    box_level: int,
    cell_exps,
    region_radius: float,
    region: str = "ball",
) -> list[float]:
    """Dual mass of a fixed region under grid refinement.

    Boundedness along the sweep indicates the embedding constant is finite;
    steady geometric growth is the discrete signature of divergence.
    """
    out = []
    for ce in cell_exps:
        grid = Grid(dim=dim, box_level=box_level, cell_exp=ce)
        space = WeightedSpace(p, sample(weight_profile, grid))
        out.append(l1_embedding_constant(space, inside_mask(grid, region_radius, region)))
    return out


def _dyadic_partitions(grid: Grid):
    """The box cut into grid-aligned dyadic cubes, one partition per scale."""
    return (
        DyadicPartition(grid, grid.box_level, i)
        for i in range(grid.cell_exp, grid.box_level + 1)
    )


def ap_constant(weight: GridFunction, p: float) -> float:
    """Max over dyadic cubes of (avg w)^(1/p) (avg w^(1-p'))^(1/p').

    Each cube is evaluated in normalized form, mean((w / avg w)^(1-p'))^(1/p'),
    which is algebraically identical and makes constant weights give exactly
    1.0: the normalization is cellwise x/x = 1.0, so the dual mean is a sum of
    exact ones.  Cubes where the weight vanishes identically report +inf, as
    does a dual average that diverges because of isolated zeros.
    """
    if p <= 1:
        raise ModelError("ap_constant needs p > 1")
    pc = p / (p - 1.0)
    dual_exp = 1.0 - pc
    best = 0.0
    for part in _dyadic_partitions(weight.grid):
        blocks = _block_view(weight.values, part)
        axes = (1,) if part.grid.dim == 1 else (1, 3)
        sel = (slice(None), None) if part.grid.dim == 1 else (slice(None), None, slice(None), None)
        wavg = blocks.mean(axis=axes)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.mean((blocks / wavg[sel]) ** dual_exp, axis=axes)
            vals = np.where(wavg > 0, ratio ** (1.0 / pc), np.inf)
        best = max(best, float(np.max(vals)))
    return best


def a1_constant(weight: GridFunction) -> float:
    """Max over dyadic cubes of (avg w) / (min w); +inf when the min is zero."""
    best = 0.0
    for part in _dyadic_partitions(weight.grid):
        wavg = _per_cube(weight.values, part, np.mean)
        wmin = _per_cube(weight.values, part, np.min)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(wmin > 0, wavg / wmin, np.where(wavg > 0, np.inf, 1.0))
        best = max(best, float(np.max(vals)))
    return best
