"""Construction and independent validation of finite epsilon-nets.

The builder follows the constructive recipe behind the compactness criteria:
split the target epsilon into three equal budgets, spend the first on
truncation to a dyadic box (smallest level whose tail modulus fits), the
second on projection onto cube averages (coarsest dyadic mesh whose
translation modulus fits a 2**-dim share of the budget, which the projection
inflates by at most 2**dim), and the third on rounding the finitely many cube
coefficients to a step lattice.  Every stage is measured, not assumed: the
certificate stores the realised budget and the validator recomputes all
member-to-net distances from scratch.

For weights that vanish on whole cubes the projector has a dedicated variant
that pins those coefficients to zero; the norm cannot see values supported on
weight-null cubes, so the error budget is unaffected.
"""

from __future__ import annotations

import json
import math
import struct
import sys
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import HypothesisError, ModelError, SpecFileError
from .grid import (
    DyadicPartition,
    Grid,
    GridFunction,
    _block_view,
    _first_positive_cells,
    _frozen,
    _kept,
    all_cube_averages,
    inside_mask,
)
from .moduli import Family, _translation_scan, tail_modulus, translation_modulus
from .spaces import WeightedSpace, _array_norm, indicator_norm
from .specfile import _number, _record, _require_keys

__all__ = [
    "EpsilonBudget",
    "NetPlan",
    "NetCertificate",
    "PowerTransferRecord",
    "ValidationReport",
    "select_tail_level",
    "select_mesh",
    "cube_projection",
    "expand_coefficients",
    "projection_error",
    "quantize_net",
    "build_certificate",
    "validate_certificate",
    "certificate_to_dict",
    "certificate_from_dict",
    "save_certificate",
    "load_certificate",
]

VARIANTS = ("banach", "vanishing")
# the order of every per-cube list, as the certificate document states it
_CUBE_ORDER = "row-major by cube corner"


@dataclass(frozen=True)
class EpsilonBudget:
    """Measured worst-case contribution of each stage; each must stay below
    a third of the target epsilon."""

    tail: float
    projection: float
    quantization: float


@dataclass(frozen=True)
class NetPlan:
    epsilon: float
    box_level: int
    cube_exp: int
    quant_step: float
    coeff_bound: float
    budget: EpsilonBudget

    def __post_init__(self):
        b = self.budget
        numbers = (
            self.epsilon, self.quant_step, self.coeff_bound,
            b.tail, b.projection, b.quantization,
        )
        if not all(math.isfinite(v) for v in numbers):
            raise ModelError(f"plan numbers must be finite, got {numbers}")
        if min(b.tail, b.projection, b.quantization) < 0:
            raise ModelError(f"budgets must be nonnegative, got {b}")
        if self.quant_step <= 0:
            raise ModelError(f"quantization step must be positive, got {self.quant_step!r}")
        third = self.epsilon / 3.0
        if not (self.budget.tail < third and self.budget.projection < third):
            raise ModelError("tail and projection budgets must stay below epsilon/3")
        if self.budget.quantization > third:
            raise ModelError("quantization budget exceeded epsilon/3")


@dataclass(frozen=True)
class PowerTransferRecord:
    """Book-keeping for certificates built through the power transfer."""

    p: float
    n_power: int
    epsilon: float
    eps_prime: float
    c_max: float
    audit_distances: tuple[float, ...]

    def __post_init__(self):
        numbers = (self.p, self.epsilon, self.eps_prime, self.c_max)
        if not all(math.isfinite(v) for v in numbers):
            raise ModelError(f"power-transfer numbers must be finite, got {numbers}")


@dataclass(frozen=True)
class NetCertificate:
    """A finite net together with everything needed to re-check it."""

    plan: NetPlan
    grid: Grid
    space_p: float
    variant: str
    net_elements: np.ndarray  # (n_net, n_cubes), row-major cube order
    assignment: tuple[int, ...]
    distances: tuple[float, ...]
    labels: tuple[str, ...]
    null_cubes: tuple[int, ...] = ()
    witness_cells: tuple[int, ...] = ()
    quasi: PowerTransferRecord | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ModelError(f"unknown projector variant {self.variant!r}")
        object.__setattr__(self, "net_elements", _kept(self.net_elements))

    @property
    def partition(self) -> DyadicPartition:
        return DyadicPartition(self.grid, self.plan.box_level, self.plan.cube_exp)

    @property
    def n_net(self) -> int:
        return int(self.net_elements.shape[0])


def _check_epsilon(epsilon: float) -> None:
    if epsilon <= 0:
        raise ModelError("epsilon must be positive")
    if not math.isfinite(epsilon):
        raise ModelError(f"epsilon must be positive and finite, got {epsilon!r}")


def select_tail_level(
    family: Family, space: WeightedSpace, epsilon: float
) -> tuple[int, float]:
    """Smallest dyadic box level whose box-tail modulus, and that of every
    larger box, is below epsilon/3, returned with that tail modulus.

    The ambient box truncates nothing, so its tail is 0 unmeasured; the scan
    walks down from there and stops at the first failure.  The tail is
    nonincreasing in the level, in floats too while the power sums stay in
    the normal range: a smaller box only zeroes more of the nonnegative terms
    |f|^p * weight, which ``np.sum`` adds in the same fixed order, and
    rounding, ``max`` and the p-th root are monotone.  Where a sum underflows
    or overflows, the norm takes its exponent pass, which adds only the
    nonzero terms and roots differently, and across the two passes the tail
    can still rise by an ulp as the box grows.  The scan does not rely on
    the order there: it stops at the first failure and keeps the larger box.
    At the failing level ``tail_modulus`` stops at its first member whose
    tail is not below epsilon/3; that partial value is never returned.
    """
    _check_epsilon(epsilon)
    threshold = epsilon / 3.0
    if threshold == 0.0:
        raise ModelError(f"epsilon {epsilon!r} leaves no positive tail budget epsilon/3")
    grid = family.grid
    best = grid.box_level, 0.0
    for m in range(grid.box_level - 1, grid.cell_exp - 1, -1):
        tail = tail_modulus(family, space, 2.0**m, region="box", threshold=threshold)
        if not tail < threshold:
            break
        best = m, tail
    return best


def select_mesh(
    family: Family, space: WeightedSpace, epsilon: float, max_exp: int | None = None
) -> tuple[int, tuple[float, ...]]:
    """Largest cube exponent whose box-shift modulus is below 2**-dim * eps/3,
    returned with each member's box-shift modulus at that exponent.

    The translation modulus is nondecreasing in the radius (stencils nest), so
    the translation scan (``moduli._translation_scan``) goes up from the cell
    scale and stops at the first shift that reaches the threshold, and only
    the last level that passed has its moduli confirmed.  On a 1-D grid at
    p >= 1 the ring bounds pass whole rings; every other shift is measured
    exactly.  The result is that of the exact scan, bit for bit.  Where the
    one-cell level fails, ``translation_modulus`` measures it for the refusal.
    A ``max_exp`` below the cell level leaves no level to scan and is a model
    error.
    """
    _check_epsilon(epsilon)
    grid = family.grid
    hi = grid.box_level if max_exp is None else max_exp
    if hi < grid.cell_exp:
        raise ModelError(f"select_mesh: max_exp {max_exp} is below the cell level {grid.cell_exp}")
    threshold = _mesh_threshold(grid.dim, epsilon)
    levels = range(grid.cell_exp, hi + 1)
    walk = _translation_scan(family, space, [2.0**i for i in levels], "box", threshold)
    level = None
    for level, moduli in zip(levels, walk):
        pass
    if level is None:
        one_cell = translation_modulus(family, space, grid.cell_side, stencil="box")
        raise _equicontinuity_refusal(grid, one_cell, threshold)
    return level, moduli()


def _mesh_threshold(dim: int, epsilon: float) -> float:
    """The mesh budget per box shift, 2**-dim epsilon / 3."""
    return 2.0 ** (-dim) * epsilon / 3.0


def _equicontinuity_refusal(grid, modulus, threshold: float, c_max: float = 1.0) -> HypothesisError:
    """The refusal of a family whose one-cell box modulus ``modulus`` reaches
    ``threshold``.  It names the least epsilon that builds, rounded up to six
    digits: the one-cell level, the only one that can refuse, passes just
    when the modulus is below the threshold, so at every epsilon from about
    3 2**dim c_max modulus on.  ``c_max`` scales the epsilon the caller
    passed to the one the mesh is built at, epsilon / c_max, as the power
    transfer does; it words a refusal again from the ``modulus`` and
    ``threshold`` the refusal keeps."""
    message = (
        f"select_mesh: translation modulus is {modulus:.6g} already at one cell (shift "
        f"{grid.cell_side}), needs < {threshold:.6g}; the family is not equicontinuous "
        f"at this resolution"
    )

    def builds(bits: int) -> bool:
        epsilon = struct.unpack("<d", struct.pack("<q", bits))[0]
        return modulus < _mesh_threshold(grid.dim, min(epsilon / c_max, sys.float_info.max))

    # the least float epsilon that builds, by bisection over the positive
    # floats, which their bit patterns order
    low, high = 0, struct.unpack("<q", struct.pack("<d", sys.float_info.max))[0]
    if builds(high):
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if builds(mid) else (mid, high)
        least = struct.unpack("<d", struct.pack("<q", high))[0]
        # six digits, rounded up: the nearest, or the next above it
        text = f"{least:.5e}"
        if float(text) < least:
            mantissa, exponent = text.split("e")
            text = f"{float(mantissa) + 1e-5:.5f}e{exponent}"
        text = f"{float(text):.6g}" if float(text) < math.inf else repr(least)
        message += f"; epsilon {text} or above builds"
    refusal = HypothesisError("equicontinuity", message)
    refusal.modulus, refusal.threshold = modulus, threshold
    return refusal


def null_cube_mask(part: DyadicPartition, space: WeightedSpace) -> np.ndarray:
    """Cubes on which the weight vanishes identically (flat, row-major)."""
    return cube_witnesses(part, space) < 0


def cube_witnesses(part: DyadicPartition, space: WeightedSpace) -> np.ndarray:
    """Per cube, the flat grid index of its first positive-weight cell, -1 if none.

    These are the finiteness witnesses that make the zeroed projector well
    defined: every cube that the norm can see contains a cell of positive
    weight, and grid functions are finite there by construction.  A cube
    without one is a null cube.
    """
    if part.grid != space.grid:
        raise ModelError("partition and space live on different grids")
    first = _first_positive_cells(space.weight.values, part)
    return np.where(first == part.grid.n_cells, -1, first)


def cube_projection(
    f: GridFunction, part: DyadicPartition, nulls: np.ndarray | None = None
) -> np.ndarray:
    """Cube-average coefficients of f over the partition.

    The plain average on every cube, except that the cubes flagged in
    ``nulls`` (the vanishing variant passes the null-cube mask) get zero.
    """
    if f.grid != part.grid:
        raise ModelError("function and partition live on different grids")
    coeffs = all_cube_averages(f, part)
    if nulls is not None:
        coeffs = np.where(nulls, 0.0, coeffs)
    if not np.all(np.isfinite(coeffs)):
        raise ModelError("cube averages must be finite")
    return coeffs


def _write_cubes(
    out: np.ndarray, coeffs: np.ndarray, part: DyadicPartition, minuend=None
) -> np.ndarray:
    """Write each cube's coefficient, or ``minuend`` minus it, over that cube's
    cells of ``out`` in place; cells outside the partition box keep their values.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (part.n_cubes,):
        raise ModelError(f"expected {part.n_cubes} coefficients, got shape {coeffs.shape}")
    # (b, 1) or (b, 1, b, 1): broadcasts over the cells of each cube
    cubes = coeffs.reshape((part.cubes_per_axis, 1) * part.grid.dim)
    if minuend is None:
        _block_view(out, part)[...] = cubes
    else:
        np.subtract(_block_view(minuend, part), cubes, out=_block_view(out, part))
    return out


def expand_coefficients(coeffs: np.ndarray, part: DyadicPartition) -> GridFunction:
    """Piecewise-constant function with the given value on each cube, zero outside."""
    values = _write_cubes(np.zeros(part.grid.shape), coeffs, part)
    return GridFunction(part.grid, _frozen(values))


def projection_error(
    f: GridFunction,
    coeffs: np.ndarray,
    part: DyadicPartition,
    space: WeightedSpace,
    modulus: float,
    check: bool = False,
    buffer: np.ndarray | None = None,
) -> tuple[float, float]:
    """Measured projection error and its translation-modulus guarantee.

    Returns ``(measured, guarantee)`` where measured is the norm distance from
    the box-truncated f to its piecewise-cube reconstruction, and guarantee is
    ``2**dim`` times ``modulus``, f's box translation modulus at the cube side
    (``select_mesh`` returns it for every member).  The bound holds because
    the deviation from a cube average is an average of shifted differences:
    with c cells per cube axis the shifts involved fit the box stencil of
    radius (c-1) cells, and there are at most ``(2c-1)**dim`` of them against
    ``c**dim`` cube cells, a ratio strictly below ``2**dim``.
    With ``check=True`` a violation beyond ``1e-10 * ||f||`` (possible only
    through arithmetic error for p >= 1) raises; ||f|| is measured only once
    the error exceeds the guarantee.  ``buffer`` is a float64 array of the
    grid's shape, zero outside the partition box, as a call leaves it: the
    error is written and measured there, and a caller that measures every
    member passes one buffer to each call, so no call allocates.
    """
    if buffer is None:
        buffer = np.zeros(f.grid.shape)
    # f minus its cube's coefficient inside the partition box, and 0 outside,
    # where the norm's terms leave 0 again
    measured = _array_norm(buffer, space, lambda: _write_cubes(buffer, coeffs, part, f.values))
    guarantee = 2.0 ** f.grid.dim * modulus
    if check and measured > guarantee:
        slack = 1e-10 * _array_norm(f.values, space)
        if measured > guarantee + slack:
            raise ModelError(
                f"projection error {measured!r} exceeds its guarantee {guarantee!r}"
            )
    return measured, guarantee


@dataclass(frozen=True)
class QuantizedNet:
    net_elements: np.ndarray  # (n_net, n_cubes)
    assignment: tuple[int, ...]
    distances: tuple[float, ...]
    coeff_bound: float


def _row_key(point: np.ndarray) -> int:
    """Bucket key of a lattice point in ``quantize_net``: the CRC-32 of its
    bytes.  Points that share a bucket are told apart by comparing them."""
    return zlib.crc32(point)


def quantize_net(
    coeff_vectors: np.ndarray,
    quant_step: float,
    part: DyadicPartition,
    space: WeightedSpace,
) -> QuantizedNet:
    """Round coefficient vectors to the step lattice and deduplicate.

    Each coefficient moves by at most half a step, so the rounding error is
    dominated pointwise by (step/2) * indicator of the partition box; lattice
    monotonicity then bounds the norm error by (step/2) * that indicator's
    norm, for every exponent p > 0.  Deduplication happens on the exact float
    lattice rows rint(c / step), with -0.0 made 0.0, not on integer
    coordinates, so equality of net elements is exact and no cast can
    overflow; a step so small that max|c| / step overflows is a model error.
    The returned ``coeff_bound``, the least lattice multiple at least max|c|
    (one ulp past one where the step is below half an ulp of it), bounds the
    rounded values' sizes too.  Every stage goes one row at a time, through
    row buffers and one (members, cubes) array whose leading rows become the
    net, handed over read-only for a certificate to keep.
    """
    coeffs = np.asarray(coeff_vectors, dtype=np.float64)
    if coeffs.ndim != 2 or coeffs.shape[1] != part.n_cubes:
        raise ModelError("coefficient vectors must be (members, cubes)")
    if not quant_step > 0:
        raise ModelError("quantization step must be positive")
    row = np.empty(part.n_cubes)
    top = max(float(np.max(np.abs(c, out=row))) for c in coeffs)
    steps = top / quant_step
    if not math.isfinite(steps):
        raise ModelError(f"coefficient {top!r} over the quantization step {quant_step!r} overflows")
    # ceil alone can land an ulp short of top; the loop adds a step, or an ulp
    coeff_bound = quant_step * math.ceil(steps)
    while coeff_bound < top:
        coeff_bound = max(coeff_bound + quant_step, math.nextafter(coeff_bound, math.inf))
    # float rounding may overshoot step/2 by an ulp, never more
    half = 0.5 * quant_step * (1 + 1e-12)
    lattice = np.empty(coeffs.shape)
    for c, point in zip(coeffs, lattice):
        np.rint(np.divide(c, quant_step, out=point), out=point)
        point += 0.0  # -0.0 becomes 0.0, so equal points have equal bytes
        np.subtract(c, np.multiply(point, quant_step, out=row), out=row)
        if np.any(np.abs(row, out=row) > half):
            raise ModelError("lattice rounding moved a coefficient beyond half a step")
    # a row equal to a net point in its key's bucket joins it; any other row
    # is the next net point and moves down to the first row not yet taken
    buckets: dict[int, list[int]] = {}
    assignment = []
    n_net = 0
    for i, point in enumerate(lattice):
        bucket = buckets.setdefault(_row_key(point), [])
        j = next((j for j in bucket if np.array_equal(lattice[j], point)), None)
        if j is None:
            j = n_net
            n_net += 1
            if j != i:
                lattice[j] = point
            bucket.append(j)
        assignment.append(j)
    elements = lattice[:n_net]
    elements *= quant_step
    buf = np.zeros(part.grid.shape)
    distances = tuple(
        _array_norm(
            buf, space, lambda: _write_cubes(buf, np.subtract(c, elements[j], out=row), part)
        )
        for c, j in zip(coeffs, assignment)
    )
    del buf  # not live beside a copy of the net
    # the certificate keeps the net without a copy: the whole lattice when no
    # row merged, else a copy of its leading rows, and the lattice is freed
    net = lattice if n_net == len(lattice) else elements.copy()
    return QuantizedNet(
        net_elements=_frozen(net), assignment=tuple(assignment), distances=distances,
        coeff_bound=coeff_bound,
    )


def _net_distances(
    family: Family,
    elements: np.ndarray,
    assignment: tuple[int, ...],
    part: DyadicPartition,
    space: WeightedSpace,
    epsilon: float,
) -> tuple[float, ...]:
    """Builder side: norm distance from every member to its assigned net
    element expanded over the partition; a distance not below epsilon means
    the budget accounting is broken and raises."""
    diff = np.empty(part.grid.shape)
    distances = []
    for f, label, j in zip(family.members, family.labels, assignment):

        def write():
            np.copyto(diff, f.values)
            _write_cubes(diff, elements[j], part, f.values)

        d = _array_norm(diff, space, write)
        if not d < epsilon:
            raise ModelError(
                f"member {label!r} is at distance {d!r} from its net element, not "
                f"below epsilon {epsilon!r}; the budget accounting is broken"
            )
        distances.append(d)
    return tuple(distances)


def build_certificate(
    family: Family, space: WeightedSpace, epsilon: float, variant: str = "banach"
) -> NetCertificate:
    """Run the full pipeline and return a measured, self-describing certificate.

    Requires p >= 1 (the triangle inequality glues the three budget stages);
    exponents below one go through the power-transfer pipeline instead.
    """
    if family.grid != space.grid:
        raise ModelError("family and space live on different grids")
    if space.p < 1:
        raise ModelError(
            "build_certificate needs p >= 1; use the power-transfer pipeline for p < 1"
        )
    if variant not in VARIANTS:
        raise ModelError(f"unknown projector variant {variant!r}")
    grid = family.grid

    m, tail_value = select_tail_level(family, space, epsilon)
    i_eps, shift_moduli = select_mesh(family, space, epsilon, max_exp=m)
    part = DyadicPartition(grid, m, i_eps)

    # one reduction gives both the null cubes and their witnesses
    witnesses = cube_witnesses(part, space)
    nulls = witnesses < 0
    enforce = variant == "banach" and not bool(nulls.any())

    zeroed = nulls if variant == "vanishing" else None
    coeffs = np.stack([cube_projection(f, part, zeroed) for f in family.members])
    buffer = np.zeros(grid.shape)
    proj_errors = [
        projection_error(f, coeffs[k], part, space, shift_moduli[k], enforce, buffer)[0]
        for k, f in enumerate(family.members)
    ]
    del buffer

    chi_norm = indicator_norm(space, inside_mask(grid, 2.0 ** m, region="box"))
    if chi_norm > 0:
        # shave a hair off the exact budget split so float rounding can
        # never push the quantization stage past epsilon/3; epsilon / (1.5 chi)
        # has the bits of 2 epsilon / (3 chi) without overflowing 2 epsilon,
        # and a step past float range is clamped to the largest float
        step = min(epsilon / (1.5 * chi_norm) * (1.0 - 1e-9), sys.float_info.max)
    else:
        step = 1.0

    quant = quantize_net(coeffs, step, part, space)
    del coeffs  # not live beside the distances' buffers

    distances = _net_distances(
        family, quant.net_elements, quant.assignment, part, space, epsilon
    )

    plan = NetPlan(
        epsilon=epsilon,
        box_level=m,
        cube_exp=i_eps,
        quant_step=step,
        coeff_bound=quant.coeff_bound,
        budget=EpsilonBudget(
            tail=tail_value,
            projection=max(proj_errors),
            quantization=max(quant.distances),
        ),
    )
    if variant == "vanishing":
        null_idx = tuple(np.flatnonzero(nulls).tolist())
        witness_idx = tuple(witnesses.tolist())
    else:
        null_idx = ()
        witness_idx = ()
    return NetCertificate(
        plan=plan,
        grid=grid,
        space_p=space.p,
        variant=variant,
        net_elements=quant.net_elements,
        assignment=quant.assignment,
        distances=distances,
        labels=family.labels,
        null_cubes=null_idx,
        witness_cells=witness_idx,
    )


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    failures: tuple[str, ...]
    distances: tuple[float, ...]


def _remeasure(
    family: Family,
    elements: np.ndarray,
    assignment: tuple[int, ...],
    recorded: tuple[float, ...],
    part: DyadicPartition,
    space: WeightedSpace,
    epsilon: float,
    what: str,
) -> tuple[tuple[float, ...], list[str]]:
    """Validator side: re-measure every member against its assigned net element.

    Returns the distances and the failures found: an assignment or recorded
    list whose length is not the family's (then nothing is measured), an
    index outside the net, a distance not below epsilon, or a distance that
    disagrees with the recorded one.
    """
    n = len(family)
    failures = []
    if len(assignment) != n:
        failures.append(f"assignment has {len(assignment)} entries for {n} members")
    if len(recorded) != n:
        failures.append(f"recorded {what} list has {len(recorded)} entries for {n} members")
    if failures:
        return (), failures
    diff = np.empty(part.grid.shape)
    distances = []
    for f, label, idx, rec in zip(family.members, family.labels, assignment, recorded):
        if not 0 <= idx < len(elements):
            failures.append(f"member {label!r} is assigned to a missing net element {idx}")
            distances.append(math.inf)
            continue

        def write():
            np.copyto(diff, f.values)
            _write_cubes(diff, elements[idx], part, f.values)

        d = _array_norm(diff, space, write)
        distances.append(d)
        if not d < epsilon:
            failures.append(f"member {label!r} has {what} {d!r}, not below epsilon {epsilon!r}")
        if not math.isclose(d, rec, rel_tol=1e-9, abs_tol=1e-12):
            failures.append(
                f"member {label!r}: recomputed {what} {d!r} disagrees with the recorded {rec!r}"
            )
    return tuple(distances), failures


def _check_cube_claims(
    cert: NetCertificate, part: DyadicPartition, space: WeightedSpace
) -> list[str]:
    """Validator side: the null cubes and witness cells the certificate declares.

    A Banach certificate declares neither.  Under the vanishing variant every
    cube is either listed as null and holds no positive weight, or has as its
    witness a positive-weight cell inside it.  All checks run over arrays of
    cubes, with no per-cube loop.
    """
    if cert.variant == "banach":
        if cert.null_cubes or cert.witness_cells:
            return ["a banach certificate lists null cubes or witness cells"]
        return []
    n = part.n_cubes
    if len(cert.witness_cells) != n:
        return [f"witness list has {len(cert.witness_cells)} entries for {n} cubes"]
    try:
        listed = np.fromiter(cert.null_cubes, np.int64, len(cert.null_cubes))
        witness = np.fromiter(cert.witness_cells, np.int64, n)
    except OverflowError:
        return ["a null cube or witness index does not fit a 64-bit integer"]
    if np.any((listed < 0) | (listed >= n)):
        return ["the null cube list names a cube outside the partition"]
    times_listed = np.bincount(listed, minlength=n)
    if np.any(times_listed > 1):
        return ["the null cube list repeats a cube"]
    is_null = times_listed == 1
    weight = space.weight.values.reshape(-1)
    # each cell's cube, -1 outside the partition box: the cubes distances are
    # measured on
    ids = _write_cubes(np.full(part.grid.shape, -1), np.arange(n), part).reshape(-1)
    weighted = np.bincount(ids[(weight > 0) & (ids >= 0)], minlength=n) > 0
    failures = []
    bad = np.flatnonzero(is_null & weighted)
    if bad.size:
        failures.append(
            f"{bad.size} cubes listed as null hold positive weight (first: cube {bad[0]})"
        )
    on_grid = (witness >= 0) & (witness < weight.size)
    cell = np.where(on_grid, witness, 0)
    sound = on_grid & (weight[cell] > 0) & (ids[cell] == np.arange(n))
    bad = np.flatnonzero(~is_null & ~sound)
    if bad.size:
        failures.append(
            f"{bad.size} cubes are not listed as null and have no positive-weight "
            f"witness cell inside them (first: cube {bad[0]})"
        )
    return failures


def validate_certificate(
    family: Family, certificate: NetCertificate, space: WeightedSpace
) -> ValidationReport:
    """Re-check a certificate from scratch, sharing nothing with the builder.

    Recomputes every member-to-net distance directly from the stored
    coefficient vectors, checks them against the plan's epsilon, and checks
    that every net element sits on the declared step lattice inside the
    declared coefficient bound, that the labels are the family's, and that
    the null cubes and witness cells are what the variant claims.
    """
    failures: list[str] = []
    plan = certificate.plan
    if family.grid != certificate.grid:
        failures.append("family grid does not match the certificate grid")
    if space.grid != family.grid:
        failures.append("space grid does not match the family grid")
    if not math.isclose(space.p, certificate.space_p, rel_tol=1e-12):
        failures.append(
            f"space exponent {space.p!r} does not match certificate exponent "
            f"{certificate.space_p!r}"
        )
    if failures:
        return ValidationReport(False, tuple(failures), ())

    part = certificate.partition
    elements = certificate.net_elements
    if elements.ndim != 2 or elements.shape[1] != part.n_cubes:
        return ValidationReport(
            False, (f"net elements have shape {elements.shape}, expected (*, {part.n_cubes})",), ()
        )

    if certificate.labels != family.labels:
        failures.append("certificate labels do not match the family's labels")
    failures.extend(_check_cube_claims(certificate, part, space))

    # every element must be its own nearest lattice point; a NaN, a step so
    # small that e / step overflows, or one so large that e rounds to 0 fails.
    # One element at a time, in two row buffers
    step, bound = plan.quant_step, plan.coeff_bound * (1 + 1e-12)
    snapped, size = np.empty(part.n_cubes), np.empty(part.n_cubes)
    off_lattice, beyond = None, False
    with np.errstate(all="ignore"):
        for i, e in enumerate(elements):
            np.abs(e, out=size)
            beyond = beyond or bool(np.any(size > bound))
            if off_lattice is None:
                np.rint(np.divide(e, step, out=snapped), out=snapped)
                np.subtract(e, np.multiply(snapped, step, out=snapped), out=snapped)
                if not np.all(np.abs(snapped, out=snapped) <= np.multiply(size, 1e-9, out=size)):
                    off_lattice = i
    if off_lattice is not None:
        failures.append(f"net element {off_lattice} leaves the quantization lattice")
    if beyond:
        failures.append("a net coefficient exceeds the declared bound")

    distances, remeasured = _remeasure(
        family, elements, certificate.assignment, certificate.distances,
        part, space, plan.epsilon, "distance",
    )
    failures.extend(remeasured)
    return ValidationReport(not failures, tuple(failures), distances)


def _short_fields(cert: NetCertificate) -> dict:
    """Every field of the certificate document but the three per-cube lists."""
    doc = {
        "plan": asdict(cert.plan),
        "grid": asdict(cert.grid),
        "space_p": cert.space_p,
        "variant": cert.variant,
        "cube_order": _CUBE_ORDER,
        "assignment": list(cert.assignment),
        "distances": list(cert.distances),
        "labels": list(cert.labels),
    }
    if cert.quasi is not None:
        doc["quasi"] = asdict(cert.quasi)
    return doc


def certificate_to_dict(cert: NetCertificate) -> dict:
    return {
        **_short_fields(cert),
        "net_elements": cert.net_elements.tolist(),
        "null_cubes": list(cert.null_cubes),
        "witness_cells": list(cert.witness_cells),
    }


def _entries(values, kinds: tuple[type, ...], what: str):
    """A JSON list whose entries are all of ``kinds`` and none a bool; raises
    ``TypeError`` otherwise."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"{what} must be a list, got {type(values).__name__}")
    for kind in set(map(type, values)):
        if issubclass(kind, bool) or not issubclass(kind, kinds):
            raise TypeError(f"{what} may not hold a {kind.__name__}")
    return values


def certificate_from_dict(doc: dict) -> NetCertificate:
    """Rebuild a certificate from its JSON document.  Its plan, budget, grid
    and quasi records are read field by field from their dataclasses, as a
    spec's are: an integer field takes only a JSON integer and a float field
    only a JSON number.  Every key the writer writes must be there, with
    its cube order, and no other; any other entry, and a ragged net, raises
    ``ModelError``."""
    try:
        keys = [f.name for f in fields(NetCertificate) if f.name != "quasi"]
        _require_keys(doc, [*keys, "cube_order"], ["quasi"], "certificate")
        if doc["cube_order"] != _CUBE_ORDER:
            raise TypeError(f"cube_order must be {_CUBE_ORDER!r}, got {doc['cube_order']!r}")
        plan = _record(NetPlan, doc["plan"], "plan", read={
            "budget": lambda d, key, where: _record(EpsilonBudget, d[key], f"{where}.{key}"),
        })
        grid = _record(Grid, doc["grid"], "grid")
        quasi = None
        if "quasi" in doc:
            quasi = _record(PowerTransferRecord, doc["quasi"], "quasi", read={
                "audit_distances": lambda d, key, where: tuple(
                    map(float, _entries(d[key], (int, float), f"{where}.{key}"))
                ),
            })
        rows = _entries(doc["net_elements"], (list,), "net_elements")
        for row in rows:
            _entries(row, (int, float), "a net element")
        if len(set(map(len, rows))) > 1:
            raise TypeError("net_elements rows have different lengths")
        distances = _entries(doc["distances"], (int, float), "distances")
        return NetCertificate(
            plan=plan,
            grid=grid,
            space_p=_number(doc, "space_p", "certificate"),
            variant=str(doc["variant"]),
            net_elements=rows,  # the certificate makes the one array
            assignment=tuple(_entries(doc["assignment"], (int,), "assignment")),
            distances=tuple(map(float, distances)),
            labels=tuple(_entries(doc["labels"], (str,), "labels")),
            null_cubes=tuple(_entries(doc["null_cubes"], (int,), "null_cubes")),
            witness_cells=tuple(_entries(doc["witness_cells"], (int,), "witness_cells")),
            quasi=quasi,
        )
    except (KeyError, TypeError, OverflowError, SpecFileError) as exc:
        raise ModelError(f"malformed certificate document: {exc}") from exc


# entries per json.dumps call in _write_flat_list: the writer holds one
# chunk's text, not the whole list's
_WRITE_CHUNK = 4096


def _write_flat_list(fh, values, depth: int, texts=None) -> None:
    """Write ``json.dumps(values, indent=2)`` for a flat list or tuple of
    numbers nested ``depth`` levels deep, ``_WRITE_CHUNK`` entries at a
    time.  json's C encoder formats the entries exactly as its indenting
    encoder does; the newline and indent go in as separator.  With
    ``texts``, ``values`` is an index array into that table of entry texts."""
    if len(values) == 0:
        fh.write("[]")
        return
    pad = "\n" + "  " * (depth + 1)
    sep = "," + pad
    for i in range(0, len(values), _WRITE_CHUNK):
        chunk = values[i:i + _WRITE_CHUNK]
        fh.write(sep if i else "[" + pad)
        if texts is None:
            fh.write(json.dumps(chunk, separators=(sep, ": "))[1:-1])
        else:
            fh.write(sep.join(texts[chunk].tolist()))
    fh.write("\n" + "  " * depth + "]")


def _lattice_texts(net: np.ndarray, step: float):
    """When each entry of the 2-D ``net`` rounds, as ``rint(e / step)``, to
    an integer j and those j span at most ``net.size`` values, return the
    least j, the bits of ``j * step`` from there on and their texts; else
    None.  A net built by ``quantize_net`` holds only such values, so each of
    its few distinct values is formatted once.  One pass over the rows, in a
    row buffer; the writer checks each row's bits against the table."""
    k = np.empty(net.shape[1])
    lo, hi = math.inf, -math.inf
    with np.errstate(over="ignore"):
        for row in net:
            np.rint(np.divide(row, step, out=k), out=k)
            if not np.isfinite(k).all():
                return None
            lo, hi = min(lo, k.min()), max(hi, k.max())
        if not hi - lo <= net.size:
            return None
        table = (lo + np.arange(int(hi - lo) + 1)) * step
    texts = np.array([float.__repr__(v) for v in table.tolist()], dtype=object)
    return lo, table.view(np.int64), texts


def _write_net(fh, net: np.ndarray, step: float) -> None:
    """Write ``net.tolist()`` as ``json.dump(indent=2)`` nests it one level
    deep, one row at a time: a row whose entries are, bit for bit, the
    lattice table's values from its texts, any other value by value (a
    ``-0.0``, say, fails the bit check)."""
    if net.ndim != 2 or net.size == 0:
        # no build makes these shapes; json writes them whole
        fh.write(json.dumps(net.tolist(), indent=2).replace("\n", "\n  "))
        return
    lattice = _lattice_texts(net, step)
    k, index = np.empty(net.shape[1]), np.empty(net.shape[1], dtype=np.intp)
    fh.write("[")
    for i, row in enumerate(net):
        fh.write(",\n    " if i else "\n    ")
        if lattice is not None:
            lo, bits, texts = lattice
            # each entry's place rint(e / step) - lo in the table; k is free
            # once index holds it, and takes the table's bits
            np.rint(np.divide(row, step, out=k), out=k)
            k -= lo
            np.copyto(index, k, casting="unsafe")
            if np.array_equal(np.take(bits, index, out=k.view(np.int64)), row.view(np.int64)):
                _write_flat_list(fh, index, 2, texts)
                continue
        _write_flat_list(fh, row.tolist(), 2)
    fh.write("\n  ]")


def save_certificate(cert: NetCertificate, path) -> None:
    """Write exactly ``json.dumps(certificate_to_dict(cert), indent=2,
    sort_keys=True)`` and a newline, without building that text or the net
    as Python floats.  The short fields go through ``json.dumps``, the
    per-cube lists go out in chunks and the net is streamed by row."""
    short = _short_fields(cert)
    with open(path, "w") as fh:
        keys = sorted([*short, "net_elements", "null_cubes", "witness_cells"])
        for i, key in enumerate(keys):
            fh.write((",\n  " if i else "{\n  ") + json.dumps(key) + ": ")
            if key == "net_elements":
                _write_net(fh, cert.net_elements, cert.plan.quant_step)
            elif key in short:
                fh.write(json.dumps(short[key], indent=2, sort_keys=True).replace("\n", "\n  "))
            else:
                _write_flat_list(fh, getattr(cert, key), 1)
        fh.write("\n}\n")


# distinct float texts one load_certificate call keeps; a built net has tens
_FLOAT_TABLE_CAP = 4096


class _FloatTable(dict):
    """``float`` of each token text, for ``json.load``'s ``parse_float``: the
    first ``_FLOAT_TABLE_CAP`` distinct texts are parsed once and every
    repeat shares that float.  The values are json's own bit for bit, since
    its default ``parse_float`` is ``float`` of the same text."""

    def __missing__(self, text):
        value = float(text)
        if len(self) < _FLOAT_TABLE_CAP:
            self[text] = value
        return value


def load_certificate(path) -> NetCertificate:
    """Read a certificate file.  A quantized net holds few distinct numbers,
    so its floats are parsed once each through a per-call ``_FloatTable``."""
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=_FloatTable().__getitem__)
    except OSError as exc:
        raise ModelError(f"cannot read certificate {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, or arrays or objects nested past the recursion limit
        raise ModelError(f"malformed certificate document: {exc}") from exc
    return certificate_from_dict(doc)
