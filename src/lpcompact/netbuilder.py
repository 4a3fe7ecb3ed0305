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
from dataclasses import asdict, dataclass

import numpy as np

from .errors import HypothesisError, ModelError, SpecFileError
from .grid import (
    DyadicPartition,
    Grid,
    GridFunction,
    _block_view,
    _first_positive_cells,
    all_cube_averages,
    inside_mask,
)
from .moduli import Family, _translation_levels, tail_modulus
from .spaces import WeightedSpace, _array_norm, indicator_norm
from .specfile import _integer, _number

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
        arr = np.asarray(self.net_elements, dtype=np.float64)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "net_elements", arr)

    @property
    def partition(self) -> DyadicPartition:
        return DyadicPartition(self.grid, self.plan.box_level, self.plan.cube_exp)

    @property
    def n_net(self) -> int:
        return int(self.net_elements.shape[0])


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
    rounding, ``max`` and the p-th root are monotone.  Where the norm
    rescales a sum that underflows or overflows, the scale moves with the
    level and the tail can rise by an ulp as the box grows; the scan then
    keeps the larger box.
    """
    if not epsilon > 0:
        raise ModelError("epsilon must be positive")
    threshold = epsilon / 3.0
    if threshold == 0.0:
        raise ModelError(f"epsilon {epsilon!r} leaves no positive tail budget epsilon/3")
    grid = family.grid
    best = grid.box_level, 0.0
    for m in range(grid.box_level - 1, grid.cell_exp - 1, -1):
        tail = tail_modulus(family, space, 2.0**m, region="box")
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
    the scan walks up from the cell scale and stops at the first failure; past
    the first level it stops at the first shift that reaches the threshold.
    """
    if epsilon <= 0:
        raise ModelError("epsilon must be positive")
    grid = family.grid
    hi = grid.box_level if max_exp is None else max_exp
    threshold = 2.0 ** (-grid.dim) * epsilon / 3.0
    levels = range(grid.cell_exp, hi + 1)
    best = None
    value = math.inf
    scan = _translation_levels(family, space, [2.0**i for i in levels], "box", threshold)
    for i, moduli in zip(levels, scan):
        value = max(moduli)
        if value < threshold:
            best = i, moduli
        else:
            break
    if best is None:
        raise HypothesisError(
            "equicontinuity",
            f"select_mesh: translation modulus is {value:.6g} already at one cell "
            f"(shift {grid.cell_side}), needs < {threshold:.6g}; the family is not "
            f"equicontinuous at this resolution",
        )
    return best


def null_cube_mask(part: DyadicPartition, space: WeightedSpace) -> np.ndarray:
    """Cubes on which the weight vanishes identically (flat, row-major)."""
    if part.grid != space.grid:
        raise ModelError("partition and space live on different grids")
    return _first_positive_cells(space.weight.values, part) == part.grid.n_cells


def cube_witnesses(part: DyadicPartition, space: WeightedSpace) -> tuple[int, ...]:
    """Per cube, the flat grid index of its first positive-weight cell, -1 if none.

    These are the finiteness witnesses that make the zeroed projector well
    defined: every cube that the norm can see contains a cell of positive
    weight, and grid functions are finite there by construction.
    """
    first = _first_positive_cells(space.weight.values, part)
    return tuple(np.where(first == part.grid.n_cells, -1, first).tolist())


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
    return GridFunction(part.grid, _write_cubes(np.zeros(part.grid.shape), coeffs, part))


def projection_error(
    f: GridFunction,
    coeffs: np.ndarray,
    part: DyadicPartition,
    space: WeightedSpace,
    modulus: float,
    check: bool = False,
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
    through arithmetic error for p >= 1) raises.
    """
    # zero outside the partition box, f minus its cube's coefficient inside
    diff = _write_cubes(np.zeros(f.grid.shape), coeffs, part, f.values)
    scratch = np.empty(f.grid.shape)
    measured = _array_norm(diff, space, scratch)
    guarantee = 2.0 ** f.grid.dim * modulus
    if check:
        slack = 1e-10 * _array_norm(f.values, space, scratch)
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


def quantize_net(
    coeff_vectors: np.ndarray,
    quant_step: float,
    coeff_bound: float,
    part: DyadicPartition,
    space: WeightedSpace,
) -> QuantizedNet:
    """Round coefficient vectors to the step lattice and deduplicate.

    Each coefficient moves by at most half a step, so the rounding error is
    dominated pointwise by (step/2) * indicator of the partition box; lattice
    monotonicity then bounds the norm error by (step/2) * that indicator's
    norm, for every exponent p > 0.  Deduplication happens on the integer
    lattice coordinates, so equality of net elements is exact.  Inputs must
    already lie in [-coeff_bound, coeff_bound]; with coeff_bound a lattice
    multiple the rounded values stay inside the same interval.
    """
    coeffs = np.asarray(coeff_vectors, dtype=np.float64)
    if coeffs.ndim != 2 or coeffs.shape[1] != part.n_cubes:
        raise ModelError("coefficient vectors must be (members, cubes)")
    if quant_step <= 0:
        raise ModelError("quantization step must be positive")
    if np.any(np.abs(coeffs) > coeff_bound):
        raise ModelError("coefficient outside the declared bound")
    lattice = np.rint(coeffs / quant_step)
    rounded = lattice * quant_step
    # float rounding may overshoot step/2 by an ulp, never more
    if np.any(np.abs(coeffs - rounded) > 0.5 * quant_step * (1 + 1e-12)):
        raise ModelError("lattice rounding moved a coefficient beyond half a step")
    # each row names the first row on its lattice point, keyed by the point's
    # bytes (an int64 holds no -0.0); those first rows, in order, are the net
    points = lattice.astype(np.int64)
    first: dict[bytes, int] = {}
    heads = [first.setdefault(row.tobytes(), i) for i, row in enumerate(points)]
    rows, assignment = np.unique(np.array(heads, dtype=np.intp), return_inverse=True)
    elements = points[rows] * quant_step
    buf = np.zeros(part.grid.shape)
    scratch = np.empty(part.grid.shape)
    distances = tuple(
        _array_norm(_write_cubes(buf, c - elements[j], part), space, scratch)
        for c, j in zip(coeffs, assignment)
    )
    return QuantizedNet(
        net_elements=elements, assignment=tuple(assignment.tolist()), distances=distances
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
    scratch = np.empty(part.grid.shape)
    distances = []
    for f, label, j in zip(family.members, family.labels, assignment):
        np.copyto(diff, f.values)
        d = _array_norm(_write_cubes(diff, elements[j], part, f.values), space, scratch)
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
    first = _first_positive_cells(space.weight.values, part)
    nulls = first == grid.n_cells
    enforce = variant == "banach" and not bool(nulls.any())

    zeroed = nulls if variant == "vanishing" else None
    coeffs = np.stack([cube_projection(f, part, zeroed) for f in family.members])
    proj_errors = [
        projection_error(f, coeffs[k], part, space, shift_moduli[k], check=enforce)[0]
        for k, f in enumerate(family.members)
    ]

    chi_norm = indicator_norm(space, inside_mask(grid, 2.0 ** m, region="box"))
    if chi_norm > 0:
        # shave a hair off the exact budget split so float rounding can
        # never push the quantization stage past epsilon/3
        step = (2.0 * epsilon / (3.0 * chi_norm)) * (1.0 - 1e-9)
    else:
        step = 1.0
    max_coeff = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    # a lattice multiple at least max_coeff: rounding then never leaves the
    # bound; ceil alone can land one ulp short, so the loop finishes the job
    coeff_bound = step * math.ceil(max_coeff / step)
    while coeff_bound < max_coeff:
        coeff_bound += step

    quant = quantize_net(coeffs, step, coeff_bound, part, space)

    distances = _net_distances(
        family, quant.net_elements, quant.assignment, part, space, epsilon
    )

    plan = NetPlan(
        epsilon=epsilon,
        box_level=m,
        cube_exp=i_eps,
        quant_step=step,
        coeff_bound=coeff_bound,
        budget=EpsilonBudget(
            tail=tail_value,
            projection=max(proj_errors),
            quantization=max(quant.distances),
        ),
    )
    if variant == "vanishing":
        null_idx = tuple(np.flatnonzero(nulls).tolist())
        witnesses = tuple(np.where(nulls, -1, first).tolist())
    else:
        null_idx = ()
        witnesses = ()
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
        witness_cells=witnesses,
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
    scratch = np.empty(part.grid.shape)
    distances = []
    for f, label, idx, rec in zip(family.members, family.labels, assignment, recorded):
        if not 0 <= idx < len(elements):
            failures.append(f"member {label!r} is assigned to a missing net element {idx}")
            distances.append(math.inf)
            continue
        np.copyto(diff, f.values)
        d = _array_norm(_write_cubes(diff, elements[idx], part, f.values), space, scratch)
        distances.append(d)
        if not d < epsilon:
            failures.append(f"member {label!r} has {what} {d!r}, not below epsilon {epsilon!r}")
        if not math.isclose(d, rec, rel_tol=1e-9, abs_tol=1e-12):
            failures.append(
                f"member {label!r}: recomputed {what} {d!r} disagrees with the recorded {rec!r}"
            )
    return tuple(distances), failures


def _cube_ids(part: DyadicPartition) -> np.ndarray:
    """Flat cube index of every cell in flat grid order, -1 outside the partition box."""
    b = part.cubes_per_axis
    q = (np.arange(part.grid.cells_per_axis) - part.cell_start) // part.cells_per_cube_axis
    inside = (q >= 0) & (q < b)
    if part.grid.dim == 1:
        return np.where(inside, q, -1)
    both = inside[:, None] & inside[None, :]
    return np.where(both, q[:, None] * b + q[None, :], -1).reshape(-1)


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
    ids = _cube_ids(part)
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
    # small that e / step overflows, or one so large that e rounds to 0 fails
    with np.errstate(all="ignore"):
        snapped = np.rint(elements / plan.quant_step) * plan.quant_step
        on_lattice = np.abs(elements - snapped) <= 1e-9 * np.abs(elements)
    if not np.all(on_lattice):
        row = int(np.argmin(on_lattice.all(axis=1)))
        failures.append(f"net element {row} leaves the quantization lattice")
    if np.any(np.abs(elements) > plan.coeff_bound * (1 + 1e-12)):
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
        "cube_order": "row-major by cube corner",
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
    """Rebuild a certificate from its JSON document.  As in a spec file, an
    integer field takes only a JSON integer and a float field only a JSON
    number; any other entry, and a ragged net, raises ``ModelError``."""
    try:
        plan_doc = doc["plan"]
        budget = plan_doc["budget"]
        plan = NetPlan(
            epsilon=_number(plan_doc, "epsilon", "plan"),
            box_level=_integer(plan_doc, "box_level", "plan"),
            cube_exp=_integer(plan_doc, "cube_exp", "plan"),
            quant_step=_number(plan_doc, "quant_step", "plan"),
            coeff_bound=_number(plan_doc, "coeff_bound", "plan"),
            budget=EpsilonBudget(
                tail=_number(budget, "tail", "plan.budget"),
                projection=_number(budget, "projection", "plan.budget"),
                quantization=_number(budget, "quantization", "plan.budget"),
            ),
        )
        grid = Grid(
            dim=_integer(doc["grid"], "dim", "grid"),
            box_level=_integer(doc["grid"], "box_level", "grid"),
            cell_exp=_integer(doc["grid"], "cell_exp", "grid"),
        )
        quasi = None
        if "quasi" in doc:
            q = doc["quasi"]
            audits = _entries(q["audit_distances"], (int, float), "quasi.audit_distances")
            quasi = PowerTransferRecord(
                p=_number(q, "p", "quasi"),
                n_power=_integer(q, "n_power", "quasi"),
                epsilon=_number(q, "epsilon", "quasi"),
                eps_prime=_number(q, "eps_prime", "quasi"),
                c_max=_number(q, "c_max", "quasi"),
                audit_distances=tuple(map(float, audits)),
            )
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
            net_elements=np.asarray(rows, dtype=np.float64),
            assignment=tuple(_entries(doc["assignment"], (int,), "assignment")),
            distances=tuple(map(float, distances)),
            labels=tuple(_entries(doc["labels"], (str,), "labels")),
            null_cubes=tuple(_entries(doc.get("null_cubes", ()), (int,), "null_cubes")),
            witness_cells=tuple(_entries(doc.get("witness_cells", ()), (int,), "witness_cells")),
            quasi=quasi,
        )
    except (KeyError, TypeError, OverflowError, SpecFileError) as exc:
        raise ModelError(f"malformed certificate document: {exc}") from exc


def _flat_list_text(values, depth: int) -> str:
    """``json.dumps(values, indent=2)`` for a flat list of numbers nested
    ``depth`` levels deep.  json's C encoder formats the entries exactly as
    its indenting encoder does; the newline and indent go in as separator."""
    if len(values) == 0:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    inner = json.dumps(values, separators=("," + pad, ": "))[1:-1]
    return "[" + pad + inner + "\n" + "  " * depth + "]"


def _lattice_texts(net: np.ndarray, step: float):
    """When every entry of the 2-D ``net`` is, bit for bit, ``j * step`` for
    integers j spanning at most ``net.size`` values, return each entry's index
    into a table of the distinct texts, and that table; else None.  A net
    built by ``quantize_net`` qualifies, so each of its few distinct values
    is formatted once.  ``-0.0`` fails the bitwise check."""
    with np.errstate(over="ignore"):
        k = np.rint(net / step)
        if not np.isfinite(k).all():
            return None
        lo, hi = k.min(), k.max()
        if not hi - lo <= net.size:
            return None
        k -= lo
        index = k.astype(np.intp)
        del k
        table = (lo + np.arange(index.max() + 1)) * step
    bits = table.view(np.int64)
    if not all(map(np.array_equal, (bits[i] for i in index), net.view(np.int64))):
        return None
    return index, np.array([float.__repr__(v) for v in table.tolist()], dtype=object)


def _write_net(fh, net: np.ndarray, step: float) -> None:
    """Write ``net.tolist()`` as ``json.dump(indent=2)`` nests it one level
    deep, one row at a time."""
    if net.ndim != 2 or net.size == 0:
        # no build makes these shapes; json writes them whole
        fh.write(json.dumps(net.tolist(), indent=2).replace("\n", "\n  "))
        return
    lattice = _lattice_texts(net, step)
    fh.write("[")
    for i, row in enumerate(net):
        fh.write(",\n    " if i else "\n    ")
        if lattice is None:
            fh.write(_flat_list_text(row.tolist(), 2))
        else:
            index, texts = lattice
            fh.write("[\n      " + ",\n      ".join(texts[index[i]].tolist()) + "\n    ]")
    fh.write("\n  ]")


def save_certificate(cert: NetCertificate, path) -> None:
    """Write exactly ``json.dumps(certificate_to_dict(cert), indent=2,
    sort_keys=True)`` and a newline, without building that text or the net
    as Python floats.  The short fields go through ``json.dumps``, the
    per-cube lists are spliced in as text and the net is streamed by row."""
    fields = _short_fields(cert)
    with open(path, "w") as fh:
        keys = sorted([*fields, "net_elements", "null_cubes", "witness_cells"])
        for i, key in enumerate(keys):
            fh.write((",\n  " if i else "{\n  ") + json.dumps(key) + ": ")
            if key == "net_elements":
                _write_net(fh, cert.net_elements, cert.plan.quant_step)
            elif key in fields:
                fh.write(json.dumps(fields[key], indent=2, sort_keys=True).replace("\n", "\n  "))
            else:
                fh.write(_flat_list_text(getattr(cert, key), 1))
        fh.write("\n}\n")


def load_certificate(path) -> NetCertificate:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ModelError(f"malformed certificate document: {exc}") from exc
    return certificate_from_dict(doc)
