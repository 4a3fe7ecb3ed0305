"""Power transfer: epsilon-nets for exponents below one.

For 0 < p < 1 the weighted norm is only a quasi-norm and the triangle-based
net construction does not apply directly.  The workaround takes N-th roots:
with N = floor(1/p) + 1 the companion space with exponent p*N (same weight)
is a genuine normed space, the rooted family inherits boundedness and
equicontinuity through the root norm identity, and a net for the roots pulls
back through the factorization

    f - g = (f^(1/N) - g^(1/N)) * sum_{i+j=N-1} f^(i/N) g^(j/N)

whose second factor is controlled by the member norms.  The pulled-back net
is then audited by direct measurement in the original quasi-norm; nothing is
trusted to the estimate alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import HypothesisError, ModelError
from .grid import GridFunction, _frozen
from .moduli import Family, bound_modulus
from .netbuilder import (
    NetCertificate,
    PowerTransferRecord,
    ValidationReport,
    _check_epsilon,
    _equicontinuity_refusal,
    _net_distances,
    _remeasure,
    build_certificate,
    validate_certificate,
)
from .spaces import WeightedSpace, weighted_norm

__all__ = [
    "select_power",
    "power_transfer",
    "root_space",
    "root_family",
    "split_nonnegative",
    "FactorizationGap",
    "factorization_gap",
    "quasi_certificate",
    "validate_quasi_certificate",
]


def select_power(p: float) -> int:
    """Power floor(1/p) + 1, the smallest integer N with p*N strictly above 1."""
    if not 0 < p < 1:
        raise ModelError(f"the power transfer applies to 0 < p < 1, got {p}")
    return int(math.floor(1.0 / p)) + 1


def power_transfer(f: GridFunction, n_power: int) -> GridFunction:
    """Cellwise N-th root; rejects negative values."""
    if n_power < 1:
        raise ModelError("power must be a positive integer")
    if np.any(f.values < 0):
        raise ModelError("power transfer needs nonnegative values; apply split_nonnegative first")
    return GridFunction(f.grid, _frozen(f.values ** (1.0 / n_power)))


def root_space(space: WeightedSpace, n_power: int) -> WeightedSpace:
    """Companion space with exponent p*N and the same weight."""
    return WeightedSpace(p=space.p * n_power, weight=space.weight)


def root_family(family: Family, n_power: int) -> Family:
    """The members' cellwise N-th roots; a member ``power_transfer`` rejects
    raises its ``ModelError`` under the member's label."""
    members = []
    for f, label in zip(family.members, family.labels):
        try:
            members.append(power_transfer(f, n_power))
        except ModelError as exc:
            raise ModelError(f"member {label!r}: {exc}") from None
    return Family(grid=family.grid, members=tuple(members), labels=family.labels)


def split_nonnegative(family: Family) -> Family:
    """Optional pre-step for signed members: replace each f by f+ and f-.

    Doubles the family; certificates then cover the nonnegative parts, and a
    net for the parts is a net for the signed members up to a factor two in
    the quasi-norm budget.
    """
    members = []
    labels = []
    for f, lab in zip(family.members, family.labels):
        members.append(GridFunction(f.grid, _frozen(np.maximum(f.values, 0.0))))
        labels.append(f"{lab}+")
        members.append(GridFunction(f.grid, _frozen(np.maximum(-f.values, 0.0))))
        labels.append(f"{lab}-")
    return Family(grid=family.grid, members=tuple(members), labels=tuple(labels))


@dataclass(frozen=True)
class FactorizationGap:
    lhs: float
    rhs: float
    constant: float
    passed: bool


def factorization_gap(
    f: GridFunction,
    g: GridFunction,
    space: WeightedSpace,
    n_power: int | None = None,
    rel_tol: float = 1e-9,
) -> FactorizationGap:
    """Compare ||f - g|| against the factorized bound through the roots.

    lhs is the quasi-norm distance, rhs is C * ||f^(1/N) - g^(1/N)||_Y with
    C = sum_{i+j=N-1} ||f||^(i/N) ||g||^(j/N) and the root norm taken in the
    companion space.  Both sides are computed by independent code paths; the
    pass flag allows the stated relative tolerance.
    """
    if n_power is None:
        n_power = select_power(space.p)
    nf = weighted_norm(f, space)
    ng = weighted_norm(g, space)
    lhs = weighted_norm(f - g, space)
    constant = sum(
        nf ** (i / n_power) * ng ** ((n_power - 1 - i) / n_power)
        for i in range(n_power)
    )
    root_gap = weighted_norm(
        power_transfer(f, n_power) - power_transfer(g, n_power), root_space(space, n_power)
    )
    rhs = constant * root_gap
    return FactorizationGap(
        lhs=lhs, rhs=rhs, constant=constant, passed=lhs <= rhs * (1 + rel_tol)
    )


def quasi_certificate(
    family: Family, space: WeightedSpace, epsilon: float, variant: str = "banach"
) -> NetCertificate:
    """Build a net for a nonnegative family in a quasi-normed weighted space.

    The root family is covered at eps_prime = epsilon / C_max in the companion
    space, where C_max = N * bound**((N-1)/N) caps the factorization constant
    over the family; the N-th powers of the net elements are then measured
    against every member in the original quasi-norm, and those audited
    distances ship with the certificate.
    """
    if not 0 < space.p < 1:
        raise ModelError("quasi_certificate applies to exponents 0 < p < 1")
    _check_epsilon(epsilon)
    n = select_power(space.p)
    ys = root_space(space, n)
    roots = root_family(family, n)
    bound = bound_modulus(family, space)
    c_max = n * bound ** ((n - 1) / n)
    # the audits measure against epsilon itself, so a root budget may be clamped
    eps_prime = min(epsilon / c_max, sys.float_info.max) if c_max > 0 else epsilon

    try:
        cert = build_certificate(roots, ys, eps_prime, variant=variant)
    except HypothesisError as refusal:
        # the refusal names the epsilon that builds as the caller passes it:
        # select_mesh's one-cell modulus, scaled by c_max
        raise _equicontinuity_refusal(
            roots.grid, refusal.modulus, refusal.threshold, c_max or 1.0
        ) from None

    # expansion only copies coefficients and 0.0**n == 0.0, so powering the
    # coefficients equals powering the expanded root net
    audits = _net_distances(
        family, cert.net_elements ** n, cert.assignment, cert.partition, space, epsilon
    )
    record = PowerTransferRecord(
        p=space.p,
        n_power=n,
        epsilon=epsilon,
        eps_prime=eps_prime,
        c_max=c_max,
        audit_distances=audits,
    )
    return replace(cert, quasi=record)


def validate_quasi_certificate(
    family: Family, certificate: NetCertificate, space: WeightedSpace
) -> ValidationReport:
    """Independent re-check of a power-transfer certificate.

    Validates the root-side certificate in the companion space and re-measures
    the quasi-norm distance from every member to its assigned net power.
    """
    if certificate.quasi is None:
        raise ModelError("certificate carries no power-transfer record")
    rec = certificate.quasi
    failures: list[str] = []
    if not math.isclose(space.p, rec.p, rel_tol=1e-12):
        failures.append(
            f"space exponent {space.p!r} does not match the transfer record {rec.p!r}"
        )
        return ValidationReport(False, tuple(failures), ())
    eps_prime = min(rec.epsilon / rec.c_max, sys.float_info.max) if rec.c_max > 0 else rec.epsilon
    if rec.n_power != select_power(rec.p):
        failures.append(f"the transfer record's power is not select_power({rec.p!r})")
    elif not rec.eps_prime == eps_prime == certificate.plan.epsilon:
        failures.append(
            f"the transfer record's eps_prime {rec.eps_prime!r} must equal both min(epsilon "
            f"/ c_max, max float), {eps_prime!r}, and the plan's epsilon {certificate.plan.epsilon!r}"
        )
    if failures:
        return ValidationReport(False, tuple(failures), ())
    ys = root_space(space, rec.n_power)
    roots = root_family(family, rec.n_power)
    root_report = validate_certificate(roots, certificate, ys)
    failures.extend(root_report.failures)
    if not root_report.distances:
        # the root-side check stopped before measuring: the certificate is malformed
        return ValidationReport(False, tuple(failures), ())

    with np.errstate(over="ignore"):
        powers = certificate.net_elements ** rec.n_power
    finite = np.isfinite(powers).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        failures.append(f"net element {row} overflows at the power {rec.n_power}")
        return ValidationReport(False, tuple(failures), ())
    distances, remeasured = _remeasure(
        family, powers, certificate.assignment,
        rec.audit_distances, certificate.partition, space, rec.epsilon,
        "quasi-norm audit distance",
    )
    # an assignment past the net is reported by the root side in the same words
    failures.extend(line for line in remeasured if line not in failures)
    return ValidationReport(not failures, tuple(failures), distances)
