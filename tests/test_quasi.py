from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcompact import (
    Constant,
    Family,
    Gaussian,
    Grid,
    GridFunction,
    HypothesisError,
    Indicator,
    ModelError,
    WeightedSpace,
    bound_modulus,
    certificate_from_dict,
    certificate_to_dict,
    factorization_gap,
    power_transfer,
    quasi_certificate,
    root_family,
    root_space,
    sample,
    select_power,
    split_nonnegative,
    tail_modulus,
    translation_modulus,
    validate_quasi_certificate,
    weighted_norm,
)


def test_select_power_values():
    assert select_power(0.5) == 3
    assert select_power(0.9) == 2
    assert select_power(1.0 / 3.0) == 4
    assert select_power(0.99) == 2
    for bad in (1.0, 1.5, 0.0, -0.5):
        with pytest.raises(ModelError):
            select_power(bad)


@given(st.floats(min_value=0.01, max_value=0.99))
def test_select_power_exceeds_one(p):
    assert p * select_power(p) > 1.0


def test_power_transfer_basics(grid1d):
    ind = sample(Indicator(center=0.0, radius=0.5), grid1d)
    np.testing.assert_array_equal(power_transfer(ind, 3).values, ind.values)
    const = sample(Constant(8.0), grid1d)
    np.testing.assert_allclose(power_transfer(const, 3).values, 2.0)
    neg = GridFunction(grid1d, np.full(grid1d.shape, -1.0))
    with pytest.raises(ModelError, match="split"):
        power_transfer(neg, 3)
    with pytest.raises(ModelError):
        power_transfer(ind, 0)


def test_power_transfer_monotone(grid1d, rng):
    a = GridFunction(grid1d, rng.uniform(0.0, 2.0, grid1d.shape))
    b = a + GridFunction(grid1d, rng.uniform(0.0, 1.0, grid1d.shape))
    ra, rb = power_transfer(a, 4), power_transfer(b, 4)
    assert np.all(ra.values <= rb.values)


def test_root_space_and_family(grid1d, rng):
    sp = WeightedSpace(0.5, sample(Constant(1.0), grid1d))
    ys = root_space(sp, 3)
    assert ys.p == 1.5
    assert ys.weight is sp.weight
    vals = rng.uniform(0.0, 3.0, grid1d.shape)
    fam = Family(grid1d, (GridFunction(grid1d, vals),), ("f",))
    roots = root_family(fam, 3)
    assert roots.labels == ("f",)
    np.testing.assert_allclose(roots.members[0].values, vals ** (1.0 / 3.0))


def test_split_nonnegative(grid1d):
    vals = np.array([1.0, -2.0, 0.0, 3.0, -0.5, 0.0, 1.5, -1.0])
    fam = Family(grid1d, (GridFunction(grid1d, vals),), ("x",))
    parts = split_nonnegative(fam)
    assert parts.labels == ("x+", "x-")
    np.testing.assert_array_equal(parts.members[0].values, np.maximum(vals, 0.0))
    np.testing.assert_array_equal(parts.members[1].values, np.maximum(-vals, 0.0))
    # the signed member is recovered as the difference of the two parts
    np.testing.assert_array_equal(
        parts.members[0].values - parts.members[1].values, vals
    )


@given(
    st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=0.0, max_value=1e3),
    st.integers(min_value=2, max_value=4),
)
def test_root_difference_inequality(a, b, n):
    # |a^(1/N) - b^(1/N)|^N <= |a - b| for nonnegative reals
    gap = abs(a ** (1.0 / n) - b ** (1.0 / n)) ** n
    assert gap <= abs(a - b) * (1 + 1e-12) + 1e-300


def test_norm_transfer_identity():
    grid = Grid(dim=1, box_level=0, cell_exp=-6)
    rng = np.random.default_rng(7)
    sp = WeightedSpace(0.5, GridFunction(grid, rng.uniform(0.1, 2.0, grid.shape)))
    ys = root_space(sp, 3)
    for _ in range(20):
        f = GridFunction(grid, rng.uniform(0.0, 5.0, grid.shape))
        lhs = weighted_norm(power_transfer(f, 3), ys)
        rhs = weighted_norm(f, sp) ** (1.0 / 3.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_factorization_gap_degenerate_pairs(grid1d, rng):
    sp = WeightedSpace(0.5, sample(Constant(1.0), grid1d))
    f = GridFunction(grid1d, rng.uniform(0.0, 4.0, grid1d.shape))
    zero = GridFunction(grid1d, np.zeros(grid1d.shape))

    same = factorization_gap(f, f, sp)
    assert same.lhs == 0.0
    assert same.rhs == 0.0
    assert same.passed

    # against zero the factorization telescopes to an equality
    gap = factorization_gap(f, zero, sp)
    assert gap.passed
    assert gap.lhs == pytest.approx(gap.rhs, rel=1e-9)
    nf = weighted_norm(f, sp)
    assert gap.constant == pytest.approx(nf ** (2.0 / 3.0), rel=1e-12)


def test_factorization_gap_random_pairs():
    grid = Grid(dim=1, box_level=0, cell_exp=-8)
    sp = WeightedSpace(0.5, sample(Constant(1.0), grid))
    rng = np.random.default_rng(20260814)
    for _ in range(30):
        f = GridFunction(grid, rng.uniform(0.0, 1.0, grid.shape) * rng.uniform(0.2, 2.0))
        g = GridFunction(grid, rng.uniform(0.0, 1.0, grid.shape) * rng.uniform(0.2, 2.0))
        gap = factorization_gap(f, g, sp)
        assert gap.passed
        assert gap.lhs <= gap.rhs * (1 + 1e-9)


def test_transferred_moduli():
    grid = Grid(dim=1, box_level=1, cell_exp=-6)
    rng = np.random.default_rng(11)
    sp = WeightedSpace(0.5, GridFunction(grid, rng.uniform(0.2, 1.5, grid.shape)))
    members = tuple(
        GridFunction(grid, rng.uniform(0.0, 3.0, grid.shape)) for _ in range(4)
    )
    fam = Family(grid, members, tuple(f"m{i}" for i in range(4)))
    n = select_power(sp.p)
    roots, ys = root_family(fam, n), root_space(sp, n)

    # bound and tail transfer as exact N-th roots
    assert bound_modulus(roots, ys) == pytest.approx(
        bound_modulus(fam, sp) ** (1.0 / n), rel=1e-10
    )
    for r in (0.5, 1.0):
        assert tail_modulus(roots, ys, r, region="box") == pytest.approx(
            tail_modulus(fam, sp, r, region="box") ** (1.0 / n), rel=1e-10
        )
    # translation only transfers as an upper bound
    h = grid.cell_side
    for r in (h, 2 * h, 4 * h):
        lhs = translation_modulus(roots, ys, r, stencil="box")
        rhs = translation_modulus(fam, sp, r, stencil="box") ** (1.0 / n)
        assert lhs <= rhs * (1 + 1e-12)


@pytest.fixture(scope="module")
def quasi_problem():
    grid = Grid(dim=1, box_level=1, cell_exp=-8)
    centers = np.linspace(-0.5, 0.5, 5)
    fam = Family.from_profiles(
        grid, [Gaussian(center=float(c), sigma=0.4) for c in centers]
    )
    sp = WeightedSpace(0.5, sample(Constant(1.0), grid))
    return grid, fam, sp, bound_modulus(fam, sp)


def test_quasi_certificate_end_to_end(quasi_problem):
    grid, fam, sp, bound = quasi_problem
    eps = 0.2 * bound
    cert = quasi_certificate(fam, sp, eps)
    rec = cert.quasi
    assert rec is not None
    assert rec.p == 0.5
    assert rec.n_power == 3
    assert rec.c_max == pytest.approx(3.0 * bound ** (2.0 / 3.0), rel=1e-12)
    assert rec.eps_prime == pytest.approx(eps / rec.c_max, rel=1e-12)
    assert max(rec.audit_distances) < eps
    # root-side distances honor the transferred budget
    assert max(cert.distances) < rec.eps_prime
    assert cert.labels == fam.labels
    report = validate_quasi_certificate(fam, cert, sp)
    assert report.passed
    np.testing.assert_allclose(report.distances, rec.audit_distances, rtol=1e-9)


def test_quasi_validation_reports_a_net_element_past_float_range_at_the_power(quasi_problem):
    # 1e200 is a finite root, and its cube is not: the audit cannot measure it
    grid, fam, sp, bound = quasi_problem
    cert = quasi_certificate(fam, sp, 0.2 * bound)
    net = cert.net_elements.copy()
    net[0, 0] = 1e200
    report = validate_quasi_certificate(fam, replace(cert, net_elements=net), sp)
    assert not report.passed
    assert "net element 0 overflows at the power 3" in report.failures


def test_quasi_refusal_names_the_epsilon_the_caller_passes(quasi_problem):
    # below p = 1 the mesh is built for the roots at epsilon / c_max: the
    # refusal names the least epsilon in the caller's terms, 3 2**dim c_max
    # times the roots' largest one-cell modulus, rounded up, and that builds
    grid, fam, sp, bound = quasi_problem
    n = select_power(sp.p)
    c_max = n * bound ** ((n - 1) / n)
    top = translation_modulus(root_family(fam, n), root_space(sp, n), grid.cell_side, stencil="box")
    least = 3.0 * 2.0 * c_max * top
    with pytest.raises(HypothesisError) as err:
        quasi_certificate(fam, sp, least * (1.0 - 1e-9))
    assert err.value.criterion == "equicontinuity"
    printed = float(str(err.value).split("; epsilon ")[1].removesuffix(" or above builds"))
    assert least < printed <= least * (1.0 + 1e-5)
    for epsilon in (least * (1.0 + 1e-9), printed):
        assert validate_quasi_certificate(fam, quasi_certificate(fam, sp, epsilon), sp).passed


def test_quasi_certificate_rejections(quasi_problem, grid1d, rng):
    grid, fam, sp, bound = quasi_problem
    banach_space = WeightedSpace(2.0, sp.weight)
    with pytest.raises(ModelError, match="0 < p < 1"):
        quasi_certificate(fam, banach_space, 1.0)
    with pytest.raises(ModelError):
        quasi_certificate(fam, sp, 0.0)

    signed = Family(
        grid1d, (GridFunction(grid1d, np.linspace(-1, 1, 8)),), ("wavy",)
    )
    small = WeightedSpace(0.5, sample(Constant(1.0), grid1d))
    with pytest.raises(ModelError, match="split_nonnegative") as err:
        quasi_certificate(signed, small, 1.0)
    assert "wavy" in str(err.value)


def test_validate_quasi_certificate_names_a_signed_member(grid1d):
    # a certificate built for |wavy| holds nothing for the signed wavy: its
    # validation stops at the member's power transfer, and names the member
    # and split_nonnegative
    small = WeightedSpace(0.5, sample(Constant(1.0), grid1d))
    wavy = np.linspace(-1, 1, 8)
    unsigned = Family(grid1d, (GridFunction(grid1d, np.abs(wavy)),), ("wavy",))
    cert = quasi_certificate(unsigned, small, 20.0)
    signed = Family(grid1d, (GridFunction(grid1d, wavy),), ("wavy",))
    with pytest.raises(ModelError, match="split_nonnegative") as err:
        validate_quasi_certificate(signed, cert, small)
    assert "wavy" in str(err.value)


def test_validate_quasi_tampering(quasi_problem):
    grid, fam, sp, bound = quasi_problem
    cert = quasi_certificate(fam, sp, 0.2 * bound)
    from dataclasses import replace

    # inflated audit record disagrees with the re-measurement
    fake = replace(
        cert.quasi, audit_distances=tuple(d * 1.5 + 1e-6 for d in cert.quasi.audit_distances)
    )
    rep = validate_quasi_certificate(fam, replace(cert, quasi=fake), sp)
    assert not rep.passed
    assert any("disagrees" in msg for msg in rep.failures)

    # exponent mismatch is refused outright
    rep2 = validate_quasi_certificate(fam, cert, WeightedSpace(0.7, sp.weight))
    assert not rep2.passed
    assert any("exponent" in msg for msg in rep2.failures)

    # a plain certificate carries no transfer record to validate
    from lpcompact import build_certificate

    ys = root_space(sp, 3)
    plain = build_certificate(root_family(fam, 3), ys, 0.2 * bound_modulus(root_family(fam, 3), ys))
    with pytest.raises(ModelError):
        validate_quasi_certificate(fam, plain, sp)


def test_quasi_certificate_json_roundtrip(quasi_problem):
    grid, fam, sp, bound = quasi_problem
    cert = quasi_certificate(fam, sp, 0.2 * bound)
    doc = certificate_to_dict(cert)
    assert set(doc["quasi"]) == {
        "p",
        "n_power",
        "epsilon",
        "eps_prime",
        "c_max",
        "audit_distances",
    }
    clone = certificate_from_dict(doc)
    assert clone.quasi == cert.quasi
    assert validate_quasi_certificate(fam, clone, sp).passed


def test_passed_roots_give_the_same_certificate_and_report(quasi_problem):
    # roots passed in are the ones the functions form: the same certificate
    # and the same verdict, distance for distance
    grid, fam, sp, bound = quasi_problem
    roots = root_family(fam, select_power(sp.p))
    cert = quasi_certificate(fam, sp, 0.2 * bound)
    shared = quasi_certificate(fam, sp, 0.2 * bound, roots=roots)
    assert certificate_to_dict(shared) == certificate_to_dict(cert)
    assert validate_quasi_certificate(fam, cert, sp, roots=roots) == validate_quasi_certificate(
        fam, cert, sp
    )


def test_validate_with_roots_other_than_the_members_roots_fails(quasi_problem):
    # one root member scaled by 1 + 2**-20 moves its root-side distance far
    # past the relative tolerance: the root-side check fails, though the
    # audits, which read the members, still pass
    grid, fam, sp, bound = quasi_problem
    cert = quasi_certificate(fam, sp, 0.2 * bound)
    roots = root_family(fam, select_power(sp.p))
    members = list(roots.members)
    members[2] = GridFunction(grid, members[2].values * (1 + 2.0**-20))
    report = validate_quasi_certificate(fam, cert, sp, roots=replace(roots, members=tuple(members)))
    assert not report.passed
    assert len(report.failures) == 1
    assert report.failures[0].startswith("member 'm02': recomputed distance ")


@pytest.mark.parametrize("wrong", ["short", "grid"])
def test_roots_of_another_family_are_refused(quasi_problem, wrong):
    # roots missing a member, or on another grid under the same labels: the
    # build raises a ModelError, and the root-side check reports a failure
    # and measures nothing
    grid, fam, sp, bound = quasi_problem
    n = select_power(sp.p)
    if wrong == "short":
        roots = root_family(Family(grid, fam.members[:-1], fam.labels[:-1]), n)
    else:
        coarse = Grid(dim=1, box_level=1, cell_exp=-7)
        roots = root_family(
            Family.from_profiles(coarse, [Constant(1.0)] * len(fam), labels=fam.labels), n
        )
    with pytest.raises(ModelError, match="the roots passed are not on the family's grid"):
        quasi_certificate(fam, sp, 0.2 * bound, roots=roots)
    report = validate_quasi_certificate(fam, quasi_certificate(fam, sp, 0.2 * bound), sp, roots=roots)
    assert not report.passed
    assert report.distances == ()
    expected = {
        "short": "certificate labels do not match the family's labels",
        "grid": "family grid does not match the certificate grid",
    }
    assert expected[wrong] in report.failures
