"""Acceptance gate: one test per published criterion, one verdict line each.

Every test prints a single line `criterion N: PASS/FAIL | ...` with the
measured quantities next to their limits, then asserts.  Tolerances are fixed
here and nowhere else; helper fixtures build the shared 20-member Gaussian
family once per session.
"""

import math
from time import perf_counter

import numpy as np
import pytest

from lpcompact import (
    Constant,
    Family,
    Gaussian,
    Grid,
    GridFunction,
    ModelError,
    PowerLaw,
    WeightedSpace,
    a1_constant,
    ap_constant,
    averaged_modulus,
    blowup_fit,
    bound_modulus,
    build_certificate,
    certificate_to_dict,
    check_lattice_axioms,
    completeness_run,
    cube_projection,
    expand_coefficients,
    factorization_gap,
    finiteness_witness,
    indicator_norm,
    inside_mask,
    l1_embedding_sweep,
    power_transfer,
    projection_error,
    quasi_certificate,
    root_space,
    sample,
    save_certificate,
    tail_modulus,
    translation_modulus,
    validate_certificate,
    validate_quasi_certificate,
    verify_averaging_bound,
    weighted_norm,
)
from lpcompact.netbuilder import null_cube_mask


def _line(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} | {detail}")


@pytest.fixture(scope="module")
def gauss20():
    # twenty Gaussian translates in L^2 with the square-root power weight on [-4, 4]
    grid = Grid(dim=1, box_level=2, cell_exp=-9)
    centers = np.linspace(-1.5, 1.5, 20)
    fam = Family.from_profiles(
        grid, [Gaussian(center=float(c), sigma=0.5) for c in centers]
    )
    space = WeightedSpace(2.0, sample(PowerLaw(0.5), grid))
    return grid, fam, space, bound_modulus(fam, space)


@pytest.fixture(scope="module")
def cert20(gauss20):
    grid, fam, space, bound = gauss20
    eps = 0.05 * bound
    t0 = perf_counter()
    cert = build_certificate(fam, space, eps)
    report = validate_certificate(fam, cert, space)
    elapsed = perf_counter() - t0
    return cert, report, eps, elapsed


def test_criterion_01_blowup_rate():
    t0 = perf_counter()
    grid = Grid(dim=1, box_level=0, cell_exp=-10)
    h = grid.cell_side
    ns = [2 ** k for k in range(3, 10)]
    slope1 = blowup_fit(1.0, grid, ns).slope
    rep2 = blowup_fit(2.0, grid, ns)

    # A cell belongs to the ball when its centre does and the weight x^2 is
    # sampled at centres, so the squared norm of chi_B(0,1/N) is the midpoint
    # sum h^3 K (4K^2 - 1) / 6 over K = 1/(N h) cells per radius: the integral
    # 2 (1/N)^3 / 3 times 1 - 1/(4K^2).  The mass 2/N is exact, hence
    # ratio = 2 (3/2)^(1/2) N^(1/2) (1 - 1/(4K^2))^(-1/2).
    details = []
    discrete_devs = []
    for n, r in rep2.rows:
        k = round(1.0 / (n * h))
        continuum = 2.0 * math.sqrt(1.5) * math.sqrt(n)
        midpoint = (1.0 - 1.0 / (4.0 * k * k)) ** -0.5
        discrete_devs.append(abs(r / (continuum * midpoint) - 1.0))
        details.append(
            f"N={n} K={k}: {discrete_devs[-1]:.1e} discrete, "
            f"{r / continuum - 1.0:.4%} continuum vs factor {midpoint - 1.0:.4%}"
        )
    elapsed = perf_counter() - t0

    ok_slopes = abs(slope1 - 1.0) <= 0.05 and abs(rep2.slope - 0.5) <= 0.025
    ok_form = max(discrete_devs) <= 1e-12
    ok_time = elapsed < 5.0
    _line(
        1,
        ok_slopes and ok_form and ok_time,
        f"slopes p=1: {slope1:.6f} (1 +/- 5%), p=2: {rep2.slope:.6f} (0.5 +/- 5%); "
        f"p=2 ratio deviations (discrete limit 1e-12): {'; '.join(details)}; "
        f"{elapsed:.2f}s (limit 5s)",
    )
    assert ok_slopes, f"log-log slope off by more than 5%: p=1 {slope1}, p=2 {rep2.slope}"
    assert ok_time, f"blow-up study took {elapsed:.2f}s, limit 5s"
    assert ok_form, (
        "p=2 ratios deviate from 2*(3/2)^(1/2)*N^(1/2)*(1 - 1/(4K^2))^(-1/2) by "
        f"{max(discrete_devs):.3e} > 1e-12 relative"
    )


def test_criterion_02_certificate_validity(gauss20, cert20):
    grid, fam, space, bound = gauss20
    cert, report, eps, elapsed = cert20
    third = eps / 3.0
    part = cert.partition
    m = cert.plan.box_level

    nulls = null_cube_mask(part, space) if cert.variant == "vanishing" else None
    margins = []
    for k, f in enumerate(fam.members):
        single = Family(grid, (f,), (fam.labels[k],))
        tail_k = tail_modulus(single, space, 2.0 ** m, region="box")
        coeffs_k = cube_projection(f, part, nulls)
        shift_k = translation_modulus(single, space, 2.0 ** cert.plan.cube_exp, stencil="box")
        proj_k = projection_error(f, coeffs_k, part, space, shift_k)[0]
        quant_k = weighted_norm(
            expand_coefficients(coeffs_k, part)
            - expand_coefficients(cert.net_elements[cert.assignment[k]], part),
            space,
        )
        margins.append(min(third - tail_k, third - proj_k, third - quant_k))

    ok = (
        report.passed
        and max(cert.distances) < eps
        and min(margins) >= 0.0
        and elapsed < 30.0
    )
    _line(
        2,
        ok,
        f"validated={report.passed}, max distance {max(cert.distances):.6f} < eps "
        f"{eps:.6f}, worst per-member budget margin {min(margins):.3e} >= 0, "
        f"{elapsed:.2f}s (limit 30s)",
    )
    assert report.passed and report.failures == ()
    assert max(cert.distances) < eps
    assert min(margins) >= 0.0
    assert elapsed < 30.0


def test_criterion_03_projection_inequality(gauss20, cert20):
    grid, fam, space, bound = gauss20
    cert, _, eps, _ = cert20
    part = cert.partition
    slack = 1e-10 * bound

    nulls = null_cube_mask(part, space) if cert.variant == "vanishing" else None
    worst = -math.inf
    for k, f in enumerate(fam.members):
        single = Family(grid, (f,), (fam.labels[k],))
        coeffs = cube_projection(f, part, nulls)
        shift = translation_modulus(single, space, 2.0 ** cert.plan.cube_exp, stencil="box")
        measured = projection_error(f, coeffs, part, space, shift)[0]
        guarantee = 2.0 ** grid.dim * shift
        worst = max(worst, measured - guarantee)
    ok = worst <= slack
    _line(
        3,
        ok,
        f"worst (measured - 2^n * translation) = {worst:.3e}, allowed {slack:.3e}",
    )
    assert ok


def test_criterion_04_averaged_below_translation():
    rng = np.random.default_rng(1234)
    grid = Grid(dim=1, box_level=1, cell_exp=-7)
    h = grid.cell_side
    worst = -math.inf
    for trial in range(20):
        p = 1.0 if trial % 2 == 0 else 2.0
        kind = trial % 4
        if kind == 0:
            w = np.full(grid.shape, rng.uniform(0.3, 3.0))
        elif kind == 1:
            w = sample(PowerLaw(float(rng.uniform(0.2, 1.5))), grid).values
        elif kind == 2:
            w = rng.uniform(0.05, 2.0, grid.shape)
        else:
            w = rng.uniform(0.05, 2.0, grid.shape)
            w[: grid.n_cells // 4] = 0.0
        space = WeightedSpace(p, GridFunction(grid, w))
        members = [GridFunction(grid, rng.normal(size=grid.shape)) for _ in range(2)]
        members.append(sample(Gaussian(center=float(rng.uniform(-1, 1)), sigma=0.3), grid))
        fam = Family(grid, tuple(members), ("a", "b", "c"))
        bound = bound_modulus(fam, space)
        for r in (h, 2 * h, 4 * h):
            gap = averaged_modulus(fam, space, r) - translation_modulus(
                fam, space, r, stencil="ball"
            )
            worst = max(worst, gap - 1e-10 * bound)
            assert verify_averaging_bound(fam, space, r).passed
    ok = worst <= 0.0
    _line(4, ok, f"20 families x 3 radii: worst excess {worst:.3e} (must be <= 0)")
    assert ok


def test_criterion_05_null_cube_weight(gauss20):
    grid, fam, _, _ = gauss20
    wv = sample(PowerLaw(0.5), grid).values.copy()
    wv[:16] = 0.0  # kill the leftmost cubes outright
    space = WeightedSpace(2.0, GridFunction(grid, wv))
    eps = 0.05 * bound_modulus(fam, space)
    cert = build_certificate(fam, space, eps, variant="vanishing")
    report = validate_certificate(fam, cert, space)

    part = cert.partition
    rng = np.random.default_rng(5)
    perturbed = np.array(cert.net_elements)
    perturbed[:, list(cert.null_cubes)] += rng.uniform(-100.0, 100.0, (perturbed.shape[0], len(cert.null_cubes)))
    rel = 0.0
    for k, f in enumerate(fam.members):
        base = cert.distances[k]
        moved = weighted_norm(
            f - expand_coefficients(perturbed[cert.assignment[k]], part), space
        )
        rel = max(rel, abs(moved - base) / base if base else abs(moved - base))
    ok = report.passed and len(cert.null_cubes) > 0 and rel <= 1e-12
    _line(
        5,
        ok,
        f"validated={report.passed} with {len(cert.null_cubes)} null cubes; "
        f"max relative distance change under perturbation {rel:.3e} (limit 1e-12)",
    )
    assert report.passed
    assert len(cert.null_cubes) > 0
    assert rel <= 1e-12


def test_criterion_06_quasi_pipeline():
    rng = np.random.default_rng(20260814)
    grid = Grid(dim=1, box_level=0, cell_exp=-10)
    space = WeightedSpace(0.5, sample(Constant(1.0), grid))
    y = root_space(space, 3)

    # (i) norm transfer identity on 100 random nonnegative functions
    worst_id = 0.0
    for _ in range(100):
        f = GridFunction(grid, rng.uniform(0.0, 1.0, grid.shape) * rng.uniform(0.2, 2.0))
        lhs = weighted_norm(power_transfer(f, 3), y)
        rhs = weighted_norm(f, space) ** (1.0 / 3.0)
        worst_id = max(worst_id, abs(lhs - rhs) / rhs)

    # (ii) factorization gap on 100 random nonnegative pairs
    fails = 0
    for _ in range(100):
        f = GridFunction(grid, rng.uniform(0.0, 1.0, grid.shape) * rng.uniform(0.2, 2.0))
        g = GridFunction(grid, rng.uniform(0.0, 1.0, grid.shape) * rng.uniform(0.2, 2.0))
        if not factorization_gap(f, g, space).passed:
            fails += 1

    # (iii) audited distances of a 20-member nonnegative family
    qgrid = Grid(dim=1, box_level=2, cell_exp=-10)
    qfam = Family.from_profiles(
        qgrid,
        [Gaussian(center=float(c), sigma=0.5) for c in np.linspace(-1.5, 1.5, 20)],
    )
    qspace = WeightedSpace(0.5, sample(Constant(1.0), qgrid))
    eps = 0.2 * bound_modulus(qfam, qspace)
    cert = quasi_certificate(qfam, qspace, eps)
    audit_ok = max(cert.quasi.audit_distances) < eps
    valid = validate_quasi_certificate(qfam, cert, qspace).passed

    ok = worst_id <= 1e-10 and fails == 0 and audit_ok and valid
    _line(
        6,
        ok,
        f"identity worst rel dev {worst_id:.3e} (limit 1e-10); factorization "
        f"failures {fails}/100; audit max {max(cert.quasi.audit_distances):.6f} < "
        f"eps {eps:.6f}, validated={valid}",
    )
    assert worst_id <= 1e-10
    assert fails == 0
    assert audit_ok and valid


def test_criterion_07_axiom_suite():
    rng = np.random.default_rng(777)
    grid = Grid(dim=1, box_level=1, cell_exp=-6)
    null_w = np.ones(grid.shape)
    null_w[: grid.n_cells // 8] = 0.0
    weights = {
        "flat": sample(Constant(1.0), grid),
        "power_half": sample(PowerLaw(0.5), grid),
        "power_two": sample(PowerLaw(2.0), grid),
        "null_cube": GridFunction(grid, null_w),
    }

    all_pass = True
    witness_ok = True
    for name, w in weights.items():
        space = WeightedSpace(2.0, w)
        probes = [GridFunction(grid, rng.normal(size=grid.shape)) for _ in range(50)]
        chains = []
        for _ in range(3):
            steps = np.maximum.accumulate(
                np.abs(rng.normal(size=(4,) + grid.shape)), axis=0
            )
            chains.append(tuple(GridFunction(grid, s) for s in steps))
        report = check_lattice_axioms(space, probes, chains)
        all_pass &= all(c.passed for c in report.checks)

        for _ in range(50):
            mask = rng.random(grid.shape) < rng.uniform(0.05, 0.9)
            f = probes[int(rng.integers(len(probes)))]
            if indicator_norm(space, mask) != 0.0:
                wit = finiteness_witness(space, f, mask)
                witness_ok &= bool(mask[wit.cell]) and w.values[wit.cell] > 0
            else:
                with pytest.raises(ModelError):
                    finiteness_witness(space, f, mask)

    # the central contrast: the critical power weight keeps every axiom and
    # witness intact while its dual mass blows up under refinement
    growth_ok = True
    cell_exps = [-7, -8, -9, -10, -11]
    ratios_by_p = {}
    for p in (1.0, 2.0):
        a = grid.dim * (p - 1.0) + 1.0
        masses = l1_embedding_sweep(PowerLaw(a), p, grid.dim, 0, cell_exps, 1.0, region="ball")
        ratios = [masses[i + 1] / masses[i] for i in range(len(masses) - 1)]
        ratios_by_p[p] = ratios
        growth_ok &= all(r >= 1.5 for r in ratios)
        for ce in cell_exps:
            g = Grid(dim=1, box_level=0, cell_exp=ce)
            sp = WeightedSpace(p, sample(PowerLaw(a), g))
            mask = inside_mask(g, 0.5, region="ball")
            wit = finiteness_witness(sp, GridFunction(g, np.ones(g.shape)), mask)
            witness_ok &= bool(mask[wit.cell])

    ok = all_pass and witness_ok and growth_ok
    _line(
        7,
        ok,
        f"axioms on 4 weights x 50 probes: {all_pass}; witnesses: {witness_ok}; "
        f"dual-mass ratios p=1 {[f'{r:.3f}' for r in ratios_by_p[1.0]]}, "
        f"p=2 {[f'{r:.3f}' for r in ratios_by_p[2.0]]} (each >= 1.5)",
    )
    assert all_pass
    assert witness_ok
    assert growth_ok


def test_criterion_08_ap_exactness():
    grid = Grid(dim=1, box_level=1, cell_exp=-5)
    grid2 = Grid(dim=2, box_level=0, cell_exp=-3)
    exact = True
    for g in (grid, grid2):
        for c in (0.5, 1.0, 3.0):
            w = sample(Constant(c), g)
            exact &= a1_constant(w) == 1.0
            for p in (1.5, 2.0, 4.0):
                exact &= ap_constant(w, p) == 1.0
    _line(8, exact, "ap_constant == 1.0 and a1_constant == 1.0 bitwise for all 9 combos x 2 grids")
    assert exact


def test_criterion_09_completeness_ladder():
    grid = Grid(dim=1, box_level=0, cell_exp=-5)
    space = WeightedSpace(2.0, sample(Constant(1.0), grid))
    rng = np.random.default_rng(9)
    seed = GridFunction(grid, rng.normal(size=grid.shape))
    rep = completeness_run(space, seed, steps=10)

    doms = [m for _, _, m in rep.dominator_rows]
    dom_ok = all(m <= 1.0 + 1e-12 for m in doms) and doms == sorted(doms)
    tail_ok = all(m <= 2.0 ** (1 - k) + 1e-12 for k, _, m in rep.tail_rows)
    ok = dom_ok and tail_ok and rep.dominator_finite
    _line(
        9,
        ok,
        f"K=10: dominator max {max(doms):.6f} <= 1 and monotone; worst tail slack "
        f"{max(m - 2.0 ** (1 - k) for k, _, m in rep.tail_rows):.3e} <= 1e-12",
    )
    assert dom_ok
    assert tail_ok
    assert rep.dominator_finite


def test_criterion_10_monotone_and_deterministic(gauss20, tmp_path):
    grid, fam, space, bound = gauss20
    sizes = []
    for frac in (0.02, 0.05, 0.1, 0.2):
        sizes.append(build_certificate(fam, space, frac * bound).n_net)
    monotone = sizes == sorted(sizes, reverse=True)

    cert_a = build_certificate(fam, space, 0.05 * bound)
    cert_b = build_certificate(fam, space, 0.05 * bound)
    save_certificate(cert_a, tmp_path / "a.json")
    save_certificate(cert_b, tmp_path / "b.json")
    identical = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert certificate_to_dict(cert_a) == certificate_to_dict(cert_b)

    ok = monotone and identical
    _line(
        10,
        ok,
        f"net sizes over the eps ladder {sizes} nonincreasing={monotone}; "
        f"byte-identical reruns={identical}",
    )
    assert monotone
    assert identical
