"""Byte identity of the benchmark certificates.

Builds the three benchmark workloads at their reference seed, exactly as the
benchmark's ``lpcompact net`` children do (spec written as JSON, epsilon the
workload's share of the uniform bound), and checks each saved certificate
against the sha256 pinned in ``bench/expectations.json``.  A change to the
pipeline that moves a single float of a certificate fails here.  So does a
deletion or rename of any function the traced benchmark run wraps by name,
and a build that measures more tail moduli or shifted differences than its
level scans need.
"""

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from lpcompact import (
    bound_modulus,
    build_certificate,
    load_problem,
    quasi_certificate,
    save_certificate,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    """Load ``bench/<name>.py`` read-only, under a name outside the package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench_module("workloads")
PINS = json.loads((BENCH / "expectations.json").read_text())["sha256_at_default_seed"]


def _reference_build(tmp_path, name):
    """Build a workload's certificate at its reference seed, as the
    benchmark's ``lpcompact net`` child does."""
    workload = WORKLOADS.WORKLOADS[name]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(workload.spec(WORKLOADS.DEFAULT_SEED), indent=1, sort_keys=True)
    )
    problem = load_problem(spec_path)
    epsilon = workload.eps_share * bound_modulus(problem.family, problem.space)
    build = build_certificate if problem.space.p >= 1 else quasi_certificate
    return build(problem.family, problem.space, epsilon, variant=workload.variant)


@pytest.mark.parametrize("name", sorted(PINS))
def test_reference_certificate_matches_pin(tmp_path, name):
    cert_path = tmp_path / "cert.json"
    save_certificate(_reference_build(tmp_path, name), cert_path)
    assert hashlib.sha256(cert_path.read_bytes()).hexdigest() == PINS[name]


# tail moduli, exact shifted differences and member tails one reference
# build measures: both level scans stop at their first threshold crossing,
# where a full scan measured 16 / 2,560, 8 / 192 and 15 / 2,560.  On the 1-D
# workloads the ring bounds pass every ring up to the chosen level whole, and
# the next ring's first shift, measured, fails (-64 cells); at the chosen
# level (32 cells) each member takes one exact norm, and on quasi_half, whose
# bounds are within 5% of the moduli (bank1d's within 4e-6), 4 of the 20 take
# a second at -32 or 32 cells and 2 a second at 31 or -31.  sheet2d_null is
# 2-D, where every shift is measured: the 8 one-cell shifts of its 8 members,
# then the two-cell ring's first shift, which fails.  The tail scan fails at
# the first box below the ambient one, where member 0 is already over budget,
# so it takes one member norm, where measuring every member took 20, 8 and 20
WORK = {"bank1d": (1, 21, 1), "sheet2d_null": (1, 65, 1), "quasi_half": (1, 27, 1)}


@pytest.mark.parametrize("name", sorted(WORK))
def test_reference_build_work(tmp_path, monkeypatch, name):
    calls = {"tail_modulus": 0, "_shifted_difference": 0, "_array_norm": 0}
    # one entry per wrapped call in progress, True for tail_modulus
    stack = []

    def counted(module, attr, when=lambda: True):
        inner = getattr(importlib.import_module(module), attr)

        def wrapper(*args, **kwargs):
            calls[attr] += when()
            stack.append(attr == "tail_modulus")
            try:
                return inner(*args, **kwargs)
            finally:
                stack.pop()

        monkeypatch.setattr(f"{module}.{attr}", wrapper)

    # the tail scan calls tail_modulus through netbuilder's import of it, and
    # tail_modulus the norm kernel through moduli's; a member tail is a
    # kernel call made inside tail_modulus
    counted("lpcompact.netbuilder", "tail_modulus")
    counted("lpcompact.moduli", "_shifted_difference")
    counted("lpcompact.moduli", "_array_norm", when=lambda: any(stack))
    _reference_build(tmp_path, name)
    assert tuple(calls.values()) == WORK[name]


def test_tracing_targets_resolve():
    # a traced benchmark run wraps every target by module and name, so a
    # target deleted or renamed in the package would break that run
    tracing = _bench_module("tracing")
    for _span, module, attr in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
