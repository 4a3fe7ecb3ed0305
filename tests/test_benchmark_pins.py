"""Byte identity of the benchmark certificates.

Builds the three benchmark workloads at their reference seed, exactly as the
benchmark's ``lpcompact net`` children do (spec written as JSON, epsilon the
workload's share of the uniform bound), and checks each saved certificate
against the sha256 pinned in ``bench/expectations.json``.  A change to the
pipeline that moves a single float of a certificate fails here.  So does a
deletion or rename of any function the traced benchmark run wraps by name.
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


@pytest.mark.parametrize("name", sorted(PINS))
def test_reference_certificate_matches_pin(tmp_path, name):
    workload = WORKLOADS.WORKLOADS[name]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(workload.spec(WORKLOADS.DEFAULT_SEED), indent=1, sort_keys=True)
    )
    problem = load_problem(spec_path)
    epsilon = workload.eps_share * bound_modulus(problem.family, problem.space)
    build = build_certificate if problem.space.p >= 1 else quasi_certificate
    cert = build(problem.family, problem.space, epsilon, variant=workload.variant)
    cert_path = tmp_path / "cert.json"
    save_certificate(cert, cert_path)
    assert hashlib.sha256(cert_path.read_bytes()).hexdigest() == PINS[name]


def test_tracing_targets_resolve():
    # a traced benchmark run wraps every target by module and name, so a
    # target deleted or renamed in the package would break that run
    tracing = _bench_module("tracing")
    for _span, module, attr in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
