"""The validator as a hard boundary: a tampered certificate never slips through.

A hypothesis property edits one node of a saved Banach, vanishing or quasi
certificate document: a number, a type, a truncated or reordered list, or a
dropped key.  It then loads and validates the document as ``lpcompact
validate`` does.  The outcome must be a failure report or a ``ModelError``
(CLI exit 3), never any other exception.  A pass is accepted only when the
tampered certificate still tells the truth, as some edits leave it: a larger
epsilon or bound, a reordered null-cube list, another witness in the same
cube.  A reference re-measure through one GridFunction per member then finds
every member within the declared epsilon of its net element.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lpcompact import (
    Family,
    Gaussian,
    Grid,
    GridFunction,
    ModelError,
    PowerLaw,
    WeightedSpace,
    bound_modulus,
    build_certificate,
    certificate_to_dict,
    load_certificate,
    parse_problem,
    quasi_certificate,
    sample,
    validate_certificate,
    validate_quasi_certificate,
    weighted_norm,
)


def _spec(p, weight):
    return {
        "grid": {"dim": 1, "box_level": 2, "cell_exp": -6},
        "space": {"p": p, "weight": weight},
        "members": [
            {"kind": "gaussian", "center": c, "sigma": 0.5} for c in (-0.3, 0.0, 0.4)
        ],
    }


# name -> (spec, variant); the vanishing weight is cut at 1.5, inside the
# level-1 box the tails need, so there are null cubes to tamper with
CASES = {
    "banach": (_spec(2.0, {"kind": "power", "exponent": 0.5}), "banach"),
    "vanishing": (_spec(2.0, {"kind": "power", "exponent": 0.5, "support": 1.5}), "vanishing"),
    "quasi": (_spec(0.5, {"kind": "constant", "value": 1.0}), "banach"),
}


def _build(name):
    spec, variant = CASES[name]
    problem = parse_problem(spec, base_dir=Path("."))
    build = build_certificate if problem.space.p >= 1 else quasi_certificate
    epsilon = 0.5 * bound_modulus(problem.family, problem.space)
    cert = build(problem.family, problem.space, epsilon, variant=variant)
    return problem, certificate_to_dict(cert)


BUILT = {name: _build(name) for name in CASES}

REPLACEMENTS = [None, True, False, "", "x", [], {}, 0, -1, 1, 2.5, [0], [[0.0]], {"x": 0}]


def _covers(problem, cert):
    """Whether every member lies within the declared epsilon of its net element
    (its N-th power for a quasi certificate), one cube at a time."""
    elements, epsilon = cert.net_elements, cert.plan.epsilon
    if cert.quasi is not None:
        elements, epsilon = elements ** cert.quasi.n_power, cert.quasi.epsilon
    part = cert.partition
    for f, idx in zip(problem.family.members, cert.assignment):
        net = np.zeros(f.grid.shape)
        for cube, value in enumerate(elements[idx]):
            net[part.cube_slices(cube)] = value
        if not weighted_norm(f - GridFunction(f.grid, net), problem.space) < epsilon:
            return False
    return True


def _tamper(data, node):
    """Draw a path from ``node`` down to one of its nodes, and an edit of it;
    return the edited copy of ``node``."""
    if isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        edited = node.copy()
        edited[key] = _tamper(data, node[key])
        return edited
    edits = ["type"]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        edits.append("number")
    if isinstance(node, list) and node:
        edits.append("truncate")
    if isinstance(node, list) and len(node) > 1:
        edits.append("reorder")
    if isinstance(node, dict) and node:
        edits.append("drop")
    edit = data.draw(st.sampled_from(edits))
    if edit == "number":
        return data.draw(st.one_of(st.integers(-(2**70), 2**70), st.floats()))
    if edit == "truncate":
        return node[: data.draw(st.integers(0, len(node) - 1))]
    if edit == "reorder":
        return data.draw(st.permutations(node))
    if edit == "drop":
        key = data.draw(st.sampled_from(sorted(node)))
        return {k: v for k, v in node.items() if k != key}
    return data.draw(st.sampled_from(REPLACEMENTS))


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_tampered_certificate_fails_or_is_model_error(name, data):
    problem, doc = BUILT[name]
    tampered = _tamper(data, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(tampered))
        try:
            cert = load_certificate(path)
            validate = validate_certificate if cert.quasi is None else validate_quasi_certificate
            report = validate(problem.family, cert, problem.space)
        except ModelError:
            return
    if report.passed:
        assert _covers(problem, cert)


def _tiny_problem(p):
    """Three Gaussians at amplitude 2**-600 under weight |x|**0.5, at epsilon
    0.3 times the bound: every distance lies near 1e-183."""
    grid = Grid(dim=1, box_level=2, cell_exp=-8)
    family = Family.from_profiles(
        grid, [Gaussian(center=c, sigma=0.3, amplitude=2.0**-600) for c in (-0.5, 0.0, 0.5)]
    )
    space = WeightedSpace(p, sample(PowerLaw(0.5), grid))
    return family, space, 0.3 * bound_modulus(family, space)


@pytest.mark.parametrize("recorded", [0.0, 1e-13])
def test_recorded_distances_far_below_one_are_checked_relatively(recorded):
    # no absolute tolerance: a recorded 0.0 or 1e-13 disagrees with a
    # distance near 5e-183, while a relative change of 1e-12 still agrees
    family, space, epsilon = _tiny_problem(2.0)
    cert = build_certificate(family, space, epsilon)
    assert max(cert.distances) < 1e-182
    nudged = tuple(d * (1 + 1e-12) for d in cert.distances)
    assert validate_certificate(family, replace(cert, distances=nudged), space).passed
    report = validate_certificate(family, replace(cert, distances=(recorded,) * 3), space)
    assert not report.passed
    assert len(report.failures) == 3
    assert all(f"disagrees with the recorded {recorded!r}" in line for line in report.failures)


@pytest.mark.parametrize("recorded", [0.0, 1e-13])
def test_recorded_quasi_audits_far_below_one_are_checked_relatively(recorded):
    family, space, epsilon = _tiny_problem(0.5)
    cert = quasi_certificate(family, space, epsilon)
    audits = cert.quasi.audit_distances
    assert max(audits) < 1e-182
    nudged = replace(cert.quasi, audit_distances=tuple(d * (1 + 1e-12) for d in audits))
    assert validate_quasi_certificate(family, replace(cert, quasi=nudged), space).passed
    zeroed = replace(cert.quasi, audit_distances=(recorded,) * 3)
    report = validate_quasi_certificate(family, replace(cert, quasi=zeroed), space)
    assert not report.passed
    assert len(report.failures) == 3
    assert all(
        "audit distance" in line and f"disagrees with the recorded {recorded!r}" in line
        for line in report.failures
    )
