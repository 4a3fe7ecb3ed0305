"""The certificate's JSON codec: exact round trips and an unchanged document.

``certificate_to_dict`` builds its document from ``dataclasses.asdict`` and
``ndarray.tolist``.  ``_reference_dict`` below is the field-by-field writer it
replaced; every document must serialise to the same text as the reference's.
"""

import dataclasses
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpcompact import (
    EpsilonBudget,
    Grid,
    NetCertificate,
    NetPlan,
    PowerTransferRecord,
    certificate_from_dict,
    certificate_to_dict,
    save_certificate,
)


def _reference_dict(cert):
    plan = cert.plan
    doc = {
        "plan": {
            "epsilon": plan.epsilon,
            "box_level": plan.box_level,
            "cube_exp": plan.cube_exp,
            "quant_step": plan.quant_step,
            "coeff_bound": plan.coeff_bound,
            "budget": {
                "tail": plan.budget.tail,
                "projection": plan.budget.projection,
                "quantization": plan.budget.quantization,
            },
        },
        "grid": {
            "dim": cert.grid.dim,
            "box_level": cert.grid.box_level,
            "cell_exp": cert.grid.cell_exp,
        },
        "space_p": cert.space_p,
        "variant": cert.variant,
        "cube_order": "row-major by cube corner",
        "net_elements": [[float(v) for v in row] for row in cert.net_elements],
        "assignment": list(cert.assignment),
        "distances": list(cert.distances),
        "labels": list(cert.labels),
        "null_cubes": list(cert.null_cubes),
        "witness_cells": list(cert.witness_cells),
    }
    if cert.quasi is not None:
        q = cert.quasi
        doc["quasi"] = {
            "p": q.p,
            "n_power": q.n_power,
            "epsilon": q.epsilon,
            "eps_prime": q.eps_prime,
            "c_max": q.c_max,
            "audit_distances": list(q.audit_distances),
        }
    return doc


def _text(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def _exact(cert):
    """Every field of a certificate; floats by repr, so -0.0 is not 0.0."""
    fields = {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert)}
    net = fields.pop("net_elements")
    return repr(fields), net.shape, net.tobytes()


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def certificates(draw, variant, quasi):
    epsilon = draw(st.floats(min_value=1e-300, max_value=1e300))
    below_third = st.floats(min_value=0.0, max_value=epsilon / 3.0, exclude_max=True)
    plan = NetPlan(
        epsilon=epsilon,
        box_level=draw(st.integers(-3, 3)),
        cube_exp=draw(st.integers(-9, 3)),
        quant_step=draw(_positive),
        coeff_bound=draw(_finite),
        budget=EpsilonBudget(draw(below_third), draw(below_third), draw(below_third)),
    )
    n_cubes = draw(st.integers(1, 4))
    row = st.lists(_finite, min_size=n_cubes, max_size=n_cubes)
    net = draw(st.lists(row, min_size=1, max_size=3))
    n = draw(st.integers(1, 4))
    members = st.lists(_finite, min_size=n, max_size=n)
    cubes = st.lists(st.integers(-1, 2 ** 40), max_size=n_cubes)
    record = None
    if quasi:
        record = PowerTransferRecord(
            p=draw(_finite), n_power=draw(st.integers(2, 9)), epsilon=draw(_finite),
            eps_prime=draw(_finite), c_max=draw(_finite), audit_distances=tuple(draw(members)),
        )
    return NetCertificate(
        plan=plan,
        grid=Grid(draw(st.sampled_from([1, 2])), 3, draw(st.integers(-9, 3))),
        space_p=draw(_finite),
        variant=variant,
        net_elements=np.array(net),
        assignment=tuple(draw(st.lists(st.integers(0, len(net) - 1), min_size=n, max_size=n))),
        distances=tuple(draw(members)),
        labels=tuple(draw(st.lists(st.text(max_size=4), min_size=n, max_size=n, unique=True))),
        null_cubes=tuple(draw(cubes)) if variant == "vanishing" else (),
        witness_cells=tuple(draw(cubes)) if variant == "vanishing" else (),
        quasi=record,
    )


_any_certificate = st.one_of(
    certificates("banach", quasi=False),
    certificates("vanishing", quasi=False),
    certificates("banach", quasi=True),
    certificates("vanishing", quasi=True),
)


def _edge_certificate(quasi):
    """Net entries at -0.0, the smallest subnormal, 1e300 and their negatives."""
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 2.2250738585072014e-308, 0.1]
    record = PowerTransferRecord(0.5, 3, 1.0, 0.25, 4.0, (-0.0, 5e-324, 1e300)) if quasi else None
    return NetCertificate(
        plan=NetPlan(1.0, 0, -2, 5e-324, 1e300, EpsilonBudget(0.0, -0.0, 5e-324)),
        grid=Grid(1, 0, -3),
        space_p=1.5,
        variant="vanishing",
        net_elements=np.array([edges, edges[::-1]]),
        assignment=(1, 0, 1),
        distances=(-0.0, 5e-324, 1e300),
        labels=("a", "b", "c"),
        null_cubes=(0, 7),
        witness_cells=(-1, 3, 4, 5, 6, 7, 8, -1),
        quasi=record,
    )


@settings(max_examples=40, deadline=None)
@given(_any_certificate)
@example(_edge_certificate(quasi=False))
@example(_edge_certificate(quasi=True))
def test_certificate_dict_round_trip_is_exact(cert):
    doc = certificate_to_dict(cert)
    assert _exact(certificate_from_dict(doc)) == _exact(cert)
    assert _exact(certificate_from_dict(json.loads(_text(doc)))) == _exact(cert)


@settings(max_examples=40, deadline=None)
@given(_any_certificate)
@example(_edge_certificate(quasi=False))
@example(_edge_certificate(quasi=True))
def test_certificate_dict_serialises_as_the_reference(cert):
    assert _text(certificate_to_dict(cert)) == _text(_reference_dict(cert))


def test_saved_certificate_is_the_reference_text(tmp_path):
    cert = _edge_certificate(quasi=True)
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    assert path.read_text() == _text(_reference_dict(cert)) + "\n"
    assert "-0.0" in path.read_text() and "5e-324" in path.read_text()
