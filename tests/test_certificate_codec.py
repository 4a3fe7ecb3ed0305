"""The certificate's JSON codec: exact round trips and an unchanged document.

``certificate_to_dict`` builds its document from ``dataclasses.asdict`` and
``ndarray.tolist``.  ``_reference_dict`` below is the field-by-field writer it
replaced; every document must serialise to the same text as the reference's.
``save_certificate`` streams that text without building it; every file it
writes must be ``json.dumps(certificate_to_dict(c), indent=2,
sort_keys=True)`` and a newline, whether the net takes its lattice path or is
formatted value by value.
"""

import dataclasses
import json
import math
import tracemalloc

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
    load_certificate,
    save_certificate,
)
from lpcompact.netbuilder import _lattice_texts


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


def test_certificate_owns_one_copy_of_its_net():
    net = np.array([[0.25, -0.5, 1.0]])
    cert = _with_net(_edge_certificate(quasi=False), net, 0.25)
    net[0, 0] = 7.0
    assert cert.net_elements[0, 0] == 0.25
    assert not cert.net_elements.flags.writeable
    # a document's net becomes one float64 array, not an array and its copy
    doc = certificate_to_dict(_with_net(cert, np.ones((8, 65536)), 0.25))
    tracemalloc.start()
    try:
        loaded = certificate_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * loaded.net_elements.nbytes


# number tokens as a certificate file may spell them: both zeros, ints, the
# smallest subnormal, a normal boundary, 1e400 (read as inf), json's
# constants and 17-digit reprs
_TOKENS = [
    "0.0", "-0.0", "0", "-0", "7", "-3", "5e-324", "-5e-324", "2.2250738585072014e-308",
    "1e400", "-1e400", "0.1", "0.30000000000000004", "1.0000000000000002", "1E5",
    "NaN", "Infinity", "-Infinity",
]


@st.composite
def net_tokens(draw):
    """Net rows and distances drawn from a small pool of tokens, so that
    texts repeat within and across fields as in a quantized net."""
    token = st.one_of(
        st.sampled_from(_TOKENS), _finite.map(repr), st.integers(-(2 ** 70), 2 ** 70).map(str)
    )
    pool = draw(st.lists(token, min_size=1, max_size=6))
    n_cubes = draw(st.integers(1, 6))
    rows = draw(st.lists(
        st.lists(st.sampled_from(pool), min_size=n_cubes, max_size=n_cubes), min_size=1, max_size=4
    ))
    return rows, draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3))


def _json_array(tokens):
    if tokens and isinstance(tokens[0], list):
        return "[" + ", ".join(map(_json_array, tokens)) + "]"
    return "[" + ", ".join(tokens) + "]"


@settings(max_examples=80, deadline=None)
@given(st.booleans(), net_tokens())
@example(False, ([["0.0", "-0.0", "0.0"], ["1e400", "5e-324", "0"]], ["-0.0", "0.0", "NaN"]))
def test_load_certificate_matches_the_default_parse(tmp_path_factory, quasi, tokens):
    rows, distances = tokens
    doc = certificate_to_dict(_edge_certificate(quasi))
    doc.update(net_elements="@net@", distances="@distances@")
    text = (
        json.dumps(doc, indent=2)
        .replace('"@net@"', _json_array(rows))
        .replace('"@distances@"', _json_array(distances))
    )
    path = tmp_path_factory.mktemp("cert") / "cert.json"
    path.write_text(text)
    assert _exact(load_certificate(path)) == _exact(certificate_from_dict(json.loads(text)))


def _saved_text(cert, tmp_path):
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    return path.read_text()


def _with_net(cert, net, quant_step):
    plan = dataclasses.replace(cert.plan, quant_step=quant_step)
    return dataclasses.replace(cert, plan=plan, net_elements=net)


@st.composite
def lattice_certificates(draw):
    """Nets of integer lattice points times a step, within a span of
    ``net.size`` points: one-cube rows too, and quasi records."""
    base = draw(st.one_of(_any_certificate, st.just(_edge_certificate(quasi=True))))
    step = draw(st.sampled_from([0.1, 1 / 3, 5e-324, 1.0] + [2.0 ** -k for k in (1, 7, 30, 60)]))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)))
    size = shape[0] * shape[1]
    lo = draw(st.integers(-(2 ** 40), 2 ** 40))
    points = draw(st.lists(st.integers(lo, lo + size), min_size=size, max_size=size))
    return _with_net(base, np.array(points, dtype=np.int64).reshape(shape) * step, step)


@st.composite
def fallback_certificates(draw):
    """Lattice nets that must be formatted value by value: a planted -0.0,
    NaN or infinity, or a span of lattice points wider than the net."""
    cert = draw(lattice_certificates())
    net = cert.net_elements.copy()
    where = draw(st.integers(0, net.size - 1))
    planted = draw(st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
    net.flat[where] = planted
    wide = np.array([[0.0, 2.0 ** 60]])
    return draw(st.sampled_from([
        _with_net(cert, net, cert.plan.quant_step),
        _with_net(cert, wide, 1.0),
    ]))


@settings(max_examples=40, deadline=None)
@given(_any_certificate)
@example(_edge_certificate(quasi=False))
@example(_edge_certificate(quasi=True))
def test_saved_text_is_json_dumps(tmp_path_factory, cert):
    text = _saved_text(cert, tmp_path_factory.mktemp("cert"))
    assert text == _text(certificate_to_dict(cert)) + "\n"


@settings(max_examples=60, deadline=None)
@given(lattice_certificates())
def test_saved_lattice_net_is_json_dumps(tmp_path_factory, cert):
    assert _lattice_texts(cert.net_elements, cert.plan.quant_step) is not None
    text = _saved_text(cert, tmp_path_factory.mktemp("cert"))
    assert text == _text(certificate_to_dict(cert)) + "\n"


def _rows_on_the_table(net, step):
    """Per row, whether the writer takes it from the lattice table: there is
    a table, and the row's entries are its values bit for bit."""
    lattice = _lattice_texts(net, step)
    if lattice is None:
        return [False] * len(net)
    lo, bits, _ = lattice
    index = (np.rint(net / step) - lo).astype(np.intp)
    return [np.array_equal(bits[i], row.view(np.int64)) for i, row in zip(index, net)]


@settings(max_examples=60, deadline=None)
@given(fallback_certificates())
@example(_with_net(_edge_certificate(quasi=False), np.array([[0.1, -0.0, 0.2]]), 0.1))
def test_saved_fallback_net_is_json_dumps(tmp_path_factory, cert):
    assert not all(_rows_on_the_table(cert.net_elements, cert.plan.quant_step))
    text = _saved_text(cert, tmp_path_factory.mktemp("cert"))
    assert text == _text(certificate_to_dict(cert)) + "\n"


def test_saved_net_falls_back_row_by_row(tmp_path):
    # one table for the net, decided per row: the first row is on the
    # lattice, the second holds -0.0 and the third 0.3, not 3 * 0.1
    net = np.array([[0.1, 0.2, 3 * 0.1], [0.1, -0.0, 0.2], [0.3, 0.2, 0.1]])
    cert = _with_net(_edge_certificate(quasi=False), net, 0.1)
    assert _rows_on_the_table(net, 0.1) == [True, False, False]
    text = _saved_text(cert, tmp_path)
    assert text == _text(certificate_to_dict(cert)) + "\n"
    saved = np.array(json.loads(text)["net_elements"])
    np.testing.assert_array_equal(saved.view(np.int64), net.view(np.int64))


def test_saved_text_streams_within_the_reference_memory(tmp_path):
    # an (8, 65536) lattice net, the shape of the benchmark's per-cube
    # workload: the writer must peak no higher than json.dump of the document
    rng = np.random.default_rng(0)
    cert = _with_net(
        _edge_certificate(quasi=False), rng.integers(-5, 5, (8, 65536)) * 0.1, 0.1
    )
    cert = dataclasses.replace(
        cert, null_cubes=tuple(range(0, 65536, 2)), witness_cells=tuple(range(65536))
    )

    def peak(write):
        tracemalloc.start()
        try:
            write()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def reference():
        with open(tmp_path / "reference.json", "w") as fh:
            json.dump(certificate_to_dict(cert), fh, indent=2, sort_keys=True)

    streamed = peak(lambda: save_certificate(cert, tmp_path / "streamed.json"))
    assert streamed <= peak(reference)
