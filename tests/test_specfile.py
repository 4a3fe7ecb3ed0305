import copy
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcompact import (
    Bump,
    Constant,
    EpsilonBudget,
    Grid,
    Indicator,
    ModelError,
    NetPlan,
    PowerLaw,
    PowerTransferRecord,
    SpecFileError,
    load_problem,
    parse_problem,
    sample,
)
from lpcompact.profiles import Gaussian


def base_doc():
    return {
        "grid": {"dim": 1, "box_level": 1, "cell_exp": -6},
        "space": {"p": 2.0, "weight": {"kind": "power", "exponent": 0.5}},
        "members": [
            {"kind": "gaussian", "center": 0.3, "sigma": 0.4},
            {"kind": "constant", "value": 1.0, "label": "flat"},
            {"kind": "bump", "center": -0.5, "radius": 0.25, "amplitude": 2.0},
            {"kind": "indicator", "center": 0.0, "radius": 0.75},
        ],
    }


def test_parse_full_document():
    prob = parse_problem(base_doc())
    assert prob.grid.dim == 1
    assert prob.grid.box_level == 1
    assert prob.grid.cell_exp == -6
    assert prob.space.p == 2.0
    assert isinstance(prob.weight_profile, PowerLaw)
    assert prob.family.labels == ("m00", "flat", "m02", "m03")
    expected = sample(Gaussian(center=0.3, sigma=0.4), prob.grid)
    np.testing.assert_array_equal(prob.family.members[0].values, expected.values)



def test_parse_samples_on_one_center_mesh(monkeypatch):
    # the weight and all four members on one mesh, where the weight and the
    # members used to take one each, and every profile before that its own
    calls = []
    center_mesh = Grid.center_mesh

    def counted(grid):
        calls.append(grid)
        return center_mesh(grid)

    monkeypatch.setattr(Grid, "center_mesh", counted)
    prob = parse_problem(base_doc())
    assert calls == [prob.grid]
    # a spec error in the last member or in the labels is raised before
    # anything is sampled
    for edit in (lambda d: d["members"][3].update(radius="wide"),
                 lambda d: d.update(labels=["a", "a", "b", "c"])):
        doc = base_doc()
        edit(doc)
        with pytest.raises(SpecFileError):
            parse_problem(doc)
    assert calls == [prob.grid]


def test_top_level_labels_override():
    doc = base_doc()
    doc["labels"] = ["a", "b", "c", "d"]
    prob = parse_problem(doc)
    assert prob.family.labels == ("a", "b", "c", "d")


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(comment="hi"), "comment"),
        (lambda d: d["grid"].update(h=0.1), "h"),
        (lambda d: d["space"].update(q=3), "q"),
        (lambda d: d["members"][0].update(sgima=1.0), "sgima"),
        (lambda d: d["members"][3].update(amplitude=2.0), "amplitude"),
    ],
)
def test_unknown_keys_rejected(mutate, fragment):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(SpecFileError) as err:
        parse_problem(doc)
    assert fragment in str(err.value)


def test_missing_keys_rejected():
    doc = base_doc()
    del doc["space"]
    with pytest.raises(SpecFileError, match="missing"):
        parse_problem(doc)
    doc2 = base_doc()
    del doc2["grid"]["cell_exp"]
    with pytest.raises(SpecFileError, match="cell_exp"):
        parse_problem(doc2)


def test_label_rules():
    doc = base_doc()
    doc["labels"] = ["only", "three", "given"]
    with pytest.raises(SpecFileError, match="one string per member"):
        parse_problem(doc)

    doc = base_doc()
    doc["labels"] = ["x", "x", "y", "z"]
    with pytest.raises(SpecFileError, match="unique"):
        parse_problem(doc)

    doc = base_doc()
    doc["members"][0]["label"] = 7
    with pytest.raises(SpecFileError, match="label must be a string"):
        parse_problem(doc)


def test_member_list_shape():
    doc = base_doc()
    doc["members"] = []
    with pytest.raises(SpecFileError, match="non-empty"):
        parse_problem(doc)
    doc["members"] = ["not a dict"]
    with pytest.raises(SpecFileError, match="must be an object"):
        parse_problem(doc)


def test_numbers_must_not_be_booleans():
    doc = base_doc()
    doc["space"]["p"] = True
    with pytest.raises(SpecFileError, match="must be a number"):
        parse_problem(doc)

    doc = base_doc()
    doc["grid"]["dim"] = 1.5
    with pytest.raises(SpecFileError, match="must be an integer"):
        parse_problem(doc)


def test_vector_centers():
    doc = base_doc()
    doc["grid"] = {"dim": 2, "box_level": 0, "cell_exp": -3}
    doc["members"] = [{"kind": "gaussian", "center": [0.25, -0.25], "sigma": 0.5}]
    prob = parse_problem(doc)
    assert prob.family.members[0].values.shape == prob.grid.shape

    doc["members"] = [{"kind": "gaussian", "center": "origin", "sigma": 0.5}]
    with pytest.raises(SpecFileError, match="center"):
        parse_problem(doc)

    doc["members"] = [{"kind": "gaussian", "center": [0.1, True], "sigma": 0.5}]
    with pytest.raises(SpecFileError, match="center"):
        parse_problem(doc)


def test_table_inline_and_csv(tmp_path):
    n = 2 ** 3  # dim 1, box 0, cell -2: eight cells
    doc = {
        "grid": {"dim": 1, "box_level": 0, "cell_exp": -2},
        "space": {"p": 1.0, "weight": {"kind": "table", "values": [1.0] * n}},
        "members": [{"kind": "table", "path": "member.csv"}],
    }
    (tmp_path / "member.csv").write_text(",".join(str(float(i)) for i in range(n)) + "\n")
    spec_path = tmp_path / "problem.json"
    spec_path.write_text(json.dumps(doc))
    prob = load_problem(spec_path)
    np.testing.assert_array_equal(prob.family.members[0].values, np.arange(float(n)))

    doc["members"] = [{"kind": "table", "values": [0.0] * n, "path": "member.csv"}]
    spec_path.write_text(json.dumps(doc))
    with pytest.raises(SpecFileError, match="exactly one"):
        load_problem(spec_path)

    doc["members"] = [{"kind": "table", "path": "missing.csv"}]
    spec_path.write_text(json.dumps(doc))
    with pytest.raises(SpecFileError, match="cannot read table"):
        load_problem(spec_path)

    (tmp_path / "junk.csv").write_text("1.0,apple\n")
    doc["members"] = [{"kind": "table", "path": "junk.csv"}]
    spec_path.write_text(json.dumps(doc))
    with pytest.raises(SpecFileError, match="non-numeric"):
        load_problem(spec_path)

    (tmp_path / "empty.csv").write_text("")
    doc["members"] = [{"kind": "table", "path": "empty.csv"}]
    spec_path.write_text(json.dumps(doc))
    with pytest.raises(SpecFileError, match="empty"):
        load_problem(spec_path)

    (tmp_path / "ragged.csv").write_text("1,2,3,4\n5,6,7\n")
    doc["members"] = [{"kind": "table", "path": "ragged.csv"}]
    spec_path.write_text(json.dumps(doc))
    with pytest.raises(SpecFileError, match=r"^spec.members\[0\].values has rows of different"):
        load_problem(spec_path)


def test_unknown_profile_kind():
    doc = base_doc()
    doc["members"][0] = {"kind": "wavelet"}
    with pytest.raises(SpecFileError, match="wavelet"):
        parse_problem(doc)


def test_load_problem_errors(tmp_path):
    with pytest.raises(SpecFileError, match="cannot read spec"):
        load_problem(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFileError, match="not valid JSON"):
        load_problem(bad)


@pytest.mark.parametrize(
    "profile, message",
    [
        ({"center": 0.3}, "spec.members[0] is missing keys ['kind']"),
        ({"kind": "gaussian", "center": 0.3}, "spec.members[0] is missing keys ['sigma']"),
        # unknown keys are reported before missing ones
        (
            {"kind": "gaussian", "center": 0.3, "sgima": 0.4},
            "spec.members[0] has unknown keys ['sgima']",
        ),
        (
            {"kind": "constant", "value": 1.0, "amplitude": 2.0},
            "spec.members[0] has unknown keys ['amplitude']",
        ),
        ({"kind": "power", "support": 1.0}, "spec.members[0] is missing keys ['exponent']"),
        ({"kind": "table"}, "spec.members[0] needs exactly one of 'values' or 'path'"),
        ({"kind": "wavelet", "scale": 1.0}, "spec.members[0] has unknown keys ['scale']"),
        ({"kind": "wavelet", "sigma": 1.0}, "spec.members[0]: unknown profile kind 'wavelet'"),
        (
            {"kind": ["gaussian"], "sigma": 1.0},
            "spec.members[0]: unknown profile kind ['gaussian']",
        ),
    ],
)
def test_profile_key_errors(profile, message):
    doc = base_doc()
    doc["members"][0] = profile
    with pytest.raises(SpecFileError) as err:
        parse_problem(doc)
    assert str(err.value) == message


def test_weight_profile_must_be_an_object():
    doc = base_doc()
    doc["space"]["weight"] = [0.5]
    with pytest.raises(SpecFileError) as err:
        parse_problem(doc)
    assert str(err.value) == "spec.space.weight must be an object, got list"


def _nested_list(depth):
    values = [1.0]
    for _ in range(depth):
        values = [values]
    return values


@pytest.mark.parametrize(
    "values, message",
    [
        ({"a": 1}, "values may hold only numbers, got {'a': 1}"),
        ([[1, 2], [3]], "values has rows of different shapes"),
        ([[1], 2], "values has rows of different shapes"),
        ([[[1]], [[2]]], "values nests lists deeper than a grid's two axes"),
        # json reads lists nested this deep; the check used to recurse
        # through all of them and end in a RecursionError
        (_nested_list(5000), "values nests lists deeper than a grid's two axes"),
    ],
    ids=["object", "ragged", "mixed", "three_axes", "deep"],
)
def test_table_entries_are_numbers_in_a_rectangle(values, message):
    # the command line tests take single bad entries, under -W error too
    doc = base_doc()
    doc["members"] = [{"kind": "table", "values": values}]
    with pytest.raises(SpecFileError) as err:
        parse_problem(doc)
    assert str(err.value) == f"spec.members[0].{message}"


# per record class _record reads, the fields it reads through its own
# function and the fields annotated int; any other field must be a float
_RECORDS = [
    (Grid, set(), {"dim", "box_level", "cell_exp"}),
    (NetPlan, {"budget"}, {"box_level", "cube_exp"}),
    (EpsilonBudget, set(), set()),
    (PowerTransferRecord, {"audit_distances"}, {"n_power"}),
    (Constant, set(), set()),
    (Gaussian, {"center"}, set()),
    (Bump, {"center"}, set()),
    (Indicator, {"center"}, set()),
    (PowerLaw, set(), set()),
]


@pytest.mark.parametrize("cls, read, integers", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
def test_record_fields_are_read_by_their_annotations(cls, read, integers):
    # _record reads a field annotated "int" as an integer and any other as a
    # number: an edited annotation, or one that is a class for want of
    # postponed annotations, would quietly loosen an integer field
    by_annotation = {f.name: f.type for f in dataclasses.fields(cls) if f.name not in read}
    assert {name for name, kind in by_annotation.items() if kind == "int"} == integers
    assert set(by_annotation.values()) <= {"int", "float", "float | None"}


def _full_spec():
    """A valid spec with all six profile kinds, labels and a weight."""
    return {
        "grid": {"dim": 1, "box_level": 1, "cell_exp": -2},
        "space": {"p": 1.5, "weight": {"kind": "power", "exponent": 0.5, "support": 1.5}},
        "members": [
            {"kind": "gaussian", "center": 0.3, "sigma": 0.4, "amplitude": 2.0},
            {"kind": "constant", "value": 1.0, "label": "flat"},
            {"kind": "bump", "center": [-0.5], "radius": 0.75},
            {"kind": "indicator", "center": 0.0, "radius": 0.75},
            {"kind": "power", "exponent": -0.5},
            {"kind": "table", "values": [float(i) for i in range(16)]},
        ],
        "labels": ["g", "c", "b", "i", "p", "t"],
    }


def _paths(node, path=()):
    """The path of every container and leaf of a JSON document, its root too."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, (*path, i))


_NON_INTEGERS = [
    None, True, False, "x", "1.5", {}, {"a": 1}, [], [1], [[1, 2]],
    1.5, -0.5, 1e308, math.nan, math.inf, -math.inf,
]
_REPLACEMENTS = st.sampled_from([*_NON_INTEGERS, 0, 1, -1, 2, 10 ** 400])
# a grid entry takes small integers only, so that no mutated grid is large;
# the level bounds have their own tests at the Grid constructor
_GRID_REPLACEMENTS = st.integers(-3, 3) | st.sampled_from(_NON_INTEGERS)


def _replace(doc, path, value):
    if not path:
        return value
    *parents, key = path
    target = doc
    for name in parents:
        target = target[name]
    target[key] = value
    return doc


@st.composite
def _mutated_specs(draw):
    doc = _full_spec()
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        grid_entry = len(path) == 2 and path[0] == "grid" and isinstance(doc, dict)
        value = draw(_GRID_REPLACEMENTS if grid_entry else _REPLACEMENTS)
        doc = _replace(doc, path, copy.deepcopy(value))
    return doc


@settings(max_examples=300, deadline=None)
@given(_mutated_specs())
def test_any_spec_mutation_parses_or_raises_a_spec_or_model_error(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            parse_problem(doc)
        except (SpecFileError, ModelError):
            pass
