import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import lpcompact
from lpcompact import bound_modulus, cli, load_problem

# the directory holding the package, for CLI runs in a child process
SRC = str(Path(lpcompact.__file__).resolve().parents[1])


def write_spec(path, p=2.0, weight=None, members=None, grid=None):
    doc = {
        "grid": grid or {"dim": 1, "box_level": 1, "cell_exp": -6},
        "space": {"p": p, "weight": weight or {"kind": "power", "exponent": 0.5}},
        "members": members
        or [
            {"kind": "gaussian", "center": -0.4, "sigma": 0.4},
            {"kind": "gaussian", "center": 0.0, "sigma": 0.4},
            {"kind": "gaussian", "center": 0.4, "sigma": 0.4},
        ],
    }
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def spec_path(tmp_path):
    return write_spec(tmp_path / "problem.json")


def test_moduli_outputs(tmp_path, spec_path, capsys):
    out = tmp_path / "mod"
    rc = cli.main(
        [
            "moduli",
            "--spec",
            str(spec_path),
            "--r-list",
            "0.03125,0.0625",
            "--n-list",
            "0.5,1.0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert "moduli written" in capsys.readouterr().out
    with open(out.with_suffix(".csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["modulus", "radius", "value"]
    kinds = {r[0] for r in rows[1:]}
    assert kinds == {"bound", "tail", "translation", "averaged"}
    doc = json.loads(out.with_suffix(".json").read_text())
    assert set(doc) == {"bound", "tail", "translation", "averaged"}
    assert doc["bound"] > 0


def test_net_validate_roundtrip(tmp_path, spec_path, capsys):
    bound = bound_modulus(*(lambda pr: (pr.family, pr.space))(load_problem(spec_path)))
    cert_path = tmp_path / "cert.json"
    rc = cli.main(
        ["net", "--spec", str(spec_path), "--epsilon", str(0.3 * bound), "--out", str(cert_path)]
    )
    assert rc == 0
    assert "certificate written" in capsys.readouterr().out

    rc = cli.main(["validate", "--spec", str(spec_path), "--certificate", str(cert_path)])
    assert rc == 0
    assert "is valid" in capsys.readouterr().out

    # determinism: a rerun produces byte-identical output
    cert2 = tmp_path / "cert2.json"
    cli.main(["net", "--spec", str(spec_path), "--epsilon", str(0.3 * bound), "--out", str(cert2)])
    assert cert_path.read_bytes() == cert2.read_bytes()

    # a tampered distance is caught on re-validation
    doc = json.loads(cert_path.read_text())
    doc["distances"] = [d * 3.0 + 1e-6 for d in doc["distances"]]
    cert_path.write_text(json.dumps(doc))
    rc = cli.main(["validate", "--spec", str(spec_path), "--certificate", str(cert_path)])
    assert rc == 3
    assert "validation failure" in capsys.readouterr().err


def test_net_quasi_routing(tmp_path, capsys):
    spec = write_spec(tmp_path / "quasi.json", p=0.5, weight={"kind": "constant", "value": 1.0})
    prob = load_problem(spec)
    bound = bound_modulus(prob.family, prob.space)
    cert_path = tmp_path / "qcert.json"
    rc = cli.main(
        ["net", "--spec", str(spec), "--epsilon", str(0.4 * bound), "--out", str(cert_path)]
    )
    assert rc == 0
    doc = json.loads(cert_path.read_text())
    assert doc["quasi"]["n_power"] == 3
    assert doc["quasi"]["p"] == 0.5
    rc = cli.main(["validate", "--spec", str(spec), "--certificate", str(cert_path)])
    assert rc == 0


@pytest.mark.parametrize(
    "p, field, edit",
    [
        (2.0, ("distances",), "drop"),
        (0.5, ("distances",), "drop"),
        (0.5, ("quasi", "audit_distances"), "drop"),
        (0.5, ("assignment",), "drop"),
        (0.5, ("assignment",), "index99"),
    ],
)
def test_validate_malformed_lists_exit_3(tmp_path, capsys, p, field, edit):
    # a recorded list shorter than the family, or an assignment pointing past
    # the net, is a validation failure, not a crash
    weight = {"kind": "constant", "value": 1.0} if p < 1 else None
    spec = write_spec(tmp_path / "spec.json", p=p, weight=weight)
    prob = load_problem(spec)
    cert_path = tmp_path / "cert.json"
    eps = 0.4 * bound_modulus(prob.family, prob.space)
    assert cli.main(["net", "--spec", str(spec), "--epsilon", str(eps), "--out", str(cert_path)]) == 0
    doc = json.loads(cert_path.read_text())
    *parents, key = field
    target = doc
    for name in parents:
        target = target[name]
    target[key] = target[key][:-1] if edit == "drop" else [99] + target[key][1:]
    cert_path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = cli.main(["validate", "--spec", str(spec), "--certificate", str(cert_path)])
    assert rc == 3
    assert "validation failure" in capsys.readouterr().err


def test_weight_verdicts(tmp_path, capsys):
    critical = write_spec(
        tmp_path / "crit.json", p=2.0, weight={"kind": "power", "exponent": 2.0}
    )
    out = tmp_path / "crit_report.json"
    rc = cli.main(["weight", "--spec", str(critical), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "p",
        "ap_estimate",
        "a1_estimate",
        "dual_mass_cell_exps",
        "dual_mass",
        "dual_mass_ratios",
        "embedding_verdict",
        "base_dual_mass",
    }
    assert doc["embedding_verdict"] == "fails under refinement"
    assert all(r >= 1.5 for r in doc["dual_mass_ratios"])
    assert doc["ap_estimate"] > 1.0
    assert len(doc["dual_mass"]) == 4

    tame = write_spec(tmp_path / "tame.json", p=2.0, weight={"kind": "power", "exponent": 0.5})
    out2 = tmp_path / "tame_report.json"
    rc = cli.main(["weight", "--spec", str(tame), "--out", str(out2)])
    assert rc == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["embedding_verdict"] == "stable under refinement"

    # p = 1 has no dual exponent: the A_p field is absent
    harmonic = write_spec(tmp_path / "p1.json", p=1.0, weight={"kind": "power", "exponent": 0.5})
    out3 = tmp_path / "p1_report.json"
    assert cli.main(["weight", "--spec", str(harmonic), "--out", str(out3)]) == 0
    assert json.loads(out3.read_text())["ap_estimate"] is None

    # table weights cannot be resampled on refined grids
    table = write_spec(
        tmp_path / "table.json",
        weight={"kind": "table", "values": [1.0] * 128},
    )
    rc = cli.main(["weight", "--spec", str(table), "--out", str(tmp_path / "t.json")])
    assert rc == 3
    assert "model violation" in capsys.readouterr().err


def test_experiments_blowup(tmp_path, capsys):
    out = tmp_path / "blow"
    rc = cli.main(
        [
            "experiments",
            "blowup",
            "--p",
            "1.0",
            "--cell-exp",
            "-8",
            "--n-list",
            "8,16,32,64",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert "blow-up slope" in capsys.readouterr().out
    with open(out.with_suffix(".csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "ratio", "log_N", "log_ratio"]
    assert len(rows) == 5
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["slope"] == pytest.approx(1.0, rel=1e-10)


def test_experiments_completeness(tmp_path, spec_path, capsys):
    out = tmp_path / "comp"
    rc = cli.main(
        [
            "experiments",
            "completeness",
            "--spec",
            str(spec_path),
            "--steps",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert "passed=True" in capsys.readouterr().out
    with open(out.with_suffix(".csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "tail_bound", "measured_norm"]
    assert len(rows) == 6
    assert json.loads(out.with_suffix(".json").read_text())["passed"] is True

    # the study needs a spec for its space and seed
    rc = cli.main(["experiments", "completeness", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "spec error" in capsys.readouterr().err


def test_exit_code_spec_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = json.loads(write_spec(tmp_path / "ok.json").read_text())
    doc["grid"]["mesh"] = 0.1
    bad.write_text(json.dumps(doc))
    rc = cli.main(
        [
            "moduli",
            "--spec",
            str(bad),
            "--r-list",
            "0.0625",
            "--n-list",
            "1.0",
            "--out",
            str(tmp_path / "m"),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "spec error" in err and "mesh" in err


def test_exit_code_bad_numeric_list(tmp_path, spec_path, capsys):
    rc = cli.main(
        [
            "moduli",
            "--spec",
            str(spec_path),
            "--r-list",
            "0.0625,oops",
            "--n-list",
            "1.0",
            "--out",
            str(tmp_path / "m"),
        ]
    )
    assert rc == 2
    assert "spec error" in capsys.readouterr().err


def test_exit_code_hypothesis_failure(tmp_path, spec_path, capsys):
    rc = cli.main(
        ["net", "--spec", str(spec_path), "--epsilon", "1e-6", "--out", str(tmp_path / "c.json")]
    )
    assert rc == 4
    err = capsys.readouterr().err
    assert "hypothesis failure (equicontinuity)" in err
    assert "select_mesh" in err


def test_exit_code_model_violation(tmp_path, spec_path, capsys):
    rc = cli.main(
        ["net", "--spec", str(spec_path), "--epsilon", "-0.5", "--out", str(tmp_path / "c.json")]
    )
    assert rc == 3
    assert "model violation" in capsys.readouterr().err


def test_unknown_study_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiments", "sharpness", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def _tamper_and_validate(tmp_path, capsys, spec, doc):
    cert_path = tmp_path / "tampered.json"
    cert_path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = cli.main(["validate", "--spec", str(spec), "--certificate", str(cert_path)])
    return rc, capsys.readouterr().err


@pytest.fixture(scope="module")
def vanishing_sheet(tmp_path_factory):
    # 2-D, weight cut to |x|_inf < 1.5 on [-2, 2]^2: the first cube row is null
    tmp = tmp_path_factory.mktemp("sheet")
    spec = write_spec(
        tmp / "sheet.json",
        weight={"kind": "power", "exponent": 0.5, "support": 1.5},
        grid={"dim": 2, "box_level": 1, "cell_exp": -4},
        members=[
            {"kind": "gaussian", "center": [0.3, -0.2], "sigma": 0.8},
            {"kind": "gaussian", "center": [-0.1, 0.4], "sigma": 0.8},
            {"kind": "gaussian", "center": [0.0, 0.0], "sigma": 1.0},
        ],
    )
    prob = load_problem(spec)
    eps = 0.8 * bound_modulus(prob.family, prob.space)
    cert_path = tmp / "cert.json"
    argv = ["net", "--spec", str(spec), "--epsilon", repr(eps), "--variant", "vanishing"]
    assert cli.main(argv + ["--out", str(cert_path)]) == 0
    doc = json.loads(cert_path.read_text())
    assert {0, 1, 2} <= set(doc["null_cubes"])
    assert cli.main(["validate", "--spec", str(spec), "--certificate", str(cert_path)]) == 0
    return spec, doc


@pytest.mark.parametrize(
    "edit",
    ["witness_all_zero", "null_cube_dropped", "live_cube_listed_null", "witness_in_next_cube"],
)
def test_validate_cube_claims_exit_3(tmp_path, capsys, vanishing_sheet, edit):
    # every cube needs a positive-weight witness inside it or a null listing
    # with zero weight; each edit breaks that for at least one cube
    spec, doc = vanishing_sheet
    doc = json.loads(json.dumps(doc))
    nulls, witnesses = doc["null_cubes"], doc["witness_cells"]
    live = next(k for k in range(len(witnesses)) if k not in set(nulls))
    if edit == "witness_all_zero":
        doc["witness_cells"] = [0] * len(witnesses)
        doc["null_cubes"] = [0, 1, 2]
    elif edit == "null_cube_dropped":
        doc["null_cubes"] = nulls[1:]
    elif edit == "live_cube_listed_null":
        doc["null_cubes"] = sorted(nulls + [live])
    else:
        witnesses[live] = witnesses[live + 1]
    rc, err = _tamper_and_validate(tmp_path, capsys, spec, doc)
    assert rc == 3
    assert "validation failure" in err and "cube" in err


@pytest.mark.parametrize(
    "p, field, value, reason",
    [
        (2.0, ("plan", "epsilon"), math.inf, "model violation: plan numbers must be finite"),
        (2.0, ("plan", "budget", "tail"), math.nan, "model violation: plan numbers must be finite"),
        (2.0, ("variant",), "bogus", "model violation: unknown projector variant"),
        (2.0, ("labels",), ["a", "b", "c"], "validation failure: certificate labels"),
        (2.0, ("null_cubes",), [0], "validation failure: a banach certificate lists"),
        (0.5, ("quasi", "epsilon"), math.inf, "model violation: power-transfer numbers"),
        (0.5, ("labels",), ["m02", "m01", "m00"], "validation failure: certificate labels"),
        (2.0, ("plan", "quant_step"), 0.0, "model violation: quantization step must be positive"),
        (2.0, ("plan", "quant_step"), lambda v: -v, "model violation: quantization step must"),
        (2.0, ("plan", "quant_step"), 1e-320, "validation failure: net element 0 leaves"),
        (2.0, ("plan", "quant_step"), 1e300, "validation failure: net element 0 leaves"),
        (0.5, ("quasi", "n_power"), 2, "validation failure: the transfer record's power"),
    ],
    ids=[
        "epsilon_inf", "budget_nan", "variant_bogus", "labels_renamed",
        "banach_with_nulls", "quasi_epsilon_inf", "quasi_labels_permuted",
        "quant_step_zero", "quant_step_negated", "quant_step_subnormal", "quant_step_huge",
        "quasi_n_power_2",
    ],
)
def test_validate_bad_plan_variant_or_labels_exit_3(tmp_path, capsys, p, field, value, reason):
    # each of these certificates used to validate: an infinite epsilon lets any
    # net pass, neither the variant nor the labels were checked, and a zero,
    # negative, subnormal or huge quantization step hid every net element from
    # the lattice check
    weight = {"kind": "constant", "value": 1.0} if p < 1 else None
    spec = write_spec(tmp_path / "spec.json", p=p, weight=weight)
    prob = load_problem(spec)
    cert_path = tmp_path / "cert.json"
    eps = 0.4 * bound_modulus(prob.family, prob.space)
    assert cli.main(["net", "--spec", str(spec), "--epsilon", str(eps), "--out", str(cert_path)]) == 0
    doc = json.loads(cert_path.read_text())
    *parents, key = field
    target = doc
    for name in parents:
        target = target[name]
    target[key] = value(target[key]) if callable(value) else value
    rc, err = _tamper_and_validate(tmp_path, capsys, spec, doc)
    assert rc == 3
    assert reason in err


def test_validate_quasi_reports_missing_element_once(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", p=0.5, weight={"kind": "constant", "value": 1.0})
    prob = load_problem(spec)
    cert_path = tmp_path / "cert.json"
    eps = 0.4 * bound_modulus(prob.family, prob.space)
    assert cli.main(["net", "--spec", str(spec), "--epsilon", str(eps), "--out", str(cert_path)]) == 0
    doc = json.loads(cert_path.read_text())
    doc["assignment"][0] = 99
    rc, err = _tamper_and_validate(tmp_path, capsys, spec, doc)
    assert rc == 3
    assert err.count("member 'm00' is assigned to a missing net element 99") == 1


@pytest.mark.parametrize(
    "p, field, edit",
    [
        (2.0, ("plan", "box_level"), lambda v: v + 0.5),
        (2.0, ("grid", "dim"), lambda v: 1.9),
        (2.0, ("assignment",), lambda v: ["0"] + v[1:]),
        (2.0, ("assignment",), lambda v: [bool(a) if a < 2 else a for a in v]),
        (2.0, ("assignment",), lambda v: [v[0] + 0.9] + v[1:]),
        (2.0, ("plan", "epsilon"), lambda v: str(v)),
        (2.0, ("net_elements",), lambda v: [v[0][:-1]] + v[1:]),
        (2.0, ("net_elements",), lambda v: [["a"] + v[0][1:]] + v[1:]),
        (0.5, ("quasi", "p"), lambda v: "a"),
    ],
    ids=[
        "box_level_half", "dim_float", "assignment_string", "assignment_bools",
        "assignment_float", "epsilon_string", "net_ragged", "net_string", "quasi_p_string",
    ],
)
def test_validate_coerced_types_exit_3(tmp_path, capsys, p, field, edit):
    # each of these used to load by coercion, and the first six validated
    weight = {"kind": "constant", "value": 1.0} if p < 1 else None
    spec = write_spec(tmp_path / "spec.json", p=p, weight=weight)
    prob = load_problem(spec)
    cert_path = tmp_path / "cert.json"
    eps = 0.4 * bound_modulus(prob.family, prob.space)
    assert cli.main(["net", "--spec", str(spec), "--epsilon", str(eps), "--out", str(cert_path)]) == 0
    doc = json.loads(cert_path.read_text())
    *parents, key = field
    target = doc
    for name in parents:
        target = target[name]
    target[key] = edit(target[key])
    rc, err = _tamper_and_validate(tmp_path, capsys, spec, doc)
    assert rc == 3
    assert "model violation: malformed certificate document" in err


# an integer literal that json reads exactly but float() cannot convert
BEYOND_FLOAT = 10 ** 400


@pytest.mark.parametrize(
    "field",
    [("space", "p"), ("members", 0, "sigma"), ("members", 1, "center"),
     ("space", "weight", "values", 5)],
    ids=["space_p", "sigma", "center", "table_value"],
)
def test_spec_integer_beyond_float_range_exit_2(tmp_path, capsys, field):
    table = {"kind": "table", "values": [1.0] * 128}
    spec = write_spec(tmp_path / "spec.json", weight=table if "weight" in field else None)
    doc = json.loads(spec.read_text())
    *parents, key = field
    target = doc
    for name in parents:
        target = target[name]
    target[key] = BEYOND_FLOAT
    spec.write_text(json.dumps(doc))
    rc = cli.main(["net", "--spec", str(spec), "--epsilon", "0.1", "--out", str(tmp_path / "c")])
    assert rc == 2
    assert "is too large for a float" in capsys.readouterr().err


@pytest.mark.parametrize(
    "p, field, reason",
    [
        (2.0, ("plan", "epsilon"), "model violation: malformed certificate document"),
        (2.0, ("space_p",), "model violation: malformed certificate document"),
        (2.0, ("distances", 1), "model violation: malformed certificate document"),
        (2.0, ("net_elements", 0, 3), "model violation: malformed certificate document"),
        (0.5, ("quasi", "c_max"), "model violation: malformed certificate document"),
        (0.5, ("quasi", "audit_distances", 2), "model violation: malformed certificate"),
        (0.5, ("quasi", "n_power"), "validation failure: the transfer record's power"),
    ],
    ids=["epsilon", "space_p", "distance", "net_entry", "c_max", "audit_distance", "n_power"],
)
def test_certificate_integer_beyond_float_range_exit_3(tmp_path, capsys, p, field, reason):
    weight = {"kind": "constant", "value": 1.0} if p < 1 else None
    spec = write_spec(tmp_path / "spec.json", p=p, weight=weight)
    prob = load_problem(spec)
    cert_path = tmp_path / "cert.json"
    eps = 0.4 * bound_modulus(prob.family, prob.space)
    assert cli.main(["net", "--spec", str(spec), "--epsilon", str(eps), "--out", str(cert_path)]) == 0
    doc = json.loads(cert_path.read_text())
    *parents, key = field
    target = doc
    for name in parents:
        target = target[name]
    target[key] = BEYOND_FLOAT
    rc, err = _tamper_and_validate(tmp_path, capsys, spec, doc)
    assert rc == 3
    assert reason in err


# an integer literal past Python's limit on int-string conversion (4,300
# digits), where json.load itself raises a plain ValueError
PAST_DIGIT_LIMIT = "9" * 5001


def test_spec_integer_past_digit_limit_exit_2(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json")
    spec.write_text(spec.read_text().replace('"sigma": 0.4', f'"sigma": {PAST_DIGIT_LIMIT}', 1))
    rc = cli.main(["net", "--spec", str(spec), "--epsilon", "0.1", "--out", str(tmp_path / "c")])
    assert rc == 2
    assert "is not valid JSON" in capsys.readouterr().err


def test_certificate_integer_past_digit_limit_exit_3(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json")
    prob = load_problem(spec)
    cert_path = tmp_path / "cert.json"
    eps = 0.4 * bound_modulus(prob.family, prob.space)
    assert cli.main(["net", "--spec", str(spec), "--epsilon", str(eps), "--out", str(cert_path)]) == 0
    text = cert_path.read_text()
    cert_path.write_text(text.replace('"space_p": 2.0', f'"space_p": {PAST_DIGIT_LIMIT}', 1))
    capsys.readouterr()
    rc = cli.main(["validate", "--spec", str(spec), "--certificate", str(cert_path)])
    assert rc == 3
    assert "model violation: malformed certificate document" in capsys.readouterr().err


def test_norm_beyond_float_range_exit_3(tmp_path, capsys):
    # the family's bound norm, 1.7e308 * 2**(5/3) at p = 0.6, exceeds the
    # float range: a model violation, with no warning on the way
    spec = write_spec(
        tmp_path / "spec.json", p=0.6, weight={"kind": "constant", "value": 1.0},
        members=[{"kind": "constant", "value": 1.7e308}],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["net", "--spec", str(spec), "--epsilon", "0.1", "--out", str(tmp_path / "c")])
    assert rc == 3
    assert "model violation: a norm at p = 0.6 exceeds the float range" in capsys.readouterr().err


def _runs_without_and_with_warnings_as_errors(*args):
    """Run ``python -m lpcompact.cli *args`` in a child, then again under
    ``-W error``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return [
        subprocess.run(
            [sys.executable, *flags, "-m", "lpcompact.cli", *map(str, args)],
            capture_output=True, text=True, env=env, check=False,
        )
        for flags in ([], ["-W", "error"])
    ]


def _tampered_net_certificate(tmp_path, p):
    """Build a certificate through the CLI, then set its first net entry to 1e300."""
    spec = write_spec(tmp_path / "spec.json", p=p)
    prob = load_problem(spec)
    cert_path = tmp_path / "cert.json"
    eps = 0.4 * bound_modulus(prob.family, prob.space)
    assert cli.main(["net", "--spec", str(spec), "--epsilon", str(eps), "--out", str(cert_path)]) == 0
    doc = json.loads(cert_path.read_text())
    doc["net_elements"][0][0] = 1e300
    cert_path.write_text(json.dumps(doc))
    return spec, cert_path


def test_validate_first_pass_overflow_under_warnings_as_errors(tmp_path, capsys):
    # a net entry of 1e300 overflows the first power sum of its distance,
    # which the norm rescales; under -W error that must still be the same
    # three validation failures, not a RuntimeWarning traceback
    spec, cert_path = _tampered_net_certificate(tmp_path, 2.0)
    runs = _runs_without_and_with_warnings_as_errors(
        "validate", "--spec", spec, "--certificate", cert_path
    )
    assert [r.returncode for r in runs] == [3, 3]
    assert runs[1].stderr == runs[0].stderr
    lines = runs[0].stderr.splitlines()
    assert len(lines) == 3 and all(line.startswith("validation failure: ") for line in lines)


def test_validate_quasi_power_overflow_is_a_validation_failure(tmp_path, capsys):
    # at p = 1/2 the net lives in root space; a tampered 1e300 entry
    # overflows when raised back to the power 3, which is a failure line
    spec, cert_path = _tampered_net_certificate(tmp_path, 0.5)
    runs = _runs_without_and_with_warnings_as_errors(
        "validate", "--spec", spec, "--certificate", cert_path
    )
    assert [r.returncode for r in runs] == [3, 3]
    assert runs[1].stderr == runs[0].stderr
    lines = runs[0].stderr.splitlines()
    assert all(line.startswith("validation failure: ") for line in lines)
    assert "validation failure: net element 0 overflows at the power 3" in lines


def test_net_shifted_difference_overflow_under_warnings_as_errors(tmp_path):
    # +-1e308 in adjacent cells: the one-cell shifted difference overflows,
    # a model violation with or without -W error
    values = [0.0] * 16
    values[3], values[4] = 1e308, -1e308
    spec = write_spec(
        tmp_path / "spec.json", weight={"kind": "constant", "value": 1.0},
        members=[{"kind": "table", "values": values}],
        grid={"dim": 1, "box_level": 0, "cell_exp": -3},
    )
    runs = _runs_without_and_with_warnings_as_errors(
        "net", "--spec", spec, "--epsilon", 1.0, "--out", tmp_path / "cert.json"
    )
    assert [r.returncode for r in runs] == [3, 3]
    assert [r.stderr for r in runs] == ["model violation: grid function values must be finite\n"] * 2


@pytest.mark.parametrize("radius", ["inf", "nan"])
def test_moduli_non_finite_radius_exit_3(tmp_path, spec_path, capsys, radius):
    rc = cli.main(
        ["moduli", "--spec", str(spec_path), "--r-list", f"0.0625,{radius}",
         "--n-list", "1.0", "--out", str(tmp_path / "m")]
    )
    assert rc == 3
    assert f"model violation: shift radius {radius} is not finite" in capsys.readouterr().err
