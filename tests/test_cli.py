import csv
import json

import pytest

from lpcompact import bound_modulus, cli, load_problem


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
