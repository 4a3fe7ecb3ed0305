"""Golden certificate corpus: byte identity of the whole ``lpcompact net`` run.

Each entry is a spec, a share of the family's uniform bound used as epsilon,
and a projector variant.  The test runs ``lpcompact net`` in-process through
``cli.main`` and compares the exit code, the stderr and the sha256 of the
saved certificate with the pins in ``golden_corpus.json``.  The three
benchmark workloads at their reference seed take their digests from
``bench/expectations.json`` instead, so the two pin files cannot drift apart.

The entries are chosen for branch coverage: Banach and vanishing projectors,
weights with and without null cubes, exponents on both sides of one (the
power transfer), partition boxes smaller than the grid, and runs that fail
with a hypothesis or a model error.  A change that is meant to move a
certificate regenerates the pins with

    PYTHONPATH=src python tests/test_golden_corpus.py > tests/golden_corpus.json

and says so; any other change must leave every pin as it is.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lpcompact import bound_modulus, cli, load_problem, translation_modulus

from test_benchmark_pins import PINS, WORKLOADS

PIN_FILE = Path(__file__).with_name("golden_corpus.json")

_LINE = [float(c) for c in np.linspace(-1.5, 1.5, 20)]
_SHEET = [[0.2, -0.1], [-0.3, 0.25], [0.0, 0.0], [0.35, 0.3]]
_ROOT = {"kind": "power", "exponent": 0.5}
_ONE = {"kind": "constant", "value": 1.0}


def _cut(support):
    return {"kind": "power", "exponent": 0.5, "support": support}


def _spec(dim, box_level, cell_exp, p, weight, centres, sigma):
    return {
        "grid": {"dim": dim, "box_level": box_level, "cell_exp": cell_exp},
        "space": {"p": p, "weight": weight},
        "members": [{"kind": "gaussian", "center": c, "sigma": sigma} for c in centres],
    }


def _line(p, weight):
    # twenty Gaussians on a 2^-9 grid of [-4, 4], as in criterion 2
    return _spec(1, 2, -9, p, weight, _LINE, 0.5)


def _sheet(cell_exp, p, weight, sigma):
    return _spec(2, 2, cell_exp, p, weight, _SHEET, sigma)


# name -> (spec, epsilon as a share of the uniform bound, variant)
CORPUS = {
    f"{name}-seed{seed}": (w.spec(seed), w.eps_share, w.variant)
    for name, w in WORKLOADS.WORKLOADS.items()
    for seed in (0, 1, 2)
}
CORPUS.update({
    "line-p1": (_line(1.0, _ROOT), 0.05, "banach"),
    "line-p1.5": (_line(1.5, _ROOT), 0.05, "banach"),
    "line-p2": (_line(2.0, _ROOT), 0.05, "banach"),
    "line-p3": (_line(3.0, _ROOT), 0.05, "banach"),
    # cut at 1.5 inside the level-1 box: 256 null cubes
    "line-p1-vanishing": (_line(1.0, _cut(1.5)), 0.05, "vanishing"),
    "line-p2-vanishing": (_line(2.0, _cut(1.5)), 0.05, "vanishing"),
    "line-p2-cut": (_line(2.0, _cut(1.0)), 0.05, "banach"),
    # power transfer: N = 3 at p = 1/2, N = 3 at p = 0.4 with 128 null cubes
    "line-p0.5": (_line(0.5, _ONE), 0.2, "banach"),
    "line-p0.4-vanishing": (_line(0.4, _cut(1.5)), 0.2, "vanishing"),
    # level-1 partition boxes inside the level-2 grid
    "sheet-p1": (_sheet(-5, 1.0, _ROOT, 0.8), 0.6, "banach"),
    "sheet-p3": (_sheet(-5, 3.0, _ROOT, 0.8), 0.6, "banach"),
    "sheet-p2-vanishing": (_sheet(-5, 2.0, _cut(1.5), 0.8), 0.6, "vanishing"),
    # select_mesh fails at one cell (exit 4)
    "sheet-coarse-p2": (_sheet(-4, 2.0, _ROOT, 0.5), 0.6, "banach"),
    "sheet-coarse-p1-vanishing": (_sheet(-4, 1.0, _cut(1.5), 0.5), 0.6, "vanishing"),
    # a negative epsilon is a model violation (exit 3)
    "line-negative-epsilon": (_line(2.0, _ROOT), -0.05, "banach"),
})


def run_entry(name, workdir):
    """Run ``lpcompact net`` on one entry; return its exit code, stderr and
    the sha256 of the certificate (None when none was written)."""
    doc, share, variant = CORPUS[name]
    spec = Path(workdir) / "spec.json"
    spec.write_text(json.dumps(doc, indent=1, sort_keys=True))
    problem = load_problem(spec)
    epsilon = share * bound_modulus(problem.family, problem.space)
    out = Path(workdir) / "cert.json"
    argv = ["net", "--spec", str(spec), "--epsilon", repr(epsilon), "--variant", variant]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return {"exit": code, "stderr": err.getvalue(), "sha256": digest}


def _pins():
    pins = json.loads(PIN_FILE.read_text())
    for name, digest in PINS.items():
        pins[f"{name}-seed{WORKLOADS.DEFAULT_SEED}"] = {"exit": 0, "stderr": "", "sha256": digest}
    return pins


def test_every_entry_is_pinned():
    assert set(_pins()) == set(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_entry_matches_pin(tmp_path, name):
    assert run_entry(name, tmp_path) == _pins()[name]



def _net(argv):
    """``lpcompact net`` or ``validate`` in process; its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("name", sorted(n for n, pin in _pins().items() if pin["exit"] == 4))
def test_corpus_refusal_names_a_sharp_epsilon(tmp_path, name):
    # a refusal at one cell fixes the least epsilon that builds: 3 2**dim
    # times the largest one-cell box modulus.  Just above it the entry builds
    # and validates, just below it refuses, and the six digits the refusal
    # prints build
    doc, _, variant = CORPUS[name]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    problem = load_problem(spec)
    grid = problem.grid
    least = 3.0 * 2.0**grid.dim * translation_modulus(
        problem.family, problem.space, grid.cell_side, stencil="box"
    )
    printed = _pins()[name]["stderr"].split("; epsilon ")[1].split(" or above builds")[0]
    assert least < float(printed) <= least * (1.0 + 1e-5)
    cert = tmp_path / "cert.json"
    for epsilon, code in ((least * (1.0 - 1e-9), 4), (least * (1.0 + 1e-9), 0), (float(printed), 0)):
        cert.unlink(missing_ok=True)
        argv = ["net", "--spec", str(spec), "--epsilon", repr(epsilon), "--variant", variant]
        assert _net(argv + ["--out", str(cert)]) == code, epsilon
        if code == 0:
            assert _net(["validate", "--spec", str(spec), "--certificate", str(cert)]) == 0

if __name__ == "__main__":
    seeded = {f"{name}-seed{WORKLOADS.DEFAULT_SEED}" for name in PINS}
    pins = {}
    for name in sorted(set(CORPUS) - seeded):
        with tempfile.TemporaryDirectory() as workdir:
            pins[name] = run_entry(name, workdir)
    json.dump(pins, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
