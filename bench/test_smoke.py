"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench

Runs every workload shrunk to a few thousand cells through the real harness
(child processes, checks, tracing) in a few seconds each.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import hostspeed
import run
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = run.load_benchmark()
# The real workloads at coarser cells.  The 2-D sheet needs 2^-5 cells and a
# larger epsilon share for a one-cell mesh to pass at all.
TINY = {
    "bank1d": dataclasses.replace(WORKLOADS["bank1d"], cell_exp=-9),
    "sheet2d_null": dataclasses.replace(WORKLOADS["sheet2d_null"], cell_exp=-5, eps_share=0.8),
    "quasi_half": dataclasses.replace(WORKLOADS["quasi_half"], cell_exp=-8),
}


def test_definition_matches_harness():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(WORKLOADS)
    expect = json.loads((run.BENCH_DIR / "expectations.json").read_text())
    assert set(expect["sha256_at_default_seed"]) == set(names)
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    assert list(expect["per_layer_moves"]) == [m["name"] for m in BENCH["per_layer"]]
    for target in expect["per_layer_moves"].values():
        assert set(target["moves"]) <= end_to_end
        assert set(target["workloads"]) <= set(names)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_reported_with_unit(name, trace):
    result, record = run.execute(TINY[name], 1, 0, bool(trace), None, BENCH)
    defs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {d["name"]: d["unit"] for d in defs}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float)) and np.isfinite(value["value"])
    if trace:
        assert result["metrics"]["trace.layer_share"]["value"] > 0.9
    else:
        assert result["metrics"]["pass_ratio"]["value"] == 1.0
        speeds = record["unscaled"]["certify_speed"]["values"] + record["unscaled"]["validate_speed"]["values"]
        assert all(s > 0 for s in speeds)
    json.dumps(result)


def test_sampler_ticks_through_the_operation():
    with hostspeed.Sampler() as sampler:
        start = perf_counter()
        while perf_counter() - start < 0.1:
            sum(range(1000))
    # one tick at entry, one at exit and about ten in between
    assert len(sampler.ticks) >= 5
    assert 0 < sampler.tick_s < 0.1
    assert sampler.speed > 0


def test_wrong_pinned_digest_counts_as_failure():
    result, record = run.execute(TINY["bank1d"], DEFAULT_SEED, 0, False, "0" * 64, BENCH)
    assert not result["correct"]
    assert result["failed"] == record["cycles"]  # every net, no validate
    assert result["metrics"]["pass_ratio"]["value"] < 1.0


def test_tampered_certificate_counts_as_failure(tmp_path):
    r = run.Run(TINY["quasi_half"], 1, tmp_path, None)
    r.set_up()
    net, cert = r.certify(0)
    assert net.ok, net.reason
    doc = json.loads(cert.read_text())
    doc["distances"][3] *= 1.001
    cert.write_text(json.dumps(doc))
    val = r.validate(cert, 0)
    assert not val.ok and "exit code 3" in val.reason
    assert r.end_to_end()["pass_ratio"] == [0.5]


def test_seeds_perturb_centres_only():
    for w in WORKLOADS.values():
        assert w.spec(5) == w.spec(5)
        assert w.spec(5)["members"] != w.spec(6)["members"]
        assert {k: v for k, v in w.spec(5).items() if k != "members"} == {
            k: v for k, v in w.spec(6).items() if k != "members"
        }
    line = [m["center"] for m in WORKLOADS["bank1d"].spec(DEFAULT_SEED)["members"]]
    assert line == [float(c) for c in np.linspace(-1.5, 1.5, 20)]
    moved = np.array([m["center"] for m in WORKLOADS["bank1d"].spec(7)["members"]])
    assert np.max(np.abs(moved - line)) <= 0.2 * (line[1] - line[0])


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bank1d", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
