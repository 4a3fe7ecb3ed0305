"""lpcompact benchmark: cold ``lpcompact net`` and ``lpcompact validate``.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Two users are modelled.  An author runs ``lpcompact net`` to get a
certificate; anyone else runs ``lpcompact validate`` to re-check it.  Each is a
fresh process, and the first build in a process pays heap growth that a warm
loop would hide, so every timed operation is one ``lpcompact.cli.main`` call
in a fresh child interpreter, timed inside the child from after
``import lpcompact`` until the call returns.  The load is a closed loop with
one client: one process at a time, nothing in parallel.

The host is shared and its speed moves by up to 2x between minutes, so the
children sample it while they run (``hostspeed.py``) and every time is
reported in seconds at reference speed: wall time without the samples' own
ticks, times the mean speed.  The unscaled wall times and the speeds are in
the record line.

Set-up (repeated, median reported) generates the spec from the seed, writes
it, and computes epsilon from ``bound_modulus`` in a child that imports
lpcompact; it is scaled by the speed that child sampled.  Then cycles run
until the next one would overrun ``--seconds`` (at least two, so a rebuild
can be compared byte for byte).  A cycle is one ``net`` followed by
``VALIDATES_PER_CERT`` runs of ``validate`` on its certificate; validation
is short, so it gets more samples per run.

Every operation is checked: exit codes 0 (``net`` exits 3 when its own
validation fails), the certificate's sha256 against the digest pinned in
``expectations.json`` at the default seed, identical bytes across rebuilds,
and the workload's defining property.  Misses count in ``failed``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced cycles with traced ones, which run one ``net`` and one
``validate`` in children that wrap the layers (see ``tracing.py``), and
prints the per-layer metrics.  A per-layer value is the median over traced
cycles of the two processes' totals.
The line before the last holds the full record: samples with quartiles, the
environment and any failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from workloads import DEFAULT_SEED, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 10
MIN_CYCLES = 2
VALIDATES_PER_CERT = 4
CHILD_TIMEOUT_S = 150


class SetupError(RuntimeError):
    """The workload could not be prepared; no result is printed."""


@dataclass
class Op:
    traced: bool
    seconds: float  # wall time of the call without the speed ticks
    speed: float | None = None  # sampled host speed; None when traced
    maxrss_kb: int = 0
    reason: str | None = None
    spans: Path | None = None

    @property
    def ok(self) -> bool:
        return self.reason is None

    @property
    def scaled(self) -> float:
        """Seconds at reference speed."""
        return self.seconds * self.speed


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_pins() -> dict[str, str]:
    with open(BENCH_DIR / "expectations.json") as fh:
        return json.load(fh)["sha256_at_default_seed"]


def summary(values) -> dict:
    values = list(values) or [0.0]  # only when every traced child crashed
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "values": values}


def _stat(totals: dict, layer: str, key: str) -> float:
    """One statistic of a layer; a layer that never ran has zero of everything."""
    return totals.get(layer, {}).get(key, 0)


class Run:
    """One workload at one seed: set-up, the measured loop and its checks."""

    def __init__(self, workload: Workload, seed: int, work: Path, pinned: str | None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.pinned = pinned
        self.setup_times: list[float] = []
        self.setup_walls: list[float] = []
        self.cycles: list[tuple[Op, list[Op]]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.first_problem: str | None = None
        self.cert_sizes: list[int] = []
        self.net_size = 0
        self.members = 0

    # -- child processes ---------------------------------------------------

    def _child(self, args: list[str]) -> tuple[subprocess.CompletedProcess | None, dict | None]:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), *args],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, None
        lines = proc.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            record = None
        return proc, record

    def set_up(self) -> None:
        self.spec = self.work / "spec.json"
        outcomes = set()
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            text = json.dumps(self.workload.spec(self.seed), indent=1, sort_keys=True)
            self.spec.write_text(text)
            proc, record = self._child(["epsilon", str(self.spec), repr(self.workload.eps_share)])
            wall = perf_counter() - start
            if record is None or proc.returncode != 0:
                detail = proc.stderr.strip()[-2000:] if proc is not None else "timed out"
                raise SetupError(f"epsilon child failed: {detail}")
            self.setup_walls.append(wall)
            self.setup_times.append((wall - record["tick_s"]) * record["speed"])
            outcomes.add((text, record["epsilon"]))
        if len(outcomes) != 1:
            raise SetupError("set-up is not deterministic: spec or epsilon changed between repeats")
        self.epsilon = record["epsilon"]

    def _cli(self, argv: list[str], op_id: str, traced: bool) -> Op:
        spans = self.work / f"spans-{op_id}.json" if traced else None
        args = ["cli", "--op", op_id] + (["--spans", str(spans)] if spans else []) + ["--", *argv]
        start = perf_counter()
        proc, record = self._child(args)
        wall = perf_counter() - start
        if proc is None:
            return Op(traced, wall, reason=f"{op_id}: timed out after {CHILD_TIMEOUT_S} s")
        if record is None:
            return Op(traced, wall, reason=f"{op_id}: crashed: {proc.stderr.strip()[-500:]}")
        op = Op(traced, record["seconds"], record["speed"], record["maxrss_kb"])
        if spans is not None and spans.is_file():
            op.spans = spans
        if record["rc"] != 0:
            op.reason = f"{op_id}: exit code {record['rc']}: {proc.stderr.strip()[-500:]}"
        return op

    def _count(self, op: Op) -> Op:
        self.attempted += 1
        if not op.ok:
            self.failures.append(op.reason)
        return op

    # -- operations --------------------------------------------------------

    def certify(self, i: int, traced: bool = False) -> tuple[Op, Path]:
        cert = self.work / f"cert-{i}.json"
        op = self._cli(
            ["net", "--spec", str(self.spec), "--epsilon", self.epsilon,
             "--variant", self.workload.variant, "--out", str(cert)],
            f"net-{i}", traced,
        )
        if op.ok:
            op.reason = self._check_certificate(cert)
        return self._count(op), cert

    def _check_certificate(self, cert: Path) -> str | None:
        try:
            data = cert.read_bytes()
        except OSError as exc:
            return f"certificate not written: {exc}"
        digest = hashlib.sha256(data).hexdigest()
        self.cert_sizes.append(len(data))
        if self.digest is None:
            self.digest = digest
            try:
                doc = json.loads(data)
                self.net_size = len(doc["net_elements"])
                self.members = len(doc["labels"])
                if not self.workload.defining(doc):
                    self.first_problem = f"certificate lacks the property {self.workload.name} exists for"
            except (ValueError, KeyError, TypeError) as exc:
                self.first_problem = f"certificate unreadable: {exc!r}"
        if self.pinned is not None and digest != self.pinned:
            return f"certificate sha256 {digest} differs from the pinned {self.pinned}"
        if digest != self.digest:
            return f"rebuild sha256 {digest} differs from the first build {self.digest}"
        return self.first_problem

    def validate(self, cert: Path, i, traced: bool = False) -> Op:
        op = self._cli(
            ["validate", "--spec", str(self.spec), "--certificate", str(cert)], f"validate-{i}", traced
        )
        return self._count(op)

    def measure(self, seconds: float, trace: bool) -> None:
        start = perf_counter()
        longest = 0.0
        while True:
            i = len(self.cycles)
            traced = trace and i % 2 == 1
            t0 = perf_counter()
            net, cert = self.certify(i, traced)
            runs = 1 if traced else VALIDATES_PER_CERT
            vals = [self.validate(cert, f"{i}.{k}", traced) for k in range(runs)]
            cert.unlink(missing_ok=True)
            self.cycles.append((net, vals))
            longest = max(longest, perf_counter() - t0)
            if len(self.cycles) >= MIN_CYCLES and perf_counter() - start + longest > seconds:
                break

    # -- results -----------------------------------------------------------

    def _timed(self) -> tuple[list[Op], list[Op]]:
        """Untraced nets and validates whose child reported a speed; a child
        that crashed or timed out reported none and counts only as failed."""
        nets = [n for n, _ in self.cycles if not n.traced and n.speed is not None]
        vals = [v for _, vs in self.cycles for v in vs if not v.traced and v.speed is not None]
        return nets, vals

    def end_to_end(self) -> dict[str, list[float]]:
        nets, vals = self._timed()
        return {
            "certify_s": [op.scaled for op in nets],
            "validate_s": [op.scaled for op in vals],
            "setup_s": self.setup_times,
            # The highest peak over the run: the first net child of a run often
            # peaks lower (sheet2d_null: 66.5 MB, then 75 MB for every later
            # one), so a median of two or three would jump between the two.
            "peak_rss_mb": [max((op.maxrss_kb for op in nets), default=0) / 1024.0],
            "cert_bytes": self.cert_sizes or [0],
            "net_size": [self.net_size],
            "pass_ratio": [(self.attempted - len(self.failures)) / self.attempted],
        }

    def unscaled(self) -> dict[str, list[float]]:
        """Wall times before scaling, and the speeds that scaled them."""
        nets, vals = self._timed()
        return {
            "certify_wall_s": [op.seconds for op in nets],
            "validate_wall_s": [op.seconds for op in vals],
            "setup_wall_s": self.setup_walls,
            "certify_speed": [op.speed for op in nets],
            "validate_speed": [op.speed for op in vals],
        }

    def per_layer(self, names) -> tuple[dict[str, list[float]], dict[str, dict]]:
        """Per-layer samples (one per traced cycle) and median span totals."""
        untraced = [n.seconds for n, _ in self.cycles if not n.traced]
        samples: dict[str, list[float]] = {name: [] for name in names}
        per_cycle = []
        for net, (val, *_) in self.cycles:
            if net.spans is None or val.spans is None:
                continue
            net_t = tracing.layer_totals(json.loads(net.spans.read_text()))
            val_t = tracing.layer_totals(json.loads(val.spans.read_text()))
            totals = tracing.merge_totals(net_t, val_t)
            per_cycle.append(totals)
            norm_cells = _stat(totals, "spaces.weighted_norm", "cells")
            root_s = net_t[tracing.ROOT]["s"] - net_t[tracing.ROOT]["self_s"]
            derived = {
                "spaces.norm_cells_computed": norm_cells,
                # float64 f and weight each read once per norm
                "spaces.norm_bytes_computed": 16 * norm_cells,
                # float64 values copied once per construction
                "grid.copy_bytes_computed": 8 * _stat(totals, tracing.GRID_FUNCTION, "cells"),
                "netbuilder.dedup_ratio": self.net_size / max(self.members, 1),
                "trace.overhead_ratio": net.seconds / statistics.median(untraced),
                "trace.layer_share": root_s / net.seconds,
            }
            for name in names:
                if name in derived:
                    samples[name].append(derived[name])
                else:
                    layer, _, key = name.rpartition(".")
                    samples[name].append(_stat(totals, layer, key))
        layers = {
            layer: {key: statistics.median(_stat(t, layer, key) for t in per_cycle)
                    for key in ("calls", "s", "self_s", "cells")}
            for layer in sorted({k for t in per_cycle for k in t})
        }
        return samples, layers


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository (git
    must not find a repository in a parent directory instead)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def execute(workload: Workload, seed: int, seconds: float, trace: bool, pinned: str | None,
            bench: dict) -> tuple[dict, dict]:
    """Run one workload and return (result line, full record)."""
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=BENCH_DIR / ".work"))
    try:
        run = Run(workload, seed, work, pinned)
        run.set_up()
        run.measure(seconds, trace)
        defs = bench["per_layer"] if trace else bench["end_to_end"]
        if trace:
            samples, layers = run.per_layer([d["name"] for d in defs])
        else:
            samples, layers = run.end_to_end(), None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (BENCH_DIR / ".work").rmdir()
        except OSError:
            pass
    failed = len(run.failures)
    metrics = {}
    stats = {}
    for d in defs:
        s = summary(samples[d["name"]])
        metrics[d["name"]] = {"value": s["median"], "unit": d["unit"]}
        stats[d["name"]] = {"unit": d["unit"], **s}
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "epsilon": run.epsilon,
        "cycles": len(run.cycles),
        "sha256": run.digest,
        "pinned_sha256": pinned,
        "environment": environment(),
        "metrics": stats,
        "unscaled": {k: summary(v) for k, v in run.unscaled().items()} if not trace else None,
        "layers": layers,
        "failures": run.failures[:20],
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lpcompact" / "__init__.py").is_file():
        print(f"lpcompact sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    pinned = load_pins()[args.workload] if args.seed == DEFAULT_SEED else None
    try:
        result, record = execute(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), pinned, bench
        )
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
