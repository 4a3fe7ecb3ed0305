"""Command line front end.

Exit codes are stable for scripting: 0 success, 2 spec parse error, 3 model
violation (including a certificate that fails validation), 4 compactness
hypothesis failure (the message names the failing modulus).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from .errors import HypothesisError, ModelError, SpecFileError
from .experiments import blowup_fit, completeness_run
from .grid import Grid, inside_mask
from .moduli import measure_moduli
from .netbuilder import (
    build_certificate,
    load_certificate,
    save_certificate,
    validate_certificate,
)
from .profiles import Table
from .quasi import quasi_certificate, validate_quasi_certificate
from .spaces import (
    a1_constant,
    ap_constant,
    l1_embedding_constant,
    l1_embedding_sweep,
)
from .specfile import load_problem

__all__ = ["main"]


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise SpecFileError(f"bad numeric list {text!r}: {exc}") from exc


def _ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise SpecFileError(f"bad integer list {text!r}: {exc}") from exc


@contextmanager
def _writing(path, what: str = "output"):
    """Report a failure to write ``path`` as a spec error (exit 2), as an
    unreadable spec is."""
    try:
        yield
    except OSError as exc:
        raise SpecFileError(f"cannot write {what} {path}: {exc.strerror or exc}") from exc


def _write_json(path: Path, obj) -> None:
    with _writing(path), open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    with _writing(path), open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_moduli(args) -> int:
    problem = load_problem(args.spec)
    report = measure_moduli(
        problem.family,
        problem.space,
        shift_radii=_floats(args.r_list),
        tail_radii=_floats(args.n_list),
        region=args.region,
        stencil=args.stencil,
        with_averaged=not args.no_averaged,
    )
    prefix = Path(args.out)
    rows = [["bound", "", repr(report.bound)]]
    rows += [["tail", repr(r), repr(v)] for r, v in report.tail]
    rows += [["translation", repr(r), repr(v)] for r, v in report.translation]
    rows += [["averaged", repr(r), repr(v)] for r, v in report.averaged]
    _write_csv(prefix.with_suffix(".csv"), ["modulus", "radius", "value"], rows)
    _write_json(prefix.with_suffix(".json"), asdict(report))
    print(f"moduli written to {prefix.with_suffix('.csv')} and {prefix.with_suffix('.json')}")
    return 0


def cmd_net(args) -> int:
    problem = load_problem(args.spec)
    # a missing directory, or an --out that is one, fails before the build,
    # not after it; nothing is opened yet, so an existing file is kept
    out = Path(args.out)
    if not out.parent.is_dir():
        raise SpecFileError(f"cannot write certificate {out}: no directory {out.parent}")
    if out.is_dir():
        raise SpecFileError(f"cannot write certificate {out}: Is a directory")
    if problem.space.p >= 1:
        cert = build_certificate(
            problem.family, problem.space, args.epsilon, variant=args.variant
        )
        report = validate_certificate(problem.family, cert, problem.space)
    else:
        cert = quasi_certificate(
            problem.family, problem.space, args.epsilon, variant=args.variant
        )
        report = validate_quasi_certificate(problem.family, cert, problem.space)
    if not report.passed:
        for line in report.failures:
            print(f"validation failure: {line}", file=sys.stderr)
        return 3
    with _writing(args.out, "certificate"):
        save_certificate(cert, args.out)
    print(
        f"net of size {cert.n_net} for {len(problem.family)} members at epsilon "
        f"{args.epsilon:g}; certificate written to {args.out}"
    )
    return 0


def cmd_validate(args) -> int:
    problem = load_problem(args.spec)
    cert = load_certificate(args.certificate)
    if cert.quasi is not None:
        report = validate_quasi_certificate(problem.family, cert, problem.space)
    else:
        report = validate_certificate(problem.family, cert, problem.space)
    if not report.passed:
        for line in report.failures:
            print(f"validation failure: {line}", file=sys.stderr)
        return 3
    print(f"certificate {args.certificate} is valid: {len(report.distances)} members covered")
    return 0


def cmd_weight(args) -> int:
    problem = load_problem(args.spec)
    grid, space = problem.grid, problem.space
    if isinstance(problem.weight_profile, Table):
        raise ModelError(
            "the refinement sweep resamples the weight on finer grids, which a "
            "table weight does not support; use an analytic weight profile"
        )
    whole = inside_mask(grid, 2.0 ** grid.box_level, region="box")
    levels = [grid.cell_exp - k for k in range(4)]
    masses = l1_embedding_sweep(
        problem.weight_profile,
        space.p,
        grid.dim,
        grid.box_level,
        levels,
        2.0 ** grid.box_level,
        region="box",
    )
    ratios = [
        masses[k + 1] / masses[k] if masses[k] > 0 else float("inf")
        for k in range(len(masses) - 1)
    ]
    # Growth of the dual mass under refinement is the discrete signature of a
    # broken integral-versus-norm embedding; stability certifies it on this box.
    if all(r >= 1.5 for r in ratios):
        verdict = "fails under refinement"
    elif all(r <= 1.1 for r in ratios):
        verdict = "stable under refinement"
    else:
        verdict = "inconclusive"
    report = {
        "p": space.p,
        "ap_estimate": ap_constant(space.weight, space.p) if space.p > 1 else None,
        "a1_estimate": a1_constant(space.weight),
        "dual_mass_cell_exps": levels,
        "dual_mass": masses,
        "dual_mass_ratios": ratios,
        "embedding_verdict": verdict,
        "base_dual_mass": l1_embedding_constant(space, whole),
    }
    _write_json(Path(args.out), report)
    print(f"weight report written to {args.out} (embedding verdict: {verdict})")
    return 0


def cmd_experiments(args) -> int:
    prefix = Path(args.out)
    if args.study == "blowup":
        grid = Grid(dim=args.dim, box_level=args.box_level, cell_exp=args.cell_exp)
        report = blowup_fit(args.p, grid, _ints(args.n_list), args.weight_exponent)
        rows = [
            [n, repr(r), repr(math.log(n)), repr(math.log(r))] for n, r in report.rows
        ]
        _write_csv(prefix.with_suffix(".csv"), ["N", "ratio", "log_N", "log_ratio"], rows)
        _write_json(prefix.with_suffix(".json"), asdict(report))
        print(f"blow-up slope {report.slope:.6g} (target 1/p = {1.0 / args.p:.6g})")
        return 0
    if args.spec is None:
        raise SpecFileError("the completeness study takes its space and seed from --spec")
    problem = load_problem(args.spec)
    report = completeness_run(
        problem.space, problem.family.members[0], steps=args.steps, scale=args.scale
    )
    rows = [[k, repr(b), repr(m)] for k, b, m in report.tail_rows]
    _write_csv(prefix.with_suffix(".csv"), ["k", "tail_bound", "measured_norm"], rows)
    _write_json(prefix.with_suffix(".json"), {**asdict(report), "passed": report.passed})
    print(f"completeness run over {report.steps} steps: passed={report.passed}")
    return 0


_COMMANDS = ("moduli", "net", "validate", "weight", "experiments")


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The command line parser; with ``only``, one of the commands, it holds
    that command's subparser alone, which parses and reports alike."""
    parser = argparse.ArgumentParser(
        prog="lpcompact",
        description="Compactness moduli and epsilon-net certificates for weighted Lp grids",
    )
    # a parser for one command names them all in its usage, as the whole one does
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    wanted = _COMMANDS if only is None else (only,)

    if "moduli" in wanted:
        p_mod = sub.add_parser("moduli", help="measure moduli curves of a family")
        p_mod.add_argument("--spec", required=True)
        p_mod.add_argument("--r-list", required=True, help="comma-separated shift radii")
        p_mod.add_argument("--n-list", required=True, help="comma-separated tail region sizes")
        p_mod.add_argument("--region", choices=["ball", "box"], default="ball")
        p_mod.add_argument("--stencil", choices=["ball", "box"], default="ball")
        p_mod.add_argument("--no-averaged", action="store_true")
        p_mod.add_argument("--out", required=True, help="output prefix (.csv and .json)")
        p_mod.set_defaults(func=cmd_moduli)

    if "net" in wanted:
        p_net = sub.add_parser("net", help="build and validate an epsilon-net certificate")
        p_net.add_argument("--spec", required=True)
        p_net.add_argument("--epsilon", type=float, required=True)
        p_net.add_argument("--variant", choices=["banach", "vanishing"], default="banach")
        p_net.add_argument("--out", required=True)
        p_net.set_defaults(func=cmd_net)

    if "validate" in wanted:
        p_val = sub.add_parser("validate", help="re-check a certificate against its family")
        p_val.add_argument("--spec", required=True)
        p_val.add_argument("--certificate", required=True)
        p_val.set_defaults(func=cmd_validate)

    if "weight" in wanted:
        p_w = sub.add_parser("weight", help="weight diagnostics (Muckenhoupt, dual mass)")
        p_w.add_argument("--spec", required=True)
        p_w.add_argument("--out", required=True)
        p_w.set_defaults(func=cmd_weight)

    if "experiments" in wanted:
        p_exp = sub.add_parser("experiments", help="blow-up and completeness studies")
        p_exp.add_argument("study", choices=["blowup", "completeness"])
        p_exp.add_argument("--spec", help="spec file (completeness study)")
        p_exp.add_argument("--p", type=float, default=2.0)
        p_exp.add_argument("--dim", type=int, default=1)
        p_exp.add_argument("--box-level", type=int, default=0)
        p_exp.add_argument("--cell-exp", type=int, default=-10)
        p_exp.add_argument("--n-list", default="8,16,32,64,128,256,512")
        p_exp.add_argument("--weight-exponent", type=float, default=None)
        p_exp.add_argument("--steps", type=int, default=10)
        p_exp.add_argument("--scale", type=float, default=1.0)
        p_exp.add_argument("--out", required=True)
        p_exp.set_defaults(func=cmd_experiments)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the invoked command's subparser alone; help, no command and an
    # unknown one take the whole parser
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(only).parse_args(argv)
    try:
        return args.func(args)
    except SpecFileError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"hypothesis failure ({exc.criterion}): {exc}", file=sys.stderr)
        return 4
    except (ModelError, ValueError) as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
