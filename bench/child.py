"""One benchmark operation in a fresh interpreter.

    child.py epsilon SPEC SHARE
        import lpcompact, load SPEC and print SHARE * bound_modulus as JSON,
        with the host speed sampled over the whole child.
    child.py cli [--spans PATH] [--op ID] -- ARG...
        import lpcompact, then time ``lpcompact.cli.main(ARG...)`` alone,
        with the host speed sampled over the call (see ``hostspeed.py``).
        With ``--spans`` the layer wrappers are installed first, the spans
        are written to PATH after the call returns, and no speed is sampled,
        so ticks never fall inside a span.

The last line on stdout is one JSON record.  The parent sets PYTHONPATH to
the checkout's ``src`` so the program is the one under test.
"""

from __future__ import annotations

import argparse
import json
import resource
from contextlib import nullcontext
from time import perf_counter

import hostspeed


def cmd_epsilon(args) -> None:
    with hostspeed.Sampler() as sampler:
        from lpcompact import bound_modulus, load_problem

        problem = load_problem(args.spec)
        epsilon = args.share * bound_modulus(problem.family, problem.space)
    print(json.dumps({"epsilon": repr(epsilon), "tick_s": sampler.tick_s, "speed": sampler.speed}))


def cmd_cli(args) -> None:
    import lpcompact.cli

    main = lpcompact.cli.main
    recorder = None
    if args.spans:
        import tracing

        recorder = tracing.Recorder(args.op)
        tracing.install(recorder)
        main = recorder.wrap(tracing.ROOT, main)
    sampler = hostspeed.Sampler() if recorder is None else None
    start = perf_counter()
    with sampler or nullcontext():
        rc = main(args.argv)
    elapsed = perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        recorder.dump(args.spans)
    print(json.dumps({
        "rc": rc,
        # wall time of the call without the ticks
        "seconds": elapsed - (sampler.tick_s if sampler else 0.0),
        "speed": sampler.speed if sampler else None,
        "maxrss_kb": maxrss_kb,
    }))


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_eps = sub.add_parser("epsilon")
    p_eps.add_argument("spec")
    p_eps.add_argument("share", type=float)
    p_eps.set_defaults(func=cmd_epsilon)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--spans")
    p_cli.add_argument("--op", default="op")
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    p_cli.set_defaults(func=cmd_cli)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    args.func(args)


if __name__ == "__main__":
    main()
