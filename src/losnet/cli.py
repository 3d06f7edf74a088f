"""Command-line interface: generate, solve, verify.

Exit codes: 0 success, 2 validation error (including bad usage and a path
that cannot be opened), 3 capacity error (an enumeration budget or oracle
cap refused the input), 1 anything else, including a reader that closed
stdout or stderr before the output was written (one line on stderr, no
traceback).  JSON payloads go to stdout; diagnostics, including wall-clock
times, go to stderr so identical commands produce byte-identical stdout.

Each input file is opened and read once.  ``solve`` parses it in the
format its algorithm takes (``.ads`` for ``adssched``, else ``.losn``), whose
first-line check refuses the other; ``verify`` goes by the first line.

The ``losnet`` command enters through ``run``, which leaves with
``os._exit`` once the output is flushed: the answer is written by then, and
finalizing the modules and objects a solve built would only add to its
time.  ``main`` returns the exit code and keeps the normal exit for
in-process callers.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import oracle
from .core import (
    GenConfig,
    InstanceParams,
    LosInstance,
    Solution,
    generate,
    parse_rational,
    resolve_long_axis,
)
from .errors import CapacityError, LosError, ValidationError
from .io import (
    ADS_HEADER,
    content_lines,
    load_ads,
    load_instance,
    load_solution,
    parse_ads,
    parse_instance,
    read_text,
    save_instance,
    serialize_ads,
    serialize_instance,
    solution_dict,
)
from .narrow import DEFAULT_WINDOW_BUDGET, solve_exact_narrow

TYPE_CHECKING = False  # ``typing.TYPE_CHECKING``, without importing ``typing``
if TYPE_CHECKING:
    from .semionline import PhaseState

ALGOS = ("exact-narrow", "brute", "strip2", "ptas", "semionline", "adssched")
BUDGET_ENV = "LOS_WINDOW_BUDGET"


def _parse_extents(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad extents {text!r}") from exc


def _window_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_WINDOW_BUDGET
    try:
        budget = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if budget < 1:
        raise ValidationError(f"{BUDGET_ENV} must be at least 1, got {budget}")
    return budget


class _Parser(argparse.ArgumentParser):
    """Parser whose help is wrapped at 78 columns, the width ``argparse``
    picks when stdout is not a terminal.  Asking the terminal instead
    imports ``shutil`` (and with it ``bz2``, ``lzma``, ``fnmatch`` and
    ``zlib``) on every run.  Subparsers are of the parser's class, so they
    wrap alike."""

    def __init__(self, **kwargs) -> None:
        formatter = functools.partial(argparse.HelpFormatter, width=78)
        super().__init__(formatter_class=formatter, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="losnet",
        description="Solvers for independent sets on line-of-sight grid networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--extents", required=True, help="comma separated, one per axis")
    gen.add_argument("--omega", type=int, required=True)
    gen.add_argument("--density", required=True, help="cell occupancy probability")
    gen.add_argument("--weights", default="const:1", help="const:c or uniform:a:b")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("algo", choices=ALGOS)
    solve.add_argument("file")
    solve.add_argument("--epsilon", help="rational, e.g. 0.5 or 1/2")
    solve.add_argument("--long-axis", type=int, default=None)
    solve.add_argument("--json", action="store_true", help="full report on stdout")
    solve.add_argument("--float", action="store_true", dest="with_float")
    solve.add_argument("--trace-phases", action="store_true")

    ver = sub.add_parser("verify", help="recheck a solution JSON against an instance")
    ver.add_argument("instance")
    ver.add_argument("solution")

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args, argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except LosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace, argv: list[str]) -> int:
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "solve":
        return _cmd_solve(args, argv)
    return _cmd_verify(args)


def _cmd_gen(args: argparse.Namespace) -> int:
    params = InstanceParams(args.d, _parse_extents(args.extents), args.omega)
    cfg = GenConfig(params, args.density, args.weights, args.seed)
    inst = generate(cfg)
    comments = [
        f"generated prng=splitmix64 seed={cfg.seed} density={cfg.density} "
        f"weights={cfg.weight_dist}"
    ]
    save_instance(args.output, inst, comments)
    print(f"wrote {args.output} ({len(inst)} vertices)", file=sys.stderr)
    return 0


def _cmd_solve(args: argparse.Namespace, argv: list[str]) -> int:
    budget = _window_budget()
    epsilon = parse_rational(args.epsilon) if args.epsilon is not None else None
    if args.algo in ("ptas", "semionline") and epsilon is None:
        raise ValidationError(f"--epsilon is required for {args.algo}")
    started = time.perf_counter()

    if args.algo == "adssched":
        from .adssched import solve_adssched

        ads = load_ads(args.file)
        sol = solve_adssched(ads, budget=budget)
        report = oracle.verify_ads(ads, sol)
        digest = _digest(serialize_ads(ads))
        long_axis: int | None = None
    else:
        inst = load_instance(args.file)
        sol, long_axis = _run_algo(args, inst, epsilon, budget)
        report = oracle.verify(inst, sol)
        digest = _digest(serialize_instance(inst))
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    if not report.independent:
        raise RuntimeError(
            f"solver output failed verification: {report.violations}"
        )
    print(f"# wall_ms={elapsed_ms:.3f}", file=sys.stderr)
    if args.json:
        out = {
            "command": " ".join(argv),
            "digest": digest,
            "params": {
                "algo": args.algo,
                "epsilon": str(epsilon) if epsilon is not None else None,
                "long_axis": long_axis,
                "window_budget": budget,
            },
            "solution": solution_dict(sol, args.with_float),
        }
        print(json.dumps(out, indent=2))
    else:
        print(f"algorithm: {sol.algorithm}")
        print(f"weight: {sol.total_weight}")
        print(f"vertices: {len(sol.vertices)}")
    return 0


def _run_algo(
    args: argparse.Namespace,
    inst: LosInstance,
    epsilon: Fraction | None,
    budget: int,
) -> tuple[Solution, int | None]:
    long_axis = args.long_axis
    if args.algo != "brute":
        long_axis = resolve_long_axis(inst.params, long_axis)
    if args.algo == "exact-narrow":
        return solve_exact_narrow(inst, long_axis, budget), long_axis
    if args.algo == "brute":
        from .brute import brute_mis

        return brute_mis(inst), None
    if args.algo == "strip2":
        from .decomp import solve_strip2

        return solve_strip2(inst, long_axis, budget), long_axis
    if args.algo == "ptas":
        from .decomp import solve_ptas

        assert epsilon is not None
        return solve_ptas(inst, epsilon, long_axis, budget), long_axis
    if args.algo == "semionline":
        from .semionline import solve_semionline

        assert epsilon is not None
        on_phase = _phase_tracer() if args.trace_phases else None
        sol = solve_semionline(
            inst, epsilon, long_axis=long_axis, budget=budget, on_phase=on_phase
        )
        return sol, long_axis
    raise ValidationError(f"unknown algorithm {args.algo!r}")


def _phase_tracer():
    def trace(ph: PhaseState) -> None:
        line = json.dumps(
            {
                "j0": ph.j0,
                "r_star": ph.r,
                "weight": str(ph.current_weight),
                "lookahead_used": ph.lookahead_used,
            }
        )
        print(line, file=sys.stderr)

    return trace


def _digest(canonical_text: str) -> str:
    # The interpreter's built-in SHA-256 gives the same digest as ``hashlib``
    # without loading OpenSSL, which costs every run more than the hash does.
    try:
        from _sha256 import sha256
    except ImportError:  # Python 3.12 renamed the module; or a build without it
        from hashlib import sha256
    return "sha256:" + sha256(canonical_text.encode("utf-8")).hexdigest()


def _cmd_verify(args: argparse.Namespace) -> int:
    sol = load_solution(args.solution)
    text = read_text(args.instance)
    if next(content_lines(text.splitlines()), None) == ADS_HEADER:
        report = oracle.verify_ads(parse_ads(text), sol)
    else:
        report = oracle.verify(parse_instance(text), sol)
    out = {
        "independent": report.independent,
        "weight_claimed": str(report.weight_claimed),
        "weight_recomputed": str(report.weight_recomputed),
        "violations": report.violations,
    }
    print(json.dumps(out, indent=2))
    return 0 if report.independent else 1


def run() -> None:
    """Run ``main`` on the command line, flush, and leave with ``os._exit``;
    never returns.  Nothing losnet needs runs at interpreter exit: it
    registers no ``atexit`` handler.  An exception ``main`` does not handle
    takes the normal path (a traceback and exit 1), except a closed pipe."""
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        # Python's recipe for SIGPIPE: send what is still buffered nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        try:
            print("error: output closed before it was written", file=sys.stderr)
            sys.stderr.flush()
        except OSError:
            pass
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
