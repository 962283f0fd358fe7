"""Command-line front end.

Subcommands: gen, solve, oracle, validate, compare, trace, bench.
Exit codes: 0 success, 1 validation failure, 2 malformed input,
3 internal-invariant error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import ConfigInvalid, GeneratorConfig, bench_complexity, generate
from .model import (
    EmptyInstance,
    InstanceFormatError,
    MalformedPacket,
    instance_from_json,
    instance_to_json,
)
from .oracle import solve_projected_gradient
from .power import BracketOverflow, Monomial, PowerModel, Shannon
from .scheduler import (
    InternalDeadlineMiss,
    InternalIdle,
    InternalInvariantViolation,
    NoCandidates,
    schedule_from_json,
    schedule_to_json,
    solve,
)
from .verifier import (
    DimensionMismatch,
    check_feasible,
    check_optimality,
    extract_certificate,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MALFORMED = 2
EXIT_INTERNAL = 3

_INPUT_ERRORS = (
    MalformedPacket,
    EmptyInstance,
    InstanceFormatError,
    ConfigInvalid,
    DimensionMismatch,
    json.JSONDecodeError,
    KeyError,
    ValueError,
)
_INTERNAL_ERRORS = (
    NoCandidates,
    InternalIdle,
    InternalDeadlineMiss,
    InternalInvariantViolation,
    BracketOverflow,
    RuntimeError,
)


def _add_power_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--power", choices=["shannon", "monomial"], default="shannon",
        help="power-rate law (default shannon)",
    )
    parser.add_argument(
        "--noise", type=float, default=None,
        help="shannon noise power in watts (default: instance noise_power)",
    )
    parser.add_argument("--exponent", type=float, default=2.0, help="monomial exponent")
    parser.add_argument("--scale", type=float, default=1.0, help="monomial scale")


def _model_from_args(args, instance_noise: float) -> PowerModel:
    if args.power == "monomial":
        return Monomial(exponent=args.exponent, scale=args.scale)
    noise = args.noise if args.noise is not None else instance_noise
    return Shannon(noise_power=noise)


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _cmd_gen(args) -> int:
    config = GeneratorConfig(
        n=args.n,
        horizon=args.horizon,
        seed=args.seed,
        non_fifo_prob=args.non_fifo_prob,
        bits_range=(args.bits_min, args.bits_max),
        min_window_frac=args.min_window_frac,
    )
    instance = generate(config)
    _write(args.output, instance_to_json(instance, noise_power=args.noise or 1.0))
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance, noise = instance_from_json(_read(args.instance))
    model = _model_from_args(args, noise)
    schedule = solve(instance, model)
    _write(args.output, schedule_to_json(schedule))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    instance, noise = instance_from_json(_read(args.instance))
    model = _model_from_args(args, noise)
    sol = solve_projected_gradient(
        instance, model, tol=args.tol, max_iters=args.max_iters
    )
    doc = {
        "energy": sol.energy,
        "rates": [
            {"id": i + 1, "rate": float(r)} for i, r in enumerate(sol.rates)
        ],
        "iterations_run": sol.iterations,
        "residual": sol.residual,
        "converged": sol.converged,
    }
    _write(args.output, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _cmd_validate(args) -> int:
    instance, noise = instance_from_json(_read(args.instance))
    model = _model_from_args(args, noise)
    schedule = schedule_from_json(_read(args.schedule), instance)
    feas = check_feasible(instance, schedule)
    if not feas.ok:
        print("FEASIBILITY: FAIL")
        for v in feas.violations:
            print(f"  - {v}")
        return EXIT_VALIDATION
    print("FEASIBILITY: ok")
    report = check_optimality(instance, schedule, model)
    print(f"constant rates:        {'ok' if report.constant_rate_ok else 'FAIL'}")
    idle_bad = [j for j, ok in report.non_idling_ok.items() if not ok]
    print(f"non-idling epochs:     {'ok' if not idle_bad else f'FAIL {idle_bad}'}")
    cond_bad = report.epoch_rate_conditions.failed()
    print(f"epoch rate conditions: {'ok' if not cond_bad else f'FAIL {cond_bad}'}")
    if report.monotone_iteration_rates_ok is not None:
        print(
            "iteration rates:       "
            f"{'ok' if report.monotone_iteration_rates_ok else 'FAIL'}"
        )
    for w in report.warnings:
        print(f"note: {w}")
    print(f"OPTIMAL: {'yes' if report.optimal else 'no'}")
    if args.certificate:
        if not report.optimal:
            return EXIT_VALIDATION
        cert = extract_certificate(instance, schedule, model)
        decomp = instance.decomposition
        rows, cols = decomp.pairs()
        doc = {
            "beta": [float(b) for b in cert.beta],
            "gamma": [
                {"packet": i + 1, "epoch": j + 1, "value": v}
                for i, j, v in zip(
                    rows.tolist(), cols.tolist(), cert.gamma.on_pairs(decomp).tolist()
                )
            ],
            "lambda": [float(v) for v in cert.lam],
        }
        print(json.dumps(doc, indent=2))
    return EXIT_OK if report.optimal else EXIT_VALIDATION


def _cmd_compare(args) -> int:
    instance, noise = instance_from_json(_read(args.instance))
    model = _model_from_args(args, noise)
    schedule = solve(instance, model)
    sol = solve_projected_gradient(
        instance, model, tol=args.tol, max_iters=args.max_iters
    )
    gap = abs(schedule.energy - sol.energy) / max(abs(sol.energy), 1e-300)
    print(f"scheduler energy: {schedule.energy:.12g} J")
    print(f"oracle energy:    {sol.energy:.12g} J "
          f"({sol.iterations} iterations, converged={sol.converged})")
    print(f"oracle residual:  {sol.residual:.3e}")
    print(f"relative gap:     {gap:.3e}")
    if not sol.converged:
        print("note: the oracle did not converge; the gap is measured against "
              "an unconverged upper bound")
    return EXIT_OK


def _cmd_trace(args) -> int:
    instance, noise = instance_from_json(_read(args.instance))
    model = _model_from_args(args, noise)
    schedule = solve(instance, model)
    decomp = instance.decomposition
    rows, cols = decomp.pairs()
    lines = ["packet,epoch,start,end,tau"]
    times = schedule.tau.on_pairs(decomp).tolist()
    for i, j, t in zip(rows.tolist(), cols.tolist(), times):
        s, e = decomp.epochs[j]
        lines.append(f"{i + 1},{j + 1},{float(s)!r},{float(e)!r},{t!r}")
    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    rows = bench_complexity(sizes, args.seed)
    print(f"{'n':>6} {'wall s':>10} {'iters':>6} {'max cand':>9} {'total cand':>11}")
    for row in rows:
        print(
            f"{row.n:>6} {row.wall_time_s:>10.4f} {row.iterations:>6} "
            f"{row.max_candidates_per_iteration:>9} {row.total_candidates:>11}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="txsched",
        description="Energy-minimal transmission scheduling for deadline-"
        "constrained packets on a convex power-rate link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--non-fifo-prob", type=float, default=0.0, dest="non_fifo_prob")
    p.add_argument("--bits-min", type=float, default=0.5)
    p.add_argument("--bits-max", type=float, default=4.0)
    p.add_argument("--min-window-frac", type=float, default=0.05,
                   dest="min_window_frac",
                   help="windows span at least this fraction of the horizon")
    p.add_argument("--noise", type=float, default=1.0,
                   help="noise_power embedded in the instance file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="compute the optimal schedule")
    p.add_argument("instance")
    _add_power_flags(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="reference convex solve")
    p.add_argument("instance")
    _add_power_flags(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=200_000, dest="max_iters")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("validate", help="check a schedule against an instance")
    p.add_argument("instance")
    p.add_argument("schedule")
    _add_power_flags(p)
    p.add_argument("--certificate", action="store_true",
                   help="emit KKT multipliers as JSON")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("compare", help="run scheduler and oracle, print the gap")
    p.add_argument("instance")
    _add_power_flags(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=200_000, dest="max_iters")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("trace", help="emit per-epoch transmission times as CSV")
    p.add_argument("instance")
    _add_power_flags(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("bench", help="complexity counters over generated instances")
    p.add_argument("--sizes", default="10,20,40")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except _INTERNAL_ERRORS as exc:
        # RuntimeError subclasses signal implementation bugs, not bad input.
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
