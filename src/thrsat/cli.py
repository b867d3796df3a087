"""Command-line front end.

Four subcommands: `solve` runs the real solvers, `oracle` runs the
brute-force reference deciders, `gen` prints a generated instance, and
`bench` prints a CSV counter table.  Verdicts use SAT-solver exit codes
(10 satisfiable, 20 unsatisfiable, 1 for an input or resource error, and
argparse's 2 for a malformed command line); the witness goes to
standard output and the work counters to standard error, so pipelines can
consume the verdict without scraping diagnostics.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from . import bench as bench_mod
from .counters import WorkCounters
from .errors import InputError, ParseError, ResourceGuardError
from .formats import (emit_circuit, emit_ilp, emit_symmetric, emit_witness,
                      parse_circuit, parse_ilp, parse_symmetric)
from .model import Assignment
from .oracle import GenSpec, brute_circuit_sat, brute_ilp, generate
from .sparse_sat import solve
from .splitlist import solve_ilp
from .symsat import solve_symmetric

SAT_EXIT = 10
UNSAT_EXIT = 20
ERROR_EXIT = 1

# The instance kinds the verbs take: each kind's text parser, emitter and
# GenSpec kind.
_KINDS = {"circuit": (parse_circuit, emit_circuit, "threshold_circuit"),
          "symmetric": (parse_symmetric, emit_symmetric, "symmetric_circuit"),
          "ilp": (parse_ilp, emit_ilp, "ilp")}


def _print_verdict(witness: Optional[Assignment]) -> int:
    if witness is None:
        print("UNSAT")
        return UNSAT_EXIT
    print(f"SAT {emit_witness(witness)}")
    return SAT_EXIT


def _print_counters(cnt: WorkCounters, eliminated: int) -> None:
    counts = " ".join(f"{k}={v}" for k, v in asdict(cnt).items())
    print(f"counters: {counts} total={cnt.total()} eliminated={eliminated}",
          file=sys.stderr)


def _run_instance(args) -> int:
    """Decide one instance file: with the brute-force reference when
    args.use_oracle is set (the `oracle` verb), else with the solvers."""
    parse = _KINDS[args.kind][0]
    instance = parse(Path(args.file).read_text(encoding="utf-8"))
    cnt = WorkCounters()
    eliminated = 0
    if args.use_oracle:
        oracle = brute_ilp if args.kind == "ilp" else brute_circuit_sat
        witness = oracle(instance, counters=cnt)
    elif args.kind == "ilp":
        kwargs = {}
        if args.max_assigned is not None:
            kwargs["max_half_vars"] = args.max_assigned
        witness, _ = solve_ilp(instance, counters=cnt, **kwargs)
    else:
        kwargs = {}
        if args.max_assigned is not None:
            kwargs["max_branch_bits"] = args.max_assigned
        solver = solve if args.kind == "circuit" else solve_symmetric
        outcome = solver(instance, seed=args.seed,
                         force_restriction=args.force_restriction,
                         counters=cnt, **kwargs)
        witness = outcome.witness
        eliminated = len(outcome.eliminated)
    code = _print_verdict(witness)
    _print_counters(cnt, eliminated)
    return code


def _cmd_gen(args) -> int:
    _, emit, kind = _KINDS[args.kind]
    spec = GenSpec(kind=kind, n=args.n, seed=args.seed,
                   c=args.c, rows=args.rows, weight_bound=args.weight_bound,
                   arity=args.arity, distribution=args.distribution,
                   fan_in=args.fan_in)
    sys.stdout.write(emit(generate(spec)))
    return 0


def _cmd_bench(args) -> int:
    records = bench_mod.bench_suite(
        args.suite, args.count, n=args.n, c=args.c, rows=args.rows,
        arity=args.arity, seed=args.seed, fan_in=args.fan_in,
        force_restriction=args.force_restriction)
    sys.stdout.write(bench_mod.format_table(records))
    return 0


def _add_instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("kind", choices=tuple(_KINDS))
    sub.add_argument("file", help="instance file")
    sub.add_argument("--seed", type=int, default=None,
                     help="restriction seed (default: derived from the instance)")
    sub.add_argument("--force-restriction", action="store_true",
                     help="draw the paper's restriction and eliminate its "
                          "free set, not the greedy set")
    sub.add_argument("--max-assigned", type=int, default=None,
                     help="enumerated-bit guard (for ilp: at most 2^N half "
                          "assignments, within the half-table guard)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thrsat",
        description="Satisfiability for sparse depth-two threshold circuits.")
    subs = parser.add_subparsers(dest="command", required=True)

    solve_p = subs.add_parser("solve", help="decide an instance with the solvers")
    _add_instance_args(solve_p)
    solve_p.set_defaults(func=_run_instance, use_oracle=False)

    oracle_p = subs.add_parser("oracle", help="run the brute-force reference")
    _add_instance_args(oracle_p)
    oracle_p.set_defaults(func=_run_instance, use_oracle=True)

    gen_p = subs.add_parser("gen", help="print a generated instance")
    gen_p.add_argument("kind", choices=tuple(_KINDS))
    gen_p.add_argument("--n", type=int, required=True)
    gen_p.add_argument("--c", type=int, default=None,
                       help="wire-density budget (circuits)")
    gen_p.add_argument("--rows", type=int, default=None,
                       help="row count (ilp)")
    gen_p.add_argument("--arity", type=int, default=2)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--weight-bound", type=int, default=8)
    gen_p.add_argument("--distribution", default="uniform_fanin",
                       choices=("uniform_fanin", "fixed_fanin",
                                "adversarial_pow2"))
    gen_p.add_argument("--fan-in", type=int, default=None)
    gen_p.set_defaults(func=_cmd_gen)

    bench_p = subs.add_parser("bench", help="print a CSV counter table")
    bench_p.add_argument("--suite", default="speedup", choices=bench_mod.SUITES)
    bench_p.add_argument("--count", type=int, default=3)
    bench_p.add_argument("--n", type=int, default=24)
    bench_p.add_argument("--c", type=int, default=1)
    bench_p.add_argument("--rows", type=int, default=8)
    bench_p.add_argument("--arity", type=int, default=2)
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--fan-in", type=int, default=None)
    bench_p.add_argument("--force-restriction", action="store_true")
    bench_p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ParseError, ResourceGuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR_EXIT
