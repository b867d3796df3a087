"""Benchmark harness: run solvers on generated suites and report counters.

Records come out as comma-separated lines so the output can be piped into
any spreadsheet or plotting tool.  The headline column is the empirical
exponent log2(total basic operations) / n: a full cube scan sits at 1.0 and
anything the eliminated set saves shows up as a smaller value.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import Optional

from .counters import WorkCounters
from .oracle import GenSpec, generate
from .sparse_sat import solve
from .splitlist import solve_ilp
from .symsat import solve_symmetric


def empirical_exponent(total_ops: int, n: int) -> float:
    return math.log2(max(total_ops, 1)) / max(n, 1)


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark run; one CSV row, a column per field in field order.
    The counter columns are WorkCounters' fields, under their names."""

    instance: str
    n: int
    c: int
    solver: str
    verdict: str
    wall_time_ns: int
    assignments: int
    vectors: int
    comparisons: int
    recursion_nodes: int
    median_selections: int
    empirical_exponent: float

    def to_csv(self) -> str:
        return ",".join(f"{v:.6f}" if isinstance(v, float) else str(v)
                        for v in astuple(self))


CSV_HEADER = ",".join(f.name for f in fields(BenchRecord))


def _bench(count: int, seed: int, name: str, solver: str, run,
           spec: GenSpec) -> list[BenchRecord]:
    """Generate count instances from spec at seeds seed, seed + 1, ... and
    time run(instance, seed, counters), which returns the verdict, on
    each.  The instances are named name-seed, and the c column is spec.c,
    0 for a constraint system."""
    out = []
    for s in range(seed, seed + count):
        instance = generate(replace(spec, seed=s))
        cnt = WorkCounters()
        start = time.perf_counter_ns()
        satisfiable = run(instance, s, cnt)
        elapsed = time.perf_counter_ns() - start
        out.append(BenchRecord(
            f"{name}-{s}", spec.n, spec.c or 0, solver,
            "SAT" if satisfiable else "UNSAT", elapsed, **asdict(cnt),
            empirical_exponent=empirical_exponent(cnt.total(), spec.n)))
    return out


def bench_circuits(count: int, n: int, c: int, *, seed: int = 0,
                   fan_in: Optional[int] = None,
                   force_restriction: bool = False) -> list[BenchRecord]:
    """Threshold-circuit suite through the threshold solver, with weights of
    absolute value at most 8; force_restriction draws the paper's
    restriction, and otherwise the greedy set is eliminated."""
    dist = "fixed_fanin" if fan_in is not None else "uniform_fanin"
    return _bench(
        count, seed, f"tc-{n}-{c}", "solve",
        lambda circuit, s, cnt: solve(
            circuit, seed=s, force_restriction=force_restriction,
            counters=cnt).satisfiable,
        GenSpec(kind="threshold_circuit", n=n, c=c, weight_bound=8,
                distribution=dist, fan_in=fan_in))


def bench_symmetric(count: int, n: int, c: int, *, seed: int = 0,
                    force_restriction: bool = False) -> list[BenchRecord]:
    """Symmetric-circuit suite through solve_symmetric, whose one route is
    the elimination kernel the threshold solver uses, with weights of
    absolute value at most 3."""
    return _bench(
        count, seed, f"sc-{n}-{c}", "solve_symmetric",
        lambda circuit, s, cnt: solve_symmetric(
            circuit, seed=s, force_restriction=force_restriction,
            counters=cnt).satisfiable,
        GenSpec(kind="symmetric_circuit", n=n, c=c, weight_bound=3))


def bench_ilp(count: int, n: int, rows: int, *, arity: int = 2,
              seed: int = 0) -> list[BenchRecord]:
    """Constraint-system suite through the split-and-list solver, with weights
    of absolute value at most 8."""
    return _bench(
        count, seed, f"ilp-{n}-{rows}", "solve_ilp",
        lambda system, s, cnt: solve_ilp(system, counters=cnt)[0] is not None,
        GenSpec(kind="ilp", n=n, rows=rows, arity=arity, weight_bound=8))


def bench_speedup(count: int = 3, *, seed: int = 0, n: int = 24, c: int = 1,
                  fan_in: int = 3,
                  force_restriction: bool = False) -> list[BenchRecord]:
    """The headline configuration: by default density one, fan-in three,
    n = 24.

    On these instances the full cube has 2^n points, so any empirical
    exponent below 1.0 is measured savings.
    """
    return bench_circuits(count, n, c, seed=seed, fan_in=fan_in,
                          force_restriction=force_restriction)


def format_table(records: list[BenchRecord]) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv() for r in records]) + "\n"
