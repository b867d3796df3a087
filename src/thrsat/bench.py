"""Benchmark harness: run solvers on generated suites and report counters.

Records come out as comma-separated lines so the output can be piped into
any spreadsheet or plotting tool.  The headline column is the empirical
exponent log2(total basic operations) / n: a full cube scan sits at 1.0 and
anything the restriction pipeline saves shows up as a smaller value.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from .counters import WorkCounters
from .oracle import GenSpec, generate
from .sparse_sat import solve
from .splitlist import solve_ilp
from .symsat import solve_symmetric

CSV_HEADER = ("instance,n,c,solver,verdict,wall_time_ns,assignments,vectors,"
              "comparisons,guesses,eq_solves,empirical_exponent")


def empirical_exponent(total_ops: int, n: int) -> float:
    return math.log2(max(total_ops, 1)) / max(n, 1)


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark run; one CSV row."""

    instance: str
    n: int
    c: int
    solver: str
    verdict: str
    wall_time_ns: int
    assignments: int
    vectors: int
    comparisons: int
    guesses: int
    eq_solves: int
    empirical_exponent: float

    def to_csv(self) -> str:
        return (f"{self.instance},{self.n},{self.c},{self.solver},"
                f"{self.verdict},{self.wall_time_ns},{self.assignments},"
                f"{self.vectors},{self.comparisons},{self.guesses},"
                f"{self.eq_solves},{self.empirical_exponent:.6f}")


def _record(instance: str, n: int, c: int, solver: str, satisfiable: bool,
            elapsed_ns: int, cnt: WorkCounters) -> BenchRecord:
    return BenchRecord(
        instance=instance, n=n, c=c, solver=solver,
        verdict="SAT" if satisfiable else "UNSAT",
        wall_time_ns=elapsed_ns,
        assignments=cnt.assignments, vectors=cnt.vectors,
        comparisons=cnt.comparisons, guesses=cnt.guesses,
        eq_solves=cnt.eq_solves,
        empirical_exponent=empirical_exponent(cnt.total(), n),
    )


def _timed(fn):
    start = time.perf_counter_ns()
    result = fn()
    return result, time.perf_counter_ns() - start


def _bench_circuit_solver(count: int, n: int, c: int, seed: int,
                          force_restriction: bool, prefix: str, label: str,
                          solver, **spec) -> list[BenchRecord]:
    """Generate count circuits from spec and time solver on each."""
    out = []
    for i in range(count):
        circuit = generate(GenSpec(n=n, c=c, seed=seed + i, **spec))
        cnt = WorkCounters()
        outcome, elapsed = _timed(lambda: solver(
            circuit, seed=seed + i, force_restriction=force_restriction,
            counters=cnt))
        out.append(_record(f"{prefix}-{n}-{c}-{seed + i}", n, c, label,
                           outcome.satisfiable, elapsed, cnt))
    return out


def bench_circuits(count: int, n: int, c: int, *, seed: int = 0,
                   fan_in: Optional[int] = None,
                   force_restriction: bool = False) -> list[BenchRecord]:
    """Threshold-circuit suite through the restriction solver, with weights of
    absolute value at most 8."""
    dist = "fixed_fanin" if fan_in is not None else "uniform_fanin"
    return _bench_circuit_solver(
        count, n, c, seed, force_restriction, "tc", "solve", solve,
        kind="threshold_circuit", weight_bound=8,
        distribution=dist, fan_in=fan_in)


def bench_symmetric(count: int, n: int, c: int, *, seed: int = 0,
                    force_restriction: bool = False) -> list[BenchRecord]:
    """Symmetric-circuit suite through solve_symmetric, whose one route is
    the elimination kernel the threshold solver uses, with weights of
    absolute value at most 3."""
    return _bench_circuit_solver(
        count, n, c, seed, force_restriction, "sc", "solve_symmetric",
        solve_symmetric, kind="symmetric_circuit", weight_bound=3)


def bench_ilp(count: int, n: int, rows: int, *, arity: int = 2,
              seed: int = 0) -> list[BenchRecord]:
    """Constraint-system suite through the split-and-list solver, with weights
    of absolute value at most 8."""
    out = []
    for i in range(count):
        spec = GenSpec(kind="ilp", n=n, rows=rows, arity=arity, seed=seed + i,
                       weight_bound=8)
        system = generate(spec)
        cnt = WorkCounters()
        (witness, _), elapsed = _timed(lambda: solve_ilp(system, counters=cnt))
        out.append(_record(f"ilp-{n}-{rows}-{seed + i}", n, 0, "solve_ilp",
                           witness is not None, elapsed, cnt))
    return out


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
