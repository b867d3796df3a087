"""Benchmark harness: run a solver on a generated suite and report counters.

One runner, `bench_suite`, serves every suite: it generates instances at
consecutive seeds, times the suite's solver on each, and returns one
`BenchRecord` per instance.  Records come out as comma-separated lines so
the output can be piped into any spreadsheet or plotting tool; the counter
columns are `WorkCounters`' fields in order, so a new counter is a new
column.  The headline column is the empirical exponent
log2(total basic operations) / n: a full cube scan sits at 1.0 and
anything the eliminated set saves shows up as a smaller value.
"""
from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, fields, replace
from typing import Optional

from .counters import WorkCounters
from .oracle import GenSpec, generate
from .sparse_sat import solve
from .splitlist import solve_ilp
from .symsat import solve_symmetric

# Each suite's instance-name prefix, GenSpec kind, weight bound and solver.
_SUITES = {"circuit": ("tc", "threshold_circuit", 8, solve),
           "symmetric": ("sc", "symmetric_circuit", 3, solve_symmetric),
           "ilp": ("ilp", "ilp", 8, solve_ilp)}
SUITES = (*_SUITES, "speedup")


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark run and one CSV row: a column per field in field
    order, the counters as a column per `WorkCounters` field, and last the
    empirical exponent computed from the counters."""

    instance: str
    n: int
    c: int
    solver: str
    verdict: str
    wall_time_ns: int
    counters: WorkCounters

    @property
    def empirical_exponent(self) -> float:
        return math.log2(max(self.counters.total(), 1)) / max(self.n, 1)

    def to_csv(self) -> str:
        *head, counters = astuple(self)
        return ",".join(f"{v:.6f}" if isinstance(v, float) else str(v)
                        for v in (*head, *counters, self.empirical_exponent))


def bench_suite(suite: str, count: int, *, n: int = 24, c: int = 1,
                rows: int = 8, arity: int = 2, seed: int = 0,
                fan_in: Optional[int] = None,
                force_restriction: bool = False) -> list[BenchRecord]:
    """Generate count instances of suite at seeds seed, seed + 1, ... and
    time the suite's solver on each; instance s is named prefix-n-c-s, or
    ilp-n-rows-s for a constraint system.

    circuit draws threshold circuits of density c, with every fan-in set to
    fan_in, or drawn at random when it is None, and solves each with
    force_restriction.  speedup is circuit with fan_in 3 when it is None.
    symmetric draws symmetric circuits of density c and ignores fan_in.
    ilp draws systems of rows rows over arity values per variable, ignores
    c and force_restriction, and reads 0 in the c column.
    """
    if suite == "speedup":
        suite = "circuit"
        fan_in = 3 if fan_in is None else fan_in
    prefix, kind, weight_bound, solver = _SUITES[suite]
    if solver is solve_ilp:
        name = f"{prefix}-{n}-{rows}"
        spec = GenSpec(kind=kind, n=n, rows=rows, arity=arity,
                       weight_bound=weight_bound)
    else:
        name = f"{prefix}-{n}-{c}"
        fan_in = fan_in if suite == "circuit" else None
        spec = GenSpec(kind=kind, n=n, c=c, weight_bound=weight_bound,
                       distribution="uniform_fanin" if fan_in is None
                       else "fixed_fanin", fan_in=fan_in)
    records = []
    for s in range(seed, seed + count):
        instance = generate(replace(spec, seed=s))
        cnt = WorkCounters()
        start = time.perf_counter_ns()
        if solver is solve_ilp:
            satisfiable = solve_ilp(instance, counters=cnt)[0] is not None
        else:
            satisfiable = solver(instance, seed=s,
                                 force_restriction=force_restriction,
                                 counters=cnt).satisfiable
        elapsed = time.perf_counter_ns() - start
        records.append(BenchRecord(
            f"{name}-{s}", n, spec.c or 0, solver.__name__,
            "SAT" if satisfiable else "UNSAT", elapsed, cnt))
    return records


def format_table(records: list[BenchRecord]) -> str:
    header = [f.name for f in fields(BenchRecord)[:-1]]
    header += [f.name for f in fields(WorkCounters)]
    header.append("empirical_exponent")
    return "\n".join([",".join(header)] + [r.to_csv() for r in records]) + "\n"
