"""Exact satisfiability for sparse depth-two threshold and symmetric circuits.

The public surface re-exports the instance types, the solvers, and the
brute-force reference deciders; the submodules hold the finer-grained
machinery (restriction parameters, vector domination, text formats).
"""
from .counters import WorkCounters
from .errors import InputError, ParseError, ResourceGuardError
from .model import (Assignment, IneqSystem, Predicate, Rel, Restriction, Row,
                    SymmetricCircuit, SymmetricGate, ThresholdCircuit,
                    ThresholdGate, evaluate, wire_stats)
from .oracle import (GenSpec, brute_circuit_sat, brute_domination, brute_ilp,
                     generate)
from .sparse_sat import SolveOutcome, solve
from .splitlist import solve_ilp
from .symsat import solve_symmetric
from .vecdom import find_dominating_pair

__version__ = "0.1.0"

__all__ = [
    "Assignment", "GenSpec", "IneqSystem", "InputError", "ParseError",
    "Predicate", "Rel", "ResourceGuardError", "Restriction", "Row",
    "SolveOutcome", "SymmetricCircuit", "SymmetricGate", "ThresholdCircuit",
    "ThresholdGate", "WorkCounters", "brute_circuit_sat", "brute_domination",
    "brute_ilp", "evaluate", "find_dominating_pair", "generate", "solve",
    "solve_ilp", "solve_symmetric", "wire_stats", "__version__",
]
