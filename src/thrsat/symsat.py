"""Satisfiability of depth-two circuits built from symmetric gates.

Gates apply an arbitrary predicate (threshold, equality, congruence, or
membership in a finite set) to an integer-weighted sum of their inputs, and
so does the top gate; the circuit model lives in `thrsat.model`.
`solve_symmetric` hands every solve to the threshold solver's driver in
`thrsat.sparse_sat`, which checks p, seeds and draws the restriction, and
calls `eliminate`; that kernel decides every predicate kind: if no gate has
two inputs in the eliminated set, each gate is a function of at most one of
its variables whatever its predicate.  The only difference is the default
free probability p of a requested restriction: the argmax of an exact
savings score over a geometric grid, `choose_p`.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .counters import WorkCounters
from .errors import InputError
from .model import SymmetricCircuit
from .sparse_sat import MAX_BRANCH_BITS, SolveOutcome, _solve_eliminating

DEFAULT_KAPPA = 64


# --- free-probability analysis ---------------------------------------------
#
# The exponent saved by the restriction pipeline depends on the free
# probability p and on how the weighted wires spread over gate fan-in
# classes.  Candidate values of p live on a geometric grid and are scored in
# exact Fraction arithmetic, so calibration results are reproducible bit for
# bit.


def _log2_fraction(q: Fraction) -> Fraction:
    """log2 of a positive rational: exact on powers of two, float64-backed
    (then frozen into a Fraction) elsewhere."""
    q = Fraction(q)
    if q <= 0:
        raise InputError("log2 needs a positive argument")
    e = 0
    while q >= 2:
        q /= 2
        e += 1
    while q < 1:
        q *= 2
        e -= 1
    if q == 1:
        return Fraction(e)
    return e + Fraction(math.log2(float(q)))


def savings(p: Fraction, f: int, c: Fraction) -> Fraction:
    """Exponent savings of free probability p against weighted-fan-in-f gates
    at total wire density c; may be negative.

    Below the p*f < 1/(4c) knee a free variable rarely meets a second free
    one inside a gate and the savings grow linearly; past the knee the
    exceptional gates eat into the gain logarithmically.
    """
    p, c = Fraction(p), Fraction(c)
    if not 0 < p <= 1:
        raise InputError("p must lie in (0, 1]")
    if f < 1 or c <= 0:
        raise InputError("need a positive fan-in and wire density")
    if p * f < Fraction(1, 4) / c:
        return p / 4
    return p / 2 - Fraction(c, f) * _log2_fraction(8 * c * p * f)


def expected_savings(p: Fraction, densities: dict[int, Fraction],
                     c: Fraction) -> Fraction:
    """Density-weighted savings over a wire distribution.

    densities maps a weighted fan-in f to the wire density c_f its gates
    contribute; the densities may sum to less than the total c.
    """
    c = Fraction(c)
    if c <= 0:
        raise InputError("total wire density must be positive")
    return sum(Fraction(cf) / c * savings(p, f, c)
               for f, cf in densities.items())


def grid_size(c: Fraction) -> int:
    """Number of grid points scanned for a circuit of wire density c:
    ceil(DEFAULT_KAPPA * c^2 * log2(max(c, 2))), 0 when c is not positive."""
    c = Fraction(c)
    if c <= 0:
        return 0
    return math.ceil(DEFAULT_KAPPA * c * c * _log2_fraction(max(c, Fraction(2))))


def p_grid(c: Fraction) -> tuple[Fraction, ...]:
    """The candidate free probabilities 2^-1, ..., 2^-I, largest first, for
    I = grid_size(c)."""
    return tuple(Fraction(1, 1 << i) for i in range(1, grid_size(c) + 1))


def choose_p(densities: dict[int, Fraction], c: Fraction) -> Fraction:
    """Point of p_grid(c) with the best expected savings; ties go to the
    larger p.

    The grid is scored from the largest p down and stops at the first point
    below the knee of the largest fan-in: from there on every class scores
    p/4, so every later point scores less.  The points are made one at a
    time, since the grid has 64 c^2 log2 c of them and the scan stops after
    about log2(4 c f_max).  An empty distribution means no wires, where
    every variable may stay free.
    """
    if not densities:
        return Fraction(1)
    f_max = max(densities)
    best_p, best_score = None, None
    for i in range(1, grid_size(c) + 1):
        cand = Fraction(1, 1 << i)
        score = expected_savings(cand, densities, c)
        if best_score is None or score > best_score:
            best_p, best_score = cand, score
        if cand * f_max < Fraction(1, 4) / c:
            break
    if best_p is None:
        return Fraction(1)
    return best_p


def adversarial_densities(c: int) -> dict[int, Fraction]:
    """The wire distribution that stresses the grid hardest: one density unit
    at every power-of-two weighted fan-in up to 2^c."""
    if c < 1:
        raise InputError("need a positive density")
    return {1 << j: Fraction(1) for j in range(1, c + 1)}


def wire_distribution(circuit: SymmetricCircuit) -> dict[int, Fraction]:
    """Wire density per weighted-fan-in class: class f holds f wires for each
    of its gates, divided by the variable count.  A gate with no inputs
    carries no wires and has no class, so a circuit with no variables has
    an empty distribution."""
    out: dict[int, Fraction] = {}
    for g in circuit.bottom:
        f = g.weighted_fan_in
        if f:
            out[f] = out.get(f, Fraction(0)) + Fraction(f, circuit.n_vars)
    return out


def solve_symmetric(circuit: SymmetricCircuit, *, seed: Optional[int] = None,
                    p: Optional[Fraction] = None,
                    force_restriction: bool = False,
                    max_branch_bits: int = MAX_BRANCH_BITS,
                    counters: Optional[WorkCounters] = None) -> SolveOutcome:
    """Decide satisfiability of a symmetric depth-two circuit, exactly.

    The route and the keywords are `solve`'s: one `eliminate` call.  By
    default the eliminated set S is `greedy_independent_set` and nothing is
    drawn.  When p or force_restriction ask for the paper's restriction, one
    restriction is drawn (seed picks it) at p, or else at the grid argmax of
    the expected savings for this circuit's wire distribution, and S is its
    free variables outside the exceptional gates; p outside (0, 1] is an
    InputError.  Under a top predicate other than `ge` the variables that
    widen the top sum most leave S until eliminate's guard admits it.  The
    2^(n - |S|) rows outside S are enumerated, at most 2^max_branch_bits of
    them; a circuit with no variables has one empty row, and its empty wire
    distribution gives p = 1.  cnt.assignments counts the rows examined.
    params is None: only p is chosen.  The returned witness, if any, is
    verified.
    """
    if p is None and force_restriction:
        densities = wire_distribution(circuit)
        p = choose_p(densities, sum(densities.values(), Fraction(0)))
    return _solve_eliminating(circuit, p, seed, None, max_branch_bits,
                              counters)
