"""Acceptance suite: ten gate criteria, one printed verdict line each.

Every test prints `criterion N: PASS ...` (or fails its assertions, in which
case pytest reports the failure).  Tolerances are pinned in the assertions
themselves; nothing here is statistical except where a criterion explicitly
allows a standard-error margin.
"""

import math
import time
from fractions import Fraction
from random import Random

from thrsat.counters import WorkCounters
from thrsat.model import WireStats, evaluate
from thrsat.oracle import (GenSpec, brute_circuit_sat, brute_domination,
                           brute_half_lists, brute_ilp, enumerate_satisfying,
                           generate, random_domination, random_ilp,
                           random_mixed_circuit, random_symmetric_circuit)
from thrsat.sparse_sat import (DEFAULT_DELTA, draw_restriction,
                               exceptional_gates, ilp_for_guess,
                               restriction_params, solve)
from thrsat.splitlist import half_lists, normalize_rows, solve_ilp, verify
from thrsat.symsat import (adversarial_densities, choose_p, expected_savings,
                           p_grid, savings, solve_symmetric)
from thrsat.vecdom import count_bound, find_dominating_pair
from thrsat import bench


def _announce(number, detail):
    print(f"criterion {number}: PASS ({detail})")


def test_criterion_01_threshold_solver_matches_brute():
    """500 threshold instances, restriction forced, inside ten minutes."""
    start = time.monotonic()
    agreements = 0
    for i in range(500):
        n = 8 + i % 9
        c = 1 + i % 3
        circuit = random_mixed_circuit(n, c * n, seed=i, weight_bound=10)
        outcome = solve(circuit, seed=i, force_restriction=True)
        ref = brute_circuit_sat(circuit)
        assert outcome.satisfiable == (ref is not None), f"instance {i}"
        agreements += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"suite took {elapsed:.1f}s"
    _announce(1, f"{agreements}/500 verdicts agree, {elapsed:.1f}s")


def test_criterion_02_ilp_matches_brute():
    """300 constraint systems: 200 Boolean, 100 at arity three."""
    checked = 0
    for i in range(200):
        n = 4 + i % 11
        system = random_ilp(n, i % 6, 2, seed=i)
        witness, cnt = solve_ilp(system, counters=WorkCounters())
        ref = brute_ilp(system)
        assert (witness is None) == (ref is None), f"boolean instance {i}"
        if witness is not None:
            assert verify(system, witness)
        checked += 1
    for i in range(100):
        n = 3 + i % 7
        system = random_ilp(n, i % 5, 3, seed=1000 + i)
        witness, _ = solve_ilp(system)
        ref = brute_ilp(system)
        assert (witness is None) == (ref is None), f"arity-3 instance {i}"
        checked += 1
    _announce(2, f"{checked}/300 verdicts agree")


def test_criterion_03_symmetric_solver_matches_brute():
    """200 symmetric circuits with mixed predicates, restriction forced."""
    for i in range(200):
        n = 6 + i % 9
        wires = n + i % n
        circuit = random_symmetric_circuit(n, wires, seed=i, weight_bound=3,
                                           direct_count=i % 3)
        outcome = solve_symmetric(circuit, seed=i, force_restriction=True)
        ref = brute_circuit_sat(circuit)
        assert outcome.satisfiable == (ref is not None), f"instance {i}"
        if outcome.witness is not None:
            assert evaluate(circuit, outcome.witness), f"instance {i}"
    _announce(3, "200/200 verdicts agree, every witness evaluated")


def _no_pair_instance(n, d, seed):
    """Random instance with the B side lifted past every A sum: no pair."""
    a, b = random_domination(n, n, d, seed=seed)
    shift = (a.sum(axis=1).max() - b.sum(axis=1).min()) // d + 1
    return a, b + shift


def test_criterion_04_domination_work_bound():
    """Recursion nodes within 8 * count_bound over the full size grid."""
    runs = 0
    for exp in range(8, 15):
        n = 1 << exp
        for d in range(2, 11):
            for a, b in (random_domination(n, n, d, seed=exp * 100 + d),
                         _no_pair_instance(n, d, seed=exp * 100 + d)):
                pair, cnt = find_dominating_pair(a, b)
                total = len(a) + len(b)
                assert cnt.recursion_nodes <= 8 * count_bound(total, d), \
                    (n, d, cnt.recursion_nodes)
                if n <= 1024:
                    ref = brute_domination(a, b)
                    assert (pair is None) == (ref is None), (n, d)
                runs += 1
    _announce(4, f"work bound holds on {runs} runs, verdicts checked to n=1024")


def test_criterion_05_vector_count_identity():
    """solve_ilp hands its search exactly the half assignments that reach
    the other half's bound: the lists equal brute_half_lists, vectors counts
    their rows, and arity^ceil(n/2) + arity^floor(n/2) bounds it, with
    equality exactly when neither list is pruned."""
    checked = pruned = 0
    for i in range(50):
        arity = 2 + i % 3
        n = 2 + i % 9
        system = random_ilp(n, i % 5, arity, seed=i)
        first, second = half_lists(system, normalize_rows(system))
        got = tuple({int(t): tuple(int(x) for x in v)
                     for t, v in zip(side.tags, side.vectors)}
                    for side in (first, second))
        assert got == brute_half_lists(system), i
        cnt = WorkCounters()
        solve_ilp(system, counters=cnt)
        identity = arity ** ((n + 1) // 2) + arity ** (n // 2)
        assert cnt.vectors == len(got[0]) + len(got[1]) <= identity, i
        full = (len(got[0]) == arity ** ((n + 1) // 2)
                and len(got[1]) == arity ** (n // 2))
        assert (cnt.vectors == identity) == full, i
        if i % 5 == 0:
            # zero rows: nothing prunes
            assert full, i
        pruned += not full
        checked += 1
    assert pruned
    _announce(5, f"lists exact on {checked}/50 runs, {pruned} pruned below "
                 "the identity")


def test_criterion_06_fanin_window_selection():
    """1000 random fan-in multisets: selected window is light, index small."""
    from collections import Counter

    from thrsat.sparse_sat import fanin_separation

    rng = Random(2024)
    for i in range(1000):
        n = rng.randint(16, 256)
        budget = rng.randint(1, 8) * n
        fanins = Counter()
        left = budget
        while left > 0:
            f = rng.randint(1, min(left, 200))
            fanins[f] += 1
            left -= f
        stats = WireStats(fanins=fanins, total=budget)
        c = Fraction(budget, n)
        epsilon = DEFAULT_DELTA ** 2 / c
        a = c ** 2 / DEFAULT_DELTA ** 2
        if a <= 1:
            continue
        k = fanin_separation(stats, n, epsilon, a)
        mass = sum(f * cnt for f, cnt in fanins.items() if k < f <= k * a)
        assert mass <= epsilon * n, i
        index = 0
        probe = Fraction(1)
        while probe < k:
            probe *= a
            index += 1
        assert probe == k
        assert index <= c / epsilon, i
    _announce(6, "1000/1000 windows light, index within c/epsilon")


def test_criterion_07_exceptional_gate_expectation():
    """Monte-Carlo over draw_restriction: mean exceptional count within
    3*delta*p*n plus three standard errors."""
    instances = (
        random_mixed_circuit(24, 24, seed=1, weight_bound=10),
        generate(GenSpec(kind="threshold_circuit", n=24, c=1, seed=2,
                         distribution="fixed_fanin", fan_in=3)),
        random_mixed_circuit(48, 96, seed=3, weight_bound=10),
    )
    draws = 1200
    for circuit in instances:
        params = restriction_params(circuit)
        rng = Random(99)
        counts = [len(exceptional_gates(
            circuit, draw_restriction(circuit, params.p, rng).free))
            for _ in range(draws)]
        mean = sum(counts) / draws
        var = sum((x - mean) ** 2 for x in counts) / max(draws - 1, 1)
        stderr = math.sqrt(var / draws)
        bound = float(3 * params.delta * params.p * circuit.n_vars)
        assert mean <= bound + 3 * stderr, (mean, bound, stderr)
    _announce(7, f"{draws} draws per instance, means within bound")


def test_criterion_08_savings_analysis():
    """savings against an independent formula; choose_p as grid argmax;
    adversarial distributions never beat p/2."""
    # A fresh statement of the two-branch score, kept separate on purpose.
    def reference(p, f, c):
        if p * f < Fraction(1, 4 * c):
            return float(p) / 4
        return float(p) / 2 - (float(c) / f) * math.log2(8 * float(c) * float(p) * f)

    points = 0
    for i in range(1, 21):
        p = Fraction(1, 1 << i)
        for f in range(1, 26):
            for c in (Fraction(1), Fraction(3)):
                got = savings(p, f, c)
                if p * f < Fraction(1, 4) / c:
                    assert got == p / 4, (p, f, c)
                else:
                    assert math.isclose(float(got), reference(p, f, c),
                                        rel_tol=1e-12), (p, f, c)
                points += 1
    assert points == 1000

    rng = Random(17)
    for _ in range(100):
        dens = {rng.randint(1, 64): Fraction(rng.randint(1, 8), 8)
                for _ in range(rng.randint(1, 4))}
        c = sum(dens.values()) + Fraction(rng.randint(0, 4), 4)
        if c > 2:
            c = Fraction(2)
            dens = {f: min(cf, Fraction(1, 2)) for f, cf in dens.items()}
        best, best_score = None, None
        for cand in p_grid(c):
            score = expected_savings(cand, dens, c)
            if best_score is None or score > best_score:
                best, best_score = cand, score
        assert choose_p(dens, c) == best

    for c in (1, 2, 3, 4):
        dens = adversarial_densities(c)
        for p in p_grid(Fraction(c)):
            assert expected_savings(p, dens, Fraction(c)) <= p / 2, (c, p)
    _announce(8, "1000 grid points, 100 argmax checks, tightness to c=4")


def test_criterion_09_guess_unions_are_exact():
    """The systems of all gate guesses cover exactly the SAT set."""
    def assignments(n):
        for x in range(1 << n):
            yield tuple((x >> (n - 1 - k)) & 1 for k in range(n))

    for i in range(20):
        n = 6 + i % 7
        circuit = random_mixed_circuit(n, 2 + i % 5, seed=i, weight_bound=5)
        m = len(circuit.bottom)
        assert m <= 3 or n <= 12
        covered = set()
        for mask in range(1 << m):
            system = ilp_for_guess(circuit, mask)
            for values in assignments(n):
                if verify(system, values):
                    covered.add(values)
        assert covered == set(enumerate_satisfying(circuit)), f"threshold {i}"
    _announce(9, "gate-guess unions exact on 20 circuits")


def test_criterion_10_measured_speedup():
    """Density-one fan-in-three instances at n=24: a nonempty eliminated set
    and at most one counted operation per enumerated row, so strictly fewer
    than the 2^24 cube, with the exponent in the bench table."""
    n = 24
    for seed in range(5):
        circuit = generate(GenSpec(kind="threshold_circuit", n=n, c=1,
                                   seed=seed, distribution="fixed_fanin",
                                   fan_in=3))
        cnt = WorkCounters()
        outcome = solve(circuit, seed=seed, counters=cnt)
        rows = 1 << (n - len(outcome.eliminated))
        assert outcome.eliminated, "no variable was eliminated"
        assert cnt.total() <= rows, (seed, cnt.total(), rows)
        assert cnt.total() < 1 << n, (seed, cnt.total())
    records = bench.bench_suite("speedup", 3, seed=0)
    table = bench.format_table(records)
    print(table, end="")
    assert all(r.empirical_exponent < 1.0 for r in records)
    _announce(10, "counter totals within 2^(n-|S|) < 2^24 on 5 seeds, table above")
