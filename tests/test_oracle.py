"""Tests for the brute-force references and the instance generators."""

import ast
import hashlib
import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thrsat.counters import WorkCounters
from thrsat.errors import InputError, ResourceGuardError
from thrsat.formats import emit_circuit, emit_ilp, emit_symmetric
from thrsat import sparse_sat
from thrsat.model import (MAX_VARS, Assignment, IneqSystem, PredKind, Rel, Row,
                          SymmetricCircuit, evaluate)
from thrsat.oracle import (MAX_GEN_ROWS, MAX_GEN_WIRES, GenSpec,
                           brute_circuit_sat, brute_domination,
                           brute_ilp, enumerate_satisfying, generate,
                           random_domination,
                           random_fixed_fanin_circuit,
                           random_ilp, random_mixed_circuit,
                           random_power_circuit, random_symmetric_circuit)
from thrsat.splitlist import verify
from thrsat.symsat import solve_symmetric
from thrsat.vecdom import dominates


def test_brute_returns_lex_first_witness():
    circuit = random_mixed_circuit(8, 14, seed=21)
    witness = brute_circuit_sat(circuit)
    sats = enumerate_satisfying(circuit)
    if witness is None:
        assert sats == []
    else:
        assert tuple(witness.values) == sats[0]
        assert evaluate(circuit, witness)


def test_brute_dispatches_on_circuit_family():
    # One brute force serves threshold and mixed-predicate circuits alike.
    for circuit in (random_symmetric_circuit(7, 10, seed=2, weight_bound=3),
                    random_mixed_circuit(7, 10, seed=2)):
        witness = brute_circuit_sat(circuit)
        sats = enumerate_satisfying(circuit)
        assert (witness is None) == (sats == [])
        if witness is not None:
            assert evaluate(circuit, witness)
            assert witness.values == sats[0]


def test_brute_shares_no_scan_with_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the solver's kernel")

    # every binding of the solver's kernel in the package, wherever imported
    kernel = sparse_sat.eliminate
    for name, module in list(sys.modules.items()):
        if name == "thrsat" or name.startswith("thrsat."):
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, refuse)
    # the solvers now fail, so the patch is in force
    with pytest.raises(AssertionError):
        solve_symmetric(random_symmetric_circuit(8, 12, seed=0))
    for seed in range(6):
        circuit = random_symmetric_circuit(8, 12, seed=seed, weight_bound=3,
                                           direct_count=seed % 3) \
            if seed % 2 else random_mixed_circuit(8, 12, seed=seed)
        witness = brute_circuit_sat(circuit)
        first = next((values for values in itertools.product((0, 1), repeat=8)
                      if evaluate(circuit, values)), None)
        assert (witness is None) == (first is None)
        if witness is not None:
            assert witness.values == first


def test_brute_guard():
    circuit = random_mixed_circuit(27, 27, seed=0)
    with pytest.raises(ResourceGuardError):
        brute_circuit_sat(circuit)


def test_oracle_imports_no_solver():
    """The oracle checks the solvers, so it takes nothing from them: its
    only package imports are model, counters and errors."""
    path = Path(__file__).resolve().parent.parent / "src" / "thrsat" / "oracle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative |= {node.module} if node.module \
                else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
        elif isinstance(node, ast.Import):
            absolute |= {alias.name for alias in node.names}
    assert relative == {"model", "counters", "errors"}
    assert not any(name.split(".")[0] == "thrsat" for name in absolute)


def test_brute_ilp_guard_builds_no_power():
    # 2^20000 assignments: refused on the variable count, before the power
    # is built or printed
    with pytest.raises(ResourceGuardError, match=r"2\^20000"):
        brute_ilp(IneqSystem(20000, (), 2))


def test_brute_ilp_verifies():
    system = random_ilp(9, 4, 3, seed=5)
    witness = brute_ilp(system)
    if witness is not None:
        assert verify(system, witness)


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_brute_ilp_returns_the_lex_first_assignment(arity):
    """The witness is the first feasible assignment in
    itertools.product order, first variable most significant, and the
    assignment count is its index + 1, or arity^n when none is feasible."""
    n, verdicts = 5, set()
    for seed in range(16):
        system = random_ilp(n, 3, arity, seed=seed)
        cnt = WorkCounters()
        witness = brute_ilp(system, counters=cnt)
        first = next(((k, values) for k, values in enumerate(
            itertools.product(range(arity), repeat=n))
            if verify(system, Assignment(values, arity))), None)
        verdicts.add(first is None)
        if first is None:
            assert witness is None and cnt.assignments == arity ** n
        else:
            assert witness.values == first[1]
            assert cnt.assignments == first[0] + 1
    assert verdicts == {True, False}
    # the first feasible assignment lies in a later block of rows
    system = IneqSystem(9, (Row(((0, 1),), Rel.GE, arity - 1),), arity)
    cnt = WorkCounters()
    assert brute_ilp(system, counters=cnt).values == (arity - 1,) + (0,) * 8
    assert cnt.assignments == (arity - 1) * arity ** 8 + 1


def test_brute_domination_first_pair():
    a, b = random_domination(20, 20, 3, seed=8)
    pair = brute_domination(a, b)
    if pair is not None:
        i, j = pair
        assert dominates(a[i], b[j])
        assert not any(dominates(a[k], b[m]) for k in range(i)
                       for m in range(len(b)))
        assert not any(dominates(a[i], b[m]) for m in range(j))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_generators_are_seed_deterministic(seed):
    a = random_mixed_circuit(10, 25, seed=seed)
    b = random_mixed_circuit(10, 25, seed=seed)
    assert a == b
    sa = random_symmetric_circuit(9, 12, seed=seed, weight_bound=3)
    sb = random_symmetric_circuit(9, 12, seed=seed, weight_bound=3)
    assert sa == sb


def test_wire_budgets_are_exact():
    assert random_mixed_circuit(10, 23, seed=1).wires == 23
    assert random_fixed_fanin_circuit(12, 24, 3, seed=1).wires == 24
    assert random_symmetric_circuit(9, 17, seed=1).wires == 17


def test_fixed_fanin_plan():
    circuit = random_fixed_fanin_circuit(12, 25, 4, seed=2)
    fanins = sorted(g.fan_in for g in circuit.bottom)
    assert fanins == [1, 4, 4, 4, 4, 4, 4]


def test_power_circuit_structure():
    circuit = random_power_circuit(16, 3, seed=3)
    by_fanin = {}
    for g in circuit.bottom:
        by_fanin[g.fan_in] = by_fanin.get(g.fan_in, 0) + 1
    assert by_fanin == {2: 8, 4: 4, 8: 2}
    with pytest.raises(InputError):
        random_power_circuit(12, 3, seed=0)


def test_generate_threshold_kinds():
    fixed = generate(GenSpec(kind="threshold_circuit", n=12, c=2, seed=1,
                             distribution="fixed_fanin", fan_in=3))
    assert isinstance(fixed, SymmetricCircuit)
    assert {g.pred.kind for g in fixed.bottom} == {fixed.top_pred.kind} \
        == {PredKind.GE}
    assert fixed.wires == 24
    assert sorted(g.fan_in for g in fixed.bottom) == [3] * 8

    adv = generate(GenSpec(kind="threshold_circuit", n=16, c=3, seed=1,
                           distribution="adversarial_pow2"))
    by_fanin = {}
    for g in adv.bottom:
        by_fanin[g.fan_in] = by_fanin.get(g.fan_in, 0) + 1
    assert by_fanin == {2: 8, 4: 4, 8: 2}
    assert all(abs(w) == 1 for g in adv.bottom for _, w in g.inputs)


def test_generate_symmetric_adversarial_weighted_density():
    circuit = generate(GenSpec(kind="symmetric_circuit", n=16, c=3, seed=4,
                               distribution="adversarial_pow2"))
    assert isinstance(circuit, SymmetricCircuit)
    mass = {}
    for g in circuit.bottom:
        f = g.weighted_fan_in
        mass[f] = mass.get(f, 0) + f
    # One density unit (16 wires) at every power-of-two weighted fan-in.
    assert mass == {2: 16, 4: 16, 8: 16}


def test_generate_same_spec_same_instance():
    spec = GenSpec(kind="ilp", n=8, rows=5, arity=3, seed=9)
    assert generate(spec) == generate(spec)


def test_genspec_validation():
    with pytest.raises(InputError):
        GenSpec(kind="nonsense", n=4)
    with pytest.raises(InputError):
        GenSpec(kind="ilp", n=4, distribution="bespoke")
    with pytest.raises(InputError):
        GenSpec(kind="threshold_circuit", n=4, distribution="fixed_fanin")
    with pytest.raises(InputError):
        generate(GenSpec(kind="threshold_circuit", n=4))
    with pytest.raises(InputError):
        generate(GenSpec(kind="ilp", n=4))
    for kind in ("threshold_circuit", "symmetric_circuit", "ilp"):
        for bound in (0, -1):
            with pytest.raises(InputError):
                GenSpec(kind=kind, n=4, c=1, rows=2, weight_bound=bound)



def test_genspec_size_bounds():
    """n up to MAX_VARS, ilp rows up to MAX_GEN_ROWS and circuit wires c * n
    up to MAX_GEN_WIRES are accepted, one past each bound and an ilp arity
    below 2 are refused.  The specs are built, not generated."""
    circuits = ("threshold_circuit", "symmetric_circuit")
    for kind in circuits:
        GenSpec(kind=kind, n=MAX_VARS, c=MAX_GEN_WIRES // MAX_VARS)
        GenSpec(kind=kind, n=1, c=MAX_GEN_WIRES)
    GenSpec(kind="ilp", n=MAX_VARS, rows=MAX_GEN_ROWS, arity=2)
    refused = [dict(kind=kind, n=MAX_VARS + 1, c=1, rows=1)
               for kind in (*circuits, "ilp")]
    for kind in circuits:
        refused += [dict(kind=kind, n=MAX_VARS, c=MAX_GEN_WIRES // MAX_VARS + 1),
                    dict(kind=kind, n=1, c=MAX_GEN_WIRES + 1)]
    refused += [dict(kind="ilp", n=4, rows=MAX_GEN_ROWS + 1),
                dict(kind="ilp", n=4, rows=2, arity=1),
                dict(kind="ilp", n=4, rows=2, arity=-3)]
    for kwargs in refused:
        with pytest.raises(InputError):
            GenSpec(**kwargs)


def test_generate_output_is_pinned():
    """The emitted text of a fixed grid of GenSpecs, every kind by every
    distribution, with the InputError message where a spec is refused,
    hashes to the digest the generators gave when this test was written.
    So a generator that draws its random numbers in another order, or
    builds another instance from the same spec, fails here."""
    emit = {"threshold_circuit": emit_circuit,
            "symmetric_circuit": emit_symmetric, "ilp": emit_ilp}
    digest = hashlib.sha256()
    for kind, distribution, n, c, fan_in, bound, seed in itertools.product(
            emit, ("uniform_fanin", "fixed_fanin", "adversarial_pow2"),
            (4, 8, 16), (1, 3), (None, 1, 5), (1, 8), (0, 1)):
        try:
            spec = GenSpec(kind=kind, n=n, seed=seed, c=c, rows=c,
                           weight_bound=bound, arity=2 + seed,
                           distribution=distribution, fan_in=fan_in)
            text = emit[kind](generate(spec))
        except InputError as exc:
            text = f"InputError: {exc}"
        digest.update(text.encode("utf-8") + b"\0")
    assert digest.hexdigest() == (
        "697dc6a9f85e810600a4be89aea9ad3e07a01c71551e25f72ed1a619e480c984")
