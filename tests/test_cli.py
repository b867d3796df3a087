"""End-to-end tests of the command-line interface via subprocess, and of
the package's public names."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

CORPUS = [
    ("circuit", DATA / "tc_or.tc2"),
    ("circuit", DATA / "tc_unsat.tc2"),
    ("symmetric", DATA / "sc_mixed.sc2"),
    ("ilp", DATA / "sys_feasible.ilp"),
    ("ilp", DATA / "sys_infeasible.ilp"),
]


def run_cli(*args, timeout=300, **kwargs):
    # the checkout's sources come first, as they do for the in-process tests
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "thrsat", *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=path), **kwargs)


def test_solve_sat_exit_code_and_witness():
    res = run_cli("solve", "circuit", str(DATA / "tc_or.tc2"))
    assert res.returncode == 10
    assert res.stdout.startswith("SAT ")
    bits = res.stdout.split()[1]
    assert len(bits) == 2 and set(bits) <= {"0", "1"}
    assert "counters:" in res.stderr


def test_solve_unsat_exit_code():
    res = run_cli("solve", "circuit", str(DATA / "tc_unsat.tc2"))
    assert res.returncode == 20
    assert res.stdout.strip() == "UNSAT"
    # both variables are eliminated: one row examined
    assert "assignments=1 " in res.stderr
    assert res.stderr.split()[-1] == "eliminated=2"


def test_counter_line_keys_and_order():
    """The stderr counter line keeps its keys in this order for every
    instance kind and both verbs, the pair-search counts included where
    they read 0."""
    keys = ["assignments", "vectors", "comparisons", "recursion_nodes",
            "median_selections", "total", "eliminated"]
    for kind, path in CORPUS:
        for verb in ("solve", "oracle"):
            line = run_cli(verb, kind, str(path)).stderr.strip().splitlines()[-1]
            head, *fields = line.split()
            assert head == "counters:", line
            assert [f.split("=")[0] for f in fields] == keys, line
            assert all(f.split("=")[1].isdigit() for f in fields), line


def test_public_names_resolve():
    import thrsat

    missing = [name for name in thrsat.__all__ if not hasattr(thrsat, name)]
    assert not missing
    assert len(set(thrsat.__all__)) == len(thrsat.__all__)


def test_solve_and_oracle_agree_on_corpus():
    for kind, path in CORPUS:
        solved = run_cli("solve", kind, str(path))
        brute = run_cli("oracle", kind, str(path))
        assert solved.returncode in (10, 20), solved.stderr
        assert brute.returncode == solved.returncode, (kind, path.name)
        assert solved.stdout.split()[0] == brute.stdout.split()[0]


def test_solver_flags_accepted():
    res = run_cli("solve", "circuit", str(DATA / "tc_or.tc2"),
                  "--seed", "7", "--force-restriction",
                  "--max-assigned", "20")
    assert res.returncode == 10


def test_ilp_witness_is_digit_string():
    res = run_cli("solve", "ilp", str(DATA / "sys_feasible.ilp"))
    assert res.returncode == 10
    bits = res.stdout.split()[1]
    assert len(bits) == 3


def test_symmetric_solve():
    res = run_cli("solve", "symmetric", str(DATA / "sc_mixed.sc2"))
    assert res.returncode == 10
    last = res.stderr.split()[-1]
    assert last.startswith("eliminated=") and int(last.split("=")[1]) >= 1


def test_gen_emits_parseable_instances(tmp_path):
    for kind, flags in (("circuit", ["--n", "10", "--c", "2"]),
                        ("symmetric", ["--n", "8", "--c", "1"]),
                        ("ilp", ["--n", "6", "--rows", "3", "--arity", "3"])):
        res = run_cli("gen", kind, "--seed", "3", *flags)
        assert res.returncode == 0, res.stderr
        path = tmp_path / f"gen.{kind}"
        path.write_text(res.stdout)
        solved = run_cli("solve", kind, str(path))
        assert solved.returncode in (10, 20), solved.stderr


def test_gen_is_deterministic():
    a = run_cli("gen", "circuit", "--n", "12", "--c", "1",
                "--seed", "5", "--distribution", "fixed_fanin",
                "--fan-in", "3")
    b = run_cli("gen", "circuit", "--n", "12", "--c", "1",
                "--seed", "5", "--distribution", "fixed_fanin",
                "--fan-in", "3")
    assert a.stdout == b.stdout and a.returncode == 0


def test_bench_table_shape():
    res = run_cli("bench", "--suite", "ilp", "--count", "4", "--n", "8",
                  "--rows", "4")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 5
    columns = lines[0].split(",")
    assert len(columns) == 12
    for line in lines[1:]:
        assert len(line.split(",")) == len(columns)


def test_bench_speedup_suite_runs():
    res = run_cli("bench", "--suite", "speedup", "--count", "1")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 2
    exponent = float(lines[1].split(",")[-1])
    assert 0.0 <= exponent < 1.0


def test_bench_speedup_suite_forwards_shape():
    res = run_cli("bench", "--n", "20", "--fan-in", "4", "--count", "1")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("tc-20-1-0,20,1,")


def test_bench_columns_follow_work_counters(monkeypatch):
    # a new WorkCounters field is a new bench column, with no edit to bench
    from dataclasses import astuple, dataclass, fields

    from thrsat import bench
    from thrsat.counters import WorkCounters

    @dataclass
    class Wider(WorkCounters):
        table_entries: int = 0

    monkeypatch.setattr(bench, "WorkCounters", Wider)
    records = bench.bench_suite("speedup", 1)
    header, *rows = bench.format_table(records).splitlines()
    assert header.endswith(
        "median_selections,table_entries,empirical_exponent")
    width = len(fields(Wider))
    for record, row in zip(records, rows, strict=True):
        cells = row.split(",")[6:6 + width]
        assert cells == [str(v) for v in astuple(record.counters)]
        assert isinstance(record.counters, Wider)


def test_malformed_file_exits_one(tmp_path):
    bad = tmp_path / "bad.tc2"
    bad.write_text("tc2 1 1\ngate oops\ntop 1\n")
    res = run_cli("solve", "circuit", str(bad))
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert "line 2" in res.stderr


def test_ilp_half_guard_exits_one(tmp_path):
    # 1000^10 half assignments: refused before any list is built
    big = tmp_path / "wide.ilp"
    big.write_text("ilp 20 0 1000\n")
    res = run_cli("solve", "ilp", str(big))
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_table_guard_exits_one(tmp_path):
    # 2^28 half assignments pass the bit guard, but their table of 2^28
    # int64 entries would need about 6 GB
    big = tmp_path / "long.ilp"
    big.write_text("ilp 56 0 2\n")
    res = run_cli("solve", "ilp", str(big))
    assert res.returncode == 1
    assert "error:" in res.stderr and "guard" in res.stderr


def test_ilp_arity_errors_exit_one(tmp_path):
    """A SAT witness of arity above 10 has no digit string, and an arity
    below 2 is refused on the header's line: exit 1 with an error line, no
    traceback.  An UNSAT system of arity 11 still prints UNSAT."""
    wide = tmp_path / "wide.ilp"
    wide.write_text("ilp 1 1 11\nrow ge 10 0:1\n")
    unary = tmp_path / "unary.ilp"
    unary.write_text("ilp 1 1 1\nrow ge 0 0:1\n")
    unsat = tmp_path / "unsat.ilp"
    unsat.write_text("ilp 1 1 11\nrow ge 11 0:1\n")
    for verb in ("solve", "oracle"):
        for path, message in ((wide, "arity 11"), (unary, "line 1:")):
            res = run_cli(verb, "ilp", str(path))
            assert res.returncode == 1, (verb, path.name)
            assert "error:" in res.stderr and message in res.stderr, res.stderr
            assert "Traceback" not in res.stderr
        res = run_cli(verb, "ilp", str(unsat))
        assert res.returncode == 20 and res.stdout.strip() == "UNSAT"


def test_gen_refuses_weight_bound_below_one():
    for args in (["circuit", "--n", "4", "--c", "1", "--weight-bound", "0"],
                 ["ilp", "--n", "4", "--rows", "2", "--weight-bound", "-1"]):
        res = run_cli("gen", *args)
        assert res.returncode == 1, args
        assert "error:" in res.stderr and "Traceback" not in res.stderr


def _limit_address_space():
    # a 1.5 GB address-space cap: a request below that were built anyway
    # would end in a MemoryError, not take the machine's memory
    limit = 1_500_000 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("args", [
    "gen ilp --n 3 --rows 2 --arity 0",
    "gen ilp --n 3 --rows 2 --arity -3",
    "bench --suite ilp --n 4 --arity 0 --count 1",
    "gen circuit --n 10 --c 1000000000",
    "gen ilp --n 10 --rows 2000000000",
    "bench --suite circuit --n 10 --c 1000000000 --count 1",
    "gen circuit --n 200000000 --c 1"])
def test_out_of_range_generation_exits_one(args):
    """An ilp arity below 2 and sizes past the generation bounds are refused
    with one error line, before any instance is built."""
    res = run_cli(*args.split(), timeout=20, preexec_fn=_limit_address_space)
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr


def test_solve_and_oracle_agree_with_no_variables(tmp_path):
    # the cube of no variables is one empty row: SAT with the empty witness
    # when the top accepts the sum 0, UNSAT otherwise
    for threshold, code in ((0, 10), (1, 20)):
        path = tmp_path / f"empty{threshold}.tc2"
        path.write_text(f"tc2 0 0\ntop {threshold}\n")
        solved = run_cli("solve", "circuit", str(path))
        brute = run_cli("oracle", "circuit", str(path))
        assert solved.returncode == brute.returncode == code, solved.stderr
        assert solved.stdout == brute.stdout


def test_variable_guard_exits_one(tmp_path):
    # 23 bytes declaring 2^31 - 1 variables: refused before any per-variable
    # loop
    big = tmp_path / "wide.tc2"
    big.write_text(f"tc2 {(1 << 31) - 1} 0\ntop 1\n")
    res = run_cli("solve", "circuit", str(big))
    assert res.returncode == 1
    assert "error:" in res.stderr and "guard" in res.stderr


def test_oracle_ilp_guard_exits_one(tmp_path):
    # 2^20000 assignments: refused on the variable count, with no traceback
    big = tmp_path / "many.ilp"
    big.write_text("ilp 20000 0 2\n")
    res = run_cli("oracle", "ilp", str(big))
    assert res.returncode == 1
    assert "error:" in res.stderr and "guard" in res.stderr
    assert "Traceback" not in res.stderr


def test_wide_gate_exits_one(tmp_path):
    # one gate over 2,000 variables leaves at least 2^1999 rows to enumerate
    # whatever set is eliminated: refused before the greedy set is built
    wide = tmp_path / "wide.tc2"
    terms = " ".join(f"{i}:1" for i in range(2000))
    wide.write_text(f"tc2 2000 1\ngate 1 {terms}\ntop 1 g0:1\n")
    res = run_cli("solve", "circuit", str(wide))
    assert res.returncode == 1
    assert "error:" in res.stderr and "guard" in res.stderr
    assert "Traceback" not in res.stderr


def test_missing_file_exits_one():
    res = run_cli("solve", "circuit", "/nonexistent/file.tc2")
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_witness_checks_survive_python_O():
    """The solvers verify every witness with an explicit raise, not an
    `assert`, so the check holds under `python -O` too: with `eliminate`
    patched to return a point that fails the circuit, the solve ends in
    an error, not a SAT verdict."""
    script = "\n".join([
        "import sys",
        "from thrsat import cli, sparse_sat",
        "print('optimize', sys.flags.optimize, file=sys.stderr)",
        "sparse_sat.eliminate = lambda circuit, chosen, cnt: "
        "(0,) * circuit.n_vars",
        "sys.exit(cli.main(sys.argv[1:]))"])
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    for kind, name in (("circuit", "tc_or.tc2"), ("symmetric", "sc_mixed.sc2")):
        res = subprocess.run([sys.executable, "-O", "-c", script, "solve", kind,
                              str(DATA / name)],
                             capture_output=True, text=True, timeout=300,
                             env=dict(os.environ, PYTHONPATH=path))
        assert "optimize 1" in res.stderr
        assert res.returncode not in (10, 20), res.stdout
        assert "AssertionError: solver produced a bad witness" in res.stderr
