"""One measured round, in a fresh interpreter.

    python3 perfbench/worker.py <round.json> <result.json>

The round file names the repository root, the instance files with their
solver arguments, and whether to trace.  The worker imports `thrsat` from
`<root>/src`, parses every instance (the set-up time), solves them through
the library entry points one at a time, then solves the CLI instances
through fresh `thrsat solve` processes, one at a time.  It writes verdicts,
witnesses and times; checking them is the caller's job.
"""
import json
import os
import subprocess
import sys
import time
from fractions import Fraction


def peak_rss_mb() -> float:
    """This process's peak resident set.  VmHWM belongs to the address space
    made at exec, whereas ru_maxrss also keeps the parent's resident set
    from before the exec.  Without /proc the run fails."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _count_layers(layers: dict, absent: set, kind: str, outcome, counters) -> None:
    """Add what a solve's returned objects say about the path it took.  A
    field a later version no longer returns is left uncounted and named in
    `absent`, like a wrapped function that no longer exists."""
    try:
        if kind == "circuit" and outcome.restriction is not None \
                and outcome.restriction.free:
            layers["free_vars"] += len(outcome.restriction.free)
            layers["branches"] += outcome.branches
            layers["fallback_branches"] += outcome.fallback_branches
        if kind == "symmetric":
            layers["sym_fallback_branches"] += outcome.fallback_branches
            layers["value_guesses"] += counters.guesses
    except AttributeError as exc:
        absent.add(f"{type(exc.obj).__name__}.{exc.name}")


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)  # this directory stays on the path after it
    start_setup = time.perf_counter()
    import thrsat
    from thrsat import formats, oracle
    import_s = time.perf_counter() - start_setup

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    parse = {"circuit": "parse_circuit", "symmetric": "parse_symmetric",
             "ilp": "parse_ilp"}
    parsed = []
    for inst in spec["instances"]:
        with open(inst["path"], encoding="utf-8") as fh:
            parsed.append(getattr(formats, parse[inst["kind"]])(fh.read()))
    setup_s = time.perf_counter() - start_setup
    # imported only now: check.py imports numpy, which belongs to the set-up
    from check import reference_seconds

    ops = []
    ref_s = []
    layers = {"free_vars": 0, "branches": 0, "fallback_branches": 0,
              "sym_fallback_branches": 0, "value_guesses": 0}
    absent_fields: set = set()
    for inst, obj in zip(spec["instances"], parsed):
        kwargs = dict(inst["args"])
        if "p" in kwargs:
            kwargs["p"] = Fraction(kwargs["p"])
        counters = thrsat.WorkCounters()
        ref_s.append(reference_seconds())
        start = time.perf_counter()
        try:
            if inst["kind"] == "ilp":
                outcome = None
                witness, _ = thrsat.solve_ilp(obj, counters=counters)
            elif inst["kind"] == "circuit":
                outcome = thrsat.solve(obj, counters=counters, **kwargs)
                witness = outcome.witness
            else:
                outcome = thrsat.solve_symmetric(obj, counters=counters, **kwargs)
                witness = outcome.witness
        except Exception as exc:  # reported as a failed operation
            ops.append({"name": inst["name"], "via": "lib", "role": inst["role"],
                        "s": time.perf_counter() - start, "sat": False,
                        "witness": None, "error": f"{type(exc).__name__}: {exc}"})
            continue
        elapsed = time.perf_counter() - start
        if tracer is not None:
            _count_layers(layers, absent_fields, inst["kind"], outcome, counters)
        ops.append({"name": inst["name"], "via": "lib", "role": inst["role"],
                    "s": elapsed, "sat": witness is not None,
                    "witness": "".join(map(str, witness)) if witness else None,
                    "counters_total": counters.total()})
    rss_mb = peak_rss_mb()

    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.report()
        trace["layers"] = layers
        trace["absent"] += sorted(absent_fields)
        ref = []
        for inst, obj in zip(spec["instances"], parsed):
            if inst["restricted"]:
                start = time.perf_counter()
                oracle.brute_circuit_sat(obj)
                ref.append({"name": inst["name"], "s": time.perf_counter() - start})
        trace["ref_cube_scan"] = ref

    env = dict(os.environ, PYTHONPATH=src)
    for inst in spec["instances"]:
        if not inst["cli"]:
            continue
        cmd = [sys.executable, "-m", "thrsat", "solve", inst["kind"], inst["path"]]
        if "seed" in inst["args"]:
            cmd += ["--seed", str(inst["args"]["seed"])]
        ref_s.append(reference_seconds())
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=150)
        elapsed = time.perf_counter() - start
        out = proc.stdout.split()
        sat = proc.returncode == 10 and len(out) == 2 and out[0] == "SAT"
        valid = sat or (proc.returncode == 20 and out == ["UNSAT"])
        ops.append({"name": inst["name"], "via": "cli", "role": "cli", "s": elapsed,
                    "sat": sat, "witness": out[1] if sat else None,
                    "error": None if valid else
                    f"exit {proc.returncode}: {proc.stdout.strip()} {proc.stderr.strip()}"})
    ref_s.append(reference_seconds())

    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "setup_s": setup_s, "rss_mb": rss_mb,
                   "ref_s": ref_s, "ops": ops, "trace": trace}, fh)


if __name__ == "__main__":
    main()
