"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

On small generated inputs, every check passes on the program's real
results and fires on a corrupted copy, one corruption per condition.  It
then confirms that ``run.py --corrupt`` exits nonzero with ``correct``
false, and that BENCHMARK.json lists exactly the per-layer metrics run.py
reports.  Exits nonzero on the first check that does not behave.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hierwave import cli  # noqa: E402

# small sizes, so the self-test takes seconds
gen.SIM_STEPS = 200
gen.SERIES_GAUSS_N = 3000
gen.SERIES_UNIFORM_N = 2000
gen.CHAIN_DEPTH = 30
gen.WIDE_SHAPE = (3, 12)
gen.DEEP_SHAPE = (2, 3, 6)
gen.CG_SUM = 12
gen.CG_SPREAD = 4
gen.DECOMPOSE_LISTS = ((10, 6, 4),)
gen.CLI_SPINS = (4, 3, 2)
gen.ORGANISMS = 2

FAILURES: list[str] = []


def expect(label: str, fails: list[str], fragment: str | None) -> None:
    """fragment None: the check must pass; else a failure must mention it."""
    if fragment is None:
        ok = not fails
    else:
        ok = any(fragment in f for f in fails)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {fails[:1] if fails else 'passes'}")
    if not ok:
        FAILURES.append(label)


def facts_for(workload: str, workdir: str) -> tuple[dict, list[dict]]:
    inputs = gen.generate(workload, 7, workdir)
    inputs = json.loads(json.dumps(inputs))  # as the worker reads it
    prep = workloads.PREPARE[workload](inputs, workdir)
    ops = workloads.RUN[workload](prep, spans.NullTracer())
    return inputs, workloads.FACTS[workload](prep, ops)


def corrupted(fact: dict, mutate) -> dict:
    f = copy.deepcopy(fact)
    mutate(f)
    return f


def _set(key, value):
    def mutate(f):
        f[key] = value
    return mutate


def _sample(index: int, col: int, delta: float):
    def mutate(f):
        row = list(f["samples"][index])
        row[col] += delta
        f["samples"][index] = tuple(row)
    return mutate


def _classify(key, fn):
    def mutate(f):
        f["classify"][key] = fn(f["classify"][key])
    return mutate


def test_simulate(workdir: str) -> None:
    _, facts = facts_for("simulate", workdir)
    check = checks.check_simulate
    for f in facts:
        expect(f"simulate {f['op']} real result", check(f), None)
    harmonic = facts[0]
    cases = [
        ("raised", _set("error", "RuntimeError: boom"), "raised"),
        ("trajectory error", _set("traj_error", "NonpositiveMassError: m"), "trajectory error"),
        ("sample count", lambda f: f["samples"].pop(), "samples for"),
        ("CSV read back", _sample(3, 1, 1e-6), "CSV row"),
        ("energy drift", _sample(5, 7, 1e-6), "energy drift"),
        ("momentum round trip", lambda f: f["round_trip"].__setitem__(0, (1.0, 1.0 + 1e-9)),
         "round trip"),
        ("classified series", lambda f: f["classify_values"].__setitem__(0, 9.0), "x1 - x2"),
        ("compressed bits", _classify("compressed_bits", lambda v: v + 1), "compressed_bits"),
        ("raw bits", _classify("raw_bits", lambda v: v + 1), "raw_bits"),
        ("ratio", _classify("ratio", lambda v: v * (1 + 1e-9)), "ratio"),
        ("verdict", _classify("verdict", lambda v: "SeriesLike" if v == "RuleLike" else "RuleLike"),
         "verdict"),
    ]
    for label, mutate, fragment in cases:
        expect(f"simulate {label}", check(corrupted(harmonic, mutate)), fragment)
    expect("simulate CORRUPT", check(corrupted(harmonic, checks.CORRUPT["simulate"])), "CSV row")


def test_series(workdir: str) -> None:
    _, facts = facts_for("series", workdir)
    check = checks.check_series
    for f in facts:
        expect(f"series {f['op']} real result", check(f), None)
    first = facts[0]

    def bump_symbol(f):
        f["symbols"] = list(f["symbols"])
        f["symbols"][0] += 1

    cases = [
        ("raised", _set("error", "ValueError: boom"), "raised"),
        ("symbolize", bump_symbol, "symbolize"),
        ("description_length", lambda f: f.update(bits=f["bits"] + 1), "description_length"),
        ("compressed bits", _classify("compressed_bits", lambda v: v - 1), "compressed_bits"),
        ("raw bits", _classify("raw_bits", lambda v: v * 2), "raw_bits"),
        ("expected verdict", lambda f: f["expect"].update(verdict="RuleLike"), "expected"),
    ]
    for label, mutate, fragment in cases:
        expect(f"series {label}", check(corrupted(first, mutate)), fragment)
    expect("series CORRUPT", check(corrupted(first, checks.CORRUPT["series"])), "compressed_bits")


def _amplitude(key: str, index: int, value: complex):
    def mutate(f):
        node = list(f[key][index])
        node[4] = (value,) + tuple(node[4][1:])
        f[key][index] = tuple(node)
    return mutate


def test_trees(workdir: str) -> None:
    _, facts = facts_for("trees", workdir)
    check = checks.check_trees
    for f in facts:
        expect(f"trees {f['op']} real result", check(f), None)
    wide = next(f for f in facts if f["op"] == "wide")
    cases = [
        ("raised", _set("error", "RecursionError: deep"), "raised"),
        ("load(save(psi))", _amplitude("loaded", 4, 0.123), "load(save"),
        ("sum is zero", _amplitude("zero", 2, 1e-6), "nonzero amplitude"),
        ("congruent", _set("congruent", False), "congruent"),
        ("iter_nodes", lambda f: f["iter_paths"].pop(), "iter_nodes"),
        ("validate_tree", lambda f: f.update(unnormalized=f["unnormalized"][1:]), "validate_tree"),
        ("check_node reports", lambda f: f.update(reports=f["reports"] - 1), "reports for"),
        ("check_node unphysical", checks.CORRUPT["trees"], "check_node unphysical"),
        ("pauli scope 1", lambda f: f.update(pauli_scope1=f["pauli_scope1"][1:]), "pauli_scope1"),
        ("pauli scope 2", lambda f: f.update(pauli_scope2=f["pauli_scope2"] + [["root", "a", "b"]]),
         "pauli_scope2"),
        ("small decompose", lambda f: f["small"].__setitem__(0, (f["small"][0][0], 0)),
         "decompose_product of"),
    ]
    for label, mutate, fragment in cases:
        expect(f"trees {label}", check(corrupted(wide, mutate)), fragment)


def test_coupling(workdir: str) -> None:
    _, facts = facts_for("coupling", workdir)
    check = checks.check_coupling
    for f in facts:
        expect(f"coupling {f['op']} real result", check(f), None)
    cg = next(f for f in facts if f["kind"] == "cg")
    product = next(f for f in facts if f["kind"] == "product")
    organism = next(f for f in facts if f["kind"] == "organism")

    def scale_both(f):
        f["cold"][0] *= 1.001
        f["warm"][0] *= 1.001

    def bump_content(f):
        key = next(iter(f["content"]))
        f["content"][key] += 1

    cases = [
        (cg, "raised", _set("error", "InvalidQueryError: q"), "raised"),
        (cg, "warm equals cold", lambda f: f["warm"].__setitem__(0, f["warm"][0] + 1e-12), "warm"),
        (cg, "orthonormality", scale_both, "orthonormality"),
        (cg, "CORRUPT", checks.CORRUPT["coupling"], "warm"),
        (product, "multiplicities", bump_content, "multiplicities"),
        (product, "dimension", lambda f: f.update(total_dim=f["total_dim"] + 1), "total dimension"),
        (organism, "validate", _set("problems", ["x"]), "invalid"),
        (organism, "remainder", lambda f: f.update(remainder_complete=not f["remainder_complete"]),
         "remainder complete"),
        (organism, "witness", lambda f: f.update(feasible=not f["feasible"]), "witness contains"),
        (organism, "levels", lambda f: f.update(levels=f["max_depth"] + 1), "levels descended"),
    ]
    for fact, label, mutate, fragment in cases:
        expect(f"coupling {label}", check(corrupted(fact, mutate)), fragment)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_cli(workdir: str) -> None:
    corruptions = {
        "simulate": ("wrote 201 samples", "wrote 200 samples"),
        "classify": ('"verdict": "SeriesLike"', '"verdict": "RuleLike"'),
        "validate": (": PHYSICAL\n", ": UNPHYSICAL (WeightMismatch)\n"),
        "pauli": (" share state ", " shares state "),
        "info": ("nodes: ", "nodes: 1"),
        "decompose": (" x1\n", " x2\n"),
        "repair": ('"cost": ', '"cost": 1'),
    }
    for workload in gen.WORKLOADS:
        inputs, facts = facts_for(workload, workdir)
        cli_facts = None
        if workload == "coupling":
            org0 = next(f for f in facts if f["op"] == "organism0")
            cli_facts = {k: org0[k] for k in ("feasible", "levels", "cost")}
        for leg in inputs["cli"]:
            name = leg["name"]
            code, out = _run_cli(leg["argv"])
            expect(f"cli {name} real output", checks.check_cli(name, code, out, leg["expect"], cli_facts),
                   None)
            expect(f"cli {name} exit code",
                   checks.check_cli(name, code + 1, out, leg["expect"], cli_facts), "exit code")
            old, new = corruptions[name]
            if old not in out:
                FAILURES.append(f"cli {name}: corruption target {old!r} not in output")
                continue
            bad = out.replace(old, new, 1)
            expect(f"cli {name} corrupted output",
                   checks.check_cli(name, code, bad, leg["expect"], cli_facts), "")


def test_run_corrupt() -> None:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "series",
                           "--seed", "1", "--seconds", "1", "--trace", "0", "--corrupt"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = proc.returncode != 0 and doc["correct"] is False and doc["failed"] >= 1
    print(f"{'ok  ' if ok else 'FAIL'} run.py --corrupt: exit {proc.returncode}, "
          f"correct {doc['correct']}, failed {doc['failed']} of {doc['attempted']}")
    if not ok:
        FAILURES.append("run.py --corrupt")


def test_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    listed = {m["name"]: m["unit"] for m in doc["per_layer"]}
    ok = listed == run.per_layer_units()
    ok = ok and [m["name"] for m in doc["end_to_end"]] == [n for n, _ in run.END_TO_END]
    ok = ok and [w["name"] for w in doc["workloads"]] == list(gen.WORKLOADS)
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json matches the metrics run.py reports")
    if not ok:
        FAILURES.append("BENCHMARK.json")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as workdir:
        test_simulate(workdir)
        test_series(workdir)
        test_trees(workdir)
        test_coupling(workdir)
        test_cli(workdir)
    test_benchmark_json()
    test_run_corrupt()
    print(f"{len(FAILURES)} self-test failures" + (f": {FAILURES}" if FAILURES else ""))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
