"""One repetition of a workload in a fresh interpreter.

Usage: worker.py WORKLOAD INPUTS_JSON WORKDIR TRACE(0|1) PROBE(0|1) CORRUPT(0|1)

Times ``import hierwave`` first, then the reference loop, the workload's
library phase and the reference loop again; then checks every operation
and prints one JSON line: setup, wall and reference seconds, peak
resident memory, the check results, per-layer counts and, when traced,
the span summary.  Run by run.py with ``PYTHONPATH`` set to the
checkout's ``src``.
"""

import sys
import time

_t0 = time.perf_counter()
import hierwave  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from reference import reference_s  # noqa: E402


def counts(workload: str, facts: list[dict]) -> dict[str, float]:
    """Per-layer work counts of one repetition, from the operations' facts."""
    ok = [f for f in facts if not f["error"]]
    out: dict[str, float] = {}
    if workload == "simulate":
        out["dynamics.steps"] = sum(f["steps"] for f in ok)
        out["dynamics.csv_mb"] = sum(os.path.getsize(f["csv"]) for f in ok) / 1e6
        out["complexity.symbols"] = sum(len(f["classify_values"]) for f in ok)
        out["complexity.alphabet"] = max((len({math.floor(v / f["quantization"]) for v in f["classify_values"]})
                                          for f in ok), default=0)
        out["complexity.compressed_bits"] = sum(f["classify"]["compressed_bits"] for f in ok)
        out["complexity.description_length.symbols"] = 0
    elif workload == "series":
        out["complexity.symbols"] = sum(f["expect"]["symbols"] for f in ok)
        out["complexity.alphabet"] = max((f["expect"]["alphabet"] for f in ok), default=0)
        out["complexity.compressed_bits"] = sum(f["classify"]["compressed_bits"] for f in ok)
        out["complexity.description_length.symbols"] = sum(len(f["symbols"]) for f in ok if "symbols" in f)
    elif workload == "trees":
        out["state_tree.json_mb"] = sum(f["json_bytes"] for f in ok) / 1e6
        out["state_tree.nodes"] = sum(len(f["original"]) for f in ok)
        out["state_tree.max_depth"] = max((f["expect"]["max_depth"] for f in ok), default=0)
        out["physicality.violations"] = sum(len(f["pauli_scope1"]) + len(f["pauli_scope2"])
                                            + len(f["unphysical"]) for f in ok)
    elif workload == "coupling":
        out["rep_theory.clebsch_gordan.evals"] = sum(len(f["cold"]) for f in ok if f["kind"] == "cg")
        out["repair_cascade.levels"] = sum(f["levels"] for f in ok if f["kind"] == "organism")
        out["repair_cascade.cost"] = sum(f["cost"] for f in ok if f["kind"] == "organism")
    return out


def main(argv: list[str]) -> int:
    workload, inputs_path, workdir, traced, probe, corrupt = argv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.abspath(hierwave.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"worker: imported hierwave from {hierwave.__file__}, not from {root}/src",
              file=sys.stderr)
        return 2
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    prep = workloads.PREPARE[workload](inputs, workdir)
    tracer = spans.Tracer() if traced == "1" else spans.NullTracer()

    ref_before = reference_s()
    start = time.perf_counter()
    with tracer.span(f"bench.{workload}"):
        ops = workloads.RUN[workload](prep, tracer)
    wall_s = time.perf_counter() - start
    ref_after = reference_s()

    facts = workloads.FACTS[workload](prep, ops)
    if corrupt == "1":
        checks.CORRUPT[workload](facts[0])
    results = []
    for f in facts:
        try:
            fails = checks.CHECKS[workload](f)
        except Exception as exc:  # a malformed result must count as a failure
            fails = [f"check raised {type(exc).__name__}: {exc}"]
        results.append({"op": f["op"], "fails": fails})
    cli_facts = {}
    if workload == "coupling":
        org0 = next(f for f in facts if f["op"] == "organism0")
        if not org0["error"]:
            cli_facts = {k: org0[k] for k in ("feasible", "levels", "cost")}
    layer_counts = counts(workload, facts)
    if probe == "1":
        layer_counts["state_tree.max_ok_depth"] = workloads.depth_probe()

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "ref_s": [ref_before, ref_after],
        "peak_rss_mb": peak_kib / 1024.0,
        "results": results,
        "counts": layer_counts,
        "spans": tracer.summary(),
        "cli_facts": cli_facts,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
