"""hierwave benchmark.

    python3 perfbench/run.py --workload {simulate,series,trees,coupling,all}
                             --seed N --seconds S --trace {0,1} [--corrupt]

Run from the root of a checkout.  Inputs are generated from the seed into a
scratch directory inside the checkout, removed at exit.  Repetitions run
until ``--seconds`` is spent (at least three); each one starts a fresh
interpreter (worker.py) for the library phase, so caches start cold and
peak memory belongs to that repetition, then runs the workload's CLI leg
as ``python -m hierwave.cli <subcommand>`` subprocesses (what the
``hierwave`` console script runs).

``--trace 0`` reports the end-to-end metrics as medians over repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones, plus the tracing overhead.
``--corrupt`` corrupts one result per repetition, to show the checks fire.
The last line of output is one JSON object; the exit code is 0 only if
every operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import gen
from reference import reference_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 3
WORKER_TIMEOUT_S = 150
CLI_TIMEOUT_S = 60
RUN_LIMIT_S = 170  # stop starting repetitions past this, to end within 180 s
SETUP_PROBES = 2  # extra import-only interpreters per repetition for setup_s
# The machine's speed drifts by up to 1.6x within seconds.  A fixed reference
# loop is timed before and after each repetition's library phase (in the
# worker) and before and after its import probes and CLI leg (here); the
# timings of each part are reported scaled to a machine on which that loop
# takes REFERENCE_S seconds.
REFERENCE_S = 0.08

END_TO_END = [("wall_s", "s"), ("cli_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

LAYERS = ("bench", "dynamics", "complexity", "state_tree", "physicality", "rep_theory",
          "repair_cascade")
INTENDED = {"simulate": ("dynamics",), "series": ("complexity",),
            "trees": ("state_tree", "physicality"), "coupling": ("rep_theory",)}
CLI_SUBCOMMANDS = ("simulate", "classify", "validate", "pauli", "info", "decompose", "repair")

# per-layer metric -> (unit, span name, how): "s" sums span durations in a
# repetition, "us" is the mean duration per call in microseconds
SPAN_METRICS = {
    "dynamics.run.s": ("s", "dynamics.run", "s"),
    "dynamics.step.us": ("us", "dynamics.step", "us"),
    "dynamics.invert_momentum.us": ("us", "dynamics.invert_momentum", "us"),
    "dynamics.write_trajectory_csv.s": ("s", "dynamics.write_trajectory_csv", "s"),
    "complexity.symbolize.s": ("s", "complexity.symbolize", "s"),
    "complexity.description_length.s": ("s", "complexity.description_length", "s"),
    "complexity.classify.s": ("s", "complexity.classify", "s"),
    "state_tree.save_state.s": ("s", "state_tree.save_state", "s"),
    "state_tree.load_state.s": ("s", "state_tree.load_state", "s"),
    "state_tree.iter_nodes.s": ("s", "state_tree.iter_nodes", "s"),
    "state_tree.validate_tree.s": ("s", "state_tree.validate_tree", "s"),
    "state_tree.add.s": ("s", "state_tree.add", "s"),
    "state_tree.scalar_mul.s": ("s", "state_tree.scalar_mul", "s"),
    "state_tree.congruent.s": ("s", "state_tree.congruent", "s"),
    "physicality.check_node.s": ("s", "physicality.check_node", "s"),
    "physicality.pauli_check.s": ("s", "physicality.pauli_check", "s"),
    "physicality.pauli_check_scope2.s": ("s", "physicality.pauli_check_scope2", "s"),
    "rep_theory.clebsch_gordan.cold_us": ("us", "rep_theory.clebsch_gordan.cold", "us"),
    "rep_theory.clebsch_gordan.warm_us": ("us", "rep_theory.clebsch_gordan.warm", "us"),
    "rep_theory.decompose_product.s": ("s", "rep_theory.decompose_product", "s"),
    "rep_theory.decompose_product.small_us": ("us", "rep_theory.decompose_product.small", "us"),
    "repair_cascade.validate.s": ("s", "repair_cascade.validate", "s"),
    "repair_cascade.amputate.s": ("s", "repair_cascade.amputate", "s"),
    "repair_cascade.repair.s": ("s", "repair_cascade.repair", "s"),
}
COUNT_METRICS = {
    "dynamics.steps": "count", "dynamics.csv_mb": "MB",
    "complexity.symbols": "count", "complexity.alphabet": "count",
    "complexity.compressed_bits": "bit",
    "state_tree.json_mb": "MB", "state_tree.nodes": "count", "state_tree.max_depth": "count",
    "state_tree.max_ok_depth": "count",
    "physicality.violations": "count",
    "rep_theory.clebsch_gordan.evals": "count",
    "repair_cascade.levels": "count", "repair_cascade.cost": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: unit for name, (unit, _, _) in SPAN_METRICS.items()}
    units["dynamics.run.us_per_step"] = "us"
    units["complexity.description_length.us_per_symbol"] = "us"
    units.update(COUNT_METRICS)
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.s"] = "s"
    units["cli.import.s"] = "s"
    for layer in LAYERS:
        units[f"self.{layer}.s"] = "s"
        units[f"self.{layer}.share"] = "ratio"
    units["self.intended.share"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_pct"] = "%"
    units["reference.loop_s"] = "s"
    return units


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _import_probe(env, module: str) -> float:
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                         text=True, timeout=CLI_TIMEOUT_S, check=True)
    return float(out.stdout)


def _rep(workload, inputs_path, workdir, env, traced, probe, corrupt, plan):
    """One repetition: worker, import probes, CLI leg."""
    args = [sys.executable, os.path.join(HERE, "worker.py"), workload, inputs_path, workdir,
            "1" if traced else "0", "1" if probe else "0", "1" if corrupt else "0"]
    proc = subprocess.run(args, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["scale"] = REFERENCE_S / statistics.fmean(rep["ref_s"])
    ref_before = reference_s()
    rep["setup_probes"] = [_import_probe(env, "hierwave") for _ in range(SETUP_PROBES)]
    if traced:
        rep["cli_import_s"] = _import_probe(env, "hierwave.cli")
    rep["cli"] = []
    for leg in plan:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hierwave.cli", *leg["argv"]], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        fails = _check_cli(leg, proc, rep["cli_facts"])
        rep["cli"].append({"name": leg["name"], "s": elapsed, "fails": fails})
    rep["cli_scale"] = REFERENCE_S / statistics.fmean((ref_before, reference_s()))
    return rep


def _check_cli(leg, proc, cli_facts):
    try:
        return checks.check_cli(leg["name"], proc.returncode, proc.stdout, leg["expect"],
                                cli_facts or None)
    except Exception as exc:  # unparseable output counts as a failed operation
        return [f"check raised {type(exc).__name__}: {exc}"]


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(workload: str, seed: int, seconds: float, traced: bool, corrupt: bool) -> dict:
    env = _env()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        inputs = gen.generate(workload, seed, workdir)
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        reps = []
        durations = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            rep_traced = traced and len(reps) % 2 == 1
            probe = rep_traced and len(reps) == 1 and workload == "trees"
            rep = _rep(workload, inputs_path, workdir, env, rep_traced, probe, corrupt,
                       inputs["cli"])
            rep["traced"] = rep_traced
            reps.append(rep)
            durations.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - start
            if len(reps) >= MIN_REPS + (1 if traced else 0):
                if elapsed + statistics.median(durations) > seconds or elapsed > RUN_LIMIT_S:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return _summarise(workload, reps, traced)


def _summarise(workload: str, reps: list[dict], traced: bool) -> dict:
    attempted = failed = 0
    failures = []
    for rep in reps:
        for r in rep["results"] + rep["cli"]:
            attempted += 1
            name = r.get("op") or "cli." + r["name"]
            if r["fails"]:
                failed += 1
                failures.append(f"{name}: {'; '.join(r['fails'])}")
    untraced = [r for r in reps if not r["traced"]]
    measured = {  # (seconds, scale to reference speed)
        "wall_s": [(r["wall_s"], r["scale"]) for r in untraced],
        "cli_s": [(sum(c["s"] for c in r["cli"]), r["cli_scale"]) for r in untraced],
        "setup_s": [(r["setup_s"], r["scale"]) for r in untraced]
                   + [(s, r["cli_scale"]) for r in untraced for s in r["setup_probes"]],
    }
    samples = {name: [v * f for v, f in pairs] for name, pairs in measured.items()}
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in untraced]
    out = {"workload": workload, "reps": len(reps), "attempted": attempted, "failed": failed,
           "failures": failures, "samples": samples,
           "measured": {name: [v for v, _ in pairs] for name, pairs in measured.items()},
           "reference": [statistics.fmean(r["ref_s"]) for r in untraced]}
    if traced:
        out["per_layer"] = _per_layer(workload, reps)
    return out


def _per_layer(workload: str, reps: list[dict]) -> dict[str, float]:
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    units = per_layer_units()
    per_rep = []
    for r in traced:
        spans = r["spans"]
        m: dict[str, float] = {}
        for name, (_, span, how) in SPAN_METRICS.items():
            agg = spans.get(span)
            if agg is None:
                m[name] = 0.0
            elif how == "s":
                m[name] = agg["total"]
            else:
                m[name] = agg["total"] / agg["calls"] * 1e6
        counts = r["counts"]
        steps = counts.get("dynamics.steps", 0)
        m["dynamics.run.us_per_step"] = m["dynamics.run.s"] / steps * 1e6 if steps else 0.0
        n_dl = counts.get("complexity.description_length.symbols", 0)
        m["complexity.description_length.us_per_symbol"] = (
            m["complexity.description_length.s"] / n_dl * 1e6 if n_dl else 0.0)
        for name in COUNT_METRICS:
            m[name] = counts.get(name, 0)
        for c in r["cli"]:
            m[f"cli.{c['name']}.s"] = c["s"]
        m["cli.import.s"] = r["cli_import_s"]
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for name, agg in spans.items():
            by_layer[name.split(".")[0]] += agg["self"]
        total = sum(by_layer.values())
        for layer in LAYERS:
            m[f"self.{layer}.s"] = by_layer[layer]
            m[f"self.{layer}.share"] = by_layer[layer] / total if total else 0.0
        m["self.intended.share"] = sum(m[f"self.{l}.share"] for l in INTENDED[workload])
        for name, value in m.items():
            if units[name] in ("s", "us"):
                m[name] = value * (r["cli_scale"] if name.startswith("cli.") else r["scale"])
        m["reference.loop_s"] = statistics.fmean(r["ref_s"])
        per_rep.append(m)
    out = {}
    for name in units:
        values = [m.get(name) for m in per_rep if m.get(name) is not None]
        out[name] = statistics.median(values) if values else 0.0
    # the depth probe runs once per traced run
    probed = [r["counts"]["state_tree.max_ok_depth"] for r in traced
              if "state_tree.max_ok_depth" in r["counts"]]
    out["state_tree.max_ok_depth"] = probed[0] if probed else 0
    traced_wall = statistics.median(r["wall_s"] * r["scale"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] * r["scale"] for r in untraced)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    return out


def _report(summary: dict, seed: int, traced: bool) -> tuple[dict, list[str]]:
    lines = [f"workload {summary['workload']}  seed {seed}  repetitions {summary['reps']}"]
    metrics = {}
    if traced:
        units = per_layer_units()
        for name, unit in units.items():
            value = summary["per_layer"][name]
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"  {name:46s} {value:14.6g} {unit}")
        share = summary["per_layer"]["self.intended.share"]
        lines.append(f"  intended dominant layer {'+'.join(INTENDED[summary['workload']])}: "
                     f"share {share:.3f} of library self time "
                     f"({'at least' if share >= 0.5 else 'BELOW'} one half)")
    else:
        for name, unit in END_TO_END:
            values = summary["samples"][name]
            q1, med, q3 = _quartiles(values)
            metrics[name] = {"value": med, "unit": unit}
            raw = summary["measured"].get(name)
            lines.append(f"  {name:12s} {med:12.6f} {unit:3s} (q1 {q1:.6f}, q3 {q3:.6f}, n={len(values)}"
                         + (f"; unscaled median {statistics.median(raw):.6f})" if raw else ")"))
        lines.append(f"  reference loop median {statistics.median(summary['reference']):.6f} s; "
                     f"timings above are scaled to {REFERENCE_S} s")
    rate = summary["failed"] / summary["attempted"]
    lines.append(f"  {'error_rate':12s} {rate:12.6f} ratio "
                 f"({summary['failed']} of {summary['attempted']} operations failed)")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "hierwave", "__init__.py")):
        print(f"run.py: no hierwave sources under {ROOT}/src", file=sys.stderr)
        return 2

    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    attempted = failed = 0
    for workload in workloads:
        summary = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.corrupt)
        wl_metrics, lines = _report(summary, args.seed, bool(args.trace))
        print("\n".join(lines), flush=True)
        for msg in summary["failures"][:10]:
            print(f"FAILED {workload} {msg}", file=sys.stderr)
        attempted += summary["attempted"]
        failed += summary["failed"]
        if args.workload == "all":
            wl_metrics = {f"{workload}.{k}": v for k, v in wl_metrics.items()}
        metrics.update(wl_metrics)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
