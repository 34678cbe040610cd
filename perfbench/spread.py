"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py --workloads simulate,series --seeds 1-10 --seconds 28
                                [--json out.json]

Runs run.py once per workload and seed (untraced), then prints for each
end-to-end metric the median, the quartiles and the interquartile range as
a share of the median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--json", help="also write the table and the environment here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "loadavg_start": os.getloadavg(), "commit": _commit(), "seconds": args.seconds}
    table = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                                   workload, "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and proc.returncode == 0 and doc["correct"]
            for name, m in doc["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: exit {proc.returncode}, "
                  f"{time.perf_counter() - start:.1f} s, "
                  + ", ".join(f"{k} {v['value']:.4f}" for k, v in doc["metrics"].items()),
                  flush=True)
        table[workload] = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            table[workload][name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                                     "spread": spread, "values": vals}
            print(f"  {workload:9s} {name:12s} median {med:10.5f}  q1 {q1:10.5f}  q3 {q3:10.5f}"
                  f"  spread {spread:6.3f}  bound {bounds.get(name, float('nan'))}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "metrics": table}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
