"""Correctness checks behind ``failed`` and ``error_rate``.

Floats are compared with tolerances, so a change in the last bits of a
result (a closed-form solver, another summation order) still passes.
Counts, multiplicities, verdicts and violation lists are compared exactly.
Each ``check_*`` takes the plain facts of one operation and returns the
list of what is wrong with it; an empty list means the operation passed.
"""

from __future__ import annotations

import csv
import json
import math
import re

import oracles

CSV_COLUMNS = ["t", "x1", "x2", "v1", "v2", "m1_eff", "m2_eff", "E_total"]
CSV_RTOL = 1e-12
DRIFT_MAX = 1e-8
ROUND_TRIP_TOL = 1e-10
CG_TOL = 1e-10
RATIO_RTOL = 1e-12
AMPLITUDE_TOL = 1e-12


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _check_classify(fails: list[str], c: dict, symbols, expect_bits=None, expect_raw=None) -> None:
    bits = oracles.description_bits(symbols) if expect_bits is None else expect_bits
    raw = oracles.raw_bits(symbols) if expect_raw is None else expect_raw
    if c["compressed_bits"] != bits:
        fails.append(f"compressed_bits {c['compressed_bits']} != bit-layout count {bits}")
    if c["raw_bits"] != raw:
        fails.append(f"raw_bits {c['raw_bits']} != {raw}")
    if not _close(c["ratio"], c["compressed_bits"] / c["raw_bits"], RATIO_RTOL):
        fails.append(f"ratio {c['ratio']} != compressed/raw")
    verdict = "SeriesLike" if c["ratio"] >= c["threshold"] else "RuleLike"
    if c["verdict"] != verdict:
        fails.append(f"verdict {c['verdict']} inconsistent with ratio {c['ratio']}")


def check_simulate(f: dict) -> list[str]:
    if f["error"]:
        return [f"raised {f['error']}"]
    fails = []
    if f["traj_error"] is not None:
        fails.append(f"trajectory error {f['traj_error']}")
    samples = f["samples"]
    if len(samples) != f["steps"] + 1:
        fails.append(f"{len(samples)} samples for {f['steps']} steps")
    with open(f["csv"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_COLUMNS:
        fails.append(f"CSV header {rows[:1]}")
    elif len(rows) - 1 != len(samples):
        fails.append(f"CSV has {len(rows) - 1} rows for {len(samples)} samples")
    else:
        for k, (row, s) in enumerate(zip(rows[1:], samples)):
            if len(row) != len(s) or not all(_close(float(a), b, CSV_RTOL) for a, b in zip(row, s)):
                fails.append(f"CSV row {k} differs from sample: {row} vs {s}")
                break
    if f["lambda1"] == 0.0 and samples:
        e0 = samples[0][7]
        drift = max(abs(s[7] - e0) for s in samples) / max(abs(e0), 1e-30)
        if not drift < DRIFT_MAX:
            fails.append(f"energy drift {drift:.3e} >= {DRIFT_MAX} with lambda1 = 0")
    worst = max((abs(a - b) for a, b in f["round_trip"]), default=0.0)
    if not worst <= ROUND_TRIP_TOL:
        fails.append(f"momentum round trip error {worst:.3e}")
    symbols = [math.floor(v / f["quantization"]) for v in f["classify_values"]]
    r = [s[1] - s[2] for s in samples]
    if len(r) != len(f["classify_values"]) or any(a != b for a, b in zip(r, f["classify_values"])):
        fails.append("classified series is not x1 - x2 of the trajectory")
    _check_classify(fails, f["classify"], symbols)
    return fails


def check_series(f: dict) -> list[str]:
    if f["error"]:
        return [f"raised {f['error']}"]
    fails = []
    e = f["expect"]
    c = f["classify"]
    if "symbols" in f:
        mine = [math.floor(v / f["quantization"]) for v in f["values"]]
        if list(f["symbols"]) != mine:
            fails.append("symbolize differs from floor(value / quantization)")
        if f["bits"] != e["compressed_bits"]:
            fails.append(f"description_length {f['bits']} != bit-layout count {e['compressed_bits']}")
    _check_classify(fails, c, None, e["compressed_bits"], e["raw_bits"])
    if c["verdict"] != e["verdict"]:
        fails.append(f"verdict {c['verdict']}, expected {e['verdict']}")
    return fails


def check_trees(f: dict) -> list[str]:
    if f["error"]:
        return [f"raised {f['error']}"]
    fails = []
    e = f["expect"]
    orig, loaded, zero = f["original"], f["loaded"], f["zero"]
    if len(orig) != e["nodes"]:
        fails.append(f"input has {len(orig)} nodes, expected {e['nodes']}")
    if len(loaded) != len(orig):
        fails.append(f"load(save(psi)) has {len(loaded)} nodes, psi has {len(orig)}")
    else:
        for a, b in zip(orig, loaded):
            if a[:4] != b[:4] or a[5:] != b[5:] or len(a[4]) != len(b[4]) or not all(
                    abs(x - y) <= AMPLITUDE_TOL for x, y in zip(a[4], b[4])):
                fails.append(f"load(save(psi)) differs at {a[0]}")
                break
    if [n[:4] for n in zero] != [n[:4] for n in orig] or not f["congruent"]:
        fails.append("psi + (-1)psi is not congruent to psi")
    if any(abs(a) > AMPLITUDE_TOL for n in zero for a in n[4]):
        fails.append("psi + (-1)psi has a nonzero amplitude")
    if f["iter_paths"] != [n[0] for n in orig]:
        fails.append("iter_nodes does not visit every node once in pre-order")
    if max((n[0].count(".") for n in orig), default=0) != e["max_depth"]:
        fails.append("tree depth differs from the generated one")
    if f["unnormalized"] != e["unnormalized"]:
        fails.append(f"validate_tree flagged {f['unnormalized']}, planted {e['unnormalized']}")
    if f["reports"] != e["internal"]:
        fails.append(f"check_node gave {f['reports']} reports for {e['internal']} internal nodes")
    if f["unphysical"] != e["unphysical"]:
        fails.append(f"check_node unphysical {f['unphysical']}, planted {e['unphysical']}")
    for scope in ("pauli_scope1", "pauli_scope2"):
        if f[scope] != e[scope]:
            fails.append(f"{scope} found {f[scope]}, planted {e[scope]}")
    for tjs, dim in f["small"]:
        if dim != math.prod(tj + 1 for tj in tjs):
            fails.append(f"decompose_product of {tjs} has dimension {dim}")
            break
    return fails


def check_coupling(f: dict) -> list[str]:
    if f["error"]:
        return [f"raised {f['error']}"]
    kind = f["kind"]
    if kind == "cg":
        return _check_cg(f)
    if kind == "product":
        fails = []
        if f["content"] != f["expect"]:
            fails.append("decompose_product multiplicities differ from weight counting")
        if f["total_dim"] != math.prod(tj + 1 for tj in f["twice_js"]):
            fails.append(f"total dimension {f['total_dim']}")
        return fails
    fails = []
    if f["problems"]:
        fails.append(f"generated organism reported invalid: {f['problems'][:2]}")
    if f["remainder_complete"] != f["expect"]["remainder_complete"]:
        fails.append(f"remainder complete {f['remainder_complete']}, weight counting says "
                     f"{f['expect']['remainder_complete']}")
    fails += _check_repair(f)
    return fails


def _check_repair(f: dict) -> list[str]:
    fails = []
    has_target = oracles.product_contains(f["witness"], f["target"])
    if has_target != f["feasible"]:
        fails.append(f"feasible {f['feasible']} but witness contains target: {has_target}")
    if not 0 <= f["levels"] <= f["max_depth"]:
        fails.append(f"levels descended {f['levels']} outside [0, {f['max_depth']}]")
    return fails


def _check_cg(f: dict) -> list[str]:
    fails = []
    keys, cold, warm = f["keys"], f["cold"], f["warm"]
    if len(cold) != len(keys) or len(warm) != len(keys):
        return [f"{len(cold)} cold and {len(warm)} warm values for {len(keys)} queries"]
    if cold != warm:
        fails.append("warm values differ from cold values")
    # columns (J, M) of the coupling matrix over (m1, m2) are orthonormal
    cols: dict[tuple[int, int], dict[int, float]] = {}
    for (tj1, tm1, tj2, tm2, tJ, tM), c in zip(keys, cold):
        cols.setdefault((tJ, tM), {})[tm1] = c
    worst = 0.0
    for (tJ, tM), col in cols.items():
        worst = max(worst, abs(sum(c * c for c in col.values()) - 1.0))
        other = cols.get((tJ + 2, tM))
        if other is not None:
            worst = max(worst, abs(sum(c * other.get(m, 0.0) for m, c in col.items())))
    if not worst <= CG_TOL:
        fails.append(f"CG orthonormality off by {worst:.3e}")
    return fails


def _corrupt_simulate(f: dict) -> None:
    row = list(f["samples"][1])
    row[1] += 1e-6
    f["samples"][1] = tuple(row)


def _corrupt_series(f: dict) -> None:
    f["classify"]["compressed_bits"] += 1


def _corrupt_trees(f: dict) -> None:
    f["unphysical"] = {}


def _corrupt_coupling(f: dict) -> None:
    f["cold"][0] += 1e-9


# one corruption of an operation's result per workload: run.py --corrupt
# applies it to the first operation of every repetition
CORRUPT = {"simulate": _corrupt_simulate, "series": _corrupt_series, "trees": _corrupt_trees,
           "coupling": _corrupt_coupling}

CHECKS = {"simulate": check_simulate, "series": check_series, "trees": check_trees,
          "coupling": check_coupling}


# --- CLI legs ------------------------------------------------------------------


def check_cli(name: str, code: int, out: str, expect: dict, facts: dict | None = None) -> list[str]:
    """Exit code and the key facts parsed from the subcommand's human output."""
    fails = []
    if code != expect["exit"]:
        fails.append(f"exit code {code}, expected {expect['exit']}")
    lines = out.splitlines()
    if name == "simulate":
        m = re.match(r"wrote (\d+) samples to ", lines[0] if lines else "")
        if not m or int(m.group(1)) != expect["samples"]:
            fails.append(f"simulate reported {lines[:1]}, expected {expect['samples']} samples")
        else:
            with open(expect["out"], encoding="utf-8") as fh:
                rows = sum(1 for _ in fh)
            if rows != expect["samples"] + 1:
                fails.append(f"trajectory CSV has {rows} lines")
    elif name == "classify":
        try:
            doc = json.loads(lines[0])
        except (IndexError, ValueError):
            return fails + [f"classify printed {lines[:1]}"]
        for key in ("compressed_bits", "raw_bits", "verdict"):
            if doc.get(key) != expect[key]:
                fails.append(f"classify {key} {doc.get(key)}, expected {expect[key]}")
        if len(lines) < 2 or not lines[1].startswith(f"{expect['verdict']}: {expect['compressed_bits']} / "):
            fails.append(f"classify summary line {lines[1:2]}")
    elif name == "validate":
        unphysical = sum(1 for l in lines if l.endswith(")") and ": UNPHYSICAL (" in l)
        physical = sum(1 for l in lines if l.endswith(": PHYSICAL"))
        if (unphysical, physical) != (expect["unphysical"], expect["physical"]):
            fails.append(f"validate: {unphysical} unphysical / {physical} physical, expected "
                         f"{expect['unphysical']} / {expect['physical']}")
    elif name == "pauli":
        found = sum(1 for l in lines if " share state " in l)
        if found != expect["violations"]:
            fails.append(f"pauli: {found} violations, expected {expect['violations']}")
    elif name == "info":
        if not lines or lines[0] != f"nodes: {expect['nodes']}":
            fails.append(f"info: {lines[:1]}, expected nodes: {expect['nodes']}")
    elif name == "decompose":
        content = {}
        dim_ok = False
        for l in lines:
            m = re.fullmatch(r"J=(\d+)(/2)? x(\d+)", l)
            if m:
                content[str(int(m.group(1)) * (1 if m.group(2) else 2))] = int(m.group(3))
            m = re.fullmatch(r"dim: (\d+) = (\d+)", l)
            if m:
                dim_ok = m.group(1) == m.group(2)
        if content != expect["content"]:
            fails.append("decompose multiplicities differ from weight counting")
        if not dim_ok:
            fails.append("decompose dimension line missing or unequal")
    elif name == "repair":
        result = [l for l in lines if l.startswith("RESULT ")]
        if len(result) != 1:
            return fails + ["repair printed no RESULT line"]
        doc = json.loads(result[0][len("RESULT "):])
        if facts is not None:
            for key, lib in (("feasible", facts["feasible"]), ("levels_descended", facts["levels"]),
                             ("cost", facts["cost"])):
                if doc.get(key) != lib:
                    fails.append(f"repair {key} {doc.get(key)}, library gave {lib}")
        verdict = "rebuilt" if doc.get("feasible") else "not rebuildable"
        if not any(l.startswith(f"{verdict}: levels descended ") for l in lines):
            fails.append(f"repair human output lacks '{verdict}'")
    return fails
