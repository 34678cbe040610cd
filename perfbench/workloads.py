"""Library phase of each workload: the calls into hierwave that ``wall_s``
times, each wrapped in a span named after the layer and function.

For every workload, ``prepare`` builds the library inputs from the
generated ones (untimed), ``run`` is the timed phase and returns one record
per operation, and ``facts`` turns those records into plain data for the
checks (untimed).  An operation that raises is recorded with its error and
the phase goes on with the next one.
"""

from __future__ import annotations

import os
import random

from hierwave import complexity, dynamics, physicality, rep_theory, repair_cascade, state_tree

STEP_PROBE_CALLS = 200
ROUND_TRIP_SAMPLES = 500


def _op(name: str, fn, *args) -> dict:
    try:
        return {"op": name, "error": None, "raw": fn(*args)}
    except Exception as exc:  # an operation boundary: record and go on
        return {"op": name, "error": f"{type(exc).__name__}: {exc}", "raw": None}


# --- simulate ------------------------------------------------------------------


def prepare_simulate(inputs: dict, workdir: str) -> dict:
    return {
        "configs": [dynamics.load_sim_config(p) for p in inputs["configs"]],
        "q": inputs["quantization"],
        "workdir": workdir,
    }


def _simulate_one(T, cfg, i: int, q: float, workdir: str) -> dict:
    traj = T.call("dynamics.run", dynamics.run, cfg)
    path = os.path.join(workdir, f"traj_{i}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        T.call("dynamics.write_trajectory_csv", dynamics.write_trajectory_csv, traj, fh)
    series = complexity.MatrixElementSeries(values=tuple(s.x1 - s.x2 for s in traj.samples),
                                            quantization=q)
    report = T.call("complexity.classify", complexity.classify, series)

    state = dynamics.SimState(t=0.0, x=cfg.x_init, v=cfg.v_init)
    for _ in range(STEP_PROBE_CALLS):
        state = T.call("dynamics.step", dynamics.step, cfg, state)

    stride = max(1, len(traj.samples) // ROUND_TRIP_SAMPLES)
    round_trip = []
    for s in traj.samples[::stride][:ROUND_TRIP_SAMPLES]:
        for block, v in ((0, s.v1), (1, s.v2)):
            p = dynamics.momentum(cfg, block, v)
            round_trip.append((v, T.call("dynamics.invert_momentum", dynamics.invert_momentum,
                                         cfg, block, p)))
    return {"traj": traj, "csv": path, "series": series, "report": report,
            "round_trip": round_trip}


def run_simulate(prep: dict, T) -> list[dict]:
    return [_op(f"config{i}", _simulate_one, T, cfg, i, prep["q"], prep["workdir"])
            for i, cfg in enumerate(prep["configs"])]


def _report_facts(report) -> dict:
    return {"raw_bits": report.raw_bits, "compressed_bits": report.compressed_bits,
            "ratio": report.ratio, "verdict": report.verdict.value, "threshold": report.threshold}


def facts_simulate(prep: dict, ops: list[dict]) -> list[dict]:
    out = []
    for op, cfg in zip(ops, prep["configs"]):
        f = {"op": op["op"], "error": op["error"], "steps": cfg.steps, "lambda1": cfg.lambda1}
        raw = op["raw"]
        if raw is not None:
            f.update({
                "traj_error": raw["traj"].error,
                "samples": [(s.t, s.x1, s.x2, s.v1, s.v2, s.m1_eff, s.m2_eff, s.e_total)
                            for s in raw["traj"].samples],
                "csv": raw["csv"],
                "classify_values": list(raw["series"].values),
                "quantization": raw["series"].quantization,
                "classify": _report_facts(raw["report"]),
                "round_trip": raw["round_trip"],
            })
        out.append(f)
    return out


# --- series --------------------------------------------------------------------


def prepare_series(inputs: dict, workdir: str) -> dict:
    return {"series": [complexity.MatrixElementSeries(values=tuple(s["values"]),
                                                      quantization=s["quantization"])
                       for s in inputs["series"]],
            "expect": [s["expect"] for s in inputs["series"]],
            "names": [s["name"] for s in inputs["series"]]}


def _series_first(T, series) -> dict:
    symbols = T.call("complexity.symbolize", complexity.symbolize, series)
    bits = T.call("complexity.description_length", complexity.description_length, symbols)
    report = T.call("complexity.classify", complexity.classify, series)
    return {"symbols": symbols, "bits": bits, "report": report}


def _series_rest(T, series) -> dict:
    return {"report": T.call("complexity.classify", complexity.classify, series)}


def run_series(prep: dict, T) -> list[dict]:
    # the first series also goes through the coder's layers one by one
    ops = [_op(prep["names"][0], _series_first, T, prep["series"][0])]
    ops += [_op(name, _series_rest, T, s) for name, s in zip(prep["names"][1:], prep["series"][1:])]
    return ops


def facts_series(prep: dict, ops: list[dict]) -> list[dict]:
    out = []
    for op, series, expect in zip(ops, prep["series"], prep["expect"]):
        f = {"op": op["op"], "error": op["error"], "expect": expect}
        raw = op["raw"]
        if raw is not None:
            f["classify"] = _report_facts(raw["report"])
            if "symbols" in raw:
                f["symbols"] = raw["symbols"]
                f["bits"] = raw["bits"]
                f["values"] = series.values
                f["quantization"] = series.quantization
        out.append(f)
    return out


# --- trees ---------------------------------------------------------------------


def prepare_trees(inputs: dict, workdir: str) -> dict:
    return {
        "trees": [state_tree.state_from_obj(t["state"]) for t in inputs["trees"]],
        "names": [t["name"] for t in inputs["trees"]],
        "expect": [t["expect"] for t in inputs["trees"]],
        "workdir": workdir,
    }


def _child_spins(node) -> list:
    return [rep_theory.IrrepLabel(state_tree.dominant_label(c.wave).twice_j) for c in node.children]


def _tree_pipeline(T, psi, path: str) -> dict:
    T.call("state_tree.save_state", state_tree.save_state, psi, path)
    loaded = T.call("state_tree.load_state", state_tree.load_state, path)
    nodes = T.call("state_tree.iter_nodes", list, state_tree.iter_nodes(loaded))
    problems = T.call("state_tree.validate_tree", state_tree.validate_tree, loaded, True)
    reports = T.call("physicality.check_node", physicality.check_node, loaded)
    scope1 = T.call("physicality.pauli_check", physicality.pauli_check, loaded, 1)
    scope2 = T.call("physicality.pauli_check_scope2", physicality.pauli_check, loaded, 2)
    negated = T.call("state_tree.scalar_mul", state_tree.scalar_mul, -1, loaded)
    zero = T.call("state_tree.add", state_tree.add, loaded, negated)
    same_shape = T.call("state_tree.congruent", state_tree.congruent, loaded, zero)
    small = []
    for _, node in nodes:
        if node.children:
            spins = _child_spins(node)
            small.append((spins, T.call("rep_theory.decompose_product.small",
                                        rep_theory.decompose_product, spins)))
    return {"loaded": loaded, "nodes": nodes, "problems": problems, "reports": reports,
            "scope1": scope1, "scope2": scope2, "zero": zero, "congruent": same_shape,
            "small": small, "json_bytes": os.path.getsize(path)}


def run_trees(prep: dict, T) -> list[dict]:
    return [_op(name, _tree_pipeline, T, psi, os.path.join(prep["workdir"], f"tree_{name}.json"))
            for name, psi in zip(prep["names"], prep["trees"])]


def flatten(psi) -> list[tuple]:
    """Pre-order (path, level, group, basis, amplitudes, statistics, quantum
    numbers) of every node, by an explicit stack."""
    out = []
    stack = [("root", psi)]
    while stack:
        path, node = stack.pop()
        w = node.wave
        out.append((path, w.level.level_index, w.level.group, w.level.basis, w.amplitudes,
                    w.statistics, w.quantum_numbers))
        stack.extend((f"{path}.{i}", c) for i, c in reversed(list(enumerate(node.children))))
    return out


def _violations(vs) -> list[list[str]]:
    return sorted([v.system_path, v.first, v.second] for v in vs)


def facts_trees(prep: dict, ops: list[dict]) -> list[dict]:
    out = []
    for op, psi, expect in zip(ops, prep["trees"], prep["expect"]):
        f = {"op": op["op"], "error": op["error"], "expect": expect}
        raw = op["raw"]
        if raw is not None:
            f.update({
                "original": flatten(psi),
                "loaded": flatten(raw["loaded"]),
                "zero": flatten(raw["zero"]),
                "congruent": raw["congruent"],
                "iter_paths": [p for p, _ in raw["nodes"]],
                "unnormalized": sorted(v.path for v in raw["problems"]),
                "unphysical": {p: [r.value for r in rep.reasons]
                               for p, rep in raw["reports"] if not rep.physical},
                "reports": len(raw["reports"]),
                "pauli_scope1": _violations(raw["scope1"]),
                "pauli_scope2": _violations(raw["scope2"]),
                "small": [([s.twice_j for s in spins], res.total_dim) for spins, res in raw["small"]],
                "json_bytes": raw["json_bytes"],
            })
        out.append(f)
    return out


def depth_probe(start: int = 256, cap: int = 8192) -> int:
    """Deepest chain, doubling from ``start`` up to ``cap``, on which every
    in-memory tree operation succeeds; 0 if even ``start`` fails."""
    ok = 0
    depth = start
    while depth <= cap:
        level = state_tree.HierarchyLevel(depth, state_tree.SU2, (state_tree.SpinWeight(1, 1),))
        node = state_tree.HierState(state_tree.NodeWave(level, (1.0,), state_tree.FERMION))
        for d in range(depth - 1, -1, -1):
            level = state_tree.HierarchyLevel(d, state_tree.SU2, (state_tree.SpinWeight(1, 1),))
            node = state_tree.HierState(state_tree.NodeWave(level, (1.0,)), (node,))
        try:
            sum(1 for _ in state_tree.iter_nodes(node))
            state_tree.validate_tree(node)
            state_tree.add(node, state_tree.scalar_mul(-1, node))
            state_tree.congruent(node, node)
            physicality.check_node(node)
            physicality.pauli_check(node, 1)
            physicality.pauli_check(node, 2)
        except RecursionError:
            break
        ok = depth
        depth *= 2
    return ok


# --- coupling ------------------------------------------------------------------


def cg_queries(tj1: int, tj2: int) -> list[tuple[int, ...]]:
    """Every non-trivial entry of the coupling table of one spin pair."""
    out = []
    for tm1 in range(-tj1, tj1 + 1, 2):
        for tm2 in range(-tj2, tj2 + 1, 2):
            tM = tm1 + tm2
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                if abs(tM) <= tJ:
                    out.append((tj1, tm1, tj2, tm2, tJ, tM))
    return out


def prepare_coupling(inputs: dict, workdir: str) -> dict:
    rng = random.Random(inputs["cg_seed"])
    tables = []
    for tj1, tj2 in inputs["cg_pairs"]:
        keys = cg_queries(tj1, tj2)
        rng.shuffle(keys)
        tables.append((keys, [rep_theory.CGQuery(*k) for k in keys]))
    return {
        "tables": tables,
        "products": [[rep_theory.IrrepLabel(tj) for tj in p["twice_js"]] for p in inputs["products"]],
        "product_expect": [p["expect"] for p in inputs["products"]],
        "organisms": [repair_cascade.organism_from_obj(o["scenario"]) for o in inputs["organisms"]],
        "removed": [o["removed"] for o in inputs["organisms"]],
        "organism_expect": [o["expect"] for o in inputs["organisms"]],
        "max_depth": inputs["max_depth"],
    }


def _cg_table(T, queries) -> dict:
    cg = rep_theory.clebsch_gordan
    cold = [T.call("rep_theory.clebsch_gordan.cold", cg, q) for q in queries]
    warm = [T.call("rep_theory.clebsch_gordan.warm", cg, q) for q in queries]
    return {"cold": cold, "warm": warm}


def _organism(T, org, removed, max_depth: int) -> dict:
    problems = T.call("repair_cascade.validate", org.validate)
    remainder = T.call("repair_cascade.amputate", repair_cascade.amputate, org,
                       repair_cascade.RemovalAction(frozenset(removed)))
    result = T.call("repair_cascade.repair", repair_cascade.repair, remainder, max_depth)
    return {"problems": problems, "remainder": remainder, "result": result}


def run_coupling(prep: dict, T) -> list[dict]:
    ops = [_op(f"cg{i}", _cg_table, T, queries) for i, (_, queries) in enumerate(prep["tables"])]
    ops += [_op(f"product{i}", T.call, "rep_theory.decompose_product", rep_theory.decompose_product, f)
            for i, f in enumerate(prep["products"])]
    ops += [_op(f"organism{i}", _organism, T, org, removed, prep["max_depth"])
            for i, (org, removed) in enumerate(zip(prep["organisms"], prep["removed"]))]
    return ops


def repair_facts(org, result) -> dict:
    return {"feasible": result.feasible, "levels": result.levels_descended, "cost": result.cost,
            "witness": [l.twice_j for l in result.witness_irreps],
            "target": org.target_irrep.twice_j}


def facts_coupling(prep: dict, ops: list[dict]) -> list[dict]:
    out = []
    n_cg = len(prep["tables"])
    n_prod = len(prep["products"])
    for k, op in enumerate(ops):
        f = {"op": op["op"], "error": op["error"]}
        raw = op["raw"]
        if k < n_cg:
            f["kind"] = "cg"
            f["keys"] = prep["tables"][k][0]
            if raw is not None:
                f.update(raw)
        elif k < n_cg + n_prod:
            i = k - n_cg
            f["kind"] = "product"
            f["twice_js"] = [l.twice_j for l in prep["products"][i]]
            f["expect"] = prep["product_expect"][i]
            if raw is not None:
                f["content"] = {str(l.twice_j): m for l, m in raw}
                f["total_dim"] = raw.total_dim
        else:
            i = k - n_cg - n_prod
            f["kind"] = "organism"
            f["expect"] = prep["organism_expect"][i]
            f["max_depth"] = prep["max_depth"]
            if raw is not None:
                f["problems"] = list(raw["problems"])
                f["remainder_complete"] = raw["remainder"].complete
                f.update(repair_facts(prep["organisms"][i], raw["result"]))
        out.append(f)
    return out


PREPARE = {"simulate": prepare_simulate, "series": prepare_series, "trees": prepare_trees,
           "coupling": prepare_coupling}
RUN = {"simulate": run_simulate, "series": run_series, "trees": run_trees, "coupling": run_coupling}
FACTS = {"simulate": facts_simulate, "series": facts_series, "trees": facts_trees,
         "coupling": facts_coupling}
