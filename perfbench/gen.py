"""Seeded input generators for the four workloads.

``generate(workload, seed, workdir)`` writes the program's input files into
``workdir`` and returns a JSON-able dict with the inputs the worker passes
to the library, the expectations each input carries by construction
(planted defects, oracle results), and the CLI leg to run.  Sizes are fixed
per workload; the seed changes values and positions only, so the work done
is the same on every seed.  This module does not import hierwave.
"""

from __future__ import annotations

import json
import math
import os
import random

import oracles

# --- sizes and caps ----------------------------------------------------------
# simulate: the bundled harmonic_benchmark (10k steps) plus seeded nonlinear
# configs.  Caps keep every config inside the admissible region sampled by
# acceptance criterion 5 (m0 = 1, lambda0 <= 1, lambda1 <= 0.004, |v| <= 10);
# outside it the current Legendre inversion can fail mid-run.
SIM_NONLINEAR = 2
SIM_STEPS = 3000
SIM_LAMBDA0_MAX = 0.4
SIM_LAMBDA1_MAX = 0.004
SIM_QUANTIZATION = 0.01

# series: two high-entropy series; Gaussian noise at q = 0.01 has an
# alphabet of ~700 symbols, where the O(K) move-to-front scan dominates.
SERIES_GAUSS_N = 100_000
SERIES_UNIFORM_N = 60_000
SERIES_QUANTIZATION = 0.01

# trees: one deep chain and two bushy trees.  CHAIN_DEPTH stays below the
# RecursionError that add()/congruent() raise near depth 350 under the
# default recursion limit (depth 320 passes everything); raise it once tree
# operations stop recursing.
CHAIN_DEPTH = 300
CHAINS = 1
WIDE_SHAPE = (8, 160)  # root -> 8 groups -> 160 fermionic leaves each
DEEP_SHAPE = (6, 6, 40)  # root -> 6 -> 6 -> 40 fermionic leaves each

# coupling: full CG tables for three distinct pairs with 2j1 + 2j2 = 56
# (2j <= 36), about 4.6e4 cold evaluations: (28 - d, 28 + d) and
# (20 + d, 36 - d) with d in [0, 3], and (24, 32).  Table sizes and costs of
# the first two trade off against each other, so the total hardly depends on
# the seed.  Organisms use a fixed multiset of leaf spins and always lose two
# top-level components.
CG_SUM = 56
CG_SPREAD = 8
DECOMPOSE_LISTS = ((100, 60, 40), (150, 80, 20), (60, 60, 80))  # counts of 2j = 1, 2, 3
CLI_SPINS = (30, 20, 10)
ORGANISMS = 4
ORGANISM_TOP = 6
ORGANISM_BRANCH = 4
ORGANISM_DEPTH = 4
REPAIR_MAX_DEPTH = 3


def generate(workload: str, seed: int, workdir: str) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, workdir)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _cli(name: str, argv: list[str], expect: dict) -> dict:
    return {"name": name, "argv": argv, "expect": expect}


# --- simulate ----------------------------------------------------------------


def _simulate(rng: random.Random, workdir: str) -> dict:
    bundled = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "hierwave", "data", "harmonic_benchmark.json")
    with open(bundled, encoding="utf-8") as fh:
        configs = [json.load(fh)]
    for _ in range(SIM_NONLINEAR):
        spins = [rng.choice((0.5, -0.5)) for _ in range(4)]
        configs.append({
            "m0": 1.0,
            "spins": spins,
            "lambda0": rng.uniform(0.0, SIM_LAMBDA0_MAX),
            "lambda1": rng.uniform(0.0, SIM_LAMBDA1_MAX),
            "potential_U": {"type": "harmonic", "k": rng.uniform(0.5, 2.0)},
            "potential_Lambda": {"type": "linear", "kappa": rng.uniform(-0.5, 0.5)},
            "x_init": [rng.uniform(-1.0, 0.0), rng.uniform(0.0, 1.0)],
            "v_init": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
            "dt": 1e-3,
            "steps": SIM_STEPS,
        })
    paths = []
    for i, cfg in enumerate(configs):
        path = os.path.join(workdir, f"config_{i}.json")
        _write_json(path, cfg)
        paths.append(path)
    out = os.path.join(workdir, "cli_traj.csv")
    return {
        "configs": paths,
        "quantization": SIM_QUANTIZATION,
        "cli": [_cli("simulate", ["simulate", "--config", paths[1], "--out", out],
                     {"exit": 0, "samples": SIM_STEPS + 1, "out": out})],
    }


# --- series ------------------------------------------------------------------


def _series_entry(name: str, values: list[float], q: float, verdict: str) -> dict:
    symbols = [math.floor(v / q) for v in values]
    return {
        "name": name,
        "values": values,
        "quantization": q,
        "expect": {
            "verdict": verdict,
            "symbols": len(symbols),
            "alphabet": len(set(symbols)),
            "compressed_bits": oracles.description_bits(symbols),
            "raw_bits": oracles.raw_bits(symbols),
        },
    }


def _series(rng: random.Random, workdir: str) -> dict:
    q = SERIES_QUANTIZATION
    gauss = [rng.gauss(0.0, 1.0) for _ in range(SERIES_GAUSS_N)]
    uniform = [rng.uniform(-3.0, 3.0) for _ in range(SERIES_UNIFORM_N)]
    series = [
        _series_entry("gauss", gauss, q, "SeriesLike"),
        _series_entry("uniform", uniform, q, "SeriesLike"),
    ]
    path = os.path.join(workdir, "series_uniform.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{v!r}\n" for v in uniform)
    exp = series[1]["expect"]
    return {
        "series": series,
        "cli": [_cli("classify", ["classify", "--series", path, "--quantization", repr(q)],
                     {"exit": 0, "compressed_bits": exp["compressed_bits"],
                      "raw_bits": exp["raw_bits"], "verdict": exp["verdict"]})],
    }


# --- trees -------------------------------------------------------------------
# Nodes are built directly in the JSON schema documented in state_tree.py.
# Every leaf is a spin-1/2 fermion with a unique quantum number, except for
# planted pairs that copy a sibling's or cousin's (quantum numbers, dominant
# label).  Internal SU(2) nodes carry a dominant label reachable from their
# children's dominant labels, except for planted WeightMismatch and
# ParentIrrepAbsent nodes.  A few nodes are left unnormalized.


def _spin(tj: int, tm: int) -> dict:
    return {"type": "spin", "twice_j": tj, "twice_m": tm}


def _amplitudes(rng: random.Random, n: int, dom: int) -> list[list[float]]:
    mags = [0.5 * rng.random() for _ in range(n)]
    mags[dom] = 0.9 + 0.1 * rng.random()
    norm = math.sqrt(sum(m * m for m in mags))
    out = []
    for m in mags:
        phase = rng.uniform(-math.pi, math.pi)
        out.append([m / norm * math.cos(phase), m / norm * math.sin(phase)])
    return out


class _TreeBuilder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.uid = 0
        self.unphysical: dict[str, list[str]] = {}
        self.internal: list[str] = []
        self.nodes = 0
        self.max_depth = 0

    def leaf(self, depth: int, qn=None, tm=None) -> dict:
        self.nodes += 1
        self.max_depth = max(self.max_depth, depth)
        if qn is None:
            self.uid += 1
            qn = [self.uid, self.rng.randrange(4)]
        if tm is None:
            tm = self.rng.choice((1, -1))
        dom = 0 if tm == 1 else 1
        return {
            "level": depth, "group": "SU2", "basis": [_spin(1, 1), _spin(1, -1)],
            "amplitudes": _amplitudes(self.rng, 2, dom), "statistics": "fermion",
            "quantum_numbers": qn, "children": [], "_label": (1, tm),
        }

    def internal_node(self, depth: int, path: str, children: list[dict], plant: str | None) -> dict:
        self.nodes += 1
        self.internal.append(path)
        tjs = [c["_label"][0] for c in children]
        tm = sum(c["_label"][1] for c in children)
        j_max = sum(tjs)
        j_min = max(j_max % 2, 2 * max(tjs) - j_max, abs(tm))
        tj = min(j_max, j_min + 2)
        if plant == "WeightMismatch":
            if tj == 0:
                tj = 2
            tm = tm + 2 if tm + 2 <= tj else tm - 2
        elif plant == "ParentIrrepAbsent":
            tj = j_max + 2
        if plant is not None:
            self.unphysical[path] = [plant]
        others = [(tj + 2, tm), (tj, -tm) if tm else (tj + 4, tm)]
        labels = [(tj, tm)] + others
        self.rng.shuffle(labels)
        dom = labels.index((tj, tm))
        return {
            "level": depth, "group": "SU2", "basis": [_spin(*l) for l in labels],
            "amplitudes": _amplitudes(self.rng, len(labels), dom), "statistics": "unspecified",
            "children": children, "_label": (tj, tm),
        }


def _strip(node: dict) -> None:
    stack = [node]
    while stack:
        n = stack.pop()
        n.pop("_label", None)
        stack.extend(n["children"])


def _chain(rng: random.Random) -> tuple[dict, dict]:
    b = _TreeBuilder(rng)
    plant_at = rng.randrange(1, CHAIN_DEPTH - 1)
    node = b.leaf(CHAIN_DEPTH - 1)
    for depth in range(CHAIN_DEPTH - 2, -1, -1):
        path = "root" + ".0" * depth
        node = b.internal_node(depth, path, [node], "WeightMismatch" if depth == plant_at else None)
    unnormalized = ["root" + ".0" * rng.randrange(CHAIN_DEPTH)]
    return _finish(b, node, unnormalized, [], [])


def _bushy(rng: random.Random, shape: tuple[int, ...], plants: dict[int, list[str]]) -> tuple[dict, dict]:
    """Complete tree with the given branching per level; ``plants`` maps a
    depth to the kinds of unphysical nodes planted there.

    Every parent of leaves gets the same number of spin-up leaves, so every
    node's spin, and with it the cost of checking it, is the same on every
    seed; the seed picks which leaves, duplicates and planted nodes."""
    b = _TreeBuilder(rng)
    depth_leaf = len(shape)

    def paths_at(depth):
        out = [()]
        for width in shape[:depth]:
            out = [p + (i,) for p in out for i in range(width)]
        return out

    leaf_paths = paths_at(depth_leaf)
    # planted Pauli duplicates: pairs of leaves that share a parent
    # (visible at scope 1 and 2), share only a grandparent (scope 2 only),
    # or share neither (never compared)
    by_parent: dict[tuple, list] = {}
    for p in leaf_paths:
        by_parent.setdefault(p[:-1], []).append(p)
    by_grand: dict[tuple, list] = {}
    for p in leaf_paths:
        by_grand.setdefault(p[:-2], []).append(p)
    used: set[tuple] = set()
    pairs: list[tuple[str, tuple, tuple]] = []

    def pick(pool):
        while True:
            a, c = rng.sample(pool, 2)
            if a not in used and c not in used:
                used.update((a, c))
                return tuple(sorted((a, c)))

    parents = list(by_parent)
    for _ in range(3):
        pairs.append(("sibling",) + pick(by_parent[rng.choice(parents)]))
    grands = list(by_grand)
    for _ in range(2):
        while True:
            a, c = pick(by_grand[rng.choice(grands)])
            if a[:-1] != c[:-1]:
                pairs.append(("cousin", a, c))
                break
            used.difference_update((a, c))
    if len(shape) > 2:
        while True:
            a, c = pick(leaf_paths)
            if a[:-2] != c[:-2]:
                pairs.append(("unrelated", a, c))
                break
            used.difference_update((a, c))

    copy_of = {c: a for _, a, c in pairs}
    tms = {}
    for kids in by_parent.values():
        ups = set(rng.sample(kids, len(kids) // 2))
        tms.update((p, 1 if p in ups else -1) for p in kids)
    for c, a in sorted(copy_of.items()):
        if tms[c] != tms[a]:
            # a copy takes its source's weight; a free sibling flips back
            free = [p for p in by_parent[c[:-1]]
                    if p not in used and tms[p] == tms[a]]
            tms[rng.choice(free)] = tms[c]
            tms[c] = tms[a]
    leaves: dict[tuple, dict] = {}
    for p in leaf_paths:
        if p in copy_of:
            src = leaves[copy_of[p]]
            leaves[p] = b.leaf(depth_leaf, qn=list(src["quantum_numbers"]), tm=tms[p])
        else:
            leaves[p] = b.leaf(depth_leaf, tm=tms[p])

    level_nodes = leaves
    for depth in range(depth_leaf - 1, -1, -1):
        paths = paths_at(depth)
        kinds = plants.get(depth, [])
        planted = dict(zip(rng.sample(range(len(paths)), len(kinds)), kinds))
        nxt = {}
        for k, p in enumerate(paths):
            children = [level_nodes[p + (i,)] for i in range(shape[depth])]
            nxt[p] = b.internal_node(depth, _path(p), children, planted.get(k))
        level_nodes = nxt
    root = level_nodes[()]

    scope1, scope2 = [], []
    for kind, a, c in pairs:
        if kind == "sibling":
            scope1.append([_path(a[:-1]), _path(a), _path(c)])
        if kind in ("sibling", "cousin"):
            scope2.append([_path(a[:-2]), _path(a), _path(c)])
    unnormalized = [_path(p) for p in rng.sample(leaf_paths, 3)]
    return _finish(b, root, unnormalized, scope1, scope2)


def _path(p: tuple[int, ...]) -> str:
    return "root" + "".join(f".{i}" for i in p)


def _finish(b: _TreeBuilder, root: dict, unnormalized, scope1, scope2):
    for path in unnormalized:
        node = root
        for tok in path.split(".")[1:]:
            node = node["children"][int(tok)]
        node["amplitudes"] = [[1.5 * re, 1.5 * im] for re, im in node["amplitudes"]]
    _strip(root)
    expect = {
        "nodes": b.nodes,
        "max_depth": b.max_depth,
        "internal": len(b.internal),
        "unnormalized": sorted(unnormalized),
        "unphysical": b.unphysical,
        "pauli_scope1": sorted(scope1),
        "pauli_scope2": sorted(scope2),
    }
    return root, expect


def _trees(rng: random.Random, workdir: str) -> dict:
    trees = []
    for i in range(CHAINS):
        root, expect = _chain(rng)
        trees.append({"name": f"chain{i}", "state": root, "expect": expect})
    root, expect = _bushy(rng, WIDE_SHAPE, {1: ["WeightMismatch", "ParentIrrepAbsent"]})
    trees.append({"name": "wide", "state": root, "expect": expect})
    root, expect = _bushy(rng, DEEP_SHAPE, {1: ["ParentIrrepAbsent"],
                                            2: ["WeightMismatch", "ParentIrrepAbsent"]})
    trees.append({"name": "deep", "state": root, "expect": expect})

    cli_tree = next(t for t in trees if t["name"] == "wide")
    path = os.path.join(workdir, "cli_tree.json")
    _write_json(path, cli_tree["state"])
    exp = cli_tree["expect"]
    return {
        "trees": trees,
        "cli": [
            _cli("validate", ["validate", "--state", path],
                 {"exit": 1, "unphysical": len(exp["unphysical"]),
                  "physical": exp["internal"] - len(exp["unphysical"])}),
            _cli("pauli", ["pauli", "--state", path, "--scope", "1"],
                 {"exit": 1, "violations": len(exp["pauli_scope1"])}),
            _cli("info", ["info", "--state", path], {"exit": 0, "nodes": exp["nodes"]}),
        ],
    }


# --- coupling ----------------------------------------------------------------


def _component(leaf_spins, name: str, depth: int) -> dict:
    if depth == ORGANISM_DEPTH:
        return {"name": name, "twice_j": next(leaf_spins)}
    subs = [_component(leaf_spins, f"{name}.{i}", depth + 1) for i in range(ORGANISM_BRANCH)]
    tjs = [s["twice_j"] for s in subs]
    j_max = sum(tjs)
    j_min = max(j_max % 2, 2 * max(tjs) - j_max)
    return {"name": name, "twice_j": min(j_max, j_min + 2), "subcomponents": subs}


def _scenario_obj(comp: dict) -> dict:
    tj = comp["twice_j"]
    obj = {"name": comp["name"], "irrep": str(tj // 2) if tj % 2 == 0 else f"{tj}/2"}
    if "subcomponents" in comp:
        obj["subcomponents"] = [_scenario_obj(s) for s in comp["subcomponents"]]
    return obj


def _organism(rng: random.Random, index: int) -> dict:
    # odd organisms lose an odd total of 2j, so the target's parity is out of
    # reach and the cascade descends to the depth limit; draw again until the
    # top level offers such a pair
    want_odd = index % 2 == 1
    pairs = [(i, j) for i in range(ORGANISM_TOP) for j in range(i + 1, ORGANISM_TOP)]
    leaves = ORGANISM_TOP * ORGANISM_BRANCH ** (ORGANISM_DEPTH - 1)
    choices = []
    while not choices:
        spins = [(0, 1, 1, 2, 3)[i % 5] for i in range(leaves)]
        rng.shuffle(spins)
        leaf_spins = iter(spins)
        top = [_component(leaf_spins, f"c{index}_{i}", 1) for i in range(ORGANISM_TOP)]
        tjs = [c["twice_j"] for c in top]
        choices = [r for r in pairs if ((tjs[r[0]] + tjs[r[1]]) % 2 == 1) == want_odd]
    j_max = sum(tjs)
    j_min = max(j_max % 2, 2 * max(tjs) - j_max)
    # a target near the top of the product: removing components loses it,
    # and the cascade has to descend to find enough spin again
    target = max(j_min, j_max - 2)
    removed = list(rng.choice(choices))
    remaining = [tj for i, tj in enumerate(tjs) if i not in removed]
    scenario = {
        "target": str(target // 2) if target % 2 == 0 else f"{target}/2",
        "components": [_scenario_obj(c) for c in top],
    }
    return {
        "scenario": scenario,
        "removed": removed,
        "target_twice_j": target,
        "expect": {"remainder_complete": oracles.product_contains(remaining, target)},
    }


def _coupling(rng: random.Random, workdir: str) -> dict:
    d = rng.randrange(CG_SPREAD // 2)
    half = CG_SUM // 2
    pairs = [(half - d, half + d), (half - (CG_SPREAD - d), half + (CG_SPREAD - d)),
             (half - CG_SPREAD // 2, half + CG_SPREAD // 2)]
    pairs = [p if rng.random() < 0.5 else p[::-1] for p in pairs]

    products = []
    for counts in DECOMPOSE_LISTS:
        factors = [tj for tj, n in zip((1, 2, 3), counts) for _ in range(n)]
        rng.shuffle(factors)
        products.append({"twice_js": factors,
                         "expect": {str(k): v for k, v in oracles.irrep_content(factors).items()}})

    organisms = [_organism(rng, i) for i in range(ORGANISMS)]

    spins = [tj for tj, n in zip((1, 2, 3), CLI_SPINS) for _ in range(n)]
    rng.shuffle(spins)
    spin_text = ",".join(str(tj // 2) if tj % 2 == 0 else f"{tj}/2" for tj in spins)
    scenario_path = os.path.join(workdir, "cli_scenario.json")
    _write_json(scenario_path, organisms[0]["scenario"])
    return {
        "cg_pairs": pairs,
        "cg_seed": rng.randrange(2**32),
        "products": products,
        "organisms": organisms,
        "max_depth": REPAIR_MAX_DEPTH,
        "cli": [
            _cli("decompose", ["decompose", "--spins", spin_text],
                 {"exit": 0, "content": {str(k): v for k, v in oracles.irrep_content(spins).items()}}),
            _cli("repair", ["repair", "--scenario", scenario_path,
                            "--remove", ",".join(str(i) for i in organisms[0]["removed"]),
                            "--max-depth", str(REPAIR_MAX_DEPTH)],
                 {"exit": 0, "organism": 0}),
        ],
    }


_GENERATORS = {"simulate": _simulate, "series": _series, "trees": _trees, "coupling": _coupling}
WORKLOADS = tuple(_GENERATORS)
