"""Seeded field-mutation fuzz of every loader-backed subcommand.

Each bundled data file is mutated one field at a time (type swap, NaN or
infinity, a negative number, a missing key, an extra level of nesting)
and fed to every subcommand that loads a file.  Whatever the input, the
CLI must exit 0 or 1 without an exception escaping `main`, and an exit-0
`simulate` must write a finite trajectory.
"""

import copy
import json
import math
import random
from importlib import resources

import pytest

from hierwave.cli import main

DATA = resources.files("hierwave") / "data"
FILES = ["harmonic_benchmark.json", "hydra.json", "two_spin_example.json", "two_spin_impossible.json"]
MUTANTS_PER_FILE = 40

SWAPS = ["1.0", "1/0", "", "x", True, False, None, 0, 2.5, [], {}, [1.0, 2.0], {"type": "spin"}]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _mutate(rng, doc):
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc))[1:])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    kind = rng.choice(["swap", "nan", "inf", "negative", "missing", "nest"])
    if kind == "swap":
        parent[key] = rng.choice([s for s in SWAPS if type(s) is not type(value)])
    elif kind == "nan":
        parent[key] = math.nan
    elif kind == "inf":
        parent[key] = rng.choice([math.inf, -math.inf])
    elif kind == "negative":
        nonzero_number = isinstance(value, (int, float)) and value
        parent[key] = -abs(value) if nonzero_number else rng.choice([-1, -0.5, -10**6])
    elif kind == "missing":
        del parent[key]
    else:
        parent[key] = rng.choice([[value], {"value": value}])
    return doc, f"{kind} at {list(path)}"


def _commands(path, out):
    return [
        ["simulate", "--config", path, "--out", out],
        ["repair", "--scenario", path, "--remove", "1", "--max-depth", "3"],
        ["validate", "--state", path],
        ["pauli", "--state", path, "--scope", "1"],
        ["info", "--state", path],
    ]


def _assert_finite_trajectory(out):
    with open(out, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    assert rows
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


@pytest.mark.parametrize("name", FILES)
def test_mutated_input_files_exit_cleanly(name, tmp_path, capsys):
    base = json.loads((DATA / name).read_text())
    if "steps" in base:
        base["steps"] = 100  # the mutations, not the run length, are under test
    rng = random.Random(f"fuzz:{name}")
    path, out = str(tmp_path / "input.json"), str(tmp_path / "traj.csv")
    for _ in range(MUTANTS_PER_FILE):
        doc, what = _mutate(rng, base)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in _commands(path, out):
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001 - the failure is the point
                pytest.fail(f"{argv[0]} on {name} with {what}: {type(exc).__name__}: {exc}")
            captured = capsys.readouterr()
            assert code in (0, 1), (argv[0], what, captured.err)
            if argv[0] == "simulate" and code == 0:
                _assert_finite_trajectory(out)
