"""Golden CLI output: exit code, stdout and stderr, byte for byte.

Each case runs `main` in process, in both `--format`s, and is compared
with `golden_cli.json`, which holds the output of the code as it stood
before result records became named tuples.  Paths under the test's
temporary directory print as `{tmp}` and the bundled data directory as
`{data}`; every file a case writes is compared by its sha256.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from importlib import resources
from pathlib import Path

import pytest

from hierwave.cli import main

DATA = str(resources.files("hierwave") / "data")
GOLDEN = Path(__file__).with_name("golden_cli.json")
FILES = ["harmonic_benchmark.json", "hydra.json", "two_spin_example.json", "two_spin_impossible.json"]


def _node(level, twice_ms, amplitudes=1, children=(), **extra):
    """A state-file node over spin-1/2 labels with weights twice_ms."""
    return {"level": level, "group": "SU2",
            "basis": [{"type": "spin", "twice_j": 1, "twice_m": m} for m in twice_ms],
            "amplitudes": [[1.0, 0.0]] * amplitudes, "children": list(children), **extra}


# two fermions in one state under each of two systems, a child level that does
# not descend, and an amplitude count that does not match the basis
_FERMION = {"statistics": "fermion", "quantum_numbers": [1]}
DEFECTS = _node(0, [1], children=[
    _node(1, [1], children=[_node(2, [1], **_FERMION), _node(2, [1], **_FERMION)]),
    _node(1, [1], children=[_node(2, [1], **_FERMION), _node(2, [1], **_FERMION), _node(2, [-1], 2)]),
    _node(0, [1, -1], 2),
])

ARGVS = [
    *(f"{cmd} --state {{data}}/{name}{scope}" for name in FILES
      for cmd, scope in (("validate", ""), ("pauli", " --scope 1"), ("pauli", " --scope 2"), ("info", ""))),
    *(f"{cmd} --state {{tmp}}/defects.json" for cmd in ("validate", "pauli --scope 1", "pauli --scope 2", "info")),
    *(f"repair --scenario {{data}}/hydra.json --remove {remove} --max-depth {depth}"
      for remove in ("0", "2", "1,2", "0,1", "0,2", "0,1,2") for depth in (0, 1, 3)),
    "repair --scenario {data}/hydra.json --remove 3",
    "repair --scenario {data}/hydra.json --remove 1 --max-depth -1",
    "repair --scenario {data}/two_spin_example.json --remove 0",
    "decompose --spins 1/2,1/2",
    "decompose --spins 1/2,1/2,1",
    "decompose --spins 3/2,2,5/2,0",
    "decompose --spins banana",
    "simulate --config {data}/harmonic_benchmark.json --out {tmp}/t.csv",
    "simulate --config {data}/harmonic_benchmark.json --out {tmp}/sw --sweep m0=0:1:3",
    "simulate --config {data}/harmonic_benchmark.json --out {tmp}/sw --sweep dt=0.0001:0.0002:2",
    "simulate --config {data}/hydra.json --out {tmp}/t.csv",
    "classify --series {tmp}/cos.csv --quantization 0.05",
    "classify --series {tmp}/uniform.csv --quantization 0.01",
    "classify --series {tmp}/uniform.csv --quantization 0.5 --threshold 0.9",
    "classify --series {tmp}/constant.csv --quantization 1",
]
CASES = [f"--format {fmt} {argv}" for argv in ARGVS for fmt in ("human", "machine")]


_RNG = random.Random(7)
INPUTS = {
    "defects.json": json.dumps(DEFECTS),
    "cos.csv": "".join(f"{math.cos(k / 50)!r}\n" for k in range(2000)),
    "uniform.csv": "".join(f"{_RNG.uniform(-3, 3)!r}\n" for _ in range(5000)),
    "constant.csv": "2.5\n" * 300,
}


def run_case(case: str, tmp: Path) -> dict:
    """Run one case with its output directory `tmp`, which starts empty but
    for the generated inputs; return its exit code, normalised output and
    the sha256 of each file it wrote."""
    for name, text in INPUTS.items():
        (tmp / name).write_text(text)
    inputs = set(tmp.iterdir())
    argv = [tok.format(data=DATA, tmp=tmp) for tok in case.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(set(tmp.iterdir()) - inputs)}

    def normalise(text):
        return text.replace(str(tmp), "{tmp}").replace(DATA, "{data}")

    return {"code": code, "out": normalise(out.getvalue()), "err": normalise(err.getvalue()),
            "files": files}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden(case, golden, tmp_path):
    assert run_case(case, tmp_path) == golden[case]
