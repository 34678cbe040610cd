"""One-token mutation check of one module of src/hierwave.

Each mutant changes one token of the module: a comparison swapped (`<` to
`<=`, `==` to `!=`, `is` to `is not`, ...), an arithmetic operator swapped
(`+` to `-`, `*` to `//`, ...), `and` to `or` or back, or an int constant
plus 1.  Annotations are left alone, as they are never evaluated, and so
is a site whose source text does not read back as its operator or
constant.  Each
mutant runs the given test files with `pytest -x -q` in a copy of the
repository under a temporary directory, so the checkout is never edited.  A
mutant that every test passes survives, and is printed as
`file:line: mutation`.  A mutant that runs ten times as long as the
unmutated tests, plus 30 s, counts as killed.  The exit code is 0 whatever
survives: this is a probe to triage by hand, not a gate.  Stdlib only,
besides pytest; run from the repository root:

    python tests/mutants.py complexity
    python tests/mutants.py complexity tests/test_complexity.py tests/test_cli.py

Without test files, the module's entry in TESTS names them.
"""

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the test files that exercise each module most directly
TESTS = {
    "_value": ["test_value_types.py", "test_value_limits.py", "test_value_repr.py", "test_library_fuzz.py"],
    "cli": ["test_cli.py", "test_cli_golden.py", "test_cli_fuzz.py"],
    "complexity": ["test_complexity.py", "test_value_limits.py"],
    "dynamics": ["test_dynamics.py", "test_acceptance.py"],
    "physicality": ["test_physicality.py", "test_tree_walks.py"],
    "rep_theory": ["test_rep_theory.py"],
    "repair_cascade": ["test_repair_cascade.py", "test_records.py"],
    "state_tree": ["test_state_tree.py", "test_state_loader.py", "test_tree_codecs.py", "test_tree_walks.py"],
}

COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
           ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"),
           ast.IsNot: ("is not", "is"), ast.In: ("in", "not in"), ast.NotIn: ("not in", "in")}
ARITHMETIC = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "//"), ast.FloorDiv: ("//", "*"),
              ast.Div: ("/", "*"), ast.Mod: ("%", "//"), ast.Pow: ("**", "*"), ast.LShift: ("<<", ">>"),
              ast.RShift: (">>", "<<"), ast.BitAnd: ("&", "|"), ast.BitOr: ("|", "&"), ast.BitXor: ("^", "&")}
BOOLEAN = {ast.And: ("and", "or"), ast.Or: ("or", "and")}


def _annotations(tree: ast.AST) -> set[int]:
    """The ids of every node inside an annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots for n in ast.walk(root)}


def _operator_sites(tree: ast.AST):
    """(left node, right node, old text, new text) for each operator token,
    which lies between the end of left and the start of right."""
    skip = _annotations(tree)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                yield operands[i], operands[i + 1], *COMPARE[type(op)]
        elif isinstance(node, ast.BinOp) and type(node.op) in ARITHMETIC:
            yield node.left, node.right, *ARITHMETIC[type(node.op)]
        elif isinstance(node, ast.AugAssign) and type(node.op) in ARITHMETIC:
            old, new = ARITHMETIC[type(node.op)]
            yield node.target, node.value, old + "=", new + "="
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                yield left, right, *BOOLEAN[type(node.op)]


def mutants(text: str) -> list[tuple[int, str, str]]:
    """(line, description, mutated text) for every one-token mutant of text."""
    tree = ast.parse(text)
    lines = text.splitlines(keepends=True)
    starts = [0, 0]  # the offset in text at which each 1-based line starts
    for line in lines:
        starts.append(starts[-1] + len(line))

    def at(line: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return starts[line] + len(lines[line - 1].encode("utf-8")[:col].decode("utf-8"))

    out = []
    for left, right, old, new in _operator_sites(tree):
        # between the operands lie only the operator, brackets, blanks and comments
        lo = at(left.end_lineno, left.end_col_offset)
        between = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), text[lo:at(right.lineno, right.col_offset)])
        core = [i for i, c in enumerate(between) if c not in " \t\n\\()"]
        if core and " ".join(between[core[0]:core[-1] + 1].split()) == old:
            i, j = lo + core[0], lo + core[-1] + 1
            out.append((text.count("\n", 0, i) + 1, f"{old} -> {new}", text[:i] + new + text[j:]))
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value.__class__ is int:
            lo, hi = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
            if text[lo:hi].replace("_", "").isdigit():  # the source reads back as the literal
                new = str(node.value + 1)
                out.append((node.lineno, f"{text[lo:hi]} -> {new}", text[:lo] + new + text[hi:]))
    return sorted(out, key=lambda m: m[0])


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in TESTS:
        print(f"usage: python tests/mutants.py MODULE [TEST_FILE ...], MODULE one of {', '.join(TESTS)}",
              file=sys.stderr)
        return 2
    module, tests = argv[0], argv[1:] or [f"tests/{name}" for name in TESTS[argv[0]]]
    source = ROOT / "src" / "hierwave" / f"{module}.py"
    text = source.read_text(encoding="utf-8")
    found = mutants(text)
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"  # the tests read README.md and CI files too
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        target = copy / "src" / "hierwave" / f"{module}.py"
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        # no .pyc: a mutant of the same size, written within the same second,
        # would otherwise load the cached code of the one before it
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

        def passes(timeout: float | None) -> bool:
            try:
                run = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL, timeout=timeout)
            except subprocess.TimeoutExpired:  # a mutant that hangs is caught
                return False
            return run.returncode == 0

        began = time.monotonic()
        if not passes(None):
            print(f"the tests fail on the unmutated {module}.py: {' '.join(tests)}", file=sys.stderr)
            return 2
        timeout = 10 * (time.monotonic() - began) + 30
        for n, (line, mutation, mutated) in enumerate(found, 1):
            target.write_text(mutated, encoding="utf-8")
            survived = passes(timeout)
            if survived:
                survivors.append(f"src/hierwave/{module}.py:{line}: {mutation}")
            print(f"[{n}/{len(found)}] line {line}: {mutation}: {'survived' if survived else 'killed'}",
                  file=sys.stderr)
    for survivor in survivors:
        print(survivor)
    print(f"{module}: {len(found) - len(survivors)} of {len(found)} mutants killed, {len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
