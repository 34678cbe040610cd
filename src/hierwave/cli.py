"""Command-line entry point.

Subcommands: decompose, validate, pauli, repair, simulate, classify, info.
Each subcommand imports only the modules it runs, so that, for example,
decompose loads rep_theory alone.
Exit codes: 0 success, 1 domain error (error name printed to stderr),
2 usage error; 1, with nothing printed, when stdout is closed early.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# the most values one --sweep may take: each is a full run and a CSV file
MAX_SWEEP_COUNT = 1000
# the most characters of a token that fails to parse shown in its error
_SHOWN = 40
# the most characters of a domain error's message printed to stderr
MAX_ERROR_CHARS = 1000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierwave",
        description="Hierarchical wave-function toolkit: SU(2) coupling, "
        "physicality checks, repair cascades, toy two-level dynamics, "
        "and description-length classification.",
    )
    parser.add_argument("--format", choices=("human", "machine"), default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a tensor product of spins into irreps")
    p.add_argument("--spins", required=True, help="comma-separated spins, e.g. 1/2,1/2,1")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("validate", help="check physicality of every internal node of a state file")
    p.add_argument("--state", required=True, help="JSON state file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pauli", help="find fermionic exclusion violations among components")
    p.add_argument("--state", required=True, help="JSON state file")
    p.add_argument("--scope", type=int, default=1, help="ancestor depth that counts as 'the system'")
    p.set_defaults(func=cmd_pauli)

    p = sub.add_parser("repair", help="run the symmetry-repair cascade on a damaged organism")
    p.add_argument("--scenario", required=True, help="JSON organism scenario file")
    p.add_argument("--remove", required=True, help="comma-separated component indices to remove")
    p.add_argument("--max-depth", type=int, default=3)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("simulate", help="integrate the two-block spin-mass toy model")
    p.add_argument("--config", required=True, help="JSON simulation config")
    p.add_argument("--out", help="output CSV path (stdout if omitted); prefix in sweep mode")
    p.add_argument("--sweep", help="grid sweep, e.g. lambda0=0:1:5")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classify", help="description-length verdict for a value series")
    p.add_argument("--series", required=True, help="CSV file with one column of reals")
    p.add_argument("--quantization", type=float, required=True)
    p.add_argument("--threshold", type=float)  # None: complexity.DEFAULT_THRESHOLD
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("info", help="summarize and structurally validate a state file")
    p.add_argument("--state", required=True, help="JSON state file")
    p.set_defaults(func=cmd_info)

    return parser


def cmd_decompose(args) -> int:
    from . import rep_theory

    spins = [rep_theory.IrrepLabel(rep_theory.parse_j(tok)) for tok in args.spins.split(",")]
    result = rep_theory.decompose_product(spins)
    for label, mult in result:
        print(f"J={label} x{mult}")
    print(f"dim: {result.total_dim} = {math.prod(s.dim for s in spins)}")
    return 0


def cmd_validate(args) -> int:
    from . import physicality, state_tree

    psi = state_tree.load_state(args.state)
    problems = state_tree.validate_tree(psi)
    if problems:
        for v in problems:
            print(f"{v.path}: INVALID ({v.message})", file=sys.stderr)
        return 1
    reports = physicality.check_node(psi)
    all_ok = True
    for path, report in reports:
        if report.physical:
            print(f"{path}: PHYSICAL")
        else:
            all_ok = False
            names = ",".join(r.value for r in report.reasons)
            print(f"{path}: UNPHYSICAL ({names})")
    return 0 if all_ok else 1


def cmd_pauli(args) -> int:
    from . import physicality, state_tree

    psi = state_tree.load_state(args.state)
    violations = physicality.pauli_check(psi, scope=args.scope)
    for v in violations:
        print(f"{v.system_path}: {v.first} and {v.second} share state {v.state}")
    if not violations:
        print("no exclusion violations")
    return 0 if not violations else 1


def cmd_repair(args) -> int:
    from . import rep_theory, repair_cascade

    org = repair_cascade.load_organism(args.scenario)
    problems = org.validate()
    if problems:
        for msg in problems:
            print(f"scenario invalid: {msg}", file=sys.stderr)
        return 1
    indices = frozenset(_parse(int, tok, "--remove index") for tok in args.remove.split(","))
    remainder = repair_cascade.amputate(org, repair_cascade.RemovalAction(indices))
    result = repair_cascade.repair(remainder, max_depth=args.max_depth)
    if args.format == "human":
        print(f"target J={org.target_irrep}; removed {sorted(indices)}; "
              f"remainder complete: {remainder.complete}")
        for s in result.steps:
            status = "contains target" if s.rebuilt else "target missing"
            print(f"depth {s.depth}: [{', '.join(s.component_names)}] "
                  f"-> {s.product} ({status})")
        verdict = "rebuilt" if result.feasible else "not rebuildable"
        print(f"{verdict}: levels descended {result.levels_descended}, cost {result.cost}")
    print("RESULT " + json.dumps({
        "feasible": result.feasible,
        "levels_descended": result.levels_descended,
        "cost": result.cost,
        "witness": [rep_theory.format_j(l.twice_j) for l in result.witness_irreps],
    }))
    return 0


def _parse(kind, tok: str, what: str):
    """tok read as kind, int or float; a ValueError names what was read and
    shows at most _SHOWN characters of tok."""
    try:
        return kind(tok)
    except ValueError:
        shown = repr(tok) if len(tok) <= _SHOWN else f"{tok[:_SHOWN]!r}... ({len(tok)} characters)"
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{what} must be {noun}, got {shown}") from None


def _parse_sweep(spec: str):
    name, _, grid = spec.partition("=")
    parts = grid.split(":")
    if len(parts) != 3:
        raise ValueError("sweep must look like field=start:stop:count")
    start = _parse(float, parts[0], "--sweep start")
    stop = _parse(float, parts[1], "--sweep stop")
    count = _parse(int, parts[2], "--sweep count")
    if count < 1:
        raise ValueError("sweep count must be >= 1")
    if count > MAX_SWEEP_COUNT:
        raise ValueError(f"sweep count must be <= {MAX_SWEEP_COUNT}, got {count}")
    if count == 1:
        return name, [start]
    return name, [start + (stop - start) * i / (count - 1) for i in range(count)]


def cmd_simulate(args) -> int:
    from . import dynamics

    cfg = dynamics.load_sim_config(args.config)
    if args.sweep:
        name, values = _parse_sweep(args.sweep)
        if not args.out:
            raise ValueError("sweep mode requires --out as a filename prefix")
        if name not in dynamics.SWEEP_FIELDS:
            raise ValueError(f"cannot sweep over field {name!r}")
        paths = {}  # each value's CSV path; values that print alike would share one
        for value in values:
            path = f"{args.out}_{name}_{value:g}.csv"
            if path in paths:
                raise ValueError(f"sweep values {paths[path]:.17g} and {value:.17g} both write {path}")
            paths[path] = value
        print(f"{name},max_energy_drift,error")
        fields = {field: getattr(cfg, field) for field in cfg.__slots__}
        for path, value in paths.items():
            try:
                swept = dynamics.SimConfig(**{**fields, name: value})
            except ValueError as exc:  # SimConfig rejects the value: an empty trajectory
                traj = dynamics.Trajectory([], f"{type(exc).__name__}: {exc}")
            else:
                traj = dynamics.run(swept)
            with open(path, "w", encoding="utf-8") as fh:
                dynamics.write_trajectory_csv(traj, fh)
            drift = dynamics.max_energy_drift(traj)
            print(f"{value:.17g},{drift:.17g},{traj.error or ''}")
        return 0
    traj = dynamics.run(cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            dynamics.write_trajectory_csv(traj, fh)
        if args.format == "human":
            print(f"wrote {len(traj.samples)} samples to {args.out}; "
                  f"max energy drift {dynamics.max_energy_drift(traj):.3e}")
    else:
        dynamics.write_trajectory_csv(traj, sys.stdout)
    if traj.error:
        print(f"error: {traj.error}", file=sys.stderr)
        return 1
    return 0


def cmd_classify(args) -> int:
    from . import complexity

    # the text-mode file's lines, with their numbers: str.splitlines() would
    # also split at "\x0b", "\x1c" or "\u2028"
    with open(args.series, "r", encoding="utf-8") as fh:
        lines = list(map(str.strip, fh.read().split("\n")))
    try:
        values = tuple(map(float, filter(None, lines)))
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        # name the first bad line
        for lineno, line in enumerate(lines, 1):
            if line:
                try:
                    value = float(line)
                except ValueError:
                    raise ValueError(
                        f"{args.series}:{lineno}: value {line!r} is not a number") from None
                if not math.isfinite(value):
                    raise ValueError(f"{args.series}:{lineno}: value {line!r} is not finite")
    series = complexity.MatrixElementSeries(values=values, quantization=args.quantization)
    threshold = complexity.DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    report = complexity.classify(series, threshold=threshold)
    print(json.dumps({**report._asdict(), "verdict": report.verdict.value}))
    if args.format == "human":
        print(f"{report.verdict.value}: {report.compressed_bits} / {report.raw_bits} bits "
              f"(ratio {report.ratio:.4f}, threshold {report.threshold})")
    return 0


def cmd_info(args) -> int:
    from . import state_tree

    psi = state_tree.load_state(args.state)
    nodes = list(state_tree.iter_nodes(psi))
    print(f"nodes: {len(nodes)}")
    for path, node in nodes:
        lvl = node.wave.level
        print(f"{path}: level {lvl.level_index} group {lvl.group} "
              f"basis {len(lvl.basis)} children {len(node.children)}")
    problems = state_tree.validate_tree(psi)
    for v in problems:
        print(f"{v.path}: INVALID ({v.message})")
    return 0 if not problems else 1


_DOMAIN_ERRORS = (ValueError, OSError)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:  # a closed stdout, not a domain error: run() ends quietly
        raise
    except _DOMAIN_ERRORS as exc:
        message = str(exc)
        if len(message) > MAX_ERROR_CHARS:
            message = f"{message[:MAX_ERROR_CHARS]}... ({len(message)} characters)"
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


def run() -> None:
    """Exit with main()'s code.  A closed stdout, as under `| head -1`, exits 1
    with nothing on stderr, by the recipe in the signal module's docs."""
    try:
        code = main()
        sys.stdout.flush()  # so that a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull to keep that quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    run()
