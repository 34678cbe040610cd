"""Shared test oracles, independent of the implementation paths they check."""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, make_dataclass
from fractions import Fraction
from math import factorial, sqrt
from typing import Sequence

import numpy as np

from hierwave._value import _Value
from hierwave.complexity import _first_appearance, _gamma_len, _header_bits, _zigzag
from hierwave.dynamics import (
    LegendreSingularityError,
    NonpositiveMassError,
    SimConfig,
    SimState,
    Trajectory,
    TrajectorySample,
    effective_mass,
    momentum,
    potential_energy,
)
from hierwave.physicality import PauliViolation, PhysicalityReport, Reason
from hierwave.rep_theory import EmptyProductError, IrrepLabel, IrrepSum, decompose_product, format_j
from hierwave.repair_cascade import ComponentSpec
from hierwave.state_tree import (
    _TOO_DEEP,
    FERMION,
    BasisLabel,
    HierarchyLevel,
    HierState,
    Named,
    NodeWave,
    Point,
    SU2,
    SpinWeight,
    StateTooDeepError,
    UNSPECIFIED,
    _amplitude,
    _integer,
    _shown,
    dominant_label,
)


def from_counts(counts: dict[IrrepLabel, int]) -> IrrepSum:
    """The IrrepSum holding the given multiplicities, each >= 1, by descending j."""
    for label, mult in counts.items():
        if mult < 1:
            raise ValueError(f"multiplicity of {label} must be >= 1, got {mult}")
    return IrrepSum(tuple(sorted(counts.items(), key=lambda kv: -kv[0].twice_j)))


def couple_pair(j1: IrrepLabel, j2: IrrepLabel) -> IrrepSum:
    """Coupling series of two irreps: J = |j1-j2| ... j1+j2, each once."""
    return decompose_product([j1, j2])


def dictionary_header_bits(symbols: Sequence[int]) -> int:
    """Size of the gamma-coded dictionary part of the coder's stream."""
    return _header_bits(_first_appearance(symbols))


def reference_validate(comp: ComponentSpec, path: str = "") -> list[str]:
    """ComponentSpec.validate in its recursive form: one call per level."""
    here = f"{path}/{comp.name}" if path else comp.name
    problems: list[str] = []
    if comp.subcomponents:
        product = decompose_product([c.irrep for c in comp.subcomponents])
        if product.multiplicity(comp.irrep) < 1:
            problems.append(f"{here}: irrep {comp.irrep} not contained in subcomponent product {product}")
        for sub in comp.subcomponents:
            problems.extend(reference_validate(sub, here))
    return problems


def reference_organism_to_obj(org) -> dict:
    """organism_to_obj in its recursive form: one call per level."""
    def component(comp: ComponentSpec) -> dict:
        obj: dict = {"name": comp.name, "irrep": format_j(comp.irrep.twice_j)}
        if comp.subcomponents:
            obj["subcomponents"] = [component(c) for c in comp.subcomponents]
        return obj

    return {"target": format_j(org.target_irrep.twice_j), "components": [component(c) for c in org.components]}


def weight_multiplicities(twice_js: list[int]) -> Counter:
    """Count of product-basis weight vectors per total 2M, adding one factor's
    weights 2m = -2j, ..., 2j at a time (no coupling series involved)."""
    counts: Counter = Counter({0: 1})
    for tj in twice_js:
        nxt: Counter = Counter()
        for tM, n in counts.items():
            for tm in range(-tj, tj + 1, 2):
                nxt[tM + tm] += n
        counts = nxt
    return counts


def irrep_multiplicities_by_weights(twice_js: list[int]) -> dict[int, int]:
    """Irrep content from weight counting: mult(J) = N(M=J) - N(M=J+1)."""
    counts = weight_multiplicities(twice_js)
    top = sum(twice_js)
    out = {}
    for tJ in range(top % 2, top + 1, 2):
        mult = counts.get(tJ, 0) - counts.get(tJ + 2, 0)
        if mult > 0:
            out[tJ] = mult
    return out


def fold_decompose_product(factors: Sequence[IrrepLabel]) -> IrrepSum:
    """decompose_product by left-folding the pairwise coupling series over 2j
    integers, one dict update per (entry, J) pair: the form before weight
    counting."""
    if not factors:
        raise EmptyProductError("cannot decompose an empty tensor product")
    counts = {factors[0].twice_j: 1}
    for factor in factors[1:]:
        tf = factor.twice_j
        nxt: dict[int, int] = {}
        for tj, mult in counts.items():
            for tJ in range(abs(tj - tf), tj + tf + 1, 2):
                nxt[tJ] = nxt.get(tJ, 0) + mult
        counts = nxt
    return from_counts({IrrepLabel(tj): mult for tj, mult in counts.items()})


def _lowering(tj: int) -> np.ndarray:
    # J- in the basis m = j, j-1, ..., -j
    dim = tj + 1
    op = np.zeros((dim, dim))
    for i in range(dim - 1):
        j = tj / 2.0
        m = (tj - 2 * i) / 2.0
        op[i + 1, i] = math.sqrt(j * (j + 1) - m * (m - 1))
    return op


def cg_oracle_table(tj1: int, tj2: int) -> dict[tuple[int, int, int, int], float]:
    """All coupling coefficients for a spin pair by the ladder construction:
    start from the stretch state, peel lower-J tops out of each weight space
    (sign fixed by a positive maximal-m1 coefficient), then apply the total
    lowering operator.  Keys are (2m1, 2m2, 2J, 2M)."""
    d1, d2 = tj1 + 1, tj2 + 1
    low = np.kron(_lowering(tj1), np.eye(d2)) + np.kron(np.eye(d1), _lowering(tj2))
    coupled: dict[tuple[int, int], np.ndarray] = {}
    for tJ in range(tj1 + tj2, abs(tj1 - tj2) - 1, -2):
        if tJ == tj1 + tj2:
            vec = np.zeros(d1 * d2)
            vec[0] = 1.0
        else:
            flat = [
                i1 * d2 + i2
                for i1 in range(d1)
                for i2 in range(d2)
                if (tj1 - 2 * i1) + (tj2 - 2 * i2) == tJ
            ]
            space = np.zeros((d1 * d2, len(flat)))
            for col, f in enumerate(flat):
                space[f, col] = 1.0
            for tJp in range(tJ + 2, tj1 + tj2 + 1, 2):
                h = coupled[(tJp, tJ)]
                space -= np.outer(h, h @ space)
            u, s, _ = np.linalg.svd(space, full_matrices=False)
            assert s[0] > 1e-8 and (len(s) == 1 or s[1] < 1e-8), "weight space not 1-dim"
            vec = u[:, 0]
            if vec[min(flat)] < 0:  # min flat index = maximal m1
                vec = -vec
        coupled[(tJ, tJ)] = vec
        for tM in range(tJ - 2, -tJ - 1, -2):
            prev = coupled[(tJ, tM + 2)]
            jj = tJ / 2.0
            mm = (tM + 2) / 2.0
            coupled[(tJ, tM)] = low @ prev / math.sqrt(jj * (jj + 1) - mm * (mm - 1))

    table: dict[tuple[int, int, int, int], float] = {}
    for (tJ, tM), vec in coupled.items():
        for i1 in range(d1):
            for i2 in range(d2):
                table[(tj1 - 2 * i1, tj2 - 2 * i2, tJ, tM)] = vec[i1 * d2 + i2]
    return table


def random_shape(rng, level_index: int = 0, depth: int = 0):
    """Random tree shape: (level, child_shapes) tuples."""
    basis = tuple(Named(f"b{level_index}.{k}") for k in range(rng.randint(1, 3)))
    level = HierarchyLevel(level_index=level_index, group=SU2, basis=basis)
    n_children = rng.randint(0, 3) if depth < 2 else 0
    children = tuple(random_shape(rng, level_index + 1, depth + 1) for _ in range(n_children))
    return level, children


def fill_shape(rng, shape) -> HierState:
    """Fresh random complex amplitudes on a fixed shape."""
    level, children = shape
    amps = tuple(
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in level.basis
    )
    wave = NodeWave(level=level, amplitudes=amps, statistics=UNSPECIFIED)
    return HierState(wave, tuple(fill_shape(rng, c) for c in children))


def amplitudes_close(phi: HierState, psi: HierState, tol: float = 1e-12) -> bool:
    if len(phi.children) != len(psi.children):
        return False
    ok = all(
        abs(a - b) <= tol for a, b in zip(phi.wave.amplitudes, psi.wave.amplitudes)
    )
    return ok and all(
        amplitudes_close(a, b, tol) for a, b in zip(phi.children, psi.children)
    )


def two_spin_state(parent_label: SpinWeight, child_ms: tuple[int, int]) -> HierState:
    """Two spin-1/2 components under one coupled parent node."""
    parent_level = HierarchyLevel(
        level_index=0,
        group=SU2,
        basis=(
            SpinWeight(2, 2),
            SpinWeight(2, 0),
            SpinWeight(2, -2),
            SpinWeight(0, 0),
        ),
    )
    parent_amps = tuple(1.0 if b == parent_label else 0.0 for b in parent_level.basis)
    child_level = HierarchyLevel(
        level_index=1, group=SU2, basis=(SpinWeight(1, 1), SpinWeight(1, -1))
    )
    children = tuple(
        HierState(
            NodeWave(
                level=child_level,
                amplitudes=(1.0, 0.0) if tm == 1 else (0.0, 1.0),
            )
        )
        for tm in child_ms
    )
    return HierState(NodeWave(level=parent_level, amplitudes=parent_amps), children)


def _preorder(node: HierState, path: str = "root"):
    yield path, node
    for i, child in enumerate(node.children):
        yield from _preorder(child, f"{path}.{i}")


def _members_at_depth(node: HierState, path: str, depth: int) -> list[tuple[str, HierState]]:
    if depth == 0:
        return [(path, node)]
    out: list[tuple[str, HierState]] = []
    for i, child in enumerate(node.children):
        out.extend(_members_at_depth(child, f"{path}.{i}", depth - 1))
    return out


def reference_pauli_check(psi: HierState, scope: int) -> list[PauliViolation]:
    """Exclusion check by brute force: for every node in recursive pre-order,
    collect its fermionic descendants exactly ``scope`` levels down and
    compare every pair's (quantum_numbers, dominant label)."""
    violations = []
    for path, node in _preorder(psi):
        fermions = [
            (p, (n.wave.quantum_numbers, dominant_label(n.wave)))
            for p, n in _members_at_depth(node, path, scope)
            if n.wave.statistics == FERMION and n.wave.amplitudes
        ]
        for a in range(len(fermions)):
            for b in range(a + 1, len(fermions)):
                if fermions[a][1] == fermions[b][1]:
                    violations.append(
                        PauliViolation(path, fermions[a][0], fermions[b][0], repr(fermions[a][1]))
                    )
    return violations


@dataclass(frozen=True)
class CoupledLabel:
    """A coupled basis state: total irrep J, total weight M, and the weights
    of the components it was built from (all weights as doubled integers)."""

    j: IrrepLabel
    twice_m: int
    child_twice_ms: tuple[int, ...]

    def __post_init__(self) -> None:
        if abs(self.twice_m) > self.j.twice_j or (self.twice_m - self.j.twice_j) % 2 != 0:
            raise ValueError(f"invalid weight 2M={self.twice_m} for 2J={self.j.twice_j}")


def reference_check_basis_state(parent: CoupledLabel, child_spins: list[IrrepLabel]) -> PhysicalityReport:
    """check_basis_state on a CoupledLabel and one IrrepLabel per child, with
    the child count and each child weight checked again: the form before the
    check took the tree's own SpinWeight labels."""
    if len(parent.child_twice_ms) != len(child_spins):
        raise ValueError(f"{len(parent.child_twice_ms)} child weights vs {len(child_spins)} child spins")
    for tm, spin in zip(parent.child_twice_ms, child_spins):
        if abs(tm) > spin.twice_j or (tm - spin.twice_j) % 2 != 0:
            raise ValueError(f"child weight 2m={tm} invalid for spin 2j={spin.twice_j}")
    reasons = []
    mult = decompose_product(list(child_spins)).multiplicity(parent.j)
    if mult == 0:
        reasons.append(Reason.PARENT_IRREP_ABSENT)
    if parent.twice_m != sum(parent.child_twice_ms):
        reasons.append(Reason.WEIGHT_MISMATCH)
    return PhysicalityReport(tuple(reasons), mult)


def reference_scalar_mul(a: complex, psi: HierState) -> HierState:
    """scalar_mul by plain recursion."""
    w = psi.wave
    wave = NodeWave(w.level, tuple(a * x for x in w.amplitudes), w.statistics, w.quantum_numbers)
    return HierState(wave, tuple(reference_scalar_mul(a, c) for c in psi.children))


def reference_add(phi: HierState, psi: HierState) -> HierState:
    """add of two congruent trees by plain recursion."""
    p, q = phi.wave, psi.wave
    wave = NodeWave(p.level, tuple(x + y for x, y in zip(p.amplitudes, q.amplitudes)),
                    p.statistics, p.quantum_numbers)
    return HierState(wave, tuple(reference_add(a, b) for a, b in zip(phi.children, psi.children)))


def reference_label_from_obj(obj: dict) -> BasisLabel:
    """A basis label of a state document, built anew on every call: the loader
    as it stood before each load shared its levels and labels."""
    if not isinstance(obj, dict):
        raise TypeError(f"basis label is not an object: {_shown(obj)}")
    kind = obj.get("type")
    if kind == "spin":
        return SpinWeight(_integer(obj, "twice_j"), _integer(obj, "twice_m"))
    if kind == "point":
        return Point(_integer(obj, "index"))
    if kind == "named":
        return Named(str(obj["text"]))
    raise ValueError(f"unknown basis label type {_shown(kind)}")


def reference_state_from_obj(obj: dict) -> HierState:
    """The tree of a state document with a new level and new labels at every node."""
    level = HierarchyLevel(
        level_index=_integer(obj, "level"),
        group=str(obj["group"]),
        basis=tuple(reference_label_from_obj(b) for b in obj["basis"]),
    )
    wave = NodeWave(
        level=level,
        amplitudes=tuple(map(_amplitude, obj["amplitudes"])),
        statistics=obj.get("statistics", UNSPECIFIED),
        quantum_numbers=obj.get("quantum_numbers"),  # checked by NodeWave
    )
    try:
        return HierState(wave, tuple(reference_state_from_obj(c) for c in obj.get("children", [])))
    except RecursionError:
        raise StateTooDeepError(_TOO_DEEP) from None


def reference_congruent(phi: HierState, psi: HierState) -> bool:
    """congruent by plain recursion."""
    return (
        phi.wave.level == psi.wave.level
        and len(phi.children) == len(psi.children)
        and all(reference_congruent(a, b) for a, b in zip(phi.children, psi.children))
    )


def reference_equal(phi: HierState, psi: HierState) -> bool:
    """Tree equality by plain recursion: equal waves and equal child lists."""
    return (
        phi.wave == psi.wave
        and len(phi.children) == len(psi.children)
        and all(reference_equal(a, b) for a, b in zip(phi.children, psi.children))
    )


_DATACLASSES: dict[type, type] = {}


def _as_dataclass(value):
    if isinstance(value, _Value):
        cls = type(value)
        if cls not in _DATACLASSES:
            _DATACLASSES[cls] = make_dataclass(cls.__name__, cls.__slots__, frozen=True)
        return _DATACLASSES[cls](*(_as_dataclass(getattr(value, name)) for name in cls.__slots__))
    if type(value) is tuple:
        return tuple(map(_as_dataclass, value))
    return value


def reference_repr(value) -> str:
    """repr(value) with every hierwave value type in it, in a field or in a plain
    tuple, rebuilt as a frozen dataclass of the same name and fields: the text
    _Value.__repr__ gives, by recursion, so for shallow values only."""
    return repr(_as_dataclass(value))


def chain_state(depth: int, n_leaves: int = 1) -> HierState:
    """A chain of spin-1/2 nodes at levels 0..depth-1 whose last node has
    ``n_leaves`` identical fermionic spin-1/2 leaves at level ``depth``;
    built bottom-up, so any depth is cheap."""

    def wave(level_index: int, statistics: str = UNSPECIFIED) -> NodeWave:
        level = HierarchyLevel(level_index, SU2, (SpinWeight(1, 1),))
        return NodeWave(level, (1.0,), statistics)

    children = (HierState(wave(depth, FERMION)),) * n_leaves
    for d in range(depth - 1, -1, -1):
        children = (HierState(wave(d), children),)
    return children[0]


def chain_state_json(depth: int) -> str:
    """JSON text of chain_state(depth), written by hand because past about
    490 tree levels the json module can neither write nor read it."""
    spin = '{"type": "spin", "twice_j": 1, "twice_m": 1}'
    return "".join(
        f'{{"level": {d}, "group": "SU2", "basis": [{spin}], "amplitudes": [[1.0, 0.0]], '
        f'"statistics": "{FERMION if d == depth else UNSPECIFIED}", "children": ['
        for d in range(depth + 1)
    ) + "]}" * (depth + 1)


def reference_constant_mass_rk4(m, k, x, v, dt, steps):
    """Plain RK4 on (x, v) for two constant-mass bodies with harmonic coupling;
    k may be None for free motion.  Returns list of (t, x1, x2, v1, v2)."""

    def deriv(y):
        x1, x2, v1, v2 = y
        if k is None:
            f = 0.0
        else:
            f = -k * (x1 - x2)
        return (v1, v2, f / m, -f / m)

    y = (x[0], x[1], v[0], v[1])
    out = [(0.0, *y)]
    for n in range(steps):
        k1 = deriv(y)
        k2 = deriv(tuple(y[i] + 0.5 * dt * k1[i] for i in range(4)))
        k3 = deriv(tuple(y[i] + 0.5 * dt * k2[i] for i in range(4)))
        k4 = deriv(tuple(y[i] + dt * k3[i] for i in range(4)))
        y = tuple(y[i] + dt / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(4))
        out.append(((n + 1) * dt, *y))
    return out


def newton_invert_momentum(
    cfg: SimConfig, block: int, p: float, bracket=None, tol: float = 1e-13, max_iter: int = 50
) -> float:
    """Reference v(p) for p = m0*v + s1*s2*(lambda0*v + 2*lambda1*v^3): Newton
    iteration with a bisection safeguard, the solver the simulator used before
    its closed form.  Both stopping rules are relative, so small |v| is
    resolved too.  Without a bracket one is grown around p/m0; that fails or
    can straddle the wrong root once dp/dv changes sign (s1*s2*lambda1 < 0),
    so pass the monotone interval (-r, r), with dp/dv(+-r) = 0, there."""
    sig = cfg.spin_product(block)

    def f(v: float) -> float:
        return momentum(cfg, block, v) - p

    def fp(v: float) -> float:
        return cfg.m0 + sig * (cfg.lambda0 + 6.0 * cfg.lambda1 * v * v)

    if bracket is None:
        v = p / cfg.m0
        lo, hi = v - 1.0, v + 1.0
        grow = 1.0
        for _ in range(200):
            if f(lo) <= 0.0 <= f(hi):
                break
            grow *= 2.0
            lo -= grow
            hi += grow
        else:
            raise RuntimeError(f"could not bracket v for p={p!r}")
    else:
        lo, hi = bracket
        v = 0.5 * (lo + hi)

    for _ in range(max_iter):
        fv = f(v)
        if abs(fv) <= tol * abs(p):
            return v
        if fv > 0.0:
            hi = v
        else:
            lo = v
        d = fp(v)
        step_ok = d > 0.0
        if step_ok:
            v_new = v - fv / d
            step_ok = lo <= v_new <= hi
        if not step_ok:
            v_new = 0.5 * (lo + hi)
        if abs(v_new - v) <= tol * abs(v):
            return v_new
        v = v_new
    raise RuntimeError(f"no convergence inverting p={p!r} for block {block + 1}")


# Reference integrator for hierwave.dynamics: the step loop as it stood before
# each block's inverse was chosen once per branch.  Every RK4 stage unpacks
# the branch tuple and dispatches on b and 2r; run() and step() must match it
# bit for bit up to the first sample that is not finite, which it keeps.


def reference_branch(cfg: SimConfig, block: int) -> tuple:
    """Constants (block, a, b, 2r, p_c) of the monotone branch of p = a*v + b*v^3."""
    sig = cfg.spin_product(block)
    a = cfg.m0 + sig * cfg.lambda0
    b = 2.0 * sig * cfg.lambda1
    if a <= 0.0:
        raise LegendreSingularityError(
            f"dp/dv at v=0 is {a!r} <= 0 for block {block + 1}: p(v) is not monotone"
        )
    r = math.sqrt(a / (3.0 * abs(b))) if b else math.inf
    if r == math.inf:
        return block, a, b, 0.0, 0.0
    return block, a, b, 2.0 * r, 2.0 * a * r / 3.0


def reference_velocity(branch: tuple, p: float) -> float:
    block, a, b, two_r, p_c = branch
    if two_r == 0.0:
        v = p / a
    elif b > 0.0:
        v = two_r * math.sinh(math.asinh(p / p_c) / 3.0)
    elif -p_c < p < p_c:
        v = two_r * math.sin(math.asin(p / p_c) / 3.0)
    else:
        raise LegendreSingularityError(
            f"p={p!r} for block {block + 1} is past the turning momentum {p_c!r} where dp/dv = 0"
        )
    m = a + 0.5 * b * v * v
    if m <= 0.0:
        raise NonpositiveMassError(f"effective mass {m!r} for block {block + 1} at v={v!r}")
    return v


def reference_branches(cfg: SimConfig, v: tuple[float, float]) -> tuple[tuple, tuple]:
    out = []
    for i in (0, 1):
        effective_mass(cfg, i, v[i])
        branch = reference_branch(cfg, i)
        slope = branch[1] + 3.0 * branch[2] * v[i] * v[i]
        if slope <= 0.0:
            raise LegendreSingularityError(f"dp/dv = {slope!r} <= 0 for block {i + 1} at v={v[i]!r}")
        out.append(branch)
    return out[0], out[1]


def _reference_block_energy(branch: tuple, v: float) -> float:
    w = v * v
    return w * (0.5 * branch[1] + 0.75 * branch[2] * w)


def reference_rk4(dt, k, br1, br2, x1, x2, p1, p2, v1, v2):
    """One RK4 step on (x1, x2, p1, p2); returns the new (x1, x2, p1, p2, v1, v2)."""
    h = 0.5 * dt
    f1 = -k * (x1 - x2)
    u2 = reference_velocity(br1, p1 + h * f1)
    w2 = reference_velocity(br2, p2 - h * f1)
    f2 = -k * ((x1 + h * v1) - (x2 + h * v2))
    u3 = reference_velocity(br1, p1 + h * f2)
    w3 = reference_velocity(br2, p2 - h * f2)
    f3 = -k * ((x1 + h * u2) - (x2 + h * w2))
    u4 = reference_velocity(br1, p1 + dt * f3)
    w4 = reference_velocity(br2, p2 - dt * f3)
    f4 = -k * ((x1 + dt * u3) - (x2 + dt * w3))
    s = dt / 6.0
    df = s * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    p1 += df
    p2 -= df
    return (
        x1 + s * (v1 + 2.0 * u2 + 2.0 * u3 + u4),
        x2 + s * (v2 + 2.0 * w2 + 2.0 * w3 + w4),
        p1,
        p2,
        reference_velocity(br1, p1),
        reference_velocity(br2, p2),
    )


def reference_step(cfg: SimConfig, state: SimState) -> SimState:
    v1, v2 = state.v
    br1, br2 = reference_branches(cfg, state.v)
    x1, x2, _, _, v1, v2 = reference_rk4(
        cfg.dt, cfg.k, br1, br2, state.x[0], state.x[1],
        momentum(cfg, 0, v1), momentum(cfg, 1, v2), v1, v2,
    )
    return SimState(t=state.t + cfg.dt, x=(x1, x2), v=(v1, v2))


def reference_run(cfg: SimConfig) -> Trajectory:
    """The trajectory with every sample, finite or not: only an inadmissible
    state ends it early, with the error recorded."""
    samples = []
    dt, k = cfg.dt, cfg.k
    lam = potential_energy(cfg, (0.0, 0.0))
    t = 0.0
    x1, x2 = cfg.x_init
    v1, v2 = cfg.v_init
    try:
        br1, br2 = reference_branches(cfg, cfg.v_init)
        a1, b1, a2, b2 = br1[1], 0.5 * br1[2], br2[1], 0.5 * br2[2]
        p1, p2 = momentum(cfg, 0, v1), momentum(cfg, 1, v2)
        for n in range(cfg.steps + 1):
            if n:
                x1, x2, p1, p2, v1, v2 = reference_rk4(dt, k, br1, br2, x1, x2, p1, p2, v1, v2)
                t += dt
            r = x1 - x2
            e = _reference_block_energy(br1, v1) + _reference_block_energy(br2, v2) + (0.5 * k * r * r + lam)
            samples.append(TrajectorySample(t, x1, x2, v1, v2, a1 + b1 * v1 * v1, a2 + b2 * v2 * v2, e))
    except (NonpositiveMassError, LegendreSingularityError) as exc:
        return Trajectory(samples, f"{type(exc).__name__}: {exc}")
    return Trajectory(samples)


# Bit-exact reference coder for hierwave.complexity: builds the stream that
# description_length only counts, and decodes it back.


def _unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z + 1) // 2


def _gamma_bits(n: int) -> list[int]:
    assert n >= 1
    b = bin(n)[2:]
    return [0] * (len(b) - 1) + [int(c) for c in b]


def _read_gamma(bits: Sequence[int], pos: int) -> tuple[int, int]:
    zeros = 0
    while pos < len(bits) and bits[pos] == 0:
        zeros += 1
        pos += 1
    end = pos + zeros + 1
    if end > len(bits):
        raise ValueError("truncated gamma code")
    n = int("".join(str(b) for b in bits[pos:end]), 2)
    return n, end


def encode_symbols(symbols: Sequence[int]) -> list[int]:
    """Compress to a bit list: dictionary header, length, MTF+RLE body."""
    if not symbols:
        raise ValueError("cannot encode an empty symbol sequence")
    order = _first_appearance(symbols)
    index = {s: i for i, s in enumerate(order)}
    bits = _gamma_bits(len(order))
    for s in order:
        bits.extend(_gamma_bits(_zigzag(s) + 1))
    bits.extend(_gamma_bits(len(symbols)))

    mtf = list(range(len(order)))
    stream: list[int] = []
    for s in symbols:
        i = index[s]
        pos = mtf.index(i)
        stream.append(pos)
        del mtf[pos]
        mtf.insert(0, i)

    run_val = stream[0]
    run_len = 1
    for v in stream[1:]:
        if v == run_val:
            run_len += 1
        else:
            bits.extend(_gamma_bits(run_val + 1))
            bits.extend(_gamma_bits(run_len))
            run_val, run_len = v, 1
    bits.extend(_gamma_bits(run_val + 1))
    bits.extend(_gamma_bits(run_len))
    return bits


def scan_description_length(symbols: Sequence[int]) -> int:
    """The coder's bit count with an explicit move-to-front list, found by
    an O(K) scan per symbol."""
    if not symbols:
        raise ValueError("cannot encode an empty symbol sequence")
    bits = dictionary_header_bits(symbols) + _gamma_len(len(symbols))
    index = {s: i for i, s in enumerate(_first_appearance(symbols))}
    mtf = list(range(len(index)))
    # the first symbol always sits at MTF position 0, so the first run
    # starts there
    run_val, run_len = 0, 0
    for s in symbols:
        i = index[s]
        pos = mtf.index(i)
        del mtf[pos]
        mtf.insert(0, i)
        if pos == run_val:
            run_len += 1
        else:
            bits += _gamma_len(run_val + 1) + _gamma_len(run_len)
            run_val, run_len = pos, 1
    return bits + _gamma_len(run_val + 1) + _gamma_len(run_len)


def reference_series_values(values, quantization: float) -> tuple[float, ...]:
    """The values MatrixElementSeries stored before it converted with map():
    each one through float() in a generator, then the same two checks."""
    values = tuple(float(v) for v in values)
    if not values:
        raise ValueError("series must be non-empty")
    if not 0 < quantization < math.inf:
        raise ValueError(f"quantization must be positive and finite, got {quantization!r}")
    return values


def reference_symbolize(values: Sequence[float], q: float) -> list[int]:
    """symbolize as a list comprehension, before it mapped floor and truediv."""
    try:
        return [math.floor(v / q) for v in values]
    except (OverflowError, ValueError):
        i, v = next((i, v) for i, v in enumerate(values, 1) if not math.isfinite(v / q))
        raise ValueError(f"value {i} is {v!r}: {v!r} / {q!r} is not finite") from None


def reference_description_length(symbols: Sequence[int]) -> int:
    """The recency-rank coder with two _gamma_len calls per run, before each
    run's code lengths were summed inline."""
    if not symbols:
        raise ValueError("cannot encode an empty symbol sequence")
    order = _first_appearance(symbols)
    k = len(order)
    bits = _header_bits(order) + _gamma_len(len(symbols))
    last = {s: -1 - i for i, s in enumerate(order)}
    times = list(range(-k, 0))
    top = k - 1
    prev = order[0]
    run_val, run_len = 0, 0
    for t, s in enumerate(symbols):
        if s == prev:
            pos = 0
        else:
            i = bisect_left(times, last[s])
            del times[i]
            times.append(t)
            last[s] = t
            prev = s
            pos = top - i
        if pos == run_val:
            run_len += 1
        else:
            bits += _gamma_len(run_val + 1) + _gamma_len(run_len)
            run_val, run_len = pos, 1
    return bits + _gamma_len(run_val + 1) + _gamma_len(run_len)


def decode_symbols(bits: Sequence[int]) -> list[int]:
    """Inverse of encode_symbols."""
    pos = 0
    k, pos = _read_gamma(bits, pos)
    order = []
    for _ in range(k):
        z, pos = _read_gamma(bits, pos)
        order.append(_unzigzag(z - 1))
    n, pos = _read_gamma(bits, pos)

    mtf = list(range(k))
    out: list[int] = []
    while len(out) < n:
        val, pos = _read_gamma(bits, pos)
        length, pos = _read_gamma(bits, pos)
        mtf_pos = val - 1
        # replay the move-to-front step per element: a repeated non-zero
        # position keeps re-reading the list after each move
        for _ in range(length):
            i = mtf[mtf_pos]
            del mtf[mtf_pos]
            mtf.insert(0, i)
            out.append(order[i])
    if len(out) != n:
        raise ValueError("run-length payload overshoots declared length")
    return out


# Rational reference for hierwave.rep_theory._cg_value: the Racah sum in
# Fraction arithmetic, which the integer sum must match bit for bit.


def _fact2(twice: int) -> int:
    # factorial of an integer handed over as its doubled value
    assert twice % 2 == 0 and twice >= 0
    return factorial(twice // 2)


def fraction_cg_value(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    if tM != tm1 + tm2:
        return 0.0
    if not abs(tj1 - tj2) <= tJ <= tj1 + tj2:
        return 0.0
    if (tj1 + tj2 + tJ) % 2 != 0:
        return 0.0

    pref = Fraction(tJ + 1)
    pref *= Fraction(
        _fact2(tj1 + tj2 - tJ) * _fact2(tj1 - tj2 + tJ) * _fact2(-tj1 + tj2 + tJ),
        _fact2(tj1 + tj2 + tJ + 2),
    )
    pref *= (
        _fact2(tJ + tM)
        * _fact2(tJ - tM)
        * _fact2(tj1 - tm1)
        * _fact2(tj1 + tm1)
        * _fact2(tj2 - tm2)
        * _fact2(tj2 + tm2)
    )

    k_min = max(0, (tj2 - tJ - tm1) // 2, (tj1 - tJ + tm2) // 2)
    k_max = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        denom = (
            factorial(k)
            * _fact2(tj1 + tj2 - tJ - 2 * k)
            * _fact2(tj1 - tm1 - 2 * k)
            * _fact2(tj2 + tm2 - 2 * k)
            * _fact2(tJ - tj2 + tm1 + 2 * k)
            * _fact2(tJ - tj1 - tm2 + 2 * k)
        )
        total += Fraction(-1 if k % 2 else 1, denom)
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * sqrt(float(pref * total * total))


# Factorial-form reference for hierwave.rep_theory._cg_value: the integer Racah
# sum the binomial form replaced, one big-integer division per term.

_REF_FACT = [1]  # _REF_FACT[n] == n!, extended on demand


def _ref_factorials(n: int) -> list[int]:
    for i in range(len(_REF_FACT), n + 1):
        _REF_FACT.append(_REF_FACT[-1] * i)
    return _REF_FACT


def reference_cg_value(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    """<j1 m1 j2 m2 | J M> for a valid query (doubled integers), from Racah's
    sum over k of (-1)^k / (k! (a-k)! (b-k)! (c-k)! (d+k)! (e+k)!) times the
    common denominator D, with the -m member of each pair taking the
    (-1)^(j1+j2-J) phase: the factorial form before the binomial one."""
    if tM != tm1 + tm2:
        return 0.0
    if not abs(tj1 - tj2) <= tJ <= tj1 + tj2:
        return 0.0
    if (tj1 + tj2 + tJ) % 2 != 0:
        return 0.0
    if tM < 0 or (tM == 0 and tm1 < 0):
        v = reference_cg_value(tj1, -tm1, tj2, -tm2, tJ, -tM)
        return -v if v and (tj1 + tj2 - tJ) % 4 else v

    a = (tj1 + tj2 - tJ) // 2
    b = (tj1 - tm1) // 2
    c = (tj2 + tm2) // 2
    d = (tJ - tj2 + tm1) // 2
    e = (tJ - tj1 - tm2) // 2
    k_min = max(0, -d, -e)
    k_max = min(a, b, c)
    f = _ref_factorials((tj1 + tj2 + tJ) // 2 + 1)
    D = f[k_max] * f[a - k_min] * f[b - k_min] * f[c - k_min] * f[d + k_max] * f[e + k_max]
    S = 0
    for k in range(k_min, k_max + 1):
        term = D // (f[k] * f[a - k] * f[b - k] * f[c - k] * f[d + k] * f[e + k])
        S += -term if k % 2 else term
    if S == 0:
        return 0.0

    num = (
        (tJ + 1)
        * f[a] * f[(tj1 - tj2 + tJ) // 2] * f[(tj2 - tj1 + tJ) // 2]
        * f[(tJ + tM) // 2] * f[(tJ - tM) // 2]
        * f[b] * f[(tj1 + tm1) // 2]
        * f[(tj2 - tm2) // 2] * f[c]
        * S * S
    )
    den = f[(tj1 + tj2 + tJ) // 2 + 1] * D * D
    value = sqrt(num / den)
    return value if S > 0 else -value
