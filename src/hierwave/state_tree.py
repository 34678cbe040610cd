"""Tree-structured hierarchical wave functions.

A state assigns a wave function to the whole system and, recursively, to
each of its components one hierarchy level down.  The set of such trees
carries a vector-space structure: scalar multiplication acts on every
node, addition is componentwise and only defined between congruent trees.
There is deliberately no product or commutator between a node and its
children; those objects live in different spaces.
"""

from __future__ import annotations

import cmath
import json
from collections import namedtuple
from collections.abc import Iterator
from functools import partial
from operator import attrgetter

from ._value import _NUMBER, _as_integer, _assemble, _document, _exact, _members, _numbers, _preorder, _shown, _Value
from .rep_theory import _check_weight, check_spin_range

# symmetry-group tags; any other string is treated as a custom group
SU2 = "SU2"
TRANSLATION_1D = "Translation1D"

# particle statistics
BOSON = "boson"
FERMION = "fermion"
UNSPECIFIED = "unspecified"
STATISTICS = (BOSON, FERMION, UNSPECIFIED)

AMPLITUDE_TOL = 1e-12
_TOO_DEEP = "state exceeds the json module's JSON nesting limit (2 JSON levels per tree level)"

class ShapeMismatchError(ValueError):
    """Addition of trees that are not congruent."""


class StateTooDeepError(ValueError):
    """A state nested deeper than its JSON form allows."""


class SpinWeight(_Value):
    """SU(2) weight label (j, m), stored as doubled integers so half-integer
    spins stay exact."""

    __slots__ = ("twice_j", "twice_m")

    def __init__(self, twice_j: int, twice_m: int) -> None:
        _check_weight(twice_j, twice_m, ValueError, "")
        check_spin_range(twice_j)
        object.__setattr__(self, "twice_j", twice_j)
        object.__setattr__(self, "twice_m", twice_m)


class Point(_Value):
    """Discrete coordinate label on a spatial-type group."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        object.__setattr__(self, "index", _exact(index, int, "index", "an int"))


class Named(_Value):
    """Free-form basis label."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        object.__setattr__(self, "text", _exact(text, str, "text", "a str"))


BasisLabel = SpinWeight | Point | Named


class HierarchyLevel(_Value):
    """One hierarchy level: a scale index, the symmetry group acting at that
    scale, and a finite ordered basis realizing the coordinates on it."""

    __slots__ = ("level_index", "group", "basis")

    def __init__(self, level_index: int, group: str, basis: tuple[BasisLabel, ...]) -> None:
        object.__setattr__(self, "level_index", _exact(level_index, int, "level_index", "an int"))
        object.__setattr__(self, "group", _exact(group, str, "group", "a str"))
        basis = _members(basis, (SpinWeight, Point, Named), "basis", "a sequence of basis labels")
        object.__setattr__(self, "basis", basis)


class NodeWave(_Value):
    """Wave function of a single node: one complex amplitude per basis label.
    Each amplitude is given as a number or an exact complex (_value._numbers),
    so a str, a bool or a Decimal is refused."""

    __slots__ = ("level", "amplitudes", "statistics", "quantum_numbers")

    def __init__(self, level: HierarchyLevel, amplitudes: tuple[complex, ...],
                 statistics: str = UNSPECIFIED, quantum_numbers: tuple[int, ...] | None = None) -> None:
        object.__setattr__(self, "level", _exact(level, HierarchyLevel, "level", "a HierarchyLevel"))
        amplitudes = _numbers(amplitudes, amplitudes, complex, "amplitudes", "a sequence of numbers")
        object.__setattr__(self, "amplitudes", amplitudes)
        if statistics not in STATISTICS:  # a tuple, so an unhashable value is refused too
            raise ValueError(f"statistics must be one of {', '.join(STATISTICS)}, got {_shown(statistics)}")
        object.__setattr__(self, "statistics", statistics)
        qn = quantum_numbers
        if qn is not None:
            # each element an int or an integral float, as in a state file
            ints = tuple(map(_as_integer, qn)) if isinstance(qn, (list, tuple)) else (None,)
            if None in ints:
                raise ValueError(f"quantum_numbers must be a list of integers, got {_shown(qn)}")
            qn = ints
        object.__setattr__(self, "quantum_numbers", qn)

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes)


class HierState(_Value):
    """Hierarchical state: this node's wave plus the states of its direct
    components (children one level deeper), each a HierState.

    Its key, which equality and hash read, is the pre-order (wave, child
    count) sequence, which fixes the tree, and copy and pickle rebuild it from
    that sequence, so none of them recurse and depth is unbounded."""

    __slots__ = ("wave", "children")

    def __init__(self, wave: NodeWave, children: tuple[HierState, ...] = ()) -> None:
        object.__setattr__(self, "wave", _exact(wave, NodeWave, "wave", "a NodeWave"))
        object.__setattr__(self, "children", _members(children, (HierState,), "children", "a sequence of HierStates"))

    def _key(self) -> tuple:
        return tuple(_preorder(self, _wave_and_children))

    def __reduce__(self):
        return _assemble, (self._key(), HierState)


# the visit of _preorder for a HierState: its (wave, child count) sequence fixes the tree
_wave_and_children = attrgetter("wave", "children")

Violation = namedtuple("Violation", ("path", "message"))


def iter_nodes(psi: HierState) -> Iterator[tuple[str, HierState]]:
    """Pre-order traversal yielding (path, node); children are addressed by
    index, e.g. "root.0.1".  Iterative, so depth is unbounded; the child
    (path, node) pairs are built only for a node that has children.  Each
    path is O(depth) characters long, so keeping the paths of a depth-d chain
    takes O(d^2) characters."""
    stack = [("root", psi)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if node.children:
            stack.extend(reversed([(f"{path}.{i}", c) for i, c in enumerate(node.children)]))


def dominant_label(wave: NodeWave) -> BasisLabel:
    """Basis label of the largest-|amplitude| entry; ties go to the lowest index."""
    if not wave.amplitudes:
        raise ValueError("node has no amplitudes")
    if len(wave.amplitudes) != len(wave.level.basis):
        raise ValueError(
            f"amplitude count {len(wave.amplitudes)} != basis size {len(wave.level.basis)}")
    mags = [abs(a) for a in wave.amplitudes]
    return wave.level.basis[mags.index(max(mags))]


def scalar_mul(a: complex, psi: HierState) -> HierState:
    """Multiply every amplitude at every node by a; tree shape is preserved."""
    return _assemble(
        ((NodeWave(w.level, [a * x for x in w.amplitudes], w.statistics, w.quantum_numbers), n)
         for w, n in _preorder(psi, _wave_and_children)),
        HierState,
    )


def congruent(phi: HierState, psi: HierState) -> bool:
    """True iff the trees have identical shape, level indices, group tags and
    bases node by node."""
    return all(
        p.level == q.level and m == n
        for (p, m), (q, n) in zip(_preorder(phi, _wave_and_children), _preorder(psi, _wave_and_children))
    )


def add(phi: HierState, psi: HierState) -> HierState:
    """Componentwise sum of two congruent trees."""
    if not congruent(phi, psi):
        raise ShapeMismatchError("cannot add non-congruent hierarchical states")
    return _assemble(
        ((NodeWave(p.level, [x + y for x, y in zip(p.amplitudes, q.amplitudes)],
                   p.statistics, p.quantum_numbers), n)
         for (p, n), (q, _) in zip(_preorder(phi, _wave_and_children), _preorder(psi, _wave_and_children))),
        HierState,
    )


def validate_tree(psi: HierState, require_normalized: bool = False) -> list[Violation]:
    """Check structural invariants; violations are returned as data, never raised.

    Checked per node: non-empty unique basis, amplitude/basis length match,
    children sharing one level index strictly greater than the parent's, and
    optionally unit norm.
    """
    out: list[Violation] = []
    for path, node in iter_nodes(psi):
        level = node.wave.level
        if not level.basis:
            out.append(Violation(path, "basis is empty"))
        if len(set(level.basis)) != len(level.basis):
            out.append(Violation(path, "basis labels are not unique"))
        if len(node.wave.amplitudes) != len(level.basis):
            out.append(
                Violation(
                    path,
                    f"amplitude count {len(node.wave.amplitudes)} != basis size {len(level.basis)}",
                )
            )
        if node.children:
            child_levels = {c.wave.level.level_index for c in node.children}
            if len(child_levels) > 1:
                out.append(Violation(path, f"children mix level indices {sorted(child_levels)}"))
            for i, child in enumerate(node.children):
                index = child.wave.level.level_index
                if index <= level.level_index:
                    out.append(Violation(f"{path}.{i}", f"child level index {index} not greater "
                                                        f"than parent's {level.level_index}"))
        if require_normalized:
            n = node.wave.norm_sq()
            # n - 1.0 is exact for n in [0.5, 2], and neither 1 + 1e-12 nor 1 - 1e-12 is a
            # double, so the difference never equals AMPLITUDE_TOL and > acts as >= would
            if abs(n - 1.0) > AMPLITUDE_TOL:
                out.append(Violation(path, f"norm^2 = {n!r} is not 1"))
    return out


# --- JSON serialization -----------------------------------------------------
#
# node = {level, group, basis: [...], amplitudes: [[re, im], ...],
#         statistics, quantum_numbers?, children: [...]}
# Floats round-trip bit-faithfully (repr-based shortest form).


def _label_to_obj(label: BasisLabel) -> dict:
    if isinstance(label, SpinWeight):
        return {"type": "spin", "twice_j": label.twice_j, "twice_m": label.twice_m}
    if isinstance(label, Point):
        return {"type": "point", "index": label.index}
    return {"type": "named", "text": label.text}


def _integer(obj: dict, key: str) -> int:
    """obj[key] as an int; JSON integers and integral floats only."""
    value = _as_integer(obj[key])
    if value is None:
        raise ValueError(f"{key} must be an integer, got {_shown(obj[key])}")
    return value


def _amplitude(pair) -> complex:
    """An [re, im] pair of finite numbers (_value._NUMBER) as a complex."""
    if isinstance(pair, list) and len(pair) == 2:
        re, im = pair
        if re.__class__ in _NUMBER and im.__class__ in _NUMBER:
            try:
                z = complex(re, im)
            except OverflowError:  # an integer beyond the float range
                pass
            else:
                if cmath.isfinite(z):
                    return z
    raise ValueError(f"amplitudes must be [re, im] pairs of finite numbers, got {_shown(pair)}")


def _label_key(obj: dict, shared: dict) -> tuple:
    """The label's class and checked fields; the label itself is built into
    shared the first time its key appears."""
    if not isinstance(obj, dict):
        raise TypeError(f"basis label is not an object: {_shown(obj)}")
    kind = obj.get("type")
    if kind == "spin":
        key = SpinWeight, _integer(obj, "twice_j"), _integer(obj, "twice_m")
    elif kind == "point":
        key = Point, _integer(obj, "index")
    elif kind == "named":
        key = Named, str(obj["text"])
    else:
        raise ValueError(f"unknown basis label type {_shown(kind)}")
    if key not in shared:
        shared[key] = key[0](*key[1:])
    return key


def _node_obj(bases: dict, wave: NodeWave, children: list[dict]) -> dict:
    """A node's document: "children" before "quantum_numbers", if it has them.
    bases maps id(level) to the level's basis list, built at the level's first
    node, so the nodes of one level share that list; the caller keeps the
    levels alive while bases is in use, so no id is reused."""
    level = wave.level
    basis = bases.get(id(level))
    if basis is None:
        basis = bases[id(level)] = [_label_to_obj(b) for b in level.basis]
    obj = {
        "level": level.level_index,
        "group": level.group,
        "basis": basis,
        "amplitudes": [[a.real, a.imag] for a in wave.amplitudes],
        "statistics": wave.statistics,
        "children": children,
    }
    if wave.quantum_numbers is not None:
        obj["quantum_numbers"] = list(wave.quantum_numbers)
    return obj


def state_to_obj(psi: HierState) -> dict:
    """The document of a state, of any depth, to be read or encoded and not
    edited in place: the nodes of one level share one basis list, built
    once per call (_node_obj), while psi keeps every level alive."""
    return _assemble(_preorder(psi, _wave_and_children), partial(_node_obj, {}))


def state_from_obj(obj: dict) -> HierState:
    """The tree of a state document, of any depth; the first bad node in
    pre-order is the one named.  Each distinct level, and each distinct
    label, is built once per call and shared by every node that has it.
    A bad document raises only ValueError or a subclass (_value._document):
    a missing key reads "not a hierwave state: a node lacks key 'k'"."""
    # shared maps each key, the checked content of a level (level int, group,
    # label keys) or of a label (class, fields), to the one object built for it
    shared: dict = {}

    def visit(obj: dict) -> tuple[NodeWave, list]:
        key = _integer(obj, "level"), str(obj["group"]), tuple([_label_key(b, shared) for b in obj["basis"]])
        if key not in shared:
            shared[key] = HierarchyLevel(key[0], key[1], map(shared.__getitem__, key[2]))
        # the amplitudes are checked as NodeWave reads them, before it checks the rest
        wave = NodeWave(shared[key], map(_amplitude, obj["amplitudes"]), obj.get("statistics", UNSPECIFIED),
                        obj.get("quantum_numbers"))
        return wave, list(obj.get("children", []))

    return _document("state", "a node lacks key", lambda root: _assemble(_preorder(root, visit), HierState), obj)


def state_to_json(psi: HierState) -> str:
    """The JSON text of a state; one with a non-finite amplitude, which JSON
    cannot hold and state_from_json refuses, or with an int too long for
    str(), raises ValueError."""
    try:
        return json.dumps(state_to_obj(psi), check_circular=False, allow_nan=False)  # state_to_obj builds no cycle
    except RecursionError:
        raise StateTooDeepError(_TOO_DEEP) from None
    except ValueError:  # json's own text for a non-finite float differs between Python versions
        if not all(cmath.isfinite(a) for w, _ in _preorder(psi, _wave_and_children) for a in w.amplitudes):
            raise ValueError("amplitudes must be finite to be saved: JSON has no NaN or infinity") from None
        _refuse_int_too_long_for_str(psi)  # an int too long for str(), which json refuses too
        raise


def _refuse_int_too_long_for_str(psi: HierState) -> None:
    """Raise ValueError naming the node and field of the first int in
    pre-order that str(), and so json, refuses: past
    sys.get_int_max_str_digits() digits."""
    for path, node in iter_nodes(psi):
        wave = node.wave
        fields = [("level_index", wave.level.level_index)]
        fields += [(f"basis[{i}].index", b.index) for i, b in enumerate(wave.level.basis) if isinstance(b, Point)]
        fields += [(f"quantum_numbers[{i}]", q) for i, q in enumerate(wave.quantum_numbers or ())]
        for field, value in fields:
            try:
                str(value)
            except ValueError:
                raise ValueError(f"{path}: {field} is {_shown(value)}, "
                                 "too long for integer string conversion") from None


def state_from_json(text: str) -> HierState:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise StateTooDeepError(_TOO_DEEP) from None
    return state_from_obj(obj)


def load_state(path: str) -> HierState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(fh.read())


def save_state(psi: HierState, path: str) -> None:
    text = state_to_json(psi) + "\n"  # before opening, so a failure leaves the file intact
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
