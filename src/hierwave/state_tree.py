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
from collections.abc import Iterable, Iterator
from itertools import zip_longest

from ._value import _shown, _Value
from .rep_theory import check_spin_range

# symmetry-group tags; any other string is treated as a custom group
SU2 = "SU2"
TRANSLATION_1D = "Translation1D"

# particle statistics
BOSON = "boson"
FERMION = "fermion"
UNSPECIFIED = "unspecified"
STATISTICS = (BOSON, FERMION, UNSPECIFIED)

AMPLITUDE_TOL = 1e-12
_TOO_DEEP = "state exceeds the JSON nesting limit of about 490 tree levels (2 JSON levels each)"

class ShapeMismatchError(ValueError):
    """Addition of trees that are not congruent."""


class StateTooDeepError(ValueError):
    """A state nested deeper than its JSON form allows."""


class SpinWeight(_Value):
    """SU(2) weight label (j, m), stored as doubled integers so half-integer
    spins stay exact."""

    __slots__ = ("twice_j", "twice_m")

    def __init__(self, twice_j: int, twice_m: int) -> None:
        # exact ints only, as in IrrepLabel: a float or bool would pass as an equal label
        if type(twice_j) is not int:
            raise ValueError(f"twice_j must be an int, got {_shown(twice_j)}")
        if type(twice_m) is not int:
            raise ValueError(f"twice_m must be an int, got {_shown(twice_m)}")
        if twice_j < 0:
            raise ValueError(f"twice_j must be >= 0, got {_shown(twice_j)}")
        check_spin_range(twice_j)
        if abs(twice_m) > twice_j:
            raise ValueError(f"|m| > j for (2j, 2m) = ({twice_j}, {_shown(twice_m)})")
        if (twice_m - twice_j) % 2 != 0:
            raise ValueError(f"m and j parity mismatch: (2j, 2m) = ({twice_j}, {twice_m})")
        object.__setattr__(self, "twice_j", twice_j)
        object.__setattr__(self, "twice_m", twice_m)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.twice_j == other.twice_j and self.twice_m == other.twice_m

    def __hash__(self) -> int:
        return hash((self.twice_j, self.twice_m))


class Point(_Value):
    """Discrete coordinate label on a spatial-type group."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        if type(index) is not int:
            raise ValueError(f"index must be an int, got {_shown(index)}")
        object.__setattr__(self, "index", index)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.index == other.index

    def __hash__(self) -> int:
        return hash((self.index,))


class Named(_Value):
    """Free-form basis label."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        object.__setattr__(self, "text", text)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.text == other.text

    def __hash__(self) -> int:
        return hash((self.text,))


BasisLabel = SpinWeight | Point | Named


class HierarchyLevel(_Value):
    """One hierarchy level: a scale index, the symmetry group acting at that
    scale, and a finite ordered basis realizing the coordinates on it."""

    __slots__ = ("level_index", "group", "basis")

    def __init__(self, level_index: int, group: str, basis: tuple[BasisLabel, ...]) -> None:
        object.__setattr__(self, "level_index", level_index)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "basis", tuple(basis))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.level_index == other.level_index and self.group == other.group and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.level_index, self.group, self.basis))


class NodeWave(_Value):
    """Wave function of a single node: one complex amplitude per basis label."""

    __slots__ = ("level", "amplitudes", "statistics", "quantum_numbers")

    def __init__(self, level: HierarchyLevel, amplitudes: tuple[complex, ...],
                 statistics: str = UNSPECIFIED, quantum_numbers: tuple[int, ...] | None = None) -> None:
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "amplitudes", tuple(map(complex, amplitudes)))
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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.level == other.level and self.amplitudes == other.amplitudes
                and self.statistics == other.statistics and self.quantum_numbers == other.quantum_numbers)

    def __hash__(self) -> int:
        return hash((self.level, self.amplitudes, self.statistics, self.quantum_numbers))

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes)


class HierState(_Value):
    """Hierarchical state: this node's wave plus the states of its direct
    components (children one level deeper).

    Equality and hash go over the pre-order (wave, child count) sequence,
    which fixes the tree, so they do not recurse and depth is unbounded."""

    __slots__ = ("wave", "children")

    def __init__(self, wave: NodeWave, children: tuple[HierState, ...] = ()) -> None:
        object.__setattr__(self, "wave", wave)
        object.__setattr__(self, "children", tuple(children))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(p == q for p, q in zip_longest(_preorder(self), _preorder(other)))

    def __hash__(self) -> int:
        return hash(tuple(_preorder(self)))


Violation = namedtuple("Violation", ("path", "message"))


def iter_nodes(psi: HierState) -> Iterator[tuple[str, HierState]]:
    """Pre-order traversal yielding (path, node); children are addressed by
    index, e.g. "root.0.1".  Iterative, so depth is unbounded.  Each path is
    O(depth) characters long, so keeping the paths of a depth-d chain takes
    O(d^2) characters."""
    stack = [("root", psi)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack.extend(reversed([(f"{path}.{i}", c) for i, c in enumerate(node.children)]))


def _preorder(psi: HierState) -> Iterator[tuple[NodeWave, int]]:
    """The pre-order (wave, child count) sequence, which fixes the tree; the
    walk behind the operations that report no paths."""
    stack = [psi]
    while stack:
        node = stack.pop()
        yield node.wave, len(node.children)
        stack.extend(reversed(node.children))


def _assemble(pairs: Iterable[tuple[NodeWave, int]]) -> HierState:
    """Rebuild a tree from its pre-order (wave, child count) pairs: in reverse
    pre-order each node finds its subtrees on the stack, first child on top."""
    stack: list[HierState] = []
    for wave, n_children in reversed(list(pairs)):
        top = len(stack) - n_children
        stack[top:] = [HierState(wave, stack[top:][::-1])]
    return stack[0]


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
        (NodeWave(w.level, [a * x for x in w.amplitudes], w.statistics, w.quantum_numbers), n)
        for w, n in _preorder(psi)
    )


def congruent(phi: HierState, psi: HierState) -> bool:
    """True iff the trees have identical shape, level indices, group tags and
    bases node by node."""
    return all(
        p.level == q.level and m == n for (p, m), (q, n) in zip(_preorder(phi), _preorder(psi))
    )


def add(phi: HierState, psi: HierState) -> HierState:
    """Componentwise sum of two congruent trees."""
    if not congruent(phi, psi):
        raise ShapeMismatchError("cannot add non-congruent hierarchical states")
    return _assemble(
        (NodeWave(p.level, [x + y for x, y in zip(p.amplitudes, q.amplitudes)],
                  p.statistics, p.quantum_numbers), n)
        for (p, n), (q, _) in zip(_preorder(phi), _preorder(psi))
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
        child_levels = {c.wave.level.level_index for c in node.children}
        if len(child_levels) > 1:
            out.append(Violation(path, f"children mix level indices {sorted(child_levels)}"))
        for i, child in enumerate(node.children):
            if child.wave.level.level_index <= level.level_index:
                out.append(
                    Violation(
                        f"{path}.{i}",
                        f"child level index {child.wave.level.level_index} not greater "
                        f"than parent's {level.level_index}",
                    )
                )
        if require_normalized:
            n = node.wave.norm_sq()
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
    if isinstance(label, Named):
        return {"type": "named", "text": label.text}
    raise TypeError(f"unknown basis label {label!r}")


def _as_integer(value) -> int | None:
    """value as an int if it is an exact int, as a JSON integer is, or an
    integral float, else None: a bool or another int subclass is refused."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def _integer(obj: dict, key: str) -> int:
    """obj[key] as an int; JSON integers and integral floats only."""
    value = _as_integer(obj[key])
    if value is None:
        raise ValueError(f"{key} must be an integer, got {_shown(obj[key])}")
    return value


_JSON_NUMBER = frozenset((int, float))  # exact types: a bool is not a number


def _amplitude(pair) -> complex:
    """An [re, im] pair of finite JSON numbers as a complex."""
    if isinstance(pair, list) and len(pair) == 2:
        re, im = pair
        if type(re) in _JSON_NUMBER and type(im) in _JSON_NUMBER:
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


def state_to_obj(psi: HierState) -> dict:
    wave = psi.wave
    obj = {
        "level": wave.level.level_index,
        "group": wave.level.group,
        "basis": [_label_to_obj(b) for b in wave.level.basis],
        "amplitudes": [[a.real, a.imag] for a in wave.amplitudes],
        "statistics": wave.statistics,
    }
    try:
        obj["children"] = [state_to_obj(c) for c in psi.children]
    except RecursionError:
        raise StateTooDeepError(_TOO_DEEP) from None
    if wave.quantum_numbers is not None:
        obj["quantum_numbers"] = list(wave.quantum_numbers)
    return obj


def state_from_obj(obj: dict) -> HierState:
    """The tree of a state document.  Each distinct level, and each distinct
    label, is built once per call and shared by every node that has it."""
    try:
        return _state_from_obj(obj, {})
    except RecursionError:
        raise StateTooDeepError(_TOO_DEEP) from None


def _state_from_obj(obj: dict, shared: dict) -> HierState:
    # shared maps each key, the checked content of a level (level int, group,
    # label keys) or of a label (class, fields), to the one object built for it
    key = _integer(obj, "level"), str(obj["group"]), tuple([_label_key(b, shared) for b in obj["basis"]])
    if key not in shared:
        shared[key] = HierarchyLevel(key[0], key[1], map(shared.__getitem__, key[2]))
    # the amplitudes are checked as NodeWave reads them, before it checks the rest
    wave = NodeWave(shared[key], map(_amplitude, obj["amplitudes"]), obj.get("statistics", UNSPECIFIED),
                    obj.get("quantum_numbers"))
    return HierState(wave, [_state_from_obj(c, shared) for c in obj.get("children", [])])


def state_to_json(psi: HierState) -> str:
    try:
        return json.dumps(state_to_obj(psi), check_circular=False)  # state_to_obj builds no cycle
    except RecursionError:
        raise StateTooDeepError(_TOO_DEEP) from None


def state_from_json(text: str) -> HierState:
    try:
        return state_from_obj(json.loads(text))
    except RecursionError:
        raise StateTooDeepError(_TOO_DEEP) from None
    except KeyError as exc:
        raise ValueError(f"not a hierwave state: a node lacks key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"not a hierwave state: {exc}") from None


def load_state(path: str) -> HierState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(fh.read())


def save_state(psi: HierState, path: str) -> None:
    text = state_to_json(psi) + "\n"  # before opening, so a failure leaves the file intact
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
