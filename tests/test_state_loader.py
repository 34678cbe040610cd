"""The state loader builds each distinct level and label once per load and
shares it; trees, errors and messages match the reference loader in helpers,
which builds a new level and new labels at every node."""

import copy
import pickle
import random

import pytest

from hierwave.rep_theory import MAX_TWICE_J
from hierwave.state_tree import (
    FERMION,
    SU2,
    TRANSLATION_1D,
    HierState,
    iter_nodes,
    state_from_json,
    state_from_obj,
    state_to_json,
)

from helpers import reference_state_from_obj


def _spin(tj, tm):
    return {"type": "spin", "twice_j": tj, "twice_m": tm}


def _label(rng):
    """A valid label; integral floats and non-str texts read as the same label as their ints and str."""
    kind = rng.random()
    if kind < 0.6:
        tj = rng.randrange(4)
        tm = rng.randrange(-tj, tj + 1, 2)
        return _spin(rng.choice([tj, float(tj)]), rng.choice([tm, float(tm)]))
    if kind < 0.8:
        index = rng.randint(-3, 3)
        return {"type": "point", "index": rng.choice([index, float(index)])}
    return {"type": "named", "text": rng.choice(["a", "b", "1", 1, None])}


def _number(rng):
    return rng.choice([rng.uniform(-1.0, 1.0), rng.randint(-2, 2), -0.0, 0.0, 1e-300])


def _node(rng, depth, pool, nodes):
    """A random document node at tree depth depth, its level drawn from the pool of that depth."""
    level, group, basis = rng.choice(pool[depth])
    node = {"level": level, "group": group, "basis": copy.deepcopy(basis),
            "amplitudes": [[_number(rng), _number(rng)] for _ in range(len(basis) + rng.choice([0, 0, 0, -1, 1]))]}
    if rng.random() < 0.7:
        node["statistics"] = rng.choice(["boson", "fermion", "unspecified"])
    if rng.random() < 0.4:
        node["quantum_numbers"] = [rng.choice([q, float(q)]) for q in rng.sample(range(-5, 6), rng.randrange(3))]
    if depth + 1 < len(pool) and rng.random() < 0.9:
        node["children"] = [_node(rng, depth + 1, pool, nodes) for _ in range(rng.randrange(5))]
    elif rng.random() < 0.5:
        node["children"] = []
    nodes.append(node)
    return node


def _document(rng):
    """A valid document whose levels repeat, and the list of its node dicts."""
    depth = rng.randint(1, 4)
    pool = [[(d, rng.choice([SU2, TRANSLATION_1D, "custom"]), [_label(rng) for _ in range(rng.randrange(4))])
             for _ in range(rng.randint(1, 3))] for d in range(depth)]
    nodes = []
    return _node(rng, 0, pool, nodes), nodes


# Each corruption changes one node in place; the labels go in at a random
# position of the basis, after labels that may already have been built.
BAD_LABELS = [
    5, [1], None, {"type": "spinor"}, {"twice_j": 1}, _spin(1, 3), _spin(2, 1), _spin(-2, 0), _spin(1.5, 1),
    _spin(1, True), {"type": "spin", "twice_j": 1}, _spin(MAX_TWICE_J + 2, 0), _spin({"j": 1}, 1),
    {"type": "point", "index": "3"}, {"type": "point"}, {"type": "named"},
]
BAD_FIELDS = [
    ("level", "0"), ("level", 0.5), ("level", True), ("level", None), ("group", None), ("basis", 7),
    ("amplitudes", [[float("nan"), 0.0]]), ("amplitudes", [[1.0]]), ("amplitudes", "xy"), ("amplitudes", 3),
    ("amplitudes", [[True, 0.0]]), ("amplitudes", [[10**400, 0]]), ("statistics", "anyon"), ("statistics", []),
    ("quantum_numbers", [0.5]), ("quantum_numbers", "1"), ("quantum_numbers", {}),
    ("children", 5), ("children", [[]]), ("children", ["x"]), ("children", [{}]),
]
MISSING = ["level", "group", "basis", "amplitudes"]


def _corrupt(rng, node):
    kind = rng.randrange(4)
    if kind == 0:
        node["basis"].insert(rng.randint(0, len(node["basis"])), copy.deepcopy(rng.choice(BAD_LABELS)))
    elif kind == 1:
        # two bad labels: the first one's error wins, from the label's constructor or from its fields
        at = rng.randint(0, len(node["basis"]))
        node["basis"][at:at] = [_spin(1, 3), rng.choice([5, {"type": "spinor"}, _spin(1.5, 1)])]
    elif kind == 2:
        key, value = rng.choice(BAD_FIELDS)
        node[key] = copy.deepcopy(value)
    else:
        del node[rng.choice(MISSING)]


def _outcome(load, doc):
    """The loaded tree, or the type and message of what the load raised; the
    reference's KeyError or TypeError reads as the loaders' error contract
    turns it into a ValueError."""
    try:
        return load(doc)
    except (KeyError, TypeError) as exc:
        if load is not reference_state_from_obj:
            raise
        lacks = "a node lacks key " if isinstance(exc, KeyError) else ""
        return ValueError, f"not a hierwave state: {lacks}{exc}"
    except ValueError as exc:
        return type(exc), str(exc)


def _hex_amplitudes(psi):
    return [(a.real.hex(), a.imag.hex()) for _, node in iter_nodes(psi) for a in node.wave.amplitudes]


def test_loader_matches_reference_on_seeded_documents():
    rng = random.Random(19)
    valid = malformed = nodes_seen = levels_built = 0
    for _ in range(2400):
        doc, nodes = _document(rng)
        if rng.random() < 0.5:
            _corrupt(rng, rng.choice(nodes))
        got, want = _outcome(state_from_obj, doc), _outcome(reference_state_from_obj, doc)
        if isinstance(want, HierState):
            assert isinstance(got, HierState), (got, doc)
            assert got == want and _hex_amplitudes(got) == _hex_amplitudes(want), doc
            levels = [node.wave.level for _, node in iter_nodes(got)]
            assert len({id(level) for level in levels}) == len(set(levels)), doc
            valid += 1
            nodes_seen += len(levels)
            levels_built += len(set(levels))
        else:
            assert got == want, doc
            malformed += 1
    assert valid >= 1000 and malformed >= 1000, (valid, malformed)
    assert levels_built < nodes_seen / 2, (levels_built, nodes_seen)  # levels repeat within a document


def test_first_bad_label_wins():
    doc = {"level": 0, "group": SU2, "amplitudes": [],
           "basis": [_spin(1, 1), _spin(1, 3), 5]}  # |m| > j at label 1, a non-object at label 2
    with pytest.raises(ValueError, match=r"^\|m\| > j for \(2j, 2m\) = \(1, 3\)$"):
        state_from_obj(doc)
    doc["basis"] = [_spin(1, 1), 5, _spin(1, 3)]
    with pytest.raises(ValueError, match="^not a hierwave state: basis label is not an object: 5$"):
        state_from_obj(doc)


def test_a_bad_label_after_its_valid_twin_still_raises():
    # the twin's key is made of checked ints, so a label that fails a check never reaches the shared one
    good = {"level": 1, "group": SU2, "basis": [_spin(1, 1)], "amplitudes": [[1.0, 0.0]]}
    bad = {"level": 1, "group": SU2, "basis": [_spin(1, True)], "amplitudes": [[1.0, 0.0]]}
    doc = {"level": 0, "group": SU2, "basis": [_spin(1, 1)], "amplitudes": [[1.0, 0.0]], "children": [good, bad]}
    with pytest.raises(ValueError, match="^twice_m must be an integer, got True$"):
        state_from_obj(doc)


def _wide_document(rng, groups=8, leaves=160):
    """A tree shaped as the benchmark's wide one: a root, groups of spin-1/2 fermionic leaves."""
    def node(level, basis, **kw):
        return {"level": level, "group": SU2, "basis": basis, "amplitudes": [[0.5, 0.0]] * len(basis), **kw}

    def shuffled(labels):
        return [_spin(*label) for label in rng.sample(labels, len(labels))]

    return node(0, shuffled([(2, 0), (4, 0), (2, 2)]), children=[
        node(1, shuffled([(2, 0), (4, 0), (2, 2)]), children=[
            node(2, [_spin(1, 1), _spin(1, -1)], statistics=FERMION, quantum_numbers=[g, k])
            for k in range(leaves)])
        for g in range(groups)])


def test_wide_tree_loads_one_level_object_per_distinct_level():
    doc = _wide_document(random.Random(3))
    psi = state_from_obj(doc)
    levels = [node.wave.level for _, node in iter_nodes(psi)]
    assert len(levels) == 1 + 8 + 8 * 160
    distinct = set(levels)
    assert len({id(level) for level in levels}) == len(distinct) <= 1 + 6 + 1
    labels = [label for level in distinct for label in level.basis]
    assert len({id(label) for label in labels}) == len(set(labels)) == 5
    # the reference builds a level per node, and the trees are equal
    reference = reference_state_from_obj(doc)
    assert len({id(node.wave.level) for _, node in iter_nodes(reference)}) == len(levels)
    assert psi == reference
    # a second load shares nothing with the first
    again = state_from_obj(doc)
    assert again == psi and again.wave.level is not psi.wave.level


def test_equality_hash_pickle_and_copy_of_a_loaded_tree_are_unchanged():
    doc = _wide_document(random.Random(4), groups=3, leaves=20)
    psi, reference = state_from_obj(doc), reference_state_from_obj(doc)
    assert psi == reference and hash(psi) == hash(reference) and repr(psi) == repr(reference)
    assert state_to_json(psi) == state_to_json(reference)
    assert state_from_json(state_to_json(psi)) == reference
    for copied in (pickle.loads(pickle.dumps(psi)), copy.deepcopy(psi), copy.copy(psi)):
        assert copied == reference and hash(copied) == hash(reference)
        assert _hex_amplitudes(copied) == _hex_amplitudes(reference)
    # copies keep the sharing: one leaf level for all leaves
    copied = copy.deepcopy(psi)
    assert len({id(leaf.wave.level) for group in copied.children for leaf in group.children}) == 1


def test_int_subclass_fields_are_refused():
    # json never yields one, but a library caller's document may: it is refused as a bool is,
    # whether or not an equal label was built before it, so a shared label holds exact ints only
    class Int(int):
        def __repr__(self):
            return f"Int({int(self)})"

    label = {"level": 1, "group": SU2, "amplitudes": [[1.0, 0.0]], "basis": [_spin(1, Int(1))]}
    for first in ([], [{**label, "basis": [_spin(1, 1)]}]):
        doc = {"level": 0, "group": SU2, "amplitudes": [], "basis": [], "children": first + [label]}
        with pytest.raises(ValueError, match=r"^twice_m must be an integer, got Int\(1\)$"):
            state_from_obj(doc)
    for key, value in (("level", Int(0)), ("quantum_numbers", [Int(2)])):
        doc = {"level": 0, "group": SU2, "amplitudes": [], "basis": [], key: value}
        with pytest.raises(ValueError, match=r"^(level must be an integer|quantum_numbers must be a list of integers)"):
            state_from_obj(doc)
    assert type(state_from_obj({**label, "level": 1.0, "basis": [_spin(1.0, 1)]}).wave.level.level_index) is int
