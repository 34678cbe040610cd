"""The state and scenario codecs walk their trees with no recursion; their
documents, trees, errors and messages match the recursive references in
helpers, which read each node before its children."""

import copy
import json
import random

from hierwave.repair_cascade import Organism, organism_from_obj, organism_to_obj
from hierwave.state_tree import iter_nodes, state_from_obj, state_to_obj

from helpers import reference_organism_from_obj, reference_state_to_obj
from test_state_loader import _document, _outcome


def test_state_to_obj_matches_reference_on_seeded_documents():
    # json.dumps keeps key order, so "children" must stay ahead of "quantum_numbers"
    rng = random.Random(23)
    with_numbers = 0
    for _ in range(600):
        psi = state_from_obj(_document(rng)[0])
        obj = state_to_obj(psi)
        assert json.dumps(obj) == json.dumps(reference_state_to_obj(psi))
        assert state_from_obj(obj) == psi
        with_numbers += sum(node.wave.quantum_numbers is not None and bool(node.children)
                            for _, node in iter_nodes(psi))
    assert with_numbers >= 100, with_numbers


NAMES = ["a", "electron", "p", 7, None, ["n"]]  # str() reads any of them as a name
IRREPS = ["0", "1/2", "1", "3/2", "2", " 5/2 ", 1, 0.5, "1.5"]
BAD_IRREPS = ["x", "-1/2", "1/3", "1/0", "", "20001", None, [1], "1e99999", "9" * 200]
BAD_SUBCOMPONENTS = [5, ["x"], [{}], [[]], "ab", {"a": 1}, [{"name": "q"}], [{"irrep": "1/2"}]]


def _component(rng, depth, nodes):
    """A random scenario component at tree depth depth, appended to nodes once built."""
    node = {"name": rng.choice(NAMES), "irrep": rng.choice(IRREPS)}
    if depth < 4 and rng.random() < 0.6:
        node["subcomponents"] = [_component(rng, depth + 1, nodes) for _ in range(rng.randrange(4))]
    elif rng.random() < 0.3:
        node["subcomponents"] = []
    nodes.append(node)
    return node


def _scenario(rng):
    """A valid scenario document and the list of its component dicts."""
    nodes = []
    doc = {"target": rng.choice(IRREPS), "components": [_component(rng, 0, nodes) for _ in range(rng.randint(1, 4))]}
    return doc, nodes


def _corrupt(rng, node):
    kind = rng.randrange(4)
    if kind == 0:
        node["irrep"] = copy.deepcopy(rng.choice(BAD_IRREPS))
    elif kind == 1:
        node["subcomponents"] = copy.deepcopy(rng.choice(BAD_SUBCOMPONENTS))
    else:
        del node[rng.choice(["name", "irrep"])]


def test_organism_loader_matches_reference_on_seeded_scenarios():
    rng = random.Random(29)
    valid = malformed = two_bad = 0
    for _ in range(2400):
        doc, nodes = _scenario(rng)
        if rng.random() < 0.5:
            if len(nodes) > 1 and rng.random() < 0.4:
                # two bad nodes: the reference names the first in pre-order, and so must the loader
                for node in rng.sample(nodes, 2):
                    _corrupt(rng, node)
                two_bad += 1
            else:
                _corrupt(rng, rng.choice(nodes))
        got, want = _outcome(organism_from_obj, doc), _outcome(reference_organism_from_obj, doc)
        if isinstance(want, Organism):
            assert isinstance(got, Organism), (got, doc)
            assert got == want and json.dumps(organism_to_obj(got)) == json.dumps(organism_to_obj(want)), doc
            valid += 1
        else:
            assert got == want, doc
            malformed += 1
    assert valid >= 1000 and malformed >= 1000 and two_bad >= 300, (valid, malformed, two_bad)
