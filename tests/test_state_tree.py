import itertools
import json
import math
import random
import re

import pytest

from hierwave.state_tree import (
    BOSON,
    FERMION,
    HierarchyLevel,
    HierState,
    Named,
    NodeWave,
    Point,
    ShapeMismatchError,
    SpinWeight,
    StateTooDeepError,
    SU2,
    TRANSLATION_1D,
    UNSPECIFIED,
    Violation,
    add,
    congruent,
    dominant_label,
    iter_nodes,
    load_state,
    save_state,
    scalar_mul,
    state_from_json,
    state_from_obj,
    state_to_json,
    state_to_obj,
    validate_tree,
)
from hierwave.physicality import check_node, pauli_check
from hierwave.rep_theory import MAX_TWICE_J, IrrepLabel, SpinRangeError

from helpers import (
    amplitudes_close,
    chain_state,
    chain_state_json,
    fill_shape,
    random_shape,
    reference_add,
    reference_congruent,
    reference_equal,
    reference_scalar_mul,
)


def leaf(level_index=0, amps=(1.0,), n_basis=None, **kw):
    n = len(amps) if n_basis is None else n_basis
    level = HierarchyLevel(
        level_index=level_index,
        group=SU2,
        basis=tuple(Named(f"b{k}") for k in range(n)),
    )
    return HierState(NodeWave(level=level, amplitudes=amps, **kw))


def two_node_tree(root_amps=(1.0, 0.5), child_amps=(0.25,)):
    child = leaf(1, child_amps)
    root = leaf(0, root_amps)
    return HierState(root.wave, (child,))


class TestSpinWeight:
    def test_valid(self):
        SpinWeight(1, -1)
        SpinWeight(4, 0)

    def test_m_exceeds_j(self):
        with pytest.raises(ValueError):
            SpinWeight(1, 3)

    def test_parity(self):
        with pytest.raises(ValueError):
            SpinWeight(2, 1)

    def test_spin_range(self):
        SpinWeight(MAX_TWICE_J, 0)
        with pytest.raises(SpinRangeError, match=rf"^twice_j must be <= {MAX_TWICE_J}, got {MAX_TWICE_J + 2}$"):
            SpinWeight(MAX_TWICE_J + 2, 0)


class TestQuantumNumbers:
    @pytest.mark.parametrize("qn", [(1.5,), ("7",), (True,), (math.inf,), (1, math.nan), "12", 7])
    def test_non_integers_rejected(self, qn):
        with pytest.raises(ValueError, match=r"^quantum_numbers must be a list of integers, got "):
            leaf(quantum_numbers=qn)

    def test_integral_floats_become_ints(self):
        qn = leaf(quantum_numbers=(1.0, 0.0, -0.0)).wave.quantum_numbers
        assert qn == (1, 0, 0) and all(type(q) is int for q in qn)

    def test_list_becomes_tuple(self):
        assert leaf(quantum_numbers=[2, -1]).wave.quantum_numbers == (2, -1)


class TestStatistics:
    @pytest.mark.parametrize("statistics", ["Fermion", "bosons", "", None, [1], 1])
    def test_other_values_rejected(self, statistics):
        message = f"statistics must be one of boson, fermion, unspecified, got {statistics!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            leaf(statistics=statistics)


class TestScalarMul:
    def test_identity(self):
        psi = two_node_tree()
        assert amplitudes_close(scalar_mul(1, psi), psi)

    def test_zero(self):
        psi = two_node_tree()
        out = scalar_mul(0, psi)
        assert out.wave.amplitudes == (0j, 0j)
        assert out.children[0].wave.amplitudes == (0j,)

    def test_complex_scale_matches_per_node_loop(self):
        psi = two_node_tree(root_amps=(1.0, 0.5), child_amps=(0.25,))
        out = scalar_mul(2j, psi)
        # oracle: multiply every amplitude explicitly
        assert out.wave.amplitudes == (2j * 1.0, 2j * 0.5)
        assert out.children[0].wave.amplitudes == (2j * 0.25,)
        assert congruent(out, psi)


class TestAdd:
    def test_additive_identity(self):
        psi = two_node_tree()
        zero = scalar_mul(0, psi)
        assert amplitudes_close(add(psi, zero), psi)

    def test_doubling(self):
        psi = two_node_tree()
        assert amplitudes_close(add(psi, psi), scalar_mul(2, psi))

    def test_elementwise(self):
        shape = (
            HierarchyLevel(0, SU2, (Named("a"), Named("b"))),
            (
                (HierarchyLevel(1, SU2, (Named("c"),)), ()),
                (HierarchyLevel(1, SU2, (Named("d"),)), ()),
            ),
        )
        phi = HierState(
            NodeWave(shape[0], (1.0, 0.0)),
            tuple(HierState(NodeWave(lvl, (0.0,))) for lvl, _ in shape[1]),
        )
        psi = HierState(
            NodeWave(shape[0], (0.0, 1.0)),
            tuple(HierState(NodeWave(lvl, (0.0,))) for lvl, _ in shape[1]),
        )
        out = add(phi, psi)
        assert out.wave.amplitudes == (1 + 0j, 1 + 0j)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            add(leaf(0, (1.0,)), two_node_tree())


class TestCongruent:
    def test_self(self):
        psi = two_node_tree()
        assert congruent(psi, psi)

    def test_different_node_count(self):
        assert not congruent(leaf(0, (1.0,)), two_node_tree())

    def test_same_shape_different_basis_size(self):
        a = two_node_tree(child_amps=(0.25,))
        bigger_child = leaf(1, (0.25, 0.5))
        b = HierState(a.wave, (bigger_child,))
        assert not congruent(a, b)


class TestValidateTree:
    def test_well_formed(self):
        assert validate_tree(two_node_tree()) == []

    def test_child_level_not_deeper(self):
        bad_child = leaf(0, (1.0,))
        psi = HierState(leaf(0, (1.0, 0.5)).wave, (bad_child,))
        problems = validate_tree(psi)
        assert len(problems) == 1
        assert problems[0].path == "root.0"
        assert "level index" in problems[0].message

    def test_amplitude_length_mismatch(self):
        level = HierarchyLevel(0, SU2, (Named("a"), Named("b")))
        psi = HierState(NodeWave(level, (1.0,)))
        problems = validate_tree(psi)
        assert len(problems) == 1
        assert "amplitude count" in problems[0].message

    def test_duplicate_basis(self):
        level = HierarchyLevel(0, SU2, (Named("a"), Named("a")))
        psi = HierState(NodeWave(level, (1.0, 0.0)))
        assert any("unique" in v.message for v in validate_tree(psi))

    def test_empty_basis(self):
        psi = HierState(NodeWave(HierarchyLevel(0, SU2, ()), ()))
        assert validate_tree(psi) == [Violation("root", "basis is empty")]

    def test_duplicate_basis_of_a_shared_level_is_reported_at_each_node_in_preorder(self):
        twice = HierarchyLevel(1, SU2, (Named("a"), Named("a")))
        again = HierarchyLevel(2, SU2, (Point(0), Point(0), Point(1)))
        leaf_of = lambda level: HierState(NodeWave(level, (0.0,) * len(level.basis)))
        middle = HierState(NodeWave(twice, (1.0, 0.0)), (leaf_of(again), leaf_of(again)))
        psi = HierState(leaf(0, (1.0,)).wave, (leaf_of(twice), middle, leaf_of(twice)))
        assert validate_tree(psi) == [Violation(path, "basis labels are not unique")
                                      for path in ("root.0", "root.1", "root.1.0", "root.1.1", "root.2")]

    def test_normalization_flag(self):
        psi = leaf(0, (0.6, 0.8))
        assert validate_tree(psi, require_normalized=True) == []
        assert validate_tree(leaf(0, (1.0, 1.0)), require_normalized=True)


class TestVectorSpaceAxioms:
    def test_axioms_randomized(self):
        rng = random.Random(7)
        for _ in range(100):
            shape = random_shape(rng)
            phi = fill_shape(rng, shape)
            psi = fill_shape(rng, shape)
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert amplitudes_close(
                scalar_mul(a, add(phi, psi)), add(scalar_mul(a, phi), scalar_mul(a, psi))
            )
            assert amplitudes_close(
                scalar_mul(a + b, psi), add(scalar_mul(a, psi), scalar_mul(b, psi))
            )
            assert amplitudes_close(
                scalar_mul(a * b, psi), scalar_mul(a, scalar_mul(b, psi))
            )
            assert amplitudes_close(scalar_mul(1, psi), psi)
            assert amplitudes_close(add(phi, psi), add(psi, phi))

    def test_associativity(self):
        rng = random.Random(11)
        for _ in range(50):
            shape = random_shape(rng)
            a, b, c = (fill_shape(rng, shape) for _ in range(3))
            assert amplitudes_close(add(add(a, b), c), add(a, add(b, c)))

    def test_operations_preserve_levels(self):
        rng = random.Random(13)
        shape = random_shape(rng)
        phi, psi = fill_shape(rng, shape), fill_shape(rng, shape)
        assert congruent(add(phi, psi), phi)
        assert congruent(scalar_mul(3j, phi), phi)


def _random_pair(rng):
    """Two congruent trees on one random shape (depth <= 5, mixed groups) with
    independent random amplitudes, statistics and quantum numbers."""
    labels = (SpinWeight(1, 1), SpinWeight(1, -1), Named("x"), Point(3))

    def shape(level_index, max_depth):
        level = HierarchyLevel(level_index, rng.choice((SU2, TRANSLATION_1D)),
                               labels[: rng.randint(1, 4)])
        n = rng.randint(0, 3) if level_index < max_depth else 0
        return level, [shape(level_index + 1, max_depth) for _ in range(n)]

    def fill(s):
        level, children = s
        wave = NodeWave(
            level,
            tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in level.basis),
            rng.choice((FERMION, BOSON, UNSPECIFIED)),
            rng.choice((None, (1, 0), (2, 0, 1))),
        )
        return HierState(wave, tuple(fill(c) for c in children))

    s = shape(0, rng.randint(0, 5))
    return fill(s), fill(s)


def _with_last_node(psi, change):
    """psi with change applied to its last node in pre-order."""
    if not psi.children:
        return change(psi)
    return HierState(psi.wave, psi.children[:-1] + (_with_last_node(psi.children[-1], change),))


def _relevel(node, **changes):
    wave, level = node.wave, node.wave.level
    fields = {"level_index": level.level_index, "group": level.group, "basis": level.basis, **changes}
    return HierState(NodeWave(HierarchyLevel(**fields), wave.amplitudes, wave.statistics, wave.quantum_numbers),
                     node.children)


_LAST_NODE_CHANGES = {
    "extra child": lambda n: HierState(n.wave, (leaf(n.wave.level.level_index + 1),)),
    "level index": lambda n: _relevel(n, level_index=n.wave.level.level_index + 1),
    "basis": lambda n: _relevel(n, basis=n.wave.level.basis[:-1] + (Named("other"),)),
}


class TestOperationsAgainstRecursiveReference:
    def test_randomized_trees(self):
        for seed in range(200):
            rng = random.Random(seed)
            phi, psi = _random_pair(rng)
            for a in (-1, 2j, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))):
                assert repr(scalar_mul(a, psi)) == repr(reference_scalar_mul(a, psi)), seed
            assert repr(add(phi, psi)) == repr(reference_add(phi, psi)), seed
            assert congruent(phi, psi) and reference_congruent(phi, psi)
            copy = state_from_json(state_to_json(psi))
            assert reference_equal(psi, copy) and psi == copy and hash(psi) == hash(copy)
            assert (phi == psi) == reference_equal(phi, psi)

    def test_trees_differing_only_at_the_last_preorder_node(self):
        for seed in range(200):
            phi, psi = _random_pair(random.Random(seed))
            for name, change in _LAST_NODE_CHANGES.items():
                bad = _with_last_node(phi, change)
                assert not reference_congruent(bad, psi), (seed, name)
                assert not congruent(bad, psi) and not congruent(psi, bad), (seed, name)
                with pytest.raises(ShapeMismatchError):
                    add(bad, psi)
                with pytest.raises(ShapeMismatchError):
                    add(psi, bad)
                assert not reference_equal(bad, phi) and bad != phi and phi != bad
                again = _with_last_node(phi, change)
                assert bad == again and hash(bad) == hash(again)


class TestSerialization:
    def test_round_trip_lossless(self):
        level = HierarchyLevel(
            0, SU2, (SpinWeight(1, 1), SpinWeight(1, -1))
        )
        child_level = HierarchyLevel(3, TRANSLATION_1D, (Point(0), Point(1), Named("x")))
        psi = HierState(
            NodeWave(level, (0.1 + 0.2j, -1e-17 + 0.3333333333333333j), statistics=BOSON),
            (
                HierState(
                    NodeWave(
                        child_level,
                        (1.0, 2.0, 3.0),
                        statistics=FERMION,
                        quantum_numbers=(1, 0, 0),
                    )
                ),
            ),
        )
        again = state_from_json(state_to_json(psi))
        assert again == psi

    def test_float_bit_faithful(self):
        rng = random.Random(3)
        amps = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5))
        psi = leaf(0, amps)
        again = state_from_json(state_to_json(psi))
        assert again.wave.amplitudes == amps  # exact equality, not approx

    def test_json_schema_fields(self):
        obj = json.loads(state_to_json(two_node_tree()))
        assert set(obj) >= {"level", "group", "basis", "amplitudes", "statistics", "children"}

    def test_json_is_compact(self):
        assert "\n" not in state_to_json(chain_state(5))

    @pytest.mark.parametrize("z", [complex(math.nan, 0), complex(0, math.inf), complex(-math.inf, 1)])
    def test_save_non_finite_amplitude_refused_and_keeps_existing_file(self, z, tmp_path):
        # load_state refuses such a file, so save_state refuses to write it
        path = tmp_path / "state.json"
        path.write_text("previous contents")
        psi = HierState(leaf(0, (1.0,)).wave, (leaf(1, (0.5, z)),))
        with pytest.raises(ValueError) as caught:
            save_state(psi, str(path))
        assert str(caught.value) == "amplitudes must be finite to be saved: JSON has no NaN or infinity"
        assert path.read_text() == "previous contents"

    def test_save_int_too_long_for_str_keeps_json_error(self):
        psi = HierState(NodeWave(HierarchyLevel(0, TRANSLATION_1D, (Point(10**5000),)), (1.0,)))
        with pytest.raises(ValueError, match="integer string conversion"):
            state_to_json(psi)

    @pytest.mark.parametrize("field, path, named", [
        ("level_index", "root.0", "level_index"),
        ("index", "root.0", "basis[1].index"),
        ("quantum_number", "root", "quantum_numbers[1]"),
    ])
    def test_save_int_too_long_for_str_names_its_field_and_keeps_existing_file(self, field, path, named, tmp_path):
        big = -(10**5000) if field == "index" else 10**5000
        at = {field: big}
        child_level = HierarchyLevel(at.get("level_index", 1), TRANSLATION_1D, (Point(0), Point(at.get("index", 1))))
        root = NodeWave(HierarchyLevel(0, TRANSLATION_1D, (Point(0),)), (1.0,),
                        quantum_numbers=(1, at.get("quantum_number", 2)))
        # a later node past the limit too: the first one in pre-order is named
        later = HierState(NodeWave(HierarchyLevel(10**5000, TRANSLATION_1D, (Point(0),)), (1.0,)))
        psi = HierState(root, (HierState(NodeWave(child_level, (0.6, 0.8))), later))
        file = tmp_path / "state.json"
        file.write_text("previous contents")
        with pytest.raises(ValueError) as caught:
            save_state(psi, str(file))
        assert str(caught.value) == f"{path}: {named} is an int of 16610 bits, too long for integer string conversion"
        assert file.read_text() == "previous contents"


class TestDepth:
    def test_in_memory_operations_on_depth_ten_thousand_chain(self):
        depth = 10**4
        psi = chain_state(depth)
        count = 0
        for k, (path, node) in enumerate(iter_nodes(psi)):
            assert path == "root" + ".0" * k and node.wave.level.level_index == k
            count += 1
        assert count == depth + 1
        assert validate_tree(psi) == []
        zero = add(psi, scalar_mul(-1, psi))
        assert congruent(zero, psi)
        assert all(a == 0 for _, n in iter_nodes(zero) for a in n.wave.amplitudes)
        reports = check_node(psi)
        assert len(reports) == depth and all(r.physical for _, r in reports)
        assert pauli_check(psi, 1) == [] and pauli_check(psi, 2) == []

    def test_hand_written_chain_json_loads(self):
        assert state_from_json(chain_state_json(50)) == chain_state(50)

    def test_json_forms_reject_deep_state(self):
        # 20,000 tree levels are 40,000 JSON levels: past the json module's limit on every Python version
        psi = chain_state(20_000)
        with pytest.raises(StateTooDeepError, match="JSON nesting limit"):
            state_to_json(psi)
        with pytest.raises(StateTooDeepError, match="JSON nesting limit"):
            state_from_json(chain_state_json(20_000))

    def test_obj_forms_round_trip_a_depth_ten_thousand_chain(self):
        psi = chain_state(10**4)
        obj = state_to_obj(psi)
        assert state_from_obj(obj) == psi
        keys = ["level", "group", "basis", "amplitudes", "statistics", "children"]
        for d in range(10**4):
            assert obj["level"] == d and list(obj) == keys
            (obj,) = obj["children"]
        assert obj == {"level": 10**4, "group": SU2, "basis": [{"type": "spin", "twice_j": 1, "twice_m": 1}],
                       "amplitudes": [[1.0, 0.0]], "statistics": FERMION, "children": []}

    def test_chain_near_the_json_limit_round_trips_through_files(self, tmp_path):
        # 450 levels leaves room for the test runner's own frames
        path = tmp_path / "state.json"
        psi = chain_state(450)
        save_state(psi, str(path))
        assert load_state(str(path)) == psi

    def test_equality_and_hash_on_depth_ten_thousand_chains(self):
        depth = 10**4
        psi, same = chain_state(depth), chain_state(depth)
        assert psi == same and hash(psi) == hash(same)
        assert psi != chain_state(depth - 1) and psi != chain_state(depth, n_leaves=2)
        assert psi != scalar_mul(2, psi) and psi != psi.wave
        assert len({psi, same}) == 1

    def test_save_deep_state_keeps_existing_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("previous contents")
        with pytest.raises(StateTooDeepError):
            save_state(chain_state(20_000), str(path))
        assert path.read_text() == "previous contents"


def test_dominant_label_of_no_amplitudes_is_refused():
    level = HierarchyLevel(0, SU2, (Named("a"),))
    with pytest.raises(ValueError, match="^node has no amplitudes$"):
        dominant_label(NodeWave(level, ()))


def test_dominant_label_tie_breaks_low_index():
    level = HierarchyLevel(0, SU2, (Named("a"), Named("b")))
    wave = NodeWave(level, (0.5, 0.5))
    assert dominant_label(wave) == Named("a")
    level = HierarchyLevel(0, SU2, (Named("a"), Named("b"), Named("c")))
    assert dominant_label(NodeWave(level, (0.25, 0.5, -0.5))) == Named("b")
    level = HierarchyLevel(0, SU2, (Named("a"), Named("b"), Named("c"), Named("d")))
    assert dominant_label(NodeWave(level, (1, 3 + 4j, 5, -5j))) == Named("b")


@pytest.mark.parametrize("twice_j, twice_m, message", [
    (2.5, 0.5, "twice_j must be an int, got 2.5"),
    (2.0, 0, "twice_j must be an int, got 2.0"),
    (True, True, "twice_j must be an int, got True"),
    (math.inf, 0, "twice_j must be an int, got inf"),
    (1e300, 0, "twice_j must be an int, got 1e+300"),
    (1, 1.0, "twice_m must be an int, got 1.0"),
    (1, False, "twice_m must be an int, got False"),
])
def test_spin_weight_takes_exact_ints(twice_j, twice_m, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        SpinWeight(twice_j, twice_m)


@pytest.mark.parametrize("index", [1.5, 2.0, "x", True, None])
def test_point_takes_exact_ints(index):
    with pytest.raises(ValueError, match=rf"^index must be an int, got {re.escape(repr(index))}$"):
        Point(index)


def test_labels_of_different_types_never_equal():
    # a label made a NamedTuple would equal, and hash like, any tuple of its
    # items: Point(3) would collide with IrrepLabel(3) as a dict key
    values = [Point(3), IrrepLabel(3), (3,), 3, SpinWeight(1, 1), (1, 1), Named("x"), "x", ("x",)]
    for a, b in itertools.permutations(values, 2):
        assert a != b, (a, b)
    assert len(dict.fromkeys(values)) == len(values)


_HUGE = list(range(100_000))  # its repr has 588,890 characters
_LONG_TEXT = "x" * 100_000


@pytest.mark.parametrize("key, value, prefix, bad", [
    ("amplitudes", [_HUGE], "amplitudes must be [re, im] pairs of finite numbers, got ", _HUGE),
    ("quantum_numbers", [0.5] * 100_000, "quantum_numbers must be a list of integers, got ", [0.5] * 100_000),
    ("statistics", _LONG_TEXT, "statistics must be one of boson, fermion, unspecified, got ", _LONG_TEXT),
    ("level", _HUGE, "level must be an integer, got ", _HUGE),
    ("basis", [_HUGE], "not a hierwave state: basis label is not an object: ", _HUGE),
    ("basis", [{"type": _LONG_TEXT}], "unknown basis label type ", _LONG_TEXT),
    ("basis", [{"type": "spin", "twice_j": _HUGE, "twice_m": 1}], "twice_j must be an integer, got ", _HUGE),
    ("basis", [{"type": "point", "index": _LONG_TEXT}], "index must be an integer, got ", _LONG_TEXT),
], ids=["amplitude", "quantum_numbers", "statistics", "level", "label", "label_type", "twice_j", "index"])
def test_state_loader_errors_show_at_most_500_characters_of_the_value(key, value, prefix, bad):
    obj = {"level": 0, "group": SU2, "amplitudes": [[1.0, 0.0]], "basis": [{"type": "named", "text": "a"}],
           key: value}
    with pytest.raises(ValueError) as info:
        state_from_obj(obj)
    text = repr(bad)
    assert str(info.value) == f"{prefix}{text[:500]}... ({len(text)} characters)"


@pytest.mark.parametrize("make, message, bad", [
    (lambda: SpinWeight(_LONG_TEXT, 0), "twice_j must be an int, got {}", _LONG_TEXT),
    (lambda: SpinWeight(1, _HUGE), "twice_m must be an int, got {}", _HUGE),
    (lambda: SpinWeight(-10**1000, 0), "twice_j must be >= 0, got {}", -10**1000),
    (lambda: SpinWeight(10**1000, 0), f"twice_j must be <= {MAX_TWICE_J}, got {{}}", 10**1000),
    (lambda: SpinWeight(1, 10**1000), "|m| > j for (2j, 2m) = (1, {})", 10**1000),
    (lambda: IrrepLabel(-10**1000), "twice_j must be >= 0, got {}", -10**1000),
    (lambda: Point(_HUGE), "index must be an int, got {}", _HUGE),
], ids=["twice_j_type", "twice_m_type", "twice_j_sign", "twice_j_range", "twice_m_range", "irrep_sign", "index"])
def test_label_errors_show_at_most_500_characters_of_the_value(make, message, bad):
    text = repr(bad)
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message.format(f"{text[:500]}... ({len(text)} characters)")


@pytest.mark.parametrize("make, message", [
    (lambda: SpinWeight(-10**5000, 0), "twice_j must be >= 0, got an int of 16610 bits"),
    (lambda: SpinWeight(1, 10**5000), "|m| > j for (2j, 2m) = (1, an int of 16610 bits)"),
    (lambda: IrrepLabel(-10**5000), "twice_j must be >= 0, got an int of 16610 bits"),
], ids=["twice_j_sign", "twice_m_range", "irrep_sign"])
def test_label_errors_give_the_size_of_an_int_too_long_for_str(make, message):
    # past sys.get_int_max_str_digits() digits, str() of the int would raise CPython's own ValueError
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: NodeWave(HierarchyLevel(0, SU2, (Named("a"), Named("b"))), (1, 0),
                      quantum_numbers=[0.5, 10**5000]),
     "quantum_numbers must be a list of integers, got a value of type list that repr() cannot show"),
    (lambda: state_from_obj({"level": 0, "group": SU2, "amplitudes": [[10**5000, 0]],
                             "basis": [{"type": "named", "text": "a"}]}),
     "amplitudes must be [re, im] pairs of finite numbers, got a value of type list that repr() cannot show"),
], ids=["quantum_numbers", "amplitude"])
def test_errors_name_a_container_whose_repr_fails(make, message):
    # repr() of a list holding an int past sys.get_int_max_str_digits() digits raises CPython's ValueError
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_integral_floats_in_a_state_file_still_load():
    label = {"type": "spin", "twice_j": 1.0, "twice_m": -1.0}
    obj = {"level": 0, "group": TRANSLATION_1D, "amplitudes": [[1.0, 0.0], [0.0, 0.0]],
           "basis": [label, {"type": "point", "index": 3.0}]}
    assert state_from_obj(obj).wave.level.basis == (SpinWeight(1, -1), Point(3))
