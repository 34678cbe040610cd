import json
import random

import pytest

from hierwave.rep_theory import IrrepLabel, decompose_product
from hierwave.repair_cascade import (
    ComponentSpec,
    EmptyRemainderError,
    Organism,
    RemovalAction,
    amputate,
    ionize_recombine,
    organism_from_obj,
    organism_to_obj,
    repair,
)

from helpers import reference_organism_to_obj, reference_validate

HALF = IrrepLabel(1)
ONE = IrrepLabel(2)
ZERO = IrrepLabel(0)


def cell(name, irrep, subs=()):
    return ComponentSpec(name=name, irrep=irrep, subcomponents=tuple(subs))


def singlet_of_four_halves():
    return Organism(target_irrep=ZERO, components=tuple(cell(f"c{i}", HALF) for i in range(4)))


class TestSpecs:
    def test_component_invariant_ok(self):
        c = cell("a", ONE, [cell("a1", HALF), cell("a2", HALF)])
        assert c.validate() == []

    def test_component_invariant_violated(self):
        c = cell("a", HALF, [cell("a1", HALF), cell("a2", HALF)])
        assert c.validate()  # 1/2 not in 1/2 x 1/2

    def test_organism_invariant(self):
        assert singlet_of_four_halves().validate() == []
        bad = Organism(target_irrep=ONE, components=(cell("only", ZERO),))
        assert bad.validate()

    def test_organism_without_components_is_invalid(self):
        assert Organism(target_irrep=ZERO, components=()).validate() == ["organism has no components"]

    def test_validate_matches_recursive_reference(self):
        def spec(rng, name, depth):
            n = rng.randint(0, 3) if depth < 6 else 0
            return cell(name, IrrepLabel(rng.randint(0, 3)),
                        [spec(rng, f"{name}{i}", depth + 1) for i in range(n)])

        failing_depths = set()
        for seed in range(100):
            comp = spec(random.Random(seed), "c", 0)
            problems = comp.validate()
            assert problems == reference_validate(comp), seed
            failing_depths.update(p.split(":")[0].count("/") for p in problems)
        assert failing_depths == set(range(6))  # every internal depth has failing nodes

    def test_deep_chain_validates(self):
        # a depth-10^4 chain of spin-1 cells over one spin-1/2 leaf: only the deepest cell fails
        depth = 10**4
        comp = cell("c", ONE, [cell("leaf", HALF)])
        for _ in range(depth - 1):
            comp = cell("c", ONE, [comp])
        problems = Organism(target_irrep=ONE, components=(comp,)).validate()
        assert problems == ["/".join(["c"] * depth) + ": irrep 1 not contained in subcomponent product 1x[1/2]"]

    def test_deep_organisms_compare_and_hash(self):
        # two chains of depth 3,000 built apart: == and hash walk the pre-order
        # sequence, with no recursion; a change at the leaf makes them differ
        def chain(leaf_irrep):
            comp = cell("leaf", leaf_irrep)
            for _ in range(2999):
                comp = cell("c", ONE, [comp])
            return Organism(target_irrep=ONE, components=(comp, cell("e", HALF)))

        a, b, c = chain(HALF), chain(HALF), chain(ONE)
        assert a == b and hash(a) == hash(b)
        assert a.components[0] == b.components[0] and hash(a.components[0]) == hash(b.components[0])
        assert a != c and a.components[0] != c.components[0]

    def test_equality_needs_the_same_tree(self):
        # the same pre-order names and irreps, split differently between components
        # or levels, or under another target, do not compare equal
        a, b = cell("a", HALF), cell("b", HALF)
        org = Organism(ZERO, (cell("p", ZERO, [a]), b))
        assert org == Organism(ZERO, (cell("p", ZERO, [a]), b))
        for other in (Organism(ZERO, (cell("p", ZERO, [a, b]),)), Organism(ONE, (cell("p", ZERO, [a]), b)),
                      Organism(ZERO, (cell("p", ZERO, [a]), b, cell("c", HALF)))):
            assert org != other
        assert cell("p", ZERO, [a, b]) != cell("p", ZERO, [cell("a", HALF, [b])])

    def test_removal_must_be_nonempty(self):
        with pytest.raises(ValueError):
            RemovalAction(frozenset())

    def test_removal_indices_must_be_non_negative(self):
        with pytest.raises(ValueError, match="^component indices must be non-negative$"):
            RemovalAction(frozenset({2, -1}))


class TestAmputate:
    def test_remove_two_of_four_halves_still_complete(self):
        rem = amputate(singlet_of_four_halves(), RemovalAction(frozenset({2, 3})))
        assert len(rem.components) == 2
        assert rem.complete  # 0 in 1/2 x 1/2

    def test_remove_one_of_two_halves_incomplete(self):
        org = Organism(target_irrep=ONE, components=(cell("a", HALF), cell("b", HALF)))
        rem = amputate(org, RemovalAction(frozenset({1})))
        assert not rem.complete  # 1 not in {1/2}

    def test_remove_all_rejected(self):
        with pytest.raises(EmptyRemainderError):
            amputate(singlet_of_four_halves(), RemovalAction(frozenset({0, 1, 2, 3})))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            amputate(singlet_of_four_halves(), RemovalAction(frozenset({9})))


class TestRepair:
    def test_already_complete(self):
        rem = amputate(singlet_of_four_halves(), RemovalAction(frozenset({2, 3})))
        result = repair(rem, max_depth=3)
        assert result.feasible
        assert result.levels_descended == 0
        assert result.cost == 0

    def test_one_descent_rebuilds(self):
        # remaining cell carries J=1 alone; its two spin-1/2 parts recover J=0
        org = Organism(
            target_irrep=ZERO,
            components=(
                cell("kept", ONE, [cell("p1", HALF), cell("p2", HALF)]),
                cell("lost", ONE),
            ),
        )
        rem = amputate(org, RemovalAction(frozenset({1})))
        assert not rem.complete
        result = repair(rem, max_depth=3)
        assert result.feasible
        assert result.levels_descended == 1
        assert result.cost == 2
        # independent witness check
        assert decompose_product(list(result.witness_irreps)).multiplicity(ZERO) >= 1

    def test_depth_zero_guard(self):
        org = Organism(
            target_irrep=ZERO,
            components=(
                cell("kept", ONE, [cell("p1", HALF), cell("p2", HALF)]),
                cell("lost", ONE),
            ),
        )
        rem = amputate(org, RemovalAction(frozenset({1})))
        result = repair(rem, max_depth=0)
        assert not result.feasible
        assert result.levels_descended == 0

    def test_stuck_at_leaves(self):
        org = Organism(
            target_irrep=ZERO,
            components=(cell("kept", ONE, [cell("q1", ONE), cell("q2", ZERO)]), cell("lost", ONE)),
        )
        rem = amputate(org, RemovalAction(frozenset({1})))
        result = repair(rem, max_depth=5)
        assert not result.feasible

    def test_feasible_always_has_valid_witness(self):
        org = singlet_of_four_halves()
        rem = amputate(org, RemovalAction(frozenset({0, 1})))
        result = repair(rem, max_depth=2)
        if result.feasible:
            product = decompose_product(list(result.witness_irreps))
            assert product.multiplicity(org.target_irrep) >= 1

    def test_cost_monotone_in_depth(self):
        org = Organism(
            target_irrep=ZERO,
            components=(
                cell(
                    "kept",
                    ONE,
                    [
                        cell("p1", HALF, [cell("g1", HALF), cell("g2", ZERO)]),
                        cell("p2", HALF, [cell("g3", HALF), cell("g4", ZERO)]),
                    ],
                ),
                cell("lost", ONE),
            ),
        )
        rem = amputate(org, RemovalAction(frozenset({1})))
        costs = []
        for depth in range(4):
            result = repair(rem, max_depth=depth)
            costs.append((result.levels_descended, result.cost))
        sorted_by_levels = sorted(costs)
        assert all(
            a[1] <= b[1] for a, b in zip(sorted_by_levels, sorted_by_levels[1:])
        )


class TestIonizeRecombine:
    def atom(self):
        return Organism(
            target_irrep=ZERO,
            components=(cell("ion_core", HALF), cell("electron", HALF)),
        )

    def test_break_then_restore(self):
        broken, restored = ionize_recombine(self.atom())
        assert not broken.complete  # 0 not in {1/2}
        assert restored.complete  # 0 in 1/2 x 1/2

    def test_removes_the_component_named_electron(self):
        # both components are spin 1/2, so only the names show which one went
        broken, restored = ionize_recombine(self.atom())
        assert [c.name for c in broken.components] == ["ion_core"]
        assert [c.name for c in restored.components] == ["ion_core", "electron'"]

    @pytest.mark.parametrize("names", [("ion_core", "proton"), ("electron", "Electron")])
    def test_no_unique_electron_is_named(self, names):
        atom = Organism(target_irrep=ZERO, components=tuple(cell(name, HALF) for name in names))
        with pytest.raises(ValueError, match="^no unique component named 'electron'; pass electron_index$"):
            ionize_recombine(atom)

    def test_wrong_replacement_reported_honestly(self):
        _, restored = ionize_recombine(self.atom(), replacement_irrep=ONE)
        assert not restored.complete  # 0 not in 1/2 x 1

    def test_single_component_rejected(self):
        lone = Organism(target_irrep=HALF, components=(cell("only", HALF),))
        with pytest.raises(ValueError):
            ionize_recombine(lone)

    def test_matched_replacement_recovers_intact_completeness(self):
        org = singlet_of_four_halves()
        _, restored = ionize_recombine(org, electron_index=2)
        product = decompose_product([c.irrep for c in org.components])
        intact_complete = product.multiplicity(org.target_irrep) >= 1
        assert restored.complete == intact_complete

    def test_electron_index_out_of_range_is_named(self):
        with pytest.raises(ValueError, match="^removal index out of range$"):
            ionize_recombine(self.atom(), electron_index=5)


class TestScenarioFiles:
    def test_round_trip(self):
        org = Organism(
            target_irrep=ZERO,
            components=(cell("a", ONE, [cell("a1", HALF), cell("a2", HALF)]), cell("b", ONE)),
        )
        assert organism_from_obj(organism_to_obj(org)) == org

    def test_to_obj_matches_recursive_reference(self):
        # the same dicts with the same key order, and "subcomponents" only where there are some
        def spec(rng, name, depth):
            n = rng.randint(0, 3) if depth < 5 else 0
            return cell(name, IrrepLabel(rng.randint(0, 5)), [spec(rng, f"{name}{i}", depth + 1) for i in range(n)])

        for seed in range(200):
            rng = random.Random(seed)
            org = Organism(IrrepLabel(rng.randint(0, 3)),
                           tuple(spec(rng, f"c{i}", 0) for i in range(rng.randint(0, 4))))
            obj = organism_to_obj(org)
            assert json.dumps(obj) == json.dumps(reference_organism_to_obj(org)), seed
            assert organism_from_obj(obj) == org

    def test_deep_chain_to_obj(self):
        # a depth-3,000 chain: the explicit stack does not meet the recursion limit
        comp = cell("leaf", HALF)
        for i in range(2999):
            comp = cell(f"c{i}", ONE, [comp])
        obj = organism_to_obj(Organism(target_irrep=ONE, components=(comp, cell("e", HALF))))
        assert obj["target"] == "1" and obj["components"][1] == {"name": "e", "irrep": "1/2"}
        node, names = obj["components"][0], []
        while "subcomponents" in node:
            names.append(node["name"])
            assert list(node) == ["name", "irrep", "subcomponents"] and len(node["subcomponents"]) == 1
            node = node["subcomponents"][0]
        assert names == [f"c{i}" for i in reversed(range(2999))]
        assert node == {"name": "leaf", "irrep": "1/2"}

    def test_depth_ten_thousand_chain_round_trips_through_its_obj_form(self):
        # neither organism_to_obj nor organism_from_obj recurses, so depth is bounded by memory alone
        comp = cell("leaf", HALF)
        for i in range(10**4 - 1):
            comp = cell(f"c{i}", ONE, [comp])
        org = Organism(target_irrep=ONE, components=(comp, cell("e", HALF)))
        assert organism_from_obj(organism_to_obj(org)) == org
