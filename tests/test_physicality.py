import itertools
import random
import sys

import pytest

from hierwave import physicality
from hierwave.physicality import (
    PhysicalityReport,
    Reason,
    check_basis_state,
    check_node,
    pauli_check,
)
from hierwave.rep_theory import IrrepLabel
from hierwave.state_tree import (
    BOSON,
    FERMION,
    UNSPECIFIED,
    HierarchyLevel,
    HierState,
    Named,
    NodeWave,
    SpinWeight,
    SU2,
    dominant_label,
)

from helpers import (
    CoupledLabel,
    chain_state,
    reference_check_basis_state,
    reference_pauli_check,
    two_spin_state,
)

HALF = IrrepLabel(1)


def labels(spins, child_ms):
    return [SpinWeight(s.twice_j, tm) for s, tm in zip(spins, child_ms)]


class TestCheckBasisState:
    def test_triplet_top_physical(self):
        report = check_basis_state(SpinWeight(2, 2), labels([HALF, HALF], (1, 1)))
        assert report.physical
        assert report.reasons == ()
        assert report.parent_multiplicity == 1

    def test_weight_mismatch(self):
        report = check_basis_state(SpinWeight(2, -2), labels([HALF, HALF], (1, 1)))
        assert not report.physical
        assert report.reasons == (Reason.WEIGHT_MISMATCH,)

    def test_parent_irrep_absent(self):
        report = check_basis_state(SpinWeight(3, 1), labels([HALF, HALF], (1, -1)))
        assert not report.physical
        assert Reason.PARENT_IRREP_ABSENT in report.reasons

    def test_permutation_invariance(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(2, 4)
            spins = [IrrepLabel(rng.randint(0, 3)) for _ in range(n)]
            ms = [rng.choice(range(-s.twice_j, s.twice_j + 1, 2)) for s in spins]
            top = sum(s.twice_j for s in spins)
            tJ = rng.choice(range(top % 2, top + 1, 2))
            tM = rng.choice(range(-tJ, tJ + 1, 2))
            base = check_basis_state(SpinWeight(tJ, tM), labels(spins, ms))
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = check_basis_state(
                SpinWeight(tJ, tM), labels([spins[i] for i in perm], [ms[i] for i in perm])
            )
            assert base == shuffled

    def test_every_admissible_weight_reachable(self):
        # for up to 4 spin-1/2 children, every (J in product, |M| <= J with an
        # m-assignment summing to M) admits at least one physical basis state
        from hierwave.rep_theory import decompose_product

        for n in (1, 2, 3, 4):
            spins = [HALF] * n
            product = decompose_product(spins)
            for label, _ in product:
                tJ = label.twice_j
                for tM in range(-tJ, tJ + 1, 2):
                    found = any(
                        check_basis_state(SpinWeight(tJ, tM), labels(spins, ms)).physical
                        for ms in itertools.product((1, -1), repeat=n)
                        if sum(ms) == tM
                    )
                    assert found, (n, tJ, tM)

    def test_matches_coupled_label_reference(self):
        # up to 3 children with 2j <= 2, every child weight, and every valid
        # (J, M) up to 2J = sum(2j) + 2: J of the wrong parity or above the
        # top exercises ParentIrrepAbsent
        cases = 0
        for n in (1, 2, 3):
            for tjs in itertools.product(range(3), repeat=n):
                spins = [IrrepLabel(tj) for tj in tjs]
                for ms in itertools.product(*(range(-tj, tj + 1, 2) for tj in tjs)):
                    children = labels(spins, ms)
                    for tJ in range(sum(tjs) + 3):
                        for tM in range(-tJ, tJ + 1, 2):
                            want = reference_check_basis_state(
                                CoupledLabel(IrrepLabel(tJ), tM, ms), spins)
                            got = check_basis_state(SpinWeight(tJ, tM), children)
                            assert got == want, (tjs, ms, tJ, tM)
                            cases += 1
        assert cases == 6999


def test_physicality_report_fields():
    report = PhysicalityReport((Reason.WEIGHT_MISMATCH,), 1)
    assert PhysicalityReport._fields == ("reasons", "parent_multiplicity")
    assert report == ((Reason.WEIGHT_MISMATCH,), 1)
    assert not report.physical
    assert PhysicalityReport((), 1).physical
    for name in ("reasons", "parent_multiplicity", "physical"):
        with pytest.raises(AttributeError):
            setattr(report, name, None)


class TestCheckNode:
    def test_two_spin_physical(self):
        psi = two_spin_state(SpinWeight(2, 2), (1, 1))
        reports = check_node(psi)
        assert len(reports) == 1
        path, report = reports[0]
        assert path == "root"
        assert report.physical

    def test_flipped_parent_weight(self):
        psi = two_spin_state(SpinWeight(2, -2), (1, 1))
        [(_, report)] = check_node(psi)
        assert not report.physical
        assert report.reasons == (Reason.WEIGHT_MISMATCH,)

    def test_leaf_yields_no_reports(self):
        level = HierarchyLevel(0, SU2, (SpinWeight(1, 1),))
        psi = HierState(NodeWave(level, (1.0,)))
        assert check_node(psi) == []

    def test_unsupported_group(self):
        level = HierarchyLevel(0, "Flavor", (Named("u"), Named("d")))
        child = HierState(
            NodeWave(HierarchyLevel(1, SU2, (SpinWeight(1, 1),)), (1.0,))
        )
        psi = HierState(NodeWave(level, (1.0, 0.0)), (child,))
        [(_, report)] = check_node(psi)
        assert report.reasons == (Reason.UNSUPPORTED_GROUP,)

    def test_unsupported_group_of_spin_labels(self):
        # the group decides, not the labels: SU(2) coupling would find this pair physical
        level = HierarchyLevel(0, "Flavor", (SpinWeight(1, 1), SpinWeight(1, -1)))
        child = HierState(NodeWave(HierarchyLevel(1, SU2, (SpinWeight(1, 1),)), (1.0,)))
        psi = HierState(NodeWave(level, (1.0, 0.0)), (child,))
        assert check_node(psi) == [("root", PhysicalityReport((Reason.UNSUPPORTED_GROUP,), 0))]

    def test_finds_each_dominant_label_once(self, monkeypatch):
        calls = []

        def counting(wave):
            calls.append(wave)
            return dominant_label(wave)

        monkeypatch.setattr(physicality, "dominant_label", counting)
        psi = chain_state(100, n_leaves=2)
        reports = check_node(psi)
        assert len(reports) == 100
        assert len(calls) == 102  # 100 chain nodes and 2 leaves


def fermion_leaf(level_index, tm, qn=(1, 0, 0), name="e"):
    level = HierarchyLevel(
        level_index, SU2, (SpinWeight(1, 1), SpinWeight(1, -1))
    )
    amps = (1.0, 0.0) if tm == 1 else (0.0, 1.0)
    return HierState(
        NodeWave(level, amps, statistics=FERMION, quantum_numbers=qn)
    )


def parent_over(children, level_index=0):
    level = HierarchyLevel(level_index, SU2, (SpinWeight(0, 0),))
    return HierState(NodeWave(level, (1.0,)), tuple(children))


def test_amplitude_count_mismatch_is_named_error():
    # two amplitudes over a one-label basis: the dominant entry has no label
    leaf = HierState(NodeWave(HierarchyLevel(1, SU2, (SpinWeight(1, 1),)), (0.1, 1.0),
                              statistics=FERMION, quantum_numbers=(1, 0, 0)))
    psi = parent_over([leaf])
    for check in (pauli_check, check_node):
        with pytest.raises(ValueError, match="^amplitude count 2 != basis size 1$"):
            check(psi)


class TestPauliCheck:
    def test_identical_fermion_siblings_flagged(self):
        psi = parent_over([fermion_leaf(1, 1), fermion_leaf(1, 1)])
        violations = pauli_check(psi)
        assert len(violations) == 1
        assert violations[0].system_path == "root"

    def test_different_m_not_flagged(self):
        psi = parent_over([fermion_leaf(1, 1), fermion_leaf(1, -1)])
        assert pauli_check(psi) == []

    def test_different_quantum_numbers_not_flagged(self):
        psi = parent_over([fermion_leaf(1, 1, qn=(1, 0, 0)), fermion_leaf(1, 1, qn=(2, 0, 0))])
        assert pauli_check(psi) == []

    def test_cousins_not_compared(self):
        grand = parent_over(
            [
                parent_over([fermion_leaf(2, 1)], level_index=1),
                parent_over([fermion_leaf(2, 1)], level_index=1),
            ]
        )
        assert pauli_check(grand) == []

    def test_cousins_compared_at_wider_scope(self):
        grand = parent_over(
            [
                parent_over([fermion_leaf(2, 1)], level_index=1),
                parent_over([fermion_leaf(2, 1)], level_index=1),
            ]
        )
        violations = pauli_check(grand, scope=2)
        assert len(violations) == 1
        assert violations[0].system_path == "root"

    def test_bosons_ignored(self):
        level = HierarchyLevel(1, SU2, (SpinWeight(1, 1), SpinWeight(1, -1)))
        boson = HierState(NodeWave(level, (1.0, 0.0), statistics=BOSON))
        psi = parent_over([boson, boson])
        assert pauli_check(psi) == []

    def test_order_invariant(self):
        # same multiset of children in two orders: same unordered violation pair
        kids = [fermion_leaf(1, 1), fermion_leaf(1, 1), fermion_leaf(1, -1)]
        a = pauli_check(parent_over(kids))
        b = pauli_check(parent_over([kids[2], kids[0], kids[1]]))
        assert len(a) == len(b) == 1
        assert {frozenset((v.first, v.second)) for v in a} == {frozenset(("root.0", "root.1"))}
        assert {frozenset((v.first, v.second)) for v in b} == {frozenset(("root.1", "root.2"))}

    def test_matches_brute_force_oracle_randomized(self):
        # small label and quantum-number pools so equal states are common
        labels = (SpinWeight(1, 1), SpinWeight(1, -1), SpinWeight(3, 1))

        def tree(rng, level_index, max_depth):
            basis = labels[: rng.randint(1, 3)]
            wave = NodeWave(
                HierarchyLevel(level_index, SU2, basis),
                tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in basis),
                statistics=rng.choice((FERMION, FERMION, BOSON, UNSPECIFIED)),
                quantum_numbers=rng.choice((None, (1, 0), (2, 0))),
            )
            n = rng.randint(0, 4) if level_index < max_depth else 0
            return HierState(wave, tuple(tree(rng, level_index + 1, max_depth) for _ in range(n)))

        total = 0
        for seed in range(200):
            rng = random.Random(seed)
            psi = tree(rng, 0, rng.randint(0, 5))
            for scope in (1, 2, 3):
                found = pauli_check(psi, scope)
                assert found == reference_pauli_check(psi, scope), (seed, scope)
                total += len(found)
        assert total > 100  # the trees do exercise the exclusion rule

    @pytest.mark.parametrize("scope", [0, -1])
    def test_scope_below_one_is_refused(self, scope):
        with pytest.raises(ValueError, match="^scope must be >= 1$"):
            pauli_check(parent_over([fermion_leaf(1, 1)]), scope)

    def test_scope_above_maxsize_is_scope_maxsize(self):
        psi = parent_over([fermion_leaf(1, 1), fermion_leaf(1, 1)])
        assert len(pauli_check(psi, 1)) == 1
        assert pauli_check(psi, 10**20) == pauli_check(psi, sys.maxsize) == []

    def test_deep_chain(self):
        # two identical fermion leaves under a depth-10^4 chain
        depth = 10**4
        psi = chain_state(depth, n_leaves=2)
        parent = "root" + ".0" * (depth - 1)
        for scope in (1, 2):
            (v,) = pauli_check(psi, scope)
            assert v.system_path == parent.rsplit(".", scope - 1)[0]
            assert (v.first, v.second) == (parent + ".0", parent + ".1")
