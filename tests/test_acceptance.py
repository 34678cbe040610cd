"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them)."""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from importlib import resources

from hierwave.complexity import MatrixElementSeries, Verdict, classify, description_length, raw_bits
from hierwave.dynamics import (
    SimConfig,
    invert_momentum,
    max_energy_drift,
    momentum,
    run,
)
from hierwave.physicality import Reason, check_basis_state, pauli_check
from hierwave.rep_theory import (
    CGQuery,
    IrrepLabel,
    clebsch_gordan,
    decompose_product,
)
from hierwave.repair_cascade import RemovalAction, amputate, organism_from_obj, repair
from hierwave.state_tree import (
    FERMION,
    HierarchyLevel,
    HierState,
    NodeWave,
    SpinWeight,
    SU2,
    add,
    scalar_mul,
)

from helpers import amplitudes_close, fill_shape, irrep_multiplicities_by_weights, random_shape


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL: {desc}")
        raise
    print(f"\nACCEPTANCE {num} PASS: {desc}")


def test_criterion_1_two_spin_example():
    with criterion(1, "two spin-1/2 worked example reproduced exactly"):
        start = time.perf_counter()
        physical_states = set()
        admissible = {}
        for tm1, tm2 in itertools.product((1, -1), repeat=2):
            for tM in (-2, 0, 2):
                ok_js = []
                for tJ in (0, 2):
                    if abs(tM) > tJ:
                        continue
                    report = check_basis_state(
                        SpinWeight(tJ, tM), [SpinWeight(1, tm1), SpinWeight(1, tm2)]
                    )
                    if report.physical:
                        ok_js.append(tJ)
                if ok_js:
                    physical_states.add((tM, (tm1, tm2)))
                    admissible[(tM, (tm1, tm2))] = set(ok_js)
        assert physical_states == {
            (2, (1, 1)),
            (-2, (-1, -1)),
            (0, (1, -1)),
            (0, (-1, 1)),
        }
        assert admissible[(2, (1, 1))] == {2}
        assert admissible[(-2, (-1, -1))] == {2}
        assert admissible[(0, (1, -1))] == {0, 2}
        assert admissible[(0, (-1, 1))] == {0, 2}
        impossible = check_basis_state(SpinWeight(2, -2), [SpinWeight(1, 1), SpinWeight(1, 1)])
        assert not impossible.physical
        assert impossible.reasons == (Reason.WEIGHT_MISMATCH,)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_representation_identities():
    with criterion(2, "dimension and weight-multiplicity identities on 200 random products"):
        start = time.perf_counter()
        rng = random.Random(42)
        for _ in range(200):
            tjs = [rng.randint(0, 4) for _ in range(rng.randint(1, 6))]
            result = decompose_product([IrrepLabel(tj) for tj in tjs])
            assert result.total_dim == math.prod(tj + 1 for tj in tjs)
            assert {lab.twice_j: m for lab, m in result.entries} == (
                irrep_multiplicities_by_weights(tjs)
            )
        assert time.perf_counter() - start < 30.0


def test_criterion_3_cg_orthogonality():
    with criterion(3, "Clebsch-Gordan orthogonality to 1e-10 for all j <= 3/2"):
        for tj1 in range(4):
            for tj2 in range(4):
                pairs = [
                    (tJ, tM)
                    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
                    for tM in range(-tJ, tJ + 1, 2)
                ]
                for Ja, Ma in pairs:
                    for Jb, Mb in pairs:
                        total = sum(
                            clebsch_gordan(CGQuery(tj1, tm1, tj2, tm2, Ja, Ma))
                            * clebsch_gordan(CGQuery(tj1, tm1, tj2, tm2, Jb, Mb))
                            for tm1 in range(-tj1, tj1 + 1, 2)
                            for tm2 in range(-tj2, tj2 + 1, 2)
                        )
                        expected = 1.0 if (Ja, Ma) == (Jb, Mb) else 0.0
                        assert abs(total - expected) < 1e-10


def test_criterion_4_dynamics_conservation():
    with criterion(4, "harmonic period, energy drift, and time reversal"):
        # period: 2*pi*sqrt(mu/k) with mu = 1/2 at dt = 1e-4, 1e-6 relative
        cfg = SimConfig(
            m0=1.0,
            spins=(0.5, 0.5, 0.5, 0.5),
            k=1.0,
            x_init=(-0.5, 0.5),
            v_init=(0.0, 0.0),
            dt=1e-4,
            steps=60000,
        )
        traj = run(cfg)
        crossings = []
        prev = traj.samples[0]
        for s in traj.samples[1:]:
            r_prev, r = prev.x2 - prev.x1, s.x2 - s.x1
            if r_prev > 0.0 >= r:
                crossings.append(prev.t + cfg.dt * r_prev / (r_prev - r))
            prev = s
        period = crossings[1] - crossings[0]
        expected = 2.0 * math.pi * math.sqrt(0.5)
        assert abs(period - expected) / expected < 1e-6

        # energy drift with a constant mass shift (lambda0 != 0, lambda1 = 0)
        cfg2 = SimConfig(
            m0=1.0,
            spins=(0.5, 0.5, 0.5, 0.5),
            lambda0=0.4,
            k=1.0,
            x_init=(-0.5, 0.5),
            v_init=(0.3, -0.1),
            dt=1e-3,
            steps=10000,
        )
        traj2 = run(cfg2)
        assert traj2.error is None
        assert max_energy_drift(traj2) < 1e-8

        # time reversal returns the initial positions to 1e-6
        cfg3 = SimConfig(
            m0=1.0,
            spins=(0.5, 0.5, 0.5, 0.5),
            lambda0=0.4,
            lambda1=0.01,
            k=1.0,
            x_init=(-0.4, 0.6),
            v_init=(0.2, -0.3),
            dt=1e-3,
            steps=2000,
        )
        forward = run(cfg3)
        last = forward.samples[-1]
        back = run(
            SimConfig(
                m0=cfg3.m0,
                spins=cfg3.spins,
                lambda0=cfg3.lambda0,
                lambda1=cfg3.lambda1,
                k=cfg3.k,
                x_init=(last.x1, last.x2),
                v_init=(-last.v1, -last.v2),
                dt=cfg3.dt,
                steps=cfg3.steps,
            )
        )
        end = back.samples[-1]
        assert abs(end.x1 - cfg3.x_init[0]) < 1e-6
        assert abs(end.x2 - cfg3.x_init[1]) < 1e-6


def test_criterion_5_momentum_inversion():
    with criterion(5, "momentum inversion round trip to 1e-10 on 10^4 random velocities"):
        rng = random.Random(42)
        for _ in range(10000):
            lam0 = rng.uniform(0.0, 1.0)
            lam1 = rng.uniform(0.0, 0.004)
            spins = rng.choice([(0.5, 0.5, 0.5, 0.5), (0.5, -0.5, 0.5, -0.5)])
            cfg = SimConfig(m0=1.0, spins=spins, lambda0=lam0, lambda1=lam1)
            v = rng.uniform(-10.0, 10.0)
            block = rng.randint(0, 1)
            assert abs(invert_momentum(cfg, block, momentum(cfg, block, v)) - v) < 1e-10


def test_criterion_6_repair_cascade():
    with criterion(6, "bundled hydra scenario repairs after one descent; leaf dead-end infeasible"):
        text = (resources.files("hierwave") / "data" / "hydra.json").read_text()
        org = organism_from_obj(json.loads(text))
        assert org.validate() == []

        remainder = amputate(org, RemovalAction(frozenset({1, 2})))
        assert not remainder.complete
        result = repair(remainder, max_depth=3)
        assert result.feasible
        assert result.levels_descended == 1
        # re-verify the witness independently
        witness = decompose_product(list(result.witness_irreps))
        assert witness.multiplicity(org.target_irrep) >= 1

        dead_end = amputate(org, RemovalAction(frozenset({0, 1})))
        result2 = repair(dead_end, max_depth=3)
        assert not result2.feasible
        final = decompose_product(list(result2.witness_irreps))
        assert final.multiplicity(org.target_irrep) == 0


def test_criterion_7_pauli_checker():
    with criterion(7, "helium-like exclusion violation; separated parents are clean"):
        def electron():
            level = HierarchyLevel(1, SU2, (SpinWeight(1, 1), SpinWeight(1, -1)))
            return HierState(
                NodeWave(level, (1.0, 0.0), statistics=FERMION, quantum_numbers=(1, 0, 0))
            )

        def parent(children, level_index=0):
            level = HierarchyLevel(level_index, SU2, (SpinWeight(0, 0),))
            return HierState(NodeWave(level, (1.0,)), tuple(children))

        helium = parent([electron(), electron()])
        assert len(pauli_check(helium)) == 1

        def shifted_electron():
            level = HierarchyLevel(2, SU2, (SpinWeight(1, 1), SpinWeight(1, -1)))
            return HierState(
                NodeWave(level, (1.0, 0.0), statistics=FERMION, quantum_numbers=(1, 0, 0))
            )

        separated = parent(
            [
                parent([shifted_electron()], level_index=1),
                parent([shifted_electron()], level_index=1),
            ]
        )
        assert pauli_check(separated) == []


def test_criterion_8_complexity_proxy():
    with criterion(8, "constant/random/cosine series verdicts deterministic"):
        const_syms = [0] * 4096
        assert description_length(const_syms) / raw_bits(const_syms) < 0.05

        rng = random.Random(42)
        rand_syms = [rng.randrange(256) for _ in range(4096)]
        assert description_length(rand_syms) / raw_bits(rand_syms) > 0.9

        vals = tuple(math.cos(2 * math.pi * 2 * k / 4096) for k in range(4096))
        report = classify(MatrixElementSeries(values=vals, quantization=0.05))
        assert report.verdict == Verdict.RULE_LIKE

        # determinism across repeated runs within the process
        report2 = classify(MatrixElementSeries(values=vals, quantization=0.05))
        assert report == report2


def test_criterion_9_vector_space_axioms():
    with criterion(9, "vector-space axioms on 500 random congruent trees to 1e-12"):
        rng = random.Random(42)
        for _ in range(500):
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
            assert amplitudes_close(scalar_mul(a * b, psi), scalar_mul(a, scalar_mul(b, psi)))
            assert amplitudes_close(scalar_mul(1, psi), psi)
            assert amplitudes_close(add(add(phi, psi), phi), add(phi, add(psi, phi)))
