import io
import json
import math
import random
import re
from importlib import resources

import pytest

from hierwave.dynamics import (
    LegendreSingularityError,
    MAX_STEPS,
    NonFiniteStateError,
    NonpositiveMassError,
    SimConfig,
    SimState,
    TrajectorySample,
    effective_mass,
    energy,
    invert_momentum,
    max_energy_drift,
    momentum,
    run,
    sim_config_from_obj,
    step,
    write_trajectory_csv,
)

from helpers import newton_invert_momentum, reference_constant_mass_rk4, reference_run, reference_step

UP = (0.5, 0.5, 0.5, 0.5)  # spin products +1/4, +1/4
MIXED = (0.5, -0.5, 0.5, 0.5)  # spin products -1/4, +1/4


def config(**kw):
    base = dict(m0=1.0, spins=UP, dt=1e-3, steps=10)
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_spin_validation(self):
        with pytest.raises(ValueError):
            config(spins=(0.5, 0.5, 0.5, 0.3))

    def test_positive_mass_and_dt(self):
        with pytest.raises(ValueError):
            config(m0=0.0)
        with pytest.raises(ValueError):
            config(dt=-1.0)

    def test_runaway_guard(self):
        with pytest.raises(ValueError):
            config(dt=1.0, steps=2 * 10**9)

    def test_steps_bound(self):
        # run() keeps every sample: the bound holds them to about 0.6 GB
        assert config(steps=MAX_STEPS).steps == MAX_STEPS
        with pytest.raises(ValueError, match=rf"^steps must be <= {MAX_STEPS}, got {MAX_STEPS + 1}$"):
            config(steps=MAX_STEPS + 1)

    @pytest.mark.parametrize("field, value, message", [
        ("m0", "1", "m0 must be a number, got '1'"),
        ("m0", True, "m0 must be a number, got True"),
        ("dt", True, "dt must be a number, got True"),
        ("k", None, "potential_U k must be a number, got None"),
        ("lambda0", [1], "lambda0 must be a number, got [1]"),
        ("x_init", None, "x_init must be a list of numbers, got None"),
        ("spins", "abcd", "spins must be a list of numbers, got 'abcd'"),
        ("steps", -1, "steps must be non-negative"),
        ("dt", 1e8, "dt * steps must stay below 1e9"),  # 10 steps in code, 10,000 in the file
    ])
    def test_in_memory_config_gets_the_file_message(self, field, value, message):
        # SimConfig is the one checker: a value built in code is refused as in a file
        in_file = {"potential_U": {"type": "harmonic", "k": value}} if field == "k" else {field: value}
        for build in (lambda: config(**{field: value}), lambda: sim_config_from_obj(_harmonic_obj(**in_file))):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                build()

    def test_spin_products(self):
        cfg = config(spins=(0.5, -0.5, 0.5, 0.5))
        assert cfg.spin_product(0) == -0.25
        assert cfg.spin_product(1) == 0.25


class TestEnergy:
    def test_everything_vanishes(self):
        cfg = config()
        assert energy(cfg, (0.3, -0.7), (0.0, 0.0)) == 0.0

    def test_reduces_to_constant_mass(self):
        cfg = config(
            lambda0=0.0,
            lambda1=0.0,
            k=2.0,
            kappa=0.5,
        )
        x, v = (1.0, 0.0), (2.0, -1.0)
        expected = 0.5 * 1.0 * (4.0 + 1.0) + 0.5 * 2.0 * 1.0 + 0.5 * 1.0 * 1.0
        assert energy(cfg, x, v) == pytest.approx(expected, rel=1e-15)

    def test_hand_evaluated_effective_mass(self):
        cfg = config(lambda0=0.4)
        # m1 = 1 + 0.4 * 1/4 = 1.1 at any v since lambda1 = 0
        assert energy(cfg, (0.0, 0.0), (2.0, 0.0)) == pytest.approx(2.2, rel=1e-15)

    def test_jacobi_energy_with_lambda1(self):
        cfg = config(spins=MIXED, lambda0=0.3, lambda1=0.2, k=2.0)
        x, v = (1.0, 0.0), (0.4, -1.3)
        # h = sum_i (p_i v_i - m_i(v_i) v_i^2 / 2) + U
        expected = sum(
            momentum(cfg, i, v[i]) * v[i] - 0.5 * effective_mass(cfg, i, v[i]) * v[i] ** 2
            for i in (0, 1)
        ) + 1.0
        assert energy(cfg, x, v) == pytest.approx(expected, rel=1e-14)

    def test_nonpositive_mass_raises(self):
        cfg = config(spins=(0.5, -0.5, 0.5, 0.5), lambda0=5.0)
        with pytest.raises(NonpositiveMassError):
            energy(cfg, (0.0, 0.0), (1.0, 1.0))


class TestMomentumInversion:
    def test_linear_case_exact(self):
        v = 1.7
        # a subnormal lambda1 overflows the branch scale r and falls back to p/a
        for lam1 in (0.0, 1e-310):
            cfg = config(lambda0=0.4, lambda1=lam1)
            assert invert_momentum(cfg, 0, momentum(cfg, 0, v)) == pytest.approx(v, abs=1e-12)

    def test_closed_form_matches_newton_oracle(self):
        # beyond criterion 5's region: lambda1 up to 2, both spin-product
        # signs, v anywhere with dp/dv > 0, including near 0 and near the
        # turning point v = +-r of a negative cubic term (to 1e-6 r: closer,
        # p(v) = p(r) - O((r - v)^2) rounds onto the turning momentum)
        rng = random.Random(7)
        for _ in range(4000):
            lam0 = rng.uniform(0.0, 1.0)
            lam1 = rng.uniform(0.0, 2.0)
            cfg = config(spins=rng.choice([UP, (0.5, -0.5, 0.5, -0.5)]), lambda0=lam0, lambda1=lam1)
            block = rng.randint(0, 1)
            sig = cfg.spin_product(block)
            a, b = 1.0 + sig * lam0, 2.0 * sig * lam1
            bracket = None
            v_max = 10.0
            if b < 0.0:
                v_max = math.sqrt(a / (-3.0 * b))  # dp/dv(+-v_max) = 0
                bracket = (-v_max, v_max)
            u = rng.choice([
                rng.uniform(-1.0, 1.0),
                10.0 ** -rng.uniform(1.0, 8.0),
                1.0 - 10.0 ** -rng.uniform(1.0, 6.0),
            ])
            v = v_max * u * rng.choice([-1.0, 1.0])
            p = momentum(cfg, block, v)
            want = newton_invert_momentum(cfg, block, p, bracket)
            got = invert_momentum(cfg, block, p)
            # v(p) is ill-conditioned as dp/dv -> 0: a relative change e in p
            # moves v by e * cond, so the 1e-12 relative bound scales with it
            cond = abs(p) / (abs(v) * (a + 3.0 * b * v * v))
            assert abs(got - want) <= 1e-12 * abs(want) * max(1.0, cond), (cfg, block, v)

    def test_singular_momentum_raises(self):
        # negative cubic term: p(v) turns over at v = +-r, p = +-2ar/3
        cfg = config(spins=MIXED, lambda1=2.0)
        a, b = 1.0, -1.0
        r = math.sqrt(a / (-3.0 * b))
        p_turn = momentum(cfg, 0, r)
        assert p_turn == pytest.approx(2.0 * a * r / 3.0, rel=1e-15)
        assert invert_momentum(cfg, 0, 0.999 * p_turn) < r
        for p in (p_turn, 1.001 * p_turn, -1.001 * p_turn, 5.0):
            with pytest.raises(LegendreSingularityError):
                invert_momentum(cfg, 0, p)
        # a = m0 + s1*s2*lambda0 <= 0: p(v) is not monotone through v = 0
        with pytest.raises(LegendreSingularityError):
            invert_momentum(config(spins=MIXED, lambda0=4.2), 0, 0.0)

    def test_randomized_round_trip(self):
        rng = random.Random(42)
        for _ in range(2000):
            lam0 = rng.uniform(0.0, 1.0)
            lam1 = rng.uniform(0.0, 0.004)
            spins = rng.choice([UP, (0.5, -0.5, 0.5, -0.5)])
            cfg = config(spins=spins, lambda0=lam0, lambda1=lam1)
            v = rng.uniform(-10.0, 10.0)
            block = rng.randint(0, 1)
            got = invert_momentum(cfg, block, momentum(cfg, block, v))
            assert abs(got - v) < 1e-10


class TestStepAndRun:
    def test_free_motion_exact(self):
        cfg = config(x_init=(0.0, 1.0), v_init=(2.0, -1.0), dt=0.01, steps=100)
        traj = run(cfg)
        last = traj.samples[-1]
        assert last.x1 == pytest.approx(0.0 + 2.0 * 1.0, rel=1e-12)
        assert last.x2 == pytest.approx(1.0 - 1.0 * 1.0, rel=1e-12)
        assert traj.error is None

    def test_zero_steps_single_sample(self):
        traj = run(config(steps=0))
        assert len(traj.samples) == 1
        assert traj.samples[0].t == 0.0

    def test_harmonic_period(self):
        # relative coordinate oscillates with T = 2*pi*sqrt(mu/k), mu = 1/2
        cfg = config(
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
            r_prev = prev.x2 - prev.x1
            r = s.x2 - s.x1
            if r_prev > 0.0 >= r:
                crossings.append(prev.t + cfg.dt * r_prev / (r_prev - r))
            prev = s
        assert len(crossings) >= 2
        period = crossings[1] - crossings[0]
        expected = 2.0 * math.pi * math.sqrt(0.5 / 1.0)
        assert abs(period - expected) / expected < 1e-6

    def test_energy_conservation_constant_extra_mass(self):
        cfg = config(
            lambda0=0.4,
            lambda1=0.0,
            k=1.0,
            x_init=(-0.5, 0.5),
            v_init=(0.3, -0.1),
            dt=1e-3,
            steps=10000,
        )
        traj = run(cfg)
        assert traj.error is None
        assert max_energy_drift(traj) < 1e-8

    def test_time_reversal(self):
        cfg = config(
            lambda0=0.4,
            lambda1=0.01,
            k=1.0,
            x_init=(-0.4, 0.6),
            v_init=(0.2, -0.3),
            dt=1e-3,
            steps=2000,
        )
        forward = run(cfg)
        last = forward.samples[-1]
        back_cfg = SimConfig(
            m0=cfg.m0,
            spins=cfg.spins,
            lambda0=cfg.lambda0,
            lambda1=cfg.lambda1,
            k=cfg.k,
            x_init=(last.x1, last.x2),
            v_init=(-last.v1, -last.v2),
            dt=cfg.dt,
            steps=cfg.steps,
        )
        back = run(back_cfg)
        end = back.samples[-1]
        assert abs(end.x1 - cfg.x_init[0]) < 1e-6
        assert abs(end.x2 - cfg.x_init[1]) < 1e-6

    def test_reduction_matches_reference_integrator(self):
        cfg = config(
            lambda0=0.0,
            lambda1=0.0,
            k=1.3,
            x_init=(-0.2, 0.9),
            v_init=(0.5, -0.4),
            dt=1e-3,
            steps=500,
        )
        traj = run(cfg)
        ref = reference_constant_mass_rk4(1.0, 1.3, cfg.x_init, cfg.v_init, cfg.dt, cfg.steps)
        for s, (t, x1, x2, v1, v2) in zip(traj.samples, ref):
            assert abs(s.x1 - x1) < 1e-10
            assert abs(s.x2 - x2) < 1e-10
            assert abs(s.v1 - v1) < 1e-10
            assert abs(s.v2 - v2) < 1e-10

    def test_label_exchange_symmetry(self):
        cfg = config(
            lambda0=0.2,
            lambda1=0.005,
            k=1.0,
            x_init=(-0.7, 0.7),
            v_init=(0.4, -0.4),
            dt=1e-3,
            steps=1000,
        )
        traj = run(cfg)
        for s in traj.samples:
            assert abs(s.x1 + s.x2) < 1e-9
            assert abs(s.v1 + s.v2) < 1e-9

    def test_spin_flip_covariance(self):
        base = config(
            spins=(0.5, 0.5, 0.5, -0.5),
            lambda0=0.3,
            lambda1=0.002,
            k=1.0,
            x_init=(-0.5, 0.5),
            v_init=(0.1, -0.2),
            steps=500,
        )
        flipped = config(
            spins=(-0.5, -0.5, 0.5, -0.5),
            lambda0=0.3,
            lambda1=0.002,
            k=1.0,
            x_init=(-0.5, 0.5),
            v_init=(0.1, -0.2),
            steps=500,
        )
        a, b = run(base), run(flipped)
        for sa, sb in zip(a.samples, b.samples):
            assert sa == sb

    def test_mass_collapse_gives_partial_trajectory(self):
        # antiparallel internal spins with lambda0 > 4*m0 push the effective
        # mass below zero; run must record the error instead of raising
        cfg = SimConfig(
            m0=1.0,
            spins=(0.5, -0.5, 0.5, -0.5),
            lambda0=4.2,
            lambda1=0.0,
            k=1.0,
            x_init=(-1.0, 1.0),
            v_init=(0.0, 0.0),
            dt=1e-3,
            steps=100,
        )
        traj = run(cfg)
        assert traj.error is not None and "NonpositiveMass" in traj.error
        assert len(traj.samples) < 101

    @pytest.mark.parametrize("potential", [0.0, 1.0])
    def test_inadmissible_start_recorded_not_raised(self, potential):
        # mass 0.5 > 0 but dp/dv = 1 - (1/4)(6 * 2 * 1) = -2 at v1 = 1: the
        # Newton solver used to jump silently to v1 = 0 (no potential) or
        # raise out of run (harmonic potential)
        cfg = config(spins=MIXED, lambda1=2.0, k=potential, v_init=(1.0, 0.0))
        traj = run(cfg)
        assert traj.error is not None
        assert traj.error.startswith("LegendreSingularityError: dp/dv = -2.0")
        assert traj.samples == []
        with pytest.raises(LegendreSingularityError):
            step(cfg, SimState(t=0.0, x=cfg.x_init, v=cfg.v_init))

    def test_turning_point_mid_run_gives_partial_trajectory(self):
        # block 1 starts at rest on its monotone branch (|v| < r = 1/sqrt(3));
        # the spring accelerates it past the turning momentum
        cfg = config(
            spins=MIXED,
            lambda1=2.0,
            k=1.0,
            x_init=(-1.0, 1.0),
            steps=5000,
        )
        traj = run(cfg)
        assert traj.error is not None and traj.error.startswith("LegendreSingularityError")
        assert 1 < len(traj.samples) < cfg.steps + 1
        r = 1.0 / math.sqrt(3.0)
        assert all(abs(s.v1) < r for s in traj.samples)

    def test_jacobi_energy_conserved_with_lambda1(self):
        # the velocity-dependent mass does work-free exchange between
        # sum m v^2 / 2 and the spin coupling; only h is conserved
        cfg = config(
            lambda0=0.3,
            lambda1=0.2,
            k=1.0,
            x_init=(-0.5, 0.5),
            v_init=(0.3, -0.1),
            dt=1e-3,
            steps=10000,
        )
        traj = run(cfg)
        assert traj.error is None
        assert max_energy_drift(traj) < 1e-9


class TestTrajectoryCsv:
    def test_rows_are_seventeen_digit_fields(self):
        sample = TrajectorySample(0.0, -0.0, 1e-300, 2.5e300, 1 / 3, math.pi, math.inf, -7)
        traj = run(config(k=1.0, x_init=(-0.5, 0.5), lambda0=0.3))
        traj.samples.append(sample)
        fh = io.StringIO()
        write_trajectory_csv(traj, fh)
        reference = ["t,x1,x2,v1,v2,m1_eff,m2_eff,E_total"]
        reference += [",".join(f"{v:.17g}" for v in s) for s in traj.samples]
        assert fh.getvalue() == "\n".join(reference) + "\n"


class TestOneForm:
    def test_mass_and_energy_equal_the_sampled_columns(self):
        # effective_mass and energy evaluate the formulas run() samples, so
        # they agree bit for bit, also with lambda1 != 0
        rng = random.Random(15)
        compared = 0
        for _ in range(30):
            cfg = config(
                spins=tuple(rng.choice((0.5, -0.5)) for _ in range(4)),
                m0=rng.uniform(0.5, 2.0),
                lambda0=rng.uniform(-1.0, 1.0),
                lambda1=rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.5),
                k=rng.uniform(0.0, 2.0),
                kappa=rng.uniform(-1.0, 1.0),
                x_init=(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
                v_init=(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                steps=100,
            )
            for s in run(cfg).samples:
                assert effective_mass(cfg, 0, s.v1) == s.m1_eff
                assert effective_mass(cfg, 1, s.v2) == s.m2_eff
                assert energy(cfg, (s.x1, s.x2), (s.v1, s.v2)) == s.e_total
                compared += 1
        assert compared > 2000


STIFF = dict(m0=1.0, spins=UP, k=1e6, x_init=(1.0, 0.0), dt=1.0, steps=400)  # dt*omega0 = 1.4e3


def _finite(sample) -> bool:
    return math.isfinite(sample.x1) and math.isfinite(sample.x2) and math.isfinite(sample.e_total)


def _hex(values) -> tuple:
    return tuple(map(float.hex, values))


def seeded_config(rng: random.Random) -> SimConfig:
    """A config anywhere the integrator's branches differ: lambda1 = 0, the
    p/a fallback at lambda1 = +-1e-310, stiffening and softening cubic terms
    strong enough to pass the turning momentum, a = m0 + s1*s2*lambda0 near
    or below 0, starting masses at or below 0, springs stiff enough to
    overflow, and dt up to 1."""
    return config(
        m0=rng.uniform(0.5, 2.0),
        spins=tuple(rng.choice((0.5, -0.5)) for _ in range(4)),
        lambda0=rng.choice((0.0, rng.uniform(-1.0, 1.0), rng.uniform(3.0, 8.0))),
        lambda1=rng.choice((0.0, 1e-310, -1e-310, rng.uniform(-0.05, 0.05), rng.uniform(-3.0, 3.0))),
        k=rng.choice((0.0, rng.uniform(0.0, 3.0), 10.0 ** rng.uniform(2.0, 12.0))),
        kappa=rng.uniform(-1.0, 1.0),
        x_init=(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
        v_init=(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
        dt=10.0 ** rng.uniform(-4.0, 0.0),
        steps=rng.randint(0, 80),
    )


class TestReferenceIdentity:
    """run() and step() against the reference integrator in helpers, which
    dispatches on the branch at every RK4 stage: the same bits, the same
    number of samples and the same error strings."""

    def test_run_matches_reference(self):
        rng = random.Random(18)
        outcomes = {}
        for _ in range(1200):
            cfg = seeded_config(rng)
            got, want = run(cfg), reference_run(cfg)
            cut = next((i for i, s in enumerate(want.samples) if not _finite(s)), None)
            if cut is not None:  # the reference writes the non-finite sample and goes on
                bad = want.samples[cut]
                error = (f"NonFiniteStateError: x1={bad.x1!r}, x2={bad.x2!r}, "
                         f"E_total={bad.e_total!r} at t={bad.t!r}: not all finite")
                want = want._replace(samples=want.samples[:cut], error=error)
            assert [_hex(s) for s in got.samples] == [_hex(s) for s in want.samples], cfg
            assert got.error == want.error, cfg
            kind = (got.error or "none").split(":")[0]
            outcomes[kind] = outcomes.get(kind, 0) + 1
        # every way a run can end is exercised
        assert set(outcomes) == {"none", "NonFiniteStateError", "NonpositiveMassError",
                                 "LegendreSingularityError"}, outcomes
        assert min(outcomes.values()) >= 40, outcomes

    def test_step_matches_reference(self):
        rng = random.Random(19)
        raised = 0
        for _ in range(1000):
            cfg = seeded_config(rng)
            got = want = SimState(t=0.0, x=cfg.x_init, v=cfg.v_init)
            for _ in range(3):
                try:
                    want = reference_step(cfg, want)
                except ValueError as exc:
                    with pytest.raises(type(exc)) as info:
                        step(cfg, got)
                    assert str(info.value) == str(exc), cfg
                    raised += 1
                    break
                got = step(cfg, got)
                assert _hex((got.t, *got.x, *got.v)) == _hex((want.t, *want.x, *want.v)), cfg
        assert raised >= 100


class TestNonFiniteState:
    def test_stiff_run_ends_with_named_error(self):
        # RK4 far outside its stability interval: the 14 samples before the
        # first non-finite one are kept, as they are for the other errors
        cfg = config(**STIFF)
        traj = run(cfg)
        assert traj.error.startswith("NonFiniteStateError: x1=")
        assert traj.error.endswith(", E_total=nan at t=14.0: not all finite")
        assert len(traj.samples) == 14 and all(map(_finite, traj.samples))
        assert traj.samples == reference_run(cfg).samples[:14]

    @pytest.mark.parametrize("k, e_total", [(1.0, "inf"), (0.0, "nan")])
    def test_overflowing_start_fails_at_sample_zero(self, k, e_total):
        # x1 - x2 overflows: U is inf with a spring, NaN (0 * inf) without
        traj = run(config(k=k, x_init=(1e308, -1e308)))
        assert traj.samples == []
        assert traj.error == (f"NonFiniteStateError: x1=1e+308, x2=-1e+308, E_total={e_total} "
                              f"at t=0.0: not all finite")
        assert issubclass(NonFiniteStateError, ValueError)

    def test_large_finite_positions_are_kept(self):
        # each value is checked on its own: x1 + x2 overflows here, the state does not
        traj = run(config(x_init=(1e308, 1e308), v_init=(0.5, 0.5)))
        assert traj.error is None and len(traj.samples) == 11

    @pytest.mark.parametrize("lambda0", [0.0, 0.3])
    def test_overflowing_momentum_ends_run_after_sample_zero(self, lambda0):
        # a float ** raises OverflowError past |v| ~ 5.6e102, and v**3 is computed even when
        # lambda1 = 0 (with lambda1 != 0 the energy of sample 0 is already inf)
        cfg = config(k=1.0, lambda0=lambda0, x_init=(-0.5, 0.5), v_init=(1e103, 0.0))
        with pytest.raises(NonFiniteStateError, match=r"^momentum of block 1 overflows at v=1e\+103$"):
            momentum(cfg, 0, 1e103)
        traj = run(cfg)
        assert traj.error == "NonFiniteStateError: momentum of block 1 overflows at v=1e+103"
        assert len(traj.samples) == 1 and _finite(traj.samples[0])
        assert run(config(v_init=(0.0, -1e103), steps=0)).error is None  # no step, no momentum

    def test_stiff_step_overflows_by_name(self):
        # step starts from the state's velocity, so its 11th call meets a velocity whose cube overflows
        cfg = config(**STIFF)
        state = SimState(t=0.0, x=cfg.x_init, v=cfg.v_init)
        for _ in range(10):
            state = step(cfg, state)
        with pytest.raises(NonFiniteStateError, match=r"^momentum of block 1 overflows at v=3\.3\d*e\+113$"):
            step(cfg, state)

    def test_step_to_a_nan_state_raises(self):
        # the force k (x1 - x2) overflows in the first stage, and every new x and v is NaN
        cfg = SimConfig(1.0, UP, k=1e300, x_init=(-1e300, 1e300), dt=1.0, steps=1)
        message = r"^x1=nan, x2=nan, v1=nan, v2=nan at t=1\.0: not all finite$"
        with pytest.raises(NonFiniteStateError, match=message):
            step(cfg, SimState(t=0.0, x=cfg.x_init, v=cfg.v_init))
        assert run(cfg).error.startswith("NonFiniteStateError: ")

    def test_step_keeps_large_finite_positions(self):
        # each value is checked on its own, as in run(): x1 + x2 overflows here, the state does not
        cfg = config(x_init=(1e308, 1e308), v_init=(0.5, 0.5))
        state = step(cfg, SimState(t=0.0, x=cfg.x_init, v=cfg.v_init))
        assert state.x == (1e308, 1e308) and all(map(math.isfinite, state.v))


class TestConfigIO:
    def test_from_obj(self):
        cfg = sim_config_from_obj(
            {
                "m0": 2.0,
                "spins": [0.5, -0.5, 0.5, 0.5],
                "lambda0": 0.1,
                "potential_U": {"type": "harmonic", "k": 3.0},
                "potential_Lambda": {"type": "linear", "kappa": 0.2},
                "x_init": [0.0, 1.0],
                "v_init": [0.0, 0.0],
                "dt": 0.01,
                "steps": 5,
            }
        )
        assert cfg.m0 == 2.0
        assert cfg.k == 3.0
        assert cfg.kappa == 0.2
        assert cfg.lambda1 == 0.0


def _harmonic_obj(**changes) -> dict:
    obj = json.loads(resources.files("hierwave").joinpath("data/harmonic_benchmark.json").read_text())
    return {**obj, **changes}


def _floats(n: int) -> list[float]:
    return [0.5 + i for i in range(n)]


class TestBoundedConfigErrors:
    """The config loaders show at most 500 characters of a rejected value,
    then its length, as the state loader does."""

    @pytest.mark.parametrize("changes, prefix, value", [
        ({"m0": _floats(100_000)}, "m0 must be a number, got ", _floats(100_000)),
        ({"spins": ["up"] * 100_000}, "spins must be a list of numbers, got ", ["up"] * 100_000),
        ({"potential_U": {"type": "harmonic", "k": _floats(100_000)}}, "potential_U k must be a number, got ",
         _floats(100_000)),
        ({"potential_U": {"type": "x" * 10_000}}, "unknown potential_U type ", "x" * 10_000),
        ({"potential_Lambda": _floats(1000)}, "potential_Lambda must be an object or null, got ",
         _floats(1000)),
        ({"steps": _floats(100_000)}, "steps must be an integer, got ", _floats(100_000)),
    ])
    def test_long_value_is_cut(self, changes, prefix, value):
        text = repr(value)
        with pytest.raises(ValueError) as exc:
            sim_config_from_obj(_harmonic_obj(**changes))
        assert str(exc.value) == f"{prefix}{text[:500]}... ({len(text)} characters)"
        assert len(str(exc.value)) < 600

    @pytest.mark.parametrize("changes, message", [
        ({"m0": [0.5] * 100}, f"m0 must be a number, got {[0.5] * 100!r}"),  # 500 characters: shown whole
        ({"spins": ["up"]}, "spins must be a list of numbers, got ['up']"),
        ({"potential_U": {"type": "linear"}}, "unknown potential_U type 'linear'"),
    ])
    def test_short_value_is_shown_whole(self, changes, message):
        assert len(repr([0.5] * 100)) == 500
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            sim_config_from_obj(_harmonic_obj(**changes))

    @pytest.mark.parametrize("changes, message", [
        ({"m0": [0.5, 10**5000]}, "m0 must be a number, got a value of type list that repr() cannot show"),
        ({"potential_U": {"type": 10**5000}}, f"unknown potential_U type an int of {(10**5000).bit_length()} bits"),
    ])
    def test_value_without_repr_is_named(self, changes, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            sim_config_from_obj(_harmonic_obj(**changes))
