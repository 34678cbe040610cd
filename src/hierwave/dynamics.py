"""Toy two-level dynamics: two blocks with spin-dependent effective masses.

Each block i carries two internal spin projections (s1, s2); its mass is
m0 + lambda(v^2) * s1 * s2 with lambda(v^2) = lambda0 + lambda1 * v^2, so the
inter-level feedback is: internal spins shift the block mass, the block
velocity shifts the spin-spin coupling.  Blocks interact through a
harmonic potential U = k (x1 - x2)^2 / 2 and a constant spin-spin energy
Lambda = kappa * S1 * S2 (S_i is the sum of the block's projections); the
coefficients are SimConfig(k=..., kappa=...), and 0 means the potential is
absent.  A JSON config gives them as potential_U {"type": "harmonic",
"k": ...} and potential_Lambda {"type": "linear", "kappa": ...}.

The kinetic expression is read as the Lagrangian content; the equations
of motion are d/dt (dL/dv_i) = -dU/dx_i, integrated by classical RK4 on
(x, p).  Because mass depends on velocity, the canonical momentum
p = a*v + b*v^3, with a = m0 + s1*s2*lambda0 and b = 2*s1*s2*lambda1, is the
honest dynamical variable.  A state is admissible when its effective mass
and dp/dv = a + 3*b*v^2 are both positive, with a > 0 so that p(v) is
monotone on the branch through v = 0.  Velocities are recovered at every
RK4 stage by the closed-form real root of the cubic on that branch
(Goldstein, Classical Mechanics, ch. 8):

    b > 0:  v = 2r sinh(asinh(3p / (2ar)) / 3),  r = sqrt(a / 3b)
    b < 0:  v = 2r sin(asin(3p / (2ar)) / 3),    r = sqrt(a / 3|b|)
    b = 0:  v = p / a

For b < 0 the branch ends where dp/dv = 0, at v = +-r and
|p| = 2ar/3; a momentum beyond it raises LegendreSingularityError.  Each
block's inverse is chosen once per branch, so that RK4 stages call it
without dispatch; only the one for a |b| so small that r overflows checks
the mass, which is positive on every other branch.  A sample whose x1, x2
or energy is not finite, as when RK4 runs far outside its stability
interval, or a velocity whose momentum overflows ends a run with
NonFiniteStateError; step() raises it for a new x or v that is not
finite.  The energy column reports the conserved Jacobi energy
h = sum_i (p_i v_i - L_i) + U + Lambda
  = sum_i [m0 v_i^2/2 + s1*s2 (lambda0 v_i^2/2 + 3/2 lambda1 v_i^4)] + U + Lambda,
which equals sum m_i(v_i) v_i^2 / 2 + U + Lambda when lambda1 = 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, islice

from ._value import _shown, _Value


class NonpositiveMassError(ValueError):
    """Effective mass dropped to zero or below."""


class LegendreSingularityError(ValueError):
    """dp/dv is not positive: the momentum relation p(v) has no unique inverse."""


class NonFiniteStateError(ValueError):
    """A position, a velocity or the energy overflowed to inf or NaN."""


# The most steps a run may take: run() keeps every sample, and each holds about
# 378 bytes of resident memory (the rise in ru_maxrss over run() at 200,000 and
# at 1,000,000 steps, Python 3.11, x86-64), so 2e6 steps hold about 0.76 GB.
# tracemalloc counts 312 bytes: pymalloc rounds each 24-byte float up to 32.
MAX_STEPS = 2_000_000


class SimConfig(_Value):
    """A run's parameters, checked and normalised by the constructor; build a
    changed config through it too, so that the change is checked."""

    __slots__ = ("m0", "spins", "lambda0", "lambda1", "k", "kappa", "x_init", "v_init", "dt", "steps")

    def __init__(
        self,
        m0: float,
        spins: tuple[float, float, float, float],  # (s1^1, s2^1, s1^2, s2^2)
        lambda0: float = 0.0,
        lambda1: float = 0.0,
        k: float = 0.0,  # harmonic U = k (x1 - x2)^2 / 2
        kappa: float = 0.0,  # spin-spin Lambda = kappa * S1 * S2
        x_init: tuple[float, float] = (0.0, 0.0),
        v_init: tuple[float, float] = (0.0, 0.0),
        dt: float = 1e-3,
        steps: int = 1000,
    ) -> None:
        spins = tuple(float(s) for s in spins)
        x_init = tuple(float(x) for x in x_init)
        v_init = tuple(float(v) for v in v_init)
        for name, pair in (("x_init", x_init), ("v_init", v_init)):
            if len(pair) != 2:
                raise ValueError(f"{name} must have two entries, got {len(pair)}")
        finite = [
            ("m0", m0), ("lambda0", lambda0), ("lambda1", lambda1), ("dt", dt),
            *(("x_init", x) for x in x_init), *(("v_init", v) for v in v_init),
            ("potential_U k", k), ("potential_Lambda kappa", kappa),
        ]
        for name, value in finite:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if isinstance(steps, float) and steps.is_integer():
            steps = int(steps)
        if isinstance(steps, bool) or not isinstance(steps, int):
            raise ValueError(f"steps must be an integer, got {_shown(steps)}")
        if m0 <= 0:
            raise ValueError("m0 must be positive")
        if dt <= 0:
            raise ValueError("dt must be positive")
        if steps < 0:
            raise ValueError("steps must be non-negative")
        if steps > MAX_STEPS:
            raise ValueError(f"steps must be <= {MAX_STEPS}, got {steps}")
        if dt * steps >= 1e9:
            raise ValueError("dt * steps must stay below 1e9")
        if len(spins) != 4 or any(s not in (0.5, -0.5) for s in spins):
            raise ValueError("spins must be four projections, each +0.5 or -0.5")
        values = (m0, spins, lambda0, lambda1, k, kappa, x_init, v_init, dt, steps)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()  # (class, field tuple)

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def spin_product(self, block: int) -> float:
        s = self.spins
        return s[0] * s[1] if block == 0 else s[2] * s[3]


SimState = namedtuple("SimState", ("t", "x", "v"))
TrajectorySample = namedtuple("TrajectorySample", ("t", "x1", "x2", "v1", "v2", "m1_eff", "m2_eff", "e_total"))
Trajectory = namedtuple("Trajectory", ("samples", "error"), defaults=(None,))


def effective_mass(cfg: SimConfig, block: int, v: float) -> float:
    """m0 + s1*s2*(lambda0 + lambda1*v^2), evaluated as a + b v^2 / 2 with
    _branch's a and b, as the m_eff columns are."""
    sig = cfg.spin_product(block)
    m = (cfg.m0 + sig * cfg.lambda0) + 0.5 * (2.0 * sig * cfg.lambda1) * v * v
    if m <= 0:
        raise NonpositiveMassError(f"effective mass {m!r} for block {block + 1} at v={v!r}")
    return m


def momentum(cfg: SimConfig, block: int, v: float) -> float:
    sig = cfg.spin_product(block)
    try:
        cube = v**3  # a float ** raises past |v| ~ 5.6e102, where v * v * v would give inf
    except OverflowError:
        raise NonFiniteStateError(f"momentum of block {block + 1} overflows at v={v!r}") from None
    return cfg.m0 * v + sig * (cfg.lambda0 * v + 2.0 * cfg.lambda1 * cube)


def _branch(cfg: SimConfig, block: int) -> tuple:
    """Constants (block, a, b, 2r, p_c) of the monotone branch of
    p = a*v + b*v^3, where p_c = 2ar/3 (the turning momentum when b < 0).
    2r = 0 selects the linear inverse v = p/a, for b = 0 and for a |b| so
    small that r overflows."""
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


def _inverse(branch: tuple):
    """The branch's v(p).  Only the tiny-b form checks the mass a + b v^2 / 2:
    for b = 0 it is a > 0 (or NaN, which never compares <= 0), for b > 0 at
    least a, and on the b < 0 branch, where |v| < r, above 5a/6."""
    block, a, b, two_r, p_c = branch
    if not b:
        return lambda p: p / a
    if two_r == 0.0:  # b so small that r overflows
        def inverse(p):
            v = p / a
            if (m := a + 0.5 * b * v * v) <= 0.0:
                raise NonpositiveMassError(f"effective mass {m!r} for block {block + 1} at v={v!r}")
            return v
    elif b > 0.0:
        return lambda p: two_r * math.sinh(math.asinh(p / p_c) / 3.0)
    else:  # the branch ends at the turning momentum p_c
        def inverse(p):
            if not -p_c < p < p_c:
                raise LegendreSingularityError(
                    f"p={p!r} for block {block + 1} is past the turning momentum {p_c!r} where dp/dv = 0")
            return two_r * math.sin(math.asin(p / p_c) / 3.0)
    return inverse


def invert_momentum(cfg: SimConfig, block: int, p: float) -> float:
    """Solve p = m0*v + s1*s2*(lambda0*v + 2*lambda1*v^3) for v in closed
    form on the branch where dp/dv > 0; raises LegendreSingularityError
    where that branch does not reach p."""
    return _inverse(_branch(cfg, block))(p)


def _branches(cfg: SimConfig, v: tuple[float, float]) -> tuple[tuple, tuple]:
    """Both blocks' branch constants, after checking that the velocities v
    are admissible: positive mass and dp/dv > 0."""
    out = []
    for i in (0, 1):
        effective_mass(cfg, i, v[i])
        branch = _branch(cfg, i)
        slope = branch[1] + 3.0 * branch[2] * v[i] * v[i]
        if slope <= 0.0:
            raise LegendreSingularityError(f"dp/dv = {slope!r} <= 0 for block {i + 1} at v={v[i]!r}")
        out.append(branch)
    return out[0], out[1]


def potential_energy(cfg: SimConfig, x: tuple[float, float]) -> float:
    r = x[0] - x[1]
    s = cfg.spins
    return 0.5 * cfg.k * r * r + cfg.kappa * (s[0] + s[1]) * (s[2] + s[3])


def energy(cfg: SimConfig, x: tuple[float, float], v: tuple[float, float]) -> float:
    """Jacobi energy h = sum_i (p_i v_i - L_i) + U(|x1-x2|) + kappa*S1*S2 of an
    admissible state, p_i v_i - L_i being a v^2 / 2 + 3 b v^4 / 4; it reduces
    to sum m_i(v_i) v_i^2 / 2 + U + kappa*S1*S2 when lambda1 = 0."""
    (_, a1, b1, _, _), (_, a2, b2, _, _) = _branches(cfg, v)
    w1, w2 = v[0] * v[0], v[1] * v[1]
    return w1 * (0.5 * a1 + 0.75 * b1 * w1) + w2 * (0.5 * a2 + 0.75 * b2 * w2) + potential_energy(cfg, x)


def _integrate(cfg: SimConfig, br1: tuple, br2: tuple, x: tuple, v: tuple):
    """Classical RK4 on (x, p) with force -k (x1 - x2) on block 1, from the admissible
    (x, v) on branches br1, br2: yields the checked (x1, x2, v1, v2) after each step."""
    dt, h, s, nk = cfg.dt, 0.5 * cfg.dt, cfg.dt / 6.0, -cfg.k
    vel1, vel2 = _inverse(br1), _inverse(br2)
    (x1, x2), (v1, v2) = x, v
    p1, p2 = momentum(cfg, 0, v1), momentum(cfg, 1, v2)
    while True:
        f1 = nk * (x1 - x2)
        u2 = vel1(p1 + h * f1)
        w2 = vel2(p2 - h * f1)
        f2 = nk * ((x1 + h * v1) - (x2 + h * v2))
        u3 = vel1(p1 + h * f2)
        w3 = vel2(p2 - h * f2)
        f3 = nk * ((x1 + h * u2) - (x2 + h * w2))
        u4 = vel1(p1 + dt * f3)
        w4 = vel2(p2 - dt * f3)
        f4 = nk * ((x1 + dt * u3) - (x2 + dt * w3))
        df = s * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        p1 += df
        p2 -= df
        x1 += s * (v1 + 2.0 * u2 + 2.0 * u3 + u4)
        x2 += s * (v2 + 2.0 * w2 + 2.0 * w3 + w4)
        v1, v2 = vel1(p1), vel2(p2)
        yield x1, x2, v1, v2


def step(cfg: SimConfig, state: SimState) -> SimState:
    """Advance one dt by classical 4-stage Runge-Kutta on (x, p).  A new x or v
    that is not finite raises NonFiniteStateError, as it ends a run."""
    t = state.t + cfg.dt
    x1, x2, v1, v2 = next(_integrate(cfg, *_branches(cfg, state.v), state.x, state.v))
    if not all(map(math.isfinite, (x1, x2, v1, v2))):
        raise NonFiniteStateError(f"x1={x1!r}, x2={x2!r}, v1={v1!r}, v2={v2!r} at t={t!r}: not all finite")
    return SimState(t=t, x=(x1, x2), v=(v1, v2))


def run(cfg: SimConfig) -> Trajectory:
    """Integrate for cfg.steps steps, sampling every step.  An inadmissible
    starting velocity, a stage that loses mass positivity or dp/dv > 0, or a
    sample whose x1, x2 or energy is not finite ends the run: the samples
    before it are returned with the error recorded, not raised."""
    samples: list[TrajectorySample] = []
    append, new, isfinite = samples.append, tuple.__new__, math.isfinite
    dt, hk, t, lam = cfg.dt, 0.5 * cfg.k, 0.0, potential_energy(cfg, (0.0, 0.0))  # lam = kappa*S1*S2
    try:
        (_, a1, b1, _, _), (_, a2, b2, _, _) = br1, br2 = _branches(cfg, cfg.v_init)
        states = islice(_integrate(cfg, br1, br2, cfg.x_init, cfg.v_init), cfg.steps)
        for x1, x2, v1, v2 in chain((cfg.x_init + cfg.v_init,), states):
            r, w1, w2 = x1 - x2, v1 * v1, v2 * v2
            e = w1 * (0.5 * a1 + 0.75 * b1 * w1) + w2 * (0.5 * a2 + 0.75 * b2 * w2) + (hk * r * r + lam)
            if not isfinite(e):  # also when x1 or x2 is not: hk * r * r is then +-inf or NaN
                raise NonFiniteStateError(f"x1={x1!r}, x2={x2!r}, E_total={e!r} at t={t!r}: not all finite")
            append(new(TrajectorySample, (t, x1, x2, v1, v2, a1 + 0.5 * b1 * v1 * v1, a2 + 0.5 * b2 * v2 * v2, e)))
            t += dt
    except (NonpositiveMassError, LegendreSingularityError, NonFiniteStateError) as exc:
        return Trajectory(samples, f"{type(exc).__name__}: {exc}")
    return Trajectory(samples)


CSV_COLUMNS = ("t", "x1", "x2", "v1", "v2", "m1_eff", "m2_eff", "E_total")
_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"


def write_trajectory_csv(traj: Trajectory, fh) -> None:
    """Write the trajectory with full double precision (17 significant digits)."""
    fh.write(",".join(CSV_COLUMNS) + "\n")
    fh.writelines(_ROW % s for s in traj.samples)


def max_energy_drift(traj: Trajectory) -> float:
    """Max |E(t) - E(0)| / max(|E(0)|, 1e-30) over the trajectory."""
    if not traj.samples:
        return 0.0
    e0 = traj.samples[0].e_total
    return max(abs(s.e_total - e0) for s in traj.samples) / max(abs(e0), 1e-30)


# --- JSON config files --------------------------------------------------------

def _is_number(value) -> bool:
    """True for a JSON number: an int or float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, key: str) -> float:
    if not _is_number(value):
        raise ValueError(f"{key} must be a number, got {_shown(value)}")
    return float(value)


def _numbers(value, key: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not all(map(_is_number, value)):
        raise ValueError(f"{key} must be a list of numbers, got {_shown(value)}")
    return tuple(map(float, value))


def _potential(obj: dict, key: str, kind: str, field: str) -> float:
    """The coefficient obj[key][field] of the potential object of type kind;
    a missing key, JSON null or type "none" means no potential, 0.0."""
    pot = obj.get(key)
    if pot is None:
        return 0.0
    if not isinstance(pot, dict):
        raise ValueError(f"{key} must be an object or null, got {_shown(pot)}")
    got = pot.get("type", "none")
    if got == "none":
        return 0.0
    if got != kind:
        raise ValueError(f"unknown {key} type {_shown(got)}")
    return _number(pot[field], f"{key} {field}")


def sim_config_from_obj(obj: dict) -> SimConfig:
    try:
        return SimConfig(
            m0=_number(obj["m0"], "m0"),
            spins=_numbers(obj["spins"], "spins"),
            lambda0=_number(obj.get("lambda0", 0.0), "lambda0"),
            lambda1=_number(obj.get("lambda1", 0.0), "lambda1"),
            k=_potential(obj, "potential_U", "harmonic", "k"),
            kappa=_potential(obj, "potential_Lambda", "linear", "kappa"),
            x_init=_numbers(obj["x_init"], "x_init"),
            v_init=_numbers(obj["v_init"], "v_init"),
            dt=_number(obj["dt"], "dt"),
            steps=obj["steps"],
        )
    except KeyError as exc:
        raise ValueError(f"not a hierwave simulation config: missing key {exc}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"not a hierwave simulation config: {exc}") from None


def load_sim_config(path: str) -> SimConfig:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return sim_config_from_obj(json.load(fh))
        except RecursionError as exc:  # nested too deep to read or to build
            raise ValueError(f"not a hierwave simulation config: {exc}") from None


SWEEP_FIELDS = ("lambda0", "lambda1", "m0", "dt")
