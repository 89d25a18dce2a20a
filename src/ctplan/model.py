"""Assembly of the planning LPs/MILPs from a scenario configuration.

Two models are produced.  The collision-free model is a pure LP: double
integrator dynamics, boundary conditions at both ends, actuator and speed
limits as variable bounds, and a wall-avoidance floor on position.  The
collision-tolerant model adds one binary contact flag per step plus the
big-M machinery that switches the velocity update between the normal
integrator and a restitution law on the step during which an impact occurs,
lifts the actuator limit while the vehicle stays in contact, and books
impact speed into per-step damage variables with optional caps.

Conventions for the contact flag zeta(t) = [x(t) <= wall]:

* the impact happens on the transition into a contact step, so the
  restitution law ties v(t) to the approach speed v(t-1);
* the position update is never switched, so a hard impact may carry the
  vehicle slightly past the wall within the impact step;
* the actuator limit is lifted only while both endpoints of a step are in
  contact, which lets a penetrated vehicle work its way back to the wall
  surface but keeps every wall-departure step honestly saturated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import ConfigError, ModelError
from .solver import EQ, GE, LE, LinearConstraint, LpProblem, MilpProblem

#: Slack used to realize the strict inequality in the damage assignment.
STRICT_MARGIN = 1e-6


class PlanningMode(Enum):
    COLLISION_FREE = "collision_free"
    COLLISION_TOLERANT = "collision_tolerant"


@dataclass(frozen=True)
class PlanningConfig:
    """Scenario parameters, SI units throughout."""

    x_init: float
    v_init: float
    a_init: float
    x_g: float
    v_final: float
    a_final: float
    x_w: float
    dt: float
    a_max: float
    a_min: float
    v_max: float
    restitution: float
    d_max: Optional[float] = None
    d_total_max: Optional[float] = None
    max_contact_steps: Optional[int] = None

    def validate(self) -> None:
        for name in ("x_init", "v_init", "a_init", "x_g", "v_final", "a_final",
                     "x_w", "dt", "a_max", "a_min", "v_max", "restitution"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.a_min < 0 < self.a_max:
            raise ConfigError(
                f"acceleration bounds must straddle zero (a_min < 0 < a_max), "
                f"got a_min={self.a_min}, a_max={self.a_max}")
        if self.v_max <= 0:
            raise ConfigError(f"v_max must be positive, got {self.v_max}")
        if not 0.0 <= self.restitution <= 1.0:
            raise ConfigError(f"restitution must lie in [0, 1], got {self.restitution}")
        if self.x_init < self.x_w:
            raise ConfigError(
                f"x_init must not start behind the wall (x_init >= x_w), "
                f"got x_init={self.x_init}, x_w={self.x_w}")
        if self.x_g < self.x_w:
            raise ConfigError(
                f"goal behind the wall is unsupported (x_g >= x_w), "
                f"got x_g={self.x_g}, x_w={self.x_w}")
        for name in ("d_max", "d_total_max"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and nonnegative, got {value}")
        if self.max_contact_steps is not None and self.max_contact_steps < 0:
            raise ConfigError(
                f"max_contact_steps must be nonnegative, got {self.max_contact_steps}")

    def scenario_key(self) -> tuple:
        """Kinematic fingerprint, ignoring damage caps and run options."""
        return (self.x_init, self.v_init, self.a_init, self.x_g, self.v_final,
                self.a_final, self.x_w, self.dt, self.a_max, self.a_min,
                self.v_max, self.restitution)


@dataclass(frozen=True)
class VariableLayout:
    """Index map for one model instance.

    Collision-free models use the x/v/a blocks only (3*(tau+1) variables);
    collision-tolerant models add zeta/damage blocks and one aggregate
    damage variable (5*(tau+1) + 1).
    """

    tau: int
    has_contact: bool

    def _check(self, t: int) -> int:
        if not 0 <= t <= self.tau:
            raise IndexError(f"step {t} outside horizon [0, {self.tau}]")
        return t

    def x(self, t: int) -> int:
        return self._check(t)

    def v(self, t: int) -> int:
        return (self.tau + 1) + self._check(t)

    def a(self, t: int) -> int:
        return 2 * (self.tau + 1) + self._check(t)

    def zeta(self, t: int) -> int:
        if not self.has_contact:
            raise IndexError("collision-free layout has no contact flags")
        return 3 * (self.tau + 1) + self._check(t)

    def damage(self, t: int) -> int:
        if not self.has_contact:
            raise IndexError("collision-free layout has no damage variables")
        return 4 * (self.tau + 1) + self._check(t)

    @property
    def damage_total(self) -> int:
        if not self.has_contact:
            raise IndexError("collision-free layout has no damage variables")
        return 5 * (self.tau + 1)

    @property
    def num_vars(self) -> int:
        return 5 * (self.tau + 1) + 1 if self.has_contact else 3 * (self.tau + 1)


@dataclass(frozen=True)
class BigM:
    """Relaxation constant plus the bound terms that produced it."""

    value: float
    terms: tuple[tuple[str, float], ...]
    dominant: str


def big_m_bound(config: PlanningConfig, tau: int) -> BigM:
    """Constant large enough to deactivate every switched constraint.

    Twice the largest of: the reachable position range, the actuator spread,
    the worst contact acceleration, and the speed limit.
    """
    config.validate()
    if tau < 1:
        raise ModelError(f"horizon must be at least 1 step, got {tau}")
    e = config.restitution
    terms = (
        ("position_range", abs(config.x_init - config.x_w) + config.v_max * tau * config.dt),
        ("acceleration_spread", config.a_max - config.a_min),
        ("contact_acceleration",
         (1.0 + e) * config.v_max / config.dt + max(abs(config.a_max), abs(config.a_min))),
        ("speed_limit", config.v_max),
    )
    dominant = max(terms, key=lambda kv: kv[1])
    return BigM(2.0 * dominant[1], terms, dominant[0])


def _boundary_rows(config: PlanningConfig, lay: VariableLayout) -> list[LinearConstraint]:
    tau = lay.tau
    return [
        LinearConstraint.of([(lay.x(0), 1.0)], EQ, config.x_init),
        LinearConstraint.of([(lay.x(tau), 1.0)], EQ, config.x_g),
        LinearConstraint.of([(lay.v(0), 1.0)], EQ, config.v_init),
        LinearConstraint.of([(lay.v(tau), 1.0)], EQ, config.v_final),
        LinearConstraint.of([(lay.a(0), 1.0)], EQ, config.a_init),
        LinearConstraint.of([(lay.a(tau), 1.0)], EQ, config.a_final),
    ]


def _position_rows(config, lay) -> list[LinearConstraint]:
    dt = config.dt
    half = 0.5 * dt * dt
    return [
        LinearConstraint.of(
            [(lay.x(t + 1), 1.0), (lay.x(t), -1.0), (lay.v(t), -dt), (lay.a(t), -half)],
            EQ, 0.0)
        for t in range(lay.tau)
    ]


def build_collision_free(config: PlanningConfig, tau: int) -> tuple[LpProblem, VariableLayout]:
    """LP with full dynamics, boundary conditions, and x(t) >= wall."""
    config.validate()
    if tau < 1:
        raise ModelError(f"horizon must be at least 1 step, got {tau}")
    lay = VariableLayout(tau, has_contact=False)
    dt = config.dt

    rows = _position_rows(config, lay)
    for t in range(tau):
        rows.append(LinearConstraint.of(
            [(lay.v(t + 1), 1.0), (lay.v(t), -1.0), (lay.a(t), -dt)], EQ, 0.0))
    rows.extend(_boundary_rows(config, lay))

    bounds = [(-math.inf, math.inf)] * lay.num_vars
    for t in range(tau + 1):
        if t >= 1:
            bounds[lay.x(t)] = (config.x_w, math.inf)
        bounds[lay.v(t)] = (-config.v_max, config.v_max)
        bounds[lay.a(t)] = (config.a_min, config.a_max)

    problem = LpProblem.build(lay.num_vars, [0.0] * lay.num_vars, rows, bounds)
    return problem, lay


def build_collision_tolerant(
    config: PlanningConfig, tau: int, big_m: Optional[float] = None
) -> tuple[MilpProblem, VariableLayout]:
    """Big-M MILP: contact flags switch dynamics, limits, and damage.

    The switched-constraint families carry individually calibrated
    relaxation constants: each is large enough to deactivate its family for
    every integer-feasible trajectory (so no solution is cut), while staying
    as small as the physics allows, which keeps relaxations tight.  Rows are
    emitted in per-step order so that interval propagation walks the
    dynamics chain efficiently.
    """
    config.validate()
    if tau < 1:
        raise ModelError(f"horizon must be at least 1 step, got {tau}")
    lay = VariableLayout(tau, has_contact=True)
    dt = config.dt
    e = config.restitution
    M = float(big_m) if big_m is not None else big_m_bound(config, tau).value

    # Family constants.  Any step's speed never exceeds v_hat: non-contact
    # steps obey the speed limit and post-impact speed is e times a prior
    # speed.  Damage equals an impact speed; the velocity-row slack is
    # bounded by (1+e) speeds plus one (possibly lifted) actuation kick.
    v_hat = max(config.v_max, abs(config.v_init), abs(config.v_final))
    a_hat = max(abs(config.a_max), abs(config.a_min))
    m_speed = max(0.0, v_hat - config.v_max) + 1.0
    v_bound = config.v_max + m_speed
    m_vel = (1.0 + e) * v_bound + dt * (a_hat + M) + 1.0
    m_damage = v_bound + 1.0

    rows = _boundary_rows(config, lay)

    for t in range(tau + 1):
        z = lay.zeta(t)
        # Contact indicator: zeta = 1 exactly when x <= wall.
        rows.append(LinearConstraint.of(
            [(lay.x(t), 1.0), (z, M)], GE, config.x_w))
        rows.append(LinearConstraint.of(
            [(lay.x(t), 1.0), (z, M)], LE, config.x_w + M))
        # Actuator limits, lifted in contact.
        rows.append(LinearConstraint.of(
            [(lay.a(t), 1.0), (z, -M)], LE, config.a_max))
        rows.append(LinearConstraint.of(
            [(lay.a(t), 1.0), (z, M)], GE, config.a_min))
        # Speed limit, lifted during contact steps.
        rows.append(LinearConstraint.of(
            [(lay.v(t), 1.0), (z, -m_speed)], LE, config.v_max))
        rows.append(LinearConstraint.of(
            [(lay.v(t), 1.0), (z, m_speed)], GE, -config.v_max))
        # Damage gate: zero unless in contact.
        rows.append(LinearConstraint.of(
            [(lay.damage(t), 1.0), (z, -m_damage)], LE, 0.0))
        rows.append(LinearConstraint.of(
            [(lay.damage(t), 1.0), (z, m_damage)], GE, 0.0))
        # Damage assignment: impact speed, the approach speed into the step.
        v_prev = lay.v(t - 1) if t >= 1 else lay.v(0)
        assign = [(lay.damage(t), 1.0), (v_prev, 1.0)]
        rows.append(LinearConstraint.of(assign + [(z, m_damage)], LE, m_damage))
        rows.append(LinearConstraint.of(
            assign + [(z, -m_damage)], GE, -m_damage - STRICT_MARGIN))
        if t >= tau:
            continue
        z_next = lay.zeta(t + 1)
        half = 0.5 * dt * dt
        # Position update is never switched.
        rows.append(LinearConstraint.of(
            [(lay.x(t + 1), 1.0), (lay.x(t), -1.0), (lay.v(t), -dt), (lay.a(t), -half)],
            EQ, 0.0))
        # Velocity update, relaxed on impact transitions.
        vel = [(lay.v(t + 1), 1.0), (lay.v(t), -1.0), (lay.a(t), -dt)]
        rows.append(LinearConstraint.of(vel + [(z_next, -m_vel)], LE, 0.0))
        rows.append(LinearConstraint.of(vel + [(z_next, m_vel)], GE, 0.0))
        # Restitution law v(t+1) = -e v(t), active on impact transitions.
        law = [(lay.v(t + 1), 1.0), (lay.v(t), e)]
        rows.append(LinearConstraint.of(law + [(z_next, m_vel)], LE, m_vel))
        rows.append(LinearConstraint.of(law + [(z_next, -m_vel)], GE, -m_vel))
        # Wall-departure steps stay saturated: the actuator lift holds only
        # while both step endpoints are in contact.
        rows.append(LinearConstraint.of(
            [(lay.a(t), 1.0), (z_next, -M)], LE, config.a_max))
        rows.append(LinearConstraint.of(
            [(lay.a(t), 1.0), (z_next, M)], GE, config.a_min))

    # Aggregate damage.
    agg = [(lay.damage_total, 1.0)] + [(lay.damage(t), -1.0) for t in range(tau + 1)]
    rows.append(LinearConstraint.of(agg, EQ, 0.0))

    if config.d_max is not None:
        for t in range(tau + 1):
            rows.append(LinearConstraint.of([(lay.damage(t), 1.0)], LE, config.d_max))
    if config.d_total_max is not None:
        rows.append(LinearConstraint.of([(lay.damage_total, 1.0)], LE, config.d_total_max))
    if config.max_contact_steps is not None:
        rows.append(LinearConstraint.of(
            [(lay.zeta(t), 1.0) for t in range(tau + 1)], LE, float(config.max_contact_steps)))

    bounds = [(-math.inf, math.inf)] * lay.num_vars
    for t in range(tau + 1):
        bounds[lay.zeta(t)] = (0.0, 1.0)

    base_lp = LpProblem.build(lay.num_vars, [0.0] * lay.num_vars, rows, bounds)
    problem = MilpProblem.build(base_lp, [lay.zeta(t) for t in range(tau + 1)])
    return problem, lay


def with_effort_objective(problem: LpProblem, lay: VariableLayout) -> LpProblem:
    """Append slack variables s(t) >= |a(t)| and minimize their sum.

    The slack block starts at the original variable count, one per step.
    """
    tau = lay.tau
    n0 = problem.num_vars
    rows = list(problem.constraints)
    for t in range(tau + 1):
        s = n0 + t
        rows.append(LinearConstraint.of([(lay.a(t), 1.0), (s, -1.0)], LE, 0.0))
        rows.append(LinearConstraint.of([(lay.a(t), 1.0), (s, 1.0)], GE, 0.0))
    objective = [0.0] * n0 + [1.0] * (tau + 1)
    bounds = list(problem.var_bounds) + [(0.0, math.inf)] * (tau + 1)
    return LpProblem.build(n0 + tau + 1, objective, rows, bounds)
