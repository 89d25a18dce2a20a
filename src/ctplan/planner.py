"""Minimum-time planning, damage-capped planning, sweeps, and comparisons.

The horizon search probes feasibility at candidate step counts.  Because a
plan that ends at rest extends to any longer horizon by holding at the goal,
feasibility is monotone in the horizon, so the search climbs from an
analytic lower seed and falls back to bisection.  A plan with a nonzero
terminal velocity cannot hold at the goal, so its search scans every horizon
upward instead.  The step below the answer is checked as well: above the
floor that check is a full infeasibility proof, and below it (where the
floor already certifies infeasibility) it runs on a node budget, and a
budget hit keeps the floor.  At the minimal horizon the returned plan
additionally minimizes total actuation effort (sum of |a(t)| through slack
variables), with a tiny graded secondary pass that makes the tie-break
deterministic even between equal-effort profiles.

Every probe and solve is stateless, so distinct searches (and distinct
sweep points) can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, HorizonExhausted, NodeLimitReached, PlannerError
from .model import (PlanningConfig, PlanningMode, VariableLayout,
                    build_collision_free, build_collision_tolerant,
                    with_effort_objective)
from .solver import (LE, LinearConstraint, LpProblem, LpStatus, MilpProblem,
                     MilpStatus, SolverOptions, find_integer_feasible, solve_lp,
                     solve_milp)

_CLIMB_STEPS = 5


@dataclass(frozen=True)
class TrajectoryPlan:
    """One solved trajectory, indexed t = 0..tau."""

    dt: float
    tau: int
    x: tuple
    v: tuple
    a: tuple
    zeta: tuple
    damage: tuple
    damage_total: float
    mode: PlanningMode
    config: PlanningConfig

    @property
    def min_time(self) -> float:
        return self.tau * self.dt

    @property
    def collided(self) -> bool:
        return any(z >= 1 for z in self.zeta)

    @property
    def max_impact_speed(self) -> float:
        worst = 0.0
        for t in range(self.tau + 1):
            if self.zeta[t] >= 1:
                v_prev = self.v[t - 1] if t >= 1 else self.v[0]
                worst = max(worst, -v_prev)
        return worst


@dataclass(frozen=True)
class ComparisonEntry:
    label: str
    min_time: float
    collided: bool
    max_impact_speed: float
    damage_total: float
    improvement_pct: Optional[float]


@dataclass(frozen=True)
class ComparisonReport:
    baseline_label: str
    entries: tuple


@dataclass(frozen=True)
class SweepPoint:
    x_g: float
    min_time: Optional[float]
    collided: Optional[bool]
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepResult:
    points: tuple


# ---------------------------------------------------------------------------
# analytic oracle
# ---------------------------------------------------------------------------

def analytic_min_time(config: PlanningConfig, mode: PlanningMode) -> Optional[float]:
    """Continuous-time bang-bang travel time, or None when no oracle applies.

    Defined for rest-to-rest transfers whose peak speeds stay below the
    speed limit; the collision branch additionally requires a perfectly
    inelastic impact.  The collision-tolerant value is the better of the
    straight transfer and the hit-the-wall-then-restart transfer.
    """
    config.validate()
    if config.v_init != 0.0 or config.v_final != 0.0:
        return None
    a_eff = min(config.a_max, -config.a_min)
    d = abs(config.x_init - config.x_g)
    t_free = 2.0 * math.sqrt(d / a_eff)
    if math.sqrt(d * a_eff) > config.v_max:
        return None
    if mode == PlanningMode.COLLISION_FREE:
        return t_free
    if config.restitution != 0.0:
        return None
    d_wall = config.x_init - config.x_w
    d_goal = config.x_g - config.x_w
    if math.sqrt(2.0 * config.a_max * d_wall) > config.v_max:
        return None
    if math.sqrt(d_goal * a_eff) > config.v_max:
        return None
    t_collide = math.sqrt(2.0 * d_wall / config.a_max) + 2.0 * math.sqrt(d_goal / a_eff)
    return min(t_free, t_collide)


def _ceil_steps(time: float, dt: float) -> int:
    return max(0, math.ceil(time / dt - 1e-9))


def _seed_lower_bound_steps(config: PlanningConfig, mode: PlanningMode) -> int:
    """Provable lower bound on the feasible horizon, in steps.

    Counts the held-at-zero first input (a rest start with a pinned zero
    initial input cannot move during step 0), the impact transition, and
    the from-rest wall departure; uses the larger acceleration magnitude
    and ignores the speed cap, so it never exceeds the true discrete
    optimum.  Conservative cases fall back to 1.  The search still checks
    the step below the floor, but only on a node budget (see
    _search_minimum_tau).
    """
    if config.v_init != 0.0 or config.v_final != 0.0:
        return 1
    dt = config.dt
    a_hat = max(config.a_max, -config.a_min)
    d = abs(config.x_init - config.x_g)
    wasted = 1 if (config.a_init == 0.0 and config.x_init > config.x_w) else 0
    free_route = wasted + _ceil_steps(2.0 * math.sqrt(d / a_hat), dt)
    if mode == PlanningMode.COLLISION_FREE:
        return max(1, free_route)
    if config.restitution != 0.0:
        return 1
    d_wall = config.x_init - config.x_w
    d_goal = config.x_g - config.x_w
    w_star = math.sqrt(2.0 * a_hat * d_wall)
    w_cap = min(config.v_max, w_star if config.d_max is None else min(config.d_max, w_star))
    # Approach: reach the step before impact, having covered everything but
    # what the impact transition itself can cover, at speed <= w_cap.
    d_red = max(0.0, d_wall - w_cap * dt - 0.5 * a_hat * dt * dt)
    if 2.0 * a_hat * d_red <= w_cap * w_cap:
        t_approach = math.sqrt(2.0 * d_red / a_hat)
    else:
        v_peak = math.sqrt((2.0 * a_hat * d_red + w_cap * w_cap) / 2.0)
        t_approach = (2.0 * v_peak - w_cap) / a_hat
    contact_route = (wasted + 1 + _ceil_steps(t_approach, dt)
                     + _ceil_steps(2.0 * math.sqrt(d_goal / a_hat), dt))
    return max(1, min(free_route, contact_route))


# ---------------------------------------------------------------------------
# horizon search
# ---------------------------------------------------------------------------

def _trivial_plan(config: PlanningConfig, mode: PlanningMode) -> TrajectoryPlan:
    return TrajectoryPlan(
        dt=config.dt, tau=0,
        x=(config.x_init,), v=(config.v_init,), a=(config.a_init,),
        zeta=(0,), damage=(0.0,), damage_total=0.0, mode=mode, config=config)


def _plan_from_values(config, lay: VariableLayout, values, mode) -> TrajectoryPlan:
    tau = lay.tau
    x = tuple(float(values[lay.x(t)]) for t in range(tau + 1))
    v = tuple(float(values[lay.v(t)]) for t in range(tau + 1))
    a = tuple(float(values[lay.a(t)]) for t in range(tau + 1))
    if lay.has_contact:
        zeta = tuple(int(round(values[lay.zeta(t)])) for t in range(tau + 1))
        damage = tuple(float(values[lay.damage(t)]) for t in range(tau + 1))
        d_total = float(values[lay.damage_total])
    else:
        zeta = (0,) * (tau + 1)
        damage = (0.0,) * (tau + 1)
        d_total = 0.0
    return TrajectoryPlan(config.dt, tau, x, v, a, zeta, damage, d_total, mode, config)


#: Node budget for the redundant infeasibility confirmation one step below
#: an analytically certified lower bound (see _search_minimum_tau).
_CONFIRM_NODE_BUDGET = 320


class _Prober:
    """Memoized feasibility probes at fixed horizons."""

    def __init__(self, config, mode, big_m):
        self.config = config
        self.mode = mode
        self.big_m = big_m
        self.memo: dict[int, bool] = {}
        self.witness: dict[int, np.ndarray] = {}

    def feasible(self, tau: int) -> bool:
        if tau not in self.memo:
            verdict = self._probe(tau, SolverOptions())
            if verdict is None:
                raise NodeLimitReached(
                    f"node limit hit while probing horizon {tau} without a verdict")
            self.memo[tau] = verdict
        return self.memo[tau]

    def feasible_budgeted(self, tau: int):
        """True/False on a verdict, None when the node budget ran out first."""
        if tau in self.memo:
            return self.memo[tau]
        verdict = self._probe(tau, SolverOptions(node_limit=_CONFIRM_NODE_BUDGET))
        if verdict is not None:
            self.memo[tau] = verdict
        return verdict

    def _probe(self, tau: int, opts):
        if self.mode == PlanningMode.COLLISION_FREE:
            problem, _ = build_collision_free(self.config, tau)
            sol = solve_lp(problem, opts)
            if sol.status == LpStatus.OPTIMAL:
                self.witness[tau] = sol.values
            return sol.status == LpStatus.OPTIMAL
        problem, lay = build_collision_tolerant(self.config, tau, big_m=self.big_m)
        # A mild pull toward zero contact keeps the relaxation near-integral,
        # which shortens the dive to a first witness; any objective leaves
        # the feasibility answer unchanged.
        contact_cost = _contact_objective(problem.base.num_vars, lay)
        probe = MilpProblem(problem.base.with_objective(contact_cost), problem.binary_vars)
        sol = find_integer_feasible(probe, opts)
        if sol.status == MilpStatus.NODE_LIMIT and sol.values is None:
            return None
        if sol.values is not None:
            self.witness[tau] = sol.values
        return sol.values is not None


def _search_minimum_tau(prober: _Prober, tau_lb: int, tau_upper: int, scan: bool) -> int:
    """Smallest feasible horizon in [tau_lb, tau_upper]: climb, then bisect.

    A scan is a climb with no cap, for searches where feasibility need not be
    monotone in the horizon.
    """
    climb_end = tau_upper if scan else min(tau_lb + _CLIMB_STEPS - 1, tau_upper)
    for found in range(tau_lb, climb_end + 1):
        if prober.feasible(found):
            break
    else:
        lo, hi = climb_end + 1, tau_upper
        if lo > hi or not prober.feasible(hi):
            raise HorizonExhausted(
                f"no feasible horizon at or below {tau_upper} steps", tau_upper=tau_upper)
        while lo < hi:
            mid = (lo + hi) // 2
            if prober.feasible(mid):
                hi = mid
            else:
                lo = mid + 1
        found = lo
    # Above the floor, the step below the answer was already probed
    # infeasible.  Below it the floor certifies infeasibility, so the
    # redundant solver check runs on a node budget, and a budget hit keeps
    # the floor; a feasible verdict there steps the answer down.
    if found == tau_lb:
        while found > 1 and prober.feasible_budgeted(found - 1):
            found -= 1
    return found


def _tie_break_values(effort_lp: LpProblem, lay: VariableLayout, z_star: float):
    """Pick a unique vertex among equal-effort optima via graded weights."""
    tau = lay.tau
    n0 = lay.num_vars
    s_idx = [n0 + t for t in range(tau + 1)]
    tol = 1e-7 * (1.0 + abs(z_star))
    rows = list(effort_lp.constraints)
    rows.append(LinearConstraint.of([(j, 1.0) for j in s_idx], LE, z_star + tol))
    objective = [0.0] * effort_lp.num_vars
    for t in range(tau + 1):
        objective[s_idx[t]] = 1.0 + 1e-6 * (t + 1) / (tau + 1)
    graded = LpProblem.build(effort_lp.num_vars, objective, rows, effort_lp.var_bounds)
    sol = solve_lp(graded)
    return sol.values if sol.status == LpStatus.OPTIMAL else None


#: Up to this many contact flags, the effort tie-break minimizes over every
#: contact pattern with an exact MILP; above it, only within the pattern of
#: the feasibility probe's witness.  The exact MILP is affordable on small
#: plans but not on the paper scenario: there it takes about 1,115 nodes at
#: 47 steps and ends on the witness's pattern anyway.
_EXACT_EFFORT_MAX_BINARIES = 14


def _with_contact_pattern(effort_lp: LpProblem, lay: VariableLayout, values) -> LpProblem:
    """``effort_lp`` with each contact flag fixed at its rounded value in ``values``."""
    bounds = list(effort_lp.var_bounds)
    for t in range(lay.tau + 1):
        flag = float(int(round(values[lay.zeta(t)])))
        bounds[lay.zeta(t)] = (flag, flag)
    return replace(effort_lp, var_bounds=tuple(bounds))


def _effort_solve(config, mode, tau, big_m, witness) -> TrajectoryPlan:
    """Deterministic minimum-effort plan at this horizon.

    ``witness`` is the feasibility probe's solution at ``tau``.  On short
    horizons the tie-break minimizes total |a| over every feasible solution
    exactly; on long ones it minimizes within the witness's contact pattern
    (minimal time and feasibility are unaffected).  The graded tie-break LP
    then runs with the contact pattern of that minimum fixed.
    """
    if mode == PlanningMode.COLLISION_FREE:
        problem, lay = build_collision_free(config, tau)
        effort_lp = with_effort_objective(problem, lay)
        sol = solve_lp(effort_lp)
    else:
        problem, lay = build_collision_tolerant(config, tau, big_m=big_m)
        effort_base = with_effort_objective(problem.base, lay)
        if len(problem.binary_vars) <= _EXACT_EFFORT_MAX_BINARIES:
            s_block = np.abs([witness[lay.a(t)] for t in range(tau + 1)])
            seed = (np.concatenate([witness, s_block]), float(s_block.sum()))
            sol = solve_milp(MilpProblem(effort_base, problem.binary_vars),
                             initial_incumbent=seed)
            if sol.status == MilpStatus.NODE_LIMIT:
                raise NodeLimitReached(
                    f"node limit hit during the effort solve at horizon {tau}")
            # A MILP that returns no values fails the status check below.
            effort_lp = _with_contact_pattern(
                effort_base, lay, witness if sol.values is None else sol.values)
        else:
            effort_lp = _with_contact_pattern(effort_base, lay, witness)
            sol = solve_lp(effort_lp)
    if sol.status not in (LpStatus.OPTIMAL, MilpStatus.OPTIMAL):
        raise PlannerError(f"effort solve failed at horizon {tau}: {sol.status}")
    values = _tie_break_values(effort_lp, lay, sol.objective)
    return _plan_from_values(config, lay, sol.values if values is None else values, mode)


def _contact_objective(num_vars, lay):
    """Probe objective: roughly one unit per contact flag, decreasing in t.

    Any positive weights keep the witness semantics (zero contact whenever a
    contact-free point exists); the downward grading parks the relaxation's
    fractional mass at late steps, so the lowest-index branching rule pins
    the tail first and wall-departure dynamics become exact early, which
    keeps search trees shallow.
    """
    cost = [0.0] * num_vars
    tau = lay.tau
    for t in range(tau + 1):
        cost[lay.zeta(t)] = 1.0 + (tau - t) / (tau + 1.0)
    return cost


def default_tau_upper(config: PlanningConfig, mode: PlanningMode) -> int:
    """Three times the analytic travel time, never fewer than 20 steps."""
    analytic = analytic_min_time(config, mode)
    if analytic is None:
        a_eff = min(config.a_max, -config.a_min)
        analytic = (abs(config.x_init - config.x_g) + abs(config.v_init) ** 2 / a_eff
                    ) / config.v_max + 2.0 * config.v_max / a_eff
    return max(20, math.ceil(3.0 * analytic / config.dt))


def min_time_search(
    config: PlanningConfig,
    mode: PlanningMode,
    tau_upper: Optional[int] = None,
    *,
    big_m: Optional[float] = None,
) -> TrajectoryPlan:
    """Smallest feasible horizon for the mode, with deterministic tie-break.

    ``big_m`` overrides the computed relaxation constant (sensitivity
    experiments).  Raises HorizonExhausted when nothing at or below
    ``tau_upper`` is feasible and NodeLimitReached when the MILP budget runs
    out first.
    """
    config.validate()
    if (config.x_init == config.x_g and config.v_init == config.v_final
            and config.a_init == config.a_final):
        return _trivial_plan(config, mode)

    tau_lb = _seed_lower_bound_steps(config, mode)
    if tau_upper is None:
        tau_upper = default_tau_upper(config, mode)
    if tau_upper < 1:
        raise HorizonExhausted("horizon limit below one step", tau_upper=tau_upper)

    # Holding at the goal requires ending at rest; without that, feasibility
    # need not be monotone in the horizon and bisection would be unsound, so
    # the search scans every horizon up from the floor, which is then 1.
    prober = _Prober(config, mode, big_m)
    tau_star = _search_minimum_tau(prober, tau_lb, tau_upper, scan=config.v_final != 0.0)
    return _effort_solve(config, mode, tau_star, big_m, prober.witness[tau_star])


def damage_constrained_search(
    config: PlanningConfig,
    tau_upper: Optional[int] = None,
    *,
    big_m: Optional[float] = None,
) -> TrajectoryPlan:
    """Collision-tolerant minimum time with the per-step damage cap active."""
    if config.d_max is None:
        raise ConfigError("damage_constrained_search requires d_max to be set")
    return min_time_search(config, PlanningMode.COLLISION_TOLERANT, tau_upper, big_m=big_m)


# ---------------------------------------------------------------------------
# sweeps and reports
# ---------------------------------------------------------------------------

def goal_sweep(
    config: PlanningConfig,
    x_g_start: float,
    x_g_end: float,
    dx: float,
    tau_upper: Optional[int] = None,
) -> SweepResult:
    """Collision-tolerant min-time at each goal in [start, end] step dx."""
    if dx <= 0:
        raise ConfigError(f"sweep step must be positive, got {dx}")
    if x_g_start < config.x_w:
        raise ConfigError("sweep must start at or outside the wall")
    if x_g_start > x_g_end:
        raise ConfigError("sweep start must not exceed sweep end")
    count = int(math.floor((x_g_end - x_g_start) / dx + 1e-9)) + 1
    points = []
    for i in range(count):
        g = x_g_start + i * dx
        try:
            plan = min_time_search(
                replace(config, x_g=g), PlanningMode.COLLISION_TOLERANT, tau_upper)
            points.append(SweepPoint(g, plan.min_time, plan.collided))
        except PlannerError as exc:
            points.append(SweepPoint(g, None, None, error=str(exc)))
    flags = [p.collided for p in points if p.error is None]
    seen_avoid = False
    for f in flags:
        if not f:
            seen_avoid = True
        elif seen_avoid:
            raise PlannerError(
                "sweep output is not monotone: a farther goal collided after "
                "a nearer goal avoided")
    return SweepResult(tuple(points))


def compare_report(
    plans: Sequence[TrajectoryPlan],
    baseline_label: str,
    labels: Optional[Sequence[str]] = None,
) -> ComparisonReport:
    """Tabulate plan times against a named baseline."""
    if not plans:
        raise PlannerError("compare_report needs at least one plan")
    if labels is None:
        labels = [_default_label(p) for p in plans]
    if len(labels) != len(plans):
        raise PlannerError("labels and plans differ in length")
    if len(set(labels)) != len(labels):
        raise PlannerError(f"plan labels are not unique: {labels}")
    if baseline_label not in labels:
        raise PlannerError(f"baseline label {baseline_label!r} not among {labels}")
    key = plans[0].config.scenario_key()
    for p in plans[1:]:
        if p.config.scenario_key() != key:
            raise PlannerError("plans compare different scenarios")
    base = plans[labels.index(baseline_label)]
    if base.min_time <= 0:
        raise PlannerError("baseline plan has zero duration")
    entries = []
    for label, plan in zip(labels, plans):
        if label == baseline_label:
            pct = None
        else:
            pct = 100.0 * (base.min_time - plan.min_time) / base.min_time
        entries.append(ComparisonEntry(
            label, plan.min_time, plan.collided, plan.max_impact_speed,
            plan.damage_total, pct))
    return ComparisonReport(baseline_label, tuple(entries))


def _default_label(plan: TrajectoryPlan) -> str:
    if plan.mode == PlanningMode.COLLISION_FREE:
        return "collision-free"
    if plan.config.d_max is not None:
        return "collision-tolerant-damage-capped"
    return "collision-tolerant"
