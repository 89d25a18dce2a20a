"""Independent verification layer for planner output.

``replay`` re-integrates a plan forward from its initial state and reports
the worst violation per constraint family, so a plan is checked against the
physics rather than against the solver that produced it.  ``brute_force_plan``
enumerates every contact pattern on short horizons and solves the residual
LP for each, certifying the branch-and-bound path on small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PlannerError
from .model import (STRICT_MARGIN, PlanningConfig, PlanningMode,
                    build_collision_tolerant, with_effort_objective)
from .solver import LpStatus, SolverOptions, _Dense, _solve_dense

REPLAY_TOL = 1e-6

_FAMILIES = ("saturation", "wall_indicator", "collision_law", "damage", "boundary")


@dataclass(frozen=True)
class ReplayResult:
    max_dynamics_residual: float
    family_violations: dict
    tolerance: float

    @property
    def passed(self) -> bool:
        if self.max_dynamics_residual > self.tolerance:
            return False
        return all(v <= self.tolerance for v in self.family_violations.values())

    def worst(self) -> float:
        return max(self.max_dynamics_residual, *self.family_violations.values())


def replay(plan, config: PlanningConfig, tolerance: float = REPLAY_TOL) -> ReplayResult:
    """Forward-integrate the plan's inputs and measure every violation."""
    config.validate()
    tau = plan.tau
    series = (plan.x, plan.v, plan.a, plan.zeta, plan.damage)
    if any(len(s) != tau + 1 for s in series):
        raise PlannerError("plan series lengths do not match the stated horizon")
    if abs(plan.dt - config.dt) > 1e-12:
        raise PlannerError(f"plan dt {plan.dt} does not match config dt {config.dt}")

    x = np.asarray(plan.x, dtype=float)
    v = np.asarray(plan.v, dtype=float)
    a = np.asarray(plan.a, dtype=float)
    zeta = np.asarray(plan.zeta, dtype=int)
    dmg = np.asarray(plan.damage, dtype=float)
    dt = config.dt
    e = config.restitution
    contact_model = plan.mode == PlanningMode.COLLISION_TOLERANT

    viol = {name: 0.0 for name in _FAMILIES}

    # Forward dynamics from the plan's own initial state.
    dyn = 0.0
    xf, vf = x[0], v[0]
    for t in range(tau):
        xf_next = xf + dt * vf + 0.5 * dt * dt * a[t]
        if contact_model and zeta[t + 1] == 1:
            vf_next = -e * vf
        else:
            vf_next = vf + dt * a[t]
        dyn = max(dyn, abs(xf_next - x[t + 1]), abs(vf_next - v[t + 1]))
        xf, vf = xf_next, vf_next

    # Actuator and speed limits.
    for t in range(tau + 1):
        if contact_model:
            if t < tau:
                lifted = zeta[t] == 1 and zeta[t + 1] == 1
            else:
                lifted = zeta[t] == 1
        else:
            lifted = False
        if not lifted:
            viol["saturation"] = max(viol["saturation"], a[t] - config.a_max,
                                     config.a_min - a[t])
        if not (contact_model and zeta[t] == 1):
            viol["saturation"] = max(viol["saturation"], abs(v[t]) - config.v_max)

    # Wall constraint / contact indicator.
    if contact_model:
        for t in range(tau + 1):
            if zeta[t] == 1:
                viol["wall_indicator"] = max(viol["wall_indicator"], x[t] - config.x_w)
            else:
                viol["wall_indicator"] = max(viol["wall_indicator"], config.x_w - x[t])
    else:
        for t in range(1, tau + 1):
            viol["wall_indicator"] = max(viol["wall_indicator"], config.x_w - x[t])

    # Restitution at contact steps.
    if contact_model:
        for t in range(1, tau + 1):
            if zeta[t] == 1:
                viol["collision_law"] = max(viol["collision_law"], abs(v[t] + e * v[t - 1]))

    # Damage bookkeeping.
    for t in range(tau + 1):
        if contact_model and zeta[t] == 1:
            v_prev = v[t - 1] if t >= 1 else v[0]
            viol["damage"] = max(viol["damage"], abs(dmg[t] + v_prev) - STRICT_MARGIN)
        else:
            viol["damage"] = max(viol["damage"], abs(dmg[t]))
        if config.d_max is not None:
            viol["damage"] = max(viol["damage"], dmg[t] - config.d_max)
    viol["damage"] = max(viol["damage"], abs(plan.damage_total - float(dmg.sum())))
    if config.d_total_max is not None:
        viol["damage"] = max(viol["damage"], plan.damage_total - config.d_total_max)

    viol["boundary"] = max(
        abs(x[0] - config.x_init), abs(v[0] - config.v_init), abs(a[0] - config.a_init),
        abs(x[tau] - config.x_g), abs(v[tau] - config.v_final), abs(a[tau] - config.a_final))

    viol = {k: max(0.0, val) for k, val in viol.items()}
    return ReplayResult(dyn, viol, tolerance)


@dataclass(frozen=True)
class BruteForceResult:
    feasible: bool
    objective: Optional[float]
    pattern: Optional[tuple]


def brute_force_plan(
    config: PlanningConfig, tau: int, opts: Optional[SolverOptions] = None
) -> BruteForceResult:
    """Exhaust all 2^(tau+1) contact patterns, solving the residual LP each.

    Minimizes the same effort objective the planner ties on; ties between
    patterns go to the lexicographically smallest one.
    """
    if tau > 12:
        raise PlannerError(f"brute force is limited to tau <= 12, got {tau}")
    opts = opts or SolverOptions()
    milp, lay = build_collision_tolerant(config, tau)
    effort_lp = with_effort_objective(milp.base, lay)
    dense = _Dense(effort_lp)
    zeta_idx = np.array([lay.zeta(t) for t in range(tau + 1)], dtype=np.intp)

    best_obj = math.inf
    best_pattern = None
    for pattern in itertools.product((0.0, 1.0), repeat=tau + 1):
        lo = dense.lo.copy()
        hi = dense.hi.copy()
        lo[zeta_idx] = pattern
        hi[zeta_idx] = pattern
        status, _, obj, _ = _solve_dense(dense, lo, hi, dense.c, opts)
        if status == LpStatus.OPTIMAL and obj < best_obj - 1e-9:
            best_obj = obj
            best_pattern = tuple(int(b) for b in pattern)
    if best_pattern is None:
        return BruteForceResult(False, None, None)
    return BruteForceResult(True, best_obj, best_pattern)
