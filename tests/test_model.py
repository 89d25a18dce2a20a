"""Model assembly: layouts, big-M calibration, and switched-constraint truth."""

import dataclasses
import math

import numpy as np
import pytest

from ctplan import (ConfigError, LpStatus, MilpStatus, ModelError,
                    PlanningConfig, PlanningMode, SolverOptions, big_m_bound,
                    build_collision_free, build_collision_tolerant, replay,
                    solve_lp, solve_milp, with_effort_objective)
from ctplan.planner import _plan_from_values


def feasible_free(config, tau):
    problem, _ = build_collision_free(config, tau)
    return solve_lp(problem).status == LpStatus.OPTIMAL


class TestConfigValidation:
    def test_goal_behind_wall_rejected(self, paper_config):
        bad = dataclasses.replace(paper_config, x_g=-0.5)
        with pytest.raises(ConfigError, match="x_g"):
            bad.validate()

    def test_start_behind_wall_rejected(self, paper_config):
        bad = dataclasses.replace(paper_config, x_init=-1.0)
        with pytest.raises(ConfigError, match="x_init"):
            bad.validate()

    def test_acceleration_bounds_must_straddle_zero(self, paper_config):
        bad = dataclasses.replace(paper_config, a_min=1.0)
        with pytest.raises(ConfigError, match="a_min"):
            bad.validate()

    def test_restitution_range(self, paper_config):
        with pytest.raises(ConfigError, match="restitution"):
            dataclasses.replace(paper_config, restitution=1.5).validate()

    def test_nonpositive_dt(self, paper_config):
        with pytest.raises(ConfigError, match="dt"):
            dataclasses.replace(paper_config, dt=0.0).validate()

    @pytest.mark.parametrize("name, value", [
        ("d_max", -1.0), ("d_max", math.nan), ("d_max", math.inf),
        ("d_total_max", -1.0), ("d_total_max", math.nan), ("d_total_max", -math.inf),
        ("max_contact_steps", -1)])
    def test_caps_finite_and_nonnegative(self, paper_config, name, value):
        bad = dataclasses.replace(paper_config, **{name: value})
        with pytest.raises(ConfigError, match=f"{name} .*got {value}"):
            bad.validate()


class TestLayout:
    def test_collision_free_variable_count(self, paper_config):
        problem, lay = build_collision_free(paper_config, 51)
        assert lay.num_vars == 3 * 52
        assert problem.num_vars == lay.num_vars
        indices = {lay.x(t) for t in range(52)}
        indices |= {lay.v(t) for t in range(52)}
        indices |= {lay.a(t) for t in range(52)}
        assert indices == set(range(lay.num_vars))

    def test_collision_tolerant_variable_count(self, paper_config):
        problem, lay = build_collision_tolerant(paper_config, 45)
        assert lay.num_vars == 5 * 46 + 1
        assert problem.base.num_vars == lay.num_vars
        indices = set()
        for t in range(46):
            indices |= {lay.x(t), lay.v(t), lay.a(t), lay.zeta(t), lay.damage(t)}
        indices.add(lay.damage_total)
        assert indices == set(range(lay.num_vars))
        assert tuple(problem.binary_vars) == tuple(lay.zeta(t) for t in range(46))

    def test_out_of_range_step_rejected(self, paper_config):
        _, lay = build_collision_free(paper_config, 5)
        with pytest.raises(IndexError):
            lay.x(6)
        with pytest.raises(IndexError):
            lay.zeta(0)

    def test_tau_below_one_rejected(self, paper_config):
        with pytest.raises(ModelError):
            build_collision_free(paper_config, 0)
        with pytest.raises(ModelError):
            build_collision_tolerant(paper_config, 0)


class TestBigM:
    def test_benchmark_value(self, paper_config):
        # Evaluate the four bound terms by hand at tau = 51.
        terms = {
            "position_range": abs(10.0 - 0.0) + 15.0 * 51 * 0.05,
            "acceleration_spread": 6.0 - (-6.0),
            "contact_acceleration": (1 + 0) * 15.0 / 0.05 + 6.0,
            "speed_limit": 15.0,
        }
        bm = big_m_bound(paper_config, 51)
        assert bm.value == pytest.approx(2 * max(terms.values())) == pytest.approx(612.0)
        assert bm.dominant == "contact_acceleration"
        assert dict(bm.terms) == pytest.approx(terms)

    def test_small_scale_value(self):
        config = PlanningConfig(
            x_init=1.0, v_init=0.0, a_init=0.0, x_g=0.5, v_final=0.0,
            a_final=0.0, x_w=0.0, dt=1.0, a_max=1.0, a_min=-1.0, v_max=1.0,
            restitution=0.0)
        terms = [1.0 + 1.0 * 4 * 1.0, 2.0, 1.0 / 1.0 + 1.0, 1.0]
        bm = big_m_bound(config, 4)
        assert bm.value == pytest.approx(2 * max(terms)) == pytest.approx(10.0)

    def test_exceeds_every_term(self, paper_config):
        bm = big_m_bound(paper_config, 20)
        for _, value in bm.terms:
            assert bm.value > value


class TestCollisionFreeModel:
    def test_minimum_horizon_is_52_steps(self, paper_config, rest_coverage):
        # Boundary row a(0) = 0 wastes the first step, so tau active
        # transitions are tau - 1; rest-to-rest coverage decides feasibility.
        needed = abs(paper_config.x_init - paper_config.x_g)
        assert rest_coverage(50, 0.05, 6.0) < needed  # tau = 51 cannot work
        assert rest_coverage(51, 0.05, 6.0) >= needed  # tau = 52 can
        assert not feasible_free(paper_config, 51)
        assert feasible_free(paper_config, 52)

    def test_witness_replays(self, paper_config):
        problem, lay = build_collision_free(paper_config, 52)
        sol = solve_lp(with_effort_objective(problem, lay))
        assert sol.status == LpStatus.OPTIMAL
        plan = _plan_from_values(paper_config, lay, sol.values,
                                 PlanningMode.COLLISION_FREE)
        result = replay(plan, paper_config)
        assert result.passed, result

    def test_rest_at_goal_single_step(self):
        config = PlanningConfig(
            x_init=0.3, v_init=0.0, a_init=0.0, x_g=0.3, v_final=0.0,
            a_final=0.0, x_w=0.0, dt=0.05, a_max=6.0, a_min=-6.0,
            v_max=15.0, restitution=0.0)
        assert feasible_free(config, 1)

    def test_too_short_horizon_infeasible(self, paper_config):
        # Half a second covers at most 0.75 m of the needed 9.7 m.
        max_cover = 0.5 * 6.0 * 0.5**2
        assert max_cover < 9.7
        assert not feasible_free(paper_config, 10)


class TestCollisionTolerantModel:
    def test_row_families_present(self, paper_config):
        tau = 12
        problem, lay = build_collision_tolerant(paper_config, tau)
        rows = problem.base.constraints
        # One position equality per transition plus boundary and aggregate.
        eq_rows = [r for r in rows if r.sense == "="]
        assert len(eq_rows) == tau + 6 + 1
        # The verbatim saturation pair a(t) -/+ M zeta(t) <=/>= bound.
        M = big_m_bound(paper_config, tau).value
        sat = [r for r in rows
               if dict(r.terms).get(lay.a(3)) == 1.0 and dict(r.terms).get(lay.zeta(3)) == -M]
        assert any(r.rhs == paper_config.a_max for r in sat)

    def test_minimum_horizon_is_47_steps(self, paper_config, rest_coverage):
        # Earliest possible impact arrival: coverage of 10 m with the first
        # step held at zero; from-rest departure then needs nine transitions.
        d_wall = paper_config.x_init - paper_config.x_w
        # 36 active transitions cannot bring the vehicle to the wall...
        assert 0.5 * 6.0 * (36 * 0.05) ** 2 < d_wall
        # ...and the return needs 9: 8 cover too little.
        d_goal = paper_config.x_g - paper_config.x_w
        assert rest_coverage(8, 0.05, 6.0) < d_goal <= rest_coverage(9, 0.05, 6.0)

        from ctplan import MilpProblem, find_integer_feasible
        from ctplan.planner import _contact_objective

        def probe(tau):
            problem, lay = build_collision_tolerant(paper_config, tau)
            guided = MilpProblem(
                problem.base.with_objective(
                    _contact_objective(problem.base.num_vars, lay)),
                problem.binary_vars)
            return find_integer_feasible(guided), lay

        sol46, _ = probe(46)
        assert sol46.status == MilpStatus.INFEASIBLE
        sol47, lay47 = probe(47)
        assert sol47.values is not None
        zeta = [round(sol47.values[lay47.zeta(t)]) for t in range(48)]
        assert sum(zeta) >= 1

    def test_far_wall_matches_collision_free(self, rest_coverage):
        # Goal and start both far from the wall: contact never helps and the
        # tolerant optimum equals the collision-free optimum.
        config = PlanningConfig(
            x_init=2.0, v_init=0.0, a_init=0.0, x_g=1.4, v_final=0.0,
            a_final=0.0, x_w=0.0, dt=0.1, a_max=6.0, a_min=-6.0,
            v_max=15.0, restitution=0.0)
        tau = next(k + 1 for k in range(1, 30)
                   if rest_coverage(k, 0.1, 6.0) >= 0.6)
        assert feasible_free(config, tau)
        free_problem, free_lay = build_collision_free(config, tau)
        free_sol = solve_lp(with_effort_objective(free_problem, free_lay))
        tol_problem, tol_lay = build_collision_tolerant(config, tau)
        tol_sol = solve_milp(
            with_effort_milp(tol_problem, tol_lay))
        assert tol_sol.status == MilpStatus.OPTIMAL
        assert all(round(tol_sol.values[tol_lay.zeta(t)]) == 0 for t in range(tau + 1))
        assert tol_sol.objective == pytest.approx(free_sol.objective, abs=1e-6)

    def test_short_horizon_infeasible_by_enumeration(self, paper_config):
        from ctplan import brute_force_plan
        result = brute_force_plan(paper_config, 5)
        assert not result.feasible
        problem, _ = build_collision_tolerant(paper_config, 5)
        assert solve_milp(problem).status == MilpStatus.INFEASIBLE


def with_effort_milp(problem, lay):
    from ctplan import MilpProblem
    return MilpProblem(with_effort_objective(problem.base, lay), problem.binary_vars)


@pytest.fixture(scope="module")
def solved_small(small_config):
    tau = 9
    problem, lay = build_collision_tolerant(small_config, tau)
    sol = solve_milp(with_effort_milp(problem, lay))
    assert sol.status == MilpStatus.OPTIMAL
    return small_config, lay, sol.values


class TestSwitchedConstraintSoundness:

    def test_indicator_soundness(self, solved_small):
        config, lay, values = solved_small
        for t in range(lay.tau + 1):
            zeta = round(values[lay.zeta(t)])
            x = values[lay.x(t)]
            if zeta == 1:
                assert x <= config.x_w + 1e-6
            else:
                assert x >= config.x_w - 1e-6

    def test_switching_soundness(self, solved_small):
        config, lay, values = solved_small
        e = config.restitution
        for t in range(lay.tau + 1):
            zeta = round(values[lay.zeta(t)])
            if zeta == 1 and t >= 1:
                # Arrival-step restitution.
                assert abs(values[lay.v(t)] + e * values[lay.v(t - 1)]) <= 1e-6
            if zeta == 0:
                a = values[lay.a(t)]
                assert config.a_min - 1e-6 <= a <= config.a_max + 1e-6

    def test_damage_bookkeeping(self, solved_small):
        from ctplan.model import STRICT_MARGIN
        config, lay, values = solved_small
        total = 0.0
        for t in range(lay.tau + 1):
            zeta = round(values[lay.zeta(t)])
            d = values[lay.damage(t)]
            if zeta == 0:
                assert abs(d) <= 1e-6
            else:
                # The assignment row leaves a one-sided window of width
                # STRICT_MARGIN below the impact speed.
                v_prev = values[lay.v(t - 1)] if t >= 1 else values[lay.v(0)]
                assert abs(d + v_prev) <= STRICT_MARGIN + 1e-9
            total += d
        assert abs(values[lay.damage_total] - total) <= 1e-6


    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: contact may be flagged while moving away from "
               "the wall, and the damage assignment then books a negative "
               "impact speed (-0.500002 here, contact at step 5 with "
               "v(4) = +0.3)")
    def test_damage_is_never_negative(self, small_config):
        from ctplan import MilpProblem
        from ctplan.model import STRICT_MARGIN
        config = dataclasses.replace(small_config, x_init=0.05, x_g=0.3)
        problem, lay = build_collision_tolerant(config, 12)
        objective = [0.0] * problem.base.num_vars
        objective[lay.damage_total] = 1.0
        sol = solve_milp(MilpProblem(problem.base.with_objective(objective),
                                     problem.binary_vars))
        assert sol.status == MilpStatus.OPTIMAL
        assert sol.objective >= -STRICT_MARGIN

class TestRelaxationOrdering:
    def test_free_feasibility_implies_tolerant(self, small_config, paper_config):
        from ctplan import MilpProblem, find_integer_feasible
        from ctplan.planner import _contact_objective

        for config, taus in ((small_config, (9, 12)), (paper_config, (52,))):
            for tau in taus:
                if feasible_free(config, tau):
                    problem, lay = build_collision_tolerant(config, tau)
                    guided = MilpProblem(
                        problem.base.with_objective(
                            _contact_objective(problem.base.num_vars, lay)),
                        problem.binary_vars)
                    assert find_integer_feasible(guided).values is not None


class TestBigMInsensitivity:
    def test_doubling_m_keeps_small_trajectory(self, small_config):
        from ctplan import min_time_search
        base_m = big_m_bound(small_config, 12).value
        plans = [min_time_search(small_config, PlanningMode.COLLISION_TOLERANT, big_m=m)
                 for m in (base_m, 2 * base_m)]
        assert plans[0].tau == plans[1].tau
        for name in ("x", "v", "a"):
            delta = np.abs(np.array(getattr(plans[0], name))
                           - np.array(getattr(plans[1], name))).max()
            assert delta < 1e-5, (name, delta)
