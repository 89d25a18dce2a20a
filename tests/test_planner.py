"""Planner: analytic oracle, horizon search, damage caps, sweeps, reports."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ctplan import (ConfigError, HorizonExhausted, LpStatus, PlanningConfig,
                    PlanningMode, SweepResult, TrajectoryPlan, analytic_min_time,
                    brute_force_plan, build_collision_free, compare_report,
                    damage_constrained_search, goal_sweep, min_time_search,
                    planner, replay, solve_lp, PlannerError)
from ctplan.planner import _search_minimum_tau

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from spans import Tracer, probe_records  # noqa: E402

FREE = PlanningMode.COLLISION_FREE
TOL = PlanningMode.COLLISION_TOLERANT


class TestAnalyticOracle:
    def test_benchmark_collision_free(self, paper_config):
        expected = 2.0 * math.sqrt(9.7 / 6.0)
        assert analytic_min_time(paper_config, FREE) == pytest.approx(expected)
        assert analytic_min_time(paper_config, FREE) == pytest.approx(2.5430, abs=2e-4)

    def test_benchmark_collision_tolerant(self, paper_config):
        expected = math.sqrt(2 * 10.0 / 6.0) + 2.0 * math.sqrt(0.3 / 6.0)
        assert analytic_min_time(paper_config, TOL) == pytest.approx(expected)
        assert analytic_min_time(paper_config, TOL) == pytest.approx(2.2730, abs=1e-4)

    def test_zero_distance(self, paper_config):
        config = dataclasses.replace(paper_config, x_init=0.3)
        assert analytic_min_time(config, FREE) == 0.0

    def test_abstains_for_moving_boundaries(self, paper_config):
        assert analytic_min_time(
            dataclasses.replace(paper_config, v_init=1.0), FREE) is None
        assert analytic_min_time(
            dataclasses.replace(paper_config, v_final=-1.0), TOL) is None

    def test_abstains_when_speed_limit_binds(self, paper_config):
        slow = dataclasses.replace(paper_config, v_max=5.0)
        # Peak approach speed sqrt(2*6*10) = 10.95 exceeds 5 m/s.
        assert analytic_min_time(slow, TOL) is None

    def test_abstains_for_bouncy_contact(self, paper_config):
        assert analytic_min_time(
            dataclasses.replace(paper_config, restitution=0.5), TOL) is None

    def test_far_goal_uses_straight_transfer(self, paper_config):
        config = dataclasses.replace(paper_config, x_g=9.0)
        straight = 2.0 * math.sqrt(1.0 / 6.0)
        assert analytic_min_time(config, TOL) == pytest.approx(straight)


class TestMinTimeSearch:
    def test_degenerate_at_goal(self, paper_config):
        config = dataclasses.replace(paper_config, x_init=0.3, x_g=0.3)
        plan = min_time_search(config, FREE)
        assert plan.tau == 0 and plan.min_time == 0.0
        plan_tol = min_time_search(config, TOL)
        assert plan_tol.tau == 0

    def test_small_scenario_boundaries(self, small_config):
        plan = min_time_search(small_config, TOL)
        assert plan.x[0] == pytest.approx(small_config.x_init, abs=1e-6)
        assert plan.x[-1] == pytest.approx(small_config.x_g, abs=1e-6)
        assert plan.v[0] == pytest.approx(0.0, abs=1e-6)
        assert plan.v[-1] == pytest.approx(0.0, abs=1e-6)
        assert plan.a[0] == pytest.approx(0.0, abs=1e-6)
        assert plan.a[-1] == pytest.approx(0.0, abs=1e-6)

    def test_tolerant_never_slower_than_free(self, small_config):
        free = min_time_search(small_config, FREE)
        tol = min_time_search(small_config, TOL)
        assert tol.tau <= free.tau

    def test_lower_bound_soundness(self, small_config):
        for mode in (FREE, TOL):
            analytic = analytic_min_time(small_config, mode)
            plan = min_time_search(small_config, mode)
            assert analytic <= plan.min_time + 2 * small_config.dt + 1e-9

    def test_floor_is_infeasible_one_step_below(self):
        # The analytic floor must never exceed the true optimum, with or
        # without damage caps: one step below it, exhaustive enumeration of
        # the contact patterns finds nothing feasible, and neither does the
        # collision-free LP below the free floor.
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 40:
            a = float(rng.uniform(2.0, 10.0))
            config = PlanningConfig(
                x_init=float(rng.uniform(0.1, 2.0)), v_init=0.0, a_init=0.0,
                x_g=float(rng.uniform(0.02, 0.6)), v_final=0.0, a_final=0.0,
                x_w=0.0, dt=float(rng.choice([0.1, 0.2])), a_max=a, a_min=-a,
                v_max=15.0, restitution=0.0,
                d_max=float(rng.uniform(0.0, 6.0)) if rng.random() < 0.7 else None,
                d_total_max=float(rng.uniform(0.0, 8.0)) if rng.random() < 0.5 else None)
            floor = planner._seed_lower_bound_steps(config, TOL)
            if not 2 <= floor <= 8:
                continue
            checked += 1
            assert not brute_force_plan(config, floor - 1).feasible, config
            free_floor = planner._seed_lower_bound_steps(config, FREE)
            problem, _ = build_collision_free(config, free_floor - 1)
            assert solve_lp(problem).status == LpStatus.INFEASIBLE, config

    def test_horizon_exhausted(self, small_config):
        with pytest.raises(HorizonExhausted):
            min_time_search(small_config, FREE, tau_upper=3)

    def test_linear_scan_parity(self, small_config):
        # On a rest-end scenario a scan and the bisection probe the minimal
        # horizon with the same problem, so they find the same witness.  At
        # e = 0.5 there is no analytic floor, and the bisection also probes
        # far above the answer.
        for config in (small_config, dataclasses.replace(small_config, restitution=0.5)):
            tau_lb = planner._seed_lower_bound_steps(config, TOL)
            tau_upper = planner.default_tau_upper(config, TOL)
            found = []
            for scan in (False, True):
                prober = planner._Prober(config, TOL, None)
                tau = _search_minimum_tau(prober, tau_lb, tau_upper, scan)
                found.append((tau, prober.witness[tau]))
            (tau_a, witness_a), (tau_b, witness_b) = found
            assert tau_a == tau_b
            assert np.array_equal(witness_a, witness_b)

    def test_tie_break_determinism(self, small_config):
        a = min_time_search(small_config, TOL)
        b = min_time_search(small_config, TOL)
        assert a == b

    def test_feasibility_monotone_under_extension(self, small_config):
        # A solved plan extends by holding at the goal; the extension replays
        # cleanly, so feasibility at tau implies feasibility at tau + 1.
        plan = min_time_search(small_config, TOL)
        extended = TrajectoryPlan(
            plan.dt, plan.tau + 1,
            plan.x + (plan.x[-1],), plan.v + (plan.v[-1],),
            plan.a[:-1] + (0.0, plan.a[-1]),
            plan.zeta + (0,), plan.damage + (0.0,),
            plan.damage_total, plan.mode, plan.config)
        assert replay(extended, small_config).passed

    def test_nonzero_terminal_velocity_scans_linearly(self):
        config = PlanningConfig(
            x_init=1.0, v_init=0.0, a_init=0.0, x_g=0.2, v_final=-1.0,
            a_final=0.0, x_w=0.0, dt=0.1, a_max=6.0, a_min=-6.0,
            v_max=15.0, restitution=0.0)
        plan = min_time_search(config, FREE)
        assert plan.v[-1] == pytest.approx(-1.0, abs=1e-6)
        assert replay(plan, config).passed


class _ThresholdProber:
    """Feasible from ``threshold`` steps up; records each horizon it solves.

    Memoizes like the planner's prober, so ``asked`` holds the solves a real
    search would run; a budgeted probe is recorded as ("budgeted", tau).
    """

    def __init__(self, threshold):
        self.threshold = threshold
        self.memo = {}
        self.asked = []

    def feasible(self, tau):
        if tau not in self.memo:
            self.asked.append(tau)
            self.memo[tau] = tau >= self.threshold
        return self.memo[tau]

    def feasible_budgeted(self, tau):
        if tau not in self.memo:
            self.asked.append(("budgeted", tau))
            self.memo[tau] = tau >= self.threshold
        return self.memo[tau]


# (threshold, tau_upper, probes with bisection, probes with a scan) for a
# search from a floor of 3 steps, whose climb covers 3..7.  A threshold above
# tau_upper leaves nothing feasible, so the search raises HorizonExhausted.
_SEARCH_CASES = {
    "answer inside the climb": (5, 20, [3, 4, 5], [3, 4, 5]),
    "answer at the floor": (3, 20, [3, ("budgeted", 2)], [3, ("budgeted", 2)]),
    "answer above the climb": (12, 20, [3, 4, 5, 6, 7, 20, 14, 11, 13, 12],
                               list(range(3, 13))),
    "answer just past the climb": (8, 8, [3, 4, 5, 6, 7, 8], [3, 4, 5, 6, 7, 8]),
    "upper limit below the floor": (3, 2, [], []),
    "upper limit inside the climb": (4, 5, [3, 4], [3, 4]),
    "upper limit inside the climb, nothing feasible": (6, 5, [3, 4, 5], [3, 4, 5]),
    "nothing feasible": (100, 20, [3, 4, 5, 6, 7, 20], list(range(3, 21))),
}


class TestSearchLoop:
    @pytest.mark.parametrize("scan", [False, True], ids=["bisect", "scan"])
    @pytest.mark.parametrize("case", sorted(_SEARCH_CASES))
    def test_probe_sequence(self, case, scan):
        threshold, tau_upper, bisect_probes, scan_probes = _SEARCH_CASES[case]
        prober = _ThresholdProber(threshold)
        if threshold > tau_upper:
            with pytest.raises(HorizonExhausted) as info:
                _search_minimum_tau(prober, 3, tau_upper, scan)
            assert info.value.tau_upper == tau_upper
        else:
            assert _search_minimum_tau(prober, 3, tau_upper, scan) == threshold
        assert prober.asked == (scan_probes if scan else bisect_probes)


def test_traced_solves_of_small_plan(small_config):
    # The solves of one small tolerant plan, as the benchmark's tracer sees
    # them through the names ctplan.planner calls: a witness at the floor of
    # 9 steps, a budgeted proof at 8, then the exact effort MILP and its
    # graded tie-break LP.  A refactor that bypasses those names, or moves a
    # count, shows here.
    tracer = Tracer()
    with tracer.patched(planner):
        plan = min_time_search(small_config, TOL)
    assert plan.tau == 9
    solves = [(r["call"], r["tau"], r["kind"], r["nodes"], r["pivots"])
              for r in probe_records(tracer.spans)]
    assert solves == [
        ("find_integer_feasible", 9, "witness", 1, 52),
        ("find_integer_feasible", 8, "proof", 17, 309),
        ("solve_milp", 9, "effort", 31, 529),
        ("solve_lp", 9, "effort", 0, 48),
    ]


class TestDamageConstrained:
    def test_requires_cap(self, small_config):
        with pytest.raises(ConfigError):
            damage_constrained_search(small_config)

    def test_cap_respected(self, small_config):
        config = dataclasses.replace(small_config, d_max=1.5)
        plan = damage_constrained_search(config)
        assert plan.max_impact_speed <= 1.5 + 1e-6
        assert replay(plan, config).passed

    def test_slack_cap_matches_unconstrained(self, small_config):
        tol_plan = min_time_search(small_config, TOL)
        slack = damage_constrained_search(
            dataclasses.replace(small_config, d_max=15.0))
        assert slack.tau == tol_plan.tau

    def test_zero_cap_matches_collision_free(self, small_config):
        free = min_time_search(small_config, FREE)
        capped = damage_constrained_search(
            dataclasses.replace(small_config, d_max=0.0))
        assert abs(capped.tau - free.tau) <= 1

    def test_monotone_in_cap(self, small_config):
        taus = [damage_constrained_search(
            dataclasses.replace(small_config, d_max=d)).tau
            for d in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_ordering_chain(self, small_config):
        tol = min_time_search(small_config, TOL)
        mid = damage_constrained_search(dataclasses.replace(small_config, d_max=1.0))
        zero = damage_constrained_search(dataclasses.replace(small_config, d_max=0.0))
        free = min_time_search(small_config, FREE)
        assert tol.tau <= mid.tau <= zero.tau
        assert abs(zero.tau - free.tau) <= 1


class TestGoalSweep:
    def test_small_sweep_monotone_flip(self, small_config):
        result = goal_sweep(small_config, 0.05, 0.45, 0.1)
        assert all(p.error is None for p in result.points)
        xs = [p.x_g for p in result.points]
        assert xs == sorted(xs) and len(set(xs)) == len(xs)
        flags = [p.collided for p in result.points]
        # Once collision stops paying off it never comes back.
        seen_avoid = False
        for f in flags:
            if not f:
                seen_avoid = True
            else:
                assert not seen_avoid

    def test_validation(self, small_config):
        with pytest.raises(ConfigError):
            goal_sweep(small_config, 0.5, 0.1, 0.1)
        with pytest.raises(ConfigError):
            goal_sweep(small_config, 0.1, 0.5, -0.1)
        with pytest.raises(ConfigError):
            goal_sweep(small_config, -0.5, 0.5, 0.1)

    def test_per_point_failures_recorded(self, small_config):
        result = goal_sweep(small_config, 0.05, 0.25, 0.1, tau_upper=2)
        assert all(p.error is not None for p in result.points)


class TestCompareReport:
    def plan_with_time(self, config, tau, mode=FREE, collided=False):
        n = tau + 1
        zeta = (0,) * n if not collided else (0,) * (n - 1) + (1,)
        return TrajectoryPlan(config.dt, tau, (config.x_init,) * n,
                              (0.0,) * n, (0.0,) * n, zeta, (0.0,) * n,
                              0.0, mode, config)

    def test_paper_percentages(self, paper_config):
        # 2.55 s baseline vs 2.39 s and 2.25 s at dt = 0.05: the stated
        # convention is 100 (T_base - T) / T_base.
        base = self.plan_with_time(paper_config, 51)
        damage = self.plan_with_time(paper_config, 48, mode=TOL, collided=True)
        tol = self.plan_with_time(paper_config, 45, mode=TOL, collided=True)
        report = compare_report([base, damage, tol], "collision-free",
                                labels=["collision-free", "damage", "tolerant"])
        by_label = {e.label: e for e in report.entries}
        assert by_label["collision-free"].improvement_pct is None
        assert by_label["damage"].improvement_pct == pytest.approx(
            100 * (2.55 - 2.40) / 2.55, abs=1e-9)
        # Reference arithmetic from the two reported times:
        assert 100 * (2.55 - 2.39) / 2.55 == pytest.approx(6.27, abs=0.01)
        assert 100 * (2.55 - 2.25) / 2.55 == pytest.approx(11.76, abs=0.01)
        assert by_label["tolerant"].improvement_pct == pytest.approx(
            100 * (2.55 - 2.25) / 2.55, abs=1e-9)

    def test_self_comparison_is_zero(self, paper_config):
        base = self.plan_with_time(paper_config, 51)
        other = self.plan_with_time(paper_config, 51, mode=TOL)
        report = compare_report([base, other], "a", labels=["a", "b"])
        assert report.entries[1].improvement_pct == pytest.approx(0.0)

    def test_mismatched_scenarios_rejected(self, paper_config, small_config):
        a = self.plan_with_time(paper_config, 51)
        b = self.plan_with_time(small_config, 9)
        with pytest.raises(PlannerError):
            compare_report([a, b], "x", labels=["x", "y"])

    def test_duplicate_labels_rejected(self, paper_config):
        a = self.plan_with_time(paper_config, 51)
        b = self.plan_with_time(paper_config, 50)
        with pytest.raises(PlannerError):
            compare_report([a, b], "x", labels=["x", "x"])

    def test_default_labels(self, small_config):
        free = min_time_search(small_config, FREE)
        tol = min_time_search(small_config, TOL)
        report = compare_report([free, tol], "collision-free")
        assert [e.label for e in report.entries] == [
            "collision-free", "collision-tolerant"]
