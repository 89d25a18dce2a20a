"""Tests for the benchmark's own arithmetic, on fake solutions.

Run from the root of a checkout: ``python3 -m pytest bench -q``.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from ctplan.solver import LpStatus, MilpStatus  # noqa: E402
from run import failures, tail  # noqa: E402
from spans import Span, Tracer, classify, layer_metrics, self_times  # noqa: E402


def milp_solution(status, values=None, nodes=0, pivots=0):
    return SimpleNamespace(status=status, values=values, nodes_explored=nodes,
                           iterations=pivots)


def lp_solution(status, pivots=0):
    return SimpleNamespace(status=status, values=None, iterations=pivots)


def problem(objective=(0.0, 0.0), rows=3, binaries=None):
    lp = SimpleNamespace(objective=tuple(objective), num_vars=len(objective),
                         constraints=(None,) * rows)
    return lp if binaries is None else SimpleNamespace(base=lp, binary_vars=binaries)


# -- the tail percentile rule -------------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    value, pct = tail(list(range(1, 101)))
    assert (value, pct) == (90, 90.0)
    assert sum(1 for v in range(1, 101) if v > value) == 10


def test_tail_at_eleven_samples_is_the_minimum():
    value, pct = tail([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0])
    assert value == 1.0
    assert pct == pytest.approx(100.0 / 11)


def test_tail_needs_eleven_samples():
    assert tail([3.0, 1.0, 2.0]) is None
    assert tail([float(v) for v in range(10)]) is None


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_nested_children_once():
    spans = [Span("planner.min_time_search", 0, None, 0.0, 10.0),
             Span("model.build_collision_tolerant", 0, 0, 1.0, 4.0),
             Span("solver.solve_lp", 0, 1, 2.0, 3.0),
             Span("solver.find_integer_feasible", 0, 0, 5.0, 6.0)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_as_one_interval():
    spans = [Span("p", 0, None, 0.0, 10.0),
             Span("a", 0, 0, 1.0, 5.0),
             Span("b", 0, 0, 3.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


# -- probe classification -----------------------------------------------------

def test_classify_feasibility_probes_by_their_result():
    lp = problem()
    fif = "solver.find_integer_feasible"
    witness = milp_solution(MilpStatus.OPTIMAL, values=[0.0, 1.0])
    limit_witness = milp_solution(MilpStatus.NODE_LIMIT, values=[0.0, 1.0])
    assert classify(fif, witness, lp, False) == "witness"
    assert classify(fif, limit_witness, lp, False) == "witness"
    assert classify(fif, milp_solution(MilpStatus.INFEASIBLE), lp, False) == "proof"
    assert classify(fif, milp_solution(MilpStatus.NODE_LIMIT), lp, False) == "no_verdict"


def test_classify_free_lp_probe_and_effort_solves():
    zero, effort = problem((0.0, 0.0)), problem((0.0, 1.0))
    optimal = lp_solution(LpStatus.OPTIMAL)
    assert classify("solver.solve_lp", optimal, zero, True) == "lp_probe"
    assert classify("solver.solve_lp", lp_solution(LpStatus.INFEASIBLE), zero, True) == "lp_probe"
    assert classify("solver.solve_lp", optimal, effort, True) == "effort"
    assert classify("solver.solve_lp", optimal, zero, False) == "effort"
    assert classify("solver.solve_milp", milp_solution(MilpStatus.OPTIMAL), effort,
                    False) == "effort"


def test_tracer_attributes_probes_to_the_last_built_horizon():
    tracer = Tracer()

    def build(config, tau):
        return problem(rows=816, binaries=tuple(range(tau + 1))), None

    def plan():
        for tau, result in ((47, milp_solution(MilpStatus.OPTIMAL, [1.0], 62, 9022)),
                            (46, milp_solution(MilpStatus.INFEASIBLE, None, 151, 19469))):
            milp = tracer.call("model.build_collision_tolerant", build, None, tau)[0]
            tracer.call("solver.find_integer_feasible", lambda p: result, milp)
        lp = problem((1.0, 1.0))
        tracer.call("solver.solve_lp", lambda p: lp_solution(LpStatus.OPTIMAL, 302), lp)
        return "plan"

    for op in range(2):
        tracer.start_op(op)
        assert tracer.call("planner.min_time_search", plan) == "plan"
    m = layer_metrics(tracer.spans, ops=2)
    assert (m["planner.probe.witness.calls"], m["planner.probe.witness.nodes"],
            m["planner.probe.witness.pivots"]) == (1, 62, 9022)
    assert (m["planner.probe.proof.nodes"], m["planner.probe.proof.pivots"]) == (151, 19469)
    assert m["planner.probe.no_verdict.calls"] == 0
    assert (m["planner.effort.calls"], m["planner.effort.pivots"]) == (1, 302)
    assert m["planner.probes"] == 2
    assert m["solver.milp.pivots_per_node"] == pytest.approx((9022 + 19469) / (62 + 151))
    assert m["model.calls"] == 2 and m["model.rows_max"] == 816
    taus = [(s.attrs["tau"], s.attrs["kind"]) for s in tracer.spans
            if s.name == "solver.find_integer_feasible"]
    assert taus == [(47, "witness"), (46, "proof")] * 2
    assert m["planner.self_s"] <= m["planner.s"]


# -- failed_ratio -------------------------------------------------------------

def test_failures_count_ops_with_any_error_once():
    ops = [{"errors": []}, {"errors": ["raised"]},
           {"errors": ["replay", "horizon"]}, {"errors": []}]
    assert failures(ops) == 2
    assert failures(ops) / len(ops) == 0.5
    assert failures([{"errors": []}]) == 0
