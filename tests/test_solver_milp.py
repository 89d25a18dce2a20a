"""Branch-and-bound: spec'd examples, brute-force agreement, bookkeeping."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from ctplan import (EQ, GE, LE, LinearConstraint, LpProblem, LpStatus,
                    MilpProblem, MilpStatus, ProblemError, SolverOptions,
                    build_collision_tolerant, find_integer_feasible, solve_lp,
                    solve_milp)
from ctplan.planner import _contact_objective
from ctplan.solver import (_Dense, _pairwise_sum, _propagation_rows, _tighten,
                           _var_to_rows)

INF = math.inf


def lp(n, c, rows, bounds):
    return LpProblem.build(n, c, [LinearConstraint.of(*r) for r in rows], bounds)


def brute_force_binary(problem: MilpProblem):
    """Enumerate every binary assignment, solving the residual LP for each."""
    bins = list(problem.binary_vars)
    best = None
    for assignment in itertools.product((0.0, 1.0), repeat=len(bins)):
        bounds = list(problem.base.var_bounds)
        for b, v in zip(bins, assignment):
            bounds[b] = (v, v)
        sol = solve_lp(LpProblem.build(problem.base.num_vars, problem.base.objective,
                                       problem.base.constraints, bounds))
        if sol.status == LpStatus.OPTIMAL and (best is None or sol.objective < best):
            best = sol.objective
    return best


def test_knapsack_pair():
    # max x1 + x2 s.t. x1 + x2 <= 1, both binary: optimum 1 at (1,0) or (0,1).
    base = lp(2, [-1.0, -1.0], [([(0, 1.0), (1, 1.0)], LE, 1.0)], [(0, 1), (0, 1)])
    problem = MilpProblem.build(base, [0, 1])
    expected = brute_force_binary(problem)
    sol = solve_milp(problem)
    assert sol.status == MilpStatus.OPTIMAL
    assert sol.objective == pytest.approx(expected, abs=1e-9) == pytest.approx(-1.0)
    assert tuple(np.round(sol.values)) in ((1.0, 0.0), (0.0, 1.0))
    assert sol.bound_gap <= 1e-9


def test_no_binaries_degenerates_to_lp():
    base = lp(2, [-1.0, -2.0], [([(0, 1.0), (1, 1.0)], LE, 1.0)],
              [(0.0, INF), (0.0, INF)])
    lp_sol = solve_lp(base)
    milp_sol = solve_milp(MilpProblem.build(base, []))
    assert milp_sol.status == MilpStatus.OPTIMAL
    assert milp_sol.objective == pytest.approx(lp_sol.objective, abs=1e-12)


def test_fractional_equality_infeasible():
    base = lp(2, [0.0, 0.0], [([(0, 1.0), (1, 1.0)], EQ, 1.5)], [(0, 1), (0, 1)])
    problem = MilpProblem.build(base, [0, 1])
    # All four assignments violate the equality.
    for a0, a1 in itertools.product((0, 1), repeat=2):
        assert a0 + a1 != 1.5
    assert solve_milp(problem).status == MilpStatus.INFEASIBLE


def test_binary_bounds_validated():
    base = lp(1, [1.0], [], [(0.0, 2.0)])
    with pytest.raises(ProblemError):
        solve_milp(MilpProblem.build(base, [0]))


def random_milp(rng):
    n = int(rng.integers(2, 7))
    n_bin = int(rng.integers(1, n + 1))
    c = rng.uniform(-4, 4, size=n)
    bounds = []
    for j in range(n):
        if j < n_bin:
            bounds.append((0.0, 1.0))
        else:
            l = float(rng.uniform(-3, 0))
            bounds.append((l, l + float(rng.uniform(0.5, 4))))
    rows = []
    for _ in range(int(rng.integers(1, 6))):
        coefs = rng.uniform(-3, 3, size=n)
        sense = [LE, GE][int(rng.integers(0, 2))]
        rows.append(LinearConstraint.of([(j, coefs[j]) for j in range(n)],
                                        sense, float(rng.uniform(-4, 4))))
    base = LpProblem.build(n, c, rows, bounds)
    return MilpProblem.build(base, range(n_bin))


def test_matches_brute_force_enumeration():
    rng = np.random.default_rng(101)
    agreements = 0
    for _ in range(40):
        problem = random_milp(rng)
        expected = brute_force_binary(problem)
        sol = solve_milp(problem)
        if expected is None:
            assert sol.status == MilpStatus.INFEASIBLE
        else:
            assert sol.status == MilpStatus.OPTIMAL
            assert sol.objective == pytest.approx(expected, abs=1e-6)
            frac = np.abs(sol.values[list(problem.binary_vars)] % 1.0)
            assert np.minimum(frac, 1 - frac).max() <= 1e-6
        agreements += 1
    assert agreements == 40


def test_twelve_binary_exactness():
    rng = np.random.default_rng(313)
    n = 12
    c = rng.uniform(-3, 3, size=n)
    rows = [LinearConstraint.of([(j, rng.uniform(-2, 2)) for j in range(n)], LE,
                                float(rng.uniform(0, 4))) for _ in range(4)]
    problem = MilpProblem.build(
        LpProblem.build(n, c, rows, [(0.0, 1.0)] * n), range(n))
    expected = brute_force_binary(problem)
    sol = solve_milp(problem)
    assert expected is not None
    assert sol.objective == pytest.approx(expected, abs=1e-6)


def test_bound_monotonicity_trace():
    rng = np.random.default_rng(5)
    for _ in range(10):
        problem = random_milp(rng)
        trace = []
        solve_milp(problem, bound_trace=trace)
        for earlier, later in zip(trace, trace[1:]):
            assert later >= earlier - 1e-9


def test_node_limit_reports_gap():
    rng = np.random.default_rng(17)
    # A MILP needing more than one node.
    while True:
        problem = random_milp(rng)
        full = solve_milp(problem)
        if full.status == MilpStatus.OPTIMAL and full.nodes_explored > 2:
            break
    limited = solve_milp(problem, SolverOptions(node_limit=1))
    assert limited.status == MilpStatus.NODE_LIMIT
    assert limited.nodes_explored <= 2
    if limited.values is not None:
        assert limited.bound_gap >= -1e-12


def test_determinism():
    rng = np.random.default_rng(29)
    problem = random_milp(rng)
    a = solve_milp(problem)
    b = solve_milp(problem)
    assert a.status == b.status
    assert a.nodes_explored == b.nodes_explored
    if a.values is not None:
        assert np.array_equal(a.values, b.values)


def test_initial_incumbent_is_verified():
    base = lp(2, [-1.0, -1.0], [([(0, 1.0), (1, 1.0)], LE, 1.0)], [(0, 1), (0, 1)])
    problem = MilpProblem.build(base, [0, 1])
    # An infeasible "incumbent" must be ignored, not trusted.
    bogus = (np.array([1.0, 1.0]), -2.0)
    sol = solve_milp(problem, initial_incumbent=bogus)
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_find_integer_feasible_modes():
    base = lp(2, [0.0, 0.0], [([(0, 1.0), (1, 1.0)], EQ, 1.0)], [(0, 1), (0, 1)])
    problem = MilpProblem.build(base, [0, 1])
    sol = find_integer_feasible(problem)
    assert sol.values is not None
    assert sol.values[:2].sum() == pytest.approx(1.0, abs=1e-9)

    base2 = lp(2, [0.0, 0.0], [([(0, 1.0), (1, 1.0)], EQ, 1.5)], [(0, 1), (0, 1)])
    sol2 = find_integer_feasible(MilpProblem.build(base2, [0, 1]))
    assert sol2.values is None and sol2.status == MilpStatus.INFEASIBLE


@pytest.mark.parametrize("tau, found, nodes, iterations", [
    (47, True, 62, 9022), (46, False, 151, 19469)])
def test_paper_probe_node_counts(paper_config, tau, found, nodes, iterations):
    # The tolerant plan's probes, built as the planner builds them: a witness
    # at 47 steps and an infeasibility proof at 46.  Node and pivot counts
    # are deterministic, so drift in tightening or branching shows here.
    problem, lay = build_collision_tolerant(paper_config, tau)
    probe = MilpProblem(
        problem.base.with_objective(_contact_objective(problem.base.num_vars, lay)),
        problem.binary_vars)
    sol = find_integer_feasible(probe)
    assert (sol.nodes_explored, sol.iterations) == (nodes, iterations)
    if found:
        assert sol.values is not None
    else:
        assert sol.values is None and sol.status == MilpStatus.INFEASIBLE


def test_pairwise_sum_matches_numpy():
    # Every length up to 300 takes numpy's sequential (< 8), unrolled
    # (<= 128) and recursive paths.  Only the sign of a zero total may differ.
    rng = np.random.default_rng(41)
    for n in range(301):
        v = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
        assert _pairwise_sum(v.tolist()) == np.add.reduce(v)


# The array implementation of interval tightening, one numpy expression per
# row: the reference that the list implementation must match bit for bit.

def _reference_propagation_rows(dense):
    out = []
    for i in range(dense.m):
        idx = np.flatnonzero(dense.A[i])
        if idx.size == 0:
            continue
        coef = dense.A[i, idx]
        if dense.sense[i] in (0, 1):
            out.append((idx, coef, dense.rhs[i]))
        if dense.sense[i] in (1, 2):
            out.append((idx, -coef, -dense.rhs[i]))
    return out


def _reference_var_to_rows(prop_rows, n):
    table = [[] for _ in range(n)]
    for r, (idx, _, _) in enumerate(prop_rows):
        for j in idx:
            table[j].append(r)
    return [np.asarray(rows, dtype=np.intp) for rows in table]


def _reference_tighten(prop_rows, var_rows, lo, hi, bins, feas_tol, max_rounds=8,
                       seed_wlo=None, seed_whi=None, active0=None):
    wlo = lo.copy() if seed_wlo is None else np.maximum(seed_wlo, lo)
    whi = hi.copy() if seed_whi is None else np.minimum(seed_whi, hi)
    active = range(len(prop_rows)) if active0 is None else active0
    forward = True
    for _ in range(max_rounds):
        dirty_vars = set()
        order = sorted(active, reverse=not forward)
        for r in order:
            idx, coef, ub = prop_rows[r]
            l = wlo[idx]
            h = whi[idx]
            term_min = np.where(coef > 0, coef * l, coef * h)
            finite = np.isfinite(term_min)
            n_inf = int(finite.size - finite.sum())
            act_min = term_min[finite].sum() if n_inf else term_min.sum()
            if n_inf == 0 and act_min > ub + feas_tol * (1.0 + abs(ub)):
                return False, wlo, whi
            if n_inf > 1:
                continue
            slack_margin = 1e-9 * (1.0 + abs(ub))
            for k in range(idx.size):
                if n_inf == 1 and finite[k]:
                    continue
                rest = act_min - (term_min[k] if finite[k] else 0.0)
                room = ub - rest + slack_margin
                j = idx[k]
                if coef[k] > 0:
                    new_hi = room / coef[k]
                    cur = whi[j]
                    if new_hi < cur and (math.isinf(cur)
                                         or cur - new_hi > 1e-12 + 1e-9 * abs(cur)):
                        whi[j] = new_hi
                        dirty_vars.add(j)
                else:
                    new_lo = room / coef[k]
                    cur = wlo[j]
                    if new_lo > cur and (math.isinf(cur)
                                         or new_lo - cur > 1e-12 + 1e-9 * abs(cur)):
                        wlo[j] = new_lo
                        dirty_vars.add(j)
        if not dirty_vars:
            break
        touched = set()
        for j in dirty_vars:
            touched.update(var_rows[j].tolist())
        active = touched
        forward = not forward
    for b in bins:
        if whi[b] < wlo[b] - 1e-9:
            return False, wlo, whi
        if whi[b] < 0.5 and hi[b] > 0.0:
            if lo[b] > 0.5:
                return False, wlo, whi
            hi[b] = 0.0
        if wlo[b] > 0.5 and lo[b] < 1.0:
            if hi[b] < 0.5:
                return False, wlo, whi
            lo[b] = 1.0
    return True, wlo, whi


def _assert_tightening_matches_reference(problem: MilpProblem):
    """The root call, then node calls with each binary fixed to 0 and to 1,
    made as branch and bound makes them; returns the calls compared."""
    dense = _Dense(problem.base)
    bins = np.asarray(problem.binary_vars, dtype=np.intp)
    feas_tol = SolverOptions().feas_tol
    rows = _propagation_rows(dense)
    var_rows = _var_to_rows(rows, dense.n)
    ref_rows = _reference_propagation_rows(dense)
    ref_var_rows = _reference_var_to_rows(ref_rows, dense.n)

    def both(lo, hi, **seed):
        ref_lo, ref_hi = lo.copy(), hi.copy()
        got = _tighten(rows, var_rows, lo, hi, bins, feas_tol, **seed)
        want = _reference_tighten(ref_rows, ref_var_rows, ref_lo, ref_hi, bins,
                                  feas_tol, **seed)
        assert got[0] == want[0]
        assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        return got

    root_lo, root_hi = dense.lo.copy(), dense.hi.copy()
    root_ok, root_wlo, root_whi = both(root_lo, root_hi)
    calls = 1
    if not root_ok:
        return calls
    for j in bins.tolist():
        for value in (0.0, 1.0):
            lo, hi = root_lo.copy(), root_hi.copy()
            lo[j] = hi[j] = value
            both(lo, hi, seed_wlo=root_wlo, seed_whi=root_whi, active0=set(var_rows[j]))
            calls += 1
    return calls


def test_tightening_matches_array_reference_on_random_milps():
    # Half the instances drop some continuous bounds, so that rows with one
    # or more unbounded terms occur.
    rng = np.random.default_rng(211)
    for k in range(120):
        problem = random_milp(rng)
        if k % 2:
            bounds = list(problem.base.var_bounds)
            for j in range(len(problem.binary_vars), len(bounds)):
                lo, hi = bounds[j]
                bounds[j] = [(-INF, hi), (lo, INF), (-INF, INF), (lo, hi)][int(rng.integers(0, 4))]
            problem = MilpProblem(replace(problem.base, var_bounds=tuple(bounds)),
                                  problem.binary_vars)
        _assert_tightening_matches_reference(problem)


@pytest.mark.parametrize("tau", [46, 47])
def test_tightening_matches_array_reference_on_paper_model(paper_config, tau):
    problem, _ = build_collision_tolerant(paper_config, tau)
    calls = _assert_tightening_matches_reference(problem)
    assert calls == 1 + 2 * len(problem.binary_vars)
