"""LP solver: spec'd examples, classification, and the vertex-oracle sweep."""

import math

import numpy as np
import pytest

from scipy.linalg.blas import dgemv, dger

from ctplan import (EQ, GE, LE, LinearConstraint, LpProblem, LpStatus,
                    ProblemError, SolverOptions, build_collision_free, solve_lp)
from ctplan.solver import (_SERIAL_CELLS, _UPDATE_BLOCK, _matvec_t, _rank1_update,
                           _serial_width)

INF = math.inf


def lp(n, c, rows, bounds):
    return LpProblem.build(n, c, [LinearConstraint.of(*r) for r in rows], bounds)


def test_single_active_bound():
    sol = solve_lp(lp(1, [1.0], [([(0, 1.0)], GE, 1.0)], [(-INF, INF)]))
    assert sol.status == LpStatus.OPTIMAL
    assert sol.values[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_triangle_vertex_optimum():
    # min -x - 2y over the triangle x + y <= 1, x, y >= 0.
    problem = lp(2, [-1.0, -2.0], [([(0, 1.0), (1, 1.0)], LE, 1.0)],
                 [(0.0, INF), (0.0, INF)])
    # Enumerate the three vertices by hand as the oracle.
    vertices = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    best = min(-x - 2 * y for x, y in vertices)
    sol = solve_lp(problem)
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(best, abs=1e-9)
    assert tuple(np.round(sol.values, 9)) == (0.0, 1.0)


def test_empty_feasible_set():
    problem = lp(1, [0.0], [([(0, 1.0)], GE, 1.0), ([(0, 1.0)], LE, 0.0)],
                 [(-INF, INF)])
    assert solve_lp(problem).status == LpStatus.INFEASIBLE


def test_unbounded_ray():
    assert solve_lp(lp(1, [-1.0], [], [(0.0, INF)])).status == LpStatus.UNBOUNDED


def test_bounds_only_problem():
    sol = solve_lp(lp(2, [-1.0, 2.0], [], [(0.0, 3.0), (-2.0, 5.0)]))
    assert sol.status == LpStatus.OPTIMAL
    assert tuple(sol.values) == (3.0, -2.0)
    assert sol.objective == pytest.approx(-7.0)


def test_equality_with_free_variables():
    sol = solve_lp(lp(2, [1.0, 1.0], [([(0, 1.0), (1, 1.0)], EQ, 2.0)],
                      [(-INF, INF), (-INF, INF)]))
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sum(sol.values) == pytest.approx(2.0, abs=1e-9)


def test_degenerate_equalities():
    # Redundant duplicated equality rows must not upset phase I.
    rows = [([(0, 1.0), (1, 1.0)], EQ, 1.0), ([(0, 2.0), (1, 2.0)], EQ, 2.0)]
    sol = solve_lp(lp(2, [1.0, 0.0], rows, [(0.0, INF), (0.0, INF)]))
    assert sol.status == LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


class TestValidation:
    def test_nan_coefficient(self):
        with pytest.raises(ProblemError):
            solve_lp(lp(1, [float("nan")], [], [(0.0, 1.0)]))

    def test_nan_in_row(self):
        with pytest.raises(ProblemError):
            solve_lp(lp(1, [1.0], [([(0, float("nan"))], LE, 1.0)], [(0.0, 1.0)]))

    def test_index_out_of_range(self):
        with pytest.raises(ProblemError):
            solve_lp(lp(1, [1.0], [([(3, 1.0)], LE, 1.0)], [(0.0, 1.0)]))

    def test_inverted_bounds(self):
        with pytest.raises(ProblemError):
            solve_lp(lp(1, [1.0], [], [(2.0, 1.0)]))

    @pytest.mark.parametrize("bounds", [(INF, INF), (-INF, -INF)])
    def test_bounds_without_finite_value(self, bounds):
        with pytest.raises(ProblemError):
            solve_lp(lp(1, [1.0], [], [bounds]))

    def test_bad_sense(self):
        with pytest.raises(ProblemError):
            solve_lp(lp(1, [1.0], [([(0, 1.0)], "<", 1.0)], [(0.0, 1.0)]))

    def test_bad_tolerances(self):
        with pytest.raises(ProblemError):
            solve_lp(lp(1, [1.0], [], [(0.0, 1.0)]), SolverOptions(feas_tol=0.0))


def test_determinism(box_lp_generator):
    rng = np.random.default_rng(7)
    problem, _, _, _ = box_lp_generator(rng, n=5, m=5)
    a = solve_lp(problem)
    b = solve_lp(problem)
    assert a.status == b.status and a.iterations == b.iterations
    assert np.array_equal(a.values, b.values)


def test_phase_one_point_feasible(box_lp_generator):
    # Whenever phase I declares feasibility, the returned point satisfies
    # every constraint within tolerance.
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 40:
        problem, rows, lo, hi = box_lp_generator(rng)
        sol = solve_lp(problem)
        if sol.status != LpStatus.OPTIMAL:
            continue
        checked += 1
        x = sol.values
        for coefs, sense, rhs in rows:
            act = float(np.asarray(coefs) @ x)
            if sense == LE:
                assert act <= rhs + 1e-6 * (1 + abs(rhs))
            elif sense == GE:
                assert act >= rhs - 1e-6 * (1 + abs(rhs))
        assert (x >= lo - 1e-6).all() and (x <= hi + 1e-6).all()


def test_matches_vertex_enumeration(box_lp_generator, vertex_oracle):
    rng = np.random.default_rng(23)
    for _ in range(60):
        problem, rows, lo, hi = box_lp_generator(rng)
        expected_obj, _ = vertex_oracle(problem.objective, rows, lo, hi)
        sol = solve_lp(problem)
        if expected_obj is None:
            assert sol.status == LpStatus.INFEASIBLE
        else:
            assert sol.status == LpStatus.OPTIMAL
            assert sol.objective == pytest.approx(expected_obj, abs=1e-6)


@pytest.mark.parametrize("tau, status, pivots", [
    (52, LpStatus.OPTIMAL, 159), (51, LpStatus.INFEASIBLE, 152)])
def test_paper_probe_pivot_counts(paper_config, tau, status, pivots):
    # The horizon probes of the paper's collision-free plan.  Pivot counts
    # are deterministic, so any drift in pivot selection shows here.
    problem, _ = build_collision_free(paper_config, tau)
    sol = solve_lp(problem)
    assert (sol.status, sol.iterations) == (status, pivots)


@pytest.mark.parametrize("m", [40, 300])
def test_blocked_sparse_update_matches_full_dger(m):
    # At 300 rows each gathered block takes several serial dger calls.
    rng = np.random.default_rng(5)
    w = 5 * _UPDATE_BLOCK
    T = np.asfortranarray(rng.standard_normal((m, w)))
    col = rng.standard_normal(m)
    nz = np.sort(rng.choice(w, size=2 * _UPDATE_BLOCK + 7, replace=False))
    row = np.zeros(w)
    row[nz] = rng.standard_normal(nz.size)
    full = dger(-1.0, col, row, a=T.copy(order="F"), overwrite_a=1)
    _rank1_update(T, col, row[nz], nz, np.empty((_UPDATE_BLOCK, m)))
    assert T.flags.f_contiguous
    assert np.array_equal(T.view(np.uint64), full.view(np.uint64))


@pytest.mark.parametrize("m, w", [(40, 301), (90, 1003), (816, 1037)])
def test_blocked_matvec_matches_one_serial_dgemv(m, w):
    # Each call stays within OpenBLAS's single-thread limit, and the blocks
    # do not change the rounding of a serial call.
    rng = np.random.default_rng(6)
    M = np.asfortranarray(rng.standard_normal((m, w)) * (rng.random((m, w)) < 0.2))
    v = rng.standard_normal(m)
    assert _serial_width(m) % 4 == 0
    assert m * _serial_width(m) <= _SERIAL_CELLS
    blocked = _matvec_t(M, v)
    one_by_one = np.concatenate([dgemv(1.0, M[:, s:s + 4], v, trans=1) for s in range(0, w, 4)])
    assert np.array_equal(blocked.view(np.uint64), one_by_one.view(np.uint64))
