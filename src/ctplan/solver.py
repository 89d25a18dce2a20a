"""Small-scale LP and binary-MILP solvers.

The LP path is a two-phase primal simplex on a dense tableau with general
variable bounds: every variable may carry a finite lower bound, a finite
upper bound, both, or neither, and nonbasic variables rest at one of their
bounds (or at zero when free).  Pivot selection defaults to the
most-negative reduced cost; after a configurable run of degenerate pivots
the solver switches to Bland's rule, which guarantees termination.

All tableau arithmetic (pricing refreshes, row activities and the rank-1
pivot update) goes through scipy's BLAS, in calls small enough that
OpenBLAS runs them on the calling thread: a solve wakes no BLAS thread
pool, and its rounding does not depend on the core count.  A pivot updates
only the columns where the pivot row is nonzero, in gathered blocks of at
most ``_UPDATE_BLOCK`` columns.

The MILP path is depth-first branch and bound over binary variables with
lazy child relaxations, interval-arithmetic bound tightening at node
creation, and a rounding pass that re-verifies near-integral relaxation
points before accepting them as incumbents.  Branching always targets the
lowest-index fractional binary and explores its one branch first.

Problems and solutions are immutable value objects, and each solve works on
its own arrays, so independent solves may safely run concurrently.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.linalg.blas import dgemv, dger

from .errors import NumericalError, ProblemError, UnboundedProblemError

LE = "<="
EQ = "="
GE = ">="
_SENSES = (LE, EQ, GE)

_INF = math.inf


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class MilpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NODE_LIMIT = "node_limit"


@dataclass(frozen=True)
class LinearConstraint:
    """One sparse row: sum(coef * x[idx]) <sense> rhs."""

    terms: tuple[tuple[int, float], ...]
    sense: str
    rhs: float

    @staticmethod
    def of(terms: Iterable[tuple[int, float]], sense: str, rhs: float) -> "LinearConstraint":
        return LinearConstraint(tuple((int(j), float(c)) for j, c in terms), sense, float(rhs))


@dataclass(frozen=True)
class LpProblem:
    """Minimization LP over bounded variables.

    ``var_bounds`` uses ``-math.inf`` / ``math.inf`` for absent bounds.
    """

    num_vars: int
    objective: tuple[float, ...]
    constraints: tuple[LinearConstraint, ...]
    var_bounds: tuple[tuple[float, float], ...]

    @staticmethod
    def build(num_vars, objective, constraints, var_bounds) -> "LpProblem":
        return LpProblem(
            int(num_vars),
            tuple(float(c) for c in objective),
            tuple(constraints),
            tuple((float(lo), float(hi)) for lo, hi in var_bounds),
        )

    def validate(self) -> None:
        n = self.num_vars
        if n < 0:
            raise ProblemError("num_vars must be nonnegative")
        if len(self.objective) != n:
            raise ProblemError(f"objective length {len(self.objective)} != num_vars {n}")
        if len(self.var_bounds) != n:
            raise ProblemError(f"var_bounds length {len(self.var_bounds)} != num_vars {n}")
        for c in self.objective:
            if math.isnan(c) or math.isinf(c):
                raise ProblemError("objective contains a non-finite coefficient")
        for j, (lo, hi) in enumerate(self.var_bounds):
            if math.isnan(lo) or math.isnan(hi):
                raise ProblemError(f"bounds of x{j} contain NaN")
            if lo == _INF or hi == -_INF:
                raise ProblemError(f"bounds of x{j} admit no finite value: [{lo}, {hi}]")
            if lo > hi:
                raise ProblemError(f"bounds of x{j} are inverted: [{lo}, {hi}]")
        for i, row in enumerate(self.constraints):
            if row.sense not in _SENSES:
                raise ProblemError(f"constraint {i} has unknown sense {row.sense!r}")
            if math.isnan(row.rhs) or math.isinf(row.rhs):
                raise ProblemError(f"constraint {i} has non-finite rhs")
            for j, coef in row.terms:
                if not 0 <= j < n:
                    raise ProblemError(f"constraint {i} references x{j} outside [0, {n})")
                if math.isnan(coef) or math.isinf(coef):
                    raise ProblemError(f"constraint {i} has non-finite coefficient on x{j}")

    def with_objective(self, objective: Sequence[float]) -> "LpProblem":
        return replace(self, objective=tuple(float(c) for c in objective))


@dataclass(frozen=True)
class MilpProblem:
    """An LP plus a set of variable indices restricted to {0, 1}."""

    base: LpProblem
    binary_vars: tuple[int, ...]

    @staticmethod
    def build(base: LpProblem, binary_vars: Iterable[int]) -> "MilpProblem":
        return MilpProblem(base, tuple(sorted(set(int(b) for b in binary_vars))))

    def validate(self) -> None:
        self.base.validate()
        for b in self.binary_vars:
            if not 0 <= b < self.base.num_vars:
                raise ProblemError(f"binary index {b} outside [0, {self.base.num_vars})")
            lo, hi = self.base.var_bounds[b]
            if lo < -1e-12 or hi > 1 + 1e-12:
                raise ProblemError(f"binary x{b} must have bounds within [0, 1], got [{lo}, {hi}]")


@dataclass(frozen=True)
class SolverOptions:
    feas_tol: float = 1e-7
    int_tol: float = 1e-6
    pivot_tol: float = 1e-9
    node_limit: int = 10**6
    anti_cycling: bool = True

    def validate(self) -> None:
        if self.feas_tol <= 0 or self.int_tol <= 0 or self.pivot_tol <= 0:
            raise ProblemError("solver tolerances must be strictly positive")
        if self.node_limit <= 0:
            raise ProblemError("node_limit must be strictly positive")


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    values: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int


@dataclass(frozen=True)
class MilpSolution:
    status: MilpStatus
    values: Optional[np.ndarray]
    objective: Optional[float]
    nodes_explored: int
    bound_gap: float
    iterations: int = 0


# ---------------------------------------------------------------------------
# dense standard form
# ---------------------------------------------------------------------------

class _Dense:
    """Dense snapshot of an LpProblem, reused across branch-and-bound nodes."""

    def __init__(self, problem: LpProblem):
        n = problem.num_vars
        m = len(problem.constraints)
        self.n = n
        self.m = m
        self.A = np.zeros((m, n))
        self.rhs = np.zeros(m)
        self.sense = np.zeros(m, dtype=np.int8)  # 0: <=, 1: =, 2: >=
        for i, row in enumerate(problem.constraints):
            for j, coef in row.terms:
                self.A[i, j] += coef
            self.rhs[i] = row.rhs
            self.sense[i] = _SENSES.index(row.sense)
        self.c = np.asarray(problem.objective, dtype=float)
        bounds = np.asarray(problem.var_bounds, dtype=float).reshape(n, 2)
        self.lo = bounds[:, 0].copy()
        self.hi = bounds[:, 1].copy()


_AT_LOWER, _AT_UPPER, _FREE, _BASIC = 0, 1, 2, 3

#: Widest block of columns the pivot update gathers at once; one gather of
#: every nonzero column would copy up to the whole tableau.
_UPDATE_BLOCK = 64

#: OpenBLAS keeps a ``dger`` or ``dgemv`` call on the calling thread when
#: the matrix has at most this many cells (2048 times its
#: GEMM_MULTITHREAD_THRESHOLD of 4) or at most four columns.  Past that a
#: ``dger`` call, and a much larger ``dgemv`` one, splits the columns among
#: worker threads: waking them costs tens of microseconds that vary from
#: call to call, they then spin and compete with the solve for the cores,
#: and where the split falls depends on the core count.  Tableau calls are
#: cut into column blocks that stay on the calling thread.
_SERIAL_CELLS = 8192


def _serial_width(m):
    """Columns per BLAS call on an ``m``-row matrix: a multiple of 4, and at
    most ``_SERIAL_CELLS`` cells unless that leaves fewer than 4 columns.

    OpenBLAS's ``dgemv`` kernel sums four columns at a time, so cutting at
    multiples of 4 gives every dot product the rounding of one serial call.
    """
    return max(4, _SERIAL_CELLS // max(m, 1) // 4 * 4)


def _matvec_t(M, v):
    """``M.T @ v`` through scipy's BLAS, one serial call per column block;
    an F-ordered ``M`` is not copied."""
    rows, cols = M.shape
    if rows == 0:
        return np.zeros(cols)
    out = np.empty(cols)
    width = _serial_width(rows)
    for s in range(0, cols, width):
        out[s:s + width] = dgemv(1.0, M[:, s:s + width], v, trans=1)
    return out


def _rank1_update(T, col, row_nz, nz, block):
    """``T[:, nz] -= outer(col, row_nz)`` for an F-ordered ``T``.

    Gathers at most ``_UPDATE_BLOCK`` columns at a time into ``block``, a
    C-ordered ``(_UPDATE_BLOCK, m)`` scratch array whose rows hold the
    columns, and runs BLAS ``dger`` in place on ``_serial_width(m)`` of them
    per call.  Each column is updated with the same arithmetic as one
    ``dger`` over the whole tableau.
    """
    width = _serial_width(T.shape[0])
    for s in range(0, nz.size, _UPDATE_BLOCK):
        cols = nz[s:s + _UPDATE_BLOCK]
        rows = block[:cols.size]
        # The indices are valid; "clip" lets take write into ``out`` unbuffered.
        np.take(T.T, cols, axis=0, out=rows, mode="clip")
        gathered = rows.T
        y = row_nz[s:s + _UPDATE_BLOCK]
        for t in range(0, cols.size, width):
            # An F-contiguous view of whole columns: dger writes into it.
            dger(-1.0, col, y[t:t + width], a=gathered[:, t:t + width], overwrite_a=1)
        T[:, cols] = gathered


def _simplex(dense: _Dense, lo, hi, cost, opts: SolverOptions, force_bland=False):
    """Two-phase bounded simplex. Returns (status, x, objective, iterations)."""
    m, n = dense.m, dense.n
    A, rhs, sense = dense.A, dense.rhs, dense.sense

    # Every row receives a slack column; equalities get a fixed [0, 0] slack.
    slack_lo = np.where(sense == 0, 0.0, np.where(sense == 1, 0.0, -_INF))
    slack_hi = np.where(sense == 2, 0.0, np.where(sense == 1, 0.0, _INF))

    # Initial nonbasic point: finite lower bound, else finite upper, else 0.
    x0 = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    resid = rhs - _matvec_t(A.T, x0)

    beta = np.clip(resid, slack_lo, slack_hi)
    needs_art = np.abs(resid - beta) > 1e-30
    art_rows = np.flatnonzero(needs_art)
    n_art = len(art_rows)

    W = n + m + n_art
    LO = np.concatenate([lo, slack_lo, np.zeros(n_art)])
    HI = np.concatenate([hi, slack_hi, np.full(n_art, _INF)])

    # Fortran order: contiguous columns for the ratio test and the BLAS
    # rank-1 pivot update.
    T = np.zeros((m, W), order="F")
    T[:, :n] = A
    T[np.arange(m), n + np.arange(m)] = 1.0
    sigma = np.sign(resid[art_rows] - beta[art_rows]) if n_art else np.zeros(0)
    for k, r in enumerate(art_rows):
        T[r, n + m + k] = sigma[k]

    status = np.full(W, _AT_LOWER, dtype=np.int8)
    status[:n][~np.isfinite(lo) & np.isfinite(hi)] = _AT_UPPER
    status[:n][~np.isfinite(lo) & ~np.isfinite(hi)] = _FREE

    basis = (n + np.arange(m)).astype(np.intp)
    xB = resid.copy()
    for k, r in enumerate(art_rows):
        j_art = n + m + k
        basis[r] = j_art
        xB[r] = abs(resid[r] - beta[r])
        status[j_art] = _BASIC
        # Nonbasic slack parked at the bound nearest the residual.
        s = n + r
        status[s] = _AT_LOWER if beta[r] == slack_lo[r] else _AT_UPPER
        if sigma[k] < 0:
            T[r, :] *= -1.0
    status[basis] = _BASIC

    scale = 1.0 + (np.abs(rhs).max() if m else 0.0)
    total_iters = 0
    bland_latch = [force_bland]

    if n_art:
        c1 = np.zeros(W)
        c1[n + m:] = 1.0
        outcome, iters = _simplex_phase(T, xB, basis, status, LO, HI, c1, opts, bland_latch)
        total_iters += iters
        if outcome == "unbounded":  # cannot happen for a phase-I objective
            raise NumericalError("phase I reported unbounded")
        phase1 = float(xB[np.isin(basis, np.arange(n + m, W))].sum()) if m else 0.0
        if phase1 > opts.feas_tol * scale:
            return LpStatus.INFEASIBLE, None, None, total_iters
        _evict_artificials(T, xB, basis, status, LO, HI, n, m, opts)

    c2 = np.zeros(W)
    c2[:n] = cost
    outcome, iters = _simplex_phase(T, xB, basis, status, LO, HI, c2, opts, bland_latch)
    total_iters += iters
    if outcome == "unbounded":
        return LpStatus.UNBOUNDED, None, None, total_iters

    x = np.where(status[:W] == _AT_UPPER, HI, np.where(status[:W] == _FREE, 0.0, LO))
    x[~np.isfinite(x)] = 0.0
    x[basis] = xB
    xs = x[:n]
    return LpStatus.OPTIMAL, xs, float(np.dot(cost, xs)), total_iters


def _evict_artificials(T, xB, basis, status, LO, HI, n, m, opts):
    """Pivot zero-valued artificials out of the basis; pin the rest."""
    W = T.shape[1]
    art_start = n + m
    for r in range(m):
        p = basis[r]
        if p < art_start:
            continue
        row = np.abs(T[r, :art_start])
        row[LO[:art_start] >= HI[:art_start]] = 0.0
        row[status[:art_start] == _BASIC] = 0.0
        q = int(np.argmax(row))
        if row[q] > 10 * opts.pivot_tol:
            _pivot_in_place(T, xB, basis, status, LO, HI, r, q)
        else:
            # Redundant row: the artificial stays basic at zero and must
            # never block a ratio test.
            LO[p], HI[p] = -_INF, _INF
    nonbasic_art = (np.arange(W) >= art_start) & (status != _BASIC)
    LO[nonbasic_art] = 0.0
    HI[nonbasic_art] = 0.0
    status[nonbasic_art] = _AT_LOWER


def _pivot_in_place(T, xB, basis, status, LO, HI, r, q):
    """Degenerate pivot (step length zero) used for artificial eviction."""
    enter_val = 0.0 if status[q] == _FREE else (HI[q] if status[q] == _AT_UPPER else LO[q])
    piv = T[r, q]
    T[r, :] /= piv
    col = T[:, q].copy()
    col[r] = 0.0
    # As in the main pivot, only the pivot row's nonzero columns change; this
    # also keeps the temporary outer product off the full tableau.
    nz = np.flatnonzero(T[r, :])
    T[:, nz] -= np.outer(col, T[r, nz])
    status[basis[r]] = _AT_LOWER
    basis[r] = q
    status[q] = _BASIC
    xB[r] = enter_val


def _simplex_phase(T, xB, basis, status, LO, HI, cost, opts, bland_latch):
    """Run the simplex loop for one objective. Returns (outcome, iterations)."""
    m, W = T.shape
    if W == 0:
        return "optimal", 0
    ptol = opts.pivot_tol
    dtol = ptol * (1.0 + float(np.abs(cost).max()))
    degen_eps = 1e-11
    stall_threshold = 2 * (m + W)
    max_iters = 200 * (m + W) + 2000
    col = np.empty(m)
    d = np.empty(m)
    abs_d = np.empty(m)
    ratio_buf = np.empty(m)
    score = np.empty(W)
    block = np.empty((_UPDATE_BLOCK, m))

    # Pricing direction of each nonbasic column: +1 may rise from its lower
    # bound, -1 may fall from its upper bound, 0 is basic or fixed.  LO and
    # HI do not change within a phase, so only pivots and bound flips touch
    # it.  Free nonbasics may move either way and are priced on -|z|.
    movable = LO < HI
    direction = np.zeros(W)
    direction[(status == _AT_LOWER) & movable] = 1.0
    direction[(status == _AT_UPPER) & movable] = -1.0
    free = np.flatnonzero(status == _FREE)

    z = cost - _matvec_t(T, cost[basis])
    iters = 0
    degen_run = 0
    refresh = 0
    bland = bland_latch[0]

    while True:
        if iters >= max_iters:
            raise NumericalError(f"simplex iteration limit hit ({max_iters})")
        # The candidates to enter are exactly the columns scoring below -dtol.
        np.multiply(direction, z, out=score)
        if free.size:
            score[free] = -np.abs(z[free])
        if bland:
            cand = np.flatnonzero(score < -dtol)
            if cand.size == 0:
                return "optimal", iters
            q = int(cand[0])
        else:
            q = int(np.argmin(score))
            if not score[q] < -dtol:
                return "optimal", iters

        q_free = status[q] == _FREE
        delta = 1.0 if (status[q] == _AT_LOWER or (q_free and z[q] < 0)) else -1.0
        np.multiply(T[:, q], delta, out=d)

        # Only rows with |d| > ptol can block.  There the division is by a
        # nonzero, and an infinite bound (LO < inf and HI > -inf always)
        # yields +inf, so finite xB gives no NaN and no -inf.
        np.abs(d, out=abs_d)
        rows = np.flatnonzero(abs_d > ptol)
        if rows.size:
            d_rows = d[rows]
            b_rows = basis[rows]
            limit = LO[b_rows]
            falling = d_rows < 0
            limit[falling] = HI[b_rows[falling]]
            ratios = ratio_buf[:rows.size]
            np.subtract(xB[rows], limit, out=ratios)
            np.divide(ratios, d_rows, out=ratios)
            np.maximum(ratios, 0.0, out=ratios)
            rmin = float(ratios.min())
        else:
            rmin = _INF

        t_flip = HI[q] - LO[q]
        tstar = min(rmin, t_flip)
        if not math.isfinite(tstar):
            return "unbounded", iters

        iters += 1
        if tstar <= degen_eps:
            degen_run += 1
            if opts.anti_cycling and degen_run > stall_threshold:
                bland = True
                bland_latch[0] = True
        else:
            degen_run = 0

        if t_flip <= rmin:
            # Bound flip: the entering variable crosses to its other bound.
            xB -= tstar * d
            status[q] = _AT_UPPER if status[q] == _AT_LOWER else _AT_LOWER
            direction[q] = -direction[q]
            continue

        tie_rows = rows[ratios <= rmin + 1e-9 * (1.0 + rmin)]
        if bland:
            r = int(tie_rows[np.argmin(basis[tie_rows])])
        else:
            r = int(tie_rows[np.argmax(abs_d[tie_rows])])

        enter_val = 0.0 if q_free else (HI[q] if status[q] == _AT_UPPER else LO[q])
        enter_val += delta * tstar
        leaving = basis[r]
        rising = d[r] > 0
        status[leaving] = _AT_LOWER if rising else _AT_UPPER
        if movable[leaving]:
            direction[leaving] = 1.0 if rising else -1.0
        xB -= tstar * d

        # Only columns where the pivot row is nonzero change; elsewhere the
        # full update would only flip the sign of zeros.
        pivot_row = T[r, :]
        nz = np.flatnonzero(pivot_row)
        row_nz = pivot_row[nz] / T[r, q]
        pivot_row[nz] = row_nz
        np.copyto(col, T[:, q])
        col[r] = 0.0
        _rank1_update(T, col, row_nz, nz, block)
        zq = z[q]
        z[nz] -= zq * row_nz
        basis[r] = q
        status[q] = _BASIC
        direction[q] = 0.0
        if q_free:
            free = free[free != q]
        xB[r] = enter_val

        refresh += 1
        if refresh >= 256:
            z = cost - _matvec_t(T, cost[basis])
            refresh = 0


# ---------------------------------------------------------------------------
# public LP entry point
# ---------------------------------------------------------------------------

def _row_violation(dense: _Dense, x: np.ndarray) -> float:
    if dense.m == 0:
        return 0.0
    over = _matvec_t(dense.A.T, x) - dense.rhs
    viol = np.where(dense.sense == 0, over, np.where(dense.sense == 2, -over, np.abs(over)))
    return float(np.maximum(viol, 0.0).max())


def _solve_dense(dense: _Dense, lo, hi, cost, opts: SolverOptions):
    status, x, obj, iters = _simplex(dense, lo, hi, cost, opts)
    if status == LpStatus.OPTIMAL:
        scale = 1.0 + (np.abs(dense.rhs).max() if dense.m else 0.0)
        bound_slip = float(np.maximum(np.maximum(lo - x, x - hi), 0.0).max()) if dense.n else 0.0
        if _row_violation(dense, x) > opts.feas_tol * scale or bound_slip > opts.feas_tol * scale:
            status, x, obj, it2 = _simplex(dense, lo, hi, cost, opts, force_bland=True)
            iters += it2
            if status == LpStatus.OPTIMAL and (
                _row_violation(dense, x) > opts.feas_tol * scale
                or float(np.maximum(np.maximum(lo - x, x - hi), 0.0).max()) > opts.feas_tol * scale
            ):
                raise NumericalError("simplex returned an infeasible point twice")
    return status, x, obj, iters


def solve_lp(problem: LpProblem, opts: Optional[SolverOptions] = None) -> LpSolution:
    """Solve a minimization LP; never raises for infeasible/unbounded inputs."""
    opts = opts or SolverOptions()
    opts.validate()
    problem.validate()
    dense = _Dense(problem)
    status, x, obj, iters = _solve_dense(dense, dense.lo, dense.hi, dense.c, opts)
    return LpSolution(status, x, obj, iters)


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------

def _propagation_rows(dense: _Dense):
    """Rows in <= form (index array, coef array, ub) for interval tightening."""
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


def _var_to_rows(prop_rows, n):
    """Map each variable to the prop-row indices it appears in."""
    table = [[] for _ in range(n)]
    for r, (idx, _, _) in enumerate(prop_rows):
        for j in idx:
            table[j].append(r)
    return [np.asarray(rows, dtype=np.intp) for rows in table]


def _tighten(prop_rows, var_rows, lo, hi, bins, feas_tol, max_rounds=8,
             seed_wlo=None, seed_whi=None, active0=None):
    """Interval bound tightening; fixes implied binaries in lo/hi.

    Continuous bounds are tightened only in working copies: the LP keeps the
    original bounds and stays the single source of truth for feasibility.
    Sweeps alternate direction so chains propagate both ways; only rows
    touching changed variables are revisited.  ``seed_wlo``/``seed_whi``
    carry conclusions already proven for an enclosing problem, and
    ``active0`` restricts the first sweep to rows touching fresh fixings.
    Returns (feasible, wlo, whi).
    """
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


@dataclass(order=True)
class _Node:
    sort_key: tuple
    fixed: dict = field(compare=False)
    bound: float = field(compare=False)


def _branch_and_bound(
    problem: MilpProblem,
    opts: SolverOptions,
    stop_first: bool = False,
    initial_incumbent: Optional[tuple[np.ndarray, float]] = None,
    bound_trace: Optional[list] = None,
) -> MilpSolution:
    problem.validate()
    opts.validate()
    dense = _Dense(problem.base)
    bins = np.asarray(problem.binary_vars, dtype=np.intp)

    if bins.size == 0:
        status, x, obj, iters = _solve_dense(dense, dense.lo, dense.hi, dense.c, opts)
        if status == LpStatus.UNBOUNDED:
            raise UnboundedProblemError("relaxation is unbounded; MILP has no finite optimum")
        if status == LpStatus.INFEASIBLE:
            return MilpSolution(MilpStatus.INFEASIBLE, None, None, 1, 0.0, iters)
        return MilpSolution(MilpStatus.OPTIMAL, x, obj, 1, 0.0, iters)

    prop_rows = _propagation_rows(dense)
    var_rows = _var_to_rows(prop_rows, dense.n)
    root_lo = dense.lo.copy()
    root_hi = dense.hi.copy()
    root_ok, root_wlo, root_whi = _tighten(
        prop_rows, var_rows, root_lo, root_hi, bins, opts.feas_tol)
    total_iters = 0
    nodes = 0

    incumbent_x = None
    incumbent_obj = _INF
    if initial_incumbent is not None:
        seed_x = np.asarray(initial_incumbent[0], dtype=float)
        scale = 1.0 + (np.abs(dense.rhs).max() if dense.m else 0.0)
        ok_rows = _row_violation(dense, seed_x) <= opts.feas_tol * scale
        ok_int = np.abs(seed_x[bins] - np.round(seed_x[bins])).max() <= opts.int_tol
        if ok_rows and ok_int:
            incumbent_x = seed_x
            incumbent_obj = float(initial_incumbent[1])

    def node_lp(fixed):
        nonlocal total_iters, nodes
        nodes += 1
        if not root_ok:
            return None
        lo = root_lo.copy()
        hi = root_hi.copy()
        touched = set()
        for j, v in fixed.items():
            lo[j] = hi[j] = float(v)
            touched.update(var_rows[j].tolist())
        ok, _, _ = _tighten(prop_rows, var_rows, lo, hi, bins, opts.feas_tol,
                            seed_wlo=root_wlo, seed_whi=root_whi,
                            active0=touched)
        if not ok:
            return None
        status, x, obj, iters = _solve_dense(dense, lo, hi, dense.c, opts)
        total_iters += iters
        if status == LpStatus.UNBOUNDED:
            raise UnboundedProblemError("relaxation is unbounded; MILP has no finite optimum")
        if status == LpStatus.INFEASIBLE:
            return None
        return x, obj

    def fixed_lp(fixed_all):
        nonlocal total_iters
        lo = root_lo.copy()
        hi = root_hi.copy()
        for j in bins:
            lo[j] = hi[j] = fixed_all[j]
        status, x, obj, iters = _solve_dense(dense, lo, hi, dense.c, opts)
        total_iters += iters
        if status == LpStatus.INFEASIBLE:
            return None
        return x, obj

    # Children are pushed unsolved with the parent bound and only solved at
    # pop time, so dives do not pay for sibling relaxations they may never
    # need.  Pop order: deepest first, one branch first, better bound, FIFO.
    heap: list[_Node] = []
    seq = 0

    def push(fixed, bound, depth, branch_val):
        nonlocal seq
        seq += 1
        heapq.heappush(heap, _Node((-depth, branch_val, bound, seq), fixed, bound))

    push({}, -_INF, 0, 0)
    hit_node_limit = False

    def cutoff():
        if not math.isfinite(incumbent_obj):
            return _INF
        return incumbent_obj - 1e-9 * (1.0 + abs(incumbent_obj))

    while heap:
        if nodes >= opts.node_limit:
            hit_node_limit = True
            break
        node = heapq.heappop(heap)
        if node.bound >= cutoff():
            continue
        if bound_trace is not None:
            open_bounds = [node.bound] + [nd.bound for nd in heap]
            bound_trace.append(min(min(open_bounds), incumbent_obj))

        res = node_lp(node.fixed)
        if res is None:
            continue
        vals, obj = res
        bound = max(obj, node.bound)
        if bound >= cutoff():
            continue

        frac = np.abs(vals[bins] - np.round(vals[bins]))
        max_frac = float(frac.max())

        if max_frac <= opts.int_tol:
            if max_frac <= 1e-12:
                cand = vals.copy()
                cand[bins] = np.round(cand[bins])
                cand_obj = float(np.dot(dense.c, cand))
                accepted = (cand, cand_obj)
            else:
                # Verify the rounded point by re-solving with binaries fixed.
                rounded = {int(j): float(round(vals[j])) for j in bins}
                accepted = fixed_lp(rounded)
            if accepted is not None and accepted[1] < cutoff():
                incumbent_x, incumbent_obj = accepted[0], accepted[1]
                if stop_first:
                    break
            if bound >= cutoff():
                continue
            branch_candidates = np.flatnonzero(frac > 1e-12)
            if branch_candidates.size == 0:
                continue
            q = int(bins[branch_candidates[0]])
        else:
            q = int(bins[np.flatnonzero(frac > opts.int_tol)[0]])

        depth = len(node.fixed) + 1
        for order, branch_val in enumerate((1, 0)):
            child_fixed = dict(node.fixed)
            child_fixed[q] = branch_val
            push(child_fixed, bound, depth, order)

    if incumbent_x is not None:
        open_bounds = [nd.bound for nd in heap]
        best_bound = min(open_bounds) if (hit_node_limit and open_bounds) else incumbent_obj
        gap = max(0.0, incumbent_obj - best_bound)
        status = MilpStatus.NODE_LIMIT if hit_node_limit else MilpStatus.OPTIMAL
        if stop_first and heap and not hit_node_limit:
            status = MilpStatus.OPTIMAL  # caller asked for any feasible point
        return MilpSolution(status, incumbent_x, incumbent_obj, nodes, gap, total_iters)
    if hit_node_limit:
        return MilpSolution(MilpStatus.NODE_LIMIT, None, None, nodes, _INF, total_iters)
    return MilpSolution(MilpStatus.INFEASIBLE, None, None, nodes, 0.0, total_iters)


def solve_milp(
    problem: MilpProblem,
    opts: Optional[SolverOptions] = None,
    *,
    initial_incumbent: Optional[tuple[np.ndarray, float]] = None,
    bound_trace: Optional[list] = None,
) -> MilpSolution:
    """Solve a binary MILP to proven optimality by branch and bound.

    ``initial_incumbent`` optionally seeds the search with a known feasible
    point ``(values, objective)``; it is re-verified before use.
    """
    opts = opts or SolverOptions()
    return _branch_and_bound(
        problem, opts, stop_first=False,
        initial_incumbent=initial_incumbent, bound_trace=bound_trace,
    )


def find_integer_feasible(
    problem: MilpProblem, opts: Optional[SolverOptions] = None
) -> MilpSolution:
    """Stop at the first verified incumbent; no optimality claim on it.

    ``values`` is any integer-feasible point or None; a None with status
    INFEASIBLE is a full infeasibility proof, while a None with status
    NODE_LIMIT is no verdict at all.
    """
    opts = opts or SolverOptions()
    return _branch_and_bound(problem, opts, stop_first=True)
