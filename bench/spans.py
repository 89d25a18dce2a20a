"""Spans around ctplan's layer boundaries, recorded from outside the package.

The traced run replaces the solver and model functions under the names
``ctplan.planner`` imported them as, so every call the planner makes goes
through :meth:`Tracer.call`; the benchmark routes its own calls (entry
points, oracle, scenario load, CSV write) through the same method.  Spans
stay in memory and are written once the run ends.  The untraced run uses
:class:`Direct`, which wraps nothing.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

#: Planner call sites wrapped in the traced run, with their span names.
PLANNER_CALLS = {
    "find_integer_feasible": "solver.find_integer_feasible",
    "solve_milp": "solver.solve_milp",
    "solve_lp": "solver.solve_lp",
    "build_collision_tolerant": "model.build_collision_tolerant",
    "build_collision_free": "model.build_collision_free",
    "with_effort_objective": "model.with_effort_objective",
}

ENTRY_POINTS = ("planner.min_time_search", "planner.damage_constrained_search")
MILP_SPANS = ("solver.find_integer_feasible", "solver.solve_milp")
PROBE_KINDS = ("witness", "proof", "no_verdict")


@dataclass
class Span:
    name: str
    op: Optional[int]
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


class Direct:
    """Untraced run: calls straight through."""

    overhead = 0.0

    def start_op(self, op: int) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self.overhead = 0.0            # seconds spent in the tracer itself
        self._stack: list[int] = []
        self._build: Optional[tuple[str, int]] = None   # latest model build in this op

    def start_op(self, op: int) -> None:
        self.op = op
        self._build = None

    def call(self, name, fn, *args, **kwargs):
        entered = time.perf_counter()
        span = Span(name, self.op, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        cpu0 = time.process_time()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            span.cpu = time.process_time() - cpu0
            self._stack.pop()
        self._annotate(span, args, result)
        self.overhead += (span.start - entered) + (time.perf_counter() - span.end)
        return result

    @contextlib.contextmanager
    def patched(self, module):
        """Route the planner's solver and model calls through this tracer."""
        originals = {attr: getattr(module, attr) for attr in PLANNER_CALLS}

        def wrapper(name, fn):
            return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

        for attr, name in PLANNER_CALLS.items():
            setattr(module, attr, wrapper(name, originals[attr]))
        try:
            yield self
        finally:
            for attr, fn in originals.items():
                setattr(module, attr, fn)

    def _annotate(self, span: Span, args, result) -> None:
        a = span.attrs
        if span.name in ("model.build_collision_tolerant", "model.build_collision_free"):
            self._build = (span.name, int(args[1]))
            a["tau"] = int(args[1])
            lp = _lp_of(result[0])
            a["rows"], a["cols"] = len(lp.constraints), lp.num_vars
        elif span.name == "model.with_effort_objective":
            a["rows"], a["cols"] = len(result.constraints), result.num_vars
        elif span.name.startswith("solver."):
            lp = _lp_of(args[0])
            free = self._build is not None and self._build[0] == "model.build_collision_free"
            a["tau"] = self._build[1] if self._build else None
            a["kind"] = classify(span.name, result, lp, free)
            a["pivots"] = int(result.iterations)
            a["nodes"] = int(getattr(result, "nodes_explored", 0))
            a["cells"] = len(lp.constraints) * (lp.num_vars + len(lp.constraints))
            a["status"] = result.status.value
        elif span.name == "oracle.brute_force_plan":
            a["lps"] = 2 ** (int(args[1]) + 1)
        elif span.name == "cli.write_trajectory_csv":
            a["bytes"] = os.path.getsize(args[1])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")


def _lp_of(problem):
    return getattr(problem, "base", problem)


def classify(name: str, result, lp, free_mode: bool) -> str:
    """Kind of one planner-side solve, judged from what it returned.

    A feasibility probe is a ``find_integer_feasible`` call: with values it
    is a witness, INFEASIBLE is a proof, and NODE_LIMIT without values is no
    verdict.  In free mode the probe is a ``solve_lp`` on the model's
    all-zero objective.  Every other solve belongs to the effort tie-break.
    """
    if name == "solver.find_integer_feasible":
        if result.values is not None:
            return "witness"
        return "proof" if result.status.value == "infeasible" else "no_verdict"
    if name == "solver.solve_lp" and free_mode and not any(lp.objective):
        return "lp_probe"
    return "effort"


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.wall - covered)
    return out


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer numbers of a traced run; counts and times are per op."""
    selfs = self_times(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(group, key):
        return float(sum(s.attrs.get(key, 0) for s in group))

    def wall(group):
        return sum(s.wall for s in group)

    out: dict[str, float] = {}
    milp = named(*MILP_SPANS)
    lp = named("solver.solve_lp")
    solver = milp + lp
    milp_nodes, milp_pivots = total(milp, "nodes"), total(milp, "pivots")
    pivots = milp_pivots + total(lp, "pivots")
    out.update({
        "solver.milp.calls": len(milp) / ops,
        "solver.milp.nodes": milp_nodes / ops,
        "solver.milp.pivots": milp_pivots / ops,
        "solver.milp.s": wall(milp) / ops,
        "solver.milp.pivots_per_node": _ratio(milp_pivots, milp_nodes),
        "solver.milp.ms_per_node": 1e3 * _ratio(wall(milp), milp_nodes),
        "solver.lp.calls": len(lp) / ops,
        "solver.lp.pivots": total(lp, "pivots") / ops,
        "solver.lp.s": wall(lp) / ops,
        "solver.us_per_pivot": 1e6 * _ratio(wall(solver), pivots),
        "solver.cpu_per_wall": _ratio(sum(s.cpu for s in solver), wall(solver)),
        "solver.tableau_cells_max": float(max((s.attrs["cells"] for s in solver), default=0)),
    })
    for kind in PROBE_KINDS + ("effort",):
        group = [s for s in solver if s.attrs["kind"] == kind]
        prefix = "planner.effort" if kind == "effort" else f"planner.probe.{kind}"
        out[f"{prefix}.calls"] = len(group) / ops
        out[f"{prefix}.nodes"] = total(group, "nodes") / ops
        out[f"{prefix}.pivots"] = total(group, "pivots") / ops
        out[f"{prefix}.s"] = wall(group) / ops
    lp_probes = [s for s in solver if s.attrs["kind"] == "lp_probe"]
    out["planner.probe.lp.calls"] = len(lp_probes) / ops
    out["planner.probe.lp.pivots"] = total(lp_probes, "pivots") / ops
    out["planner.probes"] = sum(
        1 for s in solver if s.attrs["kind"] != "effort") / ops
    entry = [i for i, s in enumerate(spans) if s.name in ENTRY_POINTS]
    out["planner.s"] = sum(spans[i].wall for i in entry) / ops
    out["planner.self_s"] = sum(selfs[i] for i in entry) / ops
    model = [s for s in spans if s.name.startswith("model.")]
    out["model.calls"] = len(model) / ops
    out["model.s"] = wall(model) / ops
    out["model.rows_max"] = float(max((s.attrs["rows"] for s in model), default=0))
    out["model.cols_max"] = float(max((s.attrs["cols"] for s in model), default=0))
    replay, brute = named("oracle.replay"), named("oracle.brute_force_plan")
    out["oracle.replay.calls"] = len(replay) / ops
    out["oracle.replay.s"] = wall(replay) / ops
    out["oracle.brute.calls"] = len(brute) / ops
    out["oracle.brute.lps"] = total(brute, "lps") / ops
    out["oracle.brute.s"] = wall(brute) / ops
    writes = named("cli.write_trajectory_csv")
    out["cli.load.s"] = wall(named("cli.load_scenario"))
    out["cli.write.s"] = wall(writes) / ops
    out["cli.write.bytes"] = total(writes, "bytes") / ops
    return out


def probe_records(spans: list[Span]) -> list[dict]:
    """One row per planner-side solve: op, horizon, kind, nodes, pivots."""
    return [{"op": s.op, "call": s.name.split(".", 1)[1], "tau": s.attrs["tau"],
             "kind": s.attrs["kind"], "status": s.attrs["status"],
             "nodes": s.attrs["nodes"], "pivots": s.attrs["pivots"],
             "s": round(s.wall, 4)}
            for s in spans if s.name.startswith("solver.")]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
