"""Command-line front end.

Subcommands: ``plan`` (one mode, trajectory CSV plus a one-line JSON summary
on stdout), ``compare`` (all applicable modes, text report), ``sweep`` (goal
sensitivity CSV), and ``solve-lp`` (debug solver on a plain-text LP dump).

The horizon search bisects, or scans horizons one by one when the
scenario's terminal velocity is nonzero (``v_final != 0``); no flag selects
between the two.

Exit codes: 0 success, 2 invalid configuration or file, 3 infeasible or
horizon exhausted, 4 node limit.  Numeric file output uses fixed-point
formatting at nine significant digits, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from .errors import (ConfigError, CtplanError, HorizonExhausted,
                     NodeLimitReached, ParseError, PlannerError)
from .lpformat import parse_lp_dump
from .model import PlanningConfig, PlanningMode
from .planner import (TrajectoryPlan, compare_report, damage_constrained_search,
                      goal_sweep, min_time_search)
from .solver import (LpStatus, MilpProblem, MilpStatus, SolverOptions,
                     solve_lp, solve_milp)

#: Every ``PlanningConfig`` field, parsed as int when typed int or
#: Optional[int] and as float otherwise.
_CONFIG_KEYS = {
    name: int if hint in (int, Optional[int]) else float
    for name, hint in get_type_hints(PlanningConfig).items()
}
_RUN_KEYS = {
    "mode": str, "tau_max": int,
    "sweep_start": float, "sweep_end": float, "sweep_step": float,
    "out": str,
}
_REQUIRED = ("x_init", "x_g", "x_w", "dt", "a_max", "a_min", "v_max", "restitution")
_DEFAULTS = {"v_init": 0.0, "a_init": 0.0, "v_final": 0.0, "a_final": 0.0}
_MODES = {"free": PlanningMode.COLLISION_FREE, "tolerant": PlanningMode.COLLISION_TOLERANT,
          "damage": PlanningMode.COLLISION_TOLERANT}


def fmt9(value: float) -> str:
    """Fixed-point decimal with nine significant digits, no exponent."""
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalizes -0.0
    return np.format_float_positional(v, precision=9, unique=False,
                                      fractional=False, trim="-")


@dataclasses.dataclass
class Scenario:
    config: PlanningConfig
    mode: Optional[str] = None
    tau_max: Optional[int] = None
    sweep_start: Optional[float] = None
    sweep_end: Optional[float] = None
    sweep_step: Optional[float] = None
    out: Optional[str] = None


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    values = {}
    run = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in _CONFIG_KEYS:
            sink, caster = values, _CONFIG_KEYS[key]
        elif key in _RUN_KEYS:
            sink, caster = run, _RUN_KEYS[key]
        else:
            raise ParseError(f"{source}:{lineno}: unknown key {key!r}")
        if key in sink:
            raise ParseError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            sink[key] = caster(val)
        except ValueError:
            raise ParseError(f"{source}:{lineno}: bad value for {key}: {val!r}") from None
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ParseError(f"{source}: missing required keys: {', '.join(missing)}")
    for key, default in _DEFAULTS.items():
        values.setdefault(key, default)
    if "mode" in run and run["mode"] not in _MODES:
        raise ParseError(f"{source}: mode must be one of free|tolerant|damage")
    config = PlanningConfig(**values)
    config.validate()
    return Scenario(config=config, **run)


def load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from None
    return parse_scenario(text, source=path)


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------

def write_trajectory_csv(plan: TrajectoryPlan, path: str) -> None:
    lines = ["t,x,v,a,zeta,D"]
    for t in range(plan.tau + 1):
        lines.append(",".join([
            fmt9(t * plan.dt), fmt9(plan.x[t]), fmt9(plan.v[t]), fmt9(plan.a[t]),
            str(int(plan.zeta[t])), fmt9(plan.damage[t]),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory_csv(path: str):
    """Parse a trajectory CSV back into per-column float arrays."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != "t,x,v,a,zeta,D":
        raise ParseError(f"{path}: not a trajectory CSV")
    cols = [[], [], [], [], [], []]
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 6:
            raise ParseError(f"{path}: malformed row {line!r}")
        for col, part in zip(cols, parts):
            col.append(float(part))
    return tuple(np.asarray(c) for c in cols)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _resolved_mode(args, scenario) -> str:
    mode = args.mode or scenario.mode or "free"
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    return mode


def _apply_overrides(config: PlanningConfig, args) -> PlanningConfig:
    updates = {}
    if getattr(args, "dt", None) is not None:
        updates["dt"] = args.dt
    if getattr(args, "dmax", None) is not None:
        updates["d_max"] = args.dmax
    if updates:
        config = dataclasses.replace(config, **updates)
        config.validate()
    return config


def _run_one(mode: str, config: PlanningConfig, tau_max) -> TrajectoryPlan:
    if mode == "damage":
        if config.d_max is None:
            raise ConfigError("damage mode requires d_max (set it in the scenario "
                              "file or pass --dmax)")
        return damage_constrained_search(config, tau_max)
    run_config = dataclasses.replace(config, d_max=None, d_total_max=None) \
        if mode in ("free", "tolerant") else config
    return min_time_search(run_config, _MODES[mode], tau_max)


def _summary(plan: TrajectoryPlan, mode: str, out: str) -> dict:
    return {
        "mode": mode,
        "tau": plan.tau,
        "min_time": plan.min_time,
        "collided": plan.collided,
        "max_impact_speed": plan.max_impact_speed,
        "damage_total": plan.damage_total,
        "out": out,
    }


def cmd_plan(args) -> int:
    scenario = load_scenario(args.config)
    config = _apply_overrides(scenario.config, args)
    mode = _resolved_mode(args, scenario)
    tau_max = args.tau_max if args.tau_max is not None else scenario.tau_max
    plan = _run_one(mode, config, tau_max)
    out = args.out or scenario.out or "trajectory.csv"
    write_trajectory_csv(plan, out)
    record = {"command": "plan"}
    record.update(_summary(plan, mode, out))
    print(json.dumps(record, sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    scenario = load_scenario(args.config)
    config = _apply_overrides(scenario.config, args)
    tau_max = args.tau_max if args.tau_max is not None else scenario.tau_max
    variants = ["free", "tolerant"] + (["damage"] if config.d_max is not None else [])
    labels = {"free": "collision-free", "tolerant": "collision-tolerant",
              "damage": "damage-limited"}

    plans = {}
    errors = {}
    exit_code = 0
    for mode in variants:
        try:
            plans[mode] = _run_one(mode, config, tau_max)
        except NodeLimitReached as exc:
            errors[mode] = str(exc)
            exit_code = exit_code or 4
        except (PlannerError, ConfigError) as exc:
            errors[mode] = str(exc)
            exit_code = exit_code or 3

    out = args.out or scenario.out or "report.txt"
    lines = [
        "minimum-time comparison",
        f"scenario: {args.config}",
        "",
        f"{'variant':<24}{'time [s]':>12}{'collided':>10}"
        f"{'impact [m/s]':>14}{'D_total':>12}{'faster [%]':>12}",
    ]
    record_entries = []
    if "free" in plans:
        ordered = [m for m in variants if m in plans]
        report = compare_report([plans[m] for m in ordered], labels["free"],
                                labels=[labels[m] for m in ordered])
        for entry in report.entries:
            pct = "baseline" if entry.improvement_pct is None else fmt9(entry.improvement_pct)
            lines.append(
                f"{entry.label:<24}{fmt9(entry.min_time):>12}"
                f"{str(entry.collided).lower():>10}{fmt9(entry.max_impact_speed):>14}"
                f"{fmt9(entry.damage_total):>12}{pct:>12}")
            record_entries.append(dataclasses.asdict(entry))
    for mode in variants:
        if mode in errors:
            lines.append(f"{labels[mode]:<24}failed: {errors[mode]}")
    Path(out).write_text("\n".join(lines) + "\n")

    record = {"command": "compare", "entries": record_entries,
              "errors": {labels[m]: msg for m, msg in errors.items()}, "out": out}
    print(json.dumps(record, sort_keys=True))
    return exit_code


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.config)
    config = _apply_overrides(scenario.config, args)
    start = args.start if args.start is not None else scenario.sweep_start
    end = args.end if args.end is not None else scenario.sweep_end
    dx = args.dx if args.dx is not None else scenario.sweep_step
    if start is None or end is None or dx is None:
        raise ConfigError("sweep needs --start, --end, and --dx (or sweep_* "
                          "keys in the scenario file)")
    tau_max = args.tau_max if args.tau_max is not None else scenario.tau_max
    result = goal_sweep(config, start, end, dx, tau_max)

    out = args.out or scenario.out or "sweep.csv"
    lines = ["x_g,min_time,collided"]
    for p in result.points:
        if p.error is not None:
            lines.append(f"{fmt9(p.x_g)},,")
        else:
            lines.append(f"{fmt9(p.x_g)},{fmt9(p.min_time)},{1 if p.collided else 0}")
    Path(out).write_text("\n".join(lines) + "\n")

    n_fail = sum(1 for p in result.points if p.error is not None)
    record = {"command": "sweep", "points": len(result.points),
              "collisions": sum(1 for p in result.points if p.collided),
              "failures": n_fail, "out": out}
    print(json.dumps(record, sort_keys=True))
    return 0


def cmd_solve_lp(args) -> int:
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read LP dump {args.input}: {exc}") from None
    parsed = parse_lp_dump(text)
    opts = SolverOptions()
    if parsed.binaries:
        sol = solve_milp(MilpProblem.build(parsed.problem, parsed.binaries), opts)
        record = {"command": "solve-lp", "status": sol.status.value,
                  "objective": sol.objective, "nodes": sol.nodes_explored,
                  "values": None if sol.values is None else [float(v) for v in sol.values]}
        print(json.dumps(record, sort_keys=True))
        if sol.status == MilpStatus.OPTIMAL:
            return 0
        return 4 if sol.status == MilpStatus.NODE_LIMIT else 3
    sol = solve_lp(parsed.problem, opts)
    record = {"command": "solve-lp", "status": sol.status.value,
              "objective": sol.objective, "iterations": sol.iterations,
              "values": None if sol.values is None else [float(v) for v in sol.values]}
    print(json.dumps(record, sort_keys=True))
    return 0 if sol.status == LpStatus.OPTIMAL else 3


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctplan",
        description="Minimum-time trajectory planning with optional planned "
                    "wall contact.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario file path")
        p.add_argument("--dt", type=float, help="override the time step [s]")
        p.add_argument("--dmax", type=float, help="override the per-impact damage cap [m/s]")
        p.add_argument("--out", help="output file path")
        p.add_argument("--tau-max", type=int, dest="tau_max",
                       help="horizon search upper limit [steps]")

    p_plan = sub.add_parser("plan", help="solve one planning mode")
    common(p_plan)
    p_plan.add_argument("--mode", choices=sorted(_MODES), help="planning mode")
    p_plan.set_defaults(func=cmd_plan)

    p_cmp = sub.add_parser("compare", help="run all applicable modes and tabulate")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="sweep the goal position")
    common(p_sweep)
    p_sweep.add_argument("--start", type=float, help="first goal position [m]")
    p_sweep.add_argument("--end", type=float, help="last goal position [m]")
    p_sweep.add_argument("--dx", type=float, help="goal increment [m]")
    p_sweep.set_defaults(func=cmd_sweep)

    p_lp = sub.add_parser("solve-lp", help="solve a plain-text LP/MILP dump")
    p_lp.add_argument("--input", required=True, help="LP dump file path")
    p_lp.set_defaults(func=cmd_solve_lp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HorizonExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NodeLimitReached as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CtplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
