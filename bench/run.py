"""ctplan benchmark: time the public planner entry points and check their plans.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-tolerant --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (environment, seed, scenarios, checks, CSV hashes), which is also
written with the spans to ``bench/out/``.  The exit code is 1 when any
output check fails.  The benchmark sets no BLAS/OMP thread variable: it
measures what a user of ``ctplan plan`` gets.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_SAMPLES = 9
REPLAY_TOL = 1e-6
EFFORT_TOL = 1e-6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS", "BLIS_NUM_THREADS")


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile), or None below eleven samples, where no
    such percentile exists.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return ordered[n - 11], 100.0 * (n - 10) / n


def failures(ops) -> int:
    """Ops that raised, hit a node limit or failed a check (once each)."""
    return sum(1 for op in ops if op["errors"])


def blas_record():
    """OpenBLAS builds bundled with numpy and scipy, and their thread counts."""
    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            info = {}
            for key, stem, restype in (("threads", "get_num_threads", ctypes.c_int),
                                       ("config", "get_config", ctypes.c_char_p)):
                for sym in (f"openblas_{stem}", f"openblas_{stem}64_",
                            f"scipy_openblas_{stem}", f"scipy_openblas_{stem}64_"):
                    fn = getattr(lib, sym, None)
                    if fn is not None:
                        fn.restype = restype
                        value = fn()
                        info[key] = value.decode() if isinstance(value, bytes) else value
                        break
            out[f"{pkg.__name__}:{path.name}"] = info
    return out


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_record(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "thread_note": "the benchmark leaves BLAS/OMP thread variables unset; "
                       "thread_env lists any the caller set",
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh interpreter: import ctplan and set the workload up, to the first solve."""
    script = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
              f"import workloads; workloads.load({workload!r}, {seed}); "
              f"print('ready', flush=True)")
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", script], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                samples.append(time.perf_counter() - start)
                status = child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                raise
        if status != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child failed with exit code {status}")
    return samples


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def timed_loop(workload, tracer, seconds):
    """Closed loop over whole blocks of ops.

    Another block starts only while the mean block time so far says it
    ends within ``seconds``; the first block always runs.
    """
    ops = []
    start = time.perf_counter()
    blocks = 0
    while True:
        for _ in range(workload.block):
            index = len(ops)
            reqs = workload.op(index)
            tracer.start_op(index)
            overhead0 = tracer.overhead
            t0 = time.perf_counter()
            plans, errors = [], []
            for req in reqs:
                try:
                    plans.append(req.run(tracer.call))
                except Exception:  # any failure of the program counts against the op
                    plans.append(None)
                    errors.append(f"{req.label}: {traceback.format_exc(limit=3)}")
            ops.append({"index": index, "wall": time.perf_counter() - t0, "reqs": reqs,
                        "plans": plans, "errors": errors,
                        "overhead": tracer.overhead - overhead0})
        blocks += 1
        elapsed = time.perf_counter() - start
        if elapsed * (blocks + 1) / blocks > seconds:
            return ops, elapsed


def check_ops(ops, tracer, tag):
    """Untimed output checks; appends failures to each op's errors."""
    from workloads import BRUTE_MAX_TAU
    hashes = {}
    for op in ops:
        tracer.start_op(op["index"])
        op["brute"] = []
        for req, plan in zip(op["reqs"], op["plans"]):
            if plan is None:
                continue
            brute = req.brute_check and 1 <= plan.tau <= BRUTE_MAX_TAU
            try:
                op["errors"] += check_plan(req, plan, brute, tracer.call, tag, hashes)
            except Exception:  # a check that raises fails the op
                op["errors"].append(f"{req.label}: {traceback.format_exc(limit=3)}")
            if brute:
                op["brute"].append(plan.tau)
    return {label: sorted(h) for label, h in hashes.items()}


def check_plan(req, plan, brute, call, tag, hashes) -> list[str]:
    from ctplan.cli import write_trajectory_csv
    from ctplan.oracle import brute_force_plan, replay
    errs = []
    if req.expect_tau is not None and plan.tau != req.expect_tau:
        errs.append(f"{req.label}: horizon {plan.tau}, expected {req.expect_tau}")
    result = call("oracle.replay", replay, plan, req.config, REPLAY_TOL)
    if not result.passed:
        errs.append(f"{req.label}: replay worst violation {result.worst():.3g}")
    if req.hash_csv:
        path = OUT / f"{tag}-{req.label}.csv"
        call("cli.write_trajectory_csv", write_trajectory_csv, plan, str(path))
        hashes.setdefault(req.label, set()).add(hashlib.sha256(path.read_bytes()).hexdigest())
    if brute:
        effort = float(sum(abs(a) for a in plan.a))
        at = call("oracle.brute_force_plan", brute_force_plan, req.config, plan.tau)
        below = call("oracle.brute_force_plan", brute_force_plan, req.config, plan.tau - 1)
        if not at.feasible or abs(at.objective - effort) > EFFORT_TOL:
            errs.append(f"{req.label}: brute force at {plan.tau} gives {at.objective}, "
                        f"plan effort {effort}")
        if below.feasible:
            errs.append(f"{req.label}: brute force finds a plan at {plan.tau - 1}")
    return errs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ctplan" / "__init__.py").is_file():
        print(f"error: no ctplan sources under {SRC}; run from a ctplan checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    from ctplan import planner
    from ctplan.cli import load_scenario
    from spans import Direct, Tracer, layer_metrics, probe_records
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = environment()
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    tracer = Tracer() if args.trace else Direct()
    workload = workloads.load(
        args.workload, args.seed,
        loader=lambda path: tracer.call("cli.load_scenario", load_scenario, path))
    with tracer.patched(planner) if args.trace else contextlib.nullcontext():
        ops, elapsed = timed_loop(workload, tracer, args.seconds)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    hashes = check_ops(ops, tracer, tag)

    walls = [op["wall"] for op in ops]
    tail_value, tail_pct = tail(walls) or (None, None)
    failed = failures(ops)
    if args.trace:
        metrics = layer_metrics(tracer.spans, len(ops))
        overhead = sum(op["overhead"] for op in ops)
        metrics["trace.plan_s"] = statistics.median(walls)
        metrics["trace.overhead_ratio"] = overhead / (sum(walls) - overhead)
    else:
        plans = sum(1 for op in ops for p in op["plans"] if p is not None)
        metrics = {
            "setup_s": statistics.median(setup),
            "plan_s": statistics.median(walls),
            "plans_per_s": plans / elapsed,
            "ok_ratio": 1.0 - failed / len(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = declared_metrics(args.trace)
    if set(declared) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(declared) ^ set(metrics))}")

    env["loadavg_end"] = os.getloadavg()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "validation_seed": workloads.VALIDATION_SEED,
        "seconds": args.seconds, "timed_s": elapsed, "environment": env,
        "setup_samples_s": setup,
        "plan_s_tail": {"value": tail_value, "percentile": tail_pct, "samples": len(walls)},
        "failed_ratio": failed / len(ops),
        "csv_sha256": hashes,
        "ops": [{"index": op["index"], "wall": op["wall"],
                 "plans": [{"label": r.label, "tau": p.tau if p else None}
                           for r, p in zip(op["reqs"], op["plans"])],
                 "brute_checked": op["brute"], "errors": op["errors"]}
                for op in ops],
        "scenarios": {r.label: dataclasses.asdict(r.config) for op in ops for r in op["reqs"]},
    }
    if args.trace:
        record["probes"] = probe_records(tracer.spans)
        if workload.seed_solves is not None:
            record["seed_solves_reproduced"] = [
                tuple((p["call"], p["tau"], p["kind"], p["nodes"], p["pivots"])
                      for p in record["probes"] if p["op"] == op["index"])
                == workload.seed_solves for op in ops]
        tracer.dump(OUT / f"{tag}.spans.jsonl")
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=list))

    brief = {k: v for k, v in record.items() if k not in ("ops", "probes")}
    print(json.dumps(brief, default=list))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {declared[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
