"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload pep_curves --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The command starts fresh worker processes (``worker.py``) one after
another: several that only set up, for ``setup_s``, then the measured one. It
then checks the worker's outputs against the oracle (``checks.py``) and
prints, as the last line of stdout,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``; with ``--trace 1`` the per-layer metrics of a traced pass
and the raw (unscaled) times of the untraced passes. Details go to stderr,
the worker's outputs and spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("pep_curves", "union_bound", "cli_sweeps")
# fresh processes timed to "ready", half before and half after the measured
# one (which is timed too), so the median spans the run's changes in speed
SETUP_PROBES = 10
# percentile of call_tail_ms (nearest rank): the highest that repeats between
# runs on a shared host (README, "Tail percentiles"); cli_sweeps has too few
# calls for any tail and reports its slowest call
TAIL_PERCENTILE = {"pep_curves": 95.0, "union_bound": 98.0, "cli_sweeps": 100.0}
WORKER_TIMEOUT_S = 150.0
# Timings of the probed (scalar-Python) workloads are scaled to a fixed
# interpreter speed: seconds x PROBE_REF_S / (the speed probe's time next to
# them). On a shared host the probe's time moves by up to 1.75x over tens of
# seconds and pure-Python calls move with it; the Monte Carlo in cli_sweeps is
# numpy-bound and barely moves, so the worker does not probe it and its
# timings stay raw (README, "Speed probe").
PROBE_REF_S = 2.0e-4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("NOMA_GGN_WORKERS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args: list) -> tuple:
    """Start a worker and wait for its "ready" line: (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, setup


def finish(proc, timeout: float) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker still running after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


def probe_setup(base: list) -> float:
    proc, setup = start_worker(base + ["--setup-only"])
    finish(proc, 60.0)
    return setup


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def scaled(out: dict) -> tuple:
    """Call and pass times in seconds, scaled to the probe's reference speed
    when the worker probed: a call by the mean of the probes just before and
    after it, a pass by the median probe over its calls."""
    calls, probes = out["calls_s"], out["probes_s"]
    if not probes:
        return calls, [p["wall_s"] for p in out["passes"]]
    call_s = [c * PROBE_REF_S / (0.5 * (probes[i] + probes[i + 1])) for i, c in enumerate(calls)]
    walls = []
    for p in out["passes"]:
        around = probes[p["first_call"]: p["first_call"] + p["calls"] + 1]
        walls.append(p["wall_s"] * PROBE_REF_S / statistics.median(around))
    return call_s, walls


def times(out: dict, calls: list, walls: list, tail: float) -> tuple:
    """(median pass s, median call ms, tail call ms) over the untraced passes."""
    plain = [p for p in out["passes"] if not p["traced"]]
    calls_ms = [1e3 * c for p in plain for c in calls[p["first_call"]: p["first_call"] + p["calls"]]]
    return (statistics.median(walls[p["k"]] for p in plain), statistics.median(calls_ms),
            percentile(calls_ms, tail))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "noma_ggn" / "__init__.py").is_file():
        log(f"no package source at {SRC / 'noma_ggn'}: run from a source checkout")
        return 2

    OUT.mkdir(exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [probe_setup(base) for _ in range(SETUP_PROBES // 2)]
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    proc, setup = start_worker(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out_path)]
    )
    setups.append(setup)
    finish(proc, WORKER_TIMEOUT_S)
    setups += [probe_setup(base) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    with open(out_path, encoding="utf-8") as fh:
        out = json.load(fh)

    import checks  # scipy and mpmath load here, after the measured process

    attempted, failed, problems = checks.CHECKS[args.workload](out, args.seed)
    for msg in problems[:20]:
        log(f"CHECK FAILED: {msg}")
    if len(problems) > 20:
        log(f"... and {len(problems) - 20} more")
    calls, walls = scaled(out)
    tail = TAIL_PERCENTILE[args.workload]
    wall_s, p50_ms, tail_ms = times(out, calls, walls, tail)
    log(f"{args.workload} seed {args.seed}: {len(out['passes'])} passes, {len(calls)} calls, "
        f"{failed}/{attempted} failed per pass, {len(problems)} problems; raw pass walls "
        f"{[round(p['wall_s'], 3) for p in out['passes']]}, raw median call "
        f"{1e3 * statistics.median(out['calls_s']):.3f} ms")
    if args.trace:
        for name in out["missing"]:
            log(f"traced name missing: {name}")
        metrics = out["per_layer"]
        traced = next(w for w, p in zip(walls, out["passes"]) if p["traced"])
        metrics["trace.overhead_s"] = metric(traced - wall_s, "s")
        raw_wall_s, raw_p50_ms, raw_tail_ms = times(out, out["calls_s"], [p["wall_s"] for p in out["passes"]], tail)
        metrics["raw.wall_s"] = metric(raw_wall_s, "s")
        metrics["raw.call_p50_ms"] = metric(raw_p50_ms, "ms")
        metrics["raw.call_tail_ms"] = metric(raw_tail_ms, "ms")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(wall_s, "s"),
            "call_p50_ms": metric(p50_ms, "ms"),
            "call_tail_ms": metric(tail_ms, "ms"),
            "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
