"""The workload process: import the package, build inputs, say ready, run.

Started fresh by ``run.py`` for every set-up sample and for every measured
run. It writes one line ``ready`` to stdout when set-up is done; with
``--setup-only`` it then exits. Otherwise it runs whole passes until
``--seconds`` have elapsed and writes the program's outputs, the raw pass and
call timings, the speed probes, its peak RSS and, with ``--trace 1``, the
per-layer metrics to ``--out`` as JSON. It imports neither scipy nor mpmath:
the checks run in the parent, so they add nothing to this process's set-up
or memory.

For the workloads in ``PROBED`` a fixed pure-Python loop is timed once
before the first call and once after every call, outside the call's timing
and outside the pass wall time; ``run.py`` uses it to take the host's
changing speed out of the timings (see README, "Speed probe").

With tracing on, pass 1 is traced and every other pass is not; ``--trace 1``
therefore needs at least two passes and runs them whatever ``--seconds`` is.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

TRACED_PASS = 1
PROBE_LOOPS = 3000
# scalar-Python workloads, whose timings move with the interpreter's speed;
# cli_sweeps is numpy-bound and is not probed
PROBED = ("pep_curves", "union_bound")


def probe() -> float:
    """Seconds for a fixed pure-Python loop: the interpreter's current speed."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_LOOPS):
        acc += i * 0.5
    return time.perf_counter() - t0


class Calls:
    """Call durations, each followed by a speed probe when probing."""

    def __init__(self, probing: bool):
        self.probing = probing
        self.seconds = []
        self.probes = [probe()] if probing else []
        self.probe_total = sum(self.probes)

    def record(self, seconds: float) -> None:
        self.seconds.append(seconds)
        if self.probing:
            p = probe()
            self.probes.append(p)
            self.probe_total += p


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import inputs
    import workloads  # imports noma_ggn: set-up covers the package import

    plan_fn = inputs.PLANS[args.workload]
    run_fn, output_keys = workloads.RUNS[args.workload]
    plan = plan_fn(args.seed, 0)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    out = {key: [] for key in output_keys}
    calls, passes = Calls(args.workload in PROBED), []
    workdir = tempfile.mkdtemp(prefix="cli-", dir=os.path.dirname(args.out))
    min_passes = TRACED_PASS + 1 if tracer else 1
    try:
        start = time.perf_counter()
        k = 0
        while k < min_passes or time.perf_counter() - start < args.seconds:
            if k:
                plan = plan_fn(args.seed, k)
            traced = tracer is not None and k == TRACED_PASS
            if traced:
                tracer.install()
            first_call, probed = len(calls.seconds), calls.probe_total
            t0 = time.perf_counter()
            try:
                run_fn(plan, calls, out, workdir)
            finally:
                if traced:
                    tracer.uninstall()
            wall = time.perf_counter() - t0 - (calls.probe_total - probed)
            passes.append({"k": k, "wall_s": wall, "traced": traced,
                           "first_call": first_call, "calls": len(calls.seconds) - first_call})
            k += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"passes": passes, "calls_s": calls.seconds, "probes_s": calls.probes,
              "peak_rss_mb": rss_mb, **out}
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        result["missing"] = sorted(tracer.missing)
        tracer.write(os.path.splitext(args.out)[0] + ".spans.jsonl.gz")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
