"""Alternating parent/change runs of one perfbench workload, summarised.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload cli_sweeps \\
        --pairs 10 --seed 700 --pr N

PARENT_DIR and CHANGE_DIR are source checkouts (each with its own
``perfbench/`` and ``src/``). Pair i runs ``python3 perfbench/run.py
--workload W --seed SEED+i --seconds T --trace 0`` once in each directory,
one after the other; the parent goes first in even pairs and the change in
odd ones, so a drift of the host's speed over a session favours neither
side. T is ``run_seconds`` of this checkout's ``BENCHMARK.json``, so both
sides run as long as the benchmark does. The benchmark itself is neither
changed nor imported.

Writes ``BENCH_<pr>.json`` at the root of this checkout: for every
end-to-end metric each side's runs, median and quartiles, and the number of
pairs in which the change was better, worse or tied; the seeds, which side
ran first in each pair, every run's correctness and operation counts, the
host, its CPU count and the Python and numpy versions. A run that exits
non-zero or prints no result stops the tool.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout: the JSON its run.py prints last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}")
    return json.loads(lines[-1])


def revision(checkout: Path) -> dict:
    """The checkout's git commit and whether its tracked files differ from it;
    nulls outside a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True).stdout.strip()

    commit = git("rev-parse", "--short", "HEAD")
    if not commit:
        return {"commit": None, "modified": None}
    return {"commit": commit, "modified": bool(git("status", "--porcelain", "--untracked-files=no"))}


def spread(values: list) -> dict:
    """Median and quartiles (statistics.quantiles' default method)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def summary(runs: dict, declared: list) -> dict:
    """Per end-to-end metric: each side's spread and the change's pair record."""
    metrics = {}
    for spec in declared:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        record = {"better": 0, "worse": 0, "tied": 0}
        for old, new in zip(values["parent"], values["change"]):
            key = "tied" if new == old else "better" if (new < old) == lower else "worse"
            record[key] += 1
        metrics[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                         **{side: spread(values[side]) for side in SIDES}, "change_pairs": record}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source checkout of the parent commit")
    parser.add_argument("change", type=Path, help="source checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = [args.seed + i for i in range(args.pairs)]
    runs = {side: [] for side in SIDES}
    first = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            result = run_once(checkouts[side], args.workload, seed, bench["run_seconds"])
            runs[side].append(result)
            log(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()))
    out = {
        "workload": args.workload,
        "seconds": bench["run_seconds"],
        "seeds": seeds,
        "first": first,
        "sides": {side: revision(checkouts[side]) for side in SIDES},
        "runs": {side: [{k: r[k] for k in ("correct", "attempted", "failed")} for r in runs[side]]
                 for side in SIDES},
        "metrics": summary(runs, bench["end_to_end"]),
        "host": platform.node(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    log(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
