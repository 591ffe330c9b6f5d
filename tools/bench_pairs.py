"""Alternating parent/change runs of perfbench workloads, summarised.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload union_bound \\
        --workload pep_curves --pairs 10 --seed 700 --pr N

PARENT_DIR and CHANGE_DIR are source checkouts (each with its own
``perfbench/`` and ``src/``). ``--workload`` is given once per workload,
and the workloads run one after the other on the same seeds. For each, pair
i runs ``python3 perfbench/run.py --workload W --seed SEED+i --seconds T
--trace 0`` once in each directory, one after the other; the parent goes
first in even pairs and the change in odd ones, so a drift of the host's
speed over a session favours neither side. T is ``run_seconds`` of this
checkout's ``BENCHMARK.json``, so both sides run as long as the benchmark
does. The benchmark itself is neither changed nor imported.

Writes one ``BENCH_<pr>.json`` at the root of this checkout. Under
``workloads``, for each workload: every end-to-end metric's runs, median
and quartiles on each side, the number of pairs in which the change was
better, worse or tied, and whether the change's median held the metric's
bound; every run's correctness and operation counts; every run's pass
count under ``passes``, read from the summary line ``...: N passes, ...``
that run.py prints to stderr (null where that line is missing), against
which a ``peak_rss_mb`` that grows with the passes of a faster change can
be read; and, from one more run of each side with ``--trace 1`` at the
first pair's seed, both sides' per-layer metrics (``raw.*`` included)
under ``traced``. Beside it: the
seeds, which side ran first in each pair, each side's git commit (where it
is a work tree) and a SHA-256 of its ``src/`` and ``perfbench/`` files, the
host, its CPU count and the Python and numpy versions. Each run's stderr
is captured and forwarded to this tool's stderr once the run ends. Last it
prints one verdict line per workload and end-to-end metric to stderr.

The tool stops on any run the benchmark would refuse: one that leaves a
process running (each run starts in a session of its own, whose processes
are listed from ``/proc`` once the run has exited), exits non-zero, prints
no result, or whose last line is not strict JSON (no ``NaN`` or
``Infinity``) with a finite number for every metric value (a traced name
that no longer resolves reads ``null``); one that reports ``correct:
false``; and a pair whose sides attempted or failed a different number of
operations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def parse_result(stdout: str) -> dict:
    """The result run.py prints as its last line, parsed strictly: ValueError
    unless it is one JSON object with a boolean correct, integer attempted
    and failed, and metrics that map each name to a finite number value."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    if not isinstance(result, dict) or not isinstance(result.get("correct"), bool):
        raise ValueError(f"last line is not a result: {lines[-1][:200]!r}")
    for key in ("attempted", "failed"):
        if type(result.get(key)) is not int:
            raise ValueError(f"{key} is not an integer: {result.get(key)!r}")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("no metrics")
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: {value!r}")
    return result


# run.py's summary line: "<workload> seed <seed>: <N> passes, <M> calls, ..."
_PASSES = re.compile(r": (\d+) passes, ")


def pass_count(stderr: str) -> int | None:
    """The pass count of the last summary line in a run's stderr, or None
    where it has none."""
    found = _PASSES.findall(stderr)
    return int(found[-1]) if found else None


def session_processes(session: int) -> list:
    """Pids of the processes of a session that have not exited (zombies
    left out), read from /proc."""
    if not Path("/proc/self/stat").is_file():
        raise SystemExit("no /proc: cannot list the processes a run left behind")
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text(encoding="utf-8", errors="replace")
        except OSError:  # the process exited since the listing
            continue
        # after the parenthesised command name: state, ppid, pgrp, session
        state, _, _, sid = text[text.rindex(")") + 2:].split()[:4]
        if state != "Z" and int(sid) == session:
            pids.append(int(stat.parent.name))
    return sorted(pids)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run in checkout: its strictly parsed, correct result,
    with its pass_count under "passes"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # files, not pipes: a process the run leaves behind may hold its output
    # open, and reading a pipe to its end would wait for that process
    with tempfile.TemporaryFile("w+", encoding="utf-8") as out, \
            tempfile.TemporaryFile("w+", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, cwd=checkout, stdout=out, stderr=err,
                                start_new_session=True)
        proc.wait()
        left = session_processes(proc.pid)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    sys.stderr.write(stderr)
    sys.stderr.flush()
    where = f"{' '.join(cmd)} in {checkout}"
    if left:
        raise SystemExit(f"{where} left processes running: {left}")
    if proc.returncode != 0:
        raise SystemExit(f"{where} exited {proc.returncode}")
    try:
        result = parse_result(stdout)
    except ValueError as exc:
        raise SystemExit(f"{where}: {exc}")
    if not result["correct"]:
        raise SystemExit(f"{where}: correct is false")
    result["passes"] = pass_count(stderr)
    return result


def check_counts(parent: dict, change: dict) -> None:
    """ValueError if the two sides attempted or failed different counts."""
    for key in ("attempted", "failed"):
        if parent[key] != change[key]:
            raise ValueError(f"{key} differs: parent {parent[key]}, change {change[key]}")


def source_digest(checkout: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of the files under the
    checkout's src/ and perfbench/, skipping __pycache__/ and perfbench/out/:
    what the side ran, also where it is not a git work tree."""
    files = sorted(
        path.relative_to(checkout).as_posix()
        for top in ("src", "perfbench")
        for path in (checkout / top).rglob("*")
        if path.is_file()
    )
    digest = hashlib.sha256()
    for rel in files:
        if "__pycache__" not in rel.split("/") and not rel.startswith("perfbench/out/"):
            data = (checkout / rel).read_bytes()
            digest.update(f"{rel}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


def revision(checkout: Path) -> dict:
    """The checkout's git commit and whether its tracked files differ from it
    (nulls outside a git work tree), and its source_digest."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True).stdout.strip()

    commit = git("rev-parse", "--short", "HEAD")
    modified = bool(git("status", "--porcelain", "--untracked-files=no")) if commit else None
    return {"commit": commit or None, "modified": modified, "source_sha256": source_digest(checkout)}


def spread(values: list) -> dict:
    """Median and quartiles (statistics.quantiles' default method)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def within_bound(parent: float, change: float, bound: float, better: str) -> bool:
    """Whether the change's median is worse than the parent's by no more than
    bound times the parent's, worse meaning higher where lower is better and
    lower where higher is."""
    worse = change - parent if better == "lower" else parent - change
    return worse <= bound * parent


def verdict(name: str, entry: dict) -> str:
    """One line on whether a summary entry's metric held its bound."""
    parent, change = entry["parent"]["median"], entry["change"]["median"]
    move = f"{100.0 * (change / parent - 1.0):+.1f} %" if parent else "n/a"
    held = "held" if entry["within_bound"] else "NOT held"
    return (f"{name}: median {parent:.4g} -> {change:.4g} {entry['unit']} ({move}, "
            f"{entry['better']} is better): bound {100.0 * entry['bound']:g} % {held}")


def summary(runs: dict, declared: list) -> dict:
    """Per end-to-end metric: each side's spread, the change's pair record
    and whether the change's median held the bound."""
    metrics = {}
    for spec in declared:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        record = {"better": 0, "worse": 0, "tied": 0}
        for old, new in zip(values["parent"], values["change"]):
            key = "tied" if new == old else "better" if (new < old) == lower else "worse"
            record[key] += 1
        sides = {side: spread(values[side]) for side in SIDES}
        held = within_bound(sides["parent"]["median"], sides["change"]["median"], spec["bound"],
                            spec["better"])
        metrics[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                         **sides, "change_pairs": record, "within_bound": held}
    return metrics


def side_by_side(results: dict) -> dict:
    """Per metric of either side's result: its unit and each side's value
    (None on the side that lacks it)."""
    table = {}
    for side in SIDES:
        for name, entry in results[side]["metrics"].items():
            table.setdefault(name, {"unit": entry["unit"], **dict.fromkeys(SIDES)})[side] = entry["value"]
    return table


def bench_workload(run, checkouts: dict, workload: str, seeds: list, bench: dict) -> dict:
    """One workload's alternating pairs and traced runs, summarised; run is
    run_once or a stand-in with its signature."""
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result = run(checkouts[side], workload, seed, bench["run_seconds"])
            runs[side].append(result)
            log(f"{workload} pair {i + 1}/{len(seeds)} seed {seed} {side}: "
                + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()))
        try:
            check_counts(runs["parent"][-1], runs["change"][-1])
        except ValueError as exc:
            raise SystemExit(f"{workload} pair {i + 1} seed {seed}: {exc}")
    traced = {side: run(checkouts[side], workload, seeds[0], bench["run_seconds"], 1)
              for side in SIDES}
    try:
        check_counts(traced["parent"], traced["change"])
    except ValueError as exc:
        raise SystemExit(f"{workload} traced runs seed {seeds[0]}: {exc}")
    return {
        "runs": {side: [{k: r[k] for k in ("correct", "attempted", "failed")} for r in runs[side]]
                 for side in SIDES},
        "passes": {side: [r.get("passes") for r in runs[side]] for side in SIDES},
        "metrics": summary(runs, bench["end_to_end"]),
        "traced": {"seed": seeds[0], "metrics": side_by_side(traced)},
    }


def collect(run, checkouts: dict, workloads: list, seeds: list, bench: dict) -> dict:
    """What BENCH_<pr>.json holds: every workload's bench_workload, one after
    the other on the same seeds, and what the runs ran on."""
    return {
        "seconds": bench["run_seconds"],
        "seeds": seeds,
        "first": [SIDES[i % 2] for i in range(len(seeds))],
        "sides": {side: revision(checkouts[side]) for side in SIDES},
        "workloads": {w: bench_workload(run, checkouts, w, seeds, bench) for w in workloads},
        "host": platform.node(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def parse_args(argv, bench: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source checkout of the parent commit")
    parser.add_argument("change", type=Path, help="source checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload to pair; give it once per workload")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    known = {w["name"] for w in bench["workloads"]}
    for workload in args.workload:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}")
    if len(set(args.workload)) != len(args.workload):
        parser.error("a workload is given more than once")
    return args


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, bench)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = [args.seed + i for i in range(args.pairs)]
    out = collect(run_once, checkouts, args.workload, seeds, bench)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    log(f"wrote {path}")
    for workload, entry in out["workloads"].items():
        for name, metric in entry["metrics"].items():
            log(f"{workload} " + verdict(name, metric))
    return 0


if __name__ == "__main__":
    sys.exit(main())
