"""Checks of the program's outputs against the oracle and the method's laws.

Each ``check_*`` returns ``(attempted, failed, problems)``: ``failed`` counts
operations that missed the oracle in the one way the benchmark keeps as a
known fault (pep_closed_form at the top SNRs); ``problems`` lists every other
mismatch, and any problem makes the run incorrect. ``attempted`` and
``failed`` are the counts of one pass: every pass is checked, must give the
counts of pass 0, and so the reported counts do not depend on how many
passes a run fits into its seconds.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter

import numpy as np
from scipy import stats

import inputs
import oracle

PEP_TOL = 1e-8  # pep_exact, pep_direct and union_bound against the oracle
CLOSED_TOL = 1e-6  # pep_closed_form against the oracle
ORACLE_TOL = 1e-10  # double-precision oracle against the mpmath oracle
SLOPE_TOL = 1e-4  # a diversity slope against the oracle's slope
SLOPE_WINDOW = 0.25  # |slope - user index| at the top window
MC_SIGNIFICANCE = 1e-9  # chance that a correct simulator fails one comparison
MP_SAMPLES = 2  # mpmath points per run

CSV_HEADER = "snr_db,user,metric,alpha,value,ci_low,ci_high"
CLI_METRICS = {"pep": ("pep_analytic", "pep_mc"), "ber": ("ber_union", "ber_sim"), "diversity": ("diversity_slope",)}


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def pep_mismatch(what: str, value: float, ref: float, tol: float = PEP_TOL):
    if not (0.0 < value <= 1.0):
        return f"{what}: {value!r} outside (0, 1]"
    if not rel_err(value, ref) <= tol:
        return f"{what}: {value!r} vs oracle {ref!r} (rel {rel_err(value, ref):.2e} > {tol:g})"
    return None


def closed_form_fails(value: float, ref: float) -> bool:
    return not (value > 0.0 and rel_err(value, ref) <= CLOSED_TOL)


def slope_mismatch(what: str, slope: float, ref_slope: float, l: int):
    if not abs(slope - ref_slope) <= SLOPE_TOL:
        return f"{what}: slope {slope!r} vs oracle {ref_slope!r}"
    if not abs(slope - l) <= SLOPE_WINDOW:
        return f"{what}: slope {slope!r} not within {SLOPE_WINDOW} of {l}"
    return None


def binomial_mismatch(what: str, errors: int, trials: int, p: float, side: str):
    """Reject when the count is that unlikely under a correct simulator:
    ``side`` "both" tests equality, "upper" tests count <= trials * p."""
    low = stats.binom.cdf(errors, trials, p)
    high = stats.binom.sf(errors - 1, trials, p)
    if high < MC_SIGNIFICANCE or (side == "both" and low < MC_SIGNIFICANCE):
        return f"{what}: {errors}/{trials} errors vs p={p!r} (tails {low:.1e}, {high:.1e})"
    return None


def one_pass(passes: int, attempted: Counter, failed: Counter, problems: list):
    """Pass 0's counts, after checking that every other pass made as many
    operations and failed as many."""
    for k in range(1, passes):
        if (attempted[k], failed[k]) != (attempted[0], failed[0]):
            problems.append(f"pass {k}: {failed[k]} of {attempted[k]} operations failed, "
                            f"pass 0: {failed[0]} of {attempted[0]}")
    return attempted[0], failed[0], problems


def mp_sample(rng: np.random.Generator, events: list, n: int = MP_SAMPLES) -> list:
    """Compare the double-precision oracle with mpmath, and the program's value
    where given, on n seeded picks of (label, Event, alpha, value or None)."""
    problems = []
    for i in rng.choice(len(events), size=min(n, len(events)), replace=False):
        label, ev, alpha, value = events[i]
        ref = oracle.pep_mp(ev, alpha)
        fast = oracle.pep_fast(ev, alpha)
        if not rel_err(fast, ref) <= ORACLE_TOL:
            problems.append(f"{label}: fast oracle {fast!r} vs mpmath {ref!r}")
        if value is not None:
            msg = pep_mismatch(f"{label} vs mpmath", value, ref)
            if msg:
                problems.append(msg)
    return problems


# --- pep_curves ------------------------------------------------------------


def _splits(workload: str, seed: int, passes: int) -> dict:
    plans = (inputs.PLANS[workload](seed, k) for k in range(passes))
    return {(p["k"], s): split for p in plans for s, split in enumerate(p["splits"])}


def check_pep_curves(out: dict, seed: int):
    splits = _splits("pep_curves", seed, len(out["passes"]))
    problems, failed, attempted = [], Counter(), Counter()
    curves, refs, sample = {}, {}, []
    for k, s, alpha, db, l, exact, direct, closed in out["points"]:
        split = splits[(k, s)]
        ev = oracle.canonical(split, oracle.db_to_linear(db), l)
        ref = oracle.pep_fast(ev, alpha)
        label = f"pass {k} split {split} alpha={alpha} {db:.3f} dB user {l}"
        for route, value in (("pep_exact", exact), ("pep_direct", direct)):
            attempted[k] += 1
            msg = pep_mismatch(f"{label} {route}", value, ref)
            if msg:
                problems.append(msg)
        if closed is not None:
            attempted[k] += 1
            failed[k] += closed_form_fails(closed, ref)
        curves.setdefault((k, s, alpha, l), []).append((db, exact, direct))
        refs[(k, s, alpha, l, db)] = ref
        if k == 0:
            sample.append((label, ev, alpha, exact))
    for key, pts in curves.items():
        for col, route in ((1, "pep_exact"), (2, "pep_direct")):
            values = [p[col] for p in sorted(pts)]
            if any(b >= a for a, b in zip(values, values[1:])):
                problems.append(f"{route} curve {key} not decreasing in SNR")
    for k, s, alpha, l, lo, hi, slope in out["slopes"]:
        attempted[k] += 1
        ref = oracle.diversity_slope(refs[(k, s, alpha, l, lo)], refs[(k, s, alpha, l, hi)], lo, hi)
        msg = slope_mismatch(f"pass {k} split {s} alpha={alpha} user {l}", slope, ref, l)
        if msg:
            problems.append(msg)
    problems += mp_sample(np.random.default_rng(seed), sample)
    return one_pass(len(out["passes"]), attempted, failed, problems)


# --- union_bound -----------------------------------------------------------


def check_union_bound(out: dict, seed: int):
    splits = _splits("union_bound", seed, len(out["passes"]))
    problems, sample = [], []
    for k, s, alpha, db, l, p_ub, pairs in out["bounds"]:
        split, gamma_bar = splits[(k, s)], oracle.db_to_linear(db)
        label = f"pass {k} split {split} alpha={alpha} {db:.3f} dB user {l}"
        ref, ref_pairs = oracle.union_bound(split, gamma_bar, l, alpha)
        msg = pep_mismatch(f"{label} union_bound", p_ub, ref)
        if msg:
            problems.append(msg)
        if [(x, xc, e) for x, xc, e, _ in pairs] != [(x, xc, e) for x, xc, e, _ in ref_pairs]:
            problems.append(f"{label}: symbol pairs {pairs} vs oracle {ref_pairs}")
        else:
            for (x, xc, _, prob), (_, _, _, ref_prob) in zip(pairs, ref_pairs):
                msg = pep_mismatch(f"{label} pair {x}->{xc}", prob, ref_prob)
                if msg:
                    problems.append(msg)
        if k == 0:
            for _, _, _, ev in oracle.error_events(split, gamma_bar, l):
                sample.append((f"{label} event {ev}", ev, alpha, None))
    # one destructive and one constructive event
    rng = np.random.default_rng(seed)
    for mu in (0, 1):
        problems += mp_sample(rng, [e for e in sample if e[1].mu == mu], n=1)
    attempted = Counter(row[0] for row in out["bounds"])
    return one_pass(len(out["passes"]), attempted, Counter(), problems)


# --- cli_sweeps ------------------------------------------------------------


def _grid(spec: str) -> list:
    """The SNR points the CLI derives from start:step:stop."""
    start, step, stop = (float(v) for v in spec.split(":"))
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(n)]


def check_cli_sweeps(out: dict, seed: int):
    problems, sample = [], []
    a, alpha, trials = inputs.REFERENCE_SPLIT, 2.0, inputs.CLI_TRIALS
    for k, sub, code, text in out["sweeps"]:
        label = f"pass {k} {sub}"
        if code != 0:
            problems.append(f"{label}: exit code {code}")
            continue
        lines = text.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            problems.append(f"{label}: header {lines[:1]}")
            continue
        rows = list(csv.DictReader(io.StringIO(text)))
        grid = {f"{db:.12g}": db for db in _grid(inputs.plan_cli_sweeps(seed, k)["specs"][sub])}
        if sub == "diversity":  # one row per user at the window's midpoint
            lo, hi = min(grid.values()), max(grid.values())
            points = [f"{0.5 * (lo + hi):.12g}"]
        else:
            points = list(grid)
        expected = {(p, str(l), m) for p in points for l in inputs.USERS for m in CLI_METRICS[sub]}
        keys = [(row["snr_db"], row["user"], row["metric"]) for row in rows]
        if len(keys) != len(expected) or set(keys) != expected or any(row["alpha"] != "2" for row in rows):
            problems.append(f"{label}: {len(rows)} rows, expected one per {sorted(expected)[:3]}...")
            continue
        if sub == "diversity":
            for row in rows:
                l = int(row["user"])
                p_lo = oracle.pep_fast(oracle.canonical(a, oracle.db_to_linear(lo), l), alpha)
                p_hi = oracle.pep_fast(oracle.canonical(a, oracle.db_to_linear(hi), l), alpha)
                msg = slope_mismatch(f"{label} user {l}", float(row["value"]),
                                     oracle.diversity_slope(p_lo, p_hi, lo, hi), l)
                if msg:
                    problems.append(msg)
            continue
        union_refs = {}
        for row in rows:
            db, l, metric = grid[row["snr_db"]], int(row["user"]), row["metric"]
            value = float(row["value"])
            where = f"{label} {db:.3f} dB user {l} {metric}"
            if metric in ("pep_mc", "ber_sim"):
                ci = (float(row["ci_low"]), float(row["ci_high"]))
                if not ci[0] <= value <= ci[1]:
                    problems.append(f"{where}: {value!r} outside {ci}")
            if metric in ("pep_analytic", "pep_mc"):
                ev = oracle.canonical(a, oracle.db_to_linear(db), l)
                ref = oracle.pep_fast(ev, alpha)
                if metric == "pep_analytic":
                    msg = pep_mismatch(where, value, ref)
                    if k == 0:
                        sample.append((where, ev, alpha, value))
                else:
                    msg = binomial_mismatch(where, round(value * trials), trials, ref, "both")
                if msg:
                    problems.append(msg)
            elif metric in ("ber_union", "ber_sim"):
                if (db, l) not in union_refs:
                    union_refs[(db, l)] = oracle.union_bound(a, oracle.db_to_linear(db), l, alpha)[0]
                ref = union_refs[(db, l)]
                if metric == "ber_union":
                    msg = pep_mismatch(where, value, ref)
                else:
                    side = "both" if l == 1 else "upper"
                    msg = binomial_mismatch(where, round(value * trials), trials, ref, side)
                if msg:
                    problems.append(msg)
    problems += mp_sample(np.random.default_rng(seed), sample)
    attempted = Counter(row[0] for row in out["sweeps"])
    return one_pass(len(out["passes"]), attempted, Counter(), problems)


CHECKS = {
    "pep_curves": check_pep_curves,
    "union_bound": check_union_bound,
    "cli_sweeps": check_cli_sweeps,
}
