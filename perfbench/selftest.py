"""Self-tests of the benchmark's checks; not part of the repository's tests.

    python3 perfbench/selftest.py

Runs the first pass of each workload in this process, then shows that the
checks accept the program's output where it is known to be right, count the
known closed-form faults and nothing else, and reject outputs perturbed by a
small relative amount. Also checks the double-precision oracle against the
mpmath one. Takes about half a minute; exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from worker import Calls  # noqa: E402

SEED = 1


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def first_pass(workload: str) -> dict:
    run_fn, keys = workloads.RUNS[workload]
    out = {key: [] for key in keys}
    calls = Calls(probing=False)
    workdir = HERE / "out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    run_fn(inputs.PLANS[workload](SEED, 0), calls, out, str(workdir))
    workdir.rmdir()
    out["passes"] = [{"k": 0}]
    return out


def rejected(workload: str, out: dict) -> bool:
    return bool(checks.CHECKS[workload](out, SEED)[2])


def scale_csv_value(text: str, metric: str, factor: float, user: int = 1) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        cols = line.split(",")
        if cols[2] == metric and cols[1] == str(user):
            cols[4] = repr(float(cols[4]) * factor)
            lines[i] = ",".join(cols)
            break
    return "\n".join(lines) + "\n"


def test_oracles() -> None:
    a = inputs.REFERENCE_SPLIT
    worst, branches = 0.0, set()
    for alpha in (0.5, 4.0):
        for db in (-10.0, 120.0):
            g = oracle.db_to_linear(db)
            # user 3's canonical event, and user 2 after a layer-1 SIC mistake
            # that leaves a residual larger than the wanted signal
            for ev in (oracle.canonical(a, g, 3), oracle.make_event(a, g, 2, (-1.0, 1.0, 1.0), (1.0,), -1.0)):
                branches.add(ev.mu)
                worst = max(worst, checks.rel_err(oracle.pep_fast(ev, alpha), oracle.pep_mp(ev, alpha)))
    expect(branches == {0, 1}, "constructive and destructive events are covered")
    expect(worst <= checks.ORACLE_TOL, f"fast oracle within {checks.ORACLE_TOL:g} of mpmath (worst {worst:.1e})")


def test_pep_curves() -> None:
    out = first_pass("pep_curves")
    attempted, failed, problems = checks.check_pep_curves(out, SEED)
    expect(not problems, "pep_curves: the program's first pass passes every check")
    expect(failed == 4, f"pep_curves: exactly the 4 closed-form faults fail ({failed})")

    checks.mp_sample, mp_sample = (lambda *a, **k: []), checks.mp_sample
    try:
        for col, name in ((5, "pep_exact"), (6, "pep_direct")):
            bad = copy.deepcopy(out)
            bad["points"][40][col] *= 1.0 + 1e-6
            expect(rejected("pep_curves", bad), f"pep_curves: {name} off by 1e-6 is rejected")
        bad = copy.deepcopy(out)
        bad["slopes"][5][6] *= 1.0 + 1e-3
        expect(rejected("pep_curves", bad), "pep_curves: slope off by 1e-3 is rejected")
        bad = copy.deepcopy(out)
        i = next(i for i, p in enumerate(bad["points"]) if p[7] is not None)
        bad["points"][i][7] *= 1.0 + 1e-5
        expect(checks.check_pep_curves(bad, SEED)[1] == 5, "pep_curves: closed form off by 1e-5 counts as failed")
    finally:
        checks.mp_sample = mp_sample

    ev = oracle.canonical(inputs.REFERENCE_SPLIT, 1e4, 3)
    off = oracle.pep_fast(ev, 2.0) * (1.0 + 1e-6)
    expect(bool(checks.mp_sample(checks.np.random.default_rng(0), [("point", ev, 2.0, off)])),
           "mpmath sample rejects a PEP off by 1e-6")


def test_union_bound() -> None:
    out = first_pass("union_bound")
    _, failed, problems = checks.check_union_bound(out, SEED)
    expect(not problems and failed == 0, "union_bound: the program's first pass passes every check")
    checks.mp_sample, mp_sample = (lambda *a, **k: []), checks.mp_sample
    try:
        bad = copy.deepcopy(out)
        bad["bounds"][20][5] *= 1.0 - 1e-6
        expect(rejected("union_bound", bad), "union_bound: bound off by 1e-6 is rejected")
        bad = copy.deepcopy(out)
        bad["bounds"][7][6][0][3] *= 1.0 + 1e-6
        expect(rejected("union_bound", bad), "union_bound: pair probability off by 1e-6 is rejected")
        bad = copy.deepcopy(out)
        bad["passes"].append({"k": 1})
        expect(rejected("union_bound", bad), "union_bound: a pass with other counts than pass 0 is rejected")
    finally:
        checks.mp_sample = mp_sample


def test_cli_sweeps() -> None:
    out = first_pass("cli_sweeps")
    _, failed, problems = checks.check_cli_sweeps(out, SEED)
    expect(not problems and failed == 0, "cli_sweeps: the program's first pass passes every check")
    sweeps = {row[1]: i for i, row in enumerate(out["sweeps"])}
    checks.mp_sample, mp_sample = (lambda *a, **k: []), checks.mp_sample
    try:
        cases = (
            ("pep", "pep_analytic", 1.0 + 1e-6, 2, "pep_analytic off by 1e-6"),
            ("pep", "pep_mc", 1.05, 1, "pep_mc 5 % off at ~1e5 errors"),
            ("ber", "ber_union", 1.0 - 1e-6, 3, "ber_union off by 1e-6"),
            ("ber", "ber_sim", 1.05, 1, "user-1 ber_sim 5 % off"),
            ("diversity", "diversity_slope", 1.0 + 1e-3, 3, "diversity slope off by 1e-3"),
        )
        for sub, metric, factor, user, what in cases:
            bad = copy.deepcopy(out)
            row = bad["sweeps"][sweeps[sub]]
            row[3] = scale_csv_value(row[3], metric, factor, user)
            expect(rejected("cli_sweeps", bad), f"cli_sweeps: {what} is rejected")
        bad = copy.deepcopy(out)
        bad["sweeps"][sweeps["ber"]][2] = 3
        expect(rejected("cli_sweeps", bad), "cli_sweeps: a non-zero exit code is rejected")
        bad = copy.deepcopy(out)
        bad["sweeps"][sweeps["pep"]][3] = "\n".join(bad["sweeps"][sweeps["pep"]][3].splitlines()[:-1]) + "\n"
        expect(rejected("cli_sweeps", bad), "cli_sweeps: a missing row is rejected")
    finally:
        checks.mp_sample = mp_sample


def test_laws() -> None:
    expect(checks.slope_mismatch("s", 2.7, 2.7, 3) is not None, "a slope 0.3 from the user index is rejected")
    expect(checks.slope_mismatch("s", 2.9, 2.9, 3) is None, "a slope 0.1 from the user index is accepted")
    n, p = 1000000, 1e-3
    expect(checks.binomial_mismatch("b", 1000, n, p, "both") is None, "an on-target count is accepted")
    expect(checks.binomial_mismatch("b", 1200, n, p, "both") is not None, "a count 20 % high is rejected")
    expect(checks.binomial_mismatch("b", 800, n, p, "both") is not None, "a count 20 % low is rejected")
    expect(checks.binomial_mismatch("b", 800, n, p, "upper") is None, "a count under a bound is accepted")


def main() -> int:
    test_laws()
    test_oracles()
    test_pep_curves()
    test_union_bound()
    test_cli_sweeps()
    print("all checks behave")
    return 0


if __name__ == "__main__":
    sys.exit(main())
