"""Workload inputs, made from the workload seed and the pass index alone.

Shared by the worker, which feeds them to the program, and by the checks,
which rebuild them to compute reference values; nothing here imports
``noma_ggn``.

Every pass draws fresh seeded power splits and shifts its SNR grid by
``pass_offset_db(k)``, so no pass repeats an input already computed in the
process: a result cache in the program can only gain from reuse inside one
pass. The reference split is in every pass, so that the closed-form faults
the benchmark counts sit on inputs that do not depend on the seed.
"""

from __future__ import annotations

import numpy as np

REFERENCE_SPLIT = (0.7, 0.2, 0.1)
ALPHAS = (0.5, 1.0, 2.0, 4.0)
USERS = (1, 2, 3)
SEEDED_SPLITS = 1  # per pass, besides the reference split

PEP_GRID_DB = tuple(-10.0 + 10.0 * j for j in range(14))  # -10 .. 120
UNION_GRID_DB = (0.0, 10.0, 20.0, 30.0, 40.0)
# pep_closed_form is evaluated where its outcome against the 1e-6 oracle
# tolerance does not depend on the split or on rounding: up to 60.5 dB it is
# accurate (worst 2e-8), and for the reference split's user 3 at 110 and
# 120 dB it returns a value <= 0 or many times off. In between, user 3
# crosses the tolerance at a split- and rounding-dependent SNR (from about
# 75 dB), and user 2 reaches 5e-7 at 120 dB.
CLOSED_ALPHAS = (1.0, 2.0)
CLOSED_GOOD_MAX_DB = 60.5
CLOSED_FAULT_MIN_DB = 110.0
CLOSED_FAULT_USER = 3

CLI_TRIALS = 1000000  # the CLI default, which the sweeps keep
CLI_SUBCOMMANDS = ("pep", "ber", "diversity")


def pass_offset_db(k: int) -> float:
    """SNR shift of pass k, in [0, 0.5) dB and 0 for the first pass. It
    depends on k alone, so the reference split's inputs are the same for
    every seed."""
    return 0.5 * ((k * 0.6180339887498949) % 1.0)


def pass_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(k)]))


def draw_split(rng: np.random.Generator) -> tuple:
    """Three-user split with a1 > a2 + a3 and a2 >= a3, summing to 1."""
    a1 = float(rng.uniform(0.6, 0.8))
    r = float(rng.uniform(0.55, 0.8))
    return (a1, (1.0 - a1) * r, (1.0 - a1) * (1.0 - r))


def closed_form_applies(alpha: float, db: float, l: int, reference: bool) -> bool:
    if alpha not in CLOSED_ALPHAS:
        return False
    if db <= CLOSED_GOOD_MAX_DB:
        return True
    return reference and l == CLOSED_FAULT_USER and db >= CLOSED_FAULT_MIN_DB


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _splits(seed: int, k: int) -> list:
    rng = pass_rng(seed, k)
    return [REFERENCE_SPLIT] + [draw_split(rng) for _ in range(SEEDED_SPLITS)]


def plan_pep_curves(seed: int, k: int) -> dict:
    phi = pass_offset_db(k)
    return {"k": k, "splits": _splits(seed, k), "grid_db": [g + phi for g in PEP_GRID_DB]}


def plan_union_bound(seed: int, k: int) -> dict:
    phi = pass_offset_db(k)
    return {"k": k, "splits": _splits(seed, k), "grid_db": [g + phi for g in UNION_GRID_DB]}


def _spec(start: float, step: float, stop: float) -> str:
    return f"{start:.6f}:{step:g}:{stop:.6f}"


def plan_cli_sweeps(seed: int, k: int) -> dict:
    """The default configuration with the pass's Monte Carlo seed and the
    default SNR grids (0:5:40, and 60:20:80 for diversity) shifted by the
    pass offset."""
    phi = pass_offset_db(k)
    mc_seed = int(pass_rng(seed, k).integers(0, 2**31 - 1))
    sweep = _spec(phi, 5.0, 40.0 + phi)
    specs = {"pep": sweep, "ber": sweep, "diversity": _spec(60.0 + phi, 20.0, 80.0 + phi)}
    return {
        "k": k,
        "specs": specs,
        "configs": {sub: f"seed = {mc_seed}\nsnr_db = {spec}\n" for sub, spec in specs.items()},
    }


PLANS = {
    "pep_curves": plan_pep_curves,
    "union_bound": plan_union_bound,
    "cli_sweeps": plan_cli_sweeps,
}
