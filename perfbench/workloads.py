"""Timed passes over the program; runs inside the fresh worker process.

The program is reached through module attributes (``pep.pep_exact``), never
through names bound at import, so that a traced pass sees every call. Each
``run_*`` records one duration per call in ``calls`` and appends the
program's outputs to ``out``.
"""

from __future__ import annotations

import os
import time

import noma_ggn.cli as cli
import noma_ggn.ggd as ggd
import noma_ggn.noma as noma
import noma_ggn.pep as pep

from inputs import ALPHAS, CLI_SUBCOMMANDS, USERS, closed_form_applies, db_to_linear


def run_pep_curves(plan: dict, calls, out: dict, workdir: str) -> None:
    """One call = one curve point: build the event, then every route that
    applies. Slopes over the top two grid points close the pass."""
    grid = plan["grid_db"]
    window = (grid[-2], grid[-1])
    for s, split in enumerate(plan["splits"]):
        for alpha in ALPHAS:
            for l in USERS:
                curve = {}
                for db in grid:
                    closed = closed_form_applies(alpha, db, l, s == 0)
                    t0 = time.perf_counter()
                    config = noma.SystemConfig(a=split, gamma_bar=db_to_linear(db), noise_alpha=alpha)
                    model = ggd.GGNoiseModel.normalized(alpha)
                    event = pep.canonical_event(config, l)
                    exact = pep.pep_exact(event, model).value
                    direct = pep.pep_direct(event, model).value
                    cf = pep.pep_closed_form(event, alpha).value if closed else None
                    calls.record(time.perf_counter() - t0)
                    curve[db] = exact
                    out["points"].append([plan["k"], s, alpha, db, l, exact, direct, cf])
                slope = pep.diversity_order(curve, window).d_s
                out["slopes"].append([plan["k"], s, alpha, l, window[0], window[1], slope])


def run_union_bound(plan: dict, calls, out: dict, workdir: str) -> None:
    """One call = one union_bound(config, model, l)."""
    for s, split in enumerate(plan["splits"]):
        for alpha in ALPHAS:
            model = ggd.GGNoiseModel.normalized(alpha)
            for db in plan["grid_db"]:
                config = noma.SystemConfig(a=split, gamma_bar=db_to_linear(db), noise_alpha=alpha)
                for l in USERS:
                    t0 = time.perf_counter()
                    result = pep.union_bound(config, model, l)
                    calls.record(time.perf_counter() - t0)
                    pairs = [list(c) for c in result.contributions]
                    out["bounds"].append([plan["k"], s, alpha, db, l, result.p_ub, pairs])


def run_cli_sweeps(plan: dict, calls, out: dict, workdir: str) -> None:
    """One call = one in-process ``noma-ggn <subcommand> <config> -o <csv>``."""
    paths = {}
    for sub, text in plan["configs"].items():
        stem = os.path.join(workdir, f"pass{plan['k']}-{sub}")
        with open(stem + ".cfg", "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[sub] = (stem + ".cfg", stem + ".csv")
    for sub in CLI_SUBCOMMANDS:
        cfg, csv = paths[sub]
        t0 = time.perf_counter()
        code = cli.main([sub, cfg, "-o", csv])
        calls.record(time.perf_counter() - t0)
        text = ""
        if os.path.exists(csv):
            with open(csv, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(csv)
        os.remove(cfg)
        out["sweeps"].append([plan["k"], sub, code, text])


RUNS = {
    "pep_curves": (run_pep_curves, ("points", "slopes")),
    "union_bound": (run_union_bound, ("bounds",)),
    "cli_sweeps": (run_cli_sweeps, ("sweeps",)),
}
