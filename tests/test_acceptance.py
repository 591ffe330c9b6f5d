"""Acceptance gate: the eight headline checks, one pass/fail line each.

Every check runs against the three-user reference configuration
(a = [0.7, 0.2, 0.1], BPSK) unless stated otherwise. Tolerances are part of
the contract and must not be loosened.
"""

import math

import numpy as np
import pytest
import scipy.stats as st

from noma_ggn import (
    GGNoiseModel,
    SystemConfig,
    build_error_event,
    canonical_event,
    conditional_pep,
    diversity_order,
    enumerate_error_events,
    estimate_pep_mc,
    pep_closed_form,
    pep_direct,
    pep_exact,
    simulate_ber,
    union_bound,
)
from noma_ggn.ggd import stream_rng
from noma_ggn.mc import _ber_block

from conftest import record_criterion
from oracles import DecisionNoise, block_range_counts

GRID_DB = tuple(float(v) for v in range(0, 45, 5))


def three_user(gamma_bar, alpha):
    return SystemConfig(a=(0.7, 0.2, 0.1), gamma_bar=gamma_bar, noise_alpha=alpha)


def db(v):
    return 10.0 ** (v / 10.0)


def test_criterion_1_closed_form_consistency():
    """Closed forms match the quadrature route on every enumerated event."""
    worst = 0.0
    for alpha in (1.0, 2.0):
        model = GGNoiseModel.normalized(alpha)
        for snr_db in GRID_DB:
            cfg = three_user(db(snr_db), alpha)
            for l in (1, 2, 3):
                for ev, _ in enumerate_error_events(cfg, l):
                    exact = pep_exact(ev, model).value
                    closed = pep_closed_form(ev, alpha).value
                    worst = max(worst, abs(closed - exact) / exact)
    passed = worst <= 1e-6
    record_criterion(
        1, passed, f"closed form vs pep_exact, worst rel err {worst:.3e} (<= 1e-6)"
    )
    assert passed


def test_criterion_2_path_equivalence():
    """pep_exact (the constructive integrand's series or quadrature) equals
    direct conditional-PEP averaging."""
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        model = GGNoiseModel.normalized(alpha)
        for snr_db in GRID_DB:
            cfg = three_user(db(snr_db), alpha)
            for l in (1, 2, 3):
                for ev, _ in enumerate_error_events(cfg, l):
                    exact = pep_exact(ev, model).value
                    direct = pep_direct(ev, model).value
                    worst = max(worst, abs(direct - exact) / exact)
    passed = worst <= 1e-8
    record_criterion(
        2,
        passed,
        f"pep_exact vs direct averaging, worst rel err {worst:.3e} (<= 1e-8)",
    )
    assert passed


def test_criterion_3_mc_containment_and_first_user_slope():
    """MC intervals contain the analytic PEP; user 1 slope is alpha-blind."""
    seed = 1
    misses = []
    for alpha in (0.5, 1.0, 2.0):
        model = GGNoiseModel.normalized(alpha)
        points = [(snr_db, l) for snr_db in (0.0, 10.0, 20.0, 30.0) for l in (1, 2, 3)]
        events = [canonical_event(three_user(db(snr_db), alpha), l) for snr_db, l in points]
        estimates = estimate_pep_mc(events, model, trials=10**6, seed=seed)
        for (snr_db, l), ev, est in zip(points, events, estimates):
            analytic = pep_exact(ev, model).value
            if not est.ci_low <= analytic <= est.ci_high:
                misses.append((alpha, snr_db, l))
    slopes = {}
    for alpha in (1.0, 2.0):
        curve = {
            snr_db: pep_closed_form(
                canonical_event(three_user(db(snr_db), alpha), 1), alpha
            ).value
            for snr_db in (30.0, 40.0)
        }
        slopes[alpha] = diversity_order(curve, (30.0, 40.0)).d_s
    slope_gap = abs(slopes[1.0] - slopes[2.0])
    passed = not misses and slope_gap <= 0.1
    record_criterion(
        3,
        passed,
        f"analytic PEP inside {36 - len(misses)}/36 Wilson intervals (seed {seed}); "
        f"user-1 slope gap alpha 1 vs 2: {slope_gap:.3f} (<= 0.1)",
    )
    assert passed, f"interval misses {misses}, slope gap {slope_gap}"


def test_criterion_4_diversity_order():
    """High-SNR slope of user l converges to l."""
    worst = 0.0
    for alpha in (1.0, 2.0):
        for l in (1, 2, 3):
            curve = {
                snr_db: pep_closed_form(
                    canonical_event(three_user(db(snr_db), alpha), l), alpha
                ).value
                for snr_db in (60.0, 80.0)
            }
            slope = diversity_order(curve, (60.0, 80.0)).d_s
            worst = max(worst, abs(slope - l))
    passed = worst <= 0.25
    record_criterion(
        4, passed, f"60-80 dB slope vs user index, worst gap {worst:.3f} (<= 0.25)"
    )
    assert passed


def test_criterion_5_union_bound_dominates_simulation():
    """Union bound sits above the simulated BER at 10-40 dB.

    For user 1 with BPSK the bound coincides exactly with the true BER, so a
    simulated point estimate lands above it about half the time by chance;
    dominance is therefore asserted against the interval's lower edge, which
    is the strongest check a finite simulation supports.
    """
    failures = []
    for alpha in (1.0, 2.0):
        model = GGNoiseModel.normalized(alpha)
        grid = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
        configs = [three_user(db(snr_db), alpha) for snr_db in grid]
        per_config = simulate_ber(configs, model, trials=10**6, seed=1)
        for snr_db, cfg, ests in zip(grid, configs, per_config):
            for l, est in zip((1, 2, 3), ests):
                bound = union_bound(cfg, model, l).p_ub
                if bound < est.ci_low:
                    failures.append((alpha, snr_db, l, bound, est.ci_low))
    passed = not failures
    record_criterion(
        5,
        passed,
        "union bound >= simulated BER (lower CI edge) at all 42 grid points",
    )
    assert passed, failures


def test_criterion_6_sampler_fidelity():
    """GGD sampler: unit variance and exact gamma-transform law."""
    worst_var = 0.0
    worst_ks = 0.0
    for alpha in (0.5, 1.0, 2.0, 4.0):
        model = GGNoiseModel.normalized(alpha)
        x = model.sample(stream_rng(100), size=10**6)
        worst_var = max(worst_var, abs(float(np.var(x)) - 1.0))
        g = (model.lam * np.abs(x)) ** alpha
        ks = st.kstest(g, st.gamma(a=1.0 / alpha).cdf).statistic
        worst_ks = max(worst_ks, float(ks))
    passed = worst_var <= 0.01 and worst_ks < 0.002
    record_criterion(
        6,
        passed,
        f"sampler variance gap {worst_var:.4f} (<= 0.01), "
        f"KS distance {worst_ks:.5f} (< 0.002)",
    )
    assert passed


def test_criterion_7_gaussian_reduction():
    """conditional_pep at alpha = 2 equals the erfc oracle."""
    rng = np.random.default_rng(77)
    model = GGNoiseModel.normalized(2.0)
    worst = 0.0
    for _ in range(100):
        cfg = three_user(float(rng.uniform(0.1, 1000.0)), 2.0)
        l = int(rng.integers(1, 4))
        events = [ev for ev, _ in enumerate_error_events(cfg, l)]
        ev = events[int(rng.integers(0, len(events)))]
        h = float(rng.uniform(0.01, 10.0))
        lam = DecisionNoise.from_event(ev, h).lambda_sub
        oracle = 0.5 * math.erfc(lam * h * h * abs(ev.upsilon))
        if ev.mu == 0:
            oracle = 1.0 - oracle
        worst = max(worst, abs(conditional_pep(ev, model, h) - oracle))
    passed = worst <= 1e-10
    record_criterion(
        7, passed, f"alpha=2 vs erfc oracle, worst abs err {worst:.3e} (<= 1e-10)"
    )
    assert passed


def test_criterion_8_partition_determinism():
    """simulate_ber's counts equal its per-block function summed over 1, 4
    and 16 contiguous block ranges."""
    cfg = three_user(db(20.0), 2.0)
    model = GGNoiseModel.normalized(2.0)
    trials, seed = 5 * 10**5, 1
    points = [e.point for e in simulate_ber([cfg], model, trials=trials, seed=seed)[0]]
    runs = [
        block_range_counts(
            lambda rng, n: _ber_block([cfg], model, rng, n), seed, trials, ranges
        )[0]
        for ranges in (1, 4, 16)
    ]
    passed = all([int(c) / trials for c in counts] == points for counts in runs)
    record_criterion(
        8, passed, "simulate_ber counts equal the block sums over 1/4/16 block ranges"
    )
    assert passed
