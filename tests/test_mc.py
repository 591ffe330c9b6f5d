"""Monte Carlo: pairwise experiments, full SIC BER, determinism, intervals."""

import pytest

from noma_ggn import (
    GGNoiseModel,
    SystemConfig,
    build_error_event,
    canonical_event,
    estimate_pep_mc,
    pep_exact,
    simulate_ber,
    wilson_interval,
)
from noma_ggn.mc import _ber_block, _pep_block
from noma_ggn.specfun import DomainError
from oracles import block_range_counts


def three_user(gamma_bar, alpha=2.0):
    return SystemConfig(a=(0.7, 0.2, 0.1), gamma_bar=gamma_bar, noise_alpha=alpha)


def db(v):
    return 10.0 ** (v / 10.0)


class TestWilson:
    @pytest.mark.parametrize("errors,trials", [(0, 100), (5, 100), (100, 100), (1, 10**6)])
    def test_interval_brackets_point(self, errors, trials):
        lo, hi = wilson_interval(errors, trials)
        p = errors / trials
        assert 0.0 <= lo <= p <= hi <= 1.0

    def test_shrinks_with_trials(self):
        w1 = wilson_interval(50, 1000)
        w2 = wilson_interval(5000, 100000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])

    def test_rejects_no_trials(self):
        with pytest.raises(DomainError):
            wilson_interval(0, 0)


class TestEstimatePepMc:
    def test_single_user_matches_analytic(self):
        cfg = SystemConfig(a=(1.0,), gamma_bar=10.0)
        ev = build_error_event(cfg, 1, x_l=1.0, x_check_l=-1.0)
        model = GGNoiseModel.normalized(2.0)
        est = estimate_pep_mc(ev, cfg, model, trials=10**6, seed=2)
        analytic = pep_exact(ev, model).value
        assert est.ci_low <= analytic <= est.ci_high
        assert est.trials == 10**6

    def test_adjacent_seeds_both_cover(self):
        cfg = three_user(db(20.0), 1.0)
        model = GGNoiseModel.normalized(1.0)
        ev = canonical_event(cfg, 2)
        analytic = pep_exact(ev, model).value
        for seed in (1, 2):
            est = estimate_pep_mc(ev, cfg, model, trials=10**6, seed=seed)
            assert est.ci_low <= analytic <= est.ci_high

    def test_deterministic_and_partition_invariant(self):
        cfg = three_user(db(10.0))
        model = GGNoiseModel.normalized(2.0)
        ev = canonical_event(cfg, 1)
        trials = 200000
        est = estimate_pep_mc(ev, cfg, model, trials=trials, seed=3)
        for ranges in (1, 4, 16):
            errors = block_range_counts(
                lambda rng, n: _pep_block(ev, cfg, model, rng, n), 3, trials, ranges
            )
            assert errors / trials == est.point

    def test_wilson_coverage(self):
        # 95% intervals must contain the analytic value in >= 90% of seeds
        cfg = SystemConfig(a=(1.0,), gamma_bar=10.0)
        ev = build_error_event(cfg, 1, x_l=1.0, x_check_l=-1.0)
        model = GGNoiseModel.normalized(2.0)
        analytic = pep_exact(ev, model).value
        hits = 0
        for seed in range(200):
            est = estimate_pep_mc(ev, cfg, model, trials=1 << 16, seed=seed)
            hits += est.ci_low <= analytic <= est.ci_high
        assert hits >= 180


class TestSimulateBer:
    def test_noiseless_decodes_cleanly(self):
        cfg = three_user(1e12)
        model = GGNoiseModel.normalized(2.0)
        for est in simulate_ber(cfg, model, trials=10**4, seed=1):
            assert est.point == 0.0

    def test_pure_noise_limit(self):
        cfg = three_user(1e-9)
        model = GGNoiseModel.normalized(2.0)
        for est in simulate_ber(cfg, model, trials=10**5, seed=4):
            assert est.ci_low <= 0.5 <= est.ci_high

    def test_bit_identical_across_partitions(self):
        cfg = three_user(db(15.0), 1.0)
        model = GGNoiseModel.normalized(1.0)
        trials = 3 * (1 << 16) + 1234  # a partial last block
        points = [e.point for e in simulate_ber(cfg, model, trials=trials, seed=7)]
        for ranges in (1, 4, 16):
            counts = block_range_counts(
                lambda rng, n: _ber_block(cfg, model, rng, n), 7, trials, ranges
            )
            assert [int(c) / trials for c in counts] == points

    def test_repeatable(self):
        cfg = three_user(db(10.0))
        model = GGNoiseModel.normalized(2.0)
        a = simulate_ber(cfg, model, trials=50000, seed=9)
        b = simulate_ber(cfg, model, trials=50000, seed=9)
        assert [e.point for e in a] == [e.point for e in b]

    def test_user_ordering(self):
        # weaker-channel (higher-power) users see worse BER once SIC error
        # propagation has died down; below ~20 dB user 2 can sit above
        # user 1, so the ordering is asserted on the settled range
        model = GGNoiseModel.normalized(2.0)
        for snr_db in (20.0, 25.0, 30.0):
            cfg = three_user(db(snr_db))
            ests = simulate_ber(cfg, model, trials=2 * 10**5, seed=11)
            for a, b in zip(ests, ests[1:]):
                assert a.ci_high >= b.ci_low  # ordering within CI slack

    def test_mc_matches_union_bound_shape(self):
        # simulated BER of user 1 equals its union bound (BPSK, exact identity)
        from noma_ggn import union_bound

        cfg = three_user(db(15.0))
        model = GGNoiseModel.normalized(2.0)
        est = simulate_ber(cfg, model, trials=10**6, seed=12)[0]
        bound = union_bound(cfg, model, 1).p_ub
        assert est.ci_low <= bound <= est.ci_high

    def test_rejects_no_trials(self):
        with pytest.raises(DomainError):
            simulate_ber(three_user(1.0), GGNoiseModel.normalized(2.0), 0, 1)
