"""System configuration, SIC chain and pairwise error-event construction."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noma_ggn.noma import (
    BPSK,
    DegenerateEventError,
    SystemConfig,
    _Scratch,
    build_error_event,
    enumerate_error_events,
    nearest_symbol,
    sic_decide,
)
from noma_ggn.specfun import DomainError
from oracles import nearest_symbol_argmin

PAM4 = (-3.0, -1.0, 1.0, 3.0)


def three_user(gamma_bar=10.0, alpha=2.0):
    return SystemConfig(a=(0.7, 0.2, 0.1), gamma_bar=gamma_bar, noise_alpha=alpha)


class TestSystemConfig:
    def test_reference_config(self):
        cfg = three_user()
        assert cfg.L == 3
        assert cfg.constellation == (-1.0, 1.0)
        assert cfg.amplitude(1) == pytest.approx(math.sqrt(7.0))

    @pytest.mark.parametrize(
        "a",
        [
            (0.2, 0.7, 0.1),  # not non-increasing
            (0.7, 0.2, -0.1),  # negative entry
            (0.8, 0.3, 0.1),  # sums above 1
            (),
            (0.5, 0.3),  # sums below 1
        ],
    )
    def test_bad_power_vectors(self, a):
        with pytest.raises(DomainError):
            SystemConfig(a=a, gamma_bar=1.0)

    def test_constellation_validation(self):
        with pytest.raises(DomainError):
            SystemConfig(a=(1.0,), gamma_bar=1.0, constellation=(1.0, 1.0))
        with pytest.raises(DomainError):
            SystemConfig(a=(1.0,), gamma_bar=1.0, constellation=(0.0, 1.0))
        cfg = SystemConfig(a=(1.0,), gamma_bar=1.0, constellation=(3.0, -3.0))
        assert cfg.constellation == (-3.0, 3.0)  # stored ascending

    # NaN passes the positivity, ordering and sum tests, and +-inf or NaN
    # symbols the zero-mean test: each is named instead
    @pytest.mark.parametrize(
        "a,message",
        [
            ((0.7, math.nan, 0.1), "power coefficients must be finite, got (0.7, nan, 0.1)"),
            ((math.inf, 0.2, 0.1), "power coefficients must be finite, got (inf, 0.2, 0.1)"),
        ],
    )
    def test_non_finite_power_rejected(self, a, message):
        with pytest.raises(DomainError) as exc_info:
            SystemConfig(a=a, gamma_bar=1.0)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize(
        "phi,message",
        [
            ((-math.inf, math.inf), "constellation symbols must be finite, got (-inf, inf)"),
            ((math.nan, 1.0), "constellation symbols must be finite, got (nan, 1.0)"),
        ],
    )
    def test_non_finite_symbols_rejected(self, phi, message):
        with pytest.raises(DomainError) as exc_info:
            SystemConfig(a=(1.0,), gamma_bar=1.0, constellation=phi)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -2.0])
    def test_noise_alpha_must_be_positive_and_finite(self, alpha):
        with pytest.raises(DomainError) as exc_info:
            SystemConfig(a=(1.0,), gamma_bar=1.0, noise_alpha=alpha)
        assert str(exc_info.value) == f"noise_alpha must be positive and finite, got {alpha!r}"


def composite(cfg, symbols):
    return sum(cfg.amplitude(k) * x for k, x in enumerate(symbols, start=1))


def sic_one_row(cfg, received, h, l):
    """User l's layer-l decision for one received value at gain h."""
    amps = np.array([cfg.amplitude(k) for k in range(1, cfg.L + 1)])
    phi = np.asarray(cfg.constellation)
    return float(sic_decide(phi, amps, np.array([h]), np.array([received]), l)[0])


class TestSicReceive:
    def test_noiseless_decodes_every_vector(self):
        cfg = three_user(gamma_bar=1e6)
        for symbols in itertools.product(BPSK, repeat=3):
            received = composite(cfg, symbols)
            for l in (1, 2, 3):
                assert sic_one_row(cfg, received, 1.0, l) == symbols[l - 1]

    def test_very_high_snr_decodes(self):
        cfg = three_user(gamma_bar=1e8)
        for symbols in itertools.product(BPSK, repeat=3):
            received = composite(cfg, symbols)
            assert [sic_one_row(cfg, received, 1.0, l) for l in (1, 2, 3)] == list(symbols)

    def test_zero_gain_is_tie_break(self):
        cfg = three_user()
        for symbols in itertools.product(BPSK, repeat=3):
            received = composite(cfg, symbols)
            for l in (1, 2, 3):
                assert sic_one_row(cfg, received * 0.0, 0.0, l) == -1.0

    def test_single_user_nearest_symbol(self):
        cfg = SystemConfig(a=(1.0,), gamma_bar=4.0)  # amplitude 2
        assert sic_one_row(cfg, 1.7, 1.0, 1) == 1.0
        assert sic_one_row(cfg, -0.3, 1.0, 1) == -1.0
        assert sic_one_row(cfg, 0.0, 1.0, 1) == -1.0  # tie toward smaller


@st.composite
def decision_rows(draw, phi):
    """(residual, c) rows: random, and exact ties at residual 0, at c = 0
    and on a midpoint c (phi_i + phi_i+1) / 2."""
    residual, c = [], []
    for _ in range(draw(st.integers(1, 30))):
        gain = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e6)))
        kind = draw(st.sampled_from(("random", "zero", "midpoint")))
        if kind == "random":
            r = draw(st.floats(-1e7, 1e7))
        elif kind == "zero":
            r = 0.0
        else:
            i = draw(st.integers(0, len(phi) - 2))
            r = gain * (phi[i] + phi[i + 1]) / 2.0
        residual.append(r)
        c.append(gain)
    return np.array(residual), np.array(c)


class TestNearestSymbol:
    @pytest.mark.parametrize("phi", [BPSK, PAM4], ids=["bpsk", "4pam"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_argmin_rule(self, phi, data):
        phi = np.array(phi)
        residual, c = data.draw(decision_rows(phi))
        got = nearest_symbol(phi, residual, c)
        assert got.tolist() == nearest_symbol_argmin(phi, residual, c).tolist()

    @pytest.mark.parametrize("phi", [BPSK, PAM4, (-2.0, 0.5, 1.5)], ids=["bpsk", "4pam", "3pt"])
    def test_shared_scratch_gives_fresh_results(self, phi):
        # one scratch across calls of several lengths (a partial last
        # block) decides as fresh arrays do, and leaves the inputs alone
        phi = np.array(phi)
        rng = np.random.default_rng(5)
        scratch = _Scratch()
        amps = np.array([2.0, 1.0, 0.5])
        for n in (1000, 1000, 333, 1000):
            residual = rng.normal(scale=4.0, size=n)
            h = rng.rayleigh(size=n)
            kept = residual.copy()
            got = nearest_symbol(phi, residual, h, scratch).copy()
            assert got.tolist() == nearest_symbol_argmin(phi, residual, h).tolist()
            for l in (1, 2, 3):
                shared = sic_decide(phi, amps, h, residual, l, scratch).copy()
                assert shared.tolist() == sic_decide(phi, amps, h, residual, l).tolist()
            np.testing.assert_array_equal(residual, kept)

    def test_ties_go_to_smaller_symbol(self):
        phi = np.array(PAM4)
        residual = np.array([0.0, 5.0, 2.0, -4.0])
        c = np.array([1.0, 0.0, 1.0, 2.0])
        assert nearest_symbol(phi, residual, c).tolist() == [-1.0, -3.0, 1.0, -3.0]


class TestBuildErrorEvent:
    def test_single_user_event(self):
        cfg = SystemConfig(a=(1.0,), gamma_bar=10.0)
        ev = build_error_event(cfg, 1, x_l=1.0, x_check_l=-1.0)
        assert ev.X == 0.0
        assert ev.delta_check == 2.0
        assert ev.zeta == pytest.approx(2.0 * math.sqrt(10.0))
        assert ev.upsilon == pytest.approx(-40.0)
        assert ev.mu == 1

    def test_last_user_perfect_sic(self):
        cfg = three_user()
        ev = build_error_event(
            cfg, 3, x_l=1.0, x_check_l=-1.0, sic_detected=(1.0, 1.0)
        )
        assert ev.X == 0.0
        assert ev.upsilon == pytest.approx(-cfg.a[2] * cfg.gamma_bar * 4.0)
        assert ev.sic_transmitted == ev.sic_detected  # perfect-SIC default

    def test_first_user_with_interference(self):
        ev = build_error_event(
            three_user(gamma_bar=10.0), 1, x_l=1.0, x_check_l=-1.0,
            interferers=(1.0, 1.0),
        )
        assert ev.X == pytest.approx(math.sqrt(2.0) + 1.0)
        assert ev.zeta == pytest.approx(2.0 * math.sqrt(7.0) + ev.X)
        assert ev.upsilon == pytest.approx(ev.X**2 - ev.zeta**2)
        assert ev.upsilon == pytest.approx(-53.55, abs=5e-3)
        assert ev.mu == 1

    def test_degenerate_boundary_raises(self):
        # equal powers, interferer opposing: |zeta| == |X| exactly
        cfg = SystemConfig(a=(0.5, 0.5), gamma_bar=10.0)
        with pytest.raises(DegenerateEventError):
            build_error_event(cfg, 1, x_l=1.0, x_check_l=-1.0, interferers=(-1.0,))

    def test_zero_snr_is_degenerate(self):
        # X = zeta = 0: upsilon = 0 whatever the scale
        cfg = SystemConfig(a=(0.7, 0.2, 0.1), gamma_bar=0.0)
        with pytest.raises(DegenerateEventError):
            build_error_event(cfg, 1, x_l=1.0, x_check_l=-1.0, interferers=(1.0, 1.0))

    @pytest.mark.parametrize("snr_db", [-130.0, -200.0, -300.0])
    def test_low_snr_is_not_degenerate(self, snr_db):
        # the test is scale-free in gamma_bar, so an event keeps its class at
        # any SNR; an absolute floor made every event degenerate here
        ev = build_error_event(
            three_user(gamma_bar=10.0 ** (snr_db / 10.0)), 1, x_l=1.0, x_check_l=-1.0,
            interferers=(1.0, 1.0),
        )
        assert ev.mu == 1 and ev.upsilon < 0.0

    def test_overflowing_event_raises_domain_error(self):
        # gamma_bar is finite but X^2 and zeta^2 are not
        cfg = three_user(gamma_bar=10.0 ** 308.1)
        with pytest.raises(DomainError):
            build_error_event(cfg, 1, x_l=1.0, x_check_l=-1.0, interferers=(1.0, 1.0))

    def test_rejects_foreign_symbol(self):
        with pytest.raises(DomainError):
            build_error_event(
                three_user(), 1, x_l=1.0, x_check_l=-1.0, interferers=(1.0, 0.5)
            )

    def test_rejects_equal_hypothesis(self):
        with pytest.raises(DomainError):
            build_error_event(
                three_user(), 1, x_l=1.0, x_check_l=1.0, interferers=(1.0, 1.0)
            )

    def test_perfect_sic_no_interference_is_constructive(self):
        # perfect SIC (X = 0 from the lower layers) and all-zero interferers:
        # upsilon = -zeta^2 < 0 for any constellation and gamma_bar > 0
        for gamma_bar in (0.1, 1.0, 100.0):
            cfg = SystemConfig(
                a=(0.5, 0.3, 0.2), gamma_bar=gamma_bar,
                constellation=(-3.0, -1.0, 0.0, 1.0, 3.0),
            )
            for l in (1, 2, 3):
                for x, xc in itertools.product(cfg.constellation, repeat=2):
                    if x == xc:
                        continue
                    ev = build_error_event(
                        cfg, l, x_l=x, x_check_l=xc,
                        sic_detected=(1.0,) * (l - 1),
                        interferers=(0.0,) * (cfg.L - l),
                    )
                    assert ev.X == 0.0
                    assert ev.upsilon < 0.0 and ev.mu == 1


class TestEnumerate:
    def test_single_user_counts(self):
        cfg = SystemConfig(a=(1.0,), gamma_bar=10.0)
        enum = enumerate_error_events(cfg, 1)
        assert len(enum) == 2
        # weights are normalized per (x, x_check) class; with no interferers
        # and no SIC layers each class holds exactly one event
        assert all(w == 1.0 for _, w in enum)

    def test_first_user_counts(self):
        assert len(enumerate_error_events(three_user(), 1)) == 8

    def test_last_user_counts(self):
        assert len(enumerate_error_events(three_user(), 3)) == 32

    def test_weights_sum_to_one_per_class(self):
        for l in (1, 2, 3):
            totals = {}
            for ev, w in enumerate_error_events(three_user(), l):
                key = (ev.x_l, ev.x_check_l)
                totals[key] = totals.get(key, 0.0) + w
            for total in totals.values():
                assert total == pytest.approx(1.0)

    def test_recompute_invariants(self):
        cfg = three_user(gamma_bar=25.0)
        for l in (1, 2, 3):
            for ev, _ in enumerate_error_events(cfg, l):
                X = sum(
                    cfg.amplitude(i + 1) * (ev.sic_transmitted[i] - ev.sic_detected[i])
                    for i in range(l - 1)
                )
                X += sum(
                    cfg.amplitude(l + 1 + j) * ev.interferers[j]
                    for j in range(cfg.L - l)
                )
                assert X == ev.X
                assert cfg.amplitude(l) * ev.delta_check + X == ev.zeta
                assert ev.X**2 - ev.zeta**2 == ev.upsilon
                assert ev.mu == (1 if ev.upsilon < 0.0 else 0)

    def test_enumeration_cap(self):
        # 4-PAM, four users, user 4: 4^4 * 3 * 4^3 = 49152 raw assignments
        cfg = SystemConfig(a=(0.4, 0.3, 0.2, 0.1), gamma_bar=10.0, constellation=PAM4)
        with pytest.raises(DomainError):
            enumerate_error_events(cfg, 4)
