"""Analytic PEP routes, union bound and diversity slope."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st

import noma_ggn.pep
from noma_ggn import (
    GGNoiseModel,
    NumericFailure,
    PepResult,
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
from noma_ggn.channel import ordered_pdf
from noma_ggn.pep import (
    _constructive_series,
    _constructive_value,
    _kappa,
    _laplace_tail,
    _underflow_arg,
)
from noma_ggn.specfun import (
    DomainError,
    QuadratureError,
    QuadratureResult,
    integrate_semi_infinite,
    upper_incomplete_gamma_reg,
)
from oracles import DecisionNoise, pep_mp, t1_t2_sum


def three_user(gamma_bar, alpha=2.0):
    return SystemConfig(a=(0.7, 0.2, 0.1), gamma_bar=gamma_bar, noise_alpha=alpha)


def single_user_event(gamma_bar, alpha=2.0):
    cfg = SystemConfig(a=(1.0,), gamma_bar=gamma_bar, noise_alpha=alpha)
    return cfg, build_error_event(cfg, 1, x_l=1.0, x_check_l=-1.0)


def db(v):
    return 10.0 ** (v / 10.0)


def split_config(weights, snr_db, alpha):
    """Config with the power split proportional to weights, sorted
    descending so it is a valid split."""
    total = sum(weights)
    a = tuple(sorted((w / total for w in weights), reverse=True))
    return SystemConfig(a=a, gamma_bar=db(snr_db), noise_alpha=alpha)


# (split, alpha, SNR dB, user) where the fixed initial panels of an earlier
# quadrature missed the mpmath value by 4e-10 to 2.7e-7 at large alpha
MISSED_POINTS = [
    ((0.8131, 0.1851, 0.0018), 17.795, 90.73, 3),
    ((0.4649, 0.3317, 0.2034), 17.340, 86.81, 3),
    ((0.47680, 0.27277, 0.25043), 17.4434, 106.698, 1),
    ((0.3634, 0.3268, 0.3097), 17.51, 118.25, 3),
    ((0.4902, 0.3644, 0.1454), 13.74, 118.6, 3),
]


class TestConditionalPep:
    def test_zero_gain_is_half(self):
        for alpha in (0.5, 1.0, 2.0, 3.7):
            _, ev = single_user_event(10.0, alpha)
            assert conditional_pep(ev, GGNoiseModel.normalized(alpha), 0.0) == 0.5

    def test_constructive_vanishes_at_high_gain(self):
        _, ev = single_user_event(10.0, 1.0)
        assert ev.mu == 1
        assert conditional_pep(ev, GGNoiseModel.normalized(1.0), 1e6) < 1e-300

    def test_destructive_approaches_one(self):
        cfg = three_user(10.0)
        # SIC error at layer 1 makes the residual dominate: upsilon > 0
        ev = build_error_event(
            cfg, 2, x_l=-1.0, x_check_l=1.0, sic_detected=(-1.0,),
            sic_transmitted=(1.0,), interferers=(1.0,),
        )
        assert ev.mu == 0
        assert conditional_pep(ev, GGNoiseModel.normalized(2.0), 50.0) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_monotone_in_gain_for_constructive(self, alpha):
        _, ev = single_user_event(5.0, alpha)
        model = GGNoiseModel.normalized(alpha)
        hs = np.linspace(0.0, 5.0, 50)
        vals = [conditional_pep(ev, model, h) for h in hs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_gaussian_reduction(self):
        # alpha = 2: the incomplete-gamma branch must equal (1/2) erfc(lam h^2 |ups|)
        rng = np.random.default_rng(3)
        model = GGNoiseModel.normalized(2.0)
        for _ in range(50):
            cfg = three_user(float(rng.uniform(0.5, 200.0)))
            events = [ev for ev in enumerate_error_events(cfg, int(rng.integers(1, 4)))]
            ev = events[int(rng.integers(0, len(events)))]
            h = float(rng.uniform(0.01, 5.0))
            lam = DecisionNoise.from_event(ev, h).lambda_sub
            oracle = 0.5 * float(sps.erfc(lam * h * h * abs(ev.upsilon)))
            if ev.mu == 0:
                oracle = 1.0 - oracle
            assert conditional_pep(ev, model, h) == pytest.approx(oracle, abs=1e-10)


    def test_negative_gain_rejected(self):
        _, ev = single_user_event(10.0)
        with pytest.raises(DomainError, match="gain must be >= 0"):
            conditional_pep(ev, GGNoiseModel.normalized(2.0), -1e-300)

    def test_nan_gain_rejected_naming_h(self):
        _, ev = single_user_event(10.0)
        with pytest.raises(DomainError, match="gain must be >= 0, got h=nan"):
            conditional_pep(ev, GGNoiseModel.normalized(2.0), math.nan)

    def test_infinite_gain_is_the_limit(self):
        cfg = three_user(10.0)
        model = GGNoiseModel.normalized(2.0)
        values = {ev.mu: conditional_pep(ev, model, math.inf) for ev in enumerate_error_events(cfg, 3)}
        assert values == {1: 0.0, 0: 1.0}

    def test_decay_argument_overflow_is_exact(self):
        # (kappa h)^alpha overflows a double: the tail is exactly 0 and the
        # destructive PEP exactly 1
        cfg = SystemConfig(a=(0.7, 0.2, 0.1), gamma_bar=db(250.0), noise_alpha=20.0)
        model = GGNoiseModel.normalized(20.0)
        values = {ev.mu: conditional_pep(ev, model, 1e6) for ev in enumerate_error_events(cfg, 3)}
        assert values == {1: 0.0, 0: 1.0}


class TestDecisionNoise:
    def test_variance_relation(self):
        cfg = three_user(25.0)
        ev = build_error_event(cfg, 1, x_l=1.0, x_check_l=-1.0, interferers=(1.0, -1.0))
        dn = DecisionNoise.from_event(ev, 1.7)
        assert dn.sigma_N2 == pytest.approx(
            2.0 * 0.7 * 25.0 * 1.7**2 * ev.delta_check**2
        )
        assert dn.lambda_sub > 0.0

    def test_rejects_zero_gain(self):
        _, ev = single_user_event(10.0)
        with pytest.raises(DomainError):
            DecisionNoise.from_event(ev, 0.0)


class TestPepExact:
    def test_single_user_gaussian_oracle(self):
        _, ev = single_user_event(10.0)
        expected = 0.5 * (1.0 - math.sqrt(20.0 / 21.0))  # = 0.0120499...
        value = pep_exact(ev, GGNoiseModel.normalized(2.0)).value
        assert value == pytest.approx(expected, rel=1e-9, abs=0.0)
        assert value == pytest.approx(0.0120, abs=5e-5)

    def test_zero_snr_limit_is_half(self):
        for alpha in (0.5, 1.0, 2.0):
            cfg = three_user(1e-8, alpha)
            ev = canonical_event(cfg, 2)
            assert pep_exact(ev, GGNoiseModel.normalized(alpha)).value == pytest.approx(
                0.5, abs=1e-3
            )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 30.0, 40.0])
    def test_path_equivalence(self, alpha, snr_db):
        model = GGNoiseModel.normalized(alpha)
        cfg = three_user(db(snr_db), alpha)
        for l in (1, 2, 3):
            ev = canonical_event(cfg, l)
            exact = pep_exact(ev, model).value
            direct = pep_direct(ev, model).value
            assert direct == pytest.approx(exact, rel=1e-8, abs=0.0)

    def test_value_reconstructs_from_diagnostics(self):
        # the paper's term-wise T1/T2 sum agrees with pep_exact on a mu = 1
        # event and on a mu = 0 one (user 2 with user 1's symbol mis-detected)
        model = GGNoiseModel.normalized(1.0)
        cfg = three_user(db(10.0), 1.0)
        constructive = canonical_event(cfg, 2)
        destructive = build_error_event(
            cfg,
            2,
            x_l=1.0,
            x_check_l=-1.0,
            sic_detected=(1.0,),
            interferers=(1.0,),
            sic_transmitted=(-1.0,),
        )
        assert (constructive.mu, destructive.mu) == (1, 0)
        for ev in (constructive, destructive):
            res = pep_exact(ev, model)
            rebuilt = t1_t2_sum(ev, model.alpha, _kappa(ev, model.lambda0))
            assert rebuilt == pytest.approx(res.value, rel=1e-9, abs=0.0)
            assert res.method == "quadrature"

    def test_monotone_in_snr(self):
        model = GGNoiseModel.normalized(1.0)
        vals = []
        for snr_db in np.linspace(0.0, 40.0, 9):
            ev = canonical_event(three_user(db(snr_db), 1.0), 3)
            vals.append(pep_exact(ev, model).value)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_range(self):
        for alpha in (0.5, 1.0, 2.0):
            model = GGNoiseModel.normalized(alpha)
            cfg = three_user(db(20.0), alpha)
            for l in (1, 2, 3):
                for ev in enumerate_error_events(cfg, l):
                    v = pep_exact(ev, model).value
                    assert -1e-9 <= v <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "a,alpha,snr_db",
        [((0.34, 0.33, 0.33), 1.0, 80.0), ((0.45, 0.3, 0.25), 7.0, 120.0)],
    )
    def test_range_strict(self, a, alpha, snr_db):
        # high SNR puts destructive PEPs a hair below one: no slack above it
        model = GGNoiseModel.normalized(alpha)
        cfg = SystemConfig(a=a, gamma_bar=db(snr_db), noise_alpha=alpha)
        for l in (1, 2, 3):
            for ev in enumerate_error_events(cfg, l):
                assert 0.0 <= pep_exact(ev, model).value <= 1.0


    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("snr_db", [-10.0, 0.0])
    @pytest.mark.parametrize("L,l", [(L, l) for L in (20, 30, 60) for l in (1, L // 2, L)])
    def test_many_users_match_direct(self, L, l, snr_db, alpha):
        # the order statistic's distribution function is a sum of positive
        # terms; summed as alternating terms it missed pep_direct by 9e-11
        # at L = 20 and failed to converge at L = 30 and 60
        model = GGNoiseModel.normalized(alpha)
        cfg = SystemConfig(a=(1.0 / L,) * L, gamma_bar=db(snr_db), noise_alpha=alpha)
        ev = canonical_event(cfg, l)
        exact = pep_exact(ev, model)
        assert exact.method == "quadrature"
        assert abs(exact.value - pep_direct(ev, model).value) <= 1e-12

    def test_binomial_overflow_raises_domain_error(self):
        # C(1100, 550) and A_550 of 1100 users are beyond a double
        model = GGNoiseModel.normalized(2.0)
        cfg = SystemConfig(a=(1.0 / 1100,) * 1100, gamma_bar=db(10.0))
        ev = canonical_event(cfg, 550)
        for route in (pep_exact, pep_direct):
            with pytest.raises(DomainError, match="of 1100 users overflow"):
                route(ev, model)


def canonical_and_destructive(cfg, l):
    """User l's canonical (constructive) event and its first destructive
    one, where the user has one."""
    destructive = [ev for ev in enumerate_error_events(cfg, l) if not ev.mu]
    return [canonical_event(cfg, l)] + destructive[:1]


def engine_inputs(monkeypatch, ev, model, kappa=None):
    """(integrand, scale, end) that pep_exact's quadrature, then pep_direct,
    hand the engine for ev, at decay scale kappa where given. pep_exact's
    comes from its quadrature kernel, which it runs wherever it declines its
    high-SNR series."""
    seen = []

    def capture(f, scale, *, end):
        seen.append((f, scale, end))
        return QuadratureResult(0.5, 0.0)

    with monkeypatch.context() as patch:
        if kappa is not None:
            patch.setattr(noma_ggn.pep, "_kappa", lambda event, lam0: kappa)
        patch.setattr(noma_ggn.pep, "integrate_semi_infinite", capture)
        _constructive_value(ev, model.alpha, noma_ggn.pep._kappa(ev, model.lambda0))
        pep_direct(ev, model)
    return seen


class TestPepDirect:
    # alpha = 0.3 is shape 3.33, whose nodes fall on both sides of the
    # incomplete gamma's series/continued-fraction split
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.0, 4.0])
    def test_integrates_conditional_pep_times_density(self, monkeypatch, alpha):
        # the integrand pep_direct builds once per integral is the public
        # conditional PEP times the ordered-gain density, operation for
        # operation, integrated over the same panels: the same bits
        model = GGNoiseModel.normalized(alpha)
        for snr_db in range(-10, 121, 10):
            cfg = three_user(db(snr_db), alpha)
            for l in (1, 2, 3):
                for ev in canonical_and_destructive(cfg, l):
                    _, scale, end = engine_inputs(monkeypatch, ev, model)[1]
                    reference, _ = integrate_semi_infinite(
                        lambda w: conditional_pep(ev, model, w) * ordered_pdf(3, l, w),
                        scale,
                        end=end,
                    )
                    assert pep_direct(ev, model).value == reference


# pep_exact and pep_direct of canonical events, as computed before the
# constructive integrals ended at their underflow point:
# (alpha, SNR dB, user) -> (exact, direct)
UNTRIMMED_PINS = {
    (0.5, 20.0, 1): (0.001416457794334405, 0.0014164577943343941),
    (0.5, 20.0, 2): (0.0003925182960124275, 0.00039251829601242747),
    (0.5, 20.0, 3): (0.001104085856010604, 0.0011040858560106043),
    (1.0, 0.0, 1): (0.08739258876026722, 0.0873925887602672),
    (1.0, 0.0, 2): (0.09698862617477058, 0.09698862617477057),
    (1.0, 0.0, 3): (0.16799705051304537, 0.16799705051304548),
    (2.0, -10.0, 1): (0.30908008235287326, 0.3090800823528734),
    (2.0, -10.0, 2): (0.34137943022166867, 0.3413794302216686),
    (2.0, -10.0, 3): (0.39852414298873756, 0.39852414298873773),
    (4.0, -10.0, 1): (0.3355117784769236, 0.3355117784769236),
    (4.0, -10.0, 2): (0.3676050963104399, 0.36760509631043975),
    (4.0, -10.0, 3): (0.41725495513245436, 0.41725495513245436),
}


class TestConstructiveTrim:
    # from about -1000 dB to far above the benchmark's 120 dB
    KAPPAS = np.geomspace(1e-50, 1e7, 58).tolist()

    def integrals(self, monkeypatch, alpha, mu):
        """(integrand, scale, end, kappa, constructive) of every integral
        both routes hand the engine for the reference events with that mu,
        over KAPPAS; constructive says the integrand carries the gamma
        factor's exp(-(kappa w)^alpha) or Q(1/alpha, (kappa w)^alpha)."""
        model = GGNoiseModel.normalized(alpha)
        cfg = three_user(db(20.0), alpha)
        for l in (1, 2, 3):
            for ev in canonical_and_destructive(cfg, l):
                if ev.mu == mu:
                    for kappa in self.KAPPAS:
                        exact, direct = engine_inputs(monkeypatch, ev, model, kappa)
                        # pep_exact integrates the constructive integrand
                        # for either mu
                        yield (*exact, kappa, True)
                        yield (*direct, kappa, bool(mu))

    @staticmethod
    def assert_vanishes_from(f, end):
        assert 0.0 < end < math.inf
        for w in (end, end * (1.0 + 1e-12), 1.5 * end, 10.0 * end, 1e6 * end):
            assert f(w) == 0.0, (end, w)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_constructive_integrands_vanish_from_the_top_edge(self, monkeypatch, alpha):
        # an integral that carries the gamma factor ends at w_0, where that
        # factor underflows, or (pep_direct) where the density's
        # exp(-(L - l + 1) w^2 / 2) does, if that is nearer: the integrand is
        # exactly 0.0 at that end and beyond, so ending there drops no mass
        count = 0
        for mu in (0, 1):
            for f, scale, end, kappa, constructive in self.integrals(monkeypatch, alpha, mu):
                if constructive:
                    count += 1
                    assert scale == min(1.0, 1.0 / kappa)
                    assert end <= _underflow_arg(alpha) ** (1.0 / alpha) / kappa
                    self.assert_vanishes_from(f, end)
        # three constructive events by both routes, two destructive by pep_exact
        assert count == (3 * 2 + 2) * len(self.KAPPAS)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_destructive_integrands_vanish_from_their_end(self, monkeypatch, alpha):
        # a destructive pep_direct integral ends where the density's
        # exp(-(L - l + 1) w^2 / 2) underflows, whatever kappa is
        ends = {math.sqrt(2.0 * 745.2 / (3 - l + 1)) for l in (1, 2, 3)}
        count = 0
        for f, scale, end, kappa, constructive in self.integrals(monkeypatch, alpha, 0):
            if not constructive:
                count += 1
                assert scale == min(1.0, 1.0 / kappa)
                assert end in ends
                self.assert_vanishes_from(f, end)
        assert count == 2 * len(self.KAPPAS)

    def test_moved_edge_agrees_to_rounding(self):
        # each pinned integral now ends where its integrand is 0.0, on panels
        # in log1p(w), and no tail panel reaches past that end; the values
        # move by less than 2e-15 relative
        for (alpha, snr_db, l), pinned in UNTRIMMED_PINS.items():
            model = GGNoiseModel.normalized(alpha)
            ev = canonical_event(three_user(db(snr_db), alpha), l)
            values = (pep_exact(ev, model).value, pep_direct(ev, model).value)
            assert values == pytest.approx(pinned, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.02, 0.1, 0.3, 0.6, 0.75, 0.9, 1.5, 3.0, 20.0])
    def test_underflow_arg_bounds_the_zero_of_q(self, alpha):
        z = _underflow_arg(alpha)
        for t in (z, z * (1.0 + 1e-9), z + 1.0, 2.0 * z):
            assert math.exp(-t) == 0.0
            assert upper_incomplete_gamma_reg(1.0 / alpha, t) == 0.0


@st.composite
def series_events(draw):
    """(event, model) over 1-6 users, any user, alpha 0.3-8, -10 to 300 dB,
    an event of the drawn mu where the user has one."""
    L = draw(st.integers(1, 6))
    l = draw(st.integers(1, L))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=L, max_size=L))
    alpha = draw(st.floats(0.3, 8.0))
    cfg = split_config(weights, draw(st.floats(-10.0, 300.0)), alpha)
    mu = draw(st.integers(0, 1))
    events = [ev for ev in enumerate_error_events(cfg, l)]
    events = [ev for ev in events if ev.mu == mu] or events
    return events[draw(st.integers(0, len(events) - 1))], GGNoiseModel.normalized(alpha)


def series_example(weights, snr_db, alpha, l, mu):
    """A pinned example of series_events: user l's first event of that mu."""
    cfg = split_config(weights, snr_db, alpha)
    ev = next(ev for ev in enumerate_error_events(cfg, l) if ev.mu == mu)
    return example(drawn=(ev, GGNoiseModel.normalized(alpha)))


SIX_USERS = (0.4, 0.25, 0.15, 0.1, 0.06, 0.04)


class TestHighSnrSeries:
    # derandomized: the same examples, and about 1 s, in every run; the
    # pinned ones take the series: the first is where pep_mp's quadrature
    # missed its target before it followed the tail on a doubling ladder
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(drawn=series_events())
    @series_example((1.0,), 139.0, 2.0, 1, 1)
    @series_example(SIX_USERS, 60.0, 5.0, 4, 1)
    @series_example(SIX_USERS, 200.0, 0.7, 6, 0)
    def test_series_within_its_estimate_of_mpmath(self, drawn):
        # wherever pep_exact takes its series, the value is within its error
        # estimate of the PEP at the same decay scale, and within 1e-13 of
        # the PEP at the event's own (kappa in double is rounded, and the PEP
        # goes as kappa^(-2l)); a destructive value's estimate counts the
        # rounding of its 1 - c
        ev, model = drawn
        result = pep_exact(ev, model)
        if result.method != "series_high":
            return
        kappa = _kappa(ev, model.lambda0)
        if ev.mu:
            at_kappa, own = pep_mp(ev, kappa), pep_mp(ev)
        else:
            at_kappa = own = 1.0 - pep_mp(ev, kappa)
        assert abs(result.value - at_kappa) <= result.error_estimate
        assert result.value == pytest.approx(own, rel=1e-13, abs=0.0)

    def test_destructive_estimate_counts_the_rounding_of_one_minus(self):
        # the constructive c is 8.1e-109 with an estimate of 4.9e-123, and
        # 1 - c rounds to 1.0: the estimate must cover that rounding
        model = GGNoiseModel.normalized(0.7)
        cfg = split_config(SIX_USERS, 200.0, 0.7)
        ev = next(ev for ev in enumerate_error_events(cfg, 6) if not ev.mu)
        result = pep_exact(ev, model)
        assert result.method == "series_high" and result.value == 1.0
        c = pep_mp(ev, _kappa(ev, model.lambda0))
        assert c == pytest.approx(8.1e-109, rel=0.01)
        # value - 1.0 is exact, so this is the miss to within a rounding
        miss = abs((result.value - 1.0) + c)
        assert miss <= result.error_estimate

    @pytest.mark.parametrize(
        "alpha,snr_db", [(0.5, 0.0), (0.5, -1000.0), (2.0, -1000.0), (8.0, -1000.0)]
    )
    def test_declined_where_it_cannot_converge(self, alpha, snr_db):
        # at 0 dB and alpha = 0.5 the asymptotic series' terms rise before
        # they reach the tolerance; at -1000 dB 2 kappa^2 ~ 1e-100 and the
        # second term is ~1e100 times the first
        model = GGNoiseModel.normalized(alpha)
        cfg = three_user(db(snr_db), alpha)
        for l in (1, 2, 3):
            for ev in canonical_and_destructive(cfg, l):
                assert pep_exact(ev, model).method == "quadrature"
                kappa = _kappa(ev, model.lambda0)
                assert _constructive_series(3, l, alpha, kappa) is None
        # 2 kappa^2 underflows here: the terms' ratio is inf, not an exception
        assert _constructive_series(3, 2, alpha, 1e-300) is None

    def test_overflowing_kappa_is_the_limit_by_both_routes(self):
        model = GGNoiseModel.normalized(0.015)
        cfg = SystemConfig(a=(0.7, 0.2, 0.1), gamma_bar=db(2900.0), noise_alpha=0.015)
        for l in (1, 2, 3):
            for ev in canonical_and_destructive(cfg, l):
                assert _kappa(ev, model.lambda0) == math.inf
                limit = float(not ev.mu)
                assert pep_exact(ev, model) == PepResult(limit, "series_high", 0.0)
                assert pep_direct(ev, model) == PepResult(limit, "direct", 0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_diversity_order_is_the_user_index(self, alpha):
        # the series' first term goes as (2 kappa^2)^-l, kappa^2 as the SNR:
        # user l's diversity order is l at every alpha (the paper's claim)
        model = GGNoiseModel.normalized(alpha)
        for l in (1, 2, 3):
            curve = {}
            for snr_db in (100.0, 120.0):
                result = pep_exact(canonical_event(three_user(db(snr_db), alpha), l), model)
                assert result.method == "series_high"
                curve[snr_db] = result.value
            assert diversity_order(curve, (100.0, 120.0)).d_s == pytest.approx(l, rel=0.0, abs=1e-6)


class TestQuadratureDiagnostics:
    @pytest.mark.parametrize("snr_db", [-10.0, 20.0, 40.0])
    def test_error_estimate_meets_engine_tolerance(self, snr_db):
        # the engine stops at error <= 1e-10 of its integral; scaled like the
        # value, that is 1e-10 of the constructive PEP (one minus a
        # destructive one)
        model = GGNoiseModel.normalized(2.0)
        cfg = three_user(db(snr_db))
        for l in (1, 2, 3):
            for ev in canonical_and_destructive(cfg, l):
                exact, direct = pep_exact(ev, model), pep_direct(ev, model)
                constructive = exact.value if ev.mu else 1.0 - exact.value
                # besides the rounding of 1 - c that a destructive one counts
                rounding = 0.0 if ev.mu else 2.0**-53
                assert 0.0 <= exact.error_estimate - rounding <= 1.000001e-10 * constructive
                assert 0.0 <= direct.error_estimate <= 1.000001e-10 * direct.value
        closed = pep_closed_form(canonical_event(cfg, 3), 2.0)
        assert closed.error_estimate is None

    @pytest.mark.parametrize("route", [pep_exact, pep_direct], ids=["exact", "direct"])
    def test_unconverged_quadrature_names_event_and_best_estimate(self, monkeypatch, route):
        # at 0 dB pep_exact declines its high-SNR series for both events and
        # runs the quadrature
        model = GGNoiseModel.normalized(2.0)
        cfg = three_user(db(0.0))
        method = "quadrature" if route is pep_exact else "direct"
        for ev in canonical_and_destructive(cfg, 2):
            result = route(ev, model)
            assert result.method == method
            value = result.value
            with monkeypatch.context() as patch:
                patch.setattr(noma_ggn.specfun, "_MAX_SUBDIVISIONS", 0)
                with pytest.raises(QuadratureError) as info:
                    route(ev, model)
            err = info.value
            kappa = _kappa(ev, model.lambda0)
            for part in (
                f"{method} route", "user 2", f"gamma_bar {cfg.gamma_bar!r}",
                "alpha 2.0", f"mu {ev.mu}", f"kappa {kappa!r}",
            ):
                assert part in str(err)
            # the initial panels' estimate and error, on the PEP's scale: the
            # error is small next to the integral the route evaluates (one
            # minus a destructive value for pep_exact), covers the miss, and
            # is the engine's error scaled like its estimate
            flipped = route is pep_exact and not ev.mu
            integral = 1.0 - value if flipped else value
            assert 0.0 < err.error_estimate < 1e-3 * integral
            assert abs(err.best_estimate - value) <= err.error_estimate
            engine = err.__cause__
            best = 1.0 - err.best_estimate if flipped else err.best_estimate
            # a flipped estimate counts the rounding of 1 - c besides
            rounding = 2.0**-53 if flipped else 0.0
            assert (err.error_estimate - rounding) / engine.error_estimate == pytest.approx(
                best / engine.best_estimate, rel=1e-9
            )


class TestMpmathPins:
    @pytest.mark.parametrize("weights,alpha,snr_db,l", MISSED_POINTS)
    def test_constructive_events_match_mpmath(self, weights, alpha, snr_db, l):
        model = GGNoiseModel.normalized(alpha)
        # the PEP depends on an event only through kappa: one per distinct one
        events = {}
        for ev in enumerate_error_events(split_config(weights, snr_db, alpha), l):
            if ev.mu:
                events.setdefault(f"{_kappa(ev, model.lambda0):.12g}", ev)
        for ev in events.values():
            reference = pep_mp(ev)
            assert pep_exact(ev, model).value == pytest.approx(reference, rel=1e-10, abs=0.0)
            assert pep_direct(ev, model).value == pytest.approx(reference, rel=1e-10, abs=0.0)

    # at kappa ~ 1e-7 the integrand spreads to w ~ 1e8; a map of [0, inf) to
    # t = w / (1 + w) resolved w there to about 1e-16 / (1 - t) relative only
    # and missed by 2.3e-10, past this estimate
    def test_error_estimate_covers_miss_at_minus_130db(self):
        ev = canonical_event(three_user(db(-130.0)), 3)
        result = pep_exact(ev, GGNoiseModel.normalized(2.0))
        assert abs(result.value - pep_mp(ev)) <= result.error_estimate

    def test_constructive_pep_below_half_at_minus_180db(self):
        # that map returned 0.500000000229632 here, above the 1/2 that a
        # constructive PEP never reaches
        ev = canonical_event(three_user(db(-180.0)), 2)
        reference = pep_mp(ev)
        assert reference == pytest.approx(0.49999999947818, rel=0.0, abs=1e-14)
        value = pep_exact(ev, GGNoiseModel.normalized(2.0)).value
        assert value == pytest.approx(reference, rel=0.0, abs=1e-12)


def _found_examples(test):
    for weights, alpha, snr_db, l in MISSED_POINTS:
        test = example(weights=weights, alpha=alpha, snr_db=snr_db, l=l)(test)
    return test


_WEIGHTS = st.tuples(*[st.floats(0.01, 1.0)] * 3)


class TestPepProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        weights=_WEIGHTS,
        # the shapes whose incomplete gamma is elementary, besides the range
        alpha=st.floats(0.1, 20.0) | st.sampled_from([0.5, 1.0, 2.0]),
        snr_db=st.floats(-10.0, 120.0),
        l=st.integers(1, 3),
    )
    @_found_examples
    def test_routes_agree_in_range_and_monotone(self, weights, alpha, snr_db, l):
        model = GGNoiseModel.normalized(alpha)
        cfg = split_config(weights, snr_db, alpha)
        louder = dataclasses.replace(cfg, gamma_bar=db(snr_db + 5.0))
        for ev in enumerate_error_events(cfg, l):
            exact = pep_exact(ev, model).value
            assert pep_direct(ev, model).value == pytest.approx(exact, rel=1e-8, abs=0.0)
            assert 0.0 <= exact <= 1.0
            ev_louder = build_error_event(
                louder, l, ev.x_l, ev.x_check_l, ev.sic_detected, ev.interferers,
                ev.sic_transmitted,
            )
            louder_value = pep_exact(ev_louder, model).value
            # more SNR: a constructive PEP falls, a destructive one rises
            assert (louder_value <= exact) if ev.mu else (louder_value >= exact)

    @settings(max_examples=30, deadline=None)
    @given(
        weights=_WEIGHTS,
        alpha=st.floats(0.05, 70.0) | st.sampled_from([0.5, 1.0, 2.0]),
        snr_db=st.floats(-1000.0, 3000.0),
        l=st.integers(1, 3),
    )
    def test_constructive_pep_at_most_half(self, weights, alpha, snr_db, l):
        # the conditional PEP of a constructive event is at most 1/2 at every
        # gain, so its average is too, up to the quadrature's own estimate
        model = GGNoiseModel.normalized(alpha)
        ev = canonical_event(split_config(weights, snr_db, alpha), l)
        for route in (pep_exact, pep_direct):
            result = route(ev, model)
            assert 0.0 <= result.value <= 0.5 + result.error_estimate, route

    # up to 40 dB: above it the closed form's alternating sum cancels past
    # 1e-6 on some splits (test_closed_form_cancels_above_50db)
    @settings(max_examples=30, deadline=None)
    @given(
        weights=_WEIGHTS,
        alpha=st.sampled_from([1.0, 2.0]),
        snr_db=st.floats(-10.0, 40.0),
        l=st.integers(1, 3),
    )
    def test_closed_form_matches_quadrature(self, weights, alpha, snr_db, l):
        model = GGNoiseModel.normalized(alpha)
        for ev in enumerate_error_events(split_config(weights, snr_db, alpha), l):
            assert pep_closed_form(ev, alpha).value == pytest.approx(
                pep_exact(ev, model).value, rel=1e-6, abs=0.0
            )

    @pytest.mark.xfail(strict=True, reason="pep_closed_form's bracket sum cancels at high SNR")
    def test_closed_form_cancels_above_50db(self):
        model = GGNoiseModel.normalized(2.0)
        for ev in enumerate_error_events(split_config((0.4884, 0.402, 0.1096), 54.65, 2.0), 3):
            assert pep_closed_form(ev, 2.0).value == pytest.approx(
                pep_exact(ev, model).value, rel=1e-6, abs=0.0
            )


class TestClosedForm:
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 30.0, 40.0])
    def test_matches_quadrature(self, alpha, snr_db):
        model = GGNoiseModel.normalized(alpha)
        cfg = three_user(db(snr_db), alpha)
        for l in (1, 2, 3):
            ev = canonical_event(cfg, l)
            assert pep_closed_form(ev, alpha).value == pytest.approx(
                pep_exact(ev, model).value, rel=1e-6, abs=0.0
            )

    def test_laplacian_at_20db_tight(self):
        model = GGNoiseModel.normalized(1.0)
        cfg = three_user(db(20.0), 1.0)
        for l in (1, 2, 3):
            for ev in enumerate_error_events(cfg, l):
                assert pep_closed_form(ev, 1.0).value == pytest.approx(
                    pep_exact(ev, model).value, rel=1e-8, abs=0.0
                )

    @pytest.mark.parametrize("a", [(0.7, 0.2, 0.1), (0.5, 0.3, 0.2), (0.6, 0.25, 0.15)])
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_destructive_is_one_minus_constructive(self, a, alpha):
        # a destructive value is one minus its constructive sum at any SNR:
        # no cancellation past one part in 1e12
        model = GGNoiseModel.normalized(alpha)
        for snr_db in range(-10, 121, 10):
            cfg = SystemConfig(a=a, gamma_bar=db(snr_db), noise_alpha=alpha)
            for l in (1, 2, 3):
                for ev in enumerate_error_events(cfg, l):
                    if not ev.mu:
                        assert pep_closed_form(ev, alpha).value == pytest.approx(
                            pep_exact(ev, model).value, rel=1e-12, abs=0.0
                        )

    @pytest.mark.parametrize("tau", [0.0, 0.5, 3.0, 5.99, 6.01, 10.0, 25.5, 100.0, 1e8])
    def test_laplace_tail_matches_mpmath(self, tau):
        # 1 - sqrt(pi) tau exp(tau^2) erfc(tau) on both sides of the switch
        # to the asymptotic series at tau = 6, as a double and as a long double
        with mpmath.workdps(40):
            t = mpmath.mpf(tau)
            expected = float(1 - mpmath.sqrt(mpmath.pi) * t * mpmath.exp(t * t) * mpmath.erfc(t))
        for arg in (tau, np.longdouble(tau)):
            assert float(_laplace_tail(arg)) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_single_user_gaussian_oracle(self):
        _, ev = single_user_event(10.0)
        assert pep_closed_form(ev, 2.0).value == pytest.approx(
            0.5 * (1.0 - math.sqrt(20.0 / 21.0)), rel=1e-12
        )

    def test_near_zero_snr_limit(self):
        for alpha in (1.0, 2.0):
            ev = canonical_event(three_user(1e-8, alpha), 2)
            assert pep_closed_form(ev, alpha).value == pytest.approx(0.5, abs=1e-3)

    def test_rejects_other_alpha(self):
        _, ev = single_user_event(10.0)
        with pytest.raises(DomainError):
            pep_closed_form(ev, 1.5)

    def test_method_tags(self):
        assert pep_closed_form(single_user_event(10.0, 1.0)[1], 1.0).method == "closed_alpha1"
        assert pep_closed_form(single_user_event(10.0, 2.0)[1], 2.0).method == "closed_alpha2"

    def test_gaussian_cross_check(self):
        # independently coded: PEP = int (1/2) erfc(kappa w) f_l(w) dw with
        # scipy quadrature and the order-statistics density written inline
        cfg = three_user(db(20.0))
        model = GGNoiseModel.normalized(2.0)
        L = 3
        for l in (1, 2, 3):
            ev = canonical_event(cfg, l)
            kappa = abs(ev.upsilon) / (
                2.0 * math.sqrt(cfg.a[l - 1] * cfg.gamma_bar) * abs(ev.delta_check)
            )
            a_l = math.factorial(L) / (math.factorial(l - 1) * math.factorial(L - l))

            def f(w):
                dens = (
                    a_l * w * math.exp(-(L - l + 1) * w * w / 2.0)
                    * (1.0 - math.exp(-w * w / 2.0)) ** (l - 1)
                )
                return 0.5 * sps.erfc(kappa * w) * dens

            oracle, _ = si.quad(f, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12)
            assert pep_exact(ev, model).value == pytest.approx(oracle, rel=1e-9, abs=0.0)


class TestMeijerOracles:
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_laplacian_identity(self, tau):
        # G^{2,1}_{1,2}(tau^2 | 1/2; 0, 1/2) = pi exp(tau^2) erfc(tau)
        g = mpmath.meijerg([[0.5], []], [[0.0, 0.5], []], tau * tau)
        assert float(g) == pytest.approx(
            math.pi * math.exp(tau * tau) * math.erfc(tau), rel=1e-12
        )

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_gaussian_identity(self, tau):
        # G^{1,1}_{1,1}(4 tau^2 | 1/2; 0) = Gamma(1/2) (4 tau^2 + 1)^(-1/2)
        g = mpmath.meijerg([[0.5], []], [[0.0], []], 4.0 * tau * tau)
        assert float(g) == pytest.approx(
            math.gamma(0.5) / math.sqrt(4.0 * tau * tau + 1.0), rel=1e-12
        )


class TestUnionBound:
    def test_single_user_equals_pep(self):
        cfg, ev = single_user_event(10.0)
        model = GGNoiseModel.normalized(2.0)
        result = union_bound(cfg, model, 1)
        assert result.q == 1
        assert result.p_ub == pytest.approx(pep_exact(ev, model).value, rel=1e-12, abs=0.0)

    def test_sign_flip_symmetry(self):
        cfg = three_user(db(15.0))
        model = GGNoiseModel.normalized(2.0)
        for l in (1, 2, 3):
            result = union_bound(cfg, model, l)
            pair = {(x, xc): p for x, xc, _, p in result.contributions}
            for (x, xc), p in pair.items():
                assert pair[(-x, -xc)] == pytest.approx(p, rel=1e-12, abs=0.0)

    def test_bound_reconstructs_and_dominates_contributions(self):
        model = GGNoiseModel.normalized(1.0)
        cfg = three_user(db(20.0), 1.0)
        result = union_bound(cfg, model, 2)
        pr_x = 1.0 / len(cfg.constellation)
        rebuilt = sum(pr_x * e * p for _, _, e, p in result.contributions) / result.q
        assert result.p_ub == pytest.approx(rebuilt, rel=1e-12, abs=0.0)
        assert result.p_ub >= max(
            pr_x * e * p / result.q for _, _, e, p in result.contributions
        )


    def test_zero_snr_is_half(self):
        # at gamma_bar = 0 every assignment is a boundary one (X = zeta = 0)
        cfg = SystemConfig(a=(0.7, 0.2, 0.1), gamma_bar=0.0)
        for l in (1, 2, 3):
            result = union_bound(cfg, GGNoiseModel.normalized(2.0), l)
            assert result.p_ub == 0.5
            assert [p for *_, p in result.contributions] == [0.5, 0.5]

    def test_class_weights_sum_to_one_with_boundary(self, monkeypatch):
        # a2 = a3: 4 of user 2's 16 assignments have zeta = -X; with every
        # PEP at 1/2 a pair probability is 1/2 only if the class's weights,
        # boundary assignments included, sum to 1
        cfg = SystemConfig(a=(0.5, 0.25, 0.25), gamma_bar=db(20.0))
        assert len(enumerate_error_events(cfg, 2)) == 12
        monkeypatch.setattr(
            noma_ggn.pep, "pep_exact", lambda ev, model: PepResult(0.5, "quadrature")
        )
        for l in (1, 2, 3):
            result = union_bound(cfg, GGNoiseModel.normalized(2.0), l)
            assert [p for *_, p in result.contributions] == [0.5, 0.5]


class TestNoiseMatchesConfig:
    @pytest.mark.parametrize(
        "model",
        [GGNoiseModel.normalized(1.0), GGNoiseModel(2.0, sigma2=4.0)],
        ids=["other_alpha", "other_variance"],
    )
    def test_mismatched_model_rejected(self, model):
        cfg = three_user(db(10.0), 2.0)
        ev = canonical_event(cfg, 2)
        calls = [
            lambda: conditional_pep(ev, model, 1.0),
            lambda: pep_exact(ev, model),
            lambda: pep_direct(ev, model),
            lambda: union_bound(cfg, model, 2),
            lambda: estimate_pep_mc([ev], model, trials=10, seed=1),
            lambda: simulate_ber([cfg], model, trials=10, seed=1),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="noise_alpha"):
                call()

    def test_closed_form_alpha_must_match(self):
        ev = canonical_event(three_user(db(10.0), 2.0), 2)
        with pytest.raises(DomainError, match="noise_alpha"):
            pep_closed_form(ev, 1.0)


class TestDiversity:
    def test_exact_power_law(self):
        curve = {db_pt: db(db_pt) ** -2.0 for db_pt in (60.0, 80.0)}
        est = diversity_order(curve, (60.0, 80.0))
        assert est.d_s == pytest.approx(2.0, abs=1e-12)
        assert est.snr_window == (60.0, 80.0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_reference_config_slopes(self, alpha):
        for l in (1, 2, 3):
            curve = {
                snr_db: pep_closed_form(
                    canonical_event(three_user(db(snr_db), alpha), l), alpha
                ).value
                for snr_db in (60.0, 80.0)
            }
            est = diversity_order(curve, (60.0, 80.0))
            assert abs(est.d_s - l) <= 0.25

    def test_zero_pep_raises(self):
        with pytest.raises(NumericFailure):
            diversity_order({60.0: 1e-3, 80.0: 0.0}, (60.0, 80.0))

    def test_bad_window(self):
        with pytest.raises(DomainError):
            diversity_order({60.0: 1e-3, 80.0: 1e-4}, (80.0, 60.0))
        with pytest.raises(DomainError):
            diversity_order({60.0: 1e-3}, (60.0, 80.0))


class TestCanonicalEvent:
    def test_structure(self):
        cfg = three_user(100.0)
        ev = canonical_event(cfg, 2)
        assert ev.x_l == 1.0 and ev.x_check_l == -1.0
        assert ev.sic_detected == (1.0,) and ev.sic_transmitted == (1.0,)
        assert ev.interferers == (1.0,)
        assert ev.mu == 1
