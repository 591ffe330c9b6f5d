"""Analytic PEP routes, union bound and diversity slope."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sps

from noma_ggn import (
    GGNoiseModel,
    NumericFailure,
    SystemConfig,
    build_error_event,
    canonical_event,
    conditional_pep,
    diversity_order,
    enumerate_error_events,
    pep_closed_form,
    pep_direct,
    pep_exact,
    union_bound,
)
from noma_ggn.pep import _kappa, _t1_t2_sum
from noma_ggn.specfun import DomainError
from oracles import DecisionNoise


def three_user(gamma_bar, alpha=2.0):
    return SystemConfig(a=(0.7, 0.2, 0.1), gamma_bar=gamma_bar, noise_alpha=alpha)


def single_user_event(gamma_bar):
    cfg = SystemConfig(a=(1.0,), gamma_bar=gamma_bar)
    return cfg, build_error_event(cfg, 1, x_l=1.0, x_check_l=-1.0)


def db(v):
    return 10.0 ** (v / 10.0)


class TestConditionalPep:
    def test_zero_gain_is_half(self):
        _, ev = single_user_event(10.0)
        for alpha in (0.5, 1.0, 2.0, 3.7):
            assert conditional_pep(ev, GGNoiseModel.normalized(alpha), 0.0) == 0.5

    def test_constructive_vanishes_at_high_gain(self):
        _, ev = single_user_event(10.0)
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
        _, ev = single_user_event(5.0)
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
            events = [ev for ev, _ in enumerate_error_events(cfg, int(rng.integers(1, 4)))]
            ev = events[int(rng.integers(0, len(events)))]
            h = float(rng.uniform(0.01, 5.0))
            lam = DecisionNoise.from_event(ev, h).lambda_sub
            oracle = 0.5 * float(sps.erfc(lam * h * h * abs(ev.upsilon)))
            if ev.mu == 0:
                oracle = 1.0 - oracle
            assert conditional_pep(ev, model, h) == pytest.approx(oracle, abs=1e-10)


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
        assert value == pytest.approx(expected, rel=1e-9)
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
            assert direct == pytest.approx(exact, rel=1e-8)

    def test_value_reconstructs_from_diagnostics(self):
        # the term-wise T1/T2 sum (pep_exact's mu = 0 route) and the combined
        # constructive integrand (its mu = 1 route) agree on a mu = 1 event
        model = GGNoiseModel.normalized(1.0)
        cfg = three_user(db(10.0), 1.0)
        ev = canonical_event(cfg, 2)
        assert ev.mu == 1
        res = pep_exact(ev, model)
        rebuilt = _t1_t2_sum(ev, model.alpha, _kappa(ev, model.lambda0))
        assert rebuilt == pytest.approx(res.value, rel=1e-9)
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
                for ev, _ in enumerate_error_events(cfg, l):
                    v = pep_exact(ev, model).value
                    assert -1e-9 <= v <= 1.0 + 1e-9


class TestClosedForm:
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 30.0, 40.0])
    def test_matches_quadrature(self, alpha, snr_db):
        model = GGNoiseModel.normalized(alpha)
        cfg = three_user(db(snr_db), alpha)
        for l in (1, 2, 3):
            ev = canonical_event(cfg, l)
            assert pep_closed_form(ev, alpha).value == pytest.approx(
                pep_exact(ev, model).value, rel=1e-6
            )

    def test_laplacian_at_20db_tight(self):
        model = GGNoiseModel.normalized(1.0)
        cfg = three_user(db(20.0), 1.0)
        for l in (1, 2, 3):
            for ev, _ in enumerate_error_events(cfg, l):
                assert pep_closed_form(ev, 1.0).value == pytest.approx(
                    pep_exact(ev, model).value, rel=1e-8
                )

    def test_single_user_gaussian_oracle(self):
        _, ev = single_user_event(10.0)
        assert pep_closed_form(ev, 2.0).value == pytest.approx(
            0.5 * (1.0 - math.sqrt(20.0 / 21.0)), rel=1e-12
        )

    def test_near_zero_snr_limit(self):
        cfg = three_user(1e-8)
        ev = canonical_event(cfg, 2)
        for alpha in (1.0, 2.0):
            assert pep_closed_form(ev, alpha).value == pytest.approx(0.5, abs=1e-3)

    def test_rejects_other_alpha(self):
        _, ev = single_user_event(10.0)
        with pytest.raises(DomainError):
            pep_closed_form(ev, 1.5)

    def test_method_tags(self):
        _, ev = single_user_event(10.0)
        assert pep_closed_form(ev, 1.0).method == "closed_alpha1"
        assert pep_closed_form(ev, 2.0).method == "closed_alpha2"

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
            assert pep_exact(ev, model).value == pytest.approx(oracle, rel=1e-9)


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
        assert result.p_ub == pytest.approx(pep_exact(ev, model).value, rel=1e-12)

    def test_sign_flip_symmetry(self):
        cfg = three_user(db(15.0))
        model = GGNoiseModel.normalized(2.0)
        for l in (1, 2, 3):
            result = union_bound(cfg, model, l)
            pair = {(x, xc): p for x, xc, _, p in result.contributions}
            for (x, xc), p in pair.items():
                assert pair[(-x, -xc)] == pytest.approx(p, rel=1e-12)

    def test_bound_reconstructs_and_dominates_contributions(self):
        model = GGNoiseModel.normalized(1.0)
        cfg = three_user(db(20.0), 1.0)
        result = union_bound(cfg, model, 2)
        pr_x = 1.0 / len(cfg.constellation)
        rebuilt = sum(pr_x * e * p for _, _, e, p in result.contributions) / result.q
        assert result.p_ub == pytest.approx(rebuilt, rel=1e-12)
        assert result.p_ub >= max(
            pr_x * e * p / result.q for _, _, e, p in result.contributions
        )


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
