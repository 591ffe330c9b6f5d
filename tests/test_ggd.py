"""Generalized Gaussian noise model: constants, density, exact sampler."""

import math

import mpmath
import numpy as np
import pytest
import scipy.stats as st

from noma_ggn.ggd import GGNoiseModel, lambda0, stream_rng
from noma_ggn.specfun import DomainError, integrate_semi_infinite


class TestLambda0:
    @pytest.mark.parametrize("alpha,expected", [(2.0, 0.5), (1.0, 2.0), (0.5, 120.0)])
    def test_known_values(self, alpha, expected):
        assert lambda0(alpha) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf])
    def test_domain(self, alpha):
        with pytest.raises(DomainError):
            lambda0(alpha)

    # Gamma(3/alpha)/Gamma(1/alpha) passes the largest double below alpha
    # ~ 0.0139; at 1e-310, 1/alpha itself overflows
    @pytest.mark.parametrize("alpha", [0.013, 0.01, 1e-300, 1e-310])
    def test_overflow_is_a_domain_error(self, alpha):
        with pytest.raises(DomainError, match=f"alpha={alpha!r}"):
            lambda0(alpha)

    def test_smallest_shapes_stay_finite(self):
        assert lambda0(0.014) == pytest.approx(
            float(mpmath.gamma(3 / mpmath.mpf(0.014)) / mpmath.gamma(1 / mpmath.mpf(0.014))),
            rel=1e-11,
        )


class TestModel:
    def test_gaussian_origin_density(self):
        model = GGNoiseModel(alpha=2.0, sigma2=1.0)
        assert model.pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_laplace_origin_density(self):
        model = GGNoiseModel(alpha=1.0, sigma2=1.0)
        assert model.lam == pytest.approx(math.sqrt(2.0), rel=1e-13)
        assert model.pdf(0.0) == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_symmetry(self, alpha):
        model = GGNoiseModel(alpha=alpha, sigma2=2.3)
        n = np.linspace(-4.0, 4.0, 17)
        np.testing.assert_array_equal(model.pdf(n), model.pdf(-n))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_normalization_and_variance(self, alpha):
        # even density: integrate over [0, inf) and double
        model = GGNoiseModel(alpha=alpha, sigma2=1.7)
        # exp(-(lam n)^alpha) is 0.0 in double from (lam n)^alpha = 745.2 on
        scale, end = 1.0 / model.lam, 745.2 ** (1.0 / alpha) / model.lam
        mass, _ = integrate_semi_infinite(lambda n: float(model.pdf(n)), scale, end=end)
        var, _ = integrate_semi_infinite(lambda n: n * n * float(model.pdf(n)), scale, end=end)
        assert 2.0 * mass == pytest.approx(1.0, abs=1e-9)
        assert 2.0 * var == pytest.approx(model.sigma2, abs=1e-8)

    def test_normalized_constructor(self):
        model = GGNoiseModel.normalized(1.3)
        assert model.sigma2 == 1.0
        assert model.lam == pytest.approx(math.sqrt(model.lambda0), rel=1e-15)

    @pytest.mark.parametrize("alpha,sigma2", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0)])
    def test_domain(self, alpha, sigma2):
        with pytest.raises(DomainError):
            GGNoiseModel(alpha=alpha, sigma2=sigma2)


class TestSampler:
    def test_gaussian_variance(self):
        model = GGNoiseModel(alpha=2.0, sigma2=1.0)
        x = model.sample(stream_rng(7), size=10**6)
        assert 0.99 <= float(np.var(x)) <= 1.01

    def test_laplace_mean_abs(self):
        model = GGNoiseModel(alpha=1.0, sigma2=1.0)
        x = model.sample(stream_rng(8), size=10**6)
        assert float(np.mean(np.abs(x))) == pytest.approx(1.0 / math.sqrt(2.0), rel=0.01)

    def test_determinism(self):
        model = GGNoiseModel(alpha=0.8, sigma2=1.0)
        a = model.sample(stream_rng(11, 3), size=1000)
        b = model.sample(stream_rng(11, 3), size=1000)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 0.3, 4.0])
    @pytest.mark.parametrize("size", [7, pytest.param((1000, 3), id="size2")])
    def test_in_place_draws_match_formula(self, alpha, size):
        # sign * G**(1/alpha) / lam from the same stream, bit for bit, with
        # and without out
        model = GGNoiseModel(alpha=alpha, sigma2=0.5)
        rng = stream_rng(4, 1)
        g = rng.standard_gamma(1.0 / alpha, size=size)
        expected = (rng.integers(0, 2, size=size) * 2 - 1) * g ** (1.0 / alpha) / model.lam
        fresh = model.sample(stream_rng(4, 1), size=size)
        np.testing.assert_array_equal(fresh.view(np.int64), expected.view(np.int64))
        out = np.empty(size)
        assert model.sample(stream_rng(4, 1), size=size, out=out) is out
        np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))

    def test_streams_differ(self):
        model = GGNoiseModel(alpha=2.0, sigma2=1.0)
        a = model.sample(stream_rng(11, 0), size=1000)
        b = model.sample(stream_rng(11, 1), size=1000)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_histogram_matches_density(self, alpha):
        model = GGNoiseModel.normalized(alpha)
        x = model.sample(stream_rng(21), size=10**6)

        def cdf(v):
            # F(v) = 1/2 + sign(v)/2 * P(1/alpha, (lam |v|)^alpha)
            import scipy.special as sps

            return 0.5 + 0.5 * np.sign(v) * sps.gammainc(
                1.0 / alpha, (model.lam * np.abs(v)) ** alpha
            )

        lo, hi = np.quantile(x, [0.001, 0.999])
        counts, edges = np.histogram(x, bins=50, range=(lo, hi))
        expected = np.diff(cdf(edges)) * x.size
        keep = expected > 20.0
        chi2 = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))
        crit = st.chi2.ppf(0.999, df=int(keep.sum()) - 1)
        assert chi2 < crit

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_gamma_transform(self, alpha):
        model = GGNoiseModel.normalized(alpha)
        x = model.sample(stream_rng(31), size=10**6)
        g = (model.lam * np.abs(x)) ** alpha
        ks = st.kstest(g, st.gamma(a=1.0 / alpha).cdf).statistic
        assert ks < 0.002
