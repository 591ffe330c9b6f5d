"""Special functions and semi-infinite quadrature."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sps

from noma_ggn.ggd import lambda0
from noma_ggn.specfun import (
    DomainError,
    QuadratureError,
    QuadratureSpec,
    erfcx,
    integrate_semi_infinite,
    lower_incomplete_gamma_reg,
    upper_incomplete_gamma_reg,
)


def erf_series(x: float) -> float:
    """Independent Taylor-series erf oracle.

    The alternating series cancels catastrophically in doubles beyond
    |x| ~ 3, so the partial sums are carried in 50-digit arithmetic.
    """
    with mpmath.workdps(50):
        z = mpmath.mpf(x)
        total = mpmath.mpf(0)
        term = z
        n = 0
        while abs(term) > mpmath.mpf("1e-40") * max(abs(total), mpmath.mpf(1)):
            total += term / (2 * n + 1)
            n += 1
            term *= -z * z / n
        return float(2 / mpmath.sqrt(mpmath.pi) * total)


class TestLnGamma:
    # the package takes log-gamma from math.lgamma (lambda0, the incomplete
    # gammas, the PEP prefactor) and validates the shape alpha where it enters
    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.5, math.log(math.sqrt(math.pi))),
            (3.0, math.log(2.0)),
            (1.0, 0.0),
        ],
    )
    def test_known_values(self, x, expected):
        assert math.lgamma(x) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("x", np.geomspace(1e-3, 170, 40))
    def test_accuracy_range(self, x):
        assert math.lgamma(x) == pytest.approx(float(sps.gammaln(x)), rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            lambda0(x)


class TestIncompleteGamma:
    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 2.5, 10.0])
    def test_shape_one_is_exponential_cdf(self, x):
        assert lower_incomplete_gamma_reg(1.0, x) == pytest.approx(
            -math.expm1(-x), rel=1e-12, abs=1e-300
        )

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0, 3.0])
    def test_half_shape_is_erf(self, z):
        assert lower_incomplete_gamma_reg(0.5, z * z) == pytest.approx(
            erf_series(z), rel=1e-12
        )

    def test_half_shape_at_one(self):
        assert lower_incomplete_gamma_reg(0.5, 1.0) == pytest.approx(
            0.8427007929, abs=1e-9
        )

    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_against_quadrature(self, a, x):
        # integrate the gamma density on [0, x] with an independent quadrature
        integral, err = si.quad(
            lambda t: t ** (a - 1.0) * math.exp(-t) / math.gamma(a),
            0.0,
            x,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        assert err < 1e-10
        assert lower_incomplete_gamma_reg(a, x) == pytest.approx(integral, abs=1e-9)

    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0, 7.5])
    @pytest.mark.parametrize("x", [0.0, 0.05, 0.8, 3.0, 40.0, 700.0])
    def test_complementarity_and_limits(self, a, x):
        p = lower_incomplete_gamma_reg(a, x)
        q = upper_incomplete_gamma_reg(a, x)
        assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0
        assert p + q == pytest.approx(1.0, abs=1e-12)
        assert p == pytest.approx(float(sps.gammainc(a, x)), rel=1e-12, abs=1e-300)
        assert q == pytest.approx(float(sps.gammaincc(a, x)), rel=1e-12, abs=1e-300)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 20.0, 200)
        vals = [lower_incomplete_gamma_reg(0.4, x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0
        assert lower_incomplete_gamma_reg(0.4, 1e4) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("a,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)])
    def test_domain(self, a, x):
        with pytest.raises(DomainError):
            lower_incomplete_gamma_reg(a, x)


class TestErfc:
    # the package takes erfc from math.erfc, directly and inside erfcx
    def test_known_values(self):
        assert math.erfc(0.0) == 1.0
        assert math.erfc(40.0) == 0.0  # double underflow: the +inf limit
        assert math.erfc(1.0) == pytest.approx(0.1572992071, abs=1e-9)

    @pytest.mark.parametrize("x", np.linspace(-5.0, 5.0, 21))
    def test_reflection_and_series(self, x):
        assert math.erfc(-x) == pytest.approx(2.0 - math.erfc(x), abs=1e-12)
        assert math.erfc(x) + erf_series(x) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            erfcx(math.nan)


class TestErfcx:
    @pytest.mark.parametrize("x", [-10.0, -1.0, 0.0, 0.5, 5.0, 24.9, 25.5, 100.0, 1e8])
    def test_against_scipy(self, x):
        assert erfcx(x) == pytest.approx(float(sps.erfcx(x)), rel=1e-13)

    def test_large_negative_overflows_to_inf(self):
        assert erfcx(-30.0) == math.inf

    def test_matches_definition_in_safe_range(self):
        for x in np.linspace(0.0, 20.0, 41):
            assert erfcx(x) == pytest.approx(math.exp(x * x) * math.erfc(x), rel=1e-12)


class TestQuadrature:
    @pytest.mark.parametrize(
        "f,expected",
        [
            (lambda x: math.exp(-x), 1.0),
            (lambda x: x * math.exp(-0.5 * x * x), 1.0),
            (lambda x: math.exp(-x * x), math.sqrt(math.pi) / 2.0),
        ],
    )
    def test_known_integrals(self, f, expected):
        value, err = integrate_semi_infinite(f)
        assert value == pytest.approx(expected, rel=1e-10)
        assert err <= max(1e-12, 1e-10 * abs(value))

    @pytest.mark.parametrize("split", [0.3, 1.0, 7.5])
    def test_split_domain_invariance(self, split):
        f = lambda x: math.exp(-x) * math.cos(x)  # noqa: E731
        whole, _ = integrate_semi_infinite(f)
        left, _ = integrate_semi_infinite(lambda x: f(x) if x < split else 0.0)
        right, _ = integrate_semi_infinite(lambda x: f(x) if x >= split else 0.0)
        assert left + right == pytest.approx(whole, abs=1e-9)

    def test_sharp_decay_scales(self):
        # mass concentrated near zero must not be missed by coarse panels
        for c in (1e3, 1e9, 1e12):
            value, _ = integrate_semi_infinite(lambda x: c * math.exp(-c * x))
            assert value == pytest.approx(1.0, rel=1e-9)

    def test_deterministic(self):
        f = lambda x: math.exp(-x) / (1.0 + x * x)  # noqa: E731
        assert integrate_semi_infinite(f) == integrate_semi_infinite(f)

    def test_nonconvergence_reports_best_estimate(self):
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-16, max_subdivisions=2)
        with pytest.raises(QuadratureError) as exc_info:
            integrate_semi_infinite(lambda x: math.exp(-x) * math.sin(50.0 * x), spec)
        err = exc_info.value
        assert math.isfinite(err.best_estimate)
        assert err.error_estimate > 0.0

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)
