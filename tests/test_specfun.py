"""Special functions and semi-infinite quadrature."""

import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sps

from noma_ggn import specfun
from noma_ggn.ggd import lambda0
from noma_ggn.specfun import (
    DomainError,
    QuadratureError,
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

    # the elementary shapes a = 1/2, 1, 2 (alpha = 2, 1, 1/2) and P(2, .)'s
    # series, on both sides of the series/continued-fraction switch at
    # x = a + 1. rel 1e-13 of the value, or of the smallest normal double
    # where Q is subnormal (x above about 705); erfc(sqrt(x)) inherits up to
    # x * 2**-52 relative from the rounding of sqrt(x).
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "x",
        [1e-300, 1e-100, 1e-8, 0.3, 1.4999, 1.5, 1.5001, 1.9999, 2.0, 2.0001,
         2.9999, 3.0, 3.0001, 25.0, 483.0, 700.0, 740.0],
    )
    def test_elementary_shapes_against_mpmath(self, a, x):
        with mpmath.workdps(40):
            p = float(mpmath.gammainc(a, 0, x, regularized=True))
            q = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
        floor = 1e-13 * sys.float_info.min
        assert lower_incomplete_gamma_reg(a, x) == pytest.approx(p, rel=1e-13, abs=floor)
        assert upper_incomplete_gamma_reg(a, x) == pytest.approx(q, rel=1e-13, abs=floor)

    # x near a needs about sqrt(a) terms, past the iteration cap here; the
    # truncated series used to return 0.341 at (1e8, 1e8) (scipy: 0.50001),
    # and a = 1e16 divided by zero in the continued fraction
    @pytest.mark.parametrize(
        "fn,a,x,method",
        [
            (lower_incomplete_gamma_reg, 1e8, 1e8, "series"),
            (upper_incomplete_gamma_reg, 1e10, 1e10 + 1.0, "continued fraction"),
            (upper_incomplete_gamma_reg, 1e16, 1e16, "continued fraction"),
        ],
    )
    def test_unconverged_expansion_raises(self, fn, a, x, method):
        with pytest.raises(DomainError, match=f"{method} not converged") as exc_info:
            fn(a, x)
        assert f"a={a!r}, x={x!r}" in str(exc_info.value)

    @pytest.mark.parametrize("a,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)])
    def test_domain(self, a, x):
        with pytest.raises(DomainError):
            lower_incomplete_gamma_reg(a, x)

    @pytest.mark.parametrize("fn", [lower_incomplete_gamma_reg, upper_incomplete_gamma_reg])
    @pytest.mark.parametrize(
        "a,x,message",
        [
            (math.nan, 1.0, "a must be finite, got nan"),
            (math.inf, -1.0, "a must be finite, got inf"),
            (0.5, math.nan, "x must be finite, got nan"),
            (1.0, math.inf, "x must be finite, got inf"),
            (-0.0, 1.0, "shape parameter must be positive, got -0.0"),
            (2.0, -1e-300, "argument must be nonnegative, got -1e-300"),
        ],
    )
    def test_domain_messages(self, fn, a, x, message):
        # valid arguments skip the checks; invalid ones get them all, in order
        with pytest.raises(DomainError) as exc_info:
            fn(a, x)
        assert str(exc_info.value) == message

    # the kernels the PEP integrands call at every node, one pair per
    # shape, are the public functions bit for bit: at x = 0, the tiniest and
    # largest arguments, and on both sides of the series/continued-fraction
    # split at x = a + 1
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0, 3.3])
    def test_kernels_equal_the_public_functions(self, a):
        lower, upper = specfun._incomplete_gamma_kernels(a)
        split = a + 1.0
        for x in (0.0, math.nextafter(split, 0.0), split, math.nextafter(split, math.inf),
                  1e-300, 700.0):
            assert lower(x) == lower_incomplete_gamma_reg(a, x), x
            assert upper(x) == upper_incomplete_gamma_reg(a, x), x

    @pytest.mark.parametrize("fn", [lower_incomplete_gamma_reg, upper_incomplete_gamma_reg])
    def test_negative_zero_argument_is_zero(self, fn):
        assert fn(0.25, -0.0) == fn(0.25, 0.0)


class TestErfc:
    # the package takes erfc from math.erfc
    def test_known_values(self):
        assert math.erfc(0.0) == 1.0
        assert math.erfc(40.0) == 0.0  # double underflow: the +inf limit
        assert math.erfc(1.0) == pytest.approx(0.1572992071, abs=1e-9)

    @pytest.mark.parametrize("x", np.linspace(-5.0, 5.0, 21))
    def test_reflection_and_series(self, x):
        assert math.erfc(-x) == pytest.approx(2.0 - math.erfc(x), abs=1e-12)
        assert math.erfc(x) + erf_series(x) == pytest.approx(1.0, abs=1e-12)


class TestQuadrature:
    # the integrands below are exactly 0.0 in double from x = 745.2 on, where
    # exp(-x) has underflowed (from x = 745.1332...), if not before
    @pytest.mark.parametrize(
        "f,expected",
        [
            (lambda x: math.exp(-x), 1.0),
            (lambda x: x * math.exp(-0.5 * x * x), 1.0),
            (lambda x: math.exp(-x * x), math.sqrt(math.pi) / 2.0),
        ],
    )
    def test_known_integrals(self, f, expected):
        value, err = integrate_semi_infinite(f, 1.0, end=745.2)
        assert value == pytest.approx(expected, rel=1e-10)
        assert err <= max(1e-12, 1e-10 * abs(value))

    @pytest.mark.parametrize("split", [0.3, 1.0, 7.5])
    def test_split_domain_invariance(self, split):
        f = lambda x: math.exp(-x) * math.cos(x)  # noqa: E731
        whole, _ = integrate_semi_infinite(f, 1.0, end=745.2)
        left, _ = integrate_semi_infinite(lambda x: f(x) if x < split else 0.0, 1.0, end=745.2)
        right, _ = integrate_semi_infinite(lambda x: f(x) if x >= split else 0.0, 1.0, end=745.2)
        assert left + right == pytest.approx(whole, abs=1e-9)

    def test_sharp_decay_scales(self):
        # mass on the stated scale 1/c, far below 1 or far above it, is
        # found to full precision: the nodes resolve every x to a double's
        # relative precision, also where x >> 1
        for c in (1e-30, 1e-18, 1e-12, 1e-9, 1e-6, 1.0, 1e3, 1e9, 1e12):
            value, _ = integrate_semi_infinite(
                lambda x: c * math.exp(-c * x), 1.0 / c, end=745.2 / c
            )
            assert value == pytest.approx(1.0, rel=0.0, abs=1e-13), c

    @pytest.mark.parametrize("scale", [0.0, -0.0, -2.0, math.inf, -math.inf, math.nan])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(DomainError, match="scale must be positive and finite"):
            integrate_semi_infinite(lambda x: math.exp(-x), scale, end=745.2)

    def test_deterministic(self):
        f = lambda x: math.exp(-x) / (1.0 + x * x)  # noqa: E731
        assert integrate_semi_infinite(f, 1.0, end=745.2) == integrate_semi_infinite(
            f, 1.0, end=745.2
        )

    @pytest.mark.parametrize(
        "scales,c",
        [((1.0,), 3.0), ((1.0,), 64.0), ((10.0,), 500.0), ((1.0, 1e-3), 0.9), ((2.0,), 0.5)],
    )
    def test_finite_end_is_never_passed(self, scales, c):
        # f is nonzero on [0, c) only and changes on the lengths scales; with
        # the smallest as scale and end=c the engine reaches its exact
        # integral (1 - exp(-c)) without evaluating f beyond c
        beyond = []

        def f(x):
            if x >= c:
                beyond.append(x)
                return 0.0
            return math.exp(-x)

        value, err = integrate_semi_infinite(f, min(scales), end=c)
        assert [x for x in beyond if x > c] == []
        assert value == pytest.approx(-math.expm1(-c), rel=1e-12, abs=0.0)
        assert err <= 1e-10 * value

    @pytest.mark.parametrize("end", [0.25, 0.1, 1e-9])
    def test_end_below_the_ladder_is_one_panel(self, end):
        # end <= scale / 4: one panel [0, end]
        calls = []

        def f(x):
            calls.append(x)
            return 2.0 * x

        value, _ = integrate_semi_infinite(f, 1.0, end=end)
        assert value == pytest.approx(end * end, rel=1e-13)
        assert len(calls) == 15 and max(calls) < end

    @pytest.mark.parametrize("end", [0.0, -0.0, -1.0, -math.inf, math.nan, math.inf])
    def test_end_must_be_positive(self, end):
        # and finite: the engine has no panel to infinity
        with pytest.raises(DomainError, match="end must be positive and finite"):
            integrate_semi_infinite(lambda x: math.exp(-x), 1.0, end=end)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_node_is_named(self, bad):
        calls = []

        def f(x):
            calls.append(x)
            return bad if x > 2.0 else math.exp(-x)

        with pytest.raises(DomainError, match="integrand not finite at x=") as exc_info:
            integrate_semi_infinite(f, 1.0, end=745.2)
        named = float(str(exc_info.value).rsplit("=", 1)[1])
        # the first node past 2 that the rule evaluated
        assert named == next(x for x in calls if x > 2.0)

    def test_gk15_matches_the_indexed_rule(self):
        # the rule walks (node, Kronrod weight, Gauss weight) triples in the
        # order of the indexed loop it replaced, and maps each node u to
        # x = expm1(u) with weight 1 + x itself, so every sum is
        # bit-identical to the indexed rule on the integrand in u
        def indexed(g, lo, hi):
            half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            fk = fg = 0.0
            for j, xk in enumerate(specfun._KRONROD_NODES):
                if xk == 0.0:
                    fv = g(mid)
                    fk += specfun._KRONROD_WEIGHTS[j] * fv
                    fg += specfun._GAUSS_WEIGHTS[3] * fv
                    continue
                fv = g(mid - half * xk) + g(mid + half * xk)
                fk += specfun._KRONROD_WEIGHTS[j] * fv
                if j % 2 == 1:
                    fg += specfun._GAUSS_WEIGHTS[(j - 1) // 2] * fv
            return fk * half, abs(fk - fg) * half

        rng = np.random.default_rng(19)
        for f in (math.exp, math.sin, lambda t: t**7 - 3.0 * t, lambda t: 1.0 / (1.0 + t * t)):

            def in_u(u, f=f):
                x = math.expm1(u)
                return f(x) * (1.0 + x)

            for lo, width in rng.uniform(-3.0, 3.0, size=(50, 2)).tolist():
                assert specfun._gk15(f, lo, lo + width) == indexed(in_u, lo, lo + width)

    def test_nonconvergence_reports_best_estimate(self):
        # oscillation far too fast for the subdivision budget
        with pytest.raises(QuadratureError) as exc_info:
            integrate_semi_infinite(lambda x: math.exp(-x) * math.sin(1e6 * x), 1e-6, end=745.2)
        err = exc_info.value
        assert math.isfinite(err.best_estimate)
        assert err.error_estimate > 0.0
