"""Ordered Rayleigh order statistics: expansion terms, density, sampling."""

import numpy as np
import pytest
import scipy.stats as st

from noma_ggn.channel import order_terms, ordered_pdf, sample_ordered_gains
from noma_ggn.ggd import stream_rng
from noma_ggn.specfun import DomainError, integrate_semi_infinite


class TestOrderTerms:
    def test_first_of_three(self):
        terms = order_terms(3, 1)
        assert len(terms) == 1
        assert terms[0].a_l == 3.0
        assert terms[0].delta == 3

    def test_second_of_three(self):
        terms = order_terms(3, 2)
        assert [t.a_l for t in terms] == [6.0, 6.0]
        assert [t.delta for t in terms] == [2, 3]
        assert [t.i for t in terms] == [0, 1]

    def test_single_user(self):
        (term,) = order_terms(1, 1)
        assert term.a_l == 1.0 and term.delta == 1

    @pytest.mark.parametrize("L,l", [(0, 1), (3, 0), (3, 4)])
    def test_domain(self, L, l):
        with pytest.raises(DomainError):
            order_terms(L, l)


class TestOrderedPdf:
    def test_single_user_is_rayleigh(self):
        w = np.linspace(0.0, 5.0, 64)
        np.testing.assert_allclose(
            ordered_pdf(1, 1, w), w * np.exp(-0.5 * w * w), rtol=1e-14
        )

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
    def test_normalization(self, L):
        for l in range(1, L + 1):
            mass, _ = integrate_semi_infinite(lambda w: ordered_pdf(L, l, w), (1.0,))
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_mixture_identity(self):
        w = np.linspace(0.0, 6.0, 200)
        mix = sum(ordered_pdf(3, l, w) for l in (1, 2, 3)) / 3.0
        np.testing.assert_allclose(mix, w * np.exp(-0.5 * w * w), atol=1e-12)

    def test_nonnegative_despite_alternating_sum(self):
        w = np.concatenate([np.geomspace(1e-12, 1e-2, 50), np.linspace(0.01, 10, 500)])
        for L in range(1, 7):
            for l in range(1, L + 1):
                assert np.all(ordered_pdf(L, l, w) >= -1e-12)

    def test_matches_alternating_sum_form(self):
        w = np.linspace(0.1, 4.0, 40)
        for L, l in [(3, 2), (4, 3), (6, 6)]:
            direct = np.zeros_like(w)
            for t in order_terms(L, l):
                from math import comb

                direct += (
                    t.a_l * w * comb(l - 1, t.i) * (-1.0) ** t.i
                    * np.exp(-0.5 * t.delta * w * w)
                )
            # the naive alternating sum (the oracle here) itself cancels at
            # small w, so allow an absolute floor at double-precision scale
            np.testing.assert_allclose(
                ordered_pdf(L, l, w), direct, rtol=1e-10, atol=1e-14
            )

    @pytest.mark.parametrize("L", range(1, 7))
    def test_float_matches_array_path(self, L):
        # math and numpy round exp, expm1 and the power differently (numpy's
        # may be SIMD code); the power raises expm1's rounding l - 1 fold, so
        # the paths part by up to about 1e-15 at l = 6
        w = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(0.01, 12.0, 240), [40.0, 1e3]])
        for l in range(1, L + 1):
            scalar = [ordered_pdf(L, l, float(x)) for x in w]
            assert all(type(v) is float for v in scalar)
            np.testing.assert_allclose(scalar, ordered_pdf(L, l, w), rtol=2e-15, atol=0.0)


class TestSampler:
    def test_sorted_ascending(self):
        gains = sample_ordered_gains(4, stream_rng(5), size=1000)
        assert gains.shape == (1000, 4)
        assert np.all(np.diff(gains, axis=1) >= 0.0)

    def test_single_user_second_moment(self):
        gains = sample_ordered_gains(1, stream_rng(6), size=10**6)
        assert float(np.mean(gains**2)) == pytest.approx(2.0, rel=0.01)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("size", [None, 1, 1000, 20000])
    def test_equals_np_sort_of_same_draws(self, L, size):
        expected = np.sort(stream_rng(3, L).rayleigh(size=(L,) if size is None else (size, L)))
        gains = sample_ordered_gains(L, stream_rng(3, L), size=size)
        assert gains.shape == expected.shape
        np.testing.assert_array_equal(gains, expected)
        if size is not None:
            # one draw for all rows or several runs of rows (20000): the same
            # stream either way; each column is one contiguous run, and with
            # out, out holds the columns
            assert all(gains[:, k].flags.c_contiguous for k in range(L))
            out = np.empty((L, size))
            assert sample_ordered_gains(L, stream_rng(3, L), size=size, out=out).base is out
            np.testing.assert_array_equal(out.T, expected)

    def test_reproducible(self):
        a = sample_ordered_gains(3, stream_rng(9, 2), size=100)
        b = sample_ordered_gains(3, stream_rng(9, 2), size=100)
        np.testing.assert_array_equal(a, b)

    def test_middle_of_three_matches_density(self):
        gains = sample_ordered_gains(3, stream_rng(13), size=10**6)[:, 1]
        counts, edges = np.histogram(gains, bins=50, range=(0.0, 3.5))
        mids = 0.5 * (edges[:-1] + edges[1:])
        expected = ordered_pdf(3, 2, mids) * np.diff(edges) * gains.size
        keep = expected > 20.0
        chi2 = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))
        crit = st.chi2.ppf(0.999, df=int(keep.sum()) - 1)
        assert chi2 < crit
