"""Ordered Rayleigh order statistics: expansion terms, density, sampling."""

import math

import numpy as np
import pytest
import scipy.stats as st

from noma_ggn.channel import ordered_pdf, sample_ordered_gains
from noma_ggn.ggd import stream_rng
from noma_ggn.specfun import DomainError, integrate_semi_infinite


WS = (0.3, 1.0, 2.5)


def rayleigh_pdf(w):
    return w * math.exp(-0.5 * w * w)


class TestOrderTerms:
    """A_l and delta_{l,i} of the order-statistics expansion, read off the
    density's alternating-sum form."""

    def test_first_of_three(self):
        # A_1 = 3, delta = 3
        for w in WS:
            expected = 3.0 * w * math.exp(-1.5 * w * w)
            assert ordered_pdf(3, 1, w) == pytest.approx(expected, rel=1e-15)

    def test_second_of_three(self):
        # A_2 = 6, delta = 2 and 3
        for w in WS:
            expected = 6.0 * w * (math.exp(-w * w) - math.exp(-1.5 * w * w))
            assert ordered_pdf(3, 2, w) == pytest.approx(expected, rel=1e-14)

    def test_single_user(self):
        # A_1 = 1, delta = 1
        for w in WS:
            assert ordered_pdf(1, 1, w) == pytest.approx(rayleigh_pdf(w), rel=1e-15)

    @pytest.mark.parametrize("L,l", [(0, 1), (3, 0), (3, 4)])
    def test_domain(self, L, l):
        with pytest.raises(DomainError):
            ordered_pdf(L, l, 1.0)


class TestOrderedPdf:
    def test_single_user_is_rayleigh(self):
        for w in np.linspace(0.0, 5.0, 64).tolist():
            assert ordered_pdf(1, 1, w) == pytest.approx(rayleigh_pdf(w), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
    def test_normalization(self, L):
        for l in range(1, L + 1):
            mass, _ = integrate_semi_infinite(lambda w: ordered_pdf(L, l, w), (1.0,))
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_mixture_identity(self):
        for w in np.linspace(0.0, 6.0, 200).tolist():
            mix = sum(ordered_pdf(3, l, w) for l in (1, 2, 3)) / 3.0
            assert mix == pytest.approx(rayleigh_pdf(w), rel=0.0, abs=1e-12)

    def test_nonnegative_despite_alternating_sum(self):
        w = np.concatenate([np.geomspace(1e-12, 1e-2, 50), np.linspace(0.01, 10, 500)]).tolist()
        for L in range(1, 7):
            for l in range(1, L + 1):
                assert all(ordered_pdf(L, l, x) >= -1e-12 for x in w)

    def test_matches_alternating_sum_form(self):
        for L, l in [(3, 2), (4, 3), (6, 6)]:
            a_l = L * math.comb(L - 1, l - 1)
            for w in np.linspace(0.1, 4.0, 40).tolist():
                direct = sum(
                    a_l * w * math.comb(l - 1, i) * (-1.0) ** i
                    * math.exp(-0.5 * (L - l + 1 + i) * w * w)
                    for i in range(l)
                )
                # the naive alternating sum (the oracle here) itself cancels
                # at small w, so allow an absolute floor at double-precision
                # scale
                assert ordered_pdf(L, l, w) == pytest.approx(direct, rel=1e-10, abs=1e-14)


class TestSampler:
    def test_sorted_ascending(self):
        gains = sample_ordered_gains(4, stream_rng(5), size=1000)
        assert gains.shape == (1000, 4)
        assert np.all(np.diff(gains, axis=1) >= 0.0)

    def test_single_user_second_moment(self):
        gains = sample_ordered_gains(1, stream_rng(6), size=10**6)
        assert float(np.mean(gains**2)) == pytest.approx(2.0, rel=0.01)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("size", [1, 1000, 20000])
    def test_equals_np_sort_of_same_draws(self, L, size):
        expected = np.sort(stream_rng(3, L).rayleigh(size=(size, L)))
        gains = sample_ordered_gains(L, stream_rng(3, L), size=size)
        assert gains.shape == expected.shape
        np.testing.assert_array_equal(gains, expected)
        # one draw for all rows or several runs of rows (20000): the same
        # stream either way; each column is one contiguous run, and with out,
        # out holds the columns
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
        density = np.array([ordered_pdf(3, 2, w) for w in mids.tolist()])
        expected = density * np.diff(edges) * gains.size
        keep = expected > 20.0
        chi2 = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))
        crit = st.chi2.ppf(0.999, df=int(keep.sum()) - 1)
        assert chi2 < crit
