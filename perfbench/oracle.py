"""Independent reference values, written from the system model, not the package.

Nothing here imports ``noma_ggn``. The model, restated from first principles:

* User l of L receives ``h * (sum_i sqrt(a_i * gamma_bar) x_i) + n``, where h
  is the l-th smallest of L i.i.d. Rayleigh envelopes with density
  ``w exp(-w^2/2)`` and n is generalized Gaussian noise of shape alpha and
  variance 1/2 (the real decision component of unit-power noise).
* A pairwise event decides ``x_check`` for ``x_l`` with residual interference
  ``X`` (lower-power users plus SIC mistakes at layers below l). With
  ``d = sqrt(a_l gamma_bar) (x_l - x_check)`` and ``zeta = d + X`` the error
  region ``|h zeta + n| <= |h X + n|`` reduces to ``n sign(d) <= h upsilon / (2|d|)``
  with ``upsilon = X^2 - zeta^2``. The GGD CDF then gives, at gain w,
  ``Q(1/alpha, (kappa w)^alpha) / 2`` when upsilon < 0 (constructive, mu = 1)
  and ``(1 + P(1/alpha, (kappa w)^alpha)) / 2`` otherwise (mu = 0), with
  ``kappa = lam |upsilon| / (2 |d|)`` and GGD rate
  ``lam = sqrt(Gamma(3/alpha) / (Gamma(1/alpha) * 1/2))``.
* The PEP averages that conditional probability over the ordered-Rayleigh
  density ``f_l(w) = L!/((l-1)!(L-l)!) F^(l-1) (1-F)^(L-l) f``.
* The BER union bound sums, over ordered symbol pairs, ``Pr(x) e(x, x_check) / q``
  times the pair probability, which is the uniform average of the PEP over
  all transmitted interferer symbols and all SIC-layer decisions below l;
  ``e`` is the Hamming distance of natural-binary labels of the symbols'
  ranks in the ascending constellation.

Two evaluators share the event algebra: ``pep_mp`` averages in mpmath at 30
digits (0.1-1.5 s a point, used on a sample) and ``pep_fast`` integrates the
same integrand in double precision (about 0.3 ms a point, used on every
output). ``perfbench/selftest.py`` checks them against each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import integrate, special

BPSK = (-1.0, 1.0)  # the program's only constellation, ascending
MP_DPS = 30
# relative target of each QUADPACK piece, and the bound on the estimated
# relative error of the double-precision evaluator
FAST_REL = 1e-13
FAST_MAX_ERR = 1e-11


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def ggd_rate(alpha: float) -> float:
    """lam of the variance-1/2 GGD: lam^2 = 2 Gamma(3/a) / Gamma(1/a)."""
    return math.sqrt(2.0 * math.exp(math.lgamma(3.0 / alpha) - math.lgamma(1.0 / alpha)))


@dataclass(frozen=True)
class Event:
    """A pairwise error event: user l of L, its decay rate and its branch."""

    L: int
    l: int
    kappa_unit: float  # kappa / lam, independent of alpha
    mu: int

    def kappa(self, alpha: float) -> float:
        return ggd_rate(alpha) * self.kappa_unit


def make_event(a, gamma_bar, l, tx, detected, x_check) -> Event | None:
    """Event for user l given all transmitted symbols ``tx`` (users 1..L),
    the SIC decisions ``detected`` for layers 1..l-1 and the wrong hypothesis.
    Returns None on the decision boundary (upsilon = 0)."""
    amp = [math.sqrt(v * gamma_bar) for v in a]
    residual = sum(amp[i] * (tx[i] - detected[i]) for i in range(l - 1))
    residual += sum(amp[j] * tx[j] for j in range(l, len(a)))
    d = amp[l - 1] * (tx[l - 1] - x_check)
    zeta = d + residual
    upsilon = residual * residual - zeta * zeta
    if abs(upsilon) <= 1e-12 * max(residual * residual, zeta * zeta, 1.0):
        return None
    return Event(
        L=len(a), l=l, kappa_unit=abs(upsilon) / (2.0 * abs(d)), mu=1 if upsilon < 0 else 0
    )


def canonical(a, gamma_bar, l) -> Event:
    """Every user sends the largest symbol, SIC below l is right, and the
    wrong hypothesis is the smallest symbol."""
    hi, lo = BPSK[-1], BPSK[0]
    return make_event(a, gamma_bar, l, (hi,) * len(a), (hi,) * (l - 1), lo)


def _order_coeff(L: int, l: int) -> float:
    return math.factorial(L) / (math.factorial(l - 1) * math.factorial(L - l))


def _breaks(kappa: float) -> list:
    """Interior points in t = kappa w: the gamma factor varies on t ~ 1 and
    the fading density on w ~ 1, i.e. t ~ kappa."""
    pts = {10.0 ** k for k in range(-3, 6)} | {kappa * s for s in (0.25, 0.5, 1, 2, 4, 8)}
    return sorted(p for p in pts if p > 0.0)


def _fast_integrand(ev: Event, alpha: float, kappa: float, t):
    """The PEP integrand over t = kappa w, for a float or an array of t."""
    w = t / kappa
    half = 0.5 * w * w
    dens = _order_coeff(ev.L, ev.l) * w * np.exp(-(ev.L - ev.l + 1) * half) * (-np.expm1(-half)) ** (ev.l - 1)
    z = t**alpha
    cond = special.gammaincc(1.0 / alpha, z) if ev.mu else 1.0 + special.gammainc(1.0 / alpha, z)
    return 0.5 * cond * dens / kappa


def _gauss_edges(kappa: float, alpha: float, mu: int) -> np.ndarray:
    """Panels in t, geometric (ratio <= 4) from 1e-4 min(1, kappa) to where
    the integrand has decayed below e^-800 of its scale."""
    top = 40.0 * kappa
    if mu:
        top = min(top, 800.0 ** (1.0 / alpha))
    low = 1e-4 * min(1.0, kappa)
    pts = set(np.geomspace(low, top, math.ceil(math.log(top / low) / math.log(4.0)) + 1))
    pts |= {kappa * s for s in (0.25, 0.5, 1, 2, 4, 8) if kappa * s < top}
    return np.array([0.0] + sorted(pts))


_GAUSS = [np.polynomial.legendre.leggauss(n) for n in (32, 48)]


def pep_fast(ev: Event, alpha: float) -> float:
    """PEP in double precision: Gauss-Legendre of two orders on every panel
    at once; if they differ by more than FAST_MAX_ERR, scipy's adaptive
    QUADPACK over the same integrand decides."""
    kappa = ev.kappa(alpha)
    edges = _gauss_edges(kappa, alpha, ev.mu)
    lo, hi = edges[:-1, None], edges[1:, None]
    coarse, fine = (
        float(np.sum(0.5 * (hi - lo) * w * _fast_integrand(ev, alpha, kappa, 0.5 * (hi - lo) * x + 0.5 * (hi + lo))))
        for x, w in _GAUSS
    )
    if abs(coarse - fine) <= FAST_MAX_ERR * fine:
        return fine
    return _pep_quad(ev, alpha, kappa)


def _pep_quad(ev: Event, alpha: float, kappa: float) -> float:
    edges = [0.0] + _breaks(kappa) + [math.inf]
    total = error = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        # full_output keeps QUADPACK from warning about pieces that hold a
        # negligible share of the total; the summed error estimate is checked
        piece = integrate.quad(
            lambda t: _fast_integrand(ev, alpha, kappa, t),
            lo, hi, epsabs=0.0, epsrel=FAST_REL, limit=200, full_output=1,
        )
        total += piece[0]
        error += piece[1]
    if not error <= FAST_MAX_ERR * total:
        raise ArithmeticError(f"scipy quadrature error {error:.2e} on {total:.6e} for {ev} at alpha={alpha}")
    return total


def pep_mp(ev: Event, alpha: float) -> float:
    """PEP averaged in mpmath at MP_DPS digits."""
    with mp.workdps(MP_DPS):
        alpha_m = mp.mpf(alpha)
        a_inv = 1 / alpha_m
        lam = mp.sqrt(2 * mp.gamma(3 / alpha_m) / mp.gamma(a_inv))
        kappa = lam * mp.mpf(ev.kappa_unit)
        c = mp.mpf(_order_coeff(ev.L, ev.l))
        up = ev.L - ev.l + 1

        def integrand(t):
            w = t / kappa
            half = w * w / 2
            dens = c * w * mp.exp(-up * half) * (-mp.expm1(-half)) ** (ev.l - 1)
            z = t**alpha_m
            if ev.mu:
                cond = mp.gammainc(a_inv, z, mp.inf, regularized=True)
            else:
                cond = 1 + mp.gammainc(a_inv, 0, z, regularized=True)
            return cond * dens / (2 * kappa)

        # mpmath's quad stops on an absolute error target, so the integrand is
        # rescaled to order one first; PEPs reach 1e-35 at the top SNRs
        pts = _breaks(float(kappa))
        scale = max(integrand(mp.mpf(p)) * p for p in pts)
        edges = [mp.mpf(0)] + [mp.mpf(p) for p in pts] + [mp.inf]
        value, error = mp.quad(lambda t: integrand(t) / scale, edges, error=True)
        if not error <= mp.mpf(10) ** (8 - MP_DPS) * value:
            raise ArithmeticError(f"mpmath quadrature unconverged for {ev} at alpha={alpha}")
        return float(value * scale)


def bit_errors(x, x_check) -> int:
    """Hamming distance of the natural-binary labels of the symbols' ranks."""
    return bin(BPSK.index(x) ^ BPSK.index(x_check)).count("1")


def error_events(a, gamma_bar, l):
    """All (x_l, x_check, weight, Event) of user l; weights are uniform over
    interferer symbols and SIC decisions within each (x_l, x_check) pair."""
    phi = BPSK
    L = len(a)
    weight = 1.0 / (len(phi) ** (L - 1) * len(phi) ** (l - 1))
    out = []
    for tx in itertools.product(phi, repeat=L):
        for detected in itertools.product(phi, repeat=l - 1):
            for x_check in phi:
                if x_check == tx[l - 1]:
                    continue
                ev = make_event(a, gamma_bar, l, tx, detected, x_check)
                if ev is not None:
                    out.append((tx[l - 1], x_check, weight, ev))
    return out


def union_bound(a, gamma_bar, l, alpha):
    """BER union bound of user l and its pair probabilities.

    Returns ``(p_ub, pairs)`` with pairs sorted ``[(x, x_check, e, prob)]``;
    each distinct event is evaluated once."""
    q = int(round(math.log2(len(BPSK))))
    memo, pair_prob = {}, {}
    for x, x_check, weight, ev in error_events(a, gamma_bar, l):
        key = (ev.L, ev.l, ev.mu, float(f"{ev.kappa_unit:.12g}"))
        if key not in memo:
            memo[key] = pep_fast(ev, alpha)
        pair_prob[(x, x_check)] = pair_prob.get((x, x_check), 0.0) + weight * memo[key]
    pairs = [(x, xc, bit_errors(x, xc), p) for (x, xc), p in sorted(pair_prob.items())]
    return sum(e * p / len(BPSK) for _, _, e, p in pairs) / q, pairs


def diversity_slope(p_lo: float, p_hi: float, lo_db: float, hi_db: float) -> float:
    """-d log PEP / d log gamma_bar between two SNR points in dB."""
    return -(math.log(p_hi) - math.log(p_lo)) / ((hi_db - lo_db) / 10.0 * math.log(10.0))
