"""Pairwise error probabilities, the BER union bound, and diversity slopes.

The exact per-user PEP averages the conditional pairwise decision
probability over the ordered Rayleigh gain of that user. Two equivalent
routes are provided: the term-wise T1/T2 quadrature expansion and direct
averaging of the conditional PEP against the order-statistics density; the
alpha = 1 (Laplacian) and alpha = 2 (Gaussian) closed forms serve as
independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channel import order_terms, ordered_pdf
from .ggd import GGNoiseModel, lambda0
from .noma import ErrorEvent, SystemConfig, build_error_event, enumerate_error_events
from .specfun import (
    DomainError,
    QuadratureSpec,
    erfcx,
    integrate_semi_infinite,
    lower_incomplete_gamma_reg,
    upper_incomplete_gamma_reg,
)

__all__ = [
    "PepResult",
    "DiversityEstimate",
    "UnionBoundResult",
    "NumericFailure",
    "conditional_pep",
    "pep_exact",
    "pep_direct",
    "pep_closed_form",
    "union_bound",
    "diversity_order",
    "canonical_event",
]

# Every PEP integral is driven by relative error: PEP values span hundreds of
# orders of magnitude, so a larger absolute floor would let tiny
# probabilities converge to noise.
_QUAD = QuadratureSpec(abs_tol=1e-280, rel_tol=1e-10, max_subdivisions=200)


class NumericFailure(RuntimeError):
    """A numeric pipeline stage produced an unusable value."""


@dataclass(frozen=True)
class PepResult:
    """Analytic PEP and the route that produced it."""

    value: float
    method: str


@dataclass(frozen=True)
class DiversityEstimate:
    """Negative log-log slope of a PEP curve over an SNR window (dB)."""

    d_s: float
    snr_window: tuple


@dataclass(frozen=True)
class UnionBoundResult:
    """BER union bound with its per-hypothesis-pair contributions.

    contributions holds (x_l, x_check, bit_errors, pair_probability); p_ub
    reconstructs as (1/q) * sum over pairs of Pr(x_l) * bit_errors * pair
    probability with uniform Pr(x_l).
    """

    p_ub: float
    q: int
    contributions: tuple


def _kappa(event: ErrorEvent, lam0: float) -> float:
    """Decay scale of the conditional PEP in the gain: the incomplete-gamma
    argument at gain w is (kappa * w)^alpha."""
    amp = event.config.amplitude(event.l)
    return (
        math.sqrt(lam0)
        * abs(event.upsilon)
        / (math.sqrt(2.0) * amp * abs(event.delta_check))
    )


def conditional_pep(event: ErrorEvent, model: GGNoiseModel, h: float) -> float:
    """Pairwise error probability conditioned on channel gain h.

    Equals [Gamma(1/a) + (-1)^mu * gamma(1/a, (lambda h^2 |upsilon|)^a)] /
    (2 Gamma(1/a)); the constructive branch is evaluated through the upper
    regularized gamma so deep tails keep relative accuracy.
    """
    if h < 0.0:
        raise DomainError(f"gain must be >= 0, got {h!r}")
    inv_a = 1.0 / model.alpha
    z = (_kappa(event, model.lambda0) * h) ** model.alpha
    if event.mu:
        return 0.5 * upper_incomplete_gamma_reg(inv_a, z)
    return 0.5 * (1.0 + lower_incomplete_gamma_reg(inv_a, z))


def _t2_term(alpha: float, kappa: float, delta: int) -> float:
    """T2 for one order-statistics term:
    (alpha kappa / delta) * int_0^inf exp(-(kappa w)^alpha - delta w^2 / 2) dw.
    """

    def integrand(w: float) -> float:
        return math.exp(-((kappa * w) ** alpha) - 0.5 * delta * w * w)

    val, _ = integrate_semi_infinite(integrand, _QUAD)
    return alpha * kappa / delta * val


def _t1_t2_sum(event: ErrorEvent, alpha: float, kappa: float) -> float:
    """Unconditional PEP by the term-wise expansion
    A_l/(2 Gamma(1/a)) * sum_i C(l-1,i) (-1)^i [T1 + (-1)^mu T2] with
    T1 = Gamma(1/a) / delta and T2 from _t2_term.

    Accurate for destructive (mu = 0) events; for mu = 1 the sum cancels to
    l-th order at high SNR (see _constructive_value).
    """
    gamma_inv_a = math.exp(math.lgamma(1.0 / alpha))
    terms = order_terms(event.L, event.l)
    acc = 0.0
    for term in terms:
        t1 = gamma_inv_a / term.delta
        t2 = _t2_term(alpha, kappa, term.delta)
        sign = (-1.0) ** term.i * math.comb(event.l - 1, term.i)
        acc += sign * (t1 + (-1.0) ** event.mu * t2)
    return terms[0].a_l / (2.0 * gamma_inv_a) * acc


def _constructive_value(event: ErrorEvent, alpha: float, kappa: float) -> float:
    """Unconditional PEP of a constructive (mu = 1) event via the combined
    nonnegative integrand.

    Summing T1 - T2 over the alternating order-statistics terms cancels to
    l-th order at high SNR; folding the sum into the integrand first gives
    A_l/(2 Gamma(1/a)) * alpha kappa * int exp(-(kappa w)^a) B(w) dw with
    B(w) = int_0^W u^(l-1) (1-u)^(L-l) du, W = 1 - exp(-w^2/2), which has no
    cancellation at any SNR.
    """
    L, l = event.L, event.l
    m = L - l  # (1-u)^m exponent, a small nonnegative integer
    coeffs = [math.comb(m, j) * (-1.0) ** j / (l + j) for j in range(m + 1)]

    def integrand(w: float) -> float:
        big_w = -math.expm1(-0.5 * w * w)
        beta = 0.0
        wp = big_w**l
        for j in range(m + 1):
            beta += coeffs[j] * wp
            wp *= big_w
        return math.exp(-((kappa * w) ** alpha)) * beta

    val, _ = integrate_semi_infinite(integrand, _QUAD)
    a_l = order_terms(L, l)[0].a_l
    return a_l / (2.0 * math.exp(math.lgamma(1.0 / alpha))) * alpha * kappa * val


def pep_exact(event: ErrorEvent, model: GGNoiseModel) -> PepResult:
    """Unconditional PEP by the T1/T2 quadrature expansion: the term-wise sum
    for destructive (mu = 0) events, the combined integrand for constructive
    (mu = 1) ones."""
    kappa = _kappa(event, model.lambda0)
    if event.mu:
        value = _constructive_value(event, model.alpha, kappa)
    else:
        value = _t1_t2_sum(event, model.alpha, kappa)
    return PepResult(value=value, method="quadrature")


def pep_direct(event: ErrorEvent, model: GGNoiseModel) -> PepResult:
    """Unconditional PEP by direct averaging of the conditional PEP over the
    ordered-gain density. Independent of the T1/T2 route."""

    def integrand(w: float) -> float:
        return conditional_pep(event, model, w) * ordered_pdf(event.L, event.l, w)

    val, _ = integrate_semi_infinite(integrand, _QUAD)
    return PepResult(value=val, method="direct")


def _laplace_tail(tau):
    """1 - sqrt(pi) tau erfcx(tau), accurate for all tau >= 0.

    Beyond tau = 6 the direct form loses digits to the 1 - (1 - eps)
    subtraction, so the asymptotic series is summed to its smallest term.
    Accepts and preserves extended-precision input.
    """
    if tau <= 6.0:
        return type(tau)(1.0 - math.sqrt(math.pi) * float(tau) * erfcx(float(tau)))
    inv2t2 = 1.0 / (2.0 * tau * tau)
    term = inv2t2
    total = term
    for n in range(2, 80):
        new = term * (2 * n - 1) * inv2t2
        if new >= term:
            break
        term = new
        total += -term if n % 2 == 0 else term
    return total


def _gauss_tail(tau):
    """1 - 2 tau / sqrt(4 tau^2 + 1), in the subtraction-free arrangement."""
    root = np.sqrt(4.0 * tau * tau + 1.0)
    return 1.0 / (root * (root + 2.0 * tau))


def pep_closed_form(event: ErrorEvent, alpha: float) -> PepResult:
    """Closed-form PEP for Laplacian (alpha = 1) or Gaussian (alpha = 2) noise.

    alpha = 1 bracket: 1 + (-1)^mu sqrt(pi) tau exp(tau^2) erfc(tau);
    alpha = 2 bracket: 1 + (-1)^mu 2 tau / sqrt(4 tau^2 + 1);
    both use scaled/subtraction-free evaluations so large tau (high SNR)
    neither overflows nor loses the bracket's small residual. The bracket
    sum is accumulated in extended precision: constructive high-SNR values
    sit many digits below the individual brackets.
    """
    if alpha not in (1, 2, 1.0, 2.0):
        raise DomainError(f"closed forms exist for alpha in {{1, 2}}, got {alpha!r}")
    alpha = float(alpha)
    lam0 = lambda0(alpha)
    terms = order_terms(event.L, event.l)
    acc = np.longdouble(0.0)
    base = (
        np.longdouble(lam0)
        * np.longdouble(event.upsilon) ** 2
        / (
            np.longdouble(4.0)
            * np.longdouble(event.a_l)
            * np.longdouble(event.gamma_bar)
            * np.longdouble(event.delta_check) ** 2
        )
    )
    for term in terms:
        tau = np.sqrt(base / term.delta)
        if alpha == 1.0:
            tail = _laplace_tail(tau)
            grow = 1.0 - tail
        else:
            tail = _gauss_tail(tau)
            grow = 2.0 * tau / np.sqrt(4.0 * tau * tau + 1.0)
        bracket = tail if event.mu else 1.0 + grow
        acc += (-1.0) ** term.i * math.comb(event.l - 1, term.i) * bracket / term.delta
    value = float(terms[0].a_l / 2.0 * acc)
    method = "closed_alpha1" if alpha == 1.0 else "closed_alpha2"
    return PepResult(value=value, method=method)


def _bit_errors(config: SystemConfig, x: float, x_check: float) -> int:
    """Hamming distance between natural-binary labels of the two symbols
    (indices in the ascending constellation)."""
    i = config.constellation.index(x)
    j = config.constellation.index(x_check)
    return (i ^ j).bit_count()


def union_bound(config: SystemConfig, model: GGNoiseModel, l: int) -> UnionBoundResult:
    """BER union bound for user l under uniform symbol probabilities.

    Each hypothesis-pair probability is the uniform average of the exact PEP
    over interferer and SIC-layer assignments; q is bits per symbol.
    """
    phi = config.constellation
    q = len(phi).bit_length() - 1
    if 2**q != len(phi):
        raise DomainError("union bound needs a power-of-two constellation size")
    pair_prob: dict = {}
    for ev, weight in enumerate_error_events(config, l):
        key = (ev.x_l, ev.x_check_l)
        pair_prob[key] = pair_prob.get(key, 0.0) + weight * pep_exact(ev, model).value
    contributions = tuple(
        (x, x_check, _bit_errors(config, x, x_check), prob)
        for (x, x_check), prob in sorted(pair_prob.items())
    )
    pr_x = 1.0 / len(phi)
    p_ub = sum(pr_x * e * prob for _, _, e, prob in contributions) / q
    return UnionBoundResult(p_ub=p_ub, q=q, contributions=contributions)


def diversity_order(
    pep_curve: Mapping[float, float], window: Sequence[float]
) -> DiversityEstimate:
    """Diversity slope -d log Pr / d log gamma_bar between two SNR points.

    pep_curve maps SNR in dB to PEP values; window is the (low, high) dB pair
    to difference over.
    """
    lo_db, hi_db = float(window[0]), float(window[1])
    if not lo_db < hi_db:
        raise DomainError(f"window must be increasing, got {window!r}")
    for point in (lo_db, hi_db):
        if point not in pep_curve:
            raise DomainError(f"window point {point} dB missing from curve")
    p_lo, p_hi = pep_curve[lo_db], pep_curve[hi_db]
    if not (p_lo > 0.0 and p_hi > 0.0):
        raise NumericFailure(
            f"non-positive PEP in window: {p_lo!r} at {lo_db} dB, {p_hi!r} at {hi_db} dB"
        )
    log_gamma_ratio = (hi_db - lo_db) / 10.0 * math.log(10.0)
    d_s = -(math.log(p_hi) - math.log(p_lo)) / log_gamma_ratio
    return DiversityEstimate(d_s=d_s, snr_window=(lo_db, hi_db))


def canonical_event(config: SystemConfig, l: int) -> ErrorEvent:
    """Reference per-user PEP scenario: every user transmits the largest
    symbol, SIC below user l is perfect, and the wrong hypothesis is the
    smallest symbol. Used for per-user PEP/diversity curves."""
    hi = config.constellation[-1]
    return build_error_event(
        config,
        l,
        x_l=hi,
        x_check_l=config.constellation[0],
        sic_detected=(hi,) * (l - 1),
        interferers=(hi,) * (config.L - l),
    )
