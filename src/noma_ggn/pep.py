"""Pairwise error probabilities, the BER union bound, and diversity slopes.

The exact per-user PEP averages the conditional pairwise decision
probability over the ordered Rayleigh gain of that user. Two equivalent
routes are provided: one cancellation-free quadrature of the constructive
integrand (destructive events are one minus it) and direct averaging of the
conditional PEP against the order-statistics density; the alpha = 1
(Laplacian) and alpha = 2 (Gaussian) closed forms serve as independent
cross-checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .channel import _order_coeff, ordered_pdf
from .ggd import GGNoiseModel, lambda0
from .noma import (
    ErrorEvent,
    SystemConfig,
    _check_noise,
    build_error_event,
    enumerate_error_events,
)
from .specfun import (
    DomainError,
    QuadratureError,
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

class NumericFailure(RuntimeError):
    """A numeric pipeline stage produced an unusable value."""


@dataclass(frozen=True)
class PepResult:
    """Analytic PEP, the route that produced it and, for the quadrature
    routes, the engine's absolute error estimate scaled like value (None for
    closed forms)."""

    value: float
    method: str
    error_estimate: float | None = None


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


def _decay_arg(kappa: float, w: float, alpha: float) -> float:
    """(kappa w)^alpha, inf where that overflows a double: exp(-z) and the
    incomplete gammas at z are then exactly 0 or 1 in double precision."""
    try:
        return (kappa * w) ** alpha
    except OverflowError:
        return math.inf


def _conditional(event: ErrorEvent, alpha: float, kappa: float) -> Callable[[float], float]:
    """The event's conditional PEP as a function of the gain w >= 0, for
    noise of shape alpha and the event's decay scale kappa.

    Equals [Gamma(1/a) + (-1)^mu * gamma(1/a, (kappa w)^a)] / (2 Gamma(1/a));
    the constructive branch is evaluated through the upper regularized gamma
    so deep tails keep relative accuracy.
    """
    inv_a = 1.0 / alpha
    if event.mu:

        def pep_at(w: float) -> float:
            z = _decay_arg(kappa, w, alpha)
            return 0.0 if z == math.inf else 0.5 * upper_incomplete_gamma_reg(inv_a, z)

    else:

        def pep_at(w: float) -> float:
            z = _decay_arg(kappa, w, alpha)
            return 1.0 if z == math.inf else 0.5 * (1.0 + lower_incomplete_gamma_reg(inv_a, z))

    return pep_at


def conditional_pep(event: ErrorEvent, model: GGNoiseModel, h: float) -> float:
    """Pairwise error probability conditioned on channel gain h >= 0: the
    function pep_direct integrates, at one gain."""
    _check_noise(event.config, model.alpha, model.sigma2)
    if h < 0.0:
        raise DomainError(f"gain must be >= 0, got {h!r}")
    return _conditional(event, model.alpha, _kappa(event, model.lambda0))(h)


def _pep_quadrature(
    route: str,
    event: ErrorEvent,
    alpha: float,
    kappa: float,
    integrand: Callable[[float], float],
    scale: float,
    flip: bool,
) -> tuple:
    """scale times the integral of integrand over the gain (one minus that
    when flip), with the engine's error scaled alike, as (value, error).

    A QuadratureError is raised again naming the route and the event's user,
    SNR, alpha, mu and kappa, and carrying the best PEP estimate.
    """
    try:
        # the gain density varies on w ~ 1, the gamma factor on w ~ 1 / kappa
        val, err = integrate_semi_infinite(integrand, (1.0, 1.0 / kappa))
    except QuadratureError as exc:
        best = scale * exc.best_estimate
        best = 1.0 - best if flip else best
        error = scale * exc.error_estimate
        raise QuadratureError(
            f"PEP by the {route} route not converged (user {event.l}, gamma_bar "
            f"{event.gamma_bar!r}, alpha {alpha!r}, mu {event.mu}, kappa {kappa!r}): "
            f"best estimate {best!r}, error estimate {error!r}",
            best_estimate=best,
            error_estimate=error,
        ) from exc
    val = scale * val
    return (1.0 - val if flip else val), scale * err


def _constructive_value(event: ErrorEvent, alpha: float, kappa: float) -> tuple:
    """Unconditional PEP of a constructive (mu = 1) event at decay scale kappa
    via the combined nonnegative integrand, one minus it for a destructive
    event, with its error estimate.

    The paper's term-wise sum of T1 - T2 over the alternating
    order-statistics terms cancels to l-th order at high SNR; folding the sum
    into the integrand first gives
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
        return math.exp(-_decay_arg(kappa, w, alpha)) * beta

    a_l = _order_coeff(L, l)
    scale = a_l / (2.0 * math.exp(math.lgamma(1.0 / alpha))) * alpha * kappa
    return _pep_quadrature("quadrature", event, alpha, kappa, integrand, scale, not event.mu)


def pep_exact(event: ErrorEvent, model: GGNoiseModel) -> PepResult:
    """Unconditional PEP by one quadrature of the constructive integrand.

    The destructive (mu = 0) conditional PEP 1/2 (1 + P(1/a, z)) is
    1 - 1/2 Q(1/a, z), one minus the constructive one at the same kappa, and
    the ordered-gain density integrates to one; so a destructive event is one
    minus the constructive value.
    """
    _check_noise(event.config, model.alpha, model.sigma2)
    kappa = _kappa(event, model.lambda0)
    value, error = _constructive_value(event, model.alpha, kappa)
    return PepResult(value=value, method="quadrature", error_estimate=error)


def pep_direct(event: ErrorEvent, model: GGNoiseModel) -> PepResult:
    """Unconditional PEP by direct averaging of the conditional PEP over the
    ordered-gain density. Independent of pep_exact's integrand.

    Everything fixed for the integral (noise check, kappa, the mu branch) is
    settled before the quadrature runs; a node evaluates the conditional PEP
    and the density only.
    """
    _check_noise(event.config, model.alpha, model.sigma2)
    kappa = _kappa(event, model.lambda0)
    pep_at = _conditional(event, model.alpha, kappa)
    L, l = event.L, event.l

    def integrand(w: float) -> float:
        return pep_at(w) * ordered_pdf(L, l, w)

    value, error = _pep_quadrature("direct", event, model.alpha, kappa, integrand, 1.0, False)
    return PepResult(value=value, method="direct", error_estimate=error)


def _laplace_tail(tau):
    """1 - sqrt(pi) tau exp(tau^2) erfc(tau), accurate for all tau >= 0.

    Up to tau = 6 the form is evaluated as written, in doubles (exp(36) is
    far from overflow); beyond it that loses digits to the 1 - (1 - eps)
    subtraction, so the asymptotic series is summed to its smallest term.
    Accepts and preserves extended-precision input.
    """
    if tau <= 6.0:
        t = float(tau)
        return type(tau)(1.0 - math.sqrt(math.pi) * t * (math.exp(t * t) * math.erfc(t)))
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

    A constructive (mu = 1) event's PEP is
    A_l / 2 * sum_i C(l-1, i) (-1)^i tail(tau_i) / delta_i over i = 0 .. l-1,
    with delta_i = L - l + 1 + i and tau_i = kappa / sqrt(2 delta_i); the one
    bracket is tail(tau) = 1 - sqrt(pi) tau exp(tau^2) erfc(tau) at alpha = 1
    and 1 - 2 tau / sqrt(4 tau^2 + 1) at alpha = 2, each evaluated so large
    tau (high SNR) neither overflows nor loses its small residual. The tau_i
    and the sum are in extended precision: constructive high-SNR values sit
    many digits below the individual terms (with double tau_i, 6e-5 off
    pep_exact at 60 dB). A destructive event is one minus the constructive
    value, as in pep_exact.
    """
    if alpha not in (1.0, 2.0):
        raise DomainError(f"closed forms exist for alpha in {{1, 2}}, got {alpha!r}")
    _check_noise(event.config, alpha, 1.0)
    tail = _laplace_tail if alpha == 1.0 else _gauss_tail
    kappa = np.longdouble(_kappa(event, lambda0(alpha)))
    L, l = event.L, event.l
    acc = np.longdouble(0.0)
    for i in range(l):
        delta = L - l + 1 + i
        tau = kappa / np.sqrt(np.longdouble(2 * delta))
        acc += (-1) ** i * math.comb(l - 1, i) * tail(tau) / delta
    constructive = _order_coeff(L, l) / 2.0 * acc
    value = float(constructive if event.mu else 1.0 - constructive)
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
    over interferer and SIC-layer assignments; q is bits per symbol. A
    boundary (upsilon = 0) assignment, which enumerate_error_events leaves
    out, counts at its exact pair probability 1/2: with zeta = -X the error
    region is n sign(X) >= 0, and at X = zeta = 0 the conditional PEP is 1/2
    on both branches.
    """
    _check_noise(config, model.alpha, model.sigma2)
    phi = config.constellation
    q = len(phi).bit_length() - 1
    if 2**q != len(phi):
        raise DomainError("union bound needs a power-of-two constellation size")
    pep_sum = dict.fromkeys(itertools.permutations(phi, 2), 0.0)
    weight_sum = dict.fromkeys(pep_sum, 0.0)
    for ev, weight in enumerate_error_events(config, l):
        key = (ev.x_l, ev.x_check_l)
        pep_sum[key] += weight * pep_exact(ev, model).value
        weight_sum[key] += weight
    # the weights are powers of two, so each class's boundary share
    # 1 - weight_sum is exact, and 0.0 where the class has no boundary
    contributions = tuple(
        (x, x_check, _bit_errors(config, x, x_check),
         pep_sum[x, x_check] + 0.5 * (1.0 - weight_sum[x, x_check]))
        for x, x_check in sorted(pep_sum)
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
