"""Pairwise error probabilities, the BER union bound, and diversity slopes.

The exact per-user PEP averages the conditional pairwise decision
probability over the ordered Rayleigh gain of that user. Two equivalent
routes are provided: the cancellation-free constructive integrand,
summed as its high-SNR series where that converges and integrated by one
quadrature elsewhere (destructive events are one minus it), and direct
averaging of the conditional PEP against the order-statistics density by
quadrature; the alpha = 1 (Laplacian) and alpha = 2 (Gaussian) closed forms
serve as independent cross-checks.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .channel import _order_coeff
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
    _incomplete_gamma_kernels,
    integrate_semi_infinite,
)

# unused here, and kept importable: perfbench/tracing.py wraps these names in
# this module to count their calls, which the inlined integrands make 0
from .channel import ordered_pdf  # noqa: F401
from .specfun import lower_incomplete_gamma_reg, upper_incomplete_gamma_reg  # noqa: F401

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
    """Analytic PEP, the method that produced it and its absolute error
    estimate, scaled like value: the engine's for the quadrature routes, the
    series' for "series_high" (a destructive pep_exact value's adds the
    rounding of its 1 - c), None for closed forms."""

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


def _conditional(mu: int, alpha: float, kappa: float, L: int = 0, l: int = 0):
    """The conditional PEP of an event with that mu as a function of the
    gain w >= 0, for noise of shape alpha and the event's decay scale kappa;
    with L > 0, times the density of the l-th smallest of L gains at w:
    pep_direct's integrand.

    The PEP equals [Gamma(1/a) + (-1)^mu * gamma(1/a, (kappa w)^a)] /
    (2 Gamma(1/a)); the constructive branch is evaluated through the upper
    regularized gamma so deep tails keep relative accuracy. Where
    (kappa w)^a overflows a double the incomplete gammas are exactly 0 and
    1 there, so the limit is taken. The incomplete gamma's branch and
    constants and the density's A_l, L - l + 1 and l - 1 are fixed here,
    and a node runs the operations of
    conditional_pep(event, model, w) * ordered_pdf(L, l, w) in their order.
    """
    lower, upper = _incomplete_gamma_kernels(1.0 / alpha)
    limit = 0.0 if mu else 1.0
    inf = math.inf
    exp, expm1 = math.exp, math.expm1
    if L:
        a_l = _order_coeff(L, l)
        neg_m, k = -(L - l + 1), l - 1

    def pep_at(w: float) -> float:
        try:
            z = (kappa * w) ** alpha
        except OverflowError:
            pep = limit
        else:
            if z == inf:
                pep = limit
            elif mu:
                pep = 0.5 * upper(z)
            else:
                pep = 0.5 * (1.0 + lower(z))
        if not L:
            return pep
        half_w2 = 0.5 * w * w
        return pep * (a_l * w * exp(neg_m * half_w2) * (-expm1(-half_w2)) ** k)

    return pep_at


def conditional_pep(event: ErrorEvent, model: GGNoiseModel, h: float) -> float:
    """Pairwise error probability conditioned on channel gain h >= 0: the
    function pep_direct integrates, at one gain."""
    _check_noise(event.config, model.alpha, model.sigma2)
    if not h >= 0.0:
        raise DomainError(f"gain must be >= 0, got h={h!r}")
    return _conditional(event.mu, model.alpha, _kappa(event, model.lambda0))(h)


# exp(-z) is 0.0 in double from z = 745.1332...
_EXP_UNDERFLOW = 745.2


def _underflow_arg(alpha: float) -> float:
    """A decay argument z beyond which the constructive factors of both
    quadrature routes, exp(-z) and Q(1/alpha, z), are exactly 0.0 in double.

    745.2 where Q(a, z) <= exp(-z) or is computed as exp(-z) (1 + z), that is
    a = 1/alpha <= 1 or a = 2. For other a > 1, Gamma(a, z) <= z^(a-1) e^-z
    z / (z - a + 1) (for z > a - 1) with ln z <= ln Z + (z - Z) / Z, Z = 745.2,
    puts the bound below e^-Z from Z + d on, d as below.
    """
    a = 1.0 / alpha
    if a <= 1.0 or a == 2.0:
        return _EXP_UNDERFLOW
    z = _EXP_UNDERFLOW
    d = ((a - 1.0) * (math.log(z) + 1.0 / (z - a + 1.0)) - math.lgamma(a)) / (1.0 - (a - 1.0) / z)
    return z + max(d, 0.0)


def _constructive_end(alpha: float, kappa: float) -> float:
    """w_0 = _underflow_arg(alpha)^(1/alpha) / kappa, from which a factor
    exp(-(kappa w)^alpha) or Q(1/alpha, (kappa w)^alpha) is exactly 0.0."""
    return _underflow_arg(alpha) ** (1.0 / alpha) / kappa


_UNIT_ROUNDOFF = 2.0**-53


def _one_minus(value: float, error: float) -> tuple:
    """A destructive PEP from the constructive value and its error
    estimate: (1 - value, error plus the rounding of 1 - value).

    Rounded to nearest, a result of magnitude at most 1 moves by at most
    the unit roundoff 2^-53, which the estimate counts; 1 - 0.0 is exact
    (the limit at kappa = inf) and adds nothing.
    """
    return 1.0 - value, error + (_UNIT_ROUNDOFF if value else 0.0)


def _pep_quadrature(
    route: str,
    event: ErrorEvent,
    alpha: float,
    kappa: float,
    integrand: Callable[[float], float],
    end: float,
    factor: float,
    flip: bool,
) -> tuple:
    """factor times the integral of integrand over the gain (one minus that
    when flip, as _one_minus), with the engine's error scaled alike, as
    (value, error).

    The integrand is exactly 0.0 from end on and varies on the density's
    scale 1 and the gamma factor's 1 / kappa, the smaller of which is the
    engine's scale.

    A QuadratureError is raised again naming the route and the event's user,
    SNR, alpha, mu and kappa, and carrying the best PEP estimate.
    """
    try:
        val, err = integrate_semi_infinite(integrand, min(1.0, 1.0 / kappa), end=end)
    except QuadratureError as exc:
        best, error = factor * exc.best_estimate, factor * exc.error_estimate
        if flip:
            best, error = _one_minus(best, error)
        raise QuadratureError(
            f"PEP by the {route} route not converged (user {event.l}, gamma_bar "
            f"{event.gamma_bar!r}, alpha {alpha!r}, mu {event.mu}, kappa {kappa!r}): "
            f"best estimate {best!r}, error estimate {error!r}",
            best_estimate=best,
            error_estimate=error,
        ) from exc
    val, err = factor * val, factor * err
    return _one_minus(val, err) if flip else (val, err)


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

    exp, expm1 = math.exp, math.expm1

    def integrand(w: float) -> float:
        try:
            z = (kappa * w) ** alpha
        except OverflowError:
            return 0.0  # exp(-z) underflowed long before
        big_w = -expm1(-0.5 * w * w)
        beta = 0.0
        wp = big_w**l
        for c in coeffs:
            beta += c * wp
            wp *= big_w
        return exp(-z) * beta

    a_l = _order_coeff(L, l)
    factor = a_l / (2.0 * math.exp(math.lgamma(1.0 / alpha))) * alpha * kappa
    return _pep_quadrature(
        "quadrature", event, alpha, kappa, integrand, _constructive_end(alpha, kappa),
        factor, not event.mu,
    )


# the high-SNR series is taken where its error estimate is at most this
# fraction of its sum, and declined once it has not got there in
# _SERIES_MAX_TERMS terms
_SERIES_REL_TOL = 1e-14
_SERIES_MAX_TERMS = 30
# math.gamma overflows from 171.62
_GAMMA_MAX_ARG = 171.0
# relative roundings of the series' factors in units of _UNIT_ROUNDOFF,
# besides what math.gamma makes of its argument's rounding: each math.gamma
# value is within 7.5 units (measured against mpmath), and each of the few
# other operations within one. The first term and each ratio of consecutive
# terms have two gammas and about five operations, the first term's power
# l more.
_FIRST_TERM_ROUNDINGS = 20
_RATIO_ROUNDINGS = 20


def _gamma_condition(x: float) -> float:
    """Bound on |x psi(x)|, by which Gamma(x) multiplies a relative change of
    x > 0, from log x - 1/x < psi(x) < log x."""
    return x * abs(math.log(x)) + 1.0


def _constructive_series(L: int, l: int, alpha: float, kappa: float):
    """The constructive PEP at decay scale kappa by its high-SNR series, as
    (value, error estimate), or None where the series is declined.

    In s = w^2 / 2 the integrand's B(w) of _constructive_value is
    sum_{k >= l} N_k s^k / k! with the integers
    N_k = sum_{i < l} C(l-1, i) (-1)^i (-delta_i)^(k-1), delta_i = L - l + 1 + i
    (N_l = (l-1)!, and the signs alternate). Integrated term by term
    (Watson's lemma),
    PEP = A_l / (2 Gamma(1/a)) sum_{k >= l} N_k / k! Gamma((2k+1)/a) (2 kappa^2)^-k;
    it converges for alpha > 2 and is asymptotic below. The first term,
    A_l Gamma((2l+1)/a) / (2 l Gamma(1/a)) (2 kappa^2)^-l, makes the
    diversity order l at every alpha.

    The series is taken only where each term is smaller in magnitude than
    the one before and the first omitted term plus a rounding bound is at
    most _SERIES_REL_TOL of the sum; that total is the error estimate. The
    terms are summed in units of the first, each the one before times their
    ratio in doubles, which is inf at a kappa so small that 2 kappa^2
    underflows: the series is declined there at its second term, and where
    a gamma would overflow, with no exception at any kappa. The rounding
    bound gives each term its factors' roundings, each math.gamma's with the
    amplification of its argument's. At kappa = inf every term is 0.0, the
    limit, returned exactly.
    """
    if kappa == math.inf:
        return 0.0, 0.0
    x = (2 * l + 1) / alpha
    if not x < _GAMMA_MAX_ARG:
        return None
    inv_y = 0.5 / kappa / kappa  # 1 / (2 kappa^2)
    deltas = [L - l + 1 + i for i in range(l)]
    weights = [math.comb(l - 1, i) * (-1) ** i for i in range(l)]
    powers = [(-d) ** l for d in deltas]  # (-delta_i)^(k-1) at k = l + 1
    n_prev, gamma_prev, cond_prev = math.factorial(l - 1), math.gamma(x), _gamma_condition(x)
    gamma_first = gamma_prev
    # the current term relative to the first, that term's relative rounding
    # and the sum's absolute one, both in units of the roundoff
    rho = 1.0
    term_roundings = _FIRST_TERM_ROUNDINGS + l + 0.5 * (cond_prev + _gamma_condition(1.0 / alpha))
    roundings = term_roundings
    total = 1.0
    for k in range(l + 1, l + 1 + _SERIES_MAX_TERMS):
        x = (2 * k + 1) / alpha
        if not x < _GAMMA_MAX_ARG:
            return None
        n_k = sum(w * p for w, p in zip(weights, powers))
        powers = [-d * p for d, p in zip(deltas, powers)]
        gamma_k, cond_k = math.gamma(x), _gamma_condition(x)
        ratio = n_k / n_prev / k * (gamma_k / gamma_prev) * inv_y
        if not abs(ratio) < 1.0:
            return None  # the terms rise: the series gets no closer
        rho *= ratio
        term_roundings += _RATIO_ROUNDINGS + 0.5 * (cond_k + cond_prev)
        error = abs(rho) + _UNIT_ROUNDOFF * roundings
        if error <= _SERIES_REL_TOL * total:
            break
        total += rho
        roundings += abs(rho) * term_roundings + 1.0  # the term and the addition
        n_prev, gamma_prev, cond_prev = n_k, gamma_k, cond_k
    else:
        return None
    power = inv_y**l
    a_l = _order_coeff(L, l)
    first = a_l / (2 * l) * (gamma_first / math.gamma(1.0 / alpha)) * power
    # a subnormal factor would leave the value short of its relative accuracy
    if not (power >= sys.float_info.min and first >= sys.float_info.min):
        return None
    return first * total, first * error


def pep_exact(event: ErrorEvent, model: GGNoiseModel) -> PepResult:
    """Unconditional PEP of the constructive integrand: by its high-SNR
    series where that converges (method "series_high"), else by one
    quadrature (method "quadrature").

    The destructive (mu = 0) conditional PEP 1/2 (1 + P(1/a, z)) is
    1 - 1/2 Q(1/a, z), one minus the constructive one at the same kappa, and
    the ordered-gain density integrates to one; so a destructive event is one
    minus the constructive value, its error estimate the constructive one's
    plus the rounding of that subtraction (_one_minus).
    """
    _check_noise(event.config, model.alpha, model.sigma2)
    kappa = _kappa(event, model.lambda0)
    series = _constructive_series(event.L, event.l, model.alpha, kappa)
    if series is None:
        value, error = _constructive_value(event, model.alpha, kappa)
        return PepResult(value=value, method="quadrature", error_estimate=error)
    value, error = series if event.mu else _one_minus(*series)
    return PepResult(value=value, method="series_high", error_estimate=error)


def pep_direct(event: ErrorEvent, model: GGNoiseModel) -> PepResult:
    """Unconditional PEP by direct averaging of the conditional PEP over the
    ordered-gain density. Independent of pep_exact's integrand.

    Everything fixed for the integral (noise check, kappa, the mu branch,
    the incomplete gamma's shape branch and constants, the density's
    coefficients) is settled before the quadrature runs; a node evaluates
    one fused integrand, the conditional PEP times the density, in one
    Python frame besides the incomplete gamma's own.
    """
    _check_noise(event.config, model.alpha, model.sigma2)
    kappa = _kappa(event, model.lambda0)
    if kappa == math.inf:
        # (kappa w)^alpha is inf at every gain w > 0: the conditional PEP is
        # its limit there, as in _conditional, and so is its average
        return PepResult(value=float(not event.mu), method="direct", error_estimate=0.0)
    L, l = event.L, event.l
    integrand = _conditional(event.mu, model.alpha, kappa, L, l)
    # the density's exp(-(L - l + 1) w^2 / 2) is exactly 0.0 from here on
    end = math.sqrt(2.0 * _EXP_UNDERFLOW / (L - l + 1))
    if event.mu:
        end = min(end, _constructive_end(model.alpha, kappa))
    value, error = _pep_quadrature("direct", event, model.alpha, kappa, integrand, end, 1.0, False)
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
