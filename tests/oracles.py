"""Reference quantities the tests compare the package against."""

import math
from dataclasses import dataclass

import numpy as np

from noma_ggn import ErrorEvent, lambda0, order_terms, stream_rng
from noma_ggn.mc import BLOCK_TRIALS
from noma_ggn.specfun import DomainError, integrate_semi_infinite


@dataclass(frozen=True)
class DecisionNoise:
    """Scale and variance of the pairwise decision variable at gain h: the
    alpha = 2 reduction of the conditional PEP is (1/2) erfc(lambda_sub h^2
    |upsilon|), flipped to 1 - that for destructive events."""

    lambda_sub: float
    sigma_N2: float

    @classmethod
    def from_event(cls, event: ErrorEvent, h: float) -> "DecisionNoise":
        if h <= 0.0:
            raise DomainError(f"gain must be positive, got {h!r}")
        amp = event.config.amplitude(event.l)
        dc = abs(event.delta_check)
        lam0 = lambda0(event.config.noise_alpha)
        return cls(
            lambda_sub=math.sqrt(lam0) / (math.sqrt(2.0) * amp * h * dc),
            sigma_N2=2.0 * amp * amp * h * h * dc * dc,
        )


def nearest_symbol_argmin(phi: np.ndarray, residual: np.ndarray, c: np.ndarray) -> np.ndarray:
    """SIC decision by the full (n, m) distance matrix: argmin takes the
    first minimum of |residual - c * x|, so ties go to the smaller symbol."""
    dist = np.abs(residual[:, None] - c[:, None] * phi[None, :])
    return phi[np.argmin(dist, axis=1)]


def t2_term(alpha: float, kappa: float, delta: int) -> float:
    """T2 for one order-statistics term:
    (alpha kappa / delta) * int_0^inf exp(-(kappa w)^alpha - delta w^2 / 2) dw.
    """

    def integrand(w: float) -> float:
        return math.exp(-((kappa * w) ** alpha) - 0.5 * delta * w * w)

    val, _ = integrate_semi_infinite(integrand)
    return alpha * kappa / delta * val


def t1_t2_sum(event: ErrorEvent, alpha: float, kappa: float) -> float:
    """Unconditional PEP by the paper's term-wise expansion
    A_l/(2 Gamma(1/a)) * sum_i C(l-1,i) (-1)^i [T1 + (-1)^mu T2] with
    T1 = Gamma(1/a) / delta and T2 from t2_term.

    Accurate for destructive (mu = 0) events; for mu = 1 the sum cancels to
    l-th order at high SNR, so compare it there only at moderate SNR.
    """
    gamma_inv_a = math.exp(math.lgamma(1.0 / alpha))
    terms = order_terms(event.L, event.l)
    acc = 0.0
    for term in terms:
        t1 = gamma_inv_a / term.delta
        t2 = t2_term(alpha, kappa, term.delta)
        sign = (-1.0) ** term.i * math.comb(event.l - 1, term.i)
        acc += sign * (t1 + (-1.0) ** event.mu * t2)
    return terms[0].a_l / (2.0 * gamma_inv_a) * acc


def block_range_counts(block_fn, seed: int, trials: int, ranges: int):
    """Error counts as workers that each took one contiguous range of blocks
    would report them: block_fn(rng, n) on the (seed, block) stream of every
    block, each range's blocks visited last to first, the ranges' totals
    merged last to first. Block sizes are worked out here from BLOCK_TRIALS,
    not taken from the estimator."""
    sizes = [min(BLOCK_TRIALS, trials - start) for start in range(0, trials, BLOCK_TRIALS)]
    total = 0
    for part in reversed(np.array_split(np.arange(len(sizes)), ranges)):
        subtotal = 0
        for block in reversed(part.tolist()):
            subtotal += block_fn(stream_rng(seed, block), sizes[block])
        total += subtotal
    return total
