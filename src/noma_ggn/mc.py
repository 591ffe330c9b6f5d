"""Seeded Monte Carlo: pairwise-decision experiments and full SIC-chain BER.

Trials are processed in fixed-size logical blocks, each drawing from its own
(seed, block-index) stream through a per-block function. Error counts are
integers and merging is plain summation, so the counts are the same for any
split of the blocks into ranges and any order of visiting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import sample_ordered_gains
from .ggd import GGNoiseModel, stream_rng
from .noma import ErrorEvent, SystemConfig, nearest_symbol
from .specfun import DomainError

__all__ = ["McEstimate", "BLOCK_TRIALS", "wilson_interval", "estimate_pep_mc", "simulate_ber"]

BLOCK_TRIALS = 1 << 16

# two-sided 95%
_WILSON_Z = 1.959963984540054


def wilson_interval(errors: int, trials: int, z: float = _WILSON_Z) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials!r}")
    p = errors / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (p + 0.5 * z2n) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + 0.25 * z2n / trials) / denom
    # clamp away rounding so the interval always brackets the point estimate
    return (min(p, max(0.0, center - half)), max(p, min(1.0, center + half)))


@dataclass(frozen=True)
class McEstimate:
    """Binomial point estimate with 95% Wilson bounds and its seed."""

    point: float
    trials: int
    ci_low: float
    ci_high: float
    seed: int

    @classmethod
    def from_counts(cls, errors, trials, seed):
        lo, hi = wilson_interval(errors, trials)
        return cls(point=errors / trials, trials=trials, ci_low=lo, ci_high=hi, seed=seed)


def _block_sizes(trials: int) -> list:
    full, rest = divmod(trials, BLOCK_TRIALS)
    return [BLOCK_TRIALS] * full + ([rest] if rest else [])


def _decision_noise_model(alpha: float) -> GGNoiseModel:
    """Receiver noise entering the real decision metric.

    The analytic chain assigns the decision variable N = 2 sqrt(a_l
    gamma_bar) h delta_check n the variance 2 a_l gamma_bar h^2
    delta_check^2, i.e. the noise component seen by the real decision metric
    carries half the unit noise power (the in-phase part of the normalized
    noise). The simulators draw that component directly.
    """
    return GGNoiseModel(alpha=alpha, sigma2=0.5)


def _pep_block(
    event: ErrorEvent, config: SystemConfig, model: GGNoiseModel, rng: np.random.Generator, n: int
) -> int:
    """Pairwise decision errors in one block of n trials drawn from rng."""
    h = sample_ordered_gains(config.L, rng, n)[:, event.l - 1]
    nn = _decision_noise_model(model.alpha).sample(rng, size=n)
    lhs = (h * event.zeta + nn) ** 2
    rhs = (h * event.X + nn) ** 2
    return int(np.count_nonzero(lhs <= rhs))


def estimate_pep_mc(
    event: ErrorEvent,
    config: SystemConfig,
    model: GGNoiseModel,
    trials: int,
    seed: int,
) -> McEstimate:
    """Frequency of the pairwise decision error for a frozen event.

    Per trial: draw the l-th ordered Rayleigh gain h and unit-variance noise
    n with the model's shaping parameter, and count
    (h zeta + n)^2 <= (h X + n)^2. The interference context (X, zeta) stays
    fixed, matching the conditional pairwise experiment.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials!r}")
    errors = sum(
        _pep_block(event, config, model, stream_rng(seed, block), n)
        for block, n in enumerate(_block_sizes(trials))
    )
    return McEstimate.from_counts(errors, trials, seed)


def _ber_block(
    config: SystemConfig, model: GGNoiseModel, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Per-user bit errors (int64, length L) in one block of n trials drawn
    from rng."""
    L = config.L
    phi = np.asarray(config.constellation)
    amps = np.array([config.amplitude(k) for k in range(1, L + 1)])
    errors = np.zeros(L, dtype=np.int64)
    gains = sample_ordered_gains(L, rng, n)
    symbols = phi[rng.integers(0, len(phi), size=(n, L))]
    nn = _decision_noise_model(model.alpha).sample(rng, size=(n, L))
    composite = symbols @ amps
    for l in range(1, L + 1):
        h = gains[:, l - 1]
        resid = h * composite + nn[:, l - 1]
        for k in range(1, l + 1):
            decided = nearest_symbol(phi, resid, amps[k - 1] * h)
            if k < l:
                resid = resid - amps[k - 1] * h * decided
        errors[l - 1] = np.count_nonzero(decided != symbols[:, l - 1])
    return errors


def simulate_ber(
    config: SystemConfig,
    model: GGNoiseModel,
    trials: int,
    seed: int,
) -> tuple:
    """End-to-end SIC bit error rate per user.

    Each trial draws one ordered gain vector (users assigned by order),
    uniform symbols for every user, and independent unit-variance noise per
    receiver; user l runs SIC through its own layer and its decision is
    compared to its transmitted symbol. Returns one McEstimate per user.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials!r}")
    errors = np.zeros(config.L, dtype=np.int64)
    for block, n in enumerate(_block_sizes(trials)):
        errors += _ber_block(config, model, stream_rng(seed, block), n)
    return tuple(McEstimate.from_counts(int(e), trials, seed) for e in errors)
