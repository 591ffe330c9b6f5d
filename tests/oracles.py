"""Reference quantities the tests compare the package against."""

import math
from dataclasses import dataclass

import numpy as np

from noma_ggn import ErrorEvent, lambda0, stream_rng
from noma_ggn.mc import BLOCK_TRIALS
from noma_ggn.specfun import DomainError


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
