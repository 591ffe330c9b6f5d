"""Generalized Gaussian (GGD) noise model: density, constants, exact sampling.

The density is f(n) = alpha * lam / (2 Gamma(1/alpha)) * exp(-(lam |n|)^alpha)
with lam chosen so the variance equals sigma2. alpha = 2 is Gaussian,
alpha = 1 is Laplacian; smaller alpha means heavier tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import DomainError

__all__ = ["GGNoiseModel", "lambda0", "stream_rng"]


def lambda0(alpha: float) -> float:
    """Shape constant Gamma(3/alpha) / Gamma(1/alpha), via log-gamma."""
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    return math.exp(math.lgamma(3.0 / alpha) - math.lgamma(1.0 / alpha))


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); parallel callers should each
    take their own stream index."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


@dataclass(frozen=True)
class GGNoiseModel:
    """Immutable GGD noise description.

    lam = sqrt(lambda0 / sigma2) pins the variance of the density to sigma2;
    lambda0 = Gamma(3/alpha)/Gamma(1/alpha).
    """

    alpha: float
    sigma2: float
    lambda0: float = field(init=False)
    lam: float = field(init=False)

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be positive, got {self.alpha!r}")
        if not (self.sigma2 > 0.0 and math.isfinite(self.sigma2)):
            raise DomainError(f"sigma2 must be positive, got {self.sigma2!r}")
        lam0 = lambda0(self.alpha)
        object.__setattr__(self, "lambda0", lam0)
        object.__setattr__(self, "lam", math.sqrt(lam0 / self.sigma2))

    @classmethod
    def normalized(cls, alpha: float) -> "GGNoiseModel":
        """Unit-variance noise (the normalized receive-side model)."""
        return cls(alpha=alpha, sigma2=1.0)

    def pdf(self, n):
        """Density at n (scalar or ndarray); symmetric, integrates to 1."""
        n = np.asarray(n, dtype=float)
        coeff = self.alpha * self.lam / (2.0 * math.gamma(1.0 / self.alpha))
        out = coeff * np.exp(-((self.lam * np.abs(n)) ** self.alpha))
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, size=None):
        """Exact draws: X = sign * G**(1/alpha) / lam with G ~ Gamma(1/alpha, 1).

        (lam |X|)^alpha is then Gamma(1/alpha, 1) distributed, which is the
        sampler's testable signature.
        """
        g = rng.standard_gamma(1.0 / self.alpha, size=size)
        s = rng.integers(0, 2, size=size) * 2 - 1
        x = s * g ** (1.0 / self.alpha) / self.lam
        return x if size is not None else float(x)
