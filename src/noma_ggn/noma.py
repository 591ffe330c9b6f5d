"""Power-domain NOMA downlink: superposition, SIC detection, error events.

All signals are real (BPSK-style constellations with real additive noise),
so the complex modulus in the analysis reduces to absolute value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .specfun import DomainError

__all__ = [
    "SystemConfig",
    "ErrorEvent",
    "EnumeratedEvents",
    "DegenerateEventError",
    "superpose",
    "nearest_symbol",
    "sic_receive",
    "build_error_event",
    "enumerate_error_events",
    "BPSK",
]

BPSK = (-1.0, 1.0)


class DegenerateEventError(ValueError):
    """Raised for error events sitting exactly on the upsilon = 0 boundary,
    where the constructive/destructive classification is undefined."""


@dataclass(frozen=True)
class SystemConfig:
    """Downlink configuration: power split, average transmit SNR, alphabet.

    a must be positive, non-increasing (stronger users get more power) and
    sum to 1 by default; set require_full_power=False to allow sum < 1.
    gamma_bar is the average transmit SNR 2P/N0 on a linear scale.
    """

    a: tuple
    gamma_bar: float
    constellation: tuple = BPSK
    noise_alpha: float = 2.0
    require_full_power: bool = True

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        object.__setattr__(self, "a", a)
        if len(a) < 1:
            raise DomainError("power allocation must have at least one user")
        if any(v <= 0.0 for v in a):
            raise DomainError(f"power coefficients must be positive, got {a}")
        if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
            raise DomainError(
                f"power coefficients must be non-increasing, got {a}"
            )
        total = sum(a)
        if total > 1.0 + 1e-9:
            raise DomainError(f"power coefficients sum to {total} > 1")
        if self.require_full_power and abs(total - 1.0) > 1e-9:
            raise DomainError(
                f"power coefficients must sum to 1, got {total} "
                "(set require_full_power=False to relax)"
            )
        if not (self.gamma_bar >= 0.0 and math.isfinite(self.gamma_bar)):
            raise DomainError(f"gamma_bar must be >= 0, got {self.gamma_bar!r}")
        phi = tuple(sorted(float(s) for s in self.constellation))
        object.__setattr__(self, "constellation", phi)
        if len(set(phi)) != len(phi) or len(phi) < 2:
            raise DomainError("constellation symbols must be distinct (>= 2)")
        if abs(sum(phi)) > 1e-12 * max(abs(s) for s in phi):
            raise DomainError("constellation must be zero-mean")
        if not (self.noise_alpha > 0.0):
            raise DomainError(f"noise_alpha must be positive, got {self.noise_alpha!r}")

    @property
    def L(self) -> int:
        return len(self.a)

    def amplitude(self, l: int) -> float:
        """sqrt(a_l * gamma_bar) for 1-based user index l."""
        return math.sqrt(self.a[l - 1] * self.gamma_bar)


def _check_symbol(config: SystemConfig, x: float) -> float:
    if float(x) not in config.constellation:
        raise DomainError(f"symbol {x!r} not in constellation {config.constellation}")
    return float(x)


def superpose(config: SystemConfig, symbols: Sequence[float]) -> float:
    """Composite transmit signal sum_i sqrt(a_i * gamma_bar) * x_i."""
    if len(symbols) != config.L:
        raise DomainError(f"expected {config.L} symbols, got {len(symbols)}")
    return sum(
        config.amplitude(i + 1) * _check_symbol(config, x)
        for i, x in enumerate(symbols)
    )


def nearest_symbol(phi: np.ndarray, residual: np.ndarray, c: np.ndarray) -> np.ndarray:
    """One SIC layer, row by row: the point of the ascending constellation phi
    minimizing |residual - c * x|. argmin takes the first minimum, so ties
    break toward the smaller symbol."""
    dist = np.abs(residual[:, None] - c[:, None] * phi[None, :])
    return phi[np.argmin(dist, axis=1)]


def sic_receive(config: SystemConfig, received: float, h: float, l: int) -> tuple:
    """Layered detection at user l: decode layers 1..l, subtracting each.

    Each layer picks the constellation point minimizing
    |residual - sqrt(a_k gamma_bar) h x| by a one-row nearest_symbol call, so
    ties break toward the smaller symbol. Returns the l decisions in layer
    order.
    """
    if h < 0.0:
        raise DomainError(f"channel gain must be >= 0, got {h!r}")
    if not 1 <= l <= config.L:
        raise DomainError(f"user index must be in 1..{config.L}, got {l!r}")
    phi = np.asarray(config.constellation)
    residual = np.array([float(received)])
    decided = []
    for k in range(1, l + 1):
        c = config.amplitude(k) * h
        best = nearest_symbol(phi, residual, np.array([c]))
        decided.append(float(best[0]))
        residual = residual - c * best
    return tuple(decided)


@dataclass(frozen=True)
class ErrorEvent:
    """One pairwise hypothesis for user l with frozen interference context.

    sic_transmitted / sic_detected are the layer-1..l-1 symbols as sent and
    as decided by SIC; interferers are the lower-power users' symbols. The
    derived quantities follow the real-signal decision analysis:
    X is the residual interference seen by user l, zeta = amp_l * delta_check
    + X, upsilon = X^2 - zeta^2, and mu = 1 marks constructive events
    (upsilon < 0).
    """

    config: SystemConfig
    l: int
    x_l: float
    x_check_l: float
    sic_transmitted: tuple
    sic_detected: tuple
    interferers: tuple
    X: float
    zeta: float
    upsilon: float
    mu: int
    delta_check: float

    @property
    def a_l(self) -> float:
        return self.config.a[self.l - 1]

    @property
    def gamma_bar(self) -> float:
        return self.config.gamma_bar

    @property
    def L(self) -> int:
        return self.config.L


def build_error_event(
    config: SystemConfig,
    l: int,
    x_l: float,
    x_check_l: float,
    sic_detected: Sequence[float] = (),
    interferers: Sequence[float] = (),
    sic_transmitted: Sequence[float] | None = None,
) -> ErrorEvent:
    """Construct an ErrorEvent and its derived decision quantities.

    sic_transmitted defaults to sic_detected, i.e. perfect SIC at the lower
    layers. upsilon exactly on the decision boundary raises
    DegenerateEventError.
    """
    if not 1 <= l <= config.L:
        raise DomainError(f"user index must be in 1..{config.L}, got {l!r}")
    x_l = _check_symbol(config, x_l)
    x_check_l = _check_symbol(config, x_check_l)
    if x_check_l == x_l:
        raise DomainError("wrong hypothesis must differ from the transmitted symbol")
    sic_detected = tuple(_check_symbol(config, s) for s in sic_detected)
    if sic_transmitted is None:
        sic_transmitted = sic_detected
    sic_transmitted = tuple(_check_symbol(config, s) for s in sic_transmitted)
    interferers = tuple(_check_symbol(config, s) for s in interferers)
    if len(sic_detected) != l - 1 or len(sic_transmitted) != l - 1:
        raise DomainError(f"user {l} needs {l - 1} SIC-layer symbols")
    if len(interferers) != config.L - l:
        raise DomainError(f"user {l} needs {config.L - l} interferer symbols")

    X = sum(
        config.amplitude(i + 1) * (sic_transmitted[i] - sic_detected[i])
        for i in range(l - 1)
    )
    X += sum(
        config.amplitude(l + 1 + j) * interferers[j] for j in range(config.L - l)
    )
    delta_check = x_l - x_check_l
    zeta = config.amplitude(l) * delta_check + X
    upsilon = X * X - zeta * zeta
    scale = max(X * X, zeta * zeta, 1.0)
    if abs(upsilon) <= 1e-12 * scale:
        raise DegenerateEventError(
            f"upsilon = 0 for (l={l}, x={x_l}, x_check={x_check_l}, "
            f"sic={sic_detected}, interferers={interferers})"
        )
    return ErrorEvent(
        config=config,
        l=l,
        x_l=x_l,
        x_check_l=x_check_l,
        sic_transmitted=sic_transmitted,
        sic_detected=sic_detected,
        interferers=interferers,
        X=X,
        zeta=zeta,
        upsilon=upsilon,
        mu=1 if upsilon < 0.0 else 0,
        delta_check=delta_check,
    )


@dataclass(frozen=True)
class EnumeratedEvents:
    """Weighted events plus a count of boundary (upsilon = 0) assignments
    that were skipped. Iterates as (event, weight) pairs."""

    events: tuple
    degenerate_count: int

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


def enumerate_error_events(
    config: SystemConfig, l: int, max_events: int = 4096
) -> EnumeratedEvents:
    """All pairwise error events of user l under uniform symbol averaging.

    Joint assignments of transmitted symbols (all users), SIC-layer decisions
    (layers below l, each a free constellation point) and wrong hypotheses
    x_check != x_l are enumerated; weights are uniform within each
    (x_l, x_check) class and sum to 1 per class. Boundary assignments are
    dropped and counted.
    """
    if not 1 <= l <= config.L:
        raise DomainError(f"user index must be in 1..{config.L}, got {l!r}")
    phi = config.constellation
    m = len(phi)
    n_raw = m**config.L * (m - 1) * m ** (l - 1)
    if n_raw > max_events:
        raise DomainError(
            f"enumeration size {n_raw} exceeds cap {max_events} "
            f"(L={config.L}, |phi|={m})"
        )
    class_size = m ** (config.L - 1) * m ** (l - 1)
    weight = 1.0 / class_size
    events = []
    degenerate = 0
    for tx in itertools.product(phi, repeat=config.L):
        for detected in itertools.product(phi, repeat=l - 1):
            for x_check in phi:
                if x_check == tx[l - 1]:
                    continue
                try:
                    ev = build_error_event(
                        config,
                        l,
                        x_l=tx[l - 1],
                        x_check_l=x_check,
                        sic_detected=detected,
                        interferers=tx[l:],
                        sic_transmitted=tx[: l - 1],
                    )
                except DegenerateEventError:
                    degenerate += 1
                    continue
                events.append((ev, weight))
    return EnumeratedEvents(events=tuple(events), degenerate_count=degenerate)
