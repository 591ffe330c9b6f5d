"""Power-domain NOMA downlink: configuration, the SIC chain, error events.

All signals are real (BPSK-style constellations with real additive noise),
so the complex modulus in the analysis reduces to absolute value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .specfun import DomainError

__all__ = [
    "SystemConfig",
    "ErrorEvent",
    "DegenerateEventError",
    "nearest_symbol",
    "sic_decide",
    "build_error_event",
    "enumerate_error_events",
    "BPSK",
]

BPSK = (-1.0, 1.0)

# cap on enumerate_error_events' raw assignments, which grow exponentially
_MAX_EVENTS = 4096


class DegenerateEventError(ValueError):
    """Raised for error events sitting exactly on the upsilon = 0 boundary,
    where the constructive/destructive classification is undefined."""


@dataclass(frozen=True)
class SystemConfig:
    """Downlink configuration: power split, average transmit SNR, alphabet.

    a must be positive, non-increasing (stronger users get more power) and
    sum to 1. gamma_bar is the average transmit SNR 2P/N0 on a linear scale.
    """

    a: tuple
    gamma_bar: float
    constellation: tuple = BPSK
    noise_alpha: float = 2.0

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
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"power coefficients must sum to 1, got {total}")
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


def _check_noise(config: SystemConfig, alpha: float, sigma2: float) -> None:
    """The analytic and Monte Carlo routes model unit-variance noise of shape
    config.noise_alpha; a noise description that differs would otherwise be
    silently replaced by that one."""
    if alpha != config.noise_alpha or sigma2 != 1.0:
        raise DomainError(
            f"noise (alpha={alpha!r}, sigma2={sigma2!r}) must be unit-variance "
            f"with the configuration's noise_alpha={config.noise_alpha!r}"
        )


def _check_symbol(config: SystemConfig, x: float) -> float:
    if float(x) not in config.constellation:
        raise DomainError(f"symbol {x!r} not in constellation {config.constellation}")
    return float(x)


class _Scratch:
    """Arrays reused from call to call, one per name: a request gets the
    array kept under that name, allocated anew only when it is missing or
    has another shape or dtype. A caller that keeps one _Scratch for a range
    of Monte Carlo blocks allocates its arrays once per range; arrays freed
    after every block let glibc trim the heap and the next block fault the
    pages back in."""

    def __init__(self):
        self._arrays = {}

    def __call__(self, name: str, shape, dtype=float) -> np.ndarray:
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        arr = self._arrays.get(name)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = self._arrays[name] = np.empty(shape, dtype)
        return arr


def nearest_symbol(
    phi: np.ndarray, residual: np.ndarray, c: np.ndarray, scratch: _Scratch | None = None
) -> np.ndarray:
    """One layer of sic_decide, row by row: the point of the ascending
    constellation phi minimizing |residual - c * x|. A row moves to a later
    point only when that point is strictly closer, so ties break toward the
    smaller symbol.

    The result and the work arrays come from scratch (fresh ones without
    it); the result is overwritten by the next call that shares scratch.
    """
    scratch = _Scratch() if scratch is None else scratch
    shape = np.shape(residual)
    best = scratch("nearest.best", shape)
    dist = scratch("nearest.dist", shape)
    index = scratch("nearest.index", shape, np.intp)
    np.multiply(c, phi[0], out=best)
    np.subtract(residual, best, out=best)
    np.abs(best, out=best)
    # index is the first point of the running minimum. Point i comes after
    # every earlier index, so max(index, i * [dist < best]) moves exactly
    # the strictly closer rows to i: a select without the masked copy, which
    # branches on every row of a random mask and costs several times more
    for i in range(1, len(phi)):
        np.multiply(c, phi[i], out=dist)
        np.subtract(residual, dist, out=dist)
        np.abs(dist, out=dist)
        if i == 1:
            np.less(dist, best, out=index)
        else:
            moved = np.less(dist, best, out=scratch("nearest.moved", shape, np.intp))
            np.multiply(moved, i, out=moved)
            np.maximum(index, moved, out=index)
        if i < len(phi) - 1:  # the last point's minimum is never read
            np.minimum(best, dist, out=best)
    # every index is in range; "clip" skips the bounds check
    return np.take(phi, index, out=scratch("nearest.decided", shape), mode="clip")


def sic_decide(
    phi: np.ndarray,
    amps: np.ndarray,
    h: np.ndarray,
    received: np.ndarray,
    l: int,
    scratch: _Scratch | None = None,
) -> np.ndarray:
    """User l's layer-l decisions, row by row: layers 1..l are decided in
    turn by nearest_symbol at amplitude amps[k-1] * h (amps[k-1] =
    sqrt(a_k gamma_bar)), each decided layer below l subtracted first.

    Work arrays and the result come from scratch as in nearest_symbol;
    received is left as it is.
    """
    scratch = _Scratch() if scratch is None else scratch
    shape = np.shape(received)
    c = scratch("sic.amplitude", shape)
    resid = received
    for k in range(1, l):
        np.multiply(amps[k - 1], h, out=c)
        layer = nearest_symbol(phi, resid, c, scratch)
        np.multiply(c, layer, out=layer)
        resid = np.subtract(resid, layer, out=scratch("sic.residual", shape))
    np.multiply(amps[l - 1], h, out=c)
    return nearest_symbol(phi, resid, c, scratch)


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
    layers. upsilon on the decision boundary (|upsilon| <= 1e-12 max(X^2,
    zeta^2)) raises DegenerateEventError; X^2 or zeta^2 beyond the largest
    double raises DomainError.
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
    # scale-free in gamma_bar: X and zeta both scale with sqrt(gamma_bar), so
    # an absolute floor would make every event degenerate at low SNR;
    # X = zeta = 0 gives upsilon = 0 <= 0 and stays degenerate
    scale = max(X * X, zeta * zeta)
    if not math.isfinite(scale):
        raise DomainError(
            f"X^2 or zeta^2 overflows for (l={l}, gamma_bar={config.gamma_bar!r}): "
            f"X={X!r}, zeta={zeta!r}"
        )
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


def enumerate_error_events(config: SystemConfig, l: int) -> tuple:
    """All pairwise error events of user l under uniform symbol averaging, as
    a tuple of (event, weight) pairs.

    Joint assignments of transmitted symbols (all users), SIC-layer decisions
    (layers below l, each a free constellation point) and wrong hypotheses
    x_check != x_l are enumerated; every assignment of an (x_l, x_check)
    class has the same weight, one over the class size. Boundary
    (upsilon = 0) assignments have no ErrorEvent and are left out, so a
    class's weights sum to 1 minus its boundary share (union_bound counts
    that share). More than _MAX_EVENTS raw assignments raise DomainError.
    """
    if not 1 <= l <= config.L:
        raise DomainError(f"user index must be in 1..{config.L}, got {l!r}")
    phi = config.constellation
    m = len(phi)
    n_raw = m**config.L * (m - 1) * m ** (l - 1)
    if n_raw > _MAX_EVENTS:
        raise DomainError(
            f"enumeration size {n_raw} exceeds cap {_MAX_EVENTS} "
            f"(L={config.L}, |phi|={m})"
        )
    class_size = m ** (config.L - 1) * m ** (l - 1)
    weight = 1.0 / class_size
    events = []
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
                    continue
                events.append((ev, weight))
    return tuple(events)
