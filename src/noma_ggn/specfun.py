"""Scalar special functions and semi-infinite quadrature.

Everything here is pure and reentrant: no caches, no globals, safe to call
from any number of threads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

__all__ = [
    "DomainError",
    "QuadratureError",
    "QuadratureSpec",
    "QuadratureResult",
    "lower_incomplete_gamma_reg",
    "upper_incomplete_gamma_reg",
    "erfcx",
    "integrate_semi_infinite",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of a function."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge.

    Carries the best available estimate and its error bound so callers can
    decide whether to proceed anyway.
    """

    def __init__(self, message, best_estimate, error_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("quadrature tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


class QuadratureResult(NamedTuple):
    value: float
    error: float


def _check_finite(name, x):
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")


def erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) * erfc(x).

    Safe for large positive x where exp(x^2) alone would overflow: above 25
    the standard asymptotic expansion is summed to its smallest term.
    """
    _check_finite("x", x)
    if x > 25.0:
        # erfcx(x) ~ 1/(x sqrt(pi)) * sum_n (-1)^n (2n-1)!! / (2 x^2)^n
        inv2x2 = 1.0 / (2.0 * x * x)
        term = 1.0
        total = 1.0
        for n in range(1, 30):
            new = term * (2 * n - 1) * inv2x2
            if new >= abs(term):
                break
            term = new
            total += -term if n % 2 else term
        return total / (x * math.sqrt(math.pi))
    if x < -25.0:
        # exp(x^2) overflows and erfcx(-x) is negligible next to it
        return math.inf
    return math.exp(x * x) * math.erfc(x)


def _gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series (x < a+1)."""
    log_prefix = a * math.log(x) - x - math.lgamma(a + 1.0)
    if log_prefix < -745.0:
        return 0.0
    term = 1.0
    total = 1.0
    ap = a
    for _ in range(10000):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total * math.exp(log_prefix)


def _gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) via Lentz's continued
    fraction (x >= a+1)."""
    log_prefix = a * math.log(x) - x - math.lgamma(a)
    if log_prefix < -745.0:
        return 0.0
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(log_prefix) * h


def _check_gamma_args(a: float, x: float) -> None:
    _check_finite("a", a)
    _check_finite("x", x)
    if a <= 0.0:
        raise DomainError(f"shape parameter must be positive, got {a!r}")
    if x < 0.0:
        raise DomainError(f"argument must be nonnegative, got {x!r}")


def lower_incomplete_gamma_reg(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a).

    Power series below x = a + 1, Lentz continued fraction above; both
    branches converge quickly and the split keeps either one well away from
    its slow regime.
    """
    _check_gamma_args(a, x)
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_cf(a, x)


def upper_incomplete_gamma_reg(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).

    Evaluated on the side of the series/continued-fraction split that avoids
    the 1 - P subtraction when Q is tiny.
    """
    _check_gamma_args(a, x)
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


# Gauss-Kronrod 7-15 pair on [-1, 1].
_KRONROD_NODES = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_KRONROD_WEIGHTS = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_GAUSS_WEIGHTS = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gk15(g: Callable[[float], float], lo: float, hi: float):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fk = 0.0
    fg = 0.0
    for j, xk in enumerate(_KRONROD_NODES):
        if xk == 0.0:
            fv = g(mid)
            fk += _KRONROD_WEIGHTS[j] * fv
            fg += _GAUSS_WEIGHTS[3] * fv
            continue
        fv = g(mid - half * xk) + g(mid + half * xk)
        fk += _KRONROD_WEIGHTS[j] * fv
        if j % 2 == 1:
            fg += _GAUSS_WEIGHTS[(j - 1) // 2] * fv
    return fk * half, abs(fk - fg) * half


# Initial panel edges on the mapped (0, 1) domain. The geometric ladder near
# zero keeps integrands whose mass sits at very small arguments (sharp decay
# scales up to ~1e12) from being missed by the first coarse panels.
_INITIAL_EDGES = tuple(
    [0.0]
    + [10.0 ** k for k in range(-12, 0)]
    + [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0]
)


def integrate_semi_infinite(
    f: Callable[[float], float],
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadratureResult:
    """Adaptive integral of f over [0, inf) for eventually-decaying f.

    The domain is mapped to (0, 1) via x = t / (1 - t) and integrated with an
    adaptively bisected Gauss-Kronrod 7-15 rule. Deterministic for a fixed
    spec. Raises QuadratureError (carrying the best estimate) if the error
    target is still unmet after spec.max_subdivisions bisections.
    """

    def g(t: float) -> float:
        u = 1.0 - t
        x = t / u
        v = f(x) / (u * u)
        if not math.isfinite(v):
            raise DomainError(f"integrand not finite at x={x!r}")
        return v

    # (neg_error, tie_breaker, lo, hi, value, error)
    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(_INITIAL_EDGES[:-1], _INITIAL_EDGES[1:]):
        val, err = _gk15(g, lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1
        total += val
        total_err += err

    subdivisions = 0
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if subdivisions >= spec.max_subdivisions:
            raise QuadratureError(
                f"quadrature not converged after {subdivisions} subdivisions "
                f"(estimate {total!r}, error {total_err!r})",
                best_estimate=total,
                error_estimate=total_err,
            )
        neg_err, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(g, lo, mid)
        v2, e2 = _gk15(g, mid, hi)
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        counter += 1
        subdivisions += 1

    return QuadratureResult(total, total_err)
