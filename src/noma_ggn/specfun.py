"""Scalar special functions and semi-infinite quadrature.

Everything here is pure and reentrant: no caches, no globals, safe to call
from any number of threads.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple

__all__ = [
    "DomainError",
    "QuadratureError",
    "QuadratureResult",
    "lower_incomplete_gamma_reg",
    "upper_incomplete_gamma_reg",
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


class QuadratureResult(NamedTuple):
    value: float
    error: float


def _check_finite(name, x):
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")


# Both expansions need about sqrt(a) terms when x is near a; the package's
# shapes a = 1/alpha stay below about 75 (lambda0 overflows beyond), far
# inside this cap.
_MAX_ITERATIONS = 10000


def _not_converged(method: str, a: float, x: float) -> DomainError:
    return DomainError(
        f"incomplete gamma {method} not converged after {_MAX_ITERATIONS} "
        f"iterations at a={a!r}, x={x!r}"
    )


def _gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series (x < a+1)."""
    log_prefix = a * math.log(x) - x - math.lgamma(a + 1.0)
    if log_prefix < -745.0:
        return 0.0
    term = 1.0
    total = 1.0
    ap = a
    for _ in range(_MAX_ITERATIONS):
        ap += 1.0
        term *= x / ap
        total += term
        # x > 0 and ap > 0: every term and the total are positive
        if term < total * 1e-17:
            break
    else:
        raise _not_converged("series", a, x)
    return total * math.exp(log_prefix)


def _gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) via Lentz's continued
    fraction (x >= a+1)."""
    log_prefix = a * math.log(x) - x - math.lgamma(a)
    if log_prefix < -745.0:
        return 0.0
    tiny = 1e-300
    # x - a first: x + 1 - a can round to 0 once a >= 2**53
    b = (x - a) + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITERATIONS + 1):
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
        # |delta - 1| < 1e-17 holds for the double 1.0 alone
        if delta == 1.0:
            break
    else:
        raise _not_converged("continued fraction", a, x)
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

    Elementary at a = 1/2 (erf(sqrt(x))) and a = 1 (1 - exp(-x)), DLMF 8.4.
    Otherwise a power series below x = a + 1 and a Lentz continued fraction
    above; the split keeps either one well away from its slow regime. Raises
    DomainError if neither converges within _MAX_ITERATIONS terms, which
    takes a shape far above the package's (a ~ 1e7 at x ~ a).
    """
    _check_gamma_args(a, x)
    if x == 0.0:
        return 0.0
    if a == 0.5:
        return math.erf(math.sqrt(x))
    if a == 1.0:
        return -math.expm1(-x)
    # P(2, x) = 1 - exp(-x) (1 + x) cancels at small x: a = 2 keeps the split
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_cf(a, x)


def upper_incomplete_gamma_reg(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).

    Elementary at a = 1/2 (erfc(sqrt(x))), a = 1 (exp(-x)) and a = 2
    (exp(-x) (1 + x)), DLMF 8.4. Otherwise evaluated on the side of the
    series/continued-fraction split that avoids the 1 - P subtraction when
    Q is tiny; DomainError as for lower_incomplete_gamma_reg.
    """
    _check_gamma_args(a, x)
    if x == 0.0:
        return 1.0
    if a == 0.5:
        return math.erfc(math.sqrt(x))
    if a == 1.0:
        return math.exp(-x)
    if a == 2.0:
        return math.exp(-x) * (1.0 + x)
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


# Convergence is driven by relative error: PEP values span hundreds of orders
# of magnitude, so a larger absolute floor would let tiny probabilities
# converge to noise.
_ABS_TOL = 1e-280
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 200


# initial panel rule, explained in integrate_semi_infinite
_EDGE_RATIO = 4.0
_TOP_SCALES = 64.0


def _initial_edges(scales) -> list:
    """Initial panel edges on the mapped (0, 1) domain, 0 and 1 included."""
    scales = tuple(scales)
    if not scales:
        raise DomainError("at least one scale is required")
    for s in scales:
        if not (math.isfinite(s) and s > 0.0):
            raise DomainError(f"scales must be positive and finite, got {s!r}")
    lo = min(scales) / 4.0
    log_ratio = math.log(_TOP_SCALES * max(scales)) - math.log(lo)
    n = math.ceil(log_ratio / math.log(_EDGE_RATIO))
    xs = [lo * math.exp(log_ratio * k / n) for k in range(n + 1)]
    return [0.0] + [x / (1.0 + x) for x in xs] + [1.0]


def integrate_semi_infinite(f: Callable[[float], float], scales) -> QuadratureResult:
    """Adaptive integral of f over [0, inf) for eventually-decaying f.

    scales are the positive lengths in x on which f changes, e.g. 1/c for
    exp(-c x); the caller names them all. The initial panels are geometric
    in x with ratio at most 4 from min(scales) / 4 to 64 max(scales), then
    one tail panel to infinity. The top edge sits at 64 scales because mass
    beyond it goes unseen by the tail panel's nodes: with an edge at 8 / c,
    e^-8 of c exp(-c x) would be missed. The domain is mapped to (0, 1) via
    x = t / (1 - t) and each panel integrated with an adaptively bisected
    Gauss-Kronrod 7-15 rule. Deterministic. Raises DomainError for no scales
    or a non-positive or non-finite one, and QuadratureError (carrying the
    best estimate) if the error target is still unmet after
    _MAX_SUBDIVISIONS bisections.
    """
    edges = _initial_edges(scales)

    def g(t: float) -> float:
        u = 1.0 - t
        x = t / u
        v = f(x) / (u * u)
        if not math.isfinite(v):
            raise DomainError(f"integrand not finite at x={x!r}")
        return v

    # panels are disjoint, so (neg_error, lo) orders the heap without ties
    heap = []
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk15(g, lo, hi)
        heapq.heappush(heap, (-err, lo, hi, val, err))
        total += val
        total_err += err

    subdivisions = 0
    while total_err > max(_ABS_TOL, _REL_TOL * abs(total)):
        if subdivisions >= _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"quadrature not converged after {subdivisions} subdivisions "
                f"(estimate {total!r}, error {total_err!r})",
                best_estimate=total,
                error_estimate=total_err,
            )
        _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(g, lo, mid)
        v2, e2 = _gk15(g, mid, hi)
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        subdivisions += 1

    return QuadratureResult(total, total_err)
