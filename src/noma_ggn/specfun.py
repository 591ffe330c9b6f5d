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


def _gamma_series(a: float, x: float, lgamma_a1: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series (0 <= x <
    a+1), lgamma_a1 = lgamma(a + 1)."""
    if x == 0.0:
        return 0.0
    log_prefix = a * math.log(x) - x - lgamma_a1
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


def _gamma_cf(a: float, x: float, lgamma_a: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) via Lentz's continued
    fraction (x >= a+1), lgamma_a = lgamma(a)."""
    log_prefix = a * math.log(x) - x - lgamma_a
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
    """Raise the DomainError for (a, x) outside 0 < a < inf, 0 <= x < inf.

    The incomplete gammas call it only once their one chained comparison
    fails, so a valid call runs no check of its own.
    """
    _check_finite("a", a)
    _check_finite("x", x)
    if a <= 0.0:
        raise DomainError(f"shape parameter must be positive, got {a!r}")
    if x < 0.0:
        raise DomainError(f"argument must be nonnegative, got {x!r}")


def _incomplete_gamma_kernels(a: float) -> tuple:
    """(P(a, .), Q(a, .)) as functions of 0 <= x < inf for one shape
    0 < a < inf, with the shape's branch and constants settled once.

    Elementary at a = 1/2 (erf and erfc of sqrt(x)) and a = 1 (1 - exp(-x)
    and exp(-x)), and for Q at a = 2 (exp(-x) (1 + x)), DLMF 8.4. Otherwise
    a power series below x = a + 1 and a Lentz continued fraction above; the
    split keeps either one well away from its slow regime, and a Q small
    enough to lose digits in 1 - P is the continued fraction's own value.
    P(2, x) = 1 - exp(-x) (1 + x) cancels at small x, so P keeps the split
    at a = 2. No argument is checked.
    """
    if a == 0.5:

        def lower(x: float) -> float:
            return math.erf(math.sqrt(x))

        def upper(x: float) -> float:
            return math.erfc(math.sqrt(x))

        return lower, upper
    if a == 1.0:

        def lower(x: float) -> float:
            return -math.expm1(-x)

        def upper(x: float) -> float:
            return math.exp(-x)

        return lower, upper
    split = a + 1.0
    lgamma_a, lgamma_a1 = math.lgamma(a), math.lgamma(a + 1.0)

    def lower(x: float) -> float:
        if x < split:
            return _gamma_series(a, x, lgamma_a1)
        return 1.0 - _gamma_cf(a, x, lgamma_a)

    if a == 2.0:

        def upper(x: float) -> float:
            return math.exp(-x) * (1.0 + x)

    else:

        def upper(x: float) -> float:
            if x < split:
                return 1.0 - _gamma_series(a, x, lgamma_a1)
            return _gamma_cf(a, x, lgamma_a)

    return lower, upper


def lower_incomplete_gamma_reg(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a).

    Evaluated as _incomplete_gamma_kernels describes. Raises DomainError
    outside 0 < a < inf, 0 <= x < inf, and if neither expansion converges
    within _MAX_ITERATIONS terms, which takes a shape far above the
    package's (a ~ 1e7 at x ~ a).
    """
    if not (0.0 < a < math.inf and 0.0 <= x < math.inf):
        _check_gamma_args(a, x)
    return _incomplete_gamma_kernels(a)[0](x)


def upper_incomplete_gamma_reg(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x), evaluated
    and checked as lower_incomplete_gamma_reg."""
    if not (0.0 < a < math.inf and 0.0 <= x < math.inf):
        _check_gamma_args(a, x)
    return _incomplete_gamma_kernels(a)[1](x)


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


# (node, Kronrod weight, Gauss weight) of each symmetric pair, outermost
# first; the Gauss rule has no node at the even positions, weight 0.0 there
_GK15_PAIRS = tuple(
    zip(
        _KRONROD_NODES[:7],
        _KRONROD_WEIGHTS[:7],
        (0.0, _GAUSS_WEIGHTS[0], 0.0, _GAUSS_WEIGHTS[1], 0.0, _GAUSS_WEIGHTS[2], 0.0),
    )
)


def _gk15(f: Callable[[float], float], lo: float, hi: float):
    """Gauss-Kronrod 7-15 rule for the integral of f over [expm1(lo),
    expm1(hi)], taken in u = log1p(x): each node u is mapped to x =
    expm1(u) and weighted by the Jacobian 1 + x, the integrand in u being
    f(x) (1 + x). Returns (Kronrod value, |Kronrod - Gauss|)."""
    expm1 = math.expm1
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    fk = 0.0
    fg = 0.0
    for xk, wk, wg in _GK15_PAIRS:
        x1 = expm1(mid - half * xk)
        x2 = expm1(mid + half * xk)
        fv = f(x1) * (1.0 + x1) + f(x2) * (1.0 + x2)
        fk += wk * fv
        fg += wg * fv
    x = expm1(mid)
    fv = f(x) * (1.0 + x)
    fk += _KRONROD_WEIGHTS[7] * fv
    fg += _GAUSS_WEIGHTS[3] * fv
    return fk * half, abs(fk - fg) * half


def _raise_at_non_finite_node(f: Callable[[float], float], lo: float, hi: float) -> None:
    """Raise DomainError naming the first node x of _gk15's panel [lo, hi],
    in _gk15's order, at which f(x) (1 + x) is not finite. Returns if every
    node is finite (their weighted sum overflowed)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    for u in [u for xk, _, _ in _GK15_PAIRS for u in (mid - half * xk, mid + half * xk)] + [mid]:
        x = math.expm1(u)
        if not math.isfinite(f(x) * (1.0 + x)):
            raise DomainError(f"integrand not finite at x={x!r}")


# Convergence is driven by relative error: PEP values span hundreds of orders
# of magnitude, so a larger absolute floor would let tiny probabilities
# converge to noise.
_ABS_TOL = 1e-280
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 200


# ratio of neighbouring initial panel edges in x, explained in
# integrate_semi_infinite
_EDGE_RATIO = 4.0


def _initial_edges(scale: float, end: float) -> list:
    """Initial panel edges in u = log1p(x), from 0 to log1p(end)."""
    if not (math.isfinite(scale) and scale > 0.0):
        raise DomainError(f"scale must be positive and finite, got {scale!r}")
    if not 0.0 < end < math.inf:
        raise DomainError(f"end must be positive and finite, got {end!r}")
    lo = scale / 4.0
    log_ratio = math.log(end) - math.log(lo)
    # n <= 0 where end <= lo: the one panel [0, end]
    n = math.ceil(log_ratio / math.log(_EDGE_RATIO))
    xs = [lo * math.exp(log_ratio * k / n) for k in range(n)]
    return [0.0] + [math.log1p(x) for x in xs] + [math.log1p(end)]


def integrate_semi_infinite(
    f: Callable[[float], float], scale: float, *, end: float
) -> QuadratureResult:
    """Adaptive integral over [0, inf) of an f that is exactly 0.0 from end
    on, that is the integral of f over [0, end].

    scale is the smallest length in x on which f changes, e.g. 1 / c for
    exp(-c x). The initial panels are geometric in x with ratio at most 4
    from scale / 4 to end, so a feature at any length between the two sits
    within a panel or two of its own size; one panel [0, end] where
    end <= scale / 4. Each panel is integrated in u = log1p(x), x = expm1(u)
    with Jacobian 1 + x, which keeps full relative precision in x at every
    x a double holds, with an adaptively bisected Gauss-Kronrod 7-15 rule;
    the rule maps its own nodes to x, so f is called once per node with
    no wrapper between. Deterministic. Raises DomainError for a scale that is not positive and
    finite or an end that is not, and QuadratureError (carrying the best
    estimate) if the error target is still unmet after _MAX_SUBDIVISIONS
    bisections.
    """
    edges = _initial_edges(scale, end)

    def panel(lo: float, hi: float):
        # the Kronrod weights are positive, so a node that is not finite
        # leaves the panel's sum inf or nan: one test per panel, not per node
        val, err = _gk15(f, lo, hi)
        if not math.isfinite(val):
            _raise_at_non_finite_node(f, lo, hi)
        return val, err

    # panels are disjoint, so (neg_error, lo) orders the heap without ties
    heap = []
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = panel(lo, hi)
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
        v1, e1 = panel(lo, mid)
        v2, e2 = panel(mid, hi)
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        subdivisions += 1

    return QuadratureResult(total, total_err)
