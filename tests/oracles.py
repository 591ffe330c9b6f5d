"""Reference quantities the tests compare the package against."""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from noma_ggn import ErrorEvent, GGNoiseModel, lambda0, sample_ordered_gains, stream_rng
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

    # exp(-delta w^2 / 2) is 0.0 in double from delta w^2 / 2 = 745.2 on
    end = math.sqrt(2.0 * 745.2 / delta)
    val, _ = integrate_semi_infinite(integrand, min(1.0 / math.sqrt(delta), 1.0 / kappa), end=end)
    return alpha * kappa / delta * val


def t1_t2_sum(event: ErrorEvent, alpha: float, kappa: float) -> float:
    """Unconditional PEP by the paper's term-wise expansion
    A_l/(2 Gamma(1/a)) * sum_i C(l-1,i) (-1)^i [T1 + (-1)^mu T2] with
    T1 = Gamma(1/a) / delta and T2 from t2_term.

    Accurate for destructive (mu = 0) events; for mu = 1 the sum cancels to
    l-th order at high SNR, so compare it there only at moderate SNR.
    """
    L, l = event.L, event.l
    gamma_inv_a = math.exp(math.lgamma(1.0 / alpha))
    a_l = math.factorial(L) / (math.factorial(l - 1) * math.factorial(L - l))
    acc = 0.0
    for i in range(l):
        delta = L - l + 1 + i
        t1 = gamma_inv_a / delta
        t2 = t2_term(alpha, kappa, delta)
        sign = (-1.0) ** i * math.comb(l - 1, i)
        acc += sign * (t1 + (-1.0) ** event.mu * t2)
    return a_l / (2.0 * gamma_inv_a) * acc


MP_DPS = 30


def pep_mp(event: ErrorEvent, kappa: float | None = None) -> float:
    """PEP of a constructive (mu = 1) event in mpmath at MP_DPS digits,
    written from the model. With kappa given, the constructive PEP of the
    event's user at that decay scale instead of the event's own, for an
    event of either mu: the PEP depends on the event only through kappa.

    At gain w, user l decides x_check for x_l when n sign(d) <= w upsilon /
    (2 |d|), d = sqrt(a_l gamma_bar) delta_check, n GGD noise of shape alpha
    and variance 1/2 (rate lam, lam^2 = 2 Gamma(3/a) / Gamma(1/a)). With
    upsilon < 0 and kappa = lam |upsilon| / (2 |d|) that is the GGD tail
    Q(1/a, (kappa w)^a) / 2, whose w-derivative is
    -a kappa exp(-(kappa w)^a) / (2 Gamma(1/a)). Averaged over the l-th of L
    ordered Rayleigh gains and integrated by parts against their CDF
    F_l(w) = sum_{j >= l} C(L, j) F^j (1 - F)^(L - j), F = 1 - exp(-w^2 / 2),
    the PEP is a kappa / (2 Gamma(1/a)) int_0^inf exp(-(kappa w)^a) F_l(w) dw.

    For kappa < 1 (low SNR) that integrand spreads over w ~ 1 / kappa. There
    F_l is written as 1 - (1 - F_l): the first part integrates in closed form
    to 1/2, and 1 - F_l = sum_{j < l} C(L, j) F^j (1 - F)^(L - j) carries
    exp(-w^2 / 2), so the remaining integral lives on w ~ 1.
    """
    if not event.mu and kappa is None:
        raise DomainError("pep_mp evaluates constructive (mu = 1) events")
    L, l = event.L, event.l
    with mp.workdps(MP_DPS):
        alpha = mp.mpf(event.config.noise_alpha)
        if kappa is None:
            lam = mp.sqrt(2 * mp.gamma(3 / alpha) / mp.gamma(1 / alpha))
            a_l = mp.mpf(event.config.a[l - 1])
            d = mp.sqrt(a_l * mp.mpf(event.gamma_bar)) * abs(mp.mpf(event.delta_check))
            kappa = lam * abs(mp.mpf(event.upsilon)) / (2 * d)
        else:
            kappa = mp.mpf(kappa)
        low_snr = kappa < 1
        js = range(l) if low_snr else range(l, L + 1)
        terms = [(math.comb(L, j), j) for j in js]

        def integrand(w):
            big_f = -mp.expm1(-w * w / 2)
            part = sum(c * big_f**j * (1 - big_f) ** (L - j) for c, j in terms)
            return mp.exp(-((kappa * w) ** alpha)) * part

        # the gain density varies on w ~ 1 and the tail on w ~ 1 / kappa; for
        # kappa >= 1 the tail's exp(-(kappa w)^alpha) is followed on a
        # doubling ladder down to exp(-800), so that no panel holds a decay
        # over many of its own widths (without it mpmath's estimate missed
        # its target from about 130 dB). mpmath's error target is absolute,
        # so the integrand is rescaled to order one first
        breaks = {s * u for s in (0.5, 1, 2) for u in (1, 1 / kappa)}
        if not low_snr:
            top = mp.mpf(800) ** (1 / alpha) / kappa
            rung = 1 / (2 * kappa)
            while rung < top:
                breaks.add(rung)
                rung *= 2
        breaks = sorted(breaks)
        scale = max(integrand(b) * b for b in breaks)
        value, error = mp.quad(lambda w: integrand(w) / scale, [0] + breaks + [mp.inf], error=True)
        factor = alpha * kappa / (2 * mp.gamma(1 / alpha)) * scale
        pep = mp.mpf(1) / 2 - factor * value if low_snr else factor * value
        if not factor * error <= mp.mpf(10) ** (8 - MP_DPS) * pep:
            raise ArithmeticError(f"mpmath quadrature unconverged for {event}")
        return float(pep)


def pep_block_squared(events, alpha: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Pairwise decision errors of one block, trial by trial, written from
    the decision rule: row i of the (events, n) result marks the trials in
    which (h zeta + n)^2 <= (h X + n)^2 for event i, h the gain of its user
    and n the decision noise (shape alpha, variance 1/2). The draws are
    those of mc._pep_block, in its order: n ordered gain vectors, then n
    noise samples."""
    gains = sample_ordered_gains(events[0].L, rng, n)
    noise = GGNoiseModel(alpha=alpha, sigma2=0.5).sample(rng, n)
    return np.array([
        (gains[:, ev.l - 1] * ev.zeta + noise) ** 2 <= (gains[:, ev.l - 1] * ev.X + noise) ** 2
        for ev in events
    ])


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
