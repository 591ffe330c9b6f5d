"""Seeded Monte Carlo: pairwise-decision experiments and full SIC-chain BER.

Trials are processed in fixed-size logical blocks, each drawing from its own
(seed, block-index) stream through a per-block function. Error counts are
integers and merging is plain summation, so the counts are the same for any
split of the blocks into ranges and any order of visiting them. A call of
two or more blocks splits them into min(usable CPUs, blocks) contiguous
ranges and runs each range in one worker of a kept pool of forked
processes; a one-block call, a call on one CPU, a call from a daemonic
process or a call on a platform without a safe fork runs its blocks in the
calling process. Every block of a range draws into and computes in the same
arrays, which the range allocates once; a worker keeps no arrays between
calls.

The pool is kept for the life of the process. The first pooled call starts
it and pays the fork; later calls that need no more workers than it has
reuse it, and a call that needs more shuts it down and starts a larger one.
A forked child forgets its parent's pool and starts its own on its
first pooled call. The pool is shut down at exit, also where a
multiprocessing child ends (which runs no atexit handlers). A call that
finds the pool broken, because a worker died, drops it and runs its ranges
once more in a fresh pool, so it returns the same counts; if that pool
breaks too, the call raises concurrent.futures.process.BrokenProcessPool.
The pool's manager thread stays alive between calls, so a caller that
forks after a pooled call forks a multi-threaded process (Python 3.12 and
later warn of it).

Each estimator takes a sequence of sweep points (events or configurations)
and draws every block once for all of them, so a one-point call is a
one-element sequence and an N-point call gives the counts of N one-point
calls at the same seed. trials must be an integer of at least 1 and seed
one of at least 0, or the estimator raises DomainError.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import sample_ordered_gains
from .ggd import GGNoiseModel, stream_rng
from .noma import ErrorEvent, SystemConfig, _check_noise, _Scratch, sic_decide
from .specfun import DomainError

__all__ = ["McEstimate", "BLOCK_TRIALS", "wilson_interval", "estimate_pep_mc", "simulate_ber"]

BLOCK_TRIALS = 1 << 16

# two-sided 95%
_WILSON_Z = 1.959963984540054


def wilson_interval(errors: int, trials: int) -> tuple:
    """Two-sided 95 % Wilson score interval for a binomial proportion of
    an integer count of errors in 0..trials."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials!r}")
    if not (isinstance(errors, numbers.Integral) and 0 <= errors <= trials):
        raise DomainError(f"errors must be an integer in 0..{trials}, got {errors!r}")
    p = errors / trials
    z2n = _WILSON_Z * _WILSON_Z / trials
    denom = 1.0 + z2n
    center = (p + 0.5 * z2n) / denom
    half = _WILSON_Z * math.sqrt(p * (1.0 - p) / trials + 0.25 * z2n / trials) / denom
    # clamp away rounding so the interval always brackets the point estimate
    return (min(p, max(0.0, center - half)), max(p, min(1.0, center + half)))


@dataclass(frozen=True)
class McEstimate:
    """Binomial point estimate with 95% Wilson bounds, its seed, the number
    of blocks its trials ran in, the number of processes that ran them (1
    when the calling process ran them itself) and the wall time in seconds
    of the call that produced it. `==` compares the result only: blocks
    follows from trials, workers and seconds from the machine."""

    point: float
    trials: int
    ci_low: float
    ci_high: float
    seed: int
    blocks: int = field(compare=False)
    workers: int = field(compare=False)
    seconds: float = field(compare=False)

    @classmethod
    def from_counts(cls, errors, trials, seed, blocks, workers, seconds):
        lo, hi = wilson_interval(errors, trials)
        return cls(
            point=errors / trials, trials=trials, ci_low=lo, ci_high=hi, seed=seed,
            blocks=blocks, workers=workers, seconds=seconds,
        )


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


def _check_shared(values, what: str) -> None:
    """The block draws depend on `what`, so every sweep point must agree on
    it; there must be at least one point."""
    if not values:
        raise DomainError("a sweep needs at least one point")
    if len(set(values)) != 1:
        raise DomainError(f"sweep points must share one {what}, got {sorted(set(values))}")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_range(block_fn, points, model: GGNoiseModel, seed: int, blocks: list) -> np.ndarray:
    """block_fn's error counts summed over the (seed, block) streams of the
    (block, size) pairs in blocks; every block draws into and works in the
    same scratch arrays."""
    scratch = _Scratch()
    return sum(
        block_fn(points, model, stream_rng(seed, block), n, scratch) for block, n in blocks
    )


def _pool_workers(blocks: int) -> int:
    """Worker processes for a call of `blocks` blocks; 1 runs the call
    in-process.

    In-process: one block, one CPU, a daemonic caller (a multiprocessing.Pool
    worker may not have children) and a platform without a safe fork. Fork
    needs no `if __name__ == "__main__":` guard in the caller's script,
    which spawn and forkserver (the Linux default from Python 3.14) do;
    Python documents fork as unsafe on macOS.
    """
    workers = min(_usable_cpus(), blocks)
    if workers < 2:
        return 1
    # imported here: the pool machinery costs tens of ms at package import
    import multiprocessing

    if (
        multiprocessing.current_process().daemon
        or sys.platform == "darwin"
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return 1
    return workers


class _KeptPool:
    """The worker processes that pooled calls share: started by the first
    pooled call, kept for the next ones and keyed on (pid, worker count); a
    call with fewer ranges than workers leaves the others idle.
    Every pooled call submits its ranges under one lock, so calls from
    several threads share the pool safely."""

    def __init__(self):
        self._lock = threading.Lock()
        self._key = None
        self._executor = None
        self._exit_pid = None

    def forget(self) -> None:
        """Drop the pool without touching it, as a forked child does: its
        workers and manager thread belong to the parent. The lock is new
        too, since another thread of the parent may have held it."""
        self._lock = threading.Lock()
        self._key = self._executor = None

    def shutdown(self) -> None:
        """Stop the pool's workers and wait for them; the next pooled call
        starts a new pool."""
        with self._lock:
            executor, self._key, self._executor = self._executor, None, None
        if executor is not None:
            executor.shutdown()

    def map(self, fn, ranges: list) -> list:
        """fn's results over ranges, one range per kept worker. A pool found
        broken (a worker died) is dropped and the ranges run once more in a
        fresh one; a second break raises BrokenProcessPool."""
        from concurrent.futures.process import BrokenProcessPool

        for retry in (False, True):
            try:
                with self._lock:
                    executor = self._start(len(ranges))
                    # map submits every range before it returns
                    results = executor.map(fn, ranges)
                return list(results)
            except BrokenProcessPool:
                with self._lock:
                    if self._executor is executor:
                        self._key = self._executor = None
                executor.shutdown()
                if retry:
                    raise

    def _start(self, workers: int):
        """A kept executor of at least `workers` forked processes in this
        process; a smaller one is shut down first. The caller holds the
        lock."""
        import concurrent.futures
        import multiprocessing
        from multiprocessing import util

        pid = os.getpid()
        if self._key is not None and self._key[0] == pid:
            if self._key[1] >= workers:
                return self._executor
            self._executor.shutdown()
        self._key, self._executor = None, None
        if self._exit_pid != pid:
            # multiprocessing's exit finalizers run from atexit and also where
            # a multiprocessing child ends, which runs no atexit handlers; the
            # high priority stops the workers before that exit joins them
            util.Finalize(None, self.shutdown, exitpriority=100)
            self._exit_pid = pid
        self._executor = concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")
        )
        self._key = (pid, workers)
        return self._executor


_KEPT_POOL = _KeptPool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_KEPT_POOL.forget)


def _count_blocks(block_fn, points, model: GGNoiseModel, trials: int, seed: int) -> tuple:
    """block_fn's error counts summed over every block of the call, with the
    block count and the number of processes that ran the blocks."""
    for name, value, least in (("trials", trials, 1), ("seed", seed, 0)):
        if not (isinstance(value, numbers.Integral) and value >= least):
            raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    blocks = list(enumerate(_block_sizes(int(trials))))
    workers = _pool_workers(len(blocks))
    if workers < 2:
        return _count_range(block_fn, points, model, seed, blocks), len(blocks), 1
    bounds = [len(blocks) * i // workers for i in range(workers + 1)]
    ranges = [blocks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    run_range = functools.partial(_count_range, block_fn, points, model, seed)
    return sum(_KEPT_POOL.map(run_range, ranges)), len(blocks), workers


def _pep_block(
    events: Sequence[ErrorEvent],
    model: GGNoiseModel,
    rng: np.random.Generator,
    n: int,
    scratch: _Scratch | None = None,
) -> np.ndarray:
    """Pairwise decision errors per event (int64) in one block of n trials
    drawn from rng; every event sees the same gains and noise. The noise
    and the event tests use scratch's arrays (fresh ones without it)."""
    scratch = _Scratch() if scratch is None else scratch
    gains = sample_ordered_gains(events[0].L, rng, n, out=scratch("gains", (events[0].L, n)))
    nn = _decision_noise_model(model.alpha).sample(rng, size=n, out=scratch("noise", n))
    edge = scratch("pep.edge", n)
    hit = scratch("pep.hit", n, bool)
    errors = np.empty(len(events), dtype=np.int64)
    for i, event in enumerate(events):
        # (h zeta + n)^2 <= (h X + n)^2 is h (zeta - X) (h (zeta + X) + 2 n)
        # <= 0, and zeta - X = amp_l delta_check is never 0: for h > 0 one
        # comparison of n with -h (zeta + X) / 2, <= when zeta > X, else >=
        np.multiply(gains[:, event.l - 1], -0.5 * (event.zeta + event.X), out=edge)
        side = np.less_equal if event.zeta > event.X else np.greater_equal
        errors[i] = np.count_nonzero(side(nn, edge, out=hit))
    return errors


def estimate_pep_mc(
    events: Sequence[ErrorEvent],
    model: GGNoiseModel,
    trials: int,
    seed: int,
) -> tuple:
    """Frequency of the pairwise decision error for each frozen event.

    Per trial: draw the ordered Rayleigh gains and unit-variance noise n
    with the model's shaping parameter; event i takes the gain h of its user
    l and counts (h zeta + n)^2 <= (h X + n)^2. The interference context
    (X, zeta) stays fixed, matching the conditional pairwise experiment.
    All events share each block's draws (common random numbers), so they
    must have one user count, and the model must be unit-variance with each
    event's noise_alpha. Returns one McEstimate per event.
    """
    start = time.perf_counter()
    _check_shared([ev.L for ev in events], "user count")
    for event in events:
        _check_noise(event.config, model.alpha, model.sigma2)
    errors, blocks, workers = _count_blocks(_pep_block, events, model, trials, seed)
    seconds = time.perf_counter() - start
    return tuple(
        McEstimate.from_counts(int(e), trials, seed, blocks, workers, seconds) for e in errors
    )


def _ber_block(
    configs: Sequence[SystemConfig],
    model: GGNoiseModel,
    rng: np.random.Generator,
    n: int,
    scratch: _Scratch | None = None,
) -> np.ndarray:
    """Per-config, per-user bit errors (int64, shape (configs, L)) in one
    block of n trials drawn from rng; every config sees the same gains,
    symbols and noise. Symbols, noise and the SIC chain use scratch's
    arrays (fresh ones without it)."""
    scratch = _Scratch() if scratch is None else scratch
    L = configs[0].L
    phi = np.asarray(configs[0].constellation)
    errors = np.zeros((len(configs), L), dtype=np.int64)
    gains = sample_ordered_gains(L, rng, n, out=scratch("gains", (L, n)))
    symbols = np.take(
        phi, rng.integers(0, len(phi), size=(n, L)), out=scratch("symbols", (n, L)), mode="clip"
    )
    nn = _decision_noise_model(model.alpha).sample(
        rng, size=(n, L), out=scratch("noise", (n, L))
    )
    # one contiguous row per user for the per-user reads below; the matmul
    # still reads the (n, L) draws, so the composite sums are unchanged
    symbol_rows = scratch("ber.symbol_rows", (L, n))
    noise_rows = scratch("ber.noise_rows", (L, n))
    np.copyto(symbol_rows, symbols.T)
    np.copyto(noise_rows, nn.T)
    composite, received = scratch("ber.composite", n), scratch("ber.received", n)
    wrong = scratch("ber.wrong", n, bool)
    for i, config in enumerate(configs):
        amps = np.array([config.amplitude(k) for k in range(1, L + 1)])
        np.matmul(symbols, amps, out=composite)
        for l in range(1, L + 1):
            h = gains[:, l - 1]
            np.multiply(h, composite, out=received)
            np.add(received, noise_rows[l - 1], out=received)
            decided = sic_decide(phi, amps, h, received, l, scratch)
            errors[i, l - 1] = np.count_nonzero(
                np.not_equal(decided, symbol_rows[l - 1], out=wrong)
            )
    return errors


def simulate_ber(
    configs: Sequence[SystemConfig],
    model: GGNoiseModel,
    trials: int,
    seed: int,
) -> tuple:
    """End-to-end SIC bit error rate per user, for each configuration.

    Each trial draws one ordered gain vector (users assigned by order),
    uniform symbols for every user, and independent unit-variance noise per
    receiver; user l runs SIC through its own layer and its decision is
    compared to its transmitted symbol. All configs share each block's draws
    (common random numbers), so they must have one user count and one
    constellation, and the model must be unit-variance with each config's
    noise_alpha. Returns, per config, a tuple of one McEstimate per user.
    """
    start = time.perf_counter()
    _check_shared([c.L for c in configs], "user count")
    _check_shared([c.constellation for c in configs], "constellation")
    for config in configs:
        _check_noise(config, model.alpha, model.sigma2)
    errors, blocks, workers = _count_blocks(_ber_block, configs, model, trials, seed)
    seconds = time.perf_counter() - start
    return tuple(
        tuple(
            McEstimate.from_counts(int(e), trials, seed, blocks, workers, seconds) for e in row
        )
        for row in errors
    )
