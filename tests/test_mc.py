"""Monte Carlo: pairwise experiments, full SIC BER, determinism, intervals."""

import concurrent.futures
import contextlib
import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from noma_ggn import (
    GGNoiseModel,
    SystemConfig,
    build_error_event,
    canonical_event,
    enumerate_error_events,
    estimate_pep_mc,
    pep_exact,
    simulate_ber,
    stream_rng,
    wilson_interval,
)
import noma_ggn
from noma_ggn import mc
from noma_ggn.mc import _ber_block, _pep_block
from noma_ggn.specfun import DomainError
from oracles import block_range_counts, pep_block_squared


def three_user(gamma_bar, alpha=2.0):
    return SystemConfig(a=(0.7, 0.2, 0.1), gamma_bar=gamma_bar, noise_alpha=alpha)


def db(v):
    return 10.0 ** (v / 10.0)


PAM4 = (-3.0, -1.0, 1.0, 3.0)


class TestWilson:
    @pytest.mark.parametrize("errors,trials", [(0, 100), (5, 100), (100, 100), (1, 10**6)])
    def test_interval_brackets_point(self, errors, trials):
        lo, hi = wilson_interval(errors, trials)
        p = errors / trials
        assert 0.0 <= lo <= p <= hi <= 1.0

    def test_shrinks_with_trials(self):
        w1 = wilson_interval(50, 1000)
        w2 = wilson_interval(5000, 100000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])

    def test_rejects_no_trials(self):
        with pytest.raises(DomainError):
            wilson_interval(0, 0)

    @pytest.mark.parametrize("errors", [5, -1, 1.5, 2.0])
    def test_rejects_errors_outside_integers_to_trials(self, errors):
        with pytest.raises(DomainError, match="integer in 0..3"):
            wilson_interval(errors, 3)

    def test_accepts_numpy_integer_errors(self):
        assert wilson_interval(np.int64(2), 4) == wilson_interval(2, 4)


class TestEstimatePepMc:
    def test_single_user_matches_analytic(self):
        cfg = SystemConfig(a=(1.0,), gamma_bar=10.0)
        ev = build_error_event(cfg, 1, x_l=1.0, x_check_l=-1.0)
        model = GGNoiseModel.normalized(2.0)
        (est,) = estimate_pep_mc([ev], model, trials=10**6, seed=2)
        analytic = pep_exact(ev, model).value
        assert est.ci_low <= analytic <= est.ci_high
        assert est.trials == 10**6

    def test_adjacent_seeds_both_cover(self):
        cfg = three_user(db(20.0), 1.0)
        model = GGNoiseModel.normalized(1.0)
        ev = canonical_event(cfg, 2)
        analytic = pep_exact(ev, model).value
        for seed in (1, 2):
            (est,) = estimate_pep_mc([ev], model, trials=10**6, seed=seed)
            assert est.ci_low <= analytic <= est.ci_high

    def test_deterministic_and_partition_invariant(self):
        cfg = three_user(db(10.0))
        model = GGNoiseModel.normalized(2.0)
        ev = canonical_event(cfg, 1)
        trials = 200000
        (est,) = estimate_pep_mc([ev], model, trials=trials, seed=3)
        for ranges in (1, 4, 16):
            (errors,) = block_range_counts(
                lambda rng, n: _pep_block([ev], model, rng, n), 3, trials, ranges
            )
            assert errors / trials == est.point

    def test_wilson_coverage(self):
        # 95% intervals must contain the analytic value in >= 90% of seeds
        cfg = SystemConfig(a=(1.0,), gamma_bar=10.0)
        ev = build_error_event(cfg, 1, x_l=1.0, x_check_l=-1.0)
        model = GGNoiseModel.normalized(2.0)
        analytic = pep_exact(ev, model).value
        hits = 0
        for seed in range(200):
            (est,) = estimate_pep_mc([ev], model, trials=1 << 16, seed=seed)
            hits += est.ci_low <= analytic <= est.ci_high
        assert hits >= 180


class TestSimulateBer:
    def test_noiseless_decodes_cleanly(self):
        cfg = three_user(1e12)
        model = GGNoiseModel.normalized(2.0)
        for est in simulate_ber([cfg], model, trials=10**4, seed=1)[0]:
            assert est.point == 0.0

    def test_pure_noise_limit(self):
        cfg = three_user(1e-9)
        model = GGNoiseModel.normalized(2.0)
        for est in simulate_ber([cfg], model, trials=10**5, seed=4)[0]:
            assert est.ci_low <= 0.5 <= est.ci_high

    def test_bit_identical_across_partitions(self):
        cfg = three_user(db(15.0), 1.0)
        model = GGNoiseModel.normalized(1.0)
        trials = 3 * (1 << 16) + 1234  # a partial last block
        points = [e.point for e in simulate_ber([cfg], model, trials=trials, seed=7)[0]]
        for ranges in (1, 4, 16):
            (counts,) = block_range_counts(
                lambda rng, n: _ber_block([cfg], model, rng, n), 7, trials, ranges
            )
            assert [int(c) / trials for c in counts] == points

    def test_repeatable(self):
        cfg = three_user(db(10.0))
        model = GGNoiseModel.normalized(2.0)
        (a,) = simulate_ber([cfg], model, trials=50000, seed=9)
        (b,) = simulate_ber([cfg], model, trials=50000, seed=9)
        assert [e.point for e in a] == [e.point for e in b]

    def test_user_ordering(self):
        # weaker-channel (higher-power) users see worse BER once SIC error
        # propagation has died down; below ~20 dB user 2 can sit above
        # user 1, so the ordering is asserted on the settled range
        model = GGNoiseModel.normalized(2.0)
        for snr_db in (20.0, 25.0, 30.0):
            cfg = three_user(db(snr_db))
            (ests,) = simulate_ber([cfg], model, trials=2 * 10**5, seed=11)
            for a, b in zip(ests, ests[1:]):
                assert a.ci_high >= b.ci_low  # ordering within CI slack

    def test_mc_matches_union_bound_shape(self):
        # simulated BER of user 1 equals its union bound (BPSK, exact identity)
        from noma_ggn import union_bound

        cfg = three_user(db(15.0))
        model = GGNoiseModel.normalized(2.0)
        est = simulate_ber([cfg], model, trials=10**6, seed=12)[0][0]
        bound = union_bound(cfg, model, 1).p_ub
        assert est.ci_low <= bound <= est.ci_high

    def test_rejects_no_trials(self):
        with pytest.raises(DomainError):
            simulate_ber([three_user(1.0)], GGNoiseModel.normalized(2.0), 0, 1)


class TestSharedDraws:
    """An N-point call shares each block's draws across its points, so it
    gives the counts of N one-point calls at the same seed."""

    TRIALS = 3 * (1 << 16) + 1234  # a partial last block

    def test_pep_events_match_one_point_calls(self):
        model = GGNoiseModel.normalized(1.0)
        events = [
            canonical_event(three_user(db(v), 1.0), l)
            for v in (0.0, 10.0, 25.0)
            for l in (1, 2, 3)
        ]
        # two destructive (mu = 0) events of user 3
        enumerated = enumerate_error_events(three_user(db(10.0), 1.0), 3)
        events += [ev for ev, _ in enumerated if ev.mu == 0][:2]
        shared = estimate_pep_mc(events, model, trials=self.TRIALS, seed=5)
        single = tuple(
            estimate_pep_mc([ev], model, trials=self.TRIALS, seed=5)[0] for ev in events
        )
        assert shared == single
        assert len({est.point for est in shared}) > len(events) // 2

    @pytest.mark.parametrize(
        "a,constellation", [((0.7, 0.2, 0.1), (-1.0, 1.0)), ((0.8, 0.2), PAM4)]
    )
    def test_ber_configs_match_one_point_calls(self, a, constellation):
        model = GGNoiseModel.normalized(2.0)
        configs = [
            SystemConfig(a=a, gamma_bar=db(v), constellation=constellation)
            for v in (5.0, 15.0, 30.0)
        ]
        shared = simulate_ber(configs, model, trials=self.TRIALS, seed=8)
        single = tuple(
            simulate_ber([cfg], model, trials=self.TRIALS, seed=8)[0] for cfg in configs
        )
        assert shared == single
        assert len({est.point for row in shared for est in row}) > 1

    def test_mixed_user_counts_rejected(self):
        model = GGNoiseModel.normalized(2.0)
        two = SystemConfig(a=(0.8, 0.2), gamma_bar=10.0)
        three = three_user(10.0)
        with pytest.raises(DomainError):
            estimate_pep_mc([canonical_event(two, 1), canonical_event(three, 1)], model, 100, 1)
        with pytest.raises(DomainError):
            simulate_ber([two, three], model, 100, 1)

    def test_mixed_constellations_rejected(self):
        bpsk = SystemConfig(a=(0.8, 0.2), gamma_bar=10.0)
        pam4 = SystemConfig(a=(0.8, 0.2), gamma_bar=10.0, constellation=PAM4)
        with pytest.raises(DomainError):
            simulate_ber([bpsk, pam4], GGNoiseModel.normalized(2.0), 100, 1)

    def test_no_points_rejected(self):
        model = GGNoiseModel.normalized(2.0)
        with pytest.raises(DomainError, match="at least one point"):
            estimate_pep_mc([], model, 100, 1)
        with pytest.raises(DomainError, match="at least one point"):
            simulate_ber([], model, 100, 1)


class _CountedMasks:
    """numpy as mc sees it, except that count_nonzero keeps a copy of every
    mask it counts."""

    def __init__(self):
        self.masks = []

    def __getattr__(self, name):
        return getattr(np, name)

    def count_nonzero(self, a):
        self.masks.append(a.copy())
        return np.count_nonzero(a)


class TestEventThreshold:
    """_pep_block decides an event by one comparison of n with
    -h (zeta + X) / 2 (<= when zeta > X, >= otherwise). That is the squared
    form (h zeta + n)^2 <= (h X + n)^2 (oracles.pep_block_squared) in exact
    arithmetic for h > 0. In doubles the two can differ only on a set of
    draws within rounding of the decision boundary, h = 0 among them; no
    seed has hit it, and here the two agree trial for trial on 2^20 draws
    per event."""

    BLOCKS = 16  # 16 * 2^16 = 1,048,576 trials

    @staticmethod
    def events(alpha):
        """Per SNR and user, the first enumerated event of each kind:
        constructive or destructive, zeta > X or zeta < X."""
        picked = {}
        for snr_db in (-10.0, 10.0, 30.0, 60.0):
            cfg = three_user(db(snr_db), alpha)
            for l in (1, 2, 3):
                for ev, _ in enumerate_error_events(cfg, l):
                    picked.setdefault((snr_db, l, ev.mu, ev.zeta > ev.X), ev)
        return list(picked.values())

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_matches_squared_form_trial_for_trial(self, monkeypatch, alpha):
        events = self.events(alpha)
        kinds = {(mu, above) for mu in (0, 1) for above in (False, True)}
        counted = _CountedMasks()
        monkeypatch.setattr(mc, "np", counted)
        model = GGNoiseModel.normalized(alpha)
        errors = 0
        for block in range(self.BLOCKS):
            counted.masks.clear()
            counts = _pep_block(events, model, stream_rng(31, block), mc.BLOCK_TRIALS)
            expected = pep_block_squared(events, alpha, stream_rng(31, block), mc.BLOCK_TRIALS)
            assert np.array_equal(np.array(counted.masks), expected)
            assert counts.tolist() == np.count_nonzero(expected, axis=1).tolist()
            errors += counts
        # each kind has an event that errs on some draws and not on others
        total = self.BLOCKS * mc.BLOCK_TRIALS
        mixed = {(ev.mu, ev.zeta > ev.X) for ev, e in zip(events, errors) if 0 < e < total}
        assert mixed == kinds


def _estimate_in_child():
    """A four-block PEP estimate, run inside a multiprocessing.Pool worker."""
    (est,) = estimate_pep_mc(
        [canonical_event(three_user(10.0), 1)], GGNoiseModel.normalized(2.0),
        TestWorkers.TRIALS, 1,
    )
    return est, est.workers


def _pooled_call_in_child(conn):
    """In a forked child: whether it started without its parent's pool, and
    a four-block estimate it runs in a pool of its own. The child leads a
    process group, which its pool's workers join."""
    os.setpgid(0, 0)
    try:
        conn.send((mc._KEPT_POOL._executor is None, _estimate_in_child()))
    except BaseException as exc:
        conn.send(exc)
        raise
    finally:
        conn.close()


def _alive(pids):
    """Those of pids whose process still exists."""
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        alive.append(pid)
    return alive


HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


class TestWorkers:
    """A call of _POOL_MIN_BLOCKS blocks or more runs them in min(usable
    CPUs, blocks) forked processes, one contiguous block range each, and its
    counts do not depend on how many. The processes are kept for the next
    pooled call with the same worker count."""

    TRIALS = 3 * (1 << 16) + 1234  # four blocks, a partial last one

    @pytest.fixture(autouse=True)
    def no_kept_pool(self):
        # each test starts the pool it counts on; none is left to the next
        mc._KEPT_POOL.shutdown()
        yield
        mc._KEPT_POOL.shutdown()

    @staticmethod
    def cpus(monkeypatch, n):
        # pool from two blocks on, so four-block calls exercise the split
        monkeypatch.setattr(mc, "_POOL_MIN_BLOCKS", 2)
        monkeypatch.setattr(mc, "_usable_cpus", lambda: n)

    @staticmethod
    def no_pool(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    @pytest.mark.skipif(not HAS_FORK, reason="the pool needs the fork start method")
    def test_pep_counts_independent_of_workers(self, monkeypatch):
        model = GGNoiseModel.normalized(1.0)
        cfg = three_user(db(10.0), 1.0)
        events = [canonical_event(cfg, l) for l in (1, 2, 3)]
        events += [next(ev for ev, _ in enumerate_error_events(cfg, 3) if ev.mu == 0)]
        estimates = {}
        for n in (1, 2, 3):
            self.cpus(monkeypatch, n)
            estimates[n] = estimate_pep_mc(events, model, trials=self.TRIALS, seed=6)
            assert {(est.blocks, est.workers) for est in estimates[n]} == {(4, n)}
        # == compares results only, not the workers that ran them
        assert estimates[1] == estimates[2] == estimates[3]
        assert len({est.point for est in estimates[1]}) == len(events)

    @pytest.mark.skipif(not HAS_FORK, reason="the pool needs the fork start method")
    @pytest.mark.parametrize(
        "a,constellation", [((0.7, 0.2, 0.1), (-1.0, 1.0)), ((0.8, 0.2), PAM4)]
    )
    def test_ber_counts_independent_of_workers(self, monkeypatch, a, constellation):
        model = GGNoiseModel.normalized(2.0)
        configs = [
            SystemConfig(a=a, gamma_bar=db(v), constellation=constellation)
            for v in (5.0, 20.0)
        ]
        rows = {}
        for n in (1, 2, 3):
            self.cpus(monkeypatch, n)
            rows[n] = simulate_ber(configs, model, trials=self.TRIALS, seed=10)
            assert {(est.blocks, est.workers) for row in rows[n] for est in row} == {(4, n)}
        assert rows[1] == rows[2] == rows[3]
        assert len({est.point for row in rows[1] for est in row}) > 1

    def test_one_block_runs_in_process(self, monkeypatch):
        self.cpus(monkeypatch, 4)
        self.no_pool(monkeypatch)
        model = GGNoiseModel.normalized(2.0)
        (est,) = estimate_pep_mc([canonical_event(three_user(10.0), 2)], model, 1 << 16, 1)
        assert (est.blocks, est.workers) == (1, 1)
        (row,) = simulate_ber([three_user(10.0)], model, 5000, 1)
        assert {(est.blocks, est.workers) for est in row} == {(1, 1)}

    def test_one_cpu_runs_in_process(self, monkeypatch):
        self.cpus(monkeypatch, 1)
        self.no_pool(monkeypatch)
        model = GGNoiseModel.normalized(2.0)
        (est,) = estimate_pep_mc(
            [canonical_event(three_user(10.0), 1)], model, self.TRIALS, 1
        )
        assert (est.blocks, est.workers) == (4, 1)

    def test_below_pool_min_blocks_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 4)
        self.no_pool(monkeypatch)
        blocks = mc._POOL_MIN_BLOCKS - 1
        (est,) = estimate_pep_mc(
            [canonical_event(three_user(10.0), 1)], GGNoiseModel.normalized(2.0),
            blocks * mc.BLOCK_TRIALS, 1,
        )
        assert (est.blocks, est.workers) == (blocks, 1)

    @pytest.mark.skipif(not HAS_FORK, reason="the pool needs the fork start method")
    def test_pool_from_pool_min_blocks(self, monkeypatch):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        methods = []

        def executor(workers, mp_context):
            # forked whatever the platform's default start method is
            methods.append(mp_context.get_start_method())
            return pool_executor(workers, mp_context=mp_context)

        pool_executor = concurrent.futures.ProcessPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", executor)
        trials = mc._POOL_MIN_BLOCKS * mc.BLOCK_TRIALS
        events = [canonical_event(three_user(10.0), 1)]
        model = GGNoiseModel.normalized(2.0)
        (pooled,) = estimate_pep_mc(events, model, trials, 1)
        assert (pooled.blocks, pooled.workers) == (mc._POOL_MIN_BLOCKS, 2)
        assert methods == ["fork"]
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 1)
        assert estimate_pep_mc(events, model, trials, 1) == (pooled,)

    @pytest.mark.skipif(not HAS_FORK, reason="the pool needs the fork start method")
    def test_pool_kept_until_the_worker_count_changes(self, monkeypatch):
        started = []

        def executor(workers, mp_context):
            started.append(workers)
            return pool_executor(workers, mp_context=mp_context)

        pool_executor = concurrent.futures.ProcessPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", executor)
        self.cpus(monkeypatch, 2)
        first, workers = _estimate_in_child()
        assert _estimate_in_child() == (first, workers) == (first, 2)
        assert started == [2]
        two = [child.pid for child in multiprocessing.active_children()]
        assert len(two) == 2
        self.cpus(monkeypatch, 3)
        assert _estimate_in_child() == (first, 3)
        assert started == [2, 3]
        # the two-worker pool was shut down before the three-worker one started
        assert _alive(two) == []

    @pytest.mark.skipif(not HAS_FORK, reason="the pool needs the fork start method")
    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        self.cpus(monkeypatch, 2)
        parent = _estimate_in_child()
        executor, caller = mc._KEPT_POOL._executor, os.getpid()
        submit = executor.submit

        def parent_only_submit(*args, **kwargs):
            if os.getpid() != caller:
                raise AssertionError("a forked child submitted to its parent's pool")
            return submit(*args, **kwargs)

        monkeypatch.setattr(executor, "submit", parent_only_submit)
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        child = context.Process(target=_pooled_call_in_child, args=(writer,))
        assert not child.daemon  # a daemonic child would run in-process
        child.start()
        writer.close()
        try:
            assert reader.poll(120), "the forked child sent nothing"
            sent = reader.recv()
            child.join(60)
            assert not child.is_alive(), "the forked child did not exit"
        finally:
            # a child that hangs on exit leaves its pool's workers too
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            child.kill()
            child.join(10)
        assert sent == (True, parent)
        assert child.exitcode == 0
        # the parent's pool still serves the parent
        assert _estimate_in_child() == parent
        assert mc._KEPT_POOL._executor is executor

    @pytest.mark.skipif(not HAS_FORK, reason="the pool needs the fork start method")
    def test_dead_worker_replaced_by_a_fresh_pool(self, monkeypatch):
        # the call that finds the pool broken runs its ranges again in a
        # fresh pool (mc's docstring), however soon after the death it comes
        self.cpus(monkeypatch, 2)
        first = _estimate_in_child()
        for wait_s in (0.0, 0.5):
            workers = [child.pid for child in multiprocessing.active_children()]
            assert len(workers) == 2
            executor = mc._KEPT_POOL._executor
            os.kill(workers[0], signal.SIGKILL)
            time.sleep(wait_s)
            assert _estimate_in_child() == first
            assert mc._KEPT_POOL._executor is not executor
            assert _alive(workers) == []

    @pytest.mark.skipif(not HAS_FORK, reason="the pool needs the fork start method")
    def test_cli_process_leaves_no_worker_behind(self, tmp_path):
        cfg, csv = tmp_path / "pep.cfg", tmp_path / "pep.csv"
        cfg.write_text("trials = 1000000\nsnr_db = 10\n", encoding="utf-8")
        src = os.path.dirname(os.path.dirname(noma_ggn.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import multiprocessing; from noma_ggn import cli, mc; "
            "mc._usable_cpus = lambda: 2; "
            f"code = cli.main(['pep', {str(cfg)!r}, '-o', {str(csv)!r}]); "
            "print(code, *(child.pid for child in multiprocessing.active_children()))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        code, *workers = map(int, out.split())
        assert code == 0 and len(workers) == 2  # 16 blocks on two kept workers
        deadline = time.monotonic() + 5.0
        while _alive(workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _alive(workers) == []

    @pytest.mark.parametrize("platform,methods", [
        (sys.platform, ["spawn", "forkserver"]),  # no fork at all
        ("darwin", ["fork", "spawn", "forkserver"]),  # fork, but unsafe
    ])
    def test_without_safe_fork_runs_in_process(self, monkeypatch, platform, methods):
        # spawn and forkserver would re-import an unguarded caller script
        self.cpus(monkeypatch, 4)
        self.no_pool(monkeypatch)
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        (est,) = estimate_pep_mc(
            [canonical_event(three_user(10.0), 1)], GGNoiseModel.normalized(2.0),
            self.TRIALS, 1,
        )
        assert (est.blocks, est.workers) == (4, 1)

    @pytest.mark.skipif(not HAS_FORK, reason="the pool worker is forked")
    def test_daemonic_caller_runs_in_process(self, monkeypatch):
        # a multiprocessing.Pool worker may not start children of its own
        self.cpus(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            est, workers = pool.apply(_estimate_in_child)
        assert workers == 1
        self.cpus(monkeypatch, 1)
        assert _estimate_in_child() == (est, 1)

    def test_workers_capped_by_blocks(self, monkeypatch):
        self.cpus(monkeypatch, 8)
        model = GGNoiseModel.normalized(2.0)
        (est,) = estimate_pep_mc([canonical_event(three_user(10.0), 1)], model, 70000, 1)
        assert (est.blocks, est.workers) == (2, 2)

    def test_import_starts_no_pool_machinery(self):
        # the pool is imported by the first call that runs one, so importing
        # the package and its CLI stays as cheap as before
        src = os.path.dirname(os.path.dirname(noma_ggn.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        code = (
            "import sys, noma_ggn, noma_ggn.cli; "
            "pool = ('concurrent.futures', 'concurrent.futures.process', 'multiprocessing'); "
            "print(sorted(m for m in pool if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        ).stdout
        assert out.strip() == "[]"


class TestBitIdentity:
    """Error counts at seed 21, pinned to the values the kernels gave before
    the compare-swap gain sort, the in-place event tests, the SIC layers on
    reused arrays, the one-comparison threshold test per PEP event and the
    BER block's contiguous per-user rows: any change of stream, draw order
    or arithmetic shows here. Each case has five PEP events (canonical
    events at 5, 15 and 30 dB and two destructive events at 15 dB) and three
    BER configurations."""

    SPLITS = {"bpsk": ((0.7, 0.2, 0.1), (-1.0, 1.0)), "4pam": ((0.8, 0.2), PAM4)}
    IN_PROCESS = 2 * mc.BLOCK_TRIALS + 4321  # three blocks, a partial last one
    POOLED = mc._POOL_MIN_BLOCKS * mc.BLOCK_TRIALS + 99
    COUNTS = {
        ("bpsk", 0.5, IN_PROCESS): (
            [3893, 3770, 7294, 547, 286, 812, 22, 2, 1, 135260, 135387],
            [[16925, 24147, 21597], [7887, 9083, 5786], [1315, 470, 126]],
        ),
        ("bpsk", 2.0, IN_PROCESS): (
            [5652, 4675, 12800, 605, 95, 248, 20, 0, 0, 135382, 135393],
            [[24487, 39647, 40994], [12764, 16932, 8973], [1970, 300, 15]],
        ),
        ("4pam", 0.5, IN_PROCESS): (
            [586, 620, 58, 25, 2, 0, 135371, 135393],
            [[52880, 56757], [51172, 51535], [50897, 50906]],
        ),
        ("4pam", 2.0, IN_PROCESS): (
            [643, 313, 73, 3, 0, 0, 135389, 135393],
            [[53597, 60306], [51090, 51179], [50899, 50901]],
        ),
        ("bpsk", 2.0, POOLED): (
            [16154, 13754, 36848, 1756, 281, 691, 55, 1, 0, 393287, 393315],
            [[71052, 114994, 119318], [37269, 49158, 26017], [5765, 840, 40]],
        ),
        ("4pam", 0.5, POOLED): (
            [1738, 1859, 187, 67, 7, 0, 393251, 393312],
            [[153518, 164824], [148423, 149463], [147634, 147621]],
        ),
    }

    @pytest.mark.parametrize("case,alpha,trials", sorted(COUNTS))
    def test_counts_are_pinned(self, monkeypatch, case, alpha, trials):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        a, phi = self.SPLITS[case]
        configs = [
            SystemConfig(a=a, gamma_bar=db(v), constellation=phi, noise_alpha=alpha)
            for v in (5.0, 15.0, 30.0)
        ]
        events = [canonical_event(c, l) for c in configs for l in range(1, len(a) + 1)]
        events += [ev for ev, _ in enumerate_error_events(configs[1], len(a)) if ev.mu == 0][:2]
        model = GGNoiseModel.normalized(alpha)
        peps = estimate_pep_mc(events, model, trials, 21)
        rows = simulate_ber(configs, model, trials, 21)
        pep_counts, ber_counts = self.COUNTS[(case, alpha, trials)]
        assert [round(e.point * trials) for e in peps] == pep_counts
        assert [[round(e.point * trials) for e in row] for row in rows] == ber_counts
        pooled = trials == self.POOLED and HAS_FORK
        assert {e.workers for e in peps} == {e.workers for row in rows for e in row} == {
            2 if pooled else 1
        }


class TestCallRecord:
    def test_seconds_is_the_call_wall_time_outside_equality(self):
        model = GGNoiseModel.normalized(2.0)
        (est,) = estimate_pep_mc([canonical_event(three_user(10.0), 1)], model, 5000, 1)
        (row,) = simulate_ber([three_user(10.0)], model, 5000, 1)
        assert est.seconds > 0.0
        assert len({e.seconds for e in row}) == 1 and row[0].seconds > 0.0
        assert dataclasses.replace(est, seconds=est.seconds + 1.0) == est


@pytest.mark.skipif(not HAS_FORK, reason="the pool needs the fork start method")
def test_pooled_call_from_a_thread_matches_main_thread(monkeypatch):
    # the pool forks while another thread of the caller is alive; the
    # forked workers run only block code, so the counts cannot depend on it
    monkeypatch.setattr(mc, "_POOL_MIN_BLOCKS", 2)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    configs = [three_user(db(v)) for v in (5.0, 20.0)]
    model = GGNoiseModel.normalized(2.0)
    trials = TestWorkers.TRIALS
    on_main = simulate_ber(configs, model, trials, 10)
    stop = threading.Event()
    bystander = threading.Thread(target=stop.wait)
    bystander.start()
    result = []
    try:
        caller = threading.Thread(
            target=lambda: result.append(simulate_ber(configs, model, trials, 10))
        )
        caller.start()
        caller.join(timeout=120)
        assert bystander.is_alive() and not caller.is_alive()
    finally:
        stop.set()
        bystander.join()
    (in_thread,) = result
    assert in_thread == on_main
    assert {e.workers for row in in_thread for e in row} == {2}
