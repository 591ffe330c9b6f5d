"""The benchmark's tracer, a traced pass of each workload, and the pair
tool's strict result parser, leftover-process check, bound verdict and
source digest.

The modules are loaded from their files: neither ``perfbench/`` nor
``tools/`` is a package, and nothing under ``perfbench/`` is written.
"""

import json
import math
import os
import signal
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load(relative: str) -> types.ModuleType:
    """Execute a script's source as a module without writing bytecode."""
    path = ROOT / relative
    module = types.ModuleType(path.stem)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    # a wrapped name the program drops makes the traced run report null
    # per-layer values, which the benchmark refuses
    tracing = load("perfbench/tracing.py")
    assert tracing.TARGETS
    missing = [path for path, _ in tracing.TARGETS if tracing._resolve(path) is None]
    assert missing == []
    for path, _ in tracing.TARGETS:
        owner, attr = tracing._resolve(path)
        assert callable(getattr(owner, attr)), path


class Calls:
    """The worker's call recorder, without its speed probe."""

    def record(self, seconds):
        pass


@pytest.mark.parametrize("workload", ["pep_curves", "union_bound", "cli_sweeps"])
def test_traced_pass_reports_every_per_layer_value(monkeypatch, tmp_path, workload):
    # what the benchmark's traced run does on its traced pass: a wrapper that
    # breaks the program, or a per-layer value that is null or not finite,
    # would make that run's last line no result
    inputs = load("perfbench/inputs.py")
    monkeypatch.setitem(sys.modules, "inputs", inputs)  # workloads imports it by name
    workloads = load("perfbench/workloads.py")
    tracing = load("perfbench/tracing.py")
    run, keys = workloads.RUNS[workload]
    out = {key: [] for key in keys}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run(inputs.PLANS[workload](1, 0), Calls(), out, str(tmp_path))
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    assert all(out.values())
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.METRICS)
    for name, entry in metrics.items():
        value = entry["value"]
        assert type(value) in (int, float) and math.isfinite(value), (name, value)


@pytest.fixture(scope="module")
def bench_pairs():
    return load("tools/bench_pairs.py")


def result_line(**overrides):
    result = {
        "correct": True,
        "attempted": 796,
        "failed": 4,
        "metrics": {"wall_s": {"value": 0.3, "unit": "s"}, "mc.trials": {"value": 0, "unit": "count"}},
    }
    result.update(overrides)
    return json.dumps(result)


class TestParseResult:
    def test_last_line_parsed(self, bench_pairs):
        stdout = "progress\n" + result_line() + "\n"
        result = bench_pairs.parse_result(stdout)
        assert result["attempted"] == 796
        assert result["metrics"]["wall_s"]["value"] == 0.3

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_strict_constants_rejected(self, bench_pairs, constant):
        line = result_line().replace("0.3", constant)
        with pytest.raises(ValueError, match=f"{constant} is not strict JSON"):
            bench_pairs.parse_result(line)

    def test_null_metric_rejected(self, bench_pairs):
        # what the tracer reports for a name that no longer resolves
        line = result_line(metrics={"specfun.quad_nodes": {"value": None, "unit": "count"}})
        with pytest.raises(ValueError, match="specfun.quad_nodes is not a finite number"):
            bench_pairs.parse_result(line)

    @pytest.mark.parametrize(
        "stdout",
        [
            "",
            "no json here",
            "[1, 2]",
            result_line(correct="yes"),
            result_line(attempted=796.0),
            result_line(failed=True),
            result_line(metrics={}),
            result_line(metrics={"wall_s": 0.3}),
            result_line(metrics={"wall_s": {"value": "0.3", "unit": "s"}}),
            result_line(metrics={"wall_s": {"value": True, "unit": "s"}}),
            result_line() + "\ntrailing line",
        ],
    )
    def test_malformed_rejected(self, bench_pairs, stdout):
        with pytest.raises(ValueError):
            bench_pairs.parse_result(stdout)

    def test_incorrect_run_parses_for_the_caller_to_refuse(self, bench_pairs):
        assert bench_pairs.parse_result(result_line(correct=False))["correct"] is False


class TestCheckCounts:
    def test_equal_counts_pass(self, bench_pairs):
        run = {"attempted": 796, "failed": 4}
        bench_pairs.check_counts(run, dict(run))

    @pytest.mark.parametrize("key", ["attempted", "failed"])
    def test_differing_counts_rejected(self, bench_pairs, key):
        parent = {"attempted": 796, "failed": 4}
        change = dict(parent, **{key: parent[key] + 1})
        with pytest.raises(ValueError, match=f"{key} differs"):
            bench_pairs.check_counts(parent, change)


class TestWithinBound:
    # values exact in binary, so each edge is met exactly
    @pytest.mark.parametrize(
        "better,held,beyond", [("lower", 5.0, 5.000001), ("higher", 3.0, 2.999999)]
    )
    def test_both_edges(self, bench_pairs, better, held, beyond):
        # parent median 4 and bound 0.25: the change may be worse by 1
        assert bench_pairs.within_bound(4.0, held, 0.25, better)
        assert not bench_pairs.within_bound(4.0, beyond, 0.25, better)

    @pytest.mark.parametrize("better,change", [("lower", 0.5), ("higher", 400.0)])
    def test_better_is_held(self, bench_pairs, better, change):
        assert bench_pairs.within_bound(4.0, change, 0.0, better)

    def test_summary_records_it_and_verdict_names_it(self, bench_pairs):
        runs = {
            side: [{"metrics": {"wall_s": {"value": v}, "peak_rss_mb": {"value": m}}}
                   for v, m in rows]
            for side, rows in (("parent", [(4.0, 40.0)] * 3), ("change", [(5.0, 44.5)] * 3))
        }
        declared = [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        ]
        metrics = bench_pairs.summary(runs, declared)
        assert metrics["wall_s"]["within_bound"] is True
        assert metrics["peak_rss_mb"]["within_bound"] is False
        assert bench_pairs.verdict("wall_s", metrics["wall_s"]) == (
            "wall_s: median 4 -> 5 s (+25.0 %, lower is better): bound 25 % held"
        )
        assert bench_pairs.verdict("peak_rss_mb", metrics["peak_rss_mb"]).endswith(
            "bound 10 % NOT held"
        )


def test_side_by_side_keeps_either_sides_metrics(bench_pairs):
    parent = {"metrics": {"a": {"value": 1.0, "unit": "ms"}}}
    change = {"metrics": {"a": {"value": 0.5, "unit": "ms"}, "b": {"value": 3, "unit": "count"}}}
    assert bench_pairs.side_by_side({"parent": parent, "change": change}) == {
        "a": {"unit": "ms", "parent": 1.0, "change": 0.5},
        "b": {"unit": "count", "parent": None, "change": 3},
    }


class TestSourceDigest:
    @staticmethod
    def tree(root, source="x = 1\n"):
        for rel, text in (
            ("src/pkg/mod.py", source),
            ("src/pkg/__init__.py", ""),
            ("perfbench/run.py", "print(1)\n"),
        ):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text, encoding="utf-8")
        return root

    def test_identical_trees_agree(self, bench_pairs, tmp_path):
        one, two = self.tree(tmp_path / "one"), self.tree(tmp_path / "two")
        assert bench_pairs.source_digest(one) == bench_pairs.source_digest(two)

    def test_one_changed_byte_differs(self, bench_pairs, tmp_path):
        one, two = self.tree(tmp_path / "one"), self.tree(tmp_path / "two", "x = 2\n")
        assert bench_pairs.source_digest(one) != bench_pairs.source_digest(two)

    def test_bytecode_and_outputs_ignored(self, bench_pairs, tmp_path):
        root = self.tree(tmp_path / "one")
        before = bench_pairs.source_digest(root)
        for rel in ("src/pkg/__pycache__/mod.cpython-311.pyc", "perfbench/out/run.json"):
            (root / rel).parent.mkdir(parents=True)
            (root / rel).write_bytes(b"\x00 anything")
        assert bench_pairs.source_digest(root) == before

    def test_revision_outside_git_keeps_the_digest(self, bench_pairs, tmp_path):
        root = self.tree(tmp_path / "one")
        assert bench_pairs.revision(root) == {
            "commit": None, "modified": None, "source_sha256": bench_pairs.source_digest(root)
        }


class TestSeveralWorkloads:
    BENCH = {
        "run_seconds": 25,
        "workloads": [{"name": "pep_curves"}, {"name": "union_bound"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}],
    }

    def test_workload_given_once_per_workload(self, bench_pairs):
        argv = ["p", "c", "--workload", "union_bound", "--workload", "pep_curves",
                "--pairs", "2", "--seed", "5", "--pr", "9"]
        assert bench_pairs.parse_args(argv, self.BENCH).workload == ["union_bound", "pep_curves"]

    @pytest.mark.parametrize("names", [["nope"], ["pep_curves", "pep_curves"]])
    def test_unknown_or_repeated_workload_rejected(self, bench_pairs, names):
        argv = ["p", "c", "--pairs", "2", "--seed", "5", "--pr", "9"]
        for name in names:
            argv += ["--workload", name]
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(argv, self.BENCH)

    def test_one_file_holds_every_workloads_pairs(self, bench_pairs, tmp_path):
        # a stand-in for run_once: the change is 1 s faster on union_bound
        # only, and every call is recorded in the order it is made
        calls = []

        def run(checkout, workload, seed, seconds, trace=0):
            calls.append((checkout.name, workload, seed, trace))
            wall = 3.0 - (checkout.name == "change" and workload == "union_bound")
            return {"correct": True, "attempted": 120, "failed": 0,
                    "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

        checkouts = {side: tmp_path / side for side in ("parent", "change")}
        out = bench_pairs.collect(run, checkouts, ["union_bound", "pep_curves"], [5, 6], self.BENCH)
        assert list(out["workloads"]) == ["union_bound", "pep_curves"]
        assert out["seeds"] == [5, 6] and out["first"] == ["parent", "change"]
        union, curves = out["workloads"]["union_bound"], out["workloads"]["pep_curves"]
        assert union["metrics"]["wall_s"]["change_pairs"] == {"better": 2, "worse": 0, "tied": 0}
        assert curves["metrics"]["wall_s"]["change_pairs"] == {"better": 0, "worse": 0, "tied": 2}
        assert union["traced"]["metrics"]["wall_s"] == {"unit": "s", "parent": 3.0, "change": 2.0}
        assert union["runs"]["change"] == [{"correct": True, "attempted": 120, "failed": 0}] * 2
        # each workload's pairs alternate which side goes first, then trace
        assert calls[:6] == [
            ("parent", "union_bound", 5, 0), ("change", "union_bound", 5, 0),
            ("change", "union_bound", 6, 0), ("parent", "union_bound", 6, 0),
            ("parent", "union_bound", 5, 1), ("change", "union_bound", 5, 1),
        ]
        assert [c[1] for c in calls[6:]] == ["pep_curves"] * 6
        json.dumps(out)  # what main writes


class TestPassCounts:
    SUMMARY = "pep_curves seed 5: 12 passes, 4032 calls, 4/796 failed per pass, 0 problems"

    @staticmethod
    def checkout(root, stderr_lines):
        """A stand-in checkout whose perfbench/run.py prints those lines to
        stderr and one correct result to stdout."""
        script = root / "perfbench" / "run.py"
        script.parent.mkdir(parents=True)
        script.write_text(
            "import sys\n"
            + "".join(f"print({line!r}, file=sys.stderr)\n" for line in stderr_lines)
            + f"print({result_line()!r})\n",
            encoding="utf-8",
        )
        return root

    @pytest.mark.parametrize(
        "stderr,passes",
        [("", None), ("no summary here", None), (SUMMARY, 12),
         ("pep_curves seed 5: 3 passes, 1 calls\n" + SUMMARY, 12)],
    )
    def test_pass_count_of_the_last_summary_line(self, bench_pairs, stderr, passes):
        assert bench_pairs.pass_count(stderr) == passes

    @pytest.mark.parametrize("lines,passes", [(["starting", SUMMARY], 12), (["starting"], None)])
    def test_run_once_records_passes_and_forwards_stderr(
        self, bench_pairs, tmp_path, capfd, lines, passes
    ):
        root = self.checkout(tmp_path, lines)
        result = bench_pairs.run_once(root, "pep_curves", 5, 0.1)
        assert result["passes"] == passes
        assert result["attempted"] == 796
        assert capfd.readouterr().err.splitlines() == lines

    def test_run_leaving_a_process_refused(self, bench_pairs, tmp_path):
        # a correct result, but run.py's sleep child outlives it
        pid_file = tmp_path / "sleep.pid"
        root = self.checkout(tmp_path / "checkout", [])
        script = root / "perfbench" / "run.py"
        script.write_text(
            "import subprocess\n"
            "child = subprocess.Popen(['sleep', '60'])\n"
            f"open({str(pid_file)!r}, 'w').write(str(child.pid))\n"
            + script.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        try:
            with pytest.raises(SystemExit, match="left processes running") as refused:
                bench_pairs.run_once(root, "pep_curves", 5, 0.1)
            assert f"[{pid_file.read_text()}]" in str(refused.value)
        finally:
            if pid_file.exists():
                try:
                    os.killpg(os.getpgid(int(pid_file.read_text())), signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_collect_records_every_runs_passes(self, bench_pairs, tmp_path):
        # a stand-in for run_once: the change fits one more pass per run
        def run(checkout, workload, seed, seconds, trace=0):
            return {"correct": True, "attempted": 120, "failed": 0,
                    "passes": seed + (checkout.name == "change"),
                    "metrics": {"wall_s": {"value": 3.0, "unit": "s"}}}

        checkouts = {side: tmp_path / side for side in ("parent", "change")}
        out = bench_pairs.collect(run, checkouts, ["union_bound"], [5, 6],
                                  TestSeveralWorkloads.BENCH)
        assert out["workloads"]["union_bound"]["passes"] == {"parent": [5, 6], "change": [6, 7]}
