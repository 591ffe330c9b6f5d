"""The benchmark's tracer targets and the pair tool's strict result parser.

Both modules are loaded from their files: neither ``perfbench/`` nor
``tools/`` is a package, and nothing under ``perfbench/`` is written.
"""

import json
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


def test_side_by_side_keeps_either_sides_metrics(bench_pairs):
    parent = {"metrics": {"a": {"value": 1.0, "unit": "ms"}}}
    change = {"metrics": {"a": {"value": 0.5, "unit": "ms"}, "b": {"value": 3, "unit": "count"}}}
    assert bench_pairs.side_by_side({"parent": parent, "change": change}) == {
        "a": {"unit": "ms", "parent": 1.0, "change": 0.5},
        "b": {"unit": "count", "parent": None, "change": 3},
    }
