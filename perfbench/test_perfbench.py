"""Tests of the benchmark itself: `python -m pytest perfbench -q`."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, scenario_kwargs  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def span(sid, parent, name, start, end, scenario=0):
    return (sid, parent, scenario, name, start, end)


@pytest.mark.parametrize("n, label, value", [
    (5, "p50 (n=5 < 20)", 3),
    (19, "p50 (n=19 < 20)", 10),
    (20, "p50", 10),
    (40, "p75", 30),
    (100, "p90", 90),
    (999, "p95", 950),
    (1000, "p99", 990),
    (10000, "p99.9", 9990),
])
def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond(n, label, value):
    values = list(range(n, 0, -1))  # 1..n, unsorted on purpose
    assert tracing.tail(values) == (value, label)


def test_nearest_rank_counts_samples_beyond():
    assert tracing.nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == (2.0, 2)
    assert tracing.nearest_rank([7.0], 99.9) == (7.0, 0)


def test_covered_merges_overlaps_and_clips_to_interval():
    assert tracing.covered((0.0, 10.0), []) == 0.0
    assert tracing.covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
    assert tracing.covered((2.0, 5.0), [(0.0, 3.0), (4.0, 9.0)]) == 2.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, -1, "fedagg.round", 0.0, 10.0),
        span(1, 0, "model.finetune", 1.0, 3.0),
        span(2, 0, "simnet.run", 4.0, 8.0),
        span(3, 2, "simnet.send", 5.0, 6.0),
        span(4, 2, "simnet.send", 6.5, 7.0),
    ]
    ss = tracing.SpanSet(spans)
    assert ss.self_time(spans[0]) == pytest.approx(4.0)   # 10 - 2 - 4
    assert ss.self_time(spans[2]) == pytest.approx(2.5)   # 4 - 1 - 0.5
    assert ss.self_time(spans[3]) == pytest.approx(1.0)
    assert ss.self_total("simnet.run") == pytest.approx(2.5)
    assert ss.inclusive("simnet.send") == pytest.approx(1.5)


def test_inclusive_counts_nested_same_name_spans_once():
    spans = [
        span(0, -1, "overlay.rejoin", 0.0, 6.0),
        span(1, 0, "overlay.route", 1.0, 5.0),
        span(2, 1, "overlay.route", 2.0, 3.0),
        span(3, -1, "overlay.route", 7.0, 8.0),
    ]
    assert tracing.SpanSet(spans).inclusive("overlay.route") == pytest.approx(5.0)


def test_hooks_patch_methods_classmethods_and_globals_then_restore():
    class Thing:
        def work(self, x):
            return helper.double(x)

        @classmethod
        def make(cls):
            return cls()

    helper = types.SimpleNamespace(double=lambda x: 2 * x)
    originals = (Thing.__dict__["work"], Thing.__dict__["make"], helper.double)
    ticks = iter(range(100))
    hooks = tracing.Hooks(clock=lambda: float(next(ticks)))
    hooks.span(Thing, "make", "thing.make")
    hooks.span(Thing, "work", "thing.work",
               after=lambda _a, r: hooks.counts.update({"sum": r}))
    hooks.span(helper, "double", "helper.double")
    hooks.count(Thing, "work", "thing.work_calls")
    hooks.scenario = 3

    assert Thing.make().work(4) == 8
    assert hooks.counts == {"thing.work_calls": 1, "sum": 8}
    names = [(s[3], s[1], s[2]) for s in hooks.spans]
    assert names == [("thing.make", -1, 3), ("thing.work", -1, 3),
                     ("helper.double", 1, 3)]
    hooks.remove()
    assert (Thing.__dict__["work"], Thing.__dict__["make"], helper.double) == originals


def test_workloads_are_deterministic_in_the_seed():
    for w in WORKLOADS:
        assert scenario_kwargs(w, 5) == scenario_kwargs(w, 5)
        assert scenario_kwargs(w, 5) != scenario_kwargs(w, 6)
    churn = scenario_kwargs("churn", 5)[0]
    fails = [e for e in churn["failures"] if e[2] == "fail"]
    rejoins = [e for e in churn["failures"] if e[2] == "rejoin"]
    assert len(fails) == churn["nodes"] // 50 and len(rejoins) == len(fails) // 2
    with pytest.raises(ValueError):
        scenario_kwargs("nope", 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_traced_and_untraced_agree(workload):
    plain = rep.run_rep(workload, 2, trace=False, tiny=True)
    traced = rep.run_rep(workload, 2, trace=True, tiny=True)
    assert plain["failed"] == traced["failed"] == 0
    assert plain["violations"] == traced["violations"] == []
    assert plain["digests"] == traced["digests"]
    assert "layers" not in plain
    for name in run.end_to_end():
        assert plain[name] > 0
    want = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_ratio"}
    assert set(traced["layers"]) == want
    assert traced["layers"]["model.finetune_calls"][0] > 0
    assert traced["layers"]["simnet.events"][0] > 0


def test_benchmark_json_matches_the_reported_metrics():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_slowdown_averages_samples_in_window_or_falls_back():
    samples = [(t, 0.001 * (1 + t % 2)) for t in range(10)]  # 1 ms, 2 ms, ...
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.slowdown(samples, 0, 9, 7.0) == pytest.approx(0.0015 / nominal)
    assert hostspeed.slowdown(samples, 2, 5, 7.0) == pytest.approx(0.0015 / nominal)
    assert hostspeed.slowdown(samples, 2, 4, 7.0) == 7.0  # 3 samples < MIN_SAMPLES
