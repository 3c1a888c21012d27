"""Tests for the benchmark's own helpers: percentiles, self time, the correctness gate.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from monogamy.budget import BudgetExceededError  # noqa: E402


# ---------------------------------------------------------------------------
# percentile rule

@pytest.mark.parametrize("count, expected", [
    (19, None),   # even the median would have only 9 samples beyond it
    (20, 50),
    (100, 90),
    (240, 95),    # p96 leaves 9 beyond
    (1000, 99),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_latency_summary_tail_and_label():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    summary = stats.latency_summary(samples)
    assert summary["tail_label"] == "p90"
    assert summary["tail"] == 90.0
    assert sum(1 for s in samples if s > summary["tail"]) == 10
    assert summary["p50"] == 50.5
    assert summary["count"] == 100


def test_latency_summary_few_items_reports_max():
    summary = stats.latency_summary([3.0, 1.0, 2.0])
    assert summary["tail_label"] == "max"
    assert summary["tail"] == 3.0
    assert summary["p50"] == 2.0


def test_relative_spread():
    assert stats.relative_spread([10.0] * 5) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / 10.0)


# ---------------------------------------------------------------------------
# self-time subtraction

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def leaf():
        clock.now += 2.0

    leaf = tr.wrap("leaf", leaf)

    def middle():
        clock.now += 1.0
        leaf()
        leaf()
        clock.now += 0.5

    middle = tr.wrap("middle", middle)

    def outer():
        clock.now += 3.0
        middle()

    outer = tr.wrap("outer", outer)
    outer()

    assert tr.calls["leaf"] == 2
    assert tr.self_s["leaf"] == 4.0
    assert tr.total_s["middle"] == 5.5
    assert tr.self_s["middle"] == 1.5
    assert tr.total_s["outer"] == 8.5
    assert tr.self_s["outer"] == 3.0
    # self times partition the outermost span exactly
    assert tr.attributed_s() == tr.total_s["outer"]


def test_span_closes_on_exception_and_counts_error():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError("refused")

    boom = tr.wrap("boom", boom)
    outer = tr.wrap("outer", lambda: boom())
    with pytest.raises(RuntimeError):
        outer()
    assert tr.errors["boom"] == 1 and tr.errors["outer"] == 1
    assert tr.self_s["boom"] == 1.0 and tr.self_s["outer"] == 0.0
    assert tr.parent is None


def test_hook_sees_parent_span():
    tr = spans.Tracer(FakeClock())
    seen = []
    inner = tr.wrap("inner", lambda: 0, hook=lambda t, args, result: seen.append(t.parent))
    outer = tr.wrap("outer", lambda: inner())
    outer()
    assert seen == ["outer"]


def test_method_aliases_are_wrapped_once():
    class Op:
        def __mul__(self, k):
            return k

        __rmul__ = __mul__

    tr = spans.Tracer(FakeClock())
    spans.wrap_methods(tr, Op, "diagrams", {"scale": ("__mul__",), "gone": ("no_such",)})
    op = Op()
    assert op * 2 == 2 and 3 * op == 3
    assert tr.calls["diagrams.scale"] == 2
    assert tr.missing == ["diagrams.gone (no_such)"]


# ---------------------------------------------------------------------------
# reference seconds

def test_reference_seconds_scale_cpu_time_by_mean_speed():
    assert refclock.reference_seconds(2.0, [1.0, 1.0]) == 2.0
    # half the time at full speed, half at half speed: 0.75 of full-speed work
    assert refclock.reference_seconds(2.0, [1.0, 0.5]) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        refclock.reference_seconds(1.0, [])


def test_probe_leaves_its_own_time_out(monkeypatch):
    clock = FakeClock()
    real_kernel = refclock.kernel

    def slow_kernel():
        clock.now += 2 * refclock.NOMINAL_S  # the host runs at half speed
        return real_kernel()

    monkeypatch.setattr(refclock, "kernel", slow_kernel)
    probe = refclock.Probe(clock)
    clock.now += 1.0  # program work
    probe.sample()
    clock.now += 1.0
    probe.sample()
    lap = probe.lap()
    assert lap["probes"] == 2
    assert lap["cpu_s"] == pytest.approx(2.0)
    assert lap["ref_s"] == pytest.approx(1.0)
    assert lap["probe_s"] == pytest.approx(4 * refclock.NOMINAL_S)
    # the next lap starts afresh, and a lap with no probe yet takes one
    clock.now += 0.5
    lap = probe.lap()
    assert lap["probes"] == 1 and lap["cpu_s"] == pytest.approx(0.5)


def test_probe_samples_a_running_thread():
    probe = refclock.Probe().start()
    try:
        end = refclock.time.thread_time() + 0.2
        while refclock.time.thread_time() < end:
            pass
        lap = probe.lap()
    finally:
        probe.stop()
    assert lap["probes"] >= 3
    assert 0.1 < lap["cpu_s"] < 0.3 and lap["ref_s"] > 0


# ---------------------------------------------------------------------------
# correctness gate: a fast wrong answer is a failure, not a faster run

def test_planted_wrong_value_counts_as_failure(monkeypatch):
    items = [it for it in workloads.make_inputs("exact_minimax", 0)
             if it.label in ("minimax(3,2)", "minimax(5,3)", "ppt(d=2)")]
    assert len(items) == 3
    clean = workloads.run_items(items, run.time.perf_counter)
    assert clean["failed"] == 0 and clean["attempted"] == 3

    monkeypatch.setattr(workloads.ext, "isotropic_dual_minimax", lambda n, d: Fraction(0))
    planted = workloads.run_items(items, run.time.perf_counter)
    assert planted["failed"] == 2 and planted["attempted"] == 3
    assert all("wrong value" in f for f in planted["failures"])

    # the run built from it is not correct, whatever its times
    r = run.Run()
    r.add({"setup_s": 0.1, "setup_wall_s": 0.1, "versions": {}, **planted})
    assert r.failed == 2 and r.attempted == 3 and not r.correct


def test_exception_counts_as_failure_and_pass_continues(monkeypatch):
    items = [it for it in workloads.make_inputs("exact_minimax", 0)
             if it.label in ("minimax(3,2)", "minimax(4,4)")]

    def refuse(n, d):
        raise BudgetExceededError("planted")

    monkeypatch.setattr(workloads.ext, "q0_dual_value", refuse)
    result = workloads.run_items(items, run.time.perf_counter)
    assert result["failed"] == 2 and len(result["latencies_s"]) == 2
    assert all("BudgetExceededError: planted" in f for f in result["failures"])


def test_numeric_item_outside_tolerance_fails():
    ok, err = workloads._within(0.5 + 2e-9, Fraction(1, 2), workloads.ORACLE_TOL)
    assert not ok and err == pytest.approx(2.0)
    ok, err = workloads._within(0.5 + 5e-10, Fraction(1, 2), workloads.ORACLE_TOL)
    assert ok and err == pytest.approx(0.5)


def _fake_main(lines, rc=0, crash=False):
    def main(argv):
        for line in lines:
            sys.stdout.write(line + "\n")
        if crash:
            raise RuntimeError("planted crash")
        return rc
    return main


@pytest.mark.parametrize("lines, rc, crash, failed", [
    (["PASS c: ok"] * 13 + ["OK (0 failing checks)"], 0, False, 0),
    (["PASS c: ok"] * 12 + ["FAIL c: off", "FAILED (1 failing checks)"], 1, False, 1),
    (["PASS c: ok"] * 13, 1, False, 1),       # every PASS but a failing exit code
    (["PASS c: ok"] * 5, 0, True, 8),         # a crash fails every unreported check
    (["PASS c: ok"] * 14, 0, False, 1),       # the suite must print exactly 13 checks
])
def test_verify_suite_gate(monkeypatch, lines, rc, crash, failed):
    monkeypatch.setattr(workloads.cli, "main", _fake_main(lines, rc, crash))
    result = workloads.run_verify(workloads.VERIFY_ARGV, run.time.perf_counter)
    assert result["failed"] == failed
    assert result["attempted"] == max(13, sum(1 for x in lines if x.startswith(("PASS", "FAIL "))))
    assert len(result["latencies_s"]) == sum(1 for x in lines if x.startswith(("PASS ", "FAIL ")))


def test_timed_out_worker_fails_and_is_listed_apart():
    result = run.Run()
    result.lost(run.WorkerFailed("pass: exit 1: boom"))
    result.lost(run.WorkerTimedOut("pass: killed at its deadline after 170 s"))
    assert (result.attempted, result.failed) == (2, 2)
    assert result.failures == ["pass: exit 1: boom"]
    assert result.timeouts == ["pass: killed at its deadline after 170 s"]
    assert not result.correct


def test_closed_form_matches_package():
    ext = workloads.ext
    assert workloads.closed_form("complete", 5, None, "werner", 2) == ext.p_w_complete(5, 2)
    assert workloads.closed_form("complete", 5, None, "brauer", 3) == ext.p_b_complete(5, 3)
    assert (workloads.closed_form("complete_bipartite", 2, 3, "brauer", 2)
            == ext.p_iso_bipartite(2, 3, 2))
    assert workloads.closed_form("cycle", 6, None, "werner", 2) is None


# ---------------------------------------------------------------------------
# the metric names run.py prints are the ones BENCHMARK.json declares

def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    fake = run.Run()
    fake.add({"setup_s": 0.1, "setup_wall_s": 0.1, "versions": {}, "run_s": 1.0,
              "run_wall_s": 1.0, "latencies_s": [0.1] * 30,
              "attempted": 30, "failed": 0, "failures": [], "peak_rss_mib": 60.0})
    assert list(run.END_TO_END) == [m["name"] for m in spec["end_to_end"]]
    assert set(run.END_TO_END) <= set(run.end_to_end(fake))
    assert spans.per_layer_names() == [m["name"] for m in spec["per_layer"]]


def test_seed_changes_inputs_not_counts():
    a = workloads.make_inputs("oracle_scale", 1)
    b = workloads.make_inputs("oracle_scale", 2)
    assert sorted(i.label for i in a) == sorted(i.label for i in b)
    rng = workloads.random.Random
    assert (workloads.graph_json("complete_bipartite", 5, 7, rng(1))
            != workloads.graph_json("complete_bipartite", 5, 7, rng(2)))
    text = workloads.graph_json("cycle", 6, None, workloads.random.Random(3))
    g = workloads.graphs.graph_from_json(text)
    assert g.vertex_count == 6 and g.edge_count == 6 and g.family_tag == "custom"
    degrees = [sum(v in e for e in g.edges) for v in range(6)]
    assert degrees == [2] * 6
