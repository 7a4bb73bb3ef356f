"""Self-tests for the benchmark: ``python3 -m pytest benchmarks/tests -q``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import bridgelab  # noqa: E402
from bridgelab import discrete, divergences, harness, matcore  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# op_s_tail percentile selection.
# ----------------------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(30, 0, -1)]  # order must not matter
    value, percentile, beyond = stats.tail(values)
    assert value == 20.0
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100.0 * 20 / 30)
    assert beyond == 10


def test_tail_with_eleven_samples_is_the_minimum():
    value, percentile, beyond = stats.tail(range(11))
    assert (value, beyond) == (0, 10)
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail(range(10))


# ----------------------------------------------------------------------
# Scaling to nominal host speed.
# ----------------------------------------------------------------------


def test_each_time_is_scaled_by_its_neighbouring_references():
    nominal = hostspeed.NOMINAL_S
    refs = [nominal, nominal, 2 * nominal, 2 * nominal]
    assert hostspeed.scaled([1.0, 3.0, 4.0], refs) == pytest.approx([1.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        hostspeed.scaled([1.0, 1.0], refs)


def test_setup_time_is_scaled_by_its_own_reference():
    result = {"times": [0.1] * 11, "refs": [0.02] * 12, "peak_rss_mb": 50.0, "failed": 0}
    nominal = hostspeed.NOMINAL_S
    e2e = run.end_to_end(result, [(1.0, nominal), (1.0, 2 * nominal), (3.0, nominal)])
    assert e2e["setup_s"]["value"] == pytest.approx(1.0)
    assert e2e["setup_s_unscaled"]["value"] == pytest.approx(1.0)


def test_traced_runs_take_no_references(tracer):
    op = workloads.Op("ok", lambda: 1, lambda out: workloads.Outcome(True))
    times, refs, *_ = worker.run_loop(workloads.Workload([[op]]), seconds=0.0, tracer=tracer)
    assert len(times) == 11 and refs == []


# ----------------------------------------------------------------------
# Span self time.
# ----------------------------------------------------------------------


def test_covered_merges_overlaps_and_clips_to_parent():
    assert tracing.covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert tracing.covered(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 2.0
    assert tracing.covered(0.0, 10.0, []) == 0.0


def _span(name, start, end, parent, op=0, counts=None):
    return [name, start, end, parent, op, False, counts]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("op", 0.0, 10.0, None),
        _span("a.f", 1.0, 7.0, 0),
        _span("a.g", 2.0, 4.0, 1),
        _span("a.g", 5.0, 6.0, 1),
        _span("b.h", 8.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.0])
    summary = tracing.Summary(spans)
    assert summary.ops == 1 and summary.op_seconds == 10.0
    assert summary.self_s["a.g"] == pytest.approx(3.0)
    assert summary.inclusive["a.f"] == pytest.approx(6.0)
    assert summary.module_self_share("a") == pytest.approx(0.6)


def test_factorizations_count_inside_step_spans_only():
    spans = [
        _span("op", 0.0, 10.0, None, counts={"eigh.calls": 5}),
        _span("gaussian.sinkhorn_step", 1.0, 2.0, 0, counts={"eigvalsh.calls": 1}),
        _span("matcore.spd_inverse", 1.1, 1.5, 1, counts={"eigh.calls": 2}),
        _span("gaussian.sinkhorn_step", 3.0, 4.0, 0),
        _span("matcore.spd_inverse", 3.1, 3.5, 3, counts={"eigh.calls": 1}),
    ]
    summary = tracing.Summary(spans)
    assert summary.counts["eigh.calls"] == 8
    assert summary.step_factorizations == 4


# ----------------------------------------------------------------------
# failed_frac counting.
# ----------------------------------------------------------------------


def test_failed_frac_arithmetic():
    assert stats.failed_frac(0, 7) == 0.0
    assert stats.failed_frac(2, 8) == 0.25
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)
    with pytest.raises(ValueError):
        stats.failed_frac(3, 2)


def test_each_failed_operation_counts_once():
    calls = {"n": 0}

    def raises():
        raise RuntimeError("boom")

    def changing():
        calls["n"] += 1
        return calls["n"]

    ops = [
        workloads.Op("ok", lambda: 1, lambda out: workloads.Outcome(True, "same")),
        workloads.Op("raises", raises, lambda out: workloads.Outcome(True)),
        workloads.Op("bad-check", lambda: 1, lambda out: workloads.Outcome(False, "d", "wrong")),
        workloads.Op("drifts", changing, lambda out: workloads.Outcome(True, str(out))),
    ]
    times, refs, done, failures, digests, _, _ = worker.run_loop(
        workloads.Workload([ops]), seconds=0.0)
    # Three patterns are needed before the tail percentile is defined.
    assert len(times) == 12
    # One host-speed reference before the first operation and one after each.
    assert len(refs) == 13
    names = [done[i][0].key for i in sorted(failures)]
    assert names.count("ok") == 0
    assert names.count("raises") == 3
    assert names.count("bad-check") == 3
    assert names.count("drifts") == 2  # the first run sets the digest
    assert stats.failed_frac(len(failures), len(times)) == pytest.approx(8 / 12)


def test_outputs_are_dropped_after_their_check():
    kept = workloads.Op("kept", lambda: [0.0] * 1000, lambda out: workloads.Outcome(True),
                        keep=len)
    dropped = workloads.Op("dropped", lambda: [0.0] * 1000, lambda out: workloads.Outcome(True))
    _, _, done, failures, _, _, _ = worker.run_loop(
        workloads.Workload([[kept, dropped]]), seconds=0.0)
    assert not failures
    assert {(op.key, value) for op, value in done} == {("kept", 1000), ("dropped", None)}


# ----------------------------------------------------------------------
# Rebinding of by-value imports.
# ----------------------------------------------------------------------


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install(bridgelab)
    yield t
    t.uninstall()


def test_by_value_imports_are_rebound(tracer):
    assert discrete.phi_entropy is divergences.phi_entropy
    assert discrete.relative_entropy is divergences.relative_entropy
    assert bridgelab.contraction.phi_entropy is divergences.phi_entropy
    assert bridgelab.gaussian.gaussian_kl is divergences.gaussian_kl
    assert bridgelab.gaussian.gaussian_w2 is divergences.gaussian_w2
    assert bridgelab.gaussian.burg_divergence is divergences.burg_divergence
    assert harness.fit_rate is bridgelab.fitting.fit_rate
    assert hasattr(discrete.phi_entropy, "__wrapped__")


def test_wrapped_phi_entropy_is_hit_from_discrete(tracer):
    model = harness.generate_instance("discrete", (5, 7), 3, "bounded")
    iterates = discrete.run_sinkhorn(model, 4)
    with tracer.operation(0):
        discrete.geometric_rate_report(model, iterates)
    spans = tracer.spans()
    names = [r[tracing.NAME] for r in spans]
    assert "divergences.phi_entropy" in names
    span = spans[names.index("divergences.phi_entropy")]
    assert spans[span[tracing.PARENT]][tracing.NAME] == "discrete.geometric_rate_report"


def test_nothing_is_recorded_outside_an_operation(tracer):
    divergences.relative_entropy([0.5, 0.5], [0.25, 0.75])
    assert tracer.spans() == []


def test_linalg_calls_and_hooks_are_counted(tracer):
    model = harness.generate_instance("discrete", (6, 6), 1, "bounded")
    kernel = np.arange(1.0, 37.0).reshape(6, 6)
    kernel /= kernel.sum(axis=1, keepdims=True)
    with tracer.operation(0):
        matcore.spd_inverse(np.eye(3))
        bridgelab.contraction.lip_norm(kernel, np.ones(6), np.ones(6))
        discrete.solve_bridge(model)
    summary = tracing.Summary(tracer.spans())
    assert summary.counts["eigh.calls"] == 1
    assert summary.counts["eigvalsh.calls"] == 1  # assert_spd inside spd_inverse
    assert summary.counts["contraction.lip_norm.pairs"] == 15
    assert summary.counts["discrete.solve_bridge.sweeps"] > 0


def test_uninstall_restores_originals():
    original = discrete.phi_entropy
    t = tracing.Tracer()
    t.install(bridgelab)
    assert discrete.phi_entropy is not original
    t.uninstall()
    assert discrete.phi_entropy is original
    assert np.linalg.eigh.__module__ == "numpy.linalg"


# ----------------------------------------------------------------------
# Workload inputs and output checks.
# ----------------------------------------------------------------------


def test_same_seed_gives_same_inputs():
    unused = ROOT / ".bench_out"  # ot-exact writes no files
    a = workloads.build("ot-exact", 5, unused)
    b = workloads.build("ot-exact", 5, unused)
    c = workloads.build("ot-exact", 6, unused)
    keys = [[op.key for op in pattern] for pattern in a.patterns]
    assert keys == [[op.key for op in pattern] for pattern in b.patterns]
    assert keys != [[op.key for op in pattern] for pattern in c.patterns]


def test_ot_check_rejects_a_wrong_plan():
    model = harness.generate_instance("discrete", (6, 6), 2, "bounded")
    result = divergences.kantorovich_discrete(model.cost, model.mu, model.eta)
    assert workloads._check_plan(model, result).ok
    plan = result.plan.copy()
    plan[0, :2] += np.array([1e-9, -1e-9])
    bad = divergences.TransportPlan(value=float(np.sum(plan * model.cost)), plan=plan)
    assert not workloads._check_plan(model, bad).ok
    ref = workloads.linprog_value(model.cost, model.mu, model.eta)
    assert abs(result.value - ref) <= workloads.OT_REFERENCE_RTOL * abs(ref)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the code reports.
# ----------------------------------------------------------------------


def test_benchmark_json_matches_reported_metrics():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.BUILDERS)
    assert list(run.WORKLOADS) == list(workloads.BUILDERS)
    result = {"times": [0.1] * 11, "refs": [0.02] * 12, "peak_rss_mb": 50.0, "failed": 0}
    e2e = run.end_to_end(result, [(1.0, 0.02)])
    for metric in benchmark["end_to_end"]:
        assert e2e[metric["name"]]["unit"] == metric["unit"]
    spans = [_span("op", 0.0, 1.0, None)]
    layers = worker.per_layer_metrics(tracing.Summary(spans), 1.0, 0.0)
    assert [m["name"] for m in benchmark["per_layer"]] == list(layers)
    for metric in benchmark["per_layer"]:
        assert layers[metric["name"]]["unit"] == metric["unit"]
