"""Self-tests of the benchmark's tracer and metric names.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import propeq  # noqa: E402
import propeq.cli  # noqa: E402

import run as bench  # noqa: E402
from tracing import Span, Tracer, self_times, traced_attributes  # noqa: E402
from workloads import WORKLOADS, SingleCapture, load_golden  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def traced_single_capture_pass(tmp_path):
    workload = SingleCapture(0, tmp_path, load_golden(), {})
    tracer = Tracer(full_length=32000)
    totals = bench.LayerTotals(tracer)
    untraced = bench.run_pass(workload, propeq.cli, 0.0, 0)
    before = traced_attributes()
    with tracer:
        swapped = [getattr(mod, attr) is not obj for mod, attr, obj in before]
        traced = bench.run_pass(workload, propeq.cli, 0.0, 1, totals.add_op)
    return workload, before, swapped, totals, untraced, traced


def test_traced_pass_restores_every_attribute(tmp_path):
    _, before, swapped, totals, _, traced = traced_single_capture_pass(tmp_path)
    assert all(swapped), "every traced attribute is wrapped while tracing"
    assert {attr for _, attr, _ in before} >= {"run_single", "forward_fft", "main", "fft", "ifft"}
    for mod, attr, obj in before:
        assert getattr(mod, attr) is obj, f"{mod.__name__}.{attr} left wrapped"
    assert traced.failed == 0 and totals.calls["cli.main"] == 1


def test_metric_names_match_benchmark_json(tmp_path):
    workload, _, _, totals, untraced, traced = traced_single_capture_pass(tmp_path)
    layer = bench.per_layer(workload, totals, untraced, traced)
    assert list(layer) == [m["name"] for m in SPEC["per_layer"]]
    assert all(layer[m["name"]][1] == m["unit"] for m in SPEC["per_layer"])
    e2e = bench.end_to_end(untraced, [0.2, 0.3])
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(e2e[m["name"]][1] == m["unit"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_self_time_of_nested_spans_across_two_threads():
    # main thread: A[0,10] > B[1,4] > C[2,3]; two workers, children of A,
    # overlap each other: D[3,8] and E[5,9]
    spans = [
        Span("A", 0.0, 10.0, None),
        Span("B", 1.0, 4.0, 0),
        Span("C", 2.0, 3.0, 1),
        Span("D", 3.0, 8.0, 0),
        Span("E", 5.0, 9.0, 0),
        Span("D", 8.5, 9.5, 0),
    ]
    got = self_times(spans)
    # A is covered by the union [1, 9.5] of its children
    assert got == {"A": 1.5, "B": 2.0, "C": 1.0, "D": 6.0, "E": 4.0}


def test_worker_thread_spans_are_children_of_the_sweep():
    cfg = propeq.ScenarioConfig(clock=propeq.SampleClock(rate_hz=6400.0, n_samples=6400))
    with Tracer(full_length=6400) as tracer:
        propeq.harness.sweep_fp(cfg, 30.0, 30.5, 0.5, seeds=[0, 1], workers=2)
    spans, _ = tracer.take()
    (sweep_idx,) = [i for i, s in enumerate(spans) if s.name == "harness.sweep_fp"]
    runs = [s for s in spans if s.name == "harness.run_single"]
    assert len(runs) == 4 and all(s.parent == sweep_idx for s in runs)
    total = self_times(spans)
    whole = spans[sweep_idx].end - spans[sweep_idx].start
    assert 0.0 <= total["harness.sweep_fp"] < whole


def test_one_run_single_makes_six_transforms_and_one_modulator():
    with Tracer(full_length=32000) as tracer:
        propeq.harness.run_single(propeq.default_scenario())
    spans, counts = tracer.take()
    assert counts["spectral.transforms"] == 6
    assert sum(s.name == "channel.eval_modulator" for s in spans) == 1
