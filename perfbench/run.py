#!/usr/bin/env python3
"""propeq benchmark: drives ``propeq.cli.main`` in-process on one workload.

    python3 perfbench/run.py --workload sweep_default --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs the workload untraced for half the time and traced for
the other half, and reports the per-layer metrics, per operation. Human
readable lines go first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in.
Every operation's output is parsed and checked (see ``workloads.py``); an
operation that raises, exits nonzero or differs from the reference counts as
failed. Exit status is 0 when a result was printed, 2 when the benchmark could
not run at all (no program to import, or more sweep workers than cores).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Tracer, self_times, traced_attributes
from workloads import N_SAMPLES, WORKLOADS, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60

# a fresh interpreter times its own import of propeq plus the scenario build
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import propeq, propeq.cli
cfg = propeq.load_config(sys.argv[2]) if len(sys.argv) > 2 else propeq.default_scenario()
print(time.perf_counter() - t0)
"""

TIME_LAYERS = (
    "signals.synth",
    "channel.eval_modulator",
    "channel.apply_channel",
    "spectral.forward_fft",
    "spectral.inverse_fft",
    "spectral.bandpass_window",
    "equalizer.extract_doppler",
    "equalizer.equalize",
    "equalizer.predict_blind_spots",
    "metrics.estimate_amplitudes",
    "harness.run_single",
    "harness.sweep_fp",
    "harness.emit_csv",
    "harness.emit_plot",
    "harness.dump_spectrum",
    "harness.load_config",
    "cli.main",
)
CALL_LAYERS = (
    "signals.synth",
    "channel.eval_modulator",
    "spectral.forward_fft",
    "spectral.inverse_fft",
    "spectral.bandpass_window",
    "equalizer.extract_doppler",
    "equalizer.predict_blind_spots",
    "metrics.estimate_amplitudes",
)
COUNTERS = {
    "spectral.transforms": "count",
    "spectral.transform_bytes_computed": "bytes",
    "equalizer.failed": "count",
    "metrics.failed": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Pass:
    """What one closed-loop pass over a workload measured."""

    walls: list[float] = field(default_factory=list)  # per operation, as the client waits
    runs: int = 0
    failed: int = 0
    golden_checked: int = 0

    @property
    def attempted(self) -> int:
        return len(self.walls)


def import_program():
    """Import propeq from this checkout's ``src/``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import propeq
        import propeq.cli
    except ImportError as e:
        raise BenchError(f"cannot import propeq from {SRC}: {e}") from e
    if Path(propeq.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"propeq imported from {propeq.__file__}, not from {SRC}")
    return propeq


def measure_setup(config: Path | None) -> list[float]:
    """Seconds a fresh process takes to import propeq and build the scenario."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC)] + ([str(config)] if config else [])
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first run writes bytecode caches; dropped
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"setup process failed: {done.stderr.strip()}")
        if i:
            times.append(float(done.stdout.split()[-1]))
    return times


def call_cli(cli, argv: list[str], sink: io.StringIO) -> int:
    """One ``propeq`` command line, stdout captured; returns its exit code."""
    sink.seek(0)
    sink.truncate()
    with contextlib.redirect_stdout(sink):
        return cli.main(argv)


def run_pass(workload, cli, seconds: float, first_op: int, after_op=None) -> Pass:
    """Closed loop: run operations until the next one would overrun ``seconds``."""
    res = Pass()
    sink = io.StringIO()
    start = time.perf_counter()
    i = first_op
    while True:
        op = workload.op(i)
        ok = True
        t_op = time.perf_counter()
        try:
            for argv in op.commands:
                rc = call_cli(cli, argv, sink)
                if rc != 0:
                    print(f"op {i}: `propeq {' '.join(argv)}` exited {rc}", file=sys.stderr)
                    ok = False
                    break
        except Exception:  # a traceback escaping the CLI is a failed operation
            traceback.print_exc()
            ok = False
        res.walls.append(time.perf_counter() - t_op)
        if after_op is not None:
            after_op()
        if ok:
            try:
                res.runs += op.check()
                res.golden_checked += op.golden_checked
            except Exception as e:
                print(f"op {i}: output check failed: {e}", file=sys.stderr)
                ok = False
        res.failed += not ok
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(res.walls) > seconds:
            return res


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res: Pass, setup: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(res.walls), "s"),
        "runs_per_s": (res.runs / sum(res.walls), "runs/s"),
        "latency_p50_ms": (1e3 * quantile(res.walls, 50), "ms"),
        "latency_p95_ms": (1e3 * quantile(res.walls, 95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


class LayerTotals:
    """Per-layer sums over the operations of a traced pass."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.span_s: Counter[str] = Counter()

    def add_op(self) -> None:
        spans, counts = self.tracer.take()
        self.self_s.update(self_times(spans))
        self.calls.update(s.name for s in spans)
        self.counts.update(counts)
        for s in spans:
            self.span_s[s.name] += s.end - s.start


def per_layer(workload, totals: LayerTotals, untraced: Pass, traced: Pass) -> dict[str, tuple[float, str]]:
    n = traced.attempted
    out: dict[str, tuple[float, str]] = {}
    for name in TIME_LAYERS:
        out[f"{name}.self_s"] = (totals.self_s[name] / n, "s")
    for name in CALL_LAYERS:
        out[f"{name}.calls"] = (totals.calls[name] / n, "count")
    for name, unit in COUNTERS.items():
        out[name] = (totals.counts[name] / n, unit)
    sweep_s = totals.span_s["harness.sweep_fp"]
    efficiency = totals.span_s["harness.run_single"] / (workload.workers * sweep_s) if sweep_s else 0.0
    out["harness.parallel_efficiency"] = (efficiency, "ratio")
    base = statistics.median(untraced.walls)
    out["trace.overhead_frac"] = ((statistics.median(traced.walls) - base) / base, "ratio")
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="propeq benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    try:
        propeq = import_program()
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        cores = os.cpu_count() or 1
        if WORKLOADS[args.workload].workers > cores:
            raise BenchError(
                f"{args.workload} asks for {WORKLOADS[args.workload].workers} sweep workers "
                f"but this machine has {cores} cores; refusing to oversubscribe"
            )
        out_dir = OUT / f"{args.workload}-{os.getpid()}"
        try:
            return measure(args, propeq.cli, make_workload(args.workload, args.seed, out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
            with contextlib.suppress(OSError):
                OUT.rmdir()
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


def measure(args, cli, workload) -> int:
    sink = io.StringIO()
    for argv in workload.warmup_commands():
        # a failing program is reported by the timed operations, as failures
        try:
            rc = call_cli(cli, argv, sink)
        except Exception:
            traceback.print_exc()
            rc = None
        if rc != 0:
            print(f"warm-up `propeq {' '.join(argv)}` failed ({rc})", file=sys.stderr)

    setup: list[float] = []
    if args.trace == 0:
        setup = measure_setup(workload.setup_config())
        passes = [run_pass(workload, cli, args.seconds, 0)]
        metrics = end_to_end(passes[0], setup)
        restored = True
    else:
        untraced = run_pass(workload, cli, args.seconds / 2, 0)
        before = traced_attributes()
        tracer = Tracer(full_length=N_SAMPLES)
        totals = LayerTotals(tracer)
        with tracer:
            traced = run_pass(workload, cli, args.seconds / 2, untraced.attempted, totals.add_op)
        restored = all(getattr(mod, attr) is obj for mod, attr, obj in before)
        if not restored:
            print("perfbench: tracer left a wrapped attribute behind", file=sys.stderr)
        passes = [untraced, traced]
        metrics = per_layer(workload, totals, untraced, traced)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    golden = sum(p.golden_checked for p in passes)
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "operations": [p.attempted for p in passes],
        "setup_repeats": len(setup),
        "clients": 1,
        "sweep_workers": workload.workers,
    }
    print("env " + json.dumps(env))
    print(
        f"golden: {golden} of {attempted} operations compared with the reference table; "
        f"{attempted - failed - golden} passing ones shape-checked only (header, row count, "
        f"finite values), because the reference covers the first operations of workload seed 0 only"
        if golden < attempted - failed
        else f"golden: all {golden} passing operations match the reference table"
    )
    for name, (value, unit) in metrics.items():
        absent = args.trace == 1 and value == 0 and not name.endswith("failed")
        print(f"  {name:38s} {value:14.6g} {unit}{'   (layer not called)' if absent else ''}")
    print(f"  {'failed_frac':38s} {failed / attempted:14.6g} ratio   ({failed}/{attempted})")
    if args.trace == 0:
        walls = passes[0].walls
        beyond = sum(v > metrics["latency_p95_ms"][0] / 1e3 for v in walls)
        print(f"  latency samples: {len(walls)} operations, {beyond} beyond p95")
    result = {
        "correct": failed == 0 and restored,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
