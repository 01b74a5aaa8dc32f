#!/usr/bin/env python3
"""Write BENCH_<n>.json: the end-to-end benchmark metrics of this checkout.

    python scripts/bench.py 6

Runs ``perfbench/run.py --trace 0`` of this checkout 5 times per workload
(workload seeds 1 to 5), each in a fresh interpreter; the workloads take
turns, so drift of the host spreads over all of them. The workloads and the
run length are those of ``BENCHMARK.json``, so BENCH files compare. Then it
times 9 fresh ``python -m propeq simulate`` processes (``cold_simulate``).
``BENCH_<n>.json`` in the repository root then holds, per workload and
metric and for ``cold_simulate``, the median and the first and third
quartiles over the repeats, every repeat's value, the failed operations, the
numpy version, the core count, the CPU model, the commit (``tree_dirty``
says whether tracked files differed from it) and whether
PYTHONDONTWRITEBYTECODE was set. A run that fails, times out, prints no JSON
result or whose result is not ``correct`` ends the script with exit 1,
naming its workload and seed, before any file is written; so does a failed
cold process. A performance claim compares its numbers with the latest BENCH
file written on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 5
COLD_REPEATS = 9


def run(argv: list[str], failed: str, timeout: float, env: dict | None = None):
    """``argv`` run to its end in the repository root; a timeout ends the script."""
    try:
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{failed} timed out after {timeout} s; no BENCH file written") from None


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The env line and the result object of one benchmark run."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    failed = f"bench: {workload} seed {seed}"
    proc = run(argv, failed, 4 * seconds + 300)
    lines = proc.stdout.splitlines()
    env = [line[4:] for line in lines if line.startswith("env ")]
    if proc.returncode != 0 or not env:
        raise SystemExit(f"{failed} exited {proc.returncode}:\n{proc.stderr}")
    try:
        return json.loads(env[0]), json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise SystemExit(f"{failed} printed no JSON result ({e}); no BENCH file written") from None


def cold_simulate() -> float:
    """Seconds of one fresh ``python -m propeq simulate`` process of this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = run([sys.executable, "-m", "propeq", "simulate", "--out", os.devnull],
               "bench: cold simulate", 300, {**os.environ, "PYTHONPATH": path})
    if proc.returncode != 0:
        raise SystemExit(f"bench: cold simulate exited {proc.returncode}:\n{proc.stderr}")
    return time.perf_counter() - start


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="the number in the BENCH_<n>.json file name")
    args = ap.parse_args(argv)
    seconds = declared["run_seconds"]
    seeds = list(range(1, REPEATS + 1))

    commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    results: dict[str, list[dict]] = {w["name"]: [] for w in declared["workloads"]}
    env: dict = {}
    for seed in seeds:
        for workload in results:
            env, result = run_once(workload, seed, seconds)
            if not result["correct"]:
                raise SystemExit(f"bench: {workload} seed {seed} reported correct: false "
                                 f"({result['failed']} of {result['attempted']} operations "
                                 "failed); no BENCH file written")
            results[workload].append(result)
            wall = result["metrics"]["wall_s"]["value"]
            print(f"{workload} seed {seed}: wall_s {wall:.4g}, failed {result['failed']}",
                  file=sys.stderr)

    cold = [cold_simulate() for _ in range(COLD_REPEATS)]

    workloads = {}
    for workload, runs in results.items():
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            metrics[name] = {"unit": first["unit"],
                             **summary([r["metrics"][name]["value"] for r in runs])}
        workloads[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    bench = {
        "commit": commit,
        "tree_dirty": dirty,
        "numpy": env["numpy"],
        "python": env["python"],
        "cpu_count": env["cpu_count"],
        "cpu_model": env["cpu_model"],
        "repeats": REPEATS,
        "seconds": seconds,
        "seeds": seeds,
        "workloads": workloads,
        "cold_simulate": {"unit": "s", **summary(cold),
                          "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))},
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
