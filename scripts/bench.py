#!/usr/bin/env python3
"""Write BENCH_<n>.json: the benchmark of two commits, timed in alternating pairs.

    python scripts/bench.py 22 BASE [HEAD] [--workload W]... [--pairs K] [--first-seed S]
                            [--interleaved K]

Checks out BASE and HEAD (default ``HEAD``) with ``git worktree add`` into a
temporary directory (removed at the end, also on failure), and refuses when
``perfbench/`` or ``BENCHMARK.json`` differ between them, since then the two
sides would not run the same benchmark. Each pair runs
``perfbench/run.py --trace 0`` of both checkouts, each in a fresh
interpreter, on every workload of ``BENCHMARK.json`` (or each ``--workload``
named) for its ``run_seconds``, both sides on the same workload seed
(``--first-seed`` plus the pair's index). Then it times one fresh
``python -m propeq simulate`` process of each side (``cold_simulate``); each
checkout runs one untimed first, so that it has its bytecode. Every process
the script starts runs without PYTHONDONTWRITEBYTECODE, so that the untimed
one writes that bytecode and every timed one reads it. Which side goes
first is drawn per pair from a shuffled, balanced list (seeded by
``--first-seed``), so drift of the host falls on both sides alike.

With ``--interleaved K``, after the pairs, both checkouts' ``src/propeq``
are imported into this process under two package names, and K in-process
pairs of each kind in ``KINDS`` (the default library sweep, one
``simulate`` of a new scenario, and the multiprop sweep on 2 threads) are
timed, in an order drawn per pair (see ``interleaved``). Neighbouring
operations share the host's state, so drift cancels and a change of a few
per cent is resolved. Both sides share one
process, one heap and one numpy, so these pairs cannot see ``setup_s``,
import time, peak RSS or page faults; the benchmark pairs above remain the
basis of every claim.

A SIGTERM while the checkouts are held ends the script in one line, after
the checkouts are removed.

``BENCH_<n>.json`` in the repository root holds, per workload and metric of
``BENCHMARK.json``'s ``end_to_end`` list and for ``cold_simulate``, each
side's per-pair values with their median and quartiles, how many pairs each
side won (ties apart) and the two-sided sign-test p-value of those wins; for
a metric with a ``bound``, whether the pairs resolve a change of that size
(``resolved``, see ``compare``); per workload each side's attempted and
failed operations; and both commits, the pairs' seeds and orders, and the
numpy version, core count and CPU model; with ``--interleaved``, an
``interleaved`` section (see ``interleaved``). A run that fails, times out,
prints no JSON result or whose result is not ``correct`` ends the script
with exit 1 in one line, before any file is written; so does a failed cold
process. A claim reads its pairs: the parent side of its own BENCH file is
its baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")
HOST = ("numpy", "python", "cpu_count", "cpu_model")


def multiprop_sweep(pkg):
    """The ``report_multiprop_w2`` workload's 2-worker sweep, its config loaded untimed."""
    cfg = pkg.load_config(ROOT / "perfbench" / "multiprop.json")
    return lambda i: pkg.sweep_fp(cfg, 15.0, 40.0, 1.0, seeds=list(range(10)), workers=2)


# the in-process operations of ``--interleaved``: per package, the call of the i-th pair
KINDS = {
    "sweep": lambda pkg: lambda i: pkg.sweep_fp(pkg.default_scenario(), 15.0, 40.0, 0.5,
                                                 seeds=list(range(10))),
    "simulate": lambda pkg: lambda i: pkg.simulate(
        pkg.scenario_with(pkg.default_scenario(), f_p=15.0 + i % 51 * 0.5, seed=i)),
    "multiprop_w2": multiprop_sweep,
}
BLOCKS = 10  # an interleaved kind's pairs are split into this many blocks
WARMUPS = 3  # untimed calls of each kind and side before its pairs
BLIND_TO = ("setup_s", "import time", "peak RSS", "page faults")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


@contextlib.contextmanager
def checkout(commit: str):
    """A detached worktree of ``commit`` in a temporary directory, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        path = Path(tmp) / commit[:12]
        git("worktree", "add", "--detach", str(path), commit)
        try:
            yield path
        finally:
            git("worktree", "remove", "--force", str(path))


@contextlib.contextmanager
def sigterm_exits():
    """While active, SIGTERM raises ``SystemExit``, so held checkouts are removed."""
    def stop(signum, frame):
        raise SystemExit("bench: stopped by SIGTERM; no BENCH file written")

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def run(argv: list[str], root: Path, failed: str, timeout: float, **env: str):
    """``argv`` run to a zero exit in ``root``; anything else ends the script in one line.

    The child's environment is this one with ``env`` set and without
    PYTHONDONTWRITEBYTECODE.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"} | env
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{failed} timed out after {timeout:g} s; no BENCH file written") from None
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        raise SystemExit(f"{failed} exited {proc.returncode}: {last}; no BENCH file written")
    return proc


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The env line and the result object of one benchmark run of the checkout at ``root``."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    failed = f"bench: {workload} seed {seed} on {root.name}"
    lines = run(argv, root, failed, 4 * seconds + 300).stdout.splitlines()
    try:
        env = json.loads(next((line[4:] for line in lines if line.startswith("env ")), ""))
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise SystemExit(f"{failed} printed no JSON result ({e}); no BENCH file written") from None
    if not result["correct"]:
        raise SystemExit(f"{failed} reported correct: false ({result['failed']} of "
                         f"{result['attempted']} operations failed); no BENCH file written")
    return env, result


def cold_simulate(root: Path) -> float:
    """Seconds of one fresh ``python -m propeq simulate`` process of the checkout at ``root``."""
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    run([sys.executable, "-m", "propeq", "simulate", "--out", os.devnull], root,
        f"bench: cold simulate on {root.name}", 300, PYTHONPATH=path)
    return time.perf_counter() - start


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def first_sides(pairs: int, seed: int) -> list[str]:
    """Which side runs first in each pair: each side first in half the pairs, shuffled."""
    order = [SIDES[i % 2] for i in range(pairs)]
    random.Random(seed).shuffle(order)
    return order


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses`` (ties left out)."""
    n = wins + losses
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def compare(values: dict[str, list[float]], better: str, bound: float | None = None) -> dict:
    """Each side's summary, the pairs each side won, and the sign test of those wins.

    Given the metric's ``bound``, ``resolved`` says whether the runs can tell
    a change of that size: false when the base's q3 - q1 exceeds ``bound``
    times its median, unless every head run is better than every base run.
    """
    sign = -1 if better == "lower" else 1
    head_won = sum(sign * (h - b) > 0 for b, h in zip(values["base"], values["head"]))
    base_won = sum(sign * (b - h) > 0 for b, h in zip(values["base"], values["head"]))
    sides = {side: summary(values[side]) for side in SIDES}
    out = {**sides, "wins": {"base": base_won, "head": head_won},
           "sign_test_p": sign_test(head_won, base_won)}
    if bound is not None:
        base = sides["base"]
        apart = min(sign * h for h in values["head"]) > max(sign * b for b in values["base"])
        out["resolved"] = base["q3"] - base["q1"] <= bound * base["median"] or apart
    return out


def load_package(src: Path, name: str):
    """The package in the directory ``src`` imported as ``name``, its submodules under it.

    Relative imports resolve inside ``name``, so two copies of one package
    load side by side, and neither enters ``sys.modules`` under its own name.
    """
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def interleaved(roots: dict[str, Path], pairs: int, seed: int) -> dict:
    """Per kind, ``pairs`` in-process pairs of both checkouts' ``src/propeq``.

    Each side's package is loaded as ``bench_<side>_propeq``. For each kind,
    each side's call is made from its package untimed, then after
    ``WARMUPS`` untimed calls per side, pair i calls both sides with i,
    in an order drawn from a generator seeded by ``seed``. Per kind: each
    pair's ratio head/base (``summary``), the medians of ``BLOCKS`` blocks of
    consecutive pairs, the pairs each side won and the sign test of those
    wins.
    """
    pkgs = {side: load_package(roots[side] / "src" / "propeq", f"bench_{side}_propeq")
            for side in SIDES}
    draw = random.Random(seed)
    out = {}
    for kind, make in KINDS.items():
        call = {side: make(pkgs[side]) for side in SIDES}
        for i in range(WARMUPS):
            for side in SIDES:
                call[side](i)
        ratios = []
        for i in range(pairs):
            took = {}
            for side in draw.sample(SIDES, len(SIDES)):
                start = time.perf_counter()
                call[side](i)
                took[side] = time.perf_counter() - start
            ratios.append(took["head"] / took["base"])
        blocks = [ratios[pairs * b // BLOCKS : pairs * (b + 1) // BLOCKS] for b in range(BLOCKS)]
        wins = {"base": sum(r > 1 for r in ratios), "head": sum(r < 1 for r in ratios)}
        out[kind] = {"ratio": summary(ratios),
                     "block_medians": [statistics.median(b) for b in blocks],
                     "wins": wins, "sign_test_p": sign_test(wins["head"], wins["base"])}
        print(f"interleaved {kind}: head/base median {out[kind]['ratio']['median']:.4f}",
              file=sys.stderr)
    return {"pairs": pairs, "warmups": WARMUPS, "blind_to": list(BLIND_TO), **out}


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="the number in the BENCH_<n>.json file name")
    ap.add_argument("base", help="the commit to compare against")
    ap.add_argument("head", nargs="?", default="HEAD", help="the commit to measure")
    ap.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100, help="workload seed of the first pair")
    ap.add_argument("--interleaved", type=int, default=0, metavar="K",
                    help=f"then time K in-process pairs of each of {', '.join(KINDS)}")
    args = ap.parse_args(argv)
    unknown = sorted(set(args.workload or ()) - set(names))
    if unknown:
        raise SystemExit(f"bench: BENCHMARK.json names no workload {', '.join(unknown)}; "
                         "no BENCH file written")
    if args.pairs < 1:
        raise SystemExit(f"bench: --pairs must be >= 1, got {args.pairs}; no BENCH file written")
    if args.interleaved and args.interleaved < BLOCKS:
        raise SystemExit(f"bench: --interleaved must be 0 or >= {BLOCKS}, got "
                         f"{args.interleaved}; no BENCH file written")
    workloads = [w for w in names if not args.workload or w in args.workload]

    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in zip(SIDES, (args.base, args.head))}
    differ = git("diff", "--name-only", commits["base"], commits["head"],
                 "--", "perfbench", "BENCHMARK.json")
    if differ:
        raise SystemExit(f"bench: the benchmark differs between the commits "
                         f"({', '.join(differ.splitlines())}); no BENCH file written")

    seconds = declared["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    order = first_sides(args.pairs, args.first_seed)
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    values = {w: {name: {s: [] for s in SIDES} for name in metrics} for w in workloads}
    counts = {w: {key: dict.fromkeys(SIDES, 0) for key in ("attempted", "failed")}
              for w in workloads}
    cold: dict[str, list[float]] = {s: [] for s in SIDES}
    env: dict = {}
    with sigterm_exits(), checkout(commits["base"]) as base_dir, \
            checkout(commits["head"]) as head_dir:
        roots = {"base": base_dir, "head": head_dir}
        for root in roots.values():
            cold_simulate(root)  # untimed: writes the checkout's bytecode
        for seed, first in zip(seeds, order):
            sides = sorted(SIDES, key=lambda s: s != first)
            for workload in workloads:
                for side in sides:
                    env, result = run_once(roots[side], workload, seed, seconds)
                    for key, count in counts[workload].items():
                        count[side] += result[key]
                    for name in metrics:
                        values[workload][name][side].append(result["metrics"][name]["value"])
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} seed {seed} {side}: wall_s {wall:.4g}", file=sys.stderr)
            for side in sides:
                cold[side].append(cold_simulate(roots[side]))
        inter = interleaved(roots, args.interleaved, args.first_seed) if args.interleaved else None

    bench = {
        **{side: commits[side] for side in SIDES},
        **{key: env[key] for key in HOST},
        "seconds": seconds,
        "pairs": args.pairs,
        "seeds": seeds,
        "first": order,
        "workloads": {w: {**counts[w],
                          "metrics": {name: {"unit": m["unit"], "better": m["better"],
                                             **compare(values[w][name], m["better"],
                                                       m.get("bound"))}
                                      for name, m in metrics.items()}}
                      for w in workloads},
        "cold_simulate": {"unit": "s", "better": "lower", **compare(cold, "lower")},
    }
    if inter is not None:
        bench["interleaved"] = inter
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
