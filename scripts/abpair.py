#!/usr/bin/env python3
"""Write an A/B file: one benchmark workload timed on two revisions in pairs.

    python scripts/abpair.py BASE HEAD --workload single_capture --pairs 10 --seconds 30 --n 21

Checks out each revision with ``git worktree add`` into a temporary
directory (removed at the end, also on failure), and refuses when
``perfbench/`` or ``BENCHMARK.json`` differ between them, since then the two
sides would not run the same benchmark. Each pair runs
``perfbench/run.py --trace 0`` of both checkouts, each in a fresh
interpreter, on the same workload seed (``--first-seed`` plus the pair's
index). Which side goes first is drawn per pair from a shuffled, balanced
list (seeded by ``--first-seed``), so host drift falls on both sides alike.

``AB_<n>.json`` in the repository root, beside the BENCH files, holds per
metric of ``BENCHMARK.json``'s ``end_to_end`` list each side's per-pair
values with their median and quartiles, how many pairs each side won (ties
apart) and the two-sided sign-test p-value of those wins; and both commits,
the pairs' seeds and orders, ``tree_dirty`` (whether the tracked files of the
checkout this script ran from differed from its HEAD) and the host fields
that ``bench.py`` records. A run that fails, times out, prints no JSON result
or whose result is not ``correct`` ends the script with exit 1 in one line,
before any file is written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench import summary  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")
HOST = ("numpy", "python", "cpu_count", "cpu_model")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


@contextlib.contextmanager
def checkout(commit: str):
    """A detached worktree of ``commit`` in a temporary directory, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="abpair-") as tmp:
        path = Path(tmp) / commit[:12]
        git("worktree", "add", "--detach", str(path), commit)
        try:
            yield path
        finally:
            git("worktree", "remove", "--force", str(path))


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The env line and the result object of one benchmark run of the checkout at ``root``."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    failed = f"abpair: {root.name} {workload} seed {seed}"
    timeout = 4 * seconds + 300
    try:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{failed} timed out after {timeout:g} s; no AB file written") from None
    lines = proc.stdout.splitlines()
    env = [line[4:] for line in lines if line.startswith("env ")]
    if proc.returncode != 0 or not env:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        raise SystemExit(f"{failed} exited {proc.returncode}: {last}; no AB file written")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise SystemExit(f"{failed} printed no JSON result ({e}); no AB file written") from None
    if not result["correct"]:
        raise SystemExit(f"{failed} reported correct: false ({result['failed']} of "
                         f"{result['attempted']} operations failed); no AB file written")
    return json.loads(env[0]), result


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


def compare(values: dict[str, list[float]], better: str) -> dict:
    """Each side's summary, the pairs each side won, and the sign test of those wins."""
    sign = -1 if better == "lower" else 1
    head_won = sum(sign * (h - b) > 0 for b, h in zip(values["base"], values["head"]))
    base_won = sum(sign * (b - h) > 0 for b, h in zip(values["base"], values["head"]))
    return {
        **{side: summary(values[side]) for side in SIDES},
        "wins": {"base": base_won, "head": head_won},
        "sign_test_p": sign_test(head_won, base_won),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="the revision to compare against")
    ap.add_argument("head", nargs="?", default="HEAD", help="the revision to measure")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--first-seed", type=int, default=100, help="workload seed of the first pair")
    ap.add_argument("--n", required=True, help="the suffix of the AB_<n>.json file name")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        raise SystemExit(f"abpair: --pairs must be >= 1, got {args.pairs}")

    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in zip(SIDES, (args.base, args.head))}
    differ = git("diff", "--name-only", commits["base"], commits["head"],
                 "--", "perfbench", "BENCHMARK.json")
    if differ:
        raise SystemExit(f"abpair: the benchmark differs between the revisions "
                         f"({', '.join(differ.splitlines())}); no AB file written")
    declared = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))

    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    order = first_sides(args.pairs, args.first_seed)
    values: dict[str, dict[str, list[float]]] = {name: {s: [] for s in SIDES} for name in declared}
    env: dict = {}
    with checkout(commits["base"]) as base_dir, checkout(commits["head"]) as head_dir:
        roots = {"base": base_dir, "head": head_dir}
        for seed, first in zip(seeds, order):
            for side in sorted(SIDES, key=lambda s: s != first):
                env, result = run_once(roots[side], args.workload, seed, args.seconds)
                for name in declared:
                    values[name][side].append(result["metrics"][name]["value"])
                wall = result["metrics"]["wall_s"]["value"]
                print(f"seed {seed} {side}: wall_s {wall:.4g}", file=sys.stderr)

    ab = {
        **{side: commits[side] for side in SIDES},
        "tree_dirty": dirty,
        **{key: env[key] for key in HOST},
        "workload": args.workload,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "seeds": seeds,
        "first": order,
        "metrics": {name: {"unit": m["unit"], "better": m["better"],
                           **compare(values[name], m["better"])}
                    for name, m in declared.items()},
    }
    out = ROOT / f"AB_{args.n}.json"
    out.write_text(json.dumps(ab, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
