"""Smoke test for the benchmark summary script."""

import runpy
from pathlib import Path


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_bench_script_summarizes_repeats():
    bench = runpy.run_path(str(SCRIPTS / "bench.py"))
    got = bench["summary"]([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (got["q1"], got["median"], got["q3"]) == (2.0, 3.0, 4.0)
    assert got["runs"] == [5.0, 1.0, 4.0, 2.0, 3.0]
