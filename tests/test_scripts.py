"""Tests of the benchmark summary script."""

import importlib.util
import json
import os
import runpy
import subprocess
from pathlib import Path

import pytest


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_bench_script_summarizes_repeats():
    bench = runpy.run_path(str(SCRIPTS / "bench.py"))
    got = bench["summary"]([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (got["q1"], got["median"], got["q3"]) == (2.0, 3.0, 4.0)
    assert got["runs"] == [5.0, 1.0, 4.0, 2.0, 3.0]


def test_bench_script_refuses_a_wrong_run(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    workloads = [{"name": "first"}, {"name": "second"}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "workloads": workloads}))

    def run_once(workload, seed, seconds):
        wrong = (workload, seed) == ("second", 3)
        metrics = {"wall_s": {"unit": "s", "value": 1.0}}
        return {}, {"correct": not wrong, "attempted": 4, "failed": int(wrong), "metrics": metrics}

    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "git", lambda *args: "")
    with pytest.raises(SystemExit) as exc:
        bench.main(["7"])
    assert str(exc.value) == (
        "bench: second seed 3 reported correct: false (1 of 4 operations failed); "
        "no BENCH file written"
    )
    assert list(tmp_path.iterdir()) == [tmp_path / "BENCHMARK.json"]


def _timed_out(argv, **kwargs):
    raise subprocess.TimeoutExpired(argv, kwargs["timeout"])


def _garbled(argv, **kwargs):
    return subprocess.CompletedProcess(argv, 0, stdout='env {"numpy": "2"}\nrun cut shor', stderr="")


@pytest.mark.parametrize("run, message", [
    (_timed_out, "bench: first seed 1 timed out after 304 s; no BENCH file written"),
    (_garbled, "bench: first seed 1 printed no JSON result (Expecting value: line 1 column 1 "
               "(char 0)); no BENCH file written"),
])
def test_bench_script_ends_a_stuck_or_garbled_run_in_one_line(tmp_path, monkeypatch, run, message):
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "workloads": [{"name": "first"}]}))
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "git", lambda *args: "")
    monkeypatch.setattr(bench.subprocess, "run", run)
    with pytest.raises(SystemExit) as exc:
        bench.main(["7"])
    assert str(exc.value) == message
    assert list(tmp_path.iterdir()) == [tmp_path / "BENCHMARK.json"]


def test_bench_script_times_fresh_simulate_processes(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "workloads": [{"name": "first"}]}))
    metrics = {"wall_s": {"unit": "s", "value": 1.0}}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    env = {"numpy": "2", "python": "3", "cpu_count": 2, "cpu_model": "cpu"}
    argvs = []

    def run(argv, **kwargs):
        argvs.append(argv)
        assert kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0] == str(tmp_path / "src")
        return subprocess.CompletedProcess(argv, 0, stdout="", stderr="")

    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "git", lambda *args: "")
    monkeypatch.setattr(bench, "run_once", lambda *args: (env, result))
    monkeypatch.setattr(bench.subprocess, "run", run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench.main(["7"]) == 0
    cold = json.loads((tmp_path / "BENCH_7.json").read_text())["cold_simulate"]
    assert len(argvs) == len(cold["runs"]) == 9
    assert all(argv[1:4] == ["-m", "propeq", "simulate"] for argv in argvs)
    assert cold["q1"] <= cold["median"] <= cold["q3"] and cold["unit"] == "s"
    assert cold["pythondontwritebytecode"] is True


def test_bench_script_reports_a_failed_cold_process(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench.subprocess, "run", lambda argv, **kwargs:
                        subprocess.CompletedProcess(argv, 1, stdout="", stderr="boom\n"))
    with pytest.raises(SystemExit) as exc:
        bench.cold_simulate()
    assert str(exc.value) == "bench: cold simulate exited 1:\nboom\n"
