"""Tests of the benchmark scripts: bench.py and abpair.py."""

import contextlib
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


def _abpair(tmp_path, monkeypatch, diff=""):
    """scripts/abpair.py with git, the checkouts and the BENCHMARK.json faked in ``tmp_path``."""
    spec = importlib.util.spec_from_file_location("abpair", SCRIPTS / "abpair.py")
    abpair = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(abpair)
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower"},
               {"name": "runs_per_s", "unit": "runs/s", "better": "higher"}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))

    def git(*args):
        if args[0] == "rev-parse":
            return args[-1].split("^")[0] * 2
        return diff if args[0] == "diff" else ""

    @contextlib.contextmanager
    def checkout(commit):
        yield tmp_path / commit

    monkeypatch.setattr(abpair, "ROOT", tmp_path)
    monkeypatch.setattr(abpair, "git", git)
    monkeypatch.setattr(abpair, "checkout", checkout)
    return abpair


def test_abpair_runs_both_sides_of_a_pair_on_one_seed_in_a_drawn_order(tmp_path, monkeypatch):
    abpair = _abpair(tmp_path, monkeypatch)
    calls = []
    env = {"numpy": "2", "python": "3", "cpu_count": 2, "cpu_model": "cpu"}

    def run_once(root, workload, seed, seconds):
        calls.append((root.name, seed))
        wall = 1.0 if root.name == "hh" else 2.0  # head wins every pair
        metrics = {"wall_s": {"value": wall}, "runs_per_s": {"value": 1 / wall}}
        return env, {"correct": True, "metrics": metrics}

    monkeypatch.setattr(abpair, "run_once", run_once)
    args = ["b", "h", "--workload", "w", "--pairs", "6", "--seconds", "1", "--first-seed", "40"]
    assert abpair.main([*args, "--n", "3"]) == 0
    ab = json.loads((tmp_path / "AB_3.json").read_text())
    assert ab["seeds"] == [40, 41, 42, 43, 44, 45]
    assert sorted(ab["first"]) == ["base"] * 3 + ["head"] * 3
    assert ab["first"] == abpair.first_sides(6, 40)  # the same draw for the same seed
    want = []
    for seed, first in zip(ab["seeds"], ab["first"]):
        sides = ["bb", "hh"] if first == "base" else ["hh", "bb"]
        want += [(side, seed) for side in sides]
    assert calls == want
    wall = ab["metrics"]["wall_s"]
    assert wall["wins"] == {"base": 0, "head": 6} == ab["metrics"]["runs_per_s"]["wins"]
    assert wall["head"]["runs"] == [1.0] * 6 and wall["base"]["median"] == 2.0
    assert wall["sign_test_p"] == 2 / 2**6
    assert (ab["base"], ab["head"], ab["cpu_model"], ab["tree_dirty"]) == ("bb", "hh", "cpu", False)


@pytest.mark.parametrize("wins, losses, p", [
    (9, 1, 22 / 1024),  # 2 * (C(10,0) + C(10,1)) / 2**10
    (10, 0, 2 / 1024),
    (5, 5, 1.0),
    (0, 0, 1.0),
    (3, 1, 10 / 16),
])
def test_abpair_sign_test(wins, losses, p):
    abpair = runpy.run_path(str(SCRIPTS / "abpair.py"))
    assert abpair["sign_test"](wins, losses) == pytest.approx(p, rel=1e-15)
    assert abpair["sign_test"](losses, wins) == abpair["sign_test"](wins, losses)


def test_abpair_refuses_revisions_whose_benchmark_differs(tmp_path, monkeypatch):
    abpair = _abpair(tmp_path, monkeypatch, diff="perfbench/run.py\nBENCHMARK.json")
    monkeypatch.setattr(abpair, "run_once", lambda *args: pytest.fail("a run was started"))
    with pytest.raises(SystemExit) as exc:
        abpair.main(["b", "h", "--workload", "w", "--pairs", "2", "--seconds", "1", "--n", "3"])
    assert str(exc.value) == ("abpair: the benchmark differs between the revisions "
                              "(perfbench/run.py, BENCHMARK.json); no AB file written")
    assert list(tmp_path.iterdir()) == [tmp_path / "BENCHMARK.json"]


def test_abpair_ends_a_timed_out_run_in_one_line(tmp_path, monkeypatch):
    abpair = _abpair(tmp_path, monkeypatch)
    monkeypatch.setattr(abpair.subprocess, "run", _timed_out)
    with pytest.raises(SystemExit) as exc:
        abpair.main(["b", "h", "--workload", "w", "--pairs", "2", "--seconds", "1",
                     "--first-seed", "7", "--n", "3"])
    first = abpair.first_sides(2, 7)[0]
    assert str(exc.value) == (f"abpair: {first[0] * 2} w seed 7 timed out after 304 s; "
                              "no AB file written")
    assert "\n" not in str(exc.value)
    assert list(tmp_path.iterdir()) == [tmp_path / "BENCHMARK.json"]


def test_abpair_checkout_is_a_worktree_removed_on_exit(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                               *args], check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    (repo / "f").write_text("x")
    git("add", "f")
    git("commit", "-qm", "c")
    spec = importlib.util.spec_from_file_location("abpair", SCRIPTS / "abpair.py")
    abpair = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(abpair)
    monkeypatch.setattr(abpair, "ROOT", repo)
    monkeypatch.setattr(abpair.tempfile, "tempdir", str(tmp_path))
    with pytest.raises(RuntimeError):
        with abpair.checkout(git("rev-parse", "HEAD")) as path:
            assert (path / "f").read_text() == "x"
            raise RuntimeError  # a failed run still removes the checkout
    assert not path.exists()
    assert len(git("worktree", "list").splitlines()) == 1
