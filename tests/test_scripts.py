"""Tests of the benchmark script, scripts/bench.py.

The ``test_abpair_*`` tests check its A/B pairs: two commits timed in
alternating pairs from their own checkouts.
"""

import contextlib
import importlib.util
import json
import os
import random
import runpy
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
ENV = {"numpy": "2", "python": "3", "cpu_count": 2, "cpu_model": "cpu"}


def _load():
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _bench(tmp_path, monkeypatch, workloads=("first",), diff=""):
    """scripts/bench.py with git, the checkouts and the BENCHMARK.json faked in ``tmp_path``.

    A commit ``b`` or ``h`` resolves to ``bb`` or ``hh``, whose checkout is
    ``tmp_path / "bb"`` or ``tmp_path / "hh"``.
    """
    bench = _load()
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "runs_per_s", "unit": "runs/s", "better": "higher"}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": w} for w in workloads], "end_to_end": metrics}))
    checkouts = []

    def git(*args):
        if args[0] == "rev-parse":
            return args[-1].split("^")[0] * 2
        return diff if args[0] == "diff" else ""

    @contextlib.contextmanager
    def checkout(commit):
        checkouts.append(commit)
        yield tmp_path / commit

    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "git", git)
    monkeypatch.setattr(bench, "checkout", checkout)
    bench.checkouts = checkouts
    return bench


def _result(wall, correct=True, attempted=1, failed=0):
    metrics = {"wall_s": {"value": wall}, "runs_per_s": {"value": 1 / wall}}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _printed(argv, result):
    """A benchmark run that printed its env line and ``result``."""
    stdout = f"env {json.dumps(ENV)}\n{json.dumps(result)}"
    return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")


def _no_file_written(tmp_path):
    return list(tmp_path.iterdir()) == [tmp_path / "BENCHMARK.json"]


def test_bench_script_summarizes_repeats():
    bench = runpy.run_path(str(SCRIPTS / "bench.py"))
    got = bench["summary"]([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (got["q1"], got["median"], got["q3"]) == (2.0, 3.0, 4.0)
    assert got["runs"] == [5.0, 1.0, 4.0, 2.0, 3.0]
    one = bench["summary"]([7.0])  # a single pair has no spread
    assert (one["q1"], one["median"], one["q3"]) == (7.0, 7.0, 7.0)


def test_bench_script_refuses_a_wrong_run(tmp_path, monkeypatch):
    bench = _bench(tmp_path, monkeypatch, workloads=("first", "second"))
    monkeypatch.setattr(bench, "cold_simulate", lambda root: 1.0)

    def run(argv, **kwargs):
        wrong = (argv[3], argv[5]) == ("second", "3")  # --workload W --seed S
        result = _result(1.0, correct=not wrong, attempted=4, failed=int(wrong))
        return _printed(argv, result)

    monkeypatch.setattr(bench.subprocess, "run", run)
    with pytest.raises(SystemExit) as exc:
        bench.main(["7", "b", "h", "--pairs", "4", "--first-seed", "1"])
    first = bench.first_sides(4, 1)[2]
    assert str(exc.value) == (
        f"bench: second seed 3 on {first[0] * 2} reported correct: false (1 of 4 operations "
        "failed); no BENCH file written"
    )
    assert _no_file_written(tmp_path)


def _timed_out(argv, **kwargs):
    raise subprocess.TimeoutExpired(argv, kwargs["timeout"])


def _garbled(argv, **kwargs):
    return subprocess.CompletedProcess(argv, 0, stdout='env {"numpy": "2"}\nrun cut shor', stderr="")


def _crashed(argv, **kwargs):
    return subprocess.CompletedProcess(argv, 1, stdout="", stderr="Traceback\n  ...\nMemoryError\n")


@pytest.mark.parametrize("run, message", [
    (_timed_out, "bench: first seed 1 on {root} timed out after 304 s; no BENCH file written"),
    (_garbled, "bench: first seed 1 on {root} printed no JSON result (Expecting value: line 1 "
               "column 1 (char 0)); no BENCH file written"),
    (_crashed, "bench: first seed 1 on {root} exited 1: MemoryError; no BENCH file written"),
])
def test_bench_script_ends_a_stuck_or_garbled_run_in_one_line(tmp_path, monkeypatch, run, message):
    bench = _bench(tmp_path, monkeypatch)
    monkeypatch.setattr(bench, "cold_simulate", lambda root: 1.0)
    monkeypatch.setattr(bench.subprocess, "run", run)
    with pytest.raises(SystemExit) as exc:
        bench.main(["7", "b", "h", "--pairs", "2", "--first-seed", "1"])
    assert str(exc.value) == message.format(root=bench.first_sides(2, 1)[0][0] * 2)
    assert _no_file_written(tmp_path)


def test_bench_script_times_fresh_simulate_processes(tmp_path, monkeypatch):
    bench = _bench(tmp_path, monkeypatch)
    argvs = []

    def run(argv, **kwargs):
        argvs.append(argv)
        assert kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0] == str(kwargs["cwd"] / "src")
        return subprocess.CompletedProcess(argv, 0, stdout="", stderr="")

    monkeypatch.setattr(bench, "run_once", lambda *args: (ENV, _result(1.0)))
    monkeypatch.setattr(bench.subprocess, "run", run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench.main(["7", "b", "h", "--pairs", "3"]) == 0
    cold = json.loads((tmp_path / "BENCH_7.json").read_text())["cold_simulate"]
    assert len(argvs) == 2 + 2 * 3  # one untimed process per checkout, then one per side and pair
    assert all(argv[1:4] == ["-m", "propeq", "simulate"] for argv in argvs)
    for side in ("base", "head"):
        assert len(cold[side]["runs"]) == 3
        assert cold[side]["q1"] <= cold[side]["median"] <= cold[side]["q3"]
    assert cold["unit"] == "s" and sum(cold["wins"].values()) <= 3
    assert "pythondontwritebytecode" not in cold
    assert "resolved" not in cold  # it has no bound


def test_bench_script_children_run_without_pythondontwritebytecode(tmp_path, monkeypatch):
    # the untimed cold process writes each checkout's bytecode, and every
    # timed process, benchmark run or cold simulate, reads it
    bench = _load()
    envs = []

    def run(argv, **kwargs):
        envs.append(kwargs["env"])
        return _printed(argv, _result(1.0))

    monkeypatch.setattr(bench.subprocess, "run", run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    bench.run_once(tmp_path / "hh", "first", 1, 1.0)
    bench.cold_simulate(tmp_path / "hh")
    assert len(envs) == 2
    for env in envs:
        assert "PYTHONDONTWRITEBYTECODE" not in env
        assert env["PATH"] == os.environ["PATH"]


def test_bench_script_reports_a_failed_cold_process(tmp_path, monkeypatch):
    bench = _load()
    monkeypatch.setattr(bench.subprocess, "run", lambda argv, **kwargs:
                        subprocess.CompletedProcess(argv, 1, stdout="", stderr="boom\nlast words\n"))
    with pytest.raises(SystemExit) as exc:
        bench.cold_simulate(tmp_path / "hh")
    assert str(exc.value) == "bench: cold simulate on hh exited 1: last words; no BENCH file written"


def test_bench_script_times_cold_simulate_once_per_side_in_each_pairs_order(tmp_path, monkeypatch):
    bench = _bench(tmp_path, monkeypatch, workloads=("first", "second"))
    calls = []

    def run_once(root, workload, seed, seconds):
        calls.append((root.name, workload, seed))
        return ENV, _result(1.0)

    def cold_simulate(root):
        calls.append((root.name, "cold"))
        return 1.0

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "cold_simulate", cold_simulate)
    assert bench.main(["7", "b", "h", "--pairs", "4", "--first-seed", "9"]) == 0
    want = [("bb", "cold"), ("hh", "cold")]  # untimed, for the bytecode
    for seed, first in zip(range(9, 13), bench.first_sides(4, 9)):
        sides = ["bb", "hh"] if first == "base" else ["hh", "bb"]
        want += [(side, workload, seed) for workload in ("first", "second") for side in sides]
        want += [(side, "cold") for side in sides]
    assert calls == want


def test_bench_script_records_both_sides_attempted_and_failed_for_every_workload(tmp_path, monkeypatch):
    bench = _bench(tmp_path, monkeypatch, workloads=("first", "second", "third"))
    monkeypatch.setattr(bench, "cold_simulate", lambda root: 1.0)

    def run_once(root, workload, seed, seconds):
        attempted = {"first": 10, "second": 20, "third": 30}[workload] + (root.name == "hh")
        return ENV, _result(1.0, attempted=attempted, failed=int(workload == "second"))

    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["7", "b", "h", "--pairs", "3"]) == 0
    workloads = json.loads((tmp_path / "BENCH_7.json").read_text())["workloads"]
    assert list(workloads) == ["first", "second", "third"]
    assert workloads["first"]["attempted"] == {"base": 30, "head": 33}
    assert workloads["third"]["attempted"] == {"base": 90, "head": 93}
    assert workloads["second"]["failed"] == {"base": 3, "head": 3}
    assert workloads["first"]["failed"] == {"base": 0, "head": 0}


@pytest.mark.parametrize("args, message", [
    (["--workload", "first", "--workload", "fist"],
     "bench: BENCHMARK.json names no workload fist; no BENCH file written"),
    (["--pairs", "0"], "bench: --pairs must be >= 1, got 0; no BENCH file written"),
    (["--interleaved", "9"],
     "bench: --interleaved must be 0 or >= 10, got 9; no BENCH file written"),
])
def test_bench_script_refuses_bad_arguments_before_any_checkout(tmp_path, monkeypatch, args, message):
    bench = _bench(tmp_path, monkeypatch)
    monkeypatch.setattr(bench, "git", lambda *args: pytest.fail("git was called"))
    with pytest.raises(SystemExit) as exc:
        bench.main(["7", "b", *args])
    assert str(exc.value) == message
    assert bench.checkouts == []
    assert _no_file_written(tmp_path)


def test_abpair_runs_both_sides_of_a_pair_on_one_seed_in_a_drawn_order(tmp_path, monkeypatch):
    bench = _bench(tmp_path, monkeypatch, workloads=("first", "second"))
    monkeypatch.setattr(bench, "cold_simulate", lambda root: 1.0)
    calls = []

    def run_once(root, workload, seed, seconds):
        calls.append((root.name, seed))
        return ENV, _result(1.0 if root.name == "hh" else 2.0)  # head wins every pair

    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["3", "b", "h", "--workload", "second", "--pairs", "6", "--first-seed", "40"]) == 0
    ab = json.loads((tmp_path / "BENCH_3.json").read_text())
    assert ab["seeds"] == [40, 41, 42, 43, 44, 45]
    assert sorted(ab["first"]) == ["base"] * 3 + ["head"] * 3
    assert ab["first"] == bench.first_sides(6, 40)  # the same draw for the same seed
    want = []
    for seed, first in zip(ab["seeds"], ab["first"]):
        sides = ["bb", "hh"] if first == "base" else ["hh", "bb"]
        want += [(side, seed) for side in sides]
    assert calls == want
    assert list(ab["workloads"]) == ["second"]
    metrics = ab["workloads"]["second"]["metrics"]
    wall = metrics["wall_s"]
    assert wall["wins"] == {"base": 0, "head": 6} == metrics["runs_per_s"]["wins"]
    assert wall["head"]["runs"] == [1.0] * 6 and wall["base"]["median"] == 2.0
    assert wall["sign_test_p"] == 2 / 2**6
    # only wall_s has a bound, and the head beats every base run of it
    assert wall["resolved"] is True and "resolved" not in metrics["runs_per_s"]
    assert (ab["base"], ab["head"], ab["cpu_model"], ab["seconds"]) == ("bb", "hh", "cpu", 1)


@pytest.mark.parametrize("better, base, head, resolved", [
    # the base spreads by q3 - q1 = 0.5 about a median of 1.0, twice the 0.25 bound
    ("lower", [0.5, 0.75, 1.0, 1.25, 1.5], [0.9, 1.0, 1.1, 1.2, 1.3], False),
    ("higher", [0.5, 0.75, 1.0, 1.25, 1.5], [0.9, 1.0, 1.1, 1.2, 1.3], False),
    # just as wide, yet every head run beats every base run
    ("lower", [0.5, 0.75, 1.0, 1.25, 1.5], [0.1, 0.2, 0.3, 0.4, 0.45], True),
    ("higher", [0.5, 0.75, 1.0, 1.25, 1.5], [1.6, 2.0, 2.5, 3.0, 3.5], True),
    # a spread of 0.1 about 1.0 resolves the bound, whichever side wins
    ("lower", [0.9, 0.95, 1.0, 1.05, 1.1], [1.2, 1.3, 1.4, 1.5, 1.6], True),
    ("higher", [0.9, 0.95, 1.0, 1.05, 1.1], [1.0, 1.0, 1.0, 1.0, 1.0], True),
])
def test_bench_script_marks_a_metric_its_spread_cannot_resolve(better, base, head, resolved):
    bench = runpy.run_path(str(SCRIPTS / "bench.py"))
    got = bench["compare"]({"base": base, "head": head}, better, 0.25)
    assert got["resolved"] is resolved
    assert "resolved" not in bench["compare"]({"base": base, "head": head}, better)


@pytest.mark.parametrize("wins, losses, p", [
    (9, 1, 22 / 1024),  # 2 * (C(10,0) + C(10,1)) / 2**10
    (10, 0, 2 / 1024),
    (5, 5, 1.0),
    (0, 0, 1.0),
    (3, 1, 10 / 16),
])
def test_abpair_sign_test(wins, losses, p):
    bench = runpy.run_path(str(SCRIPTS / "bench.py"))
    assert bench["sign_test"](wins, losses) == pytest.approx(p, rel=1e-15)
    assert bench["sign_test"](losses, wins) == bench["sign_test"](wins, losses)


def test_abpair_refuses_revisions_whose_benchmark_differs(tmp_path, monkeypatch):
    bench = _bench(tmp_path, monkeypatch, diff="perfbench/run.py\nBENCHMARK.json")
    monkeypatch.setattr(bench, "run_once", lambda *args: pytest.fail("a run was started"))
    with pytest.raises(SystemExit) as exc:
        bench.main(["3", "b", "h", "--pairs", "2"])
    assert str(exc.value) == ("bench: the benchmark differs between the commits "
                              "(perfbench/run.py, BENCHMARK.json); no BENCH file written")
    assert bench.checkouts == []
    assert _no_file_written(tmp_path)


def test_abpair_ends_a_timed_out_run_in_one_line(tmp_path, monkeypatch):
    bench = _bench(tmp_path, monkeypatch, workloads=("first", "second"))
    monkeypatch.setattr(bench, "cold_simulate", lambda root: 1.0)
    second = "hh" if bench.first_sides(2, 7)[0] == "base" else "bb"  # the side run second

    def run(argv, **kwargs):
        if "second" in argv and kwargs["cwd"].name == second:
            _timed_out(argv, **kwargs)
        return _printed(argv, _result(1.0))

    monkeypatch.setattr(bench.subprocess, "run", run)
    with pytest.raises(SystemExit) as exc:
        bench.main(["3", "b", "h", "--pairs", "2", "--first-seed", "7"])
    assert str(exc.value) == (f"bench: second seed 7 on {second} timed out after 304 s; "
                              "no BENCH file written")
    assert "\n" not in str(exc.value)
    assert _no_file_written(tmp_path)


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
    bench = _load()
    monkeypatch.setattr(bench, "ROOT", repo)
    monkeypatch.setattr(bench.tempfile, "tempdir", str(tmp_path))
    with pytest.raises(RuntimeError):
        with bench.checkout(git("rev-parse", "HEAD")) as path:
            assert (path / "f").read_text() == "x"
            raise RuntimeError  # a failed run still removes the checkout
    assert not path.exists()
    assert len(git("worktree", "list").splitlines()) == 1


def test_bench_script_removes_its_checkouts_when_stopped_by_sigterm(tmp_path):
    repo = tmp_path / "repo"
    for name, text in {
        "scripts/bench.py": (SCRIPTS / "bench.py").read_text(),
        "BENCHMARK.json": json.dumps({"run_seconds": 1, "workloads": [{"name": "w"}],
                                      "end_to_end": []}),
        "src/propeq/__init__.py": "",
        "src/propeq/__main__.py": "",
        # marks its start in the checkout, then sleeps until it is stopped
        "perfbench/run.py": "import pathlib, time\npathlib.Path('started').touch()\n"
                            "time.sleep(30)\n",
    }.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                               *args], check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    git("add", ".")
    git("commit", "-qm", "c")
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.Popen([sys.executable, str(repo / "scripts" / "bench.py"), "1", "HEAD",
                             "--pairs", "1"], cwd=repo, env=env, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("bench-*/*/started")):
            assert proc.poll() is None and time.monotonic() < deadline, "no run started"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert err == "bench: stopped by SIGTERM; no BENCH file written\n"
    assert len(git("worktree", "list").splitlines()) == 1
    assert list(tmp_path.glob("bench-*")) == []


# a fake propeq whose calls take DELAY seconds of a fake clock (half that for
# simulate); the top level imports them relatively from a submodule, as
# propeq does
_FAKE_HARNESS = """import bench_fake_clock

from .delays import DELAY


def default_scenario():
    return "default"


def scenario_with(cfg, f_p=None, seed=None):
    return (cfg, f_p, seed)


def load_config(path):
    return path.name


def sweep_fp(cfg, start, stop, step, seeds, workers=1):
    bench_fake_clock.advance(DELAY)


def simulate(cfg):
    bench_fake_clock.advance(DELAY / 2)
"""


class _FakeClock:
    """The clock the script times with, advanced only by the fake packages' calls.

    A call takes its delay times 1 + a seeded draw in [-0.2, 0.2], a host's
    jitter without its preemptions, so every outcome is the same on every run.
    """

    def __init__(self):
        self.now = 0.0
        self.jitter = random.Random(7)

    def perf_counter(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds * (1 + self.jitter.uniform(-0.2, 0.2))


def _fake_checkout(root, delay):
    pkg = root / "src" / "propeq"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from .harness import *  # noqa: F403\n")
    (pkg / "harness.py").write_text(_FAKE_HARNESS)
    (pkg / "delays.py").write_text(f"DELAY = {delay!r}\n")
    return root


@pytest.fixture()
def fake_clock(monkeypatch):
    """A fake clock for the fake packages, whose modules are removed after the test."""
    before = set(sys.modules)
    clock = _FakeClock()
    monkeypatch.setitem(sys.modules, "bench_fake_clock", clock)
    yield clock
    for name in set(sys.modules) - before - {"bench_fake_clock"}:
        del sys.modules[name]


def _timed_by(bench, clock, monkeypatch):
    monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=clock.perf_counter))
    return bench


def test_interleaved_pairs_load_two_distinct_packages(tmp_path, monkeypatch, fake_clock):
    bench = _timed_by(_load(), fake_clock, monkeypatch)
    roots = {side: _fake_checkout(tmp_path / side, 1.0) for side in ("base", "head")}
    before = set(sys.modules)
    bench.interleaved(roots, 10, 1)
    added = set(sys.modules) - before
    assert "propeq" not in added
    assert {name.split(".")[0] for name in added} == {"bench_base_propeq", "bench_head_propeq"}
    base, head = (sys.modules[f"bench_{side}_propeq.harness"] for side in ("base", "head"))
    assert base is not head
    assert base.__file__ == str(roots["base"] / "src" / "propeq" / "harness.py")
    assert head.__file__ == str(roots["head"] / "src" / "propeq" / "harness.py")


@pytest.mark.parametrize("head_delay", [1.0, 1.5])
def test_interleaved_pairs_resolve_an_injected_delay(tmp_path, monkeypatch, fake_clock,
                                                     head_delay):
    bench = _timed_by(_load(), fake_clock, monkeypatch)
    roots = {"base": _fake_checkout(tmp_path / "base", 1.0),
             "head": _fake_checkout(tmp_path / "head", head_delay)}
    got = bench.interleaved(roots, 40, 1)
    assert got["pairs"] == 40
    assert got["blind_to"] == ["setup_s", "import time", "peak RSS", "page faults"]
    assert set(got) == {"pairs", "warmups", "blind_to", *bench.KINDS}
    for kind in ("sweep", "simulate", "multiprop_w2"):
        ratio, blocks = got[kind]["ratio"], got[kind]["block_medians"]
        assert len(ratio["runs"]) == 40 and len(blocks) == 10
        if head_delay == 1.0:
            # A/A under +-20 % jitter per call: the median ratio stays within 10 %
            assert abs(ratio["median"] - 1) < 0.1
        else:
            # a 50 % delay is found in every block of 4 pairs, and head loses
            # nearly every pair
            assert ratio["median"] > 1.3 and min(blocks) > 1.15
            assert got[kind]["wins"]["base"] >= 36
            assert got[kind]["sign_test_p"] < 1e-6


def test_bench_script_writes_its_interleaved_pairs(tmp_path, monkeypatch, fake_clock):
    bench = _timed_by(_bench(tmp_path, monkeypatch), fake_clock, monkeypatch)
    for name in ("bb", "hh"):
        _fake_checkout(tmp_path / name, 1.0)
    monkeypatch.setattr(bench, "cold_simulate", lambda root: 1.0)
    monkeypatch.setattr(bench, "run_once", lambda *args: (ENV, _result(1.0)))
    assert bench.main(["7", "b", "h", "--pairs", "2", "--interleaved", "10"]) == 0
    inter = json.loads((tmp_path / "BENCH_7.json").read_text())["interleaved"]
    assert inter["pairs"] == 10
    assert set(inter) == {"pairs", "warmups", "blind_to", "sweep", "simulate", "multiprop_w2"}
    assert set(inter["sweep"]) == {"ratio", "block_medians", "wins", "sign_test_p"}

