"""Smoke tests for the runnable experiment scripts."""

import runpy
import sys
from pathlib import Path


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, argv):
    monkeypatch.setattr(sys, "argv", [name] + argv)
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_run_speed_sweep_script(monkeypatch, tmp_path, capsys):
    run_script(
        monkeypatch,
        "run_speed_sweep.py",
        ["--fp-start", "22", "--fp-stop", "23", "--fp-step", "0.5",
         "--seeds", "1", "--workers", "1", "--out-dir", str(tmp_path)],
    )
    assert (tmp_path / "speed_sweep.csv").exists()
    assert (tmp_path / "speed_sweep.svg").exists()
    out = capsys.readouterr().out
    assert "blind spot" in out  # 22.5 Hz is on the grid


def test_dump_stage_spectra_script(monkeypatch, tmp_path):
    run_script(
        monkeypatch,
        "dump_stage_spectra.py",
        ["--fp", "30", "--noiseless", "--out-dir", str(tmp_path)],
    )
    for name in ("modulator.csv", "rx.csv", "equalized.csv"):
        assert (tmp_path / name).read_text().startswith("freq_hz,re,im,mag_db")


def test_bench_script_summarizes_repeats():
    bench = runpy.run_path(str(SCRIPTS / "bench.py"))
    got = bench["summary"]([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (got["q1"], got["median"], got["q3"]) == (2.0, 3.0, 4.0)
    assert got["runs"] == [5.0, 1.0, 4.0, 2.0, 3.0]
