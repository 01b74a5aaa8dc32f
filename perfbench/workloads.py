"""The benchmark's workloads: the CLI commands of each operation and their checks.

Every workload is a closed loop from one client: the next operation starts
when the previous one has returned. An operation is a list of ``propeq``
command lines; its check parses what the commands wrote and compares it with
the golden reference table, which the unmodified program produced.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
MULTIPROP = HERE / "multiprop.json"
GOLDEN = HERE / "golden.csv"
GOLDEN_SPECTRA = HERE / "golden_spectra.csv"

SWEEP_HEADER = "f_p_hz,seed,ddm_raw,ddm_eq,dev_raw,dev_eq"
SPECTRUM_HEADER = "freq_hz,re,im,mag_db"
N_SAMPLES = 32000  # capture length of every workload scenario
DDM_TOL = 1e-12
# spectrum bins are unnormalized (the carrier bin is ~N); 1e-8 is ~3e-13 of it
SPECTRUM_TOL = 1e-8
SPECTRUM_STAGES = ("modulator", "rx", "equalized")
SPECTRUM_PROBE_HZ = (-150.0, -90.0, -30.0, 0.0, 30.0, 90.0, 150.0, 1470.0, 1500.0, 1530.0)

# The golden table covers the default workload seed; single_capture draws a
# new scenario per operation, so only its first GOLDEN_SINGLE_OPS are listed.
DEFAULT_SEED = 0
GOLDEN_SINGLE_OPS = 256


class OutputMismatch(Exception):
    """An operation's output files are malformed or differ from the reference."""


@dataclass
class Op:
    """One closed-loop operation: commands run in order, then ``check``."""

    commands: list[list[str]]
    check: Callable[[], int]  # returns the (rate, seed) runs completed
    golden_checked: bool


def load_golden(path: Path = GOLDEN) -> dict[tuple[str, int], list[tuple[float, int, float, float]]]:
    table: dict[tuple[str, int], list[tuple[float, int, float, float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["workload"], int(row["op"]))
            table.setdefault(key, []).append(
                (float(row["f_p"]), int(row["seed"]), float(row["ddm_raw"]), float(row["ddm_eq"]))
            )
    return table


def load_golden_spectra(path: Path = GOLDEN_SPECTRA) -> dict[str, list[tuple[float, complex]]]:
    table: dict[str, list[tuple[float, complex]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            table.setdefault(row["stage"], []).append(
                (float(row["freq_hz"]), complex(float(row["re"]), float(row["im"])))
            )
    return table


def read_sweep_csv(path: Path, n_rows: int) -> list[tuple[float, int, float, float]]:
    """Rows (f_p, seed, ddm_raw, ddm_eq) of a sweep/simulate CSV, shape-checked."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        raise OutputMismatch(f"{path.name}: bad CSV header")
    if len(lines) - 1 != n_rows:
        raise OutputMismatch(f"{path.name}: {len(lines) - 1} rows, expected {n_rows}")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        vals = [float(v) for v in f]
        if len(f) != 6 or not all(math.isfinite(v) for v in vals):
            raise OutputMismatch(f"{path.name}: malformed row {line!r}")
        rows.append((vals[0], int(f[1]), vals[2], vals[3]))
    return rows


def compare_rows(got, want, where: str) -> None:
    if len(got) != len(want):
        raise OutputMismatch(f"{where}: {len(got)} rows, reference has {len(want)}")
    for g, w in zip(got, want):
        if g[:2] != w[:2] or abs(g[2] - w[2]) > DDM_TOL or abs(g[3] - w[3]) > DDM_TOL:
            raise OutputMismatch(f"{where}: row {g} differs from reference {w}")


def check_spectrum(path: Path, reference: list[tuple[float, complex]]) -> None:
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != SPECTRUM_HEADER:
            raise OutputMismatch(f"{path.name}: bad spectrum header")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (N_SAMPLES, 4) or not np.all(np.isfinite(data)):
        raise OutputMismatch(f"{path.name}: spectrum shape {data.shape} or non-finite values")
    probes = dict(reference)
    by_freq = {r[0]: complex(r[1], r[2]) for r in data if r[0] in probes}
    for freq, want in probes.items():
        got = by_freq.get(freq)
        if got is None or abs(got - want) > SPECTRUM_TOL:
            raise OutputMismatch(f"{path.name}: bin {freq} Hz is {got}, reference {want}")


class Workload:
    """Base: ``op(i)`` prepares operation ``i`` (untimed) and returns it."""

    name = ""
    why = ""
    workers = 1  # sweep worker threads one operation asks for
    runs_per_op = 0

    def __init__(self, seed: int, out_dir: Path, golden: dict, spectra: dict):
        self.seed = seed
        self.out = out_dir
        self.golden = golden
        self.spectra = spectra
        out_dir.mkdir(parents=True, exist_ok=True)

    def setup_config(self) -> Path | None:
        """Config a fresh process loads before its first operation (None: default)."""
        return None

    def warmup_commands(self) -> list[list[str]]:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def _fresh(self, *names: str) -> list[Path]:
        paths = [self.out / n for n in names]
        for p in paths:
            p.unlink(missing_ok=True)
        return paths

    def _check_sweep(self, csv_path: Path, svg_path: Path) -> int:
        # the sweep operation does not depend on the workload seed
        rows = read_sweep_csv(csv_path, self.runs_per_op)
        compare_rows(rows, self.golden.get((self.name, 0), []), csv_path.name)
        if not svg_path.read_text(encoding="utf-8").startswith("<svg"):
            raise OutputMismatch(f"{svg_path.name}: not an SVG document")
        return self.runs_per_op


class SweepDefault(Workload):
    name = "sweep_default"
    why = (
        "closed loop, 1 client: the headline 510-run default sweep, serial; "
        "shared work is largest, so caching, batching and decimation act most here"
    )
    runs_per_op = 51 * 10

    def warmup_commands(self):
        return [["sweep", "--fp-start", "15", "--fp-stop", "15", "--seeds", "1",
                 "--out", str(self.out / "warm.csv")]]

    def op(self, i):
        csv_path, svg_path = self._fresh("sweep.csv", "sweep.svg")
        return Op(
            [["sweep", "--out", str(csv_path), "--plot", str(svg_path)]],
            lambda: self._check_sweep(csv_path, svg_path),
            golden_checked=True,
        )


class ReportMultipropW2(Workload):
    name = "report_multiprop_w2"
    why = (
        "closed loop, 1 client: 3-propeller sweep on 2 worker threads plus 3 spectrum dumps; "
        "a non-default modulator, the thread pool, and the emitters on the blocking path"
    )
    workers = 2
    runs_per_op = 26 * 10

    def setup_config(self):
        return MULTIPROP

    def warmup_commands(self):
        # the first two-worker sweep in a process runs ~30% slow; keep it untimed
        return self.op(0).commands

    def op(self, i):
        csv_path, svg_path, *spec_paths = self._fresh(
            "sweep.csv", "sweep.svg", *(f"{s}.csv" for s in SPECTRUM_STAGES)
        )
        commands = [["sweep", "--config", str(MULTIPROP), "--fp-step", "1.0", "--seeds", "10",
                     "--workers", str(self.workers), "--out", str(csv_path), "--plot", str(svg_path)]]
        commands += [["spectrum", "--config", str(MULTIPROP), "--fp", "30", "--stage", stage,
                      "--out", str(p)] for stage, p in zip(SPECTRUM_STAGES, spec_paths)]

        def check():
            runs = self._check_sweep(csv_path, svg_path)
            for stage, p in zip(SPECTRUM_STAGES, spec_paths):
                check_spectrum(p, self.spectra[stage])
            return runs

        return Op(commands, check, golden_checked=True)


def single_capture_config(seed: int, i: int) -> dict:
    """Scenario of operation ``i``: new f_p, noise seed, phases and chop each time."""
    rng = np.random.default_rng([seed, i])
    two_pi = 2 * math.pi
    return {
        "ils": {"phase_90": rng.uniform(0, two_pi), "phase_150": rng.uniform(0, two_pi)},
        "tone": {"phase": rng.uniform(0, two_pi)},
        "channel": {
            "propellers": [{
                "shape": {"kind": "square", "duty": rng.uniform(0.2, 0.45),
                          "lo": rng.uniform(0.3, 0.7), "hi": 1.0},
                "f_p": rng.uniform(15.0, 40.0),
                "phase": rng.uniform(0, two_pi),
            }],
            "snr_db": 20.0,
            "rng_seed": int(rng.integers(2**31)),
        },
    }


class SingleCapture(Workload):
    name = "single_capture"
    why = (
        "closed loop, 1 client: one simulate per capture, each a new scenario, as an inspector "
        "runs it; per-command latency, and nothing to reuse across operations"
    )
    runs_per_op = 1

    def setup_config(self):
        return self._write_config(0)[0]

    def warmup_commands(self):
        return [["simulate", "--out", str(self.out / "warm.csv")]]

    def _write_config(self, i: int) -> tuple[Path, dict]:
        path = self.out / "op.json"
        cfg = single_capture_config(self.seed, i)
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path, cfg["channel"]

    def op(self, i):
        cfg_path, cfg = self._write_config(i)
        (csv_path,) = self._fresh("run.csv")
        reference = self.golden.get((self.name, i)) if self.seed == DEFAULT_SEED else None

        def check():
            rows = read_sweep_csv(csv_path, 1)
            want_key = (cfg["propellers"][0]["f_p"], cfg["rng_seed"])
            if rows[0][:2] != want_key:
                raise OutputMismatch(f"{csv_path.name}: run {rows[0][:2]} is not {want_key}")
            if reference is not None:
                compare_rows(rows, reference, f"op {i}")
            return 1

        return Op([["simulate", "--config", str(cfg_path), "--out", str(csv_path)]], check,
                  golden_checked=reference is not None)


WORKLOADS = {w.name: w for w in (SweepDefault, ReportMultipropW2, SingleCapture)}


def make_workload(name: str, seed: int, out_dir: Path) -> Workload:
    return WORKLOADS[name](seed, out_dir, load_golden(), load_golden_spectra())
