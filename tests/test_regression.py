"""Regression tables the engine must keep: the benchmark's golden DDMs of
its serial default and threaded multiprop sweeps, its golden bins of the
multiprop spectrum dumps, and the divider's noiseless floor."""

import csv
from pathlib import Path

import pytest

from propeq import default_scenario, load_config, scenario_with, sweep_fp
from propeq.cli import main
from propeq.pipeline import STAGES

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.csv"
GOLDEN_SPECTRA = GOLDEN.parent / "golden_spectra.csv"
MULTIPROP = GOLDEN.parent / "multiprop.json"
# the benchmark's tolerance on a dumped bin; the carrier bin is about N = 32000
SPECTRUM_TOL = 1e-8

# |ddm_eq - truth| of the noiseless default scenario at 15, 15.5, ..., 40 Hz.
# The regularized divider cannot do better, because the tone band truncates
# the modulator estimate; an equalizer change may lower these, never raise them
# beyond FLOOR_ROUNDOFF, the drift the golden check also tolerates.
NOISELESS_FLOOR = (
    0.0035549220742377707, 0.0006714511766816866, 0.00280708844428898, 0.0007450540687043983,
    0.0009850159474834308, 0.00013623504223128635, 0.0017905570347990507, 0.0009076122923508123,
    0.0015433203347028357, 0.00121074273769195, 0.0005881320745803886, 0.0010420517801854323,
    0.001306418184491509, 0.0014197021774791097, 0.0012445386075565223, 0.0023483960475454424,
    0.0013558175775538472, 0.000706352107466085, 0.00013814717935728416, 0.0006276622948514499,
    0.0012049123769764802, 0.0012265899798180602, 0.0001842232023273327, 0.00126502214137178,
    0.0010861002026875677, 0.0027881127695333907, 4.900110458436191e-05, 0.0004751349714735842,
    0.0009597550670615018, 0.00023115212556823472, 0.0017169501833125544, 0.0014260155087937876,
    0.0025357336630424387, 0.0024063218201319236, 0.0013715304678063867, 0.0030845602051408905,
    0.002307825469173741, 0.0033308596247294264, 0.0014593970706141546, 0.001918780863236158,
    0.0042881909132292395, 0.002070738521519011, 0.0001000274940682333, 0.0019327992641796632,
    0.0016195684393874865, 0.0036143079730690253, 0.002902844167324392, 0.0025333909719366665,
    0.0026367545205253085, 0.0025188957006465618, 0.008676097582749287,
)
FLOOR_ROUNDOFF = 1e-12


def _assert_matches_golden(workload, sweep):
    with GOLDEN.open(newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["workload"] == workload]
    assert len(rows) == len(sweep.results)
    for row, got in zip(rows, sweep.results):
        assert (float(row["f_p"]), int(row["seed"])) == (got.f_p_hz, got.seed)
        assert got.ddm_raw == pytest.approx(float(row["ddm_raw"]), rel=0, abs=1e-12)
        assert got.ddm_eq == pytest.approx(float(row["ddm_eq"]), rel=0, abs=1e-12)


def test_default_sweep_matches_the_golden_table():
    sweep = sweep_fp(default_scenario(), 15.0, 40.0, 0.5, seeds=range(10))
    assert len(sweep.results) == 510
    _assert_matches_golden("sweep_default", sweep)


def test_threaded_multiprop_sweep_matches_the_golden_table():
    # the benchmark's report workload: 3 propellers, 26 rates, 2 worker threads
    sweep = sweep_fp(load_config(MULTIPROP), 15.0, 40.0, 1.0, seeds=range(10), workers=2)
    assert len(sweep.results) == 260
    _assert_matches_golden("report_multiprop_w2", sweep)


def test_multiprop_spectrum_dumps_match_the_golden_bins(tmp_path):
    # the benchmark's report workload dumps every stage at 30 Hz and checks
    # the bins it probes. The worst probes read 0 (modulator), 7.2e-9 (rx at
    # 1500 Hz, against a golden table written from a float-phase transmit)
    # and 3.3e-10 (equalized at -150 Hz)
    with GOLDEN_SPECTRA.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["stage"] for r in rows} == set(STAGES)
    for stage in STAGES:
        out = tmp_path / f"{stage}.csv"
        argv = ["spectrum", "--config", str(MULTIPROP), "--fp", "30", "--stage", stage,
                "--out", str(out)]
        assert main(argv) == 0
        with out.open(newline="") as fh:
            dumped = {float(r["freq_hz"]): complex(float(r["re"]), float(r["im"]))
                      for r in csv.DictReader(fh)}
        for row in (r for r in rows if r["stage"] == stage):
            want = complex(float(row["re"]), float(row["im"]))
            got = dumped[float(row["freq_hz"])]
            assert abs(got - want) <= SPECTRUM_TOL, (stage, row["freq_hz"], got, want)


def test_noiseless_divider_floor_does_not_rise():
    cfg = scenario_with(default_scenario(), snr_db=None)
    sweep = sweep_fp(cfg, 15.0, 40.0, 0.5, seeds=[0])
    assert len(sweep.results) == len(NOISELESS_FLOOR)
    rises = [(r.f_p_hz, r.dev_eq, bound)
             for r, bound in zip(sweep.results, NOISELESS_FLOOR)
             if not r.dev_eq <= bound + FLOOR_ROUNDOFF]
    assert not rises, f"(f_p, dev_eq, floor) above the pinned floor: {rises}"
