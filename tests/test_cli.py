import json

import pytest

from propeq.cli import main
from propeq.harness import CSV_HEADER, load_sweep_csv


def small_config(tmp_path, **channel_overrides):
    channel = {
        "propellers": [
            {"shape": {"kind": "square", "duty": 0.3, "lo": 0.5, "hi": 1.0},
             "f_p": 30.0, "phase": 1.366, "coeff": 1.0}
        ],
        "snr_db": 20.0,
        "rng_seed": 0,
    }
    channel.update(channel_overrides)
    cfg = {"clock": {"rate_hz": 6400.0, "n_samples": 6400}, "channel": channel}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_simulate_defaults(capsys):
    assert main(["simulate", "--fp", "30", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "ddm_raw" in out and "ddm_eq" in out


def test_simulate_writes_csv(tmp_path):
    cfg = small_config(tmp_path)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--fp", "22.5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[0]) == 22.5


def test_simulate_annotates_blind_spot(tmp_path, capsys):
    cfg = small_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--fp", "22.5"]) == 0
    assert "equalization may underperform" in capsys.readouterr().out


def test_sweep_emits_csv_and_plot(tmp_path, capsys):
    cfg = small_config(tmp_path)
    out = tmp_path / "sweep.csv"
    plot = tmp_path / "sweep.svg"
    rc = main(
        ["sweep", "--config", cfg, "--fp-start", "21", "--fp-stop", "23",
         "--fp-step", "0.5", "--seeds", "2", "--out", str(out), "--plot", str(plot)]
    )
    assert rc == 0
    rows = load_sweep_csv(out)
    assert len(rows) == 5 * 2
    assert plot.read_text().startswith("<svg")
    printed = capsys.readouterr().out
    assert "f_p = 22.5" in printed and "underperform" in printed


def test_sweep_workers_flag_matches_serial(tmp_path):
    cfg = small_config(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["sweep", "--config", cfg, "--fp-start", "20", "--fp-stop", "22",
            "--fp-step", "1", "--seeds", "2"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_blindspots_scan(tmp_path, capsys):
    cfg = small_config(tmp_path)
    rc = main(["blindspots", "--config", cfg, "--threshold", "0.01",
               "--fp-start", "22", "--fp-stop", "23", "--fp-step", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "f_p = 22.5 Hz" in out and "90 Hz" in out


@pytest.mark.parametrize("stage", ["rx", "equalized", "modulator"])
def test_spectrum_stages(tmp_path, stage):
    cfg = small_config(tmp_path)
    out = tmp_path / f"{stage}.csv"
    assert main(["spectrum", "--config", cfg, "--stage", stage, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "freq_hz,re,im,mag_db"


def test_missing_config_is_exit_1(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_config_value_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"reg": {"eps_rel": 2.0}}))
    assert main(["simulate", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_bad_flag_value_is_exit_1(tmp_path):
    cfg = small_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--seeds", "0",
                 "--out", str(tmp_path / "x.csv")]) == 1


def test_usage_error_is_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # missing required --out
    assert exc.value.code == 1


def test_pipeline_error_is_exit_2(tmp_path, capsys):
    # an all-blocking gain zeroes the capture: valid config, fails mid-pipeline
    cfg = small_config(
        tmp_path,
        propellers=[
            {"shape": {"kind": "custom", "gains": [0.0]}, "f_p": 20.0,
             "phase": 0.0, "coeff": 1.0}
        ],
        snr_db=None,
    )
    assert main(["simulate", "--config", cfg]) == 2
    assert "pipeline error" in capsys.readouterr().err


def test_unwritable_out_is_exit_2(tmp_path, capsys):
    cfg = small_config(tmp_path)
    rc = main(["simulate", "--config", cfg, "--out",
               str(tmp_path / "missing-dir" / "x.csv")])
    assert rc == 2
    assert "i/o error" in capsys.readouterr().err


_SQUARE = {"kind": "square", "duty": 0.3, "lo": 0.5, "hi": 1.0}
# a valid scenario that is swept up to its 3200 Hz Nyquist rate
_NYQUIST_SWEEP = {"clock": {"rate_hz": 6400.0, "n_samples": 6400}}
# the default scenario run with `--snr-db <value>`, one distinct config per value
_SNR_FLAG = {value: {} for value in ("4000", "-4000", "inf", "-inf", "nan")}


@pytest.mark.parametrize(
    "config, message",
    [
        ({"ils": []}, "ils must be a JSON object"),
        ({"channel": {"propellers": [{"f_p": 30.0}]}}, 'needs a "shape"'),
        ({"clock": {"n_samples": 3.5}}, "n_samples must be a positive int"),
        # 1.032 Hz bins: 90 Hz is not an exact bin
        ({"clock": {"rate_hz": 32000.0, "n_samples": 31000}}, "not an integer bin"),
        # the 1200-1800 Hz tone band lies beyond the 1500 Hz Nyquist limit
        ({"clock": {"rate_hz": 3000.0, "n_samples": 3000}}, "exceeds the Nyquist range"),
        # a value of the wrong JSON type, named by its key path
        ({"ils": {"a_90": "x"}}, "ils.a_90 must be a finite number"),
        ({"tone": {"amp": None}}, "tone.amp must be a finite number"),
        ({"reg": {"eps_rel": "0.1"}}, "reg.eps_rel must be a finite number"),
        ({"signal_band": {"center_hz": "0"}}, "signal_band.center_hz must be a finite number"),
        ({"clock": {"rate_hz": None}}, "clock.rate_hz must be a finite number"),
        ({"channel": {"propellers": [{"shape": {**_SQUARE, "duty": "0.3"}}]}},
         "channel.propellers[0].shape.duty must be a finite number"),
        ({"channel": {"propellers": [{"shape": _SQUARE, "f_p": None}]}},
         "channel.propellers[0].f_p must be a finite number"),
        ({"channel": {"snr_db": "20"}}, "channel.snr_db must be a finite number"),
        ({"ils": {"phase_90": [1]}}, "ils.phase_90 must be a finite number"),
        # an off-bin reference tone
        ({"tone": {"offset_hz": 1500.5}, "tone_band": {"center_hz": 1500.5}},
         "1500.5 Hz is not an integer bin"),
        # rotation rates at or beyond half the 32 kHz sample rate
        ({"channel": {"propellers": [{"shape": _SQUARE, "f_p": 20000}]}},
         "below half the sample rate"),
        ({"channel": {"propellers": [{"shape": _SQUARE, "f_p": 1e308}]}},
         "below half the sample rate"),
        (_NYQUIST_SWEEP, "below half the sample rate"),
        # clocks whose bin arithmetic would overflow or divide by zero
        ({"clock": {"n_samples": 2**64}}, "n_samples must be a positive int below 2**63"),
        ({"clock": {"rate_hz": 5e-324}}, "underflows to 0"),
        ({"clock": {"rate_hz": 1e-310, "n_samples": 1}}, "90.0 Hz is outside the Nyquist range"),
        # SNRs whose power ratio overflows, underflows to 0 or is not a number
        *((config, f"snr_db {float(value)} is out of range") for value, config in _SNR_FLAG.items()),
        ({"channel": {"snr_db": -4000}}, "snr_db -4000.0 is out of range"),
    ],
)
def test_impossible_config_is_rejected_at_construction(tmp_path, capsys, config, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    command = ["simulate"]
    if config is _NYQUIST_SWEEP:
        command = ["sweep", "--fp-start", "3000", "--fp-stop", "3200", "--fp-step", "100",
                   "--out", str(tmp_path / "never.csv")]
    command += [f"--snr-db={v}" for v, flagged in _SNR_FLAG.items() if config is flagged]
    assert main([*command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("propeq: config error:") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "start, step",
    [("15990", "5"), ("15", "15985")],  # the second grid is 15 Hz, a flagged rate, then 16 kHz
)
def test_blindspots_checks_the_whole_grid_before_scanning(capsys, start, step):
    # the grid ends at the 16 kHz half sample rate; no rate before it is printed
    argv = ["blindspots", "--fp-start", start, "--fp-stop", "16000", "--fp-step", step]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("propeq: config error:") and captured.err.count("\n") == 1
