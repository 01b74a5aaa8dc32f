import contextlib
import io
import json
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from statistics import median

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propeq.cli import main
from propeq.equalizer import predict_blind_spots
from propeq.harness import CSV_HEADER, MAX_RUNS, default_scenario, fp_grid, load_sweep_csv
from propeq.signals import MAX_SAMPLES


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
    printed = capsys.readouterr().out.splitlines()
    assert any(line.split()[0] == "22.5" and "underperform" in line for line in printed)


def test_sweep_prints_the_per_rate_median_table(tmp_path, capsys):
    out, plot = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
    assert main(["sweep", "--fp-start", "22", "--fp-stop", "23", "--fp-step", "0.5",
                 "--seeds", "3", "--out", str(out), "--plot", str(plot)]) == 0
    assert plot.exists()
    lines = capsys.readouterr().out.splitlines()
    header = lines.index(f"{'f_p (Hz)':>9} {'med dev raw':>12} {'med dev eq':>12}  note")
    rows = load_sweep_csv(out)
    table = lines[header + 1:]
    assert [float(line.split()[0]) for line in table] == [22.0, 22.5, 23.0]
    for line in table:
        f_p, raw, eq, *note = line.split()
        runs = [r for r in rows if r.f_p_hz == float(f_p)]
        assert raw == f"{median(r.dev_raw for r in runs):.3e}"
        assert eq == f"{median(r.dev_eq for r in runs):.3e}"
        # 22.5 Hz puts the chop's 4th harmonic on the 90 Hz tone
        assert ("blind spot" in line) == (f_p == "22.5")


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


# at 0.05 no rate of the default grid is flagged; at 0.02 four are, at one tone each
@pytest.mark.parametrize("threshold", [0.05, 0.02])
def test_blindspots_prints_the_flags_of_predict_blind_spots(capsys, threshold):
    # every rate of the default grid, at thresholds other than the default
    assert main(["blindspots", "--threshold", str(threshold)]) == 0
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        m = re.fullmatch(r"f_p = (\S+) Hz: blind spot at (.+); equalization may underperform", line)
        if m is None:
            assert line == "no blind spots flagged on the scanned grid"
            continue
        printed[float(m[1])] = tuple(float(f.removesuffix(" Hz")) for f in m[2].split(", "))
    cfg = default_scenario()
    want = {}
    for fp in fp_grid(15.0, 40.0, 0.5, cfg.clock):
        flags = predict_blind_spots(cfg.channel.with_rate(fp), cfg.clock, threshold)
        if flags:
            want[fp] = flags
    assert printed == want


@pytest.mark.parametrize("stage", ["rx", "equalized", "modulator"])
def test_spectrum_stages(tmp_path, stage):
    cfg = small_config(tmp_path)
    out = tmp_path / f"{stage}.csv"
    assert main(["spectrum", "--config", cfg, "--stage", stage, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "freq_hz,re,im,mag_db"


def test_spectrum_dumps_every_stage_of_a_noiseless_config(tmp_path):
    path = tmp_path / "noiseless.json"
    path.write_text(json.dumps({"channel": {"snr_db": None}}))
    for stage in ("modulator", "rx", "equalized"):
        out = tmp_path / f"{stage}.csv"
        argv = ["spectrum", "--config", str(path), "--stage", stage, "--fp", "30", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text().startswith("freq_hz,re,im,mag_db")


def test_missing_config_is_exit_1(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep", "blindspots", "spectrum"])
def test_an_unreadable_config_is_one_config_error(tmp_path, capsys, command):
    # a directory cannot be read as a file; that is the config's fault, not the run's
    out = ["--out", str(tmp_path / "never.csv")]
    flags = {"sweep": out, "spectrum": ["--stage", "rx", *out]}.get(command, [])
    assert main([command, *flags, "--config", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"propeq: config error: cannot read config file {tmp_path}:")
    assert err.count("\n") == 1


def test_invalid_config_value_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"reg": {"eps_rel": 2.0}}))
    assert main(["simulate", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_bad_flag_value_is_exit_1(tmp_path, capsys):
    cfg = small_config(tmp_path)
    for flag in (["--seeds", "0"], ["--workers", "0"], ["--workers", "-3"]):
        assert main(["sweep", "--config", cfg, *flag, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("propeq: config error:") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_a_moved_tone_takes_its_band_along(tmp_path):
    path, out = tmp_path / "tone.json", tmp_path / "run.csv"
    path.write_text(json.dumps({"tone": {"offset_hz": 1600}}))
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    # the tone band is centred on the moved tone, so the chop is divided out
    (run,) = load_sweep_csv(out)
    assert run.dev_eq < run.dev_raw / 10


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
# the same for SNRs whose power ratio is a subnormal float
_SUBNORMAL_SNR_FLAG = {value: {} for value in ("-3080", "-3200")}


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
        ({"signal_half_width_hz": "300"}, "signal_half_width_hz must be a finite number"),
        ({"clock": {"rate_hz": None}}, "clock.rate_hz must be a finite number"),
        ({"channel": {"propellers": [{"shape": {**_SQUARE, "duty": "0.3"}}]}},
         "channel.propellers[0].shape.duty must be a finite number"),
        ({"channel": {"propellers": [{"shape": _SQUARE, "f_p": None}]}},
         "channel.propellers[0].f_p must be a finite number"),
        ({"channel": {"snr_db": "20"}}, "channel.snr_db must be a finite number"),
        ({"ils": {"phase_90": [1]}}, "ils.phase_90 must be a finite number"),
        # an off-bin reference tone
        ({"tone": {"offset_hz": 1500.5}}, "1500.5 Hz is not an integer bin"),
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
        *((config, f"snr_db {float(value)} is out of range")
          for value, config in _SUBNORMAL_SNR_FLAG.items()),
        # the bands' centres follow from the scenario and are not config keys
        ({"tone_band": {"center_hz": 1500}}, "unknown config keys: ['tone_band']"),
        ({"signal_half_width_hz": 0}, "half_width_hz must be > 0, got 0.0"),
        ({"tone_half_width_hz": -1}, "tone_half_width_hz must be > 0, got -1.0"),
        # a subnormal tone amplitude, whose reciprocal overflows
        ({"tone": {"amp": 1e-310}}, "tone: amp must be a normal float > 0, got 1e-310"),
    ],
)
def test_impossible_config_is_rejected_at_construction(tmp_path, capsys, config, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    command = ["simulate"]
    if config is _NYQUIST_SWEEP:
        command = ["sweep", "--fp-start", "3000", "--fp-stop", "3200", "--fp-step", "100",
                   "--out", str(tmp_path / "never.csv")]
    flags = {**_SNR_FLAG, **_SUBNORMAL_SNR_FLAG}
    command += [f"--snr-db={v}" for v, flagged in flags.items() if config is flagged]
    assert main([*command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("propeq: config error:") and message in err
    assert err.count("\n") == 1


# a 2-rate x 2-seed sweep: its runs sum shared band series
_TWO_BY_TWO = ["sweep", "--fp-start", "30", "--fp-stop", "31", "--fp-step", "1", "--seeds", "2"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("snr_db", ["-3000", "-3076"])
def test_overflowing_received_energy_is_one_config_error(tmp_path, capsys, snr_db):
    # a normal power ratio, yet the noise is so loud that the capture's
    # energy overflows; no warning may reach the user either, also on a
    # 2 x 2 grid, whose runs sum shared band series
    for command in (["simulate"], _TWO_BY_TWO + ["--out", str(tmp_path / "never.csv")]):
        assert main([*command, f"--snr-db={snr_db}"]) == 1
        err = capsys.readouterr().err
        assert err == "propeq: config error: received energy must be finite\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "config, message",
    [
        # the noise scale is infinite, and so are the noisy received bins
        ({"ils": {"a_c": 1e160}}, "received bins must be finite"),
        ({"ils": {"a_c": 1e160}, "channel": {"snr_db": None}}, "received energy must be finite"),
        # the transmit sum overflows
        ({"ils": {"a_c": 1e308, "a_90": 0, "a_150": 0}, "tone": {"amp": 1e308}},
         "transmitted samples must be finite"),
        # the transmit is finite, its spectrum is not
        ({"ils": {"a_c": 1e308}}, "bins must be finite"),
        # a normal tone amplitude so small that demodulating its band overflows
        ({"tone": {"amp": 3e-308}}, "g_hat must be finite"),
        # the unit tone series carries 1/amp, and a sweep's axpy overflows
        # when the noise scale multiplies it
        ({"tone": {"amp": 1e-300}, "ils": {"a_c": 1e10}}, "g_hat must be finite"),
    ],
)
def test_loud_ils_is_one_config_error(tmp_path, capsys, config, message):
    # a float overflows on the way; no overflow warning may reach the user
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(config))
    for command in (["simulate"], _TWO_BY_TWO + ["--out", str(tmp_path / "never.csv")]):
        assert main([*command, "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"propeq: config error: {message}\n"


@pytest.mark.filterwarnings("error")
def test_opposite_infinities_in_the_quotient_are_one_config_error(tmp_path, capsys):
    # the quotient holds both +inf and -inf, which sum to NaN in its DDM bins
    path = tmp_path / "infinities.json"
    shape = {"kind": "square", "duty": 0.3, "lo": 5e-324, "hi": 1.0}
    path.write_text(json.dumps({
        "tone": {"amp": 1e300},
        "channel": {"propellers": [{"shape": shape, "f_p": 0.001}], "snr_db": -3000.0},
    }))
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "propeq: config error: equalized samples must be finite\n"


@pytest.mark.filterwarnings("error")
def test_overflowing_regularization_floor_is_one_pipeline_error(tmp_path, capsys):
    # the noise fills the band of a 1e-200 V tone, so g_hat is about 1e200
    # and its squared floor overflows: every quotient sample reads 0
    path = tmp_path / "faint_tone.json"
    path.write_text(json.dumps({"tone": {"amp": 1e-200}}))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("propeq: pipeline error: carrier lost") and err.count("\n") == 1


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


@pytest.mark.parametrize("command", ["sweep", "blindspots"])
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--fp-stop=inf", "fp_stop must be finite, got inf"),
        ("--fp-start=-inf", "fp_start must be finite, got -inf"),
        ("--fp-start=nan", "fp_start must be finite, got nan"),
        ("--fp-step=inf", "fp_step must be finite, got inf"),
        # finite flags whose number of grid points overflows a float
        ("--fp-stop=1e308", "has too many points to count"),
        ("--fp-step=1e-310", "has too many points to count"),
    ],
)
def test_unusable_grid_flag_is_one_config_error(tmp_path, capsys, command, flag, message):
    out = tmp_path / "never.csv"
    argv = [command, flag, *(["--out", str(out)] if command == "sweep" else [])]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("propeq: config error: ") and captured.err.endswith(f"{message}\n")
    assert captured.err.count("\n") == 1 and captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--fp-step", "1e-300"],  # 2.5e301 rates, all below Nyquist
        ["sweep", "--seeds", "100000000000"],
        ["sweep", "--fp-step", "0.000025", "--seeds", "1"],  # 1000001 rates
        ["blindspots", "--fp-step", "1e-300"],
    ],
)
def test_a_command_that_asks_for_too_many_runs_is_one_config_error(tmp_path, capsys, argv):
    out = tmp_path / "never.csv"
    argv = [*argv, *(["--out", str(out)] if argv[0] == "sweep" else [])]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("propeq: config error: a command may make at most 1000000 runs")
    assert captured.err.count("\n") == 1 and captured.out == "" and not out.exists()


@pytest.mark.parametrize("workers, code", [("64", 0), ("100000", 1)])
def test_sweep_caps_its_workers(tmp_path, capsys, workers, code):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--config", small_config(tmp_path), "--fp-start", "30", "--fp-stop", "31",
            "--fp-step", "1", "--seeds", "1", "--workers", workers, "--out", str(out)]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"propeq: config error: workers must be <= 64, got {workers}\n"
    assert out.exists() == (code == 0)


# zero, the smallest subnormal, a value near the float limit, the powers of
# ten between, and the moderate values a working scenario has
_MAGNITUDE = st.one_of(
    st.sampled_from([0.0, 5e-324, 1.7e308]),
    st.integers(-300, 300).map(lambda e: 10.0**e),
    st.floats(0.0, 2.0, exclude_min=True),
)
_SHAPE = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.lists(_MAGNITUDE, min_size=2, max_size=2).map(sorted)).map(
        lambda d: {"kind": "square", "duty": d[0], "lo": d[1][0], "hi": d[1][1]}),
    st.fixed_dictionaries({"kind": st.just("sine"), "beta": st.floats(0.0, 1.0)}),
    st.fixed_dictionaries({"kind": st.just("custom"),
                           "gains": st.lists(_MAGNITUDE, min_size=1, max_size=4)}),
)
_HALF_WIDTH = st.sampled_from([50.0, 150.0, 300.0, 450.0])


@st.composite
def _scenarios(draw):
    n = draw(st.integers(1600, 12800))
    return draw(st.fixed_dictionaries({
        "clock": st.just({"rate_hz": float(n), "n_samples": n}),
        "ils": st.fixed_dictionaries({name: _MAGNITUDE for name in
                                      ("a_c", "a_90", "a_150", "phase_90", "phase_150")}),
        "tone": st.fixed_dictionaries({"amp": _MAGNITUDE, "phase": _MAGNITUDE}),
        "channel": st.fixed_dictionaries({
            "propellers": st.lists(st.fixed_dictionaries({
                "shape": _SHAPE,
                "f_p": st.floats(1e-3, 1e3),
                "phase": _MAGNITUDE,
                "coeff": _MAGNITUDE,
            }), min_size=1, max_size=2),
            "snr_db": st.sampled_from([None, -3000.0, 20.0, 300.0, 3000.0]),
        }),
        "signal_half_width_hz": _HALF_WIDTH,
        "tone_half_width_hz": _HALF_WIDTH,
        "reg": st.fixed_dictionaries({"eps_rel": st.sampled_from([1e-300, 1e-12, 1e-3, 0.5])}),
    }))


@settings(max_examples=50, deadline=None)
@given(config=_scenarios())
def test_main_ends_every_drawn_config_in_an_exit_code(config):
    """Every command ends in exit 0, 1 or 2; a failure prints one stderr line.

    A warning or an uncaught exception fails the test. The sweep's 2-rate x
    2-seed grid takes the shared-series path. ``signals.MAX_SAMPLES`` bounds
    the clock a command accepts; the drawn clocks stay at 12 800 samples or
    fewer only to keep the test short. Nothing else about the drawn configs
    is narrowed.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.json"
        path.write_text(json.dumps(config))
        out = str(Path(tmp) / "out.csv")
        sweep = ["sweep", "--fp-start", "20", "--fp-stop", "21", "--fp-step", "1",
                 "--seeds", "2", "--out", out]
        for command in (["simulate"], sweep, ["blindspots"],
                        *(["spectrum", "--stage", stage, "--out", out]
                          for stage in ("rx", "equalized", "modulator"))):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([*command, "--config", str(path)])
            assert code in (0, 1, 2)
            if code:
                assert err.getvalue().startswith("propeq: ") and err.getvalue().count("\n") == 1


# prime clocks: each band IFFT is one full-length transform, the slowest case
_PRIMES = (65521, 262139, 1048573)
# samples x runs one drawn sweep may make, which keeps the test near 20 s
_SWEEP_SAMPLES = 2**21


@st.composite
def _large_commands(draw):
    """A clock of up to 2**20 samples, grid flags, a seed count and the grid's fault.

    The fault is None for a grid the commands run, or the bound the grid
    breaks: too many rates, too many seeds, or a last rate past Nyquist.
    """
    n = draw(st.one_of(st.integers(4096, 2**20), st.sampled_from(_PRIMES)))
    start, step = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    points = draw(st.integers(1, 2))
    seeds = draw(st.integers(1, max(1, min(2, _SWEEP_SAMPLES // (points * n)))))
    stop = start + (points - 1) * step
    fault = draw(st.sampled_from([None, "rates", "seeds", "nyquist"]))
    if fault == "rates":
        stop, step = start + 1.0, 1.0 / (2 * MAX_RUNS)
    elif fault == "seeds":
        seeds = MAX_RUNS // points + 1
    elif fault == "nyquist":
        stop = n / 2 + draw(st.floats(1.0, 1e3))
        step = stop - start
    return {
        "config": {"clock": {"rate_hz": float(n), "n_samples": n},
                   "channel": {"snr_db": draw(st.sampled_from([None, 20.0]))}},
        "grid": ["--fp-start", repr(start), "--fp-stop", repr(stop), "--fp-step", repr(step)],
        "seeds": seeds,
        "fault": fault,
    }


_FAULT_ERRORS = {"rates": "a command may make at most", "seeds": "a command may make at most",
                 "nyquist": "must be below half the sample rate"}


@settings(max_examples=6, deadline=None)
@given(drawn=_large_commands())
def test_main_runs_or_rejects_drawn_grids_on_clocks_up_to_2_20_samples(drawn):
    """``simulate``, ``sweep`` and ``blindspots`` on large clocks, composite and prime.

    A grid within ``MAX_RUNS`` and below Nyquist runs (exit 0); a grid that
    breaks a bound ends in exit 1 with that bound's one-line error, before
    any run. A warning or an uncaught exception fails the test.
    """
    fault = drawn["fault"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "large.json"
        path.write_text(json.dumps(drawn["config"]))
        sweep = ["sweep", *drawn["grid"], "--seeds", str(drawn["seeds"]),
                 "--out", str(Path(tmp) / "out.csv")]
        for command, broken in ((["simulate"], False), (sweep, fault is not None),
                                (["blindspots", *drawn["grid"]], fault in ("rates", "nyquist"))):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([*command, "--config", str(path)])
            message = err.getvalue()
            if broken:
                assert code == 1 and message.count("\n") == 1
                assert message.startswith("propeq: config error: ") and _FAULT_ERRORS[fault] in message
            else:
                assert (code, message) == (0, "")


@pytest.mark.parametrize("n_samples", [MAX_SAMPLES + 1, 2**40])
def test_a_clock_over_the_sample_limit_is_one_config_error(tmp_path, capsys, n_samples):
    # the clock is checked before anything of its length is allocated
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"clock": {"n_samples": n_samples}}))
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", str(path)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * MAX_SAMPLES // 8
    assert capsys.readouterr().err == (
        f"propeq: config error: clock: n_samples must be at most {MAX_SAMPLES}, got {n_samples}\n"
    )


@pytest.mark.filterwarnings("error")
def test_a_transmit_that_overflows_only_in_its_product_with_the_chop_is_one_config_error(
    tmp_path, capsys
):
    # every command forms the modulator's spectrum and its power in one place,
    # which rejects an overflowing tx*m before any bin is formed.
    # loud_90: a 1 Hz sine chop has no content where the 90 Hz lines gather
    # their band bins, so those would be finite, yet tx*m overflows.
    # loud_chop: tx*m overflows, and so would the bins
    configs = {
        "loud_90": {
            "ils": {"a_90": 1.7e308},
            "channel": {"propellers": [{"shape": {"kind": "sine", "beta": 0.5}, "f_p": 1.0}],
                        "snr_db": None},
            "signal_half_width_hz": 50.0,
            "tone_half_width_hz": 50.0,
        },
        "loud_chop": {
            "ils": {"a_c": 1e300},
            "channel": {"propellers": [{"shape": {"kind": "custom", "gains": [1e10, 2e10]},
                                        "f_p": 20.0}],
                        "snr_db": None},
        },
    }
    dumps = [["spectrum", "--stage", stage, "--out", str(tmp_path / f"never_{stage}.csv")]
             for stage in ("rx", "equalized")]
    for name, config in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        for command in (["simulate"], _TWO_BY_TWO + ["--out", str(tmp_path / "never.csv")],
                        *dumps):
            assert main([*command, "--config", str(path)]) == 1, (name, command)
            assert capsys.readouterr().err == "propeq: config error: samples must be finite\n"
