"""The staged engine against the composed public stage functions."""

import json
import sys

import numpy as np
import pytest

from propeq import (
    BandSpec,
    CarrierLostError,
    ChannelConfig,
    CustomCycle,
    PropellerModel,
    SampleClock,
    ScenarioConfig,
    SineRipple,
    SquareWave,
    ToneAbsentError,
    ToneParams,
    apply_channel,
    bandpass_window,
    combine,
    compute_ddm,
    default_scenario,
    equalize,
    estimate_amplitudes,
    extract_doppler,
    forward_fft,
    inverse_fft,
    modulator_spectrum,
    predict_blind_spots,
    run_single,
    scenario_from_dict,
    scenario_with,
    sweep_fp,
    synth_ils,
    synth_tone,
)
from propeq.cli import main
from propeq.harness import DEFAULT_PROPELLER_PHASE, DEFAULT_SQUARE, simulate
from propeq.pipeline import STAGES, Pipeline, stage_spectra

DDM_TOL = 1e-12

MULTIPROP = {
    "channel": {
        "propellers": [
            {"shape": {"kind": "square", "duty": 0.3, "lo": 0.5, "hi": 1.0},
             "f_p": 30.0, "phase": 1.366, "coeff": 0.5},
            {"shape": {"kind": "sine", "beta": 0.4}, "f_p": 30.0, "phase": 0.7, "coeff": 0.3},
            {"shape": {"kind": "custom", "gains": [1.0, 0.85, 0.6, 0.75, 0.95, 0.7]},
             "f_p": 30.0, "phase": 2.2, "coeff": 0.2},
        ],
        "snr_db": 20.0,
        "rng_seed": 0,
    }
}


def single(shape, f_p=30.0, snr_db=20.0, seed=3, **cfg):
    prop = PropellerModel(shape=shape, f_p=f_p, phase=DEFAULT_PROPELLER_PHASE)
    return ScenarioConfig(channel=ChannelConfig((prop,), snr_db=snr_db, rng_seed=seed), **cfg)


DEEP_CHOP = single(SquareWave(duty=0.3, lo=0.05, hi=1.0), f_p=24.0)

SCENARIOS = {
    "default": default_scenario(),
    "multiprop": scenario_from_dict(MULTIPROP),
    "sine": single(SineRipple(0.5), f_p=25.0),
    "noiseless": single(DEFAULT_SQUARE, f_p=22.5, snr_db=None),
    "clock6400": single(DEFAULT_SQUARE, clock=SampleClock(rate_hz=6400.0, n_samples=6400)),
    "deep_chop": DEEP_CHOP,
    # a tone with phase and gain, and a signal band narrower than the tone
    # band, so the bands get separate IFFT plans and 150 Hz lies outside it
    "narrow_signal": single(
        SineRipple(0.5),
        f_p=26.0,
        tone=ToneParams(amp=0.5, phase=0.7),
        signal_band=BandSpec(0.0, 120.0),
    ),
}


def composed(cfg):
    """(ddm_raw, ddm_eq) from the public stage functions, one full chain."""
    tx = combine(synth_ils(cfg.ils, cfg.clock), synth_tone(cfg.tone, cfg.clock))
    rx_spec = forward_fft(apply_channel(tx, cfg.channel))
    raw = compute_ddm(estimate_amplitudes(inverse_fft(bandpass_window(rx_spec, cfg.signal_band))))
    dop = extract_doppler(rx_spec, cfg.tone, cfg.tone_band)
    eq = compute_ddm(estimate_amplitudes(equalize(rx_spec, dop, cfg.signal_band, cfg.reg)))
    return raw, eq


@pytest.mark.parametrize("name", SCENARIOS)
def test_run_matches_composed_stages(name):
    cfg = SCENARIOS[name]
    want = composed(cfg)
    got = run_single(cfg)
    assert abs(got.ddm_raw - want[0]) <= DDM_TOL
    assert abs(got.ddm_eq - want[1]) <= DDM_TOL


def test_deep_chop_engages_the_regularization_floor():
    cfg = DEEP_CHOP
    tx = combine(synth_ils(cfg.ils, cfg.clock), synth_tone(cfg.tone, cfg.clock))
    rx_spec = forward_fft(apply_channel(tx, cfg.channel))
    g = np.abs(extract_doppler(rx_spec, cfg.tone, cfg.tone_band).g_hat.samples)
    assert np.mean(g < cfg.reg.eps_rel * g.max()) > 0


@pytest.mark.parametrize("name", ["multiprop", "sine", "noiseless", "deep_chop"])
def test_sweep_shares_work_without_changing_runs(name):
    # the modulator and noise products are reused across seeds and rates
    cfg = SCENARIOS[name]
    sweep = sweep_fp(cfg, 22.5, 23.5, 1.0, seeds=[0, 4])
    for r in sweep.results:
        want = composed(scenario_with(cfg, f_p=r.f_p_hz, seed=r.seed))
        assert abs(r.ddm_raw - want[0]) <= DDM_TOL
        assert abs(r.ddm_eq - want[1]) <= DDM_TOL


@pytest.mark.parametrize("threshold", [0.01, 0.05])
def test_flags_match_predict_blind_spots(threshold):
    cfg = default_scenario()
    sweep = sweep_fp(cfg, 15.0, 40.0, 0.5, seeds=[0], blind_spot_threshold=threshold)
    for s in sweep.summaries:
        channel = scenario_with(cfg, f_p=s.f_p_hz).channel
        assert s.flagged_freqs == predict_blind_spots(channel, cfg.clock, rel_threshold=threshold)
        # and the direct-DFT bins agree with a full FFT of the modulator
        bins = modulator_spectrum(channel, cfg.clock).bins
        full = tuple(f for f in (90.0, 150.0) if abs(bins[int(f)]) > threshold * abs(bins[0]))
        assert s.flagged_freqs == full


def test_blocking_channel_loses_the_carrier_before_the_tone():
    cfg = single(CustomCycle((0.0,)), f_p=20.0, snr_db=None)
    with pytest.raises(CarrierLostError):
        composed(cfg)
    with pytest.raises(CarrierLostError):
        run_single(cfg)


@pytest.mark.parametrize("snr_db", [400.0, None])
def test_vanishing_tone_is_absent(snr_db):
    # a sine ripple keeps the ILS out of the tone band, so only roundoff and
    # the 400 dB noise floor are there; the bound on the received energy
    # cannot decide that, so the seed's noise is drawn again for the exact sum
    cfg = single(SineRipple(0.5), f_p=25.0, snr_db=snr_db, tone=ToneParams(amp=1e-20))
    with pytest.raises(ToneAbsentError):
        composed(cfg)
    with pytest.raises(ToneAbsentError):
        run_single(cfg)


def test_stage_spectra_match_composed_stages():
    cfg = SCENARIOS["multiprop"]
    tx = combine(synth_ils(cfg.ils, cfg.clock), synth_tone(cfg.tone, cfg.clock))
    rx_spec = forward_fft(apply_channel(tx, cfg.channel))
    dop = extract_doppler(rx_spec, cfg.tone, cfg.tone_band)
    want = {
        "modulator": modulator_spectrum(cfg.channel, cfg.clock),
        "rx": rx_spec,
        "equalized": forward_fft(equalize(rx_spec, dop, cfg.signal_band, cfg.reg)),
    }
    got = stage_spectra(cfg)
    assert tuple(got) == STAGES
    for stage in STAGES:
        np.testing.assert_allclose(got[stage].bins, want[stage].bins, rtol=0, atol=1e-8)


def test_equalized_capture_keeps_the_tone_phase():
    # the DDM reads magnitudes only, so compare the equalized capture itself;
    # the public carrier's phase roundoff alone is about 1e-12 of it
    cfg = SCENARIOS["narrow_signal"]
    tx = combine(synth_ils(cfg.ils, cfg.clock), synth_tone(cfg.tone, cfg.clock))
    rx_spec = forward_fft(apply_channel(tx, cfg.channel))
    dop = extract_doppler(rx_spec, cfg.tone, cfg.tone_band)
    want = equalize(rx_spec, dop, cfg.signal_band, cfg.reg).samples
    pipe = Pipeline(cfg)
    got = pipe.equalized(pipe.modulate(), pipe.noise(cfg.channel.rng_seed)).samples
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))


def test_serial_and_threaded_multiprop_csv_identical(tmp_path):
    path = tmp_path / "multiprop.json"
    path.write_text(json.dumps(MULTIPROP))
    base = ["sweep", "--config", str(path), "--fp-start", "20", "--fp-stop", "24",
            "--fp-step", "1", "--seeds", "3"]
    a, b, c = (tmp_path / f"{name}.csv" for name in ("serial", "two", "many"))
    assert main(base + ["--out", str(a), "--workers", "1"]) == 0
    assert main(base + ["--out", str(b), "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()
    # one thread per rate, more than cores, switching as often as possible
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert main(base + ["--out", str(c), "--workers", "8"]) == 0
    finally:
        sys.setswitchinterval(interval)
    assert a.read_bytes() == c.read_bytes()


def test_simulate_csv_is_a_one_point_sweep(tmp_path):
    one, swept = tmp_path / "one.csv", tmp_path / "swept.csv"
    assert main(["simulate", "--fp", "22.5", "--seed", "7", "--out", str(one)]) == 0
    assert main(["sweep", "--fp-start", "22.5", "--fp-stop", "22.5", "--seeds", "8",
                 "--out", str(swept)]) == 0
    header, *rows = swept.read_text().splitlines()
    assert one.read_text() == f"{header}\n{rows[7]}\n"


@pytest.fixture()
def inverse_lengths(monkeypatch):
    """The transform length of every numpy inverse FFT made while it is active."""
    lengths = []
    ifft = np.fft.ifft

    def recorded(a, n=None, axis=-1, *args, **kwargs):
        lengths.append(n if n is not None else np.shape(a)[axis])
        return ifft(a, n, axis, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", recorded)
    return lengths


def test_sweep_runs_make_two_short_inverse_transforms(inverse_lengths):
    cfg = default_scenario()
    sweep = sweep_fp(cfg, 22.5, 23.0, 0.5, seeds=[0, 1])
    assert len(sweep.results) == 4
    assert len(inverse_lengths) == 2 * 4
    # 601-bin bands on the 32000-point clock: batches of 640-point transforms
    assert set(inverse_lengths) == {640}


def test_simulate_makes_two_short_inverse_transforms(inverse_lengths):
    simulate(default_scenario())
    assert inverse_lengths == [640, 640]
