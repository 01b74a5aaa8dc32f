"""Acceptance suite: seven criteria, one pass/fail line printed per criterion.

Criterion 4 is expected to fail at two of its five rates (17 and 26 Hz): no
integer multiple of 17 or 26 lands on any DDM-coupled spectral offset
{60, 90, 150, 180, 240, 300} Hz, and on the default 1 Hz-bin capture a
periodic gain has spectral support only on multiples of its rate, so those
two grid points sit at the additive-noise floor where equalization has
nothing to remove. See README, "Known limitations".
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from propeq import (
    ChannelConfig,
    CustomCycle,
    PropellerModel,
    SampleBuffer,
    ScenarioConfig,
    SineRipple,
    SquareWave,
    ToneParams,
    default_scenario,
    emit_csv,
    folded_frequencies,
    forward_fft,
    run_single,
    scenario_with,
    sweep_fp,
)
from propeq.pipeline import Pipeline, rx_spectrum, stage_spectrum

import oracles
from oracles import rms, square_partial_sum, synth_tone, times

CLOCK = default_scenario().clock

INTERFERENCE_RATES = (17.0, 20.0, 26.0, 30.0, 36.0)
BLIND_SPOT_RATES = (22.5, 37.5)


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def speed_sweep():
    """The full-rate sweep shared by criteria 4 and 5: 51 points x 10 seeds."""
    return sweep_fp(default_scenario(), 15.0, 40.0, 0.5, seeds=list(range(10)))


def test_criterion_1_clean_channel_exactness():
    cfg = ScenarioConfig(
        channel=ChannelConfig(
            propellers=(PropellerModel(shape=CustomCycle(gains=(1.0,)), f_p=30.0),),
            snr_db=None,
        )
    )
    t0 = time.perf_counter()
    res = run_single(cfg)
    elapsed = time.perf_counter() - t0
    ok = res.dev_raw <= 1e-6 and res.dev_eq <= 1e-6 and elapsed < 1.0
    announce(
        1,
        ok,
        f"unity channel gives ddm_raw={res.ddm_raw:+.8f}, ddm_eq={res.ddm_eq:+.8f} "
        f"(target -0.2 within 1e-6) in {elapsed * 1e3:.0f} ms",
    )
    assert res.dev_raw <= 1e-6
    assert res.dev_eq <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_in_band_oracle_equivalence():
    # the reference chain's estimate against the closed form, and the
    # engine's equalized DDM against the truth
    channel = ChannelConfig(
        propellers=(PropellerModel(shape=SineRipple(0.5), f_p=25.0),), snr_db=None
    )
    cfg = ScenarioConfig(channel=channel)
    truth = 1.0 + 0.5 * np.cos(2 * np.pi * 25.0 * times(CLOCK))
    g_err = rms(oracles.g_hat(cfg, oracles.received(cfg)) - truth)
    ddm_err = abs(run_single(cfg).ddm_eq - (-0.2))
    ok = g_err <= 1e-8 and ddm_err <= 1e-6
    announce(
        2,
        ok,
        f"sine-ripple modulator recovered with rms error {g_err:.2e} (<=1e-8), "
        f"equalized DDM error {ddm_err:.2e} (<=1e-6)",
    )
    assert g_err <= 1e-8
    assert ddm_err <= 1e-6


def test_criterion_3_band_limited_oracle():
    # tone-only capture isolates the band-limitation contract: with the ILS
    # present, its own high-order modulation products land in the tone band
    # at the 1e-2 level (the equalization noise floor) and would swamp the
    # 1e-6 comparison
    channel = ChannelConfig(
        propellers=(PropellerModel(shape=SquareWave(0.25, 0.5, 1.0), f_p=20.0),),
        snr_db=None,
    )
    cfg = ScenarioConfig(channel=channel)
    rx = oracles.received(cfg, tx=synth_tone(cfg.tone, CLOCK).samples)
    per = int(CLOCK.rate_hz / 20.0)
    truth = square_partial_sum(times(CLOCK), 20.0, 0.25, 0.5, 1.0, per, k_max=15)
    g_err = rms(oracles.g_hat(cfg, rx) - truth)
    ok = g_err <= 1e-6
    announce(
        3,
        ok,
        f"square-wave modulator matches its closed-form partial sum "
        f"(harmonics within +/-300 Hz) with rms error {g_err:.2e} (<=1e-6)",
    )
    assert g_err <= 1e-6


def test_criterion_4_sweep_structural_reproduction(speed_sweep):
    t0 = time.perf_counter()
    by_fp = {s.f_p_hz: s for s in speed_sweep.summaries}
    baseline = by_fp[15.0].median_dev_raw
    failures = []
    for fp in INTERFERENCE_RATES:
        s = by_fp[fp]
        eq_wins = s.median_dev_eq < s.median_dev_raw
        prominent = s.median_dev_raw >= 3.0 * baseline
        print(
            f"  f_p={fp:5.1f} Hz: med_dev_raw={s.median_dev_raw:.3e} "
            f"med_dev_eq={s.median_dev_eq:.3e} "
            f"eq<raw={'PASS' if eq_wins else 'FAIL'} "
            f">=3x baseline({baseline:.3e})={'PASS' if prominent else 'FAIL'}"
        )
        if not eq_wins:
            failures.append(f"{fp} Hz: equalized not better than raw")
        if not prominent:
            failures.append(f"{fp} Hz: raw deviation not 3x the 15 Hz baseline")
    elapsed = time.perf_counter() - t0
    ok = not failures
    announce(
        4,
        ok,
        "sweep structure at rates {17,20,26,30,36} Hz"
        + ("" if ok else f" -- {len(failures)} sub-checks failed: {failures}"),
    )
    assert not failures, (
        "structural sub-checks failed: "
        + "; ".join(failures)
        + ". Rates 17 and 26 Hz cannot satisfy these bounds on this grid: none "
        "of their harmonics aligns with a DDM-coupled offset "
        "{60,90,150,180,240,300} Hz, so their raw deviation sits at the noise "
        "floor and equalization only adds noise there (README, Known limitations)."
    )


def test_criterion_5_blind_spot_reproduction(speed_sweep):
    flagged = set(speed_sweep.blind_spots)
    required = set(BLIND_SPOT_RATES)
    extras = flagged - required
    annotated = all(by.flagged_freqs for by in speed_sweep.summaries if by.f_p_hz in flagged)
    ok = required <= flagged and len(extras) <= 4 and annotated
    announce(
        5,
        ok,
        f"blind spots flagged at {sorted(flagged)} "
        f"(requires 22.5 and 37.5, plus at most 4 others, each annotated)",
    )
    assert required <= flagged
    assert len(extras) <= 4
    assert annotated


def test_criterion_6_equalization_noise_floor_bounded():
    cfg = scenario_with(default_scenario(), f_p=30.0, snr_db=None)
    eq_spec = stage_spectrum(cfg, "equalized")
    f = folded_frequencies(CLOCK)
    in_band = (f >= -300.0) & (f <= 300.0)
    keep = np.isin(f, (0.0, 90.0, -90.0, 150.0, -150.0))
    residual = np.abs(eq_spec.bins[in_band & ~keep]).max()
    carrier = abs(eq_spec.bins[0])
    margin_db = 20.0 * np.log10(carrier / residual)
    ok = margin_db >= 20.0
    announce(
        6,
        ok,
        f"noiseless equalized capture at f_p=30 Hz: worst in-band residual is "
        f"{margin_db:.1f} dB below the carrier (needs >=20 dB)",
    )
    assert margin_db >= 20.0


def test_criterion_7_property_suites(tmp_path):
    checks = []

    rng = np.random.default_rng(0)
    buf = SampleBuffer(
        CLOCK, rng.standard_normal(CLOCK.n_samples) + 1j * rng.standard_normal(CLOCK.n_samples)
    )
    back = np.fft.ifft(forward_fft(buf).bins)
    rt = rms(back - buf.samples) / rms(buf.samples)
    checks.append(("fft round trip <=1e-12", rt <= 1e-12, f"{rt:.2e}"))

    spec = forward_fft(buf)
    te = np.sum(np.abs(buf.samples) ** 2)
    fe = np.sum(np.abs(spec.bins) ** 2) / CLOCK.n_samples
    pv = abs(te - fe) / te
    checks.append(("parseval <=1e-10", pv <= 1e-10, f"{pv:.2e}"))

    # powers from the engine's spectra; Parseval's 1/N^2 cancels in the ratio
    cfg = default_scenario()
    clean = rx_spectrum(scenario_with(cfg, snr_db=None)).bins
    noisy = rx_spectrum(cfg).bins
    p_sig = np.mean(np.abs(clean) ** 2)
    p_noise = np.mean(np.abs(noisy - clean) ** 2)
    awgn_err = abs(10 * np.log10(p_noise / (p_sig / 100.0)))
    checks.append(("awgn calibration +/-0.3 dB", awgn_err < 0.3, f"{awgn_err:.3f} dB"))

    sine_channel = ChannelConfig(
        propellers=(PropellerModel(shape=SineRipple(0.4), f_p=25.0),), snr_db=None
    )
    sine = replace(cfg, channel=sine_channel)
    pipe = Pipeline(sine)
    base = pipe.modulate()
    # a channel gain of 3.7 scales the whole received spectrum
    k = 3.7
    scaled = replace(base, signal=k * base.signal, tone=k * base.tone, norm=k * base.norm)
    ddm = pipe.runs(base, [pipe.noise(0)])[0][1]

    gain_err = abs(pipe.runs(scaled, [pipe.noise(0)])[0][1] - ddm)
    checks.append(("ddm gain invariance <=1e-9", gain_err <= 1e-9, f"{gain_err:.2e}"))
    phase_err = abs(run_single(replace(sine, tone=ToneParams(phase=0.9))).ddm_eq - ddm)
    checks.append(("ddm tone-phase invariance <=1e-9", phase_err <= 1e-9, f"{phase_err:.2e}"))

    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    emit_csv(sweep_fp(cfg, 20.0, 22.0, 0.5, seeds=[0, 1], workers=1), a)
    emit_csv(sweep_fp(cfg, 20.0, 22.0, 0.5, seeds=[0, 1], workers=4), b)
    same = a.read_bytes() == b.read_bytes()
    checks.append(("serial/parallel csv identical", same, str(same)))

    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name}={val}" for name, passed, val in checks)
    announce(7, ok, detail)
    for name, passed, val in checks:
        assert passed, f"{name} failed with {val}"
