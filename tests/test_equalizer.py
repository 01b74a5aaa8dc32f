from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propeq import (
    BandSpec,
    ChannelConfig,
    CustomCycle,
    IlsParams,
    PropellerModel,
    RegPolicy,
    ScenarioConfig,
    SineRipple,
    SquareWave,
    ToneAbsentError,
    ToneParams,
    predict_blind_spots,
    run_single,
    sweep_fp,
)
from propeq.equalizer import divisor, regularized_divide
from propeq.pipeline import Pipeline

import oracles
from oracles import rms, square_partial_sum, synth_ils, synth_tone, times

SIG_BAND = BandSpec(0.0, 300.0)


def divide(s, g, eps_rel):
    """s divided by g as a run divides them: ``divisor``, then the quotient over a copy of g."""
    q = g.copy()
    with np.errstate(all="ignore"):
        return regularized_divide(s, q, divisor(q, eps_rel, np.empty(q.size), np.empty(2 * q.size)))


def one_prop(shape, f_p=30.0, phase=0.0, snr_db=None, rng_seed=0):
    return ChannelConfig(
        propellers=(PropellerModel(shape=shape, f_p=f_p, phase=phase, coeff=1.0),),
        snr_db=snr_db,
        rng_seed=rng_seed,
    )


def scenario(clock, channel, tone=ToneParams(), reg=RegPolicy()):
    return ScenarioConfig(clock=clock, tone=tone, channel=channel, reg=reg)


def g_hat(cfg, tx=None):
    """The reference chain's modulator estimate of the scenario's capture."""
    return oracles.g_hat(cfg, oracles.received(cfg, tx))


def eq_ddm(clock, channel, tone=ToneParams(), reg=RegPolicy()):
    return run_single(scenario(clock, channel, tone, reg)).ddm_eq


# ---------------------------------------------------------------------------
# modulator estimate


def test_unity_gain_extracts_unity(clock):
    g = g_hat(scenario(clock, one_prop(CustomCycle(gains=(1.0,)))))
    assert np.allclose(g, 1.0, atol=1e-10)


def test_sine_ripple_matches_analytic_modulator(clock):
    g = g_hat(scenario(clock, one_prop(SineRipple(0.5), f_p=25.0)))
    truth = 1.0 + 0.5 * np.cos(2 * np.pi * 25.0 * times(clock))
    assert rms(g - truth) <= 1e-8


def test_square_matches_band_limited_series_on_tone_only_capture(clock):
    # the ILS band's own high-order modulation products land inside the tone
    # band at the 1e-2 level, so the band-limitation contract is checked on a
    # capture carrying the tone alone
    cfg = scenario(clock, one_prop(SquareWave(duty=0.25, lo=0.5, hi=1.0), f_p=20.0))
    g = g_hat(cfg, tx=synth_tone(cfg.tone, clock).samples)
    per = int(clock.rate_hz / 20.0)
    truth = square_partial_sum(times(clock), 20.0, 0.25, 0.5, 1.0, per, k_max=15)
    assert rms(g - truth) <= 1e-6


@pytest.mark.filterwarnings("error")
def test_tone_absent_raises(clock):
    # a tone 1e-30 of the ILS leaves only FFT roundoff in the tone band
    tone = ToneParams(amp=1e-30)
    cfg = scenario(clock, one_prop(CustomCycle(gains=(1.0,))), tone=tone)
    with pytest.raises(ToneAbsentError):
        run_single(cfg)
    # the same on a 2 x 2 grid, whose runs sum shared band series
    with pytest.raises(ToneAbsentError):
        sweep_fp(cfg, 20.0, 21.0, 1.0, seeds=[0, 1])


def test_extraction_scales_with_tone_amp(clock):
    cfg = scenario(clock, one_prop(SineRipple(0.5), f_p=25.0), tone=ToneParams(amp=2.5))
    truth = 1.0 + 0.5 * np.cos(2 * np.pi * 25.0 * times(clock))
    assert rms(g_hat(cfg) - truth) <= 1e-8


# ---------------------------------------------------------------------------
# equalization


def test_unity_gain_equalize_is_windowed_signal(clock):
    cfg = scenario(clock, one_prop(CustomCycle(gains=(1.0,))))
    pipe = Pipeline(cfg)
    out = pipe.equalized(pipe.modulate(), pipe.noise(cfg.channel.rng_seed)).samples
    expected = np.fft.ifft(oracles.in_band(oracles.received(cfg), clock, SIG_BAND))
    ref = np.sqrt(np.mean(np.abs(expected) ** 2))
    assert rms(out - expected) / ref <= 1e-10


def test_sine_ripple_equalized_ddm(clock):
    ddm = eq_ddm(clock, one_prop(SineRipple(0.5), f_p=25.0))
    assert abs(ddm - (-0.2)) <= 1e-6


def test_regularization_neutral_when_unneeded(clock):
    cfg = scenario(clock, one_prop(SineRipple(0.5), f_p=25.0))
    bins = oracles.received(cfg)
    g = oracles.g_hat(cfg, bins)
    s_band = np.fft.ifft(oracles.in_band(bins, clock, SIG_BAND))
    out = divide(s_band, g, 1e-3)
    plain = s_band / g
    assert np.max(np.abs(out - plain)) <= 1e-15 * np.max(np.abs(plain))


def test_regularization_bounds_small_denominators(small_clock):
    g = np.full(small_clock.n_samples, 1.0 + 0j)
    g[:10] = 1e-9
    ils = np.fft.fft(synth_ils(IlsParams(), small_clock).samples)
    s_band = np.fft.ifft(oracles.in_band(ils, small_clock, SIG_BAND))
    out = divide(s_band, g, 1e-3)
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out)) < 1e7


def test_division_writes_only_its_buffers():
    # a run's series are sums of a block's shared clean and unit series, so
    # the division may write only its own buffers and, with the quotient, g
    rng = np.random.default_rng(0)
    s, g = (rng.standard_normal(256) + 1j * rng.standard_normal(256) for _ in range(2))
    g[:10] = 1e-9  # the floor binds here
    s_before, g_before = s.copy(), g.copy()
    r = divisor(g, 1e-3, np.empty(256), np.empty(512))
    np.testing.assert_array_equal(g, g_before)
    r_before = r.copy()
    assert regularized_divide(s, g, r) is g
    np.testing.assert_array_equal(s, s_before)
    np.testing.assert_array_equal(r, r_before)
    floor_sq = (1e-3 * np.abs(g_before).max()) ** 2
    want = s_before * np.conj(g_before) / np.maximum(np.abs(g_before) ** 2, floor_sq)
    assert np.max(np.abs(g - want)) <= 1e-15 * np.max(np.abs(want))


@settings(max_examples=15)
@given(k=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_gain_invariance(small_clock, k):
    # a channel gain k scales the whole received spectrum
    pipe = Pipeline(scenario(small_clock, one_prop(SineRipple(0.4), f_p=25.0)))
    base = pipe.modulate()
    scaled = replace(
        base,
        signal=k * base.signal,
        tone=k * base.tone,
        norm=k * base.norm,
    )

    def ddm_of(mod):
        return pipe.runs(mod, [pipe.noise(0)])[0][1]

    assert ddm_of(scaled) == pytest.approx(ddm_of(base), abs=1e-9)


@settings(max_examples=15)
@given(phase=st.floats(min_value=0.0, max_value=2 * np.pi, allow_nan=False))
def test_tone_phase_invariance(small_clock, phase):
    def run(ph):
        cfg = scenario(small_clock, one_prop(SineRipple(0.4), f_p=25.0), tone=ToneParams(phase=ph))
        return np.abs(g_hat(cfg)), run_single(cfg).ddm_eq

    mag0, ddm0 = run(0.0)
    mag1, ddm1 = run(phase)
    assert np.allclose(mag1, mag0, atol=1e-9)
    assert ddm1 == pytest.approx(ddm0, abs=1e-9)


@settings(max_examples=20)
@given(
    beta=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
    f_p=st.integers(min_value=1, max_value=40),
)
def test_in_band_exactness(small_clock, beta, f_p):
    # strictly positive modulator confined to the band: equalization is exact
    ddm = eq_ddm(small_clock, one_prop(SineRipple(beta), f_p=float(f_p)))
    assert abs(ddm - (-0.2)) <= 1e-6


# ---------------------------------------------------------------------------
# predict_blind_spots


def test_unity_gain_has_no_blind_spots(clock):
    assert predict_blind_spots(one_prop(CustomCycle(gains=(1.0,))), clock) == ()


def test_default_square_flags_4th_harmonic_rates(clock):
    sq = SquareWave()
    assert predict_blind_spots(one_prop(sq, f_p=22.5), clock) == (90.0,)
    assert predict_blind_spots(one_prop(sq, f_p=37.5), clock) == (150.0,)


def test_sine_ripple_never_flags(clock):
    assert predict_blind_spots(one_prop(SineRipple(0.5), f_p=25.0), clock) == ()


@pytest.mark.parametrize("f_p", [16000.0, 32022.5])
def test_blind_spots_refuse_a_rate_at_or_above_nyquist(clock, f_p):
    # 32022.5 Hz would alias to 22.5 Hz on the 32 kHz clock and flag its 90 Hz
    with pytest.raises(ValueError, match="must be below half the sample rate"):
        predict_blind_spots(one_prop(SquareWave(), f_p=f_p), clock)


def test_blind_spot_threshold_is_relative(clock):
    cfg = one_prop(SquareWave(), f_p=22.5)
    assert predict_blind_spots(cfg, clock, rel_threshold=0.5) == ()
    assert 90.0 in predict_blind_spots(cfg, clock, rel_threshold=0.001)


def test_reg_policy_validation():
    with pytest.raises(ValueError):
        RegPolicy(eps_rel=0.0)
    with pytest.raises(ValueError):
        RegPolicy(eps_rel=1.0)
