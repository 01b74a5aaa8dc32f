import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propeq import (
    ChannelConfig,
    CustomCycle,
    IlsParams,
    PropellerModel,
    SampleBuffer,
    SampleClock,
    ScenarioConfig,
    ToneParams,
    bin_index,
    forward_fft,
)
from propeq.metrics import DDM_FREQS, amplitudes_from_bins
from propeq.pipeline import rx_spectrum
from propeq.signals import MAX_SAMPLES
from propeq.spectral import dft_bins, dft_twiddles

from oracles import synth_ils, synth_tone, times


def estimate_amplitudes(buf):
    """The amplitudes the engine reads from a capture's DDM bins."""
    bins = dft_bins(dft_twiddles(buf.clock, DDM_FREQS), buf.samples)
    return amplitudes_from_bins(bins, buf.clock.n_samples)


def test_default_clock_has_1hz_bins(clock):
    assert clock.bin_hz == 1.0
    assert clock.duration_s == 1.0


@pytest.mark.parametrize("kwargs", [{"rate_hz": 0.0}, {"rate_hz": -1.0}, {"n_samples": 0}])
def test_invalid_clock_rejected(kwargs):
    with pytest.raises(ValueError):
        SampleClock(**kwargs)


def test_clock_takes_at_most_max_samples():
    # a clock only describes its capture; nothing of its length is allocated
    assert SampleClock(rate_hz=float(MAX_SAMPLES), n_samples=MAX_SAMPLES).bin_hz == 1.0
    with pytest.raises(ValueError, match=f"n_samples must be at most {MAX_SAMPLES}"):
        SampleClock(n_samples=MAX_SAMPLES + 1)


def test_buffer_length_and_finiteness(small_clock):
    with pytest.raises(ValueError):
        SampleBuffer(small_clock, np.zeros(small_clock.n_samples - 1, dtype=complex))
    bad = np.zeros(small_clock.n_samples, dtype=complex)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        SampleBuffer(small_clock, bad)


def test_buffer_is_immutable(small_clock):
    buf = SampleBuffer.zeros(small_clock)
    with pytest.raises(ValueError):
        buf.samples[0] = 1.0


def test_carrier_only_is_constant(clock):
    buf = synth_ils(IlsParams(1.0, 0.0, 0.0, 0.0, 0.0), clock)
    assert np.all(buf.samples == 1.0 + 0.0j)


def test_default_ils_amplitudes_recovered(clock):
    buf = synth_ils(IlsParams(), clock)
    amps = estimate_amplitudes(buf)
    assert amps.a_c == pytest.approx(1.0, abs=1e-9)
    assert amps.a_90 == pytest.approx(0.6, abs=1e-9)
    assert amps.a_150 == pytest.approx(0.8, abs=1e-9)


def test_ils_sample_at_t0_sums_amplitudes(clock):
    buf = synth_ils(IlsParams(), clock)
    assert buf.samples[0] == pytest.approx(2.4, abs=1e-12)


def test_ils_spectrum_support(clock):
    spec = forward_fft(synth_ils(IlsParams(), clock))
    expected = {bin_index(clock, f) for f in (0.0, 90.0, -90.0, 150.0, -150.0)}
    mags = np.abs(spec.bins)
    on = mags[sorted(expected)]
    off = np.delete(mags, sorted(expected))
    assert on.min() > 1e3
    assert off.max() < 1e-6 * on.min()


def test_tone_at_t0_and_modulus(clock):
    buf = synth_tone(ToneParams(), clock)
    assert buf.samples[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert np.allclose(np.abs(buf.samples), 1.0, atol=1e-12)


def test_tone_single_sided_single_bin(clock):
    spec = forward_fft(synth_tone(ToneParams(offset_hz=1500.0), clock))
    mags = np.abs(spec.bins)
    peak = bin_index(clock, 1500.0)
    assert mags[peak] == pytest.approx(clock.n_samples, rel=1e-12)
    rest = np.delete(mags, peak)
    assert rest.max() < 1e-6


def test_tone_energy(clock):
    amp = 0.7
    buf = synth_tone(ToneParams(amp=amp), clock)
    assert np.sum(np.abs(buf.samples) ** 2) == pytest.approx(
        amp**2 * clock.n_samples, rel=1e-12
    )


def test_combine_support_union(small_clock):
    # the engine transmits the ILS and the tone together; through a unity
    # channel its spectrum holds both supports
    channel = ChannelConfig((PropellerModel(CustomCycle((1.0,))),), snr_db=None)
    cfg = ScenarioConfig(clock=small_clock, channel=channel)
    ils = synth_ils(IlsParams(), small_clock)
    tone = synth_tone(ToneParams(), small_clock)
    both = rx_spectrum(cfg).bins
    assert np.allclose(both, forward_fft(ils).bins + forward_fft(tone).bins, atol=1e-9)


@pytest.mark.parametrize(
    "kwargs",
    [{"a_c": 0.0}, {"a_c": -1.0}, {"a_90": -0.1}, {"a_150": -0.1}],
)
def test_invalid_ils_params(kwargs):
    with pytest.raises(ValueError):
        IlsParams(**kwargs)


@pytest.mark.parametrize("kwargs", [{"amp": 0.0}, {"offset_hz": 200.0}])
def test_invalid_tone_params(kwargs):
    with pytest.raises(ValueError):
        ToneParams(**kwargs)


amps = st.floats(min_value=1e-3, max_value=2.0, allow_nan=False)


@given(a_c=amps, a_90=amps, a_150=amps)
def test_amplitude_round_trip(small_clock, a_c, a_90, a_150):
    buf = synth_ils(IlsParams(a_c=a_c, a_90=a_90, a_150=a_150), small_clock)
    est = estimate_amplitudes(buf)
    assert est.a_c == pytest.approx(a_c, abs=1e-9)
    assert est.a_90 == pytest.approx(a_90, abs=1e-9)
    assert est.a_150 == pytest.approx(a_150, abs=1e-9)


@settings(max_examples=10)
@given(k=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False))
def test_ils_linearity(small_clock, k):
    base = synth_ils(IlsParams(1.0, 0.6, 0.8), small_clock)
    scaled = synth_ils(IlsParams(k * 1.0, k * 0.6, k * 0.8), small_clock)
    assert np.allclose(scaled.samples, k * base.samples, rtol=1e-12, atol=1e-12)


def test_tone_orthogonal_to_ils_components(clock):
    tone = synth_tone(ToneParams(offset_hz=1500.0), clock).samples
    t = times(clock)
    components = [
        np.ones(clock.n_samples),
        np.cos(2 * np.pi * 90.0 * t),
        np.cos(2 * np.pi * 150.0 * t),
    ]
    for comp in components:
        ip = np.vdot(comp, tone) / clock.n_samples
        assert abs(ip) < 1e-9
