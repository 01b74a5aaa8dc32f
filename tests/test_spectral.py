import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from propeq import (
    BandSpec,
    IlsParams,
    SampleBuffer,
    SampleClock,
    Spectrum,
    ToneParams,
    bandpass_window,
    bin_index,
    folded_frequencies,
    forward_fft,
    inverse_fft,
    synth_ils,
    synth_tone,
)
from propeq.equalizer import demodulate, tone_carrier
from propeq.spectral import BandIfft, band_bins, band_offsets


def _random_buffer(clock, rng):
    x = rng.standard_normal(clock.n_samples) + 1j * rng.standard_normal(clock.n_samples)
    return SampleBuffer(clock, x)


def test_impulse_transforms_to_ones(small_clock):
    x = np.zeros(small_clock.n_samples, dtype=complex)
    x[0] = 1.0
    spec = forward_fft(SampleBuffer(small_clock, x))
    assert np.allclose(spec.bins, 1.0, atol=1e-12)


def test_round_trip_default_clock(clock, rng):
    buf = _random_buffer(clock, rng)
    back = inverse_fft(forward_fft(buf))
    err = np.sqrt(np.mean(np.abs(back.samples - buf.samples) ** 2))
    ref = np.sqrt(np.mean(np.abs(buf.samples) ** 2))
    assert err / ref < 1e-12


def test_parseval_default_clock(clock, rng):
    buf = _random_buffer(clock, rng)
    spec = forward_fft(buf)
    time_e = np.sum(np.abs(buf.samples) ** 2)
    freq_e = np.sum(np.abs(spec.bins) ** 2) / clock.n_samples
    assert abs(time_e - freq_e) / time_e < 1e-10


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_round_trip_property(small_clock, seed):
    buf = _random_buffer(small_clock, np.random.default_rng(seed))
    back = inverse_fft(forward_fft(buf))
    err = np.sqrt(np.mean(np.abs(back.samples - buf.samples) ** 2))
    ref = np.sqrt(np.mean(np.abs(buf.samples) ** 2))
    assert err / ref < 1e-12


def test_zero_spectrum_inverts_to_zero(small_clock):
    buf = inverse_fft(Spectrum(small_clock, np.zeros(small_clock.n_samples, dtype=complex)))
    assert np.all(buf.samples == 0.0)


def test_single_bin_inverts_to_exponential(clock):
    bins = np.zeros(clock.n_samples, dtype=complex)
    bins[bin_index(clock, 1500.0)] = clock.n_samples
    buf = inverse_fft(Spectrum(clock, bins))
    expected = np.exp(2j * np.pi * 1500.0 * clock.times())
    assert np.allclose(buf.samples, expected, atol=1e-9)


def test_inverse_linearity(small_clock, rng):
    a = forward_fft(_random_buffer(small_clock, rng))
    b = forward_fft(_random_buffer(small_clock, rng))
    summed = inverse_fft(Spectrum(small_clock, a.bins + b.bins))
    parts = inverse_fft(a).samples + inverse_fft(b).samples
    assert np.allclose(summed.samples, parts, rtol=1e-12, atol=1e-12)


def test_folded_frequency_convention(small_clock):
    f = folded_frequencies(small_clock)
    assert f[0] == 0.0
    assert f[small_clock.n_samples // 2] == small_clock.rate_hz / 2.0
    assert f.min() == -(small_clock.rate_hz / 2.0 - small_clock.bin_hz)


def test_window_passes_in_band_tone(clock):
    spec = forward_fft(synth_tone(ToneParams(offset_hz=1500.0), clock))
    out = bandpass_window(spec, BandSpec(1500.0, 300.0))
    idx = bin_index(clock, 1500.0)
    assert out.bins[idx] == spec.bins[idx]
    rest = np.delete(np.abs(out.bins), idx)
    assert rest.max() < 1e-6


def test_window_removes_out_of_band_tone(clock):
    spec = forward_fft(synth_tone(ToneParams(offset_hz=500.0), clock))
    out = bandpass_window(spec, BandSpec(1500.0, 300.0))
    # the 500 Hz spike bin is zeroed outright; what remains in the pass band
    # is FFT roundoff, ~1e-11 of the spike
    assert np.abs(out.bins).max() < 1e-6 * np.abs(spec.bins).max()


def test_window_is_single_sided(clock):
    # a real cosine has lines at +/-1500; the window must keep only +1500
    t = clock.times()
    buf = SampleBuffer(clock, np.cos(2 * np.pi * 1500.0 * t).astype(complex))
    out = bandpass_window(forward_fft(buf), BandSpec(1500.0, 300.0))
    up = bin_index(clock, 1500.0)
    dn = bin_index(clock, -1500.0)
    assert abs(out.bins[up]) > 1e3
    assert abs(out.bins[dn]) == 0.0


def test_window_idempotent(clock, rng):
    spec = forward_fft(_random_buffer(clock, rng))
    band = BandSpec(1500.0, 300.0)
    once = bandpass_window(spec, band)
    twice = bandpass_window(once, band)
    assert np.array_equal(once.bins, twice.bins)


def test_window_edges_inclusive(clock):
    spec = forward_fft(synth_tone(ToneParams(offset_hz=1800.0), clock))
    out = bandpass_window(spec, BandSpec(1500.0, 300.0))
    assert abs(out.bins[bin_index(clock, 1800.0)]) > 1e3


def test_window_complementarity(clock, rng):
    spec = forward_fft(_random_buffer(clock, rng))
    sig = bandpass_window(spec, BandSpec(0.0, 300.0))
    tone = bandpass_window(spec, BandSpec(1500.0, 300.0))
    f = folded_frequencies(clock)
    in_union = ((f >= -300.0) & (f <= 300.0)) | ((f >= 1200.0) & (f <= 1800.0))
    combined = sig.bins + tone.bins
    assert np.array_equal(combined[in_union], spec.bins[in_union])
    assert np.all(combined[~in_union] == 0.0)


def test_brick_wall_exactness(clock):
    ils = synth_ils(IlsParams(), clock)
    windowed = inverse_fft(bandpass_window(forward_fft(ils), BandSpec(0.0, 300.0)))
    assert np.allclose(windowed.samples, ils.samples, atol=1e-9)


@pytest.mark.parametrize("center,half", [(15900.0, 300.0), (-15900.0, 300.0), (0.0, 16500.0)])
def test_window_rejects_band_outside_nyquist(clock, rng, center, half):
    spec = forward_fft(_random_buffer(clock, rng))
    with pytest.raises(ValueError, match="Nyquist"):
        bandpass_window(spec, BandSpec(center, half))


def test_band_spec_validation():
    with pytest.raises(ValueError):
        BandSpec(0.0, 0.0)
    with pytest.raises(ValueError):
        BandSpec(0.0, -1.0)


def test_bin_index_rejects_fractional_bins(small_clock):
    with pytest.raises(ValueError, match="integer bin"):
        bin_index(small_clock, 90.5)


# N = 2**8 * 5**3, 2**8 * 5**2, an odd composite 3**5 * 5**2, and a prime
BAND_IFFT_SIZES = [32000, 6400, 6075, 6007]


def _band_ifft_case(n, kind):
    """Signed offsets of a band of the given kind on an n-point grid."""
    if kind == "through_0":
        return np.arange(-300, 301)
    if kind == "positive":
        return np.arange(1200, 1801)
    if kind == "negative":
        return np.arange(-1801, -1199)
    # as wide as the polyphase length P it gets, starting below 0 so it wraps
    p = BandIfft(n, np.arange(601)).p
    return np.arange(-p // 3, -p // 3 + p)


@pytest.mark.parametrize("n", BAND_IFFT_SIZES)
@pytest.mark.parametrize("kind", ["through_0", "positive", "negative", "width_p"])
def test_band_ifft_matches_zero_filled_ifft(rng, n, kind):
    offsets = _band_ifft_case(n, kind)
    bins = rng.standard_normal(len(offsets)) + 1j * rng.standard_normal(len(offsets))
    full = np.zeros(n, dtype=complex)
    full[offsets % n] = bins
    want = np.fft.ifft(full)
    plan = BandIfft(n, offsets)
    assert plan.p * plan.l == n and plan.p >= len(offsets)
    # stale samples in the buffer must not leak into the result
    got = plan(bins, np.full(n, 1e300 + 1e300j))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n, p", [(32000, 640), (6400, 640), (6075, 675), (6007, 6007)])
def test_band_ifft_chooses_the_smallest_wide_enough_divisor(n, p):
    plan = BandIfft(n, np.arange(-300, 301))
    assert (plan.p, plan.l) == (p, n // p)  # the prime 6007 falls back to L = 1


def test_band_ifft_rejects_a_band_with_a_gap():
    with pytest.raises(ValueError, match="contiguous"):
        BandIfft(6400, np.array([0, 1, 3]))


def test_band_offsets_are_the_band_bins_in_frequency_order(clock):
    band = BandSpec(0.0, 300.0)
    offsets = band_offsets(clock, band)
    assert np.array_equal(offsets, np.arange(-300, 301))
    assert np.array_equal(np.sort(offsets % clock.n_samples), band_bins(clock, band))


@pytest.mark.parametrize("n", [32000, 6400])
def test_shifted_tone_band_is_the_demodulated_estimate(rng, n):
    # the engine's tone path: shift the band down by the tone's bin, fold
    # exp(-i*phase)/amp into its bins, and take the band IFFT
    clock = SampleClock(rate_hz=float(n), n_samples=n)
    tone = ToneParams(offset_hz=1500.0, amp=0.5, phase=0.7)
    band = BandSpec(tone.offset_hz, 300.0)
    spec = Spectrum(clock, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    offsets = band_offsets(clock, band)
    k0 = bin_index(clock, tone.offset_hz)
    bins = spec.bins[offsets % n] * np.exp(-1j * tone.phase) / tone.amp
    got = BandIfft(n, offsets - k0)(bins, np.empty(n, dtype=complex))

    d_t = inverse_fft(bandpass_window(spec, band)).samples
    # a carrier whose phase is reduced modulo N in integers
    exact = np.exp(-1j * (2 * np.pi * (k0 * np.arange(n) % n) / n + tone.phase))
    want = demodulate(d_t, exact, tone.amp)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale
    # tone_carrier forms the phase 2*pi*f*t + phase in floats, which is off by
    # a few ulps of its largest value, 2*pi*1500 rad; that roundoff, not the
    # shift, is the whole difference from the public stages
    public = demodulate(d_t, tone_carrier(clock, tone), tone.amp)
    phase_ulps = 4 * np.finfo(float).eps * (2 * np.pi * tone.offset_hz * clock.duration_s)
    assert np.max(np.abs(got - public)) <= phase_ulps * scale
