import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propeq import (
    BandSpec,
    IlsParams,
    SampleBuffer,
    SampleClock,
    ScenarioConfig,
    ToneParams,
    bin_index,
    folded_frequencies,
    forward_fft,
)
from propeq.signals import MAX_SAMPLES
from propeq.metrics import DDM_FREQS
from propeq.spectral import BandIfft, band_offsets, dft_bins, dft_twiddles, root_powers

import oracles
from oracles import synth_ils, synth_tone, times

TONE_BAND = BandSpec(1500.0, 300.0)


def _random_buffer(clock, rng):
    x = rng.standard_normal(clock.n_samples) + 1j * rng.standard_normal(clock.n_samples)
    return SampleBuffer(clock, x)


def window(spec, band):
    """The bins of ``spec`` with every bin outside ``band_bins`` zeroed."""
    idx = oracles.band_bins(spec.clock, band)
    out = np.zeros(spec.clock.n_samples, dtype=complex)
    out[idx] = spec.bins[idx]
    return out


def band_ifft(clock, band, bins):
    """The engine's band IFFT of the full spectrum ``bins``, zero outside ``band``."""
    offsets = band_offsets(clock, band)
    out = np.full(clock.n_samples, np.nan, dtype=complex)  # stale samples must not leak
    return BandIfft(clock.n_samples, offsets)(bins[offsets % clock.n_samples], out)


def test_impulse_transforms_to_ones(small_clock):
    x = np.zeros(small_clock.n_samples, dtype=complex)
    x[0] = 1.0
    spec = forward_fft(SampleBuffer(small_clock, x))
    assert np.allclose(spec.bins, 1.0, atol=1e-12)


def test_round_trip_default_clock(clock, rng):
    buf = _random_buffer(clock, rng)
    back = np.fft.ifft(forward_fft(buf).bins)
    err = np.sqrt(np.mean(np.abs(back - buf.samples) ** 2))
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
    back = np.fft.ifft(forward_fft(buf).bins)
    err = np.sqrt(np.mean(np.abs(back - buf.samples) ** 2))
    ref = np.sqrt(np.mean(np.abs(buf.samples) ** 2))
    assert err / ref < 1e-12


def test_zero_spectrum_inverts_to_zero(small_clock):
    out = band_ifft(small_clock, TONE_BAND, np.zeros(small_clock.n_samples, dtype=complex))
    assert np.all(out == 0.0)


def test_single_bin_inverts_to_exponential(clock):
    bins = np.zeros(clock.n_samples, dtype=complex)
    bins[bin_index(clock, 1500.0)] = clock.n_samples
    out = band_ifft(clock, TONE_BAND, bins)
    expected = np.exp(2j * np.pi * 1500.0 * times(clock))
    assert np.allclose(out, expected, atol=1e-9)


def test_inverse_linearity(small_clock, rng):
    a = forward_fft(_random_buffer(small_clock, rng)).bins
    b = forward_fft(_random_buffer(small_clock, rng)).bins
    summed = band_ifft(small_clock, TONE_BAND, a + b)
    parts = band_ifft(small_clock, TONE_BAND, a) + band_ifft(small_clock, TONE_BAND, b)
    assert np.allclose(summed, parts, rtol=1e-12, atol=1e-12)


def test_folded_frequency_convention(small_clock):
    f = folded_frequencies(small_clock)
    assert f[0] == 0.0
    assert f[small_clock.n_samples // 2] == small_clock.rate_hz / 2.0
    assert f.min() == -(small_clock.rate_hz / 2.0 - small_clock.bin_hz)


def test_window_passes_in_band_tone(clock):
    spec = forward_fft(synth_tone(ToneParams(offset_hz=1500.0), clock))
    out = window(spec, TONE_BAND)
    idx = bin_index(clock, 1500.0)
    assert out[idx] == spec.bins[idx]
    rest = np.delete(np.abs(out), idx)
    assert rest.max() < 1e-6


def test_window_removes_out_of_band_tone(clock):
    spec = forward_fft(synth_tone(ToneParams(offset_hz=500.0), clock))
    out = window(spec, TONE_BAND)
    # the 500 Hz spike bin is zeroed outright; what remains in the pass band
    # is FFT roundoff, ~1e-11 of the spike
    assert np.abs(out).max() < 1e-6 * np.abs(spec.bins).max()


def test_window_is_single_sided(clock):
    # a real cosine has lines at +/-1500; the window must keep only +1500
    t = times(clock)
    buf = SampleBuffer(clock, np.cos(2 * np.pi * 1500.0 * t).astype(complex))
    out = window(forward_fft(buf), TONE_BAND)
    up = bin_index(clock, 1500.0)
    dn = bin_index(clock, -1500.0)
    assert abs(out[up]) > 1e3
    assert abs(out[dn]) == 0.0


def test_window_idempotent(clock, rng):
    spec = forward_fft(_random_buffer(clock, rng))
    once = window(spec, TONE_BAND)
    twice = window(replace(spec, bins=once), TONE_BAND)
    assert np.array_equal(once, twice)


def test_window_edges_inclusive(clock):
    spec = forward_fft(synth_tone(ToneParams(offset_hz=1800.0), clock))
    out = window(spec, TONE_BAND)
    assert abs(out[bin_index(clock, 1800.0)]) > 1e3


def test_window_complementarity(clock, rng):
    spec = forward_fft(_random_buffer(clock, rng))
    sig = window(spec, BandSpec(0.0, 300.0))
    tone = window(spec, TONE_BAND)
    f = folded_frequencies(clock)
    in_union = ((f >= -300.0) & (f <= 300.0)) | ((f >= 1200.0) & (f <= 1800.0))
    combined = sig + tone
    assert np.array_equal(combined[in_union], spec.bins[in_union])
    assert np.all(combined[~in_union] == 0.0)


def test_brick_wall_exactness(clock):
    ils = synth_ils(IlsParams(), clock)
    windowed = np.fft.ifft(window(forward_fft(ils), BandSpec(0.0, 300.0)))
    assert np.allclose(windowed, ils.samples, atol=1e-9)


@pytest.mark.parametrize("center,half", [(15900.0, 300.0), (-15900.0, 300.0), (0.0, 16500.0)])
def test_window_rejects_band_outside_nyquist(clock, rng, center, half):
    spec = forward_fft(_random_buffer(clock, rng))
    with pytest.raises(ValueError, match="Nyquist"):
        window(spec, BandSpec(center, half))


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
    assert np.array_equal(np.sort(offsets % clock.n_samples), oracles.band_bins(clock, band))


@pytest.mark.parametrize("n", [32000, 6400])
def test_shifted_tone_band_is_the_demodulated_estimate(rng, n):
    # the engine's tone path: shift the band down by the tone's bin, fold
    # exp(-i*phase)/amp into its bins, and take the band IFFT
    clock = SampleClock(rate_hz=float(n), n_samples=n)
    cfg = ScenarioConfig(clock=clock, tone=ToneParams(offset_hz=1500.0, amp=0.5, phase=0.7))
    tone = cfg.tone
    spec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    offsets = band_offsets(clock, cfg.tone_band)
    k0 = bin_index(clock, tone.offset_hz)
    bins = spec[offsets % n] * np.exp(-1j * tone.phase) / tone.amp
    got = BandIfft(n, offsets - k0)(bins, np.empty(n, dtype=complex))

    # the reference demodulates by a carrier whose phase is reduced modulo N
    # in integers
    want = oracles.g_hat(cfg, spec)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


TWO_PI = 2 * np.arccos(np.longdouble(-1))


def _powers_by_exp(n, k, t, dtype):
    """exp(2*pi*i*k*t/N), one exponential per power, the exponent reduced modulo N in integers."""
    e = np.multiply.outer(t, np.asarray(k) % n) % n
    if dtype == np.float64:
        return np.exp(2j * np.pi * e / n)  # the form root_powers replaced
    return np.exp(1j * (TWO_PI * e.astype(np.longdouble) / n))


def test_root_powers_are_as_accurate_as_one_exp_per_power():
    # 200 seeded draws of N up to MAX_SAMPLES (every other one a composite or
    # prime clock named below), k in (-2N, 2N) and up to 40 000 powers. Over
    # them the one-exponential-per-power form is off the extended-precision
    # reference by at most 1.75e-15, and root_powers by at most 1.51e-15
    assert np.finfo(np.longdouble).nmant >= 63, "the reference needs extended precision"
    draw = np.random.default_rng(15)
    named = [2**22, 4_194_301, 1_048_573, 32000, 6075, 6007, 65521, 3, 1]
    worst_exp = worst_table = 0.0
    for i in range(200):
        n = int(draw.integers(1, MAX_SAMPLES + 1)) if i % 2 else named[i // 2 % len(named)]
        count = int(draw.integers(1, min(n, 40000 if i % 10 == 0 else 4096) + 1))
        k = draw.integers(-2 * n, 2 * n, size=3)
        t = np.arange(count)
        want = _powers_by_exp(n, k, t, np.longdouble)
        worst_exp = max(worst_exp, float(np.abs(_powers_by_exp(n, k, t, np.float64) - want).max()))
        got = root_powers(n, k, count)
        assert got.shape == (count, 3) and got.flags.c_contiguous
        worst_table = max(worst_table, float(np.abs(got - want).max()))
        # an int k gives one row of the same powers
        assert np.array_equal(root_powers(n, int(k[0]), count), got[:, 0])
    assert worst_exp < 2e-15
    assert worst_table <= worst_exp


def test_root_powers_reduce_k_t_in_int64_at_the_largest_clock():
    # k is reduced modulo N and t < count + sqrt(count), so k*t < N*(N + sqrt(N) + 1)
    n = MAX_SAMPLES
    assert (n - 1) * (n + math.isqrt(n) + 1) < 2**63
    # the largest prime clock, k = N - 1 (that is, -1) and every power: a
    # wrapped product would put a wrong root in the tail
    n = 4_194_301
    got = root_powers(n, n - 1, n)[-5:]
    want = _powers_by_exp(n, -1, np.arange(n - 5, n), np.longdouble)
    assert np.abs(got - want).max() < 2e-15


def test_band_ifft_twiddles_are_c_contiguous():
    # each call scatters rows of the twiddle table; a transposed table would be
    # read with a stride of L
    for n in BAND_IFFT_SIZES:
        assert BandIfft(n, np.arange(-300, 301))._twiddles.flags.c_contiguous


@st.composite
def clocks_and_bands(draw):
    """A clock (odd, prime or even N; rate_hz mostly not N) and a band whose edges sit on,
    next to or between bins, or at +Nyquist."""
    n = draw(st.one_of(st.integers(1, 20000), st.sampled_from([2, 3, 6007, 6075, 6400, 65521])))
    rate = draw(st.one_of(st.just(float(n)), st.floats(1e-3, 1e7)))
    clock = SampleClock(rate_hz=rate, n_samples=n)
    f = np.sort(folded_frequencies(clock))
    nyq = rate / 2.0
    kind = draw(st.sampled_from(["bins", "through_0", "to_nyquist", "any"]))
    if kind == "bins":  # edges near two bin frequencies
        a, b = sorted(draw(st.lists(st.sampled_from(list(f)), min_size=2, max_size=2)))
        return clock, BandSpec((a + b) / 2, max((b - a) / 2, clock.bin_hz / 4))
    if kind == "through_0":  # edges exactly at -f and f of one bin
        return clock, BandSpec(0.0, max(draw(st.sampled_from(list(f[f >= 0]))), clock.bin_hz / 3))
    if kind == "to_nyquist":  # hi exactly at +Nyquist
        return clock, BandSpec(nyq / 2, nyq / 2)
    center = draw(st.floats(-nyq, nyq))
    return clock, BandSpec(center, draw(st.floats(1e-6 * nyq, nyq)))


# 300 examples: at 25, a Nyquist bin left unfolded went unseen in 5 of 6 runs
@settings(max_examples=300)
@given(case=clocks_and_bands())
def test_band_offsets_are_the_bins_of_the_band_definition(case):
    clock, band = case
    n = clock.n_samples
    try:
        want = oracles.band_bins(clock, band)
    except ValueError:
        with pytest.raises(ValueError, match="Nyquist"):
            band_offsets(clock, band)
        return
    got = band_offsets(clock, band)
    assert np.all(np.diff(got) == 1)
    assert len(got) == 0 or -n / 2 < got[0] <= got[-1] <= n / 2
    assert np.array_equal(np.sort(got % n), want)


def test_a_band_with_no_centre_is_outside_nyquist(clock):
    with pytest.raises(ValueError, match="^center_hz must be finite, got nan$"):
        BandSpec(float("nan"), 300.0)
    # a band that skipped its own checks is still refused before it is used
    band = object.__new__(BandSpec)
    object.__setattr__(band, "center_hz", float("nan"))
    object.__setattr__(band, "half_width_hz", 300.0)
    with pytest.raises(ValueError, match="Nyquist"):
        band_offsets(clock, band)


# the DDM bins' twiddle periods nest on the default clock (1, 640 and 3200), do
# not on a 36 kHz one (1, 240 and 400, lcm 1200), and are N on a prime clock
DFT_CLOCKS = [(32000, 3200), (36000, 1200), (32003, 32003)]


@pytest.mark.parametrize("n, fold", DFT_CLOCKS)
def test_dft_bins_fold_once_and_match_the_fft(rng, n, fold):
    clock = SampleClock(rate_hz=float(n), n_samples=n)
    plan = dft_twiddles(clock, DDM_FREQS)
    assert plan.fold == fold
    assert sorted(table.shape[1] for _, table in plan.groups) == sorted(
        {n // math.gcd(bin_index(clock, f), n) for f in DDM_FREQS})
    idx = [bin_index(clock, f) for f in DDM_FREQS]
    for x in (_random_buffer(clock, rng).samples, rng.standard_normal(n)):
        # each bin sums N terms of about 1: roundoff about eps * N, far below 1e-9
        np.testing.assert_allclose(dft_bins(plan, x), np.fft.fft(x)[idx], rtol=0, atol=1e-9)

