"""Oracles used by the tests, independent of the engine they check.

The transmit is written twice here, both apart from the engine's six-line
model: ``synth_ils`` and ``synth_tone`` sample it with float phases 2*pi*f*t,
and ``transmit_by_lines`` sums the six lines with their phases reduced
modulo N in integers, which keeps it exact to roundoff at every sample. The
square-wave coefficients come from summing the finite geometric series
of the sampled cycle by hand, so they sidestep every code path they are used
to check (no FFTs, no windowing). The reference chain below runs one scenario
with plain full-length numpy transforms: no band IFFT plan, no bin DFT, and
no divider of the engine's.
"""

import numpy as np

from propeq import (
    BandSpec,
    SampleBuffer,
    bin_index,
    compute_ddm,
    eval_modulator,
    folded_frequencies,
)
from propeq.channel import unit_noise
from propeq.metrics import DDM_FREQS, amplitudes_from_bins
from propeq.spectral import check_band


def times(clock):
    """Sample instants in seconds, starting at t=0."""
    return np.arange(clock.n_samples) / clock.rate_hz


def synth_ils(params, clock):
    """The ILS envelope at complex baseband (imaginary part zero), float phases.

    s[k] = a_c + a_90*cos(2*pi*90*t_k + phase_90) + a_150*cos(2*pi*150*t_k + phase_150)
    """
    t = times(clock)
    s = (
        params.a_c
        + params.a_90 * np.cos(2 * np.pi * 90.0 * t + params.phase_90)
        + params.a_150 * np.cos(2 * np.pi * 150.0 * t + params.phase_150)
    )
    return SampleBuffer(clock, s.astype(np.complex128))


def synth_tone(params, clock):
    """The single-sided reference tone amp*exp(j(2*pi*f*t + phase)), float phases."""
    t = times(clock)
    tone = params.amp * np.exp(1j * (2 * np.pi * params.offset_hz * t + params.phase))
    return SampleBuffer(clock, tone)


def transmit_lines(cfg):
    """The six (bin, amplitude) lines of the ILS and the tone, written out by hand."""
    ils, tone, clock = cfg.ils, cfg.tone, cfg.clock
    return [
        (0, complex(ils.a_c)),
        (bin_index(clock, 90.0), ils.a_90 / 2 * np.exp(1j * ils.phase_90)),
        (bin_index(clock, -90.0), ils.a_90 / 2 * np.exp(-1j * ils.phase_90)),
        (bin_index(clock, 150.0), ils.a_150 / 2 * np.exp(1j * ils.phase_150)),
        (bin_index(clock, -150.0), ils.a_150 / 2 * np.exp(-1j * ils.phase_150)),
        (bin_index(clock, tone.offset_hz), tone.amp * np.exp(1j * tone.phase)),
    ]


def transmit_by_lines(cfg):
    """tx[t] = sum_k c_k exp(2*pi*i*(k*t mod N)/N), one exp per line and sample."""
    n = cfg.clock.n_samples
    t = np.arange(n)
    return sum(c * np.exp(2j * np.pi * (k * t % n) / n) for k, c in transmit_lines(cfg))


def noise_scale(clean, snr_db):
    """Per-component noise deviation: P_noise = mean(|clean|^2) / 10^(snr_db/10)."""
    return np.sqrt(np.mean(np.abs(clean) ** 2) / 10.0 ** (snr_db / 10.0) / 2.0)


def square_cycle_coeff(k: int, duty: float, lo: float, hi: float, period_samples: int):
    """Fourier coefficient of one sampled square cycle.

    The cycle holds ``lo`` for the first round(duty*period) samples and
    ``hi`` for the rest; the expression is the closed form of
    (1/P) * sum_n g[n] exp(-2j*pi*k*n/P).
    """
    per = period_samples
    n_lo = round(duty * per)
    assert abs(duty * per - n_lo) < 1e-9, "oracle assumes an integer low-run"
    if k % per == 0:
        return complex(hi + (lo - hi) * n_lo / per)
    num = 1.0 - np.exp(-2j * np.pi * k * n_lo / per)
    den = 1.0 - np.exp(-2j * np.pi * k / per)
    return complex((lo - hi) * num / den / per)


def square_partial_sum(
    t: np.ndarray,
    f_p: float,
    duty: float,
    lo: float,
    hi: float,
    period_samples: int,
    k_max: int,
) -> np.ndarray:
    """Band-limited reconstruction sum_{|k|<=k_max} c_k exp(2j*pi*k*f_p*t)."""
    acc = np.full(t.shape, square_cycle_coeff(0, duty, lo, hi, period_samples))
    for k in range(1, k_max + 1):
        ck = square_cycle_coeff(k, duty, lo, hi, period_samples)
        phasor = np.exp(2j * np.pi * k * f_p * t)
        acc = acc + ck * phasor + np.conj(ck) * np.conj(phasor)
    return acc


def cycle_frac_by_mod(f_p, phase, clock):
    """``channel._cycle_frac`` as np.mod and fresh arrays compute it."""
    k = np.arange(clock.n_samples)
    frac = np.mod(k * (f_p / clock.rate_hz) - phase / (2 * np.pi), 1.0)
    frac = np.round(frac * 1e12) / 1e12
    return np.where(frac >= 1.0, frac - 1.0, frac)


def unit_noise_by_sum(seed, n):
    """``channel.unit_noise`` as the sum of two real draws computes it."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(x) ** 2)))


def received(cfg, tx=None):
    """FFT of ``tx`` (the ILS plus the tone by default) chopped, plus the seed's noise."""
    clock, channel = cfg.clock, cfg.channel
    if tx is None:
        tx = synth_ils(cfg.ils, clock).samples + synth_tone(cfg.tone, clock).samples
    rx = tx * eval_modulator(channel, clock)
    if channel.snr_db is not None:
        rx = rx + noise_scale(rx, channel.snr_db) * unit_noise(channel.rng_seed, clock.n_samples)
    return np.fft.fft(rx)


def band_bins(clock, band):
    """Indices of the bins whose folded frequency falls inside ``band``.

    The definition ``spectral.band_offsets`` computes by bisection: a test
    of every bin's ``folded_frequencies`` value against the band edges.
    """
    check_band(clock, band)
    f = folded_frequencies(clock)
    return np.flatnonzero((f >= band.lo_hz) & (f <= band.hi_hz))


def in_band(bins, clock, band):
    """``bins`` with every bin outside ``band`` zeroed."""
    f = folded_frequencies(clock)
    return np.where((f >= band.lo_hz) & (f <= band.hi_hz), bins, 0)


def g_hat(cfg, bins):
    """The tone band at baseband, by a carrier whose phase is reduced modulo N in integers."""
    n, tone = cfg.clock.n_samples, cfg.tone
    k0 = round(tone.offset_hz / cfg.clock.bin_hz)
    carrier = np.exp(-1j * (2 * np.pi * (k0 * np.arange(n) % n) / n + tone.phase))
    band = BandSpec(tone.offset_hz, cfg.tone_half_width_hz)
    return np.fft.ifft(in_band(bins, cfg.clock, band)) * carrier / tone.amp


def equalized(cfg, bins):
    """The signal band divided by g_hat, floored at eps_rel * max|g_hat|."""
    g = g_hat(cfg, bins)
    floor_sq = (cfg.reg.eps_rel * np.abs(g).max()) ** 2
    s = np.fft.ifft(in_band(bins, cfg.clock, BandSpec(0.0, cfg.signal_half_width_hz)))
    return s * np.conj(g) / np.maximum(np.abs(g) ** 2, floor_sq)


def ddms(cfg):
    """(ddm_raw, ddm_eq) of the scenario's run from full-length DFT bins; raw first."""
    k, n = [round(f / cfg.clock.bin_hz) for f in DDM_FREQS], cfg.clock.n_samples
    bins = received(cfg)
    signal = in_band(bins, cfg.clock, BandSpec(0.0, cfg.signal_half_width_hz))
    raw = compute_ddm(amplitudes_from_bins(signal[k], n))
    return raw, compute_ddm(amplitudes_from_bins(np.fft.fft(equalized(cfg, bins))[k], n))
