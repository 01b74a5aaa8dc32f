"""Oracles used by the tests, independent of the engine they check.

The square-wave coefficients come from summing the finite geometric series
of the sampled cycle by hand, so they sidestep every code path they are used
to check (no FFTs, no windowing). The reference chain below runs one scenario
with plain full-length numpy transforms: no band IFFT plan, no bin DFT, and
no divider of the engine's.
"""

import numpy as np

from propeq import (
    BandSpec,
    compute_ddm,
    eval_modulator,
    folded_frequencies,
    synth_ils,
    synth_tone,
)
from propeq.channel import noise_scale, unit_noise
from propeq.metrics import DDM_FREQS, amplitudes_from_bins


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
