"""Reference-tone equalization: modulator extraction and regularized division.

The modulator estimate comes from the tone band of the received spectrum:
window the band, inverse transform, then demodulate by the known tone so the
estimate sits at baseband with unit scaling. Equalization divides the
windowed signal band by that estimate with a relative magnitude floor so a
ringing, band-limited estimate cannot blow up the quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, eval_modulator
from .errors import ToneAbsentError
from .signals import SampleBuffer, SampleClock, ToneParams, check_finite
from .spectral import BandSpec, Spectrum, bandpass_window, dft_bins, dft_twiddles, inverse_fft

# a tone band this far below the capture's energy holds only FFT roundoff
_TONE_FLOOR = 1e-24

CRITICAL_FREQS = (90.0, 150.0)


@dataclass(frozen=True)
class DopplerEstimate:
    """Complex modulator estimate at baseband, scaled to unit tone amplitude."""

    g_hat: SampleBuffer
    tone_band: BandSpec

    def __post_init__(self) -> None:
        check_estimate(self.g_hat.samples)


def check_estimate(g_hat: np.ndarray) -> None:
    """Reject a modulator estimate that carries no energy."""
    if not float(np.mean(np.abs(g_hat))) > 0:
        raise ValueError("g_hat must carry energy")


@dataclass(frozen=True)
class RegPolicy:
    """Relative magnitude floor for the equalizing division."""

    eps_rel: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_rel < 1.0:
            raise ValueError(f"eps_rel must be in (0, 1), got {self.eps_rel}")


def tone_band_empty(band_energy: float, total_energy: float) -> bool:
    """Whether a tone band's energy is indistinguishable from FFT roundoff."""
    return band_energy <= _TONE_FLOOR * total_energy


def tone_absent(band: BandSpec) -> ToneAbsentError:
    return ToneAbsentError(f"no energy in tone band [{band.lo_hz}, {band.hi_hz}] Hz")


def tone_carrier(clock: SampleClock, tone: ToneParams) -> np.ndarray:
    """Conjugate reference tone exp(-j(2*pi*f*t + phase)) over the capture."""
    t = clock.times()
    return np.exp(-1j * (2 * np.pi * tone.offset_hz * t + tone.phase))


def demodulate(
    d_t: np.ndarray, carrier: np.ndarray, amp: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Tone-band samples moved to baseband and scaled to unit tone amplitude.

    ``out`` may be ``d_t`` itself, or any complex buffer of its shape.
    """
    out = np.multiply(d_t, carrier, out=out)
    out /= amp
    return out


def regularized_divide(
    s: np.ndarray,
    g: np.ndarray,
    eps_rel: float,
    out: np.ndarray | None = None,
    mag: np.ndarray | None = None,
) -> np.ndarray:
    """s * conj(g) / max(|g|^2, floor^2) with floor = eps_rel * max |g|.

    The one |g| pass the floor needs also checks the estimate: a NaN or an
    infinity in ``g`` makes max |g| non-finite, and a finite ``g`` carries
    energy exactly when max |g| > 0, so ``g`` is not scanned again unless
    one of those tests fails. The quotient itself is not checked, and its
    overflows raise no warning: the caller rejects a non-finite one. ``out``
    (complex, may be ``g`` itself) and ``mag`` (real) are optional work
    buffers shaped like ``g``; a sweep passes the same ones to every run.

    Raises:
        ValueError: ``g`` is not finite or carries no energy.
    """
    with np.errstate(all="ignore"):
        mag = np.abs(g, out=mag)
        peak = float(np.max(mag))
        if not peak < math.inf:
            check_finite(g, "g_hat")  # |g| can also overflow on a finite g
        if not peak / mag.size > 0:
            check_estimate(g)  # the mean of |g| underflows to 0 only below this
        floor_sq = np.float64(eps_rel * peak) ** 2
        np.square(mag, out=mag)
        np.maximum(mag, floor_sq, out=mag)
        # numpy divides by the complex c + 0j as a * (1/c), so this multiply
        # gives the quotient bit for bit
        np.reciprocal(mag, out=mag)
        out = np.conjugate(g, out=out)
        out *= s
        out *= mag
    return out


def flag_blind_spots(
    bins: np.ndarray, critical_freqs: tuple[float, ...], rel_threshold: float
) -> tuple[float, ...]:
    """Critical frequencies f with |G(f)| > rel_threshold * |G(0)|.

    ``bins`` holds G(0) followed by G at each critical frequency.
    """
    if not rel_threshold > 0:
        raise ValueError(f"rel_threshold must be > 0, got {rel_threshold}")
    ref = abs(bins[0])
    return tuple(f for f, b in zip(critical_freqs, bins[1:]) if abs(b) > rel_threshold * ref)


def extract_doppler(
    rx_spec: Spectrum, tone: ToneParams, band: BandSpec
) -> DopplerEstimate:
    """Recover the modulation process from the reference-tone band.

    Windows ``band`` out of the received spectrum, inverse transforms, and
    multiplies by the conjugate tone (divided by its amplitude). For a
    noiseless channel whose modulator harmonics all fall inside the band the
    result equals the true aggregate gain; in general it is the band-limited
    truncation of it.

    Raises:
        ValueError: band not centered on the tone, or outside Nyquist.
        ToneAbsentError: the windowed band carries no energy at all.
    """
    if band.center_hz != tone.offset_hz:
        raise ValueError(
            f"tone band center {band.center_hz} Hz must equal tone offset {tone.offset_hz} Hz"
        )
    windowed = bandpass_window(rx_spec, band)
    band_energy = float(np.sum(np.abs(windowed.bins) ** 2))
    total_energy = float(np.sum(np.abs(rx_spec.bins) ** 2))
    if tone_band_empty(band_energy, total_energy):
        raise tone_absent(band)
    d_t = inverse_fft(windowed)
    g_hat = demodulate(d_t.samples, tone_carrier(rx_spec.clock, tone), tone.amp)
    return DopplerEstimate(SampleBuffer(rx_spec.clock, g_hat), band)


def equalize(
    rx_spec: Spectrum,
    dop: DopplerEstimate,
    signal_band: BandSpec,
    reg: RegPolicy = RegPolicy(),
) -> SampleBuffer:
    """Divide the windowed signal band by the modulator estimate.

    out[k] = s_band[k] * conj(g_hat[k]) / max(|g_hat[k]|^2, floor^2)
    with floor = eps_rel * max_k |g_hat[k]|. Whenever every |g_hat[k]| sits
    above the floor this is exactly plain division.
    """
    if signal_band.overlaps(dop.tone_band):
        raise ValueError(
            f"signal band [{signal_band.lo_hz}, {signal_band.hi_hz}] Hz must be "
            f"disjoint from tone band [{dop.tone_band.lo_hz}, {dop.tone_band.hi_hz}] Hz"
        )
    s_band = inverse_fft(bandpass_window(rx_spec, signal_band))
    q = regularized_divide(s_band.samples, dop.g_hat.samples, reg.eps_rel)
    return SampleBuffer(rx_spec.clock, q)


def predict_blind_spots(
    cfg: ChannelConfig,
    clock: SampleClock,
    critical_freqs: tuple[float, ...] = CRITICAL_FREQS,
    rel_threshold: float = 0.01,
) -> tuple[float, ...]:
    """Critical frequencies where the modulator itself has spectral content.

    A frequency f is flagged when |G(f)| > rel_threshold * |G(0)| for the
    noiseless aggregate-gain spectrum G. Inverting such a modulator injects
    energy at f into every signal component, so equalization can interfere
    with the very tones it is meant to protect.
    """
    twiddles = dft_twiddles(clock, (0.0, *critical_freqs))
    bins = dft_bins(twiddles, eval_modulator(cfg, clock).samples)
    return flag_blind_spots(bins, critical_freqs, rel_threshold)
