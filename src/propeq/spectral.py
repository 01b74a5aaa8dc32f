"""Capture-window Fourier analysis and brick-wall band windows.

Transform convention: forward FFT is unnormalized, inverse carries 1/N, so
``inverse_fft(forward_fft(x)) == x`` to roundoff. Bin k of a length-N
spectrum corresponds to frequency k*(rate/N) folded into (-rate/2, rate/2]
(the Nyquist bin is reported as +rate/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import SampleBuffer, SampleClock, check_finite


@dataclass(frozen=True)
class Spectrum:
    """Full-length discrete spectrum of one capture window."""

    clock: SampleClock
    bins: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bins, dtype=np.complex128)
        if arr.ndim != 1 or arr.shape[0] != self.clock.n_samples:
            raise ValueError(
                f"bins must be 1-d of length {self.clock.n_samples}, got shape {arr.shape}"
            )
        check_finite(arr, "bins")
        arr.flags.writeable = False
        object.__setattr__(self, "bins", arr)


@dataclass(frozen=True)
class BandSpec:
    """A brick-wall pass band, inclusive at both edges."""

    center_hz: float
    half_width_hz: float = 300.0

    def __post_init__(self) -> None:
        if not self.half_width_hz > 0:
            raise ValueError(f"half_width_hz must be > 0, got {self.half_width_hz}")

    @property
    def lo_hz(self) -> float:
        return self.center_hz - self.half_width_hz

    @property
    def hi_hz(self) -> float:
        return self.center_hz + self.half_width_hz

    def overlaps(self, other: "BandSpec") -> bool:
        return self.lo_hz <= other.hi_hz and other.lo_hz <= self.hi_hz


def folded_frequencies(clock: SampleClock) -> np.ndarray:
    """Per-bin frequencies in Hz, folded to (-rate/2, rate/2]."""
    f = np.fft.fftfreq(clock.n_samples, d=1.0 / clock.rate_hz)
    if clock.n_samples % 2 == 0:
        # numpy puts the Nyquist bin at -rate/2; this library folds it positive
        f = f.copy()
        f[clock.n_samples // 2] = clock.rate_hz / 2.0
    return f


def bin_index(clock: SampleClock, freq_hz: float, tol: float = 1e-9) -> int:
    """Index of the bin holding ``freq_hz``, required to be an exact bin."""
    ratio = freq_hz / clock.bin_hz
    if not math.isfinite(ratio):
        raise ValueError(f"{freq_hz} Hz is outside the Nyquist range")
    idx = int(round(ratio))
    if abs(ratio - idx) > tol:
        raise ValueError(
            f"{freq_hz} Hz is not an integer bin at resolution {clock.bin_hz} Hz"
        )
    n = clock.n_samples
    if idx > n // 2 or idx < -((n - 1) // 2):
        raise ValueError(f"{freq_hz} Hz is outside the Nyquist range")
    return idx % n


def forward_fft(buf: SampleBuffer) -> Spectrum:
    """Unnormalized forward DFT of a capture."""
    return Spectrum(buf.clock, np.fft.fft(buf.samples))


def inverse_fft(spec: Spectrum) -> SampleBuffer:
    """Inverse DFT scaled by 1/N."""
    return SampleBuffer(spec.clock, np.fft.ifft(spec.bins))


def check_band(clock: SampleClock, band: BandSpec) -> None:
    """Reject a band that reaches outside the Nyquist range of ``clock``."""
    nyq = clock.rate_hz / 2.0
    if band.lo_hz <= -nyq or band.hi_hz > nyq:
        raise ValueError(
            f"band [{band.lo_hz}, {band.hi_hz}] Hz exceeds the Nyquist range "
            f"(-{nyq}, {nyq}]"
        )


def band_bins(clock: SampleClock, band: BandSpec) -> np.ndarray:
    """Indices of the bins whose folded frequency falls inside ``band``."""
    check_band(clock, band)
    f = folded_frequencies(clock)
    return np.flatnonzero((f >= band.lo_hz) & (f <= band.hi_hz))


def bandpass_window(spec: Spectrum, band: BandSpec) -> Spectrum:
    """Zero every bin whose folded frequency falls outside ``band``.

    The window is single-sided: the mirror band at negative frequencies is
    not passed unless ``band`` itself covers it.
    """
    idx = band_bins(spec.clock, band)
    out = np.zeros(spec.clock.n_samples, dtype=np.complex128)
    out[idx] = spec.bins[idx]
    return Spectrum(spec.clock, out)


def dft_twiddles(clock: SampleClock, freqs: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """One period of exp(-2*pi*i*k*n/N) for the exact bin k of each of ``freqs``.

    k*n mod N repeats every P = N/gcd(k, N) samples, so P twiddles describe
    a whole DFT row: on the default clock 3200 for 90 Hz, 640 for 150 Hz,
    and 1 for 0 Hz. The exponent is reduced modulo N in integers, so every
    twiddle is accurate to roundoff.
    """
    n = clock.n_samples
    out = []
    for f in freqs:
        k = bin_index(clock, f)
        period = n // math.gcd(k, n)
        out.append(np.exp(-2j * np.pi * (k * np.arange(period) % n) / n))
    return tuple(out)


def dft_bins(twiddles: tuple[np.ndarray, ...], samples: np.ndarray) -> np.ndarray:
    """The DFT of ``samples`` at the bins of ``twiddles`` (see ``dft_twiddles``).

    Equals ``np.fft.fft(samples)`` at those bins to roundoff. Each bin folds
    the capture onto one twiddle period and takes a P-point dot product, so
    reading a few bins costs far less than a full FFT.
    """
    # einsum, not BLAS: its fixed summation order keeps serial and threaded
    # runs bit-identical
    return np.array(
        [np.einsum("p,p->", samples.reshape(-1, len(tw)).sum(axis=0), tw) for tw in twiddles]
    )
