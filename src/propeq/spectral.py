"""Capture-window Fourier analysis and brick-wall band windows.

Transform convention: forward FFT is unnormalized, inverse carries 1/N, so
``np.fft.ifft(forward_fft(x).bins) == x`` to roundoff. Bin k of a length-N
spectrum corresponds to frequency k*(rate/N) folded into (-rate/2, rate/2]
(the Nyquist bin is reported as +rate/2).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .signals import SampleBuffer, SampleClock, freeze_capture


@dataclass(frozen=True)
class Spectrum:
    """Full-length discrete spectrum of one capture window."""

    clock: SampleClock
    bins: np.ndarray

    def __post_init__(self) -> None:
        freeze_capture(self, "bins")


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


def bin_index(clock: SampleClock, freq_hz: float) -> int:
    """Index of the bin holding ``freq_hz``, required to be an exact bin."""
    ratio = freq_hz / clock.bin_hz
    if not math.isfinite(ratio):
        raise ValueError(f"{freq_hz} Hz is outside the Nyquist range")
    idx = int(round(ratio))
    if abs(ratio - idx) > 1e-9:  # roundoff slack, in bins
        raise ValueError(
            f"{freq_hz} Hz is not an integer bin at resolution {clock.bin_hz} Hz"
        )
    n = clock.n_samples
    if idx > n // 2 or idx < -((n - 1) // 2):
        raise ValueError(f"{freq_hz} Hz is outside the Nyquist range")
    return idx % n


def forward_fft(buf: SampleBuffer) -> Spectrum:
    """Unnormalized forward DFT of a capture."""
    # a spectrum that overflows is rejected by Spectrum's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        bins = np.fft.fft(buf.samples)
    return Spectrum(buf.clock, bins)


def check_band(clock: SampleClock, band: BandSpec) -> None:
    """Reject a band that reaches outside the Nyquist range of ``clock``."""
    nyq = clock.rate_hz / 2.0
    if not (-nyq < band.lo_hz and band.hi_hz <= nyq):
        raise ValueError(
            f"band [{band.lo_hz}, {band.hi_hz}] Hz exceeds the Nyquist range "
            f"(-{nyq}, {nyq}]"
        )


def band_offsets(clock: SampleClock, band: BandSpec) -> np.ndarray:
    """Signed bin offsets of ``band`` in ascending order of frequency.

    These are the bins whose folded frequency (``folded_frequencies``) falls
    inside the band, signed in (-N/2, N/2], so a band through 0 Hz comes out
    contiguous instead of split at the array end. The folded frequency rises
    with the signed bin, so the band is one run of bins, and its two ends
    are found by bisection: no per-bin frequency table is built.
    """
    check_band(clock, band)
    n, rate = clock.n_samples, clock.rate_hz
    spacing = 1.0 / (n * (1.0 / rate))  # as np.fft.fftfreq computes it

    def hz(k: int) -> float:
        return rate / 2.0 if 2 * k == n else k * spacing

    bins = range(-((n - 1) // 2), n // 2 + 1)
    lo = bisect.bisect_left(bins, band.lo_hz, key=hz)
    hi = bisect.bisect_right(bins, band.hi_hz, key=hz)
    return np.arange(bins[0] + lo, bins[0] + hi)


class BandIfft:
    """Exact inverse DFT of an N-point spectrum that is zero outside one band.

    The band is given by its contiguous, ascending signed bin ``offsets``
    (see ``band_offsets``); let W be their number. With N = L*P, P the
    smallest divisor of N that is at least W, write
    n = p*L + r (0 <= r < L). Since k*n/N = k*p/P + k*r/N,

        x[p*L + r] = (1/N) sum_k X_k e^{2 pi i k n/N}
                   = IFFT_P( Z[:, r] )[p],   Z[k mod P, r] = X_k e^{2 pi i k r/N} / L,

    and because W <= P the residues k mod P are distinct, so Z holds
    each bin once. One call is a scatter into a (P, L) grid and L batched
    P-point IFFTs along its first axis, whose rows are then the N samples in
    order: no sample is dropped or interpolated, unlike decimation. On the
    default 32000-point clock a 601-bin band gives P = 640 and L = 50. The
    W x L twiddles e^{2 pi i k r/N} / L come from ``root_powers`` tables:
    about 2*L*sqrt(W) exponentials (2 500 on the default clock), not one per
    twiddle (30 050). When
    no divisor of N below N is wide enough (a prime N, say), L = 1 and the
    call is one plain N-point IFFT.
    """

    def __init__(self, n: int, offsets: np.ndarray):
        width = len(offsets)
        k_lo = int(offsets[0]) if width else 0
        if not (width <= n and np.array_equal(offsets, np.arange(k_lo, k_lo + width))):
            raise ValueError(f"offsets must be at most {n} contiguous ascending bins")
        self.p = min(d for i in range(1, math.isqrt(n) + 1) if n % i == 0
                     for d in (i, n // i) if d >= width)
        self.l = n // self.p
        # e^{2 pi i (k_lo + j) r/N} / L = e^{2 pi i j r/N} * e^{2 pi i k_lo r/N} / L
        self._twiddles = root_powers(n, np.arange(self.l), width)
        self._twiddles *= root_powers(n, k_lo, self.l) / self.l
        # k mod P of a contiguous band is at most two runs of grid rows; the
        # other rows are zeroed on every call
        start, stop = k_lo % self.p, k_lo % self.p + width
        if stop <= self.p:
            self._runs = [(slice(start, stop), slice(0, width))]
            self._zero = [slice(0, start), slice(stop, self.p)]
        else:
            head = self.p - start
            self._runs = [(slice(start, self.p), slice(0, head)),
                          (slice(0, width - head), slice(head, width))]
            self._zero = [slice(width - head, start)]

    def __call__(self, bins: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The N samples of the band spectrum ``bins``, written to ``out``.

        ``out`` is a C-contiguous complex array of length N; a strided one
        would be reshaped into a copy, and the result lost.
        """
        grid = out.reshape(self.p, self.l)
        for rows, cols in self._runs:
            np.multiply(bins[cols, None], self._twiddles[cols], out=grid[rows])
        for rows in self._zero:
            grid[rows] = 0
        np.fft.ifft(grid, axis=0, out=grid)
        return out


def root_powers(n: int, k: int | np.ndarray, count: int) -> np.ndarray:
    """w^(k*t) for t < count, with w = exp(2*pi*i/N) and t along the first axis.

    For an int ``k`` the result has shape (count,); for a 1-d array, shape
    (count, len(k)), C-contiguous. Each exponent k*t is reduced into
    (-N/2, N/2] in integers, so no angle exceeds pi. k is reduced modulo N
    first, so k*t stays below N*(count + sqrt(count)), which int64 holds for
    any N and count up to ``signals.MAX_SAMPLES``. With s = ceil(sqrt(count))
    and t = s*a + b, each power is w^(k*s*a) * w^(k*b): one entry of a coarse
    and one of a fine table of about sqrt(count) exponentials each, and no
    exponential per power.
    """
    k = np.asarray(k, dtype=np.int64) % n
    step = math.isqrt(max(count - 1, 0)) + 1

    def roots(t: np.ndarray) -> np.ndarray:
        e = np.multiply.outer(t, k) % n
        return np.exp(2j * np.pi * np.where(2 * e > n, e - n, e) / n)

    table = roots(np.arange(0, count, step))[:, None] * roots(np.arange(step))[None, :]
    return table.reshape(-1, *k.shape)[:count]


def dft_twiddles(clock: SampleClock, freqs: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """One period of exp(-2*pi*i*k*n/N) for the exact bin k of each of ``freqs``.

    k*n mod N repeats every P = N/gcd(k, N) samples, so P twiddles describe
    a whole DFT row: on the default clock 3200 for 90 Hz, 640 for 150 Hz,
    and 1 for 0 Hz. Each row is ``root_powers`` of -k, whose exponent is
    reduced in integers, so every twiddle is accurate to roundoff.
    """
    n = clock.n_samples
    out = []
    for f in freqs:
        k = bin_index(clock, f)
        out.append(root_powers(n, -k, n // math.gcd(k, n)))
    return tuple(out)


def dft_bins(twiddles: tuple[np.ndarray, ...], samples: np.ndarray) -> np.ndarray:
    """The DFT of ``samples`` at the bins of ``twiddles`` (see ``dft_twiddles``).

    Equals ``np.fft.fft(samples)`` at those bins to roundoff. The capture is
    folded onto each distinct twiddle period once (the +-90 Hz bins share
    one fold on the default clock, as do the +-150 Hz bins), and each bin
    takes a P-point dot product with its fold, so reading a few bins costs
    far less than a full FFT. Every sample enters every bin, so a NaN or an
    infinity among the samples makes every bin non-finite; the caller finds
    it there, and the folds and dot products raise no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        folds = {p: samples.reshape(-1, p).sum(axis=0) for p in {len(tw) for tw in twiddles}}
        # einsum, not BLAS: its fixed summation order keeps serial and threaded
        # runs bit-identical
        return np.array([np.einsum("p,p->", folds[len(tw)], tw) for tw in twiddles])
