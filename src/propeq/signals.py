"""Complex-baseband synthesis of the inspected ILS signal and its reference tone.

Everything downstream works on uniformly sampled complex baseband captures.
The ILS carrier sits at 0 Hz with its 90/150 Hz AM tones as real sidebands;
the reference tone is a single-sided complex exponential offset well above
the signal band so the two can be separated by frequency-domain windowing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


# the longest capture a clock may describe, checked before anything of its
# length is allocated. At this length one simulate peaks at about 477 MB RSS
# (2.0-2.1 s) and a 2-rate x 2-seed sweep at 733 MB (5.0 s); on the prime
# length 4 194 301, whose band IFFTs are full-length transforms, a simulate
# peaks at 1.0 GB (8.2-8.8 s). Measured in one process on a 2-core Xeon
MAX_SAMPLES = 2**22


@dataclass(frozen=True)
class SampleClock:
    """Sample rate and capture length of one processing block.

    With the defaults (32 kHz, 32000 samples) the capture is exactly one
    second and the FFT bin spacing is exactly 1 Hz, so every frequency of
    interest lands on an integer bin.
    """

    rate_hz: float = 32000.0
    n_samples: int = 32000

    def __post_init__(self) -> None:
        if not 0 < self.rate_hz < math.inf:
            raise ValueError(f"rate_hz must be finite and > 0, got {self.rate_hz}")
        # 2**63 bounds any numpy array length (and keeps bin_hz a float)
        if type(self.n_samples) is not int or not 0 < self.n_samples < 2**63:
            raise ValueError(f"n_samples must be a positive int below 2**63, got {self.n_samples}")
        if self.n_samples > MAX_SAMPLES:
            raise ValueError(f"n_samples must be at most {MAX_SAMPLES}, got {self.n_samples}")
        if not self.bin_hz > 0:
            raise ValueError(f"bin spacing {self.rate_hz} Hz / {self.n_samples} underflows to 0")

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.rate_hz

    @property
    def bin_hz(self) -> float:
        return self.rate_hz / self.n_samples

    def times(self) -> np.ndarray:
        """Sample instants in seconds, starting at t=0."""
        return np.arange(self.n_samples) / self.rate_hz


def check_finite(arr: np.ndarray, what: str) -> None:
    """Reject an array holding an infinity or a NaN."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")


def freeze_capture(container, field: str) -> None:
    """Make ``container.<field>`` a read-only, finite complex array of its clock's length."""
    arr = np.asarray(getattr(container, field), dtype=np.complex128)
    n = container.clock.n_samples
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValueError(f"{field} must be 1-d of length {n}, got shape {arr.shape}")
    check_finite(arr, field)
    arr.flags.writeable = False
    object.__setattr__(container, field, arr)


@dataclass(frozen=True)
class SampleBuffer:
    """An immutable complex time series tied to a sample clock."""

    clock: SampleClock
    samples: np.ndarray

    def __post_init__(self) -> None:
        freeze_capture(self, "samples")

    @staticmethod
    def zeros(clock: SampleClock) -> "SampleBuffer":
        return SampleBuffer(clock, np.zeros(clock.n_samples, dtype=np.complex128))


@dataclass(frozen=True)
class IlsParams:
    """Transmitted ILS amplitudes and tone phases.

    The defaults give a difference in depth of modulation of
    (0.6 - 0.8) / 1.0 = -0.2.
    """

    a_c: float = 1.0
    a_90: float = 0.6
    a_150: float = 0.8
    phase_90: float = 0.0
    phase_150: float = 0.0

    def __post_init__(self) -> None:
        if not self.a_c > 0:
            raise ValueError(f"a_c must be > 0, got {self.a_c}")
        if self.a_90 < 0 or self.a_150 < 0:
            raise ValueError("tone amplitudes must be >= 0")

    @property
    def ddm(self) -> float:
        """Nominal DDM of the transmitted signal."""
        return (self.a_90 - self.a_150) / self.a_c


@dataclass(frozen=True)
class ToneParams:
    """Reference-tone placement relative to the carrier.

    The offset must keep the tone clear of the ILS sidebands plus their
    modulation spread; 300 Hz is the hard floor (twice the outermost ILS
    tone), scenario validation applies the spread-dependent check.
    """

    offset_hz: float = 1500.0
    amp: float = 1.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        # a subnormal amplitude would overflow the 1/amp that demodulates the tone
        if not self.amp >= sys.float_info.min:
            raise ValueError(f"amp must be a normal float > 0, got {self.amp}")
        if not self.offset_hz >= 300.0:
            raise ValueError(
                f"offset_hz must be >= 300 to separate tone and signal, got {self.offset_hz}"
            )


def synth_ils(params: IlsParams, clock: SampleClock) -> SampleBuffer:
    """Synthesize the ILS envelope at complex baseband (imaginary part zero).

    s[k] = a_c + a_90*cos(2*pi*90*t_k + phase_90) + a_150*cos(2*pi*150*t_k + phase_150)
    """
    t = clock.times()
    s = (
        params.a_c
        + params.a_90 * np.cos(2 * np.pi * 90.0 * t + params.phase_90)
        + params.a_150 * np.cos(2 * np.pi * 150.0 * t + params.phase_150)
    )
    return SampleBuffer(clock, s.astype(np.complex128))


def synth_tone(params: ToneParams, clock: SampleClock) -> SampleBuffer:
    """Synthesize the single-sided reference tone amp*exp(j(2*pi*f*t + phase))."""
    t = clock.times()
    tone = params.amp * np.exp(1j * (2 * np.pi * params.offset_hz * t + params.phase))
    return SampleBuffer(clock, tone)
