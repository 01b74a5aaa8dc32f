"""ILS tone amplitude estimation, DDM, and DDM deviation.

Amplitudes are read from exact DFT bins, no neighborhood summation: on the
default clock every tone is an integer bin, and any leakage into those bins
caused by channel modulation is precisely the impairment being measured, so
the estimator must not smooth it away. Only the five bins in ``DDM_FREQS``
are needed, so they are computed directly rather than by a full FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CarrierLostError
from .signals import SampleBuffer
from .spectral import dft_bins, dft_twiddles

_CARRIER_FLOOR = 1e-12

# the bins an amplitude estimate reads, in the order ``amplitudes_from_bins`` takes
DDM_FREQS = (0.0, 90.0, -90.0, 150.0, -150.0)


@dataclass(frozen=True)
class ToneAmplitudes:
    """Estimated carrier and sideband-pair amplitudes, in volts."""

    a_c: float
    a_90: float
    a_150: float

    def __post_init__(self) -> None:
        for name in ("a_c", "a_90", "a_150"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


def amplitudes_from_bins(bins: np.ndarray, n: int) -> ToneAmplitudes:
    """Amplitudes from the unnormalized DFT bins at ``DDM_FREQS`` of an n-sample capture.

    a_c = |X[0]|/N, a_f = (|X[+f]|+|X[-f]|)/N.
    """
    return ToneAmplitudes(
        a_c=float(abs(bins[0])) / n,
        a_90=float(abs(bins[1]) + abs(bins[2])) / n,
        a_150=float(abs(bins[3]) + abs(bins[4])) / n,
    )


def estimate_amplitudes(buf: SampleBuffer) -> ToneAmplitudes:
    """Bin-exact amplitude estimates of a capture (see ``amplitudes_from_bins``)."""
    twiddles = dft_twiddles(buf.clock, DDM_FREQS)
    return amplitudes_from_bins(dft_bins(twiddles, buf.samples), buf.clock.n_samples)


def compute_ddm(amps: ToneAmplitudes) -> float:
    """Difference in depth of modulation, (a_90 - a_150) / a_c (unitless)."""
    if amps.a_c <= _CARRIER_FLOOR:
        raise CarrierLostError(f"carrier lost: a_c={amps.a_c} <= {_CARRIER_FLOOR}")
    return (amps.a_90 - amps.a_150) / amps.a_c


def ddm_deviation(est: float, truth: float) -> float:
    """Absolute error of a DDM estimate against the configured truth."""
    if not (np.isfinite(est) and np.isfinite(truth)):
        raise ValueError(f"inputs must be finite, got est={est} truth={truth}")
    return abs(est - truth)
