"""ILS tone amplitude estimation and DDM.

Amplitudes are read from exact DFT bins, no neighborhood summation: on the
default clock every tone is an integer bin, and any leakage into those bins
caused by channel modulation is precisely the impairment being measured, so
the estimator must not smooth it away. Only the five bins in ``DDM_FREQS``
are needed, so the engine computes them directly (``spectral.dft_bins``)
rather than by a full FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CarrierLostError
from .signals import check_finite_fields, fields_of

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
        for name, _, _ in fields_of(type(self)):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        check_finite_fields(self)


def amplitudes_from_bins(bins: np.ndarray, n: int) -> ToneAmplitudes:
    """Amplitudes from the unnormalized DFT bins at ``DDM_FREQS`` of an n-sample capture.

    a_c = |X[0]|/N, a_f = (|X[+f]|+|X[-f]|)/N.
    """
    return ToneAmplitudes(
        a_c=float(abs(bins[0])) / n,
        a_90=float(abs(bins[1]) + abs(bins[2])) / n,
        a_150=float(abs(bins[3]) + abs(bins[4])) / n,
    )


def compute_ddm(amps: ToneAmplitudes) -> float:
    """Difference in depth of modulation, (a_90 - a_150) / a_c (unitless)."""
    if amps.a_c <= _CARRIER_FLOOR:
        raise CarrierLostError(f"carrier lost: a_c={amps.a_c} <= {_CARRIER_FLOOR}")
    return (amps.a_90 - amps.a_150) / amps.a_c
