"""Closed-form oracles used by the tests, independent of the FFT pipeline.

The square-wave coefficients come from summing the finite geometric series
of the sampled cycle by hand, so they sidestep every code path they are used
to check (no FFTs, no windowing).
"""

import numpy as np


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
