"""Reference-tone equalization: the regularized division and blind-spot flags.

The modulator estimate comes from the tone band of the received spectrum,
demodulated to baseband with unit scaling (the engine in ``pipeline`` does
that by a bin shift). Equalization divides the signal band by that estimate
with a relative magnitude floor so a ringing, band-limited estimate cannot
blow up the quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, eval_modulator
from .errors import ToneAbsentError
from .signals import SampleClock, check_finite
from .spectral import BandSpec, dft_bins, dft_twiddles

# a tone band this far below the capture's energy holds only FFT roundoff
_TONE_FLOOR = 1e-24

CRITICAL_FREQS = (90.0, 150.0)
# a critical frequency is flagged when its modulator bin exceeds this fraction of the DC bin
BLIND_SPOT_THRESHOLD = 0.01


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


def regularized_divide(s: np.ndarray, g: np.ndarray, eps_rel: float) -> np.ndarray:
    """s * conj(g) / max(|g|^2, floor^2) with floor = eps_rel * max |g|.

    The one |g| pass the floor needs also checks the estimate: a NaN or an
    infinity in ``g`` makes max |g| non-finite, and a finite ``g`` carries
    energy exactly when max |g| > 0, so ``g`` is not scanned again unless
    one of those tests fails. The quotient itself is not checked, and its
    overflows raise no warning: the caller rejects a non-finite one.

    Raises:
        ValueError: ``g`` is not finite or carries no energy.
    """
    with np.errstate(all="ignore"):
        mag = np.abs(g)
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
        out = np.conjugate(g)
        out *= s
        out *= mag
    return out


def critical_twiddles(clock: SampleClock) -> tuple[np.ndarray, ...]:
    """The DFT twiddles ``flag_blind_spots`` reads: 0 Hz, then ``CRITICAL_FREQS``."""
    return dft_twiddles(clock, (0.0, *CRITICAL_FREQS))


def flag_blind_spots(
    twiddles: tuple[np.ndarray, ...], m: np.ndarray, rel_threshold: float = BLIND_SPOT_THRESHOLD
) -> tuple[float, ...]:
    """Critical frequencies f with |G(f)| > rel_threshold * |G(0)|.

    G is the DFT of the modulator samples ``m``, read at the bins of
    ``critical_twiddles``.
    """
    if not rel_threshold > 0:
        raise ValueError(f"rel_threshold must be > 0, got {rel_threshold}")
    bins = dft_bins(twiddles, m)
    ref = abs(bins[0])
    return tuple(f for f, b in zip(CRITICAL_FREQS, bins[1:]) if abs(b) > rel_threshold * ref)


def predict_blind_spots(
    cfg: ChannelConfig, clock: SampleClock, rel_threshold: float = BLIND_SPOT_THRESHOLD
) -> tuple[float, ...]:
    """Critical frequencies where the modulator itself has spectral content.

    A frequency f is flagged when |G(f)| > rel_threshold * |G(0)| for the
    noiseless aggregate-gain spectrum G. Inverting such a modulator injects
    energy at f into every signal component, so equalization can interfere
    with the very tones it is meant to protect.
    """
    m = eval_modulator(cfg, clock).samples
    return flag_blind_spots(critical_twiddles(clock), m, rel_threshold)
