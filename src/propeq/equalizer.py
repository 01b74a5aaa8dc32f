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
from .signals import SampleClock, check_finite
from .spectral import dft_bins, dft_twiddles

CRITICAL_FREQS = (90.0, 150.0)
# the modulator bins a blind-spot flag reads: 0 Hz, the level it compares with, then CRITICAL_FREQS
FLAG_FREQS = (0.0, *CRITICAL_FREQS)
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


def divisor(g: np.ndarray, eps_rel: float, out: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """r = 1/max(|g|^2, floor^2) with floor = eps_rel * max |g|, written to ``out``.

    ``regularized_divide`` then makes the quotient. |g|^2 is formed with
    no hypot: ``g``'s float view is squared into ``squares`` (2N floats,
    which the caller may reuse afterwards) and each re^2, im^2 pair is added
    into ``out`` (N floats).

    The max that the floor needs also checks the estimate: a NaN or an
    infinity in ``g`` makes it non-finite, and a finite ``g`` carries
    energy exactly when max |g| > 0, so ``g`` is not scanned again unless
    one of those tests fails. On a finite ``g`` whose |g|^2 overflows, the
    floor is taken from |g| itself. It enters no ``np.errstate``: call it
    under one that ignores overflow and invalid operations, as the engine's
    run kernel does, then ``regularized_divide``.

    Raises:
        ValueError: ``g`` is not finite or carries no energy.
    """
    np.square(g.view(np.float64), out=squares)
    np.add(squares[0::2], squares[1::2], out=out)
    peak = math.sqrt(float(np.max(out)))
    if not peak < math.inf:
        check_finite(g, "g_hat")
        peak = float(np.max(np.abs(g)))  # can itself overflow on a finite g
    if not peak / out.size > 0:
        check_estimate(g)  # the mean of |g| underflows to 0 only below this
    floor_sq = np.float64(eps_rel * peak) ** 2
    np.maximum(out, floor_sq, out=out)
    return np.reciprocal(out, out=out)


def regularized_divide(s: np.ndarray, g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """s * conj(g) / max(|g|^2, floor^2), written over ``g``, where r = ``divisor(g, ...)``.

    numpy divides by the complex c + 0j as a * (1/c), so multiplying by the
    reciprocal r gives the quotient bit for bit. Like ``divisor``, it enters
    no ``np.errstate``. The quotient is not checked: the caller rejects a
    non-finite one.
    """
    np.conjugate(g, out=g)
    g *= s
    g *= r
    return g


def flag_blind_spots(
    bins: np.ndarray, rel_threshold: float = BLIND_SPOT_THRESHOLD
) -> tuple[float, ...]:
    """Critical frequencies f with |G(f)| > rel_threshold * |G(0)|.

    ``bins`` holds G, the DFT of the modulator samples, at ``FLAG_FREQS``.
    """
    if not rel_threshold > 0:
        raise ValueError(f"rel_threshold must be > 0, got {rel_threshold}")
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
    bins = dft_bins(dft_twiddles(clock, FLAG_FREQS), eval_modulator(cfg, clock))
    return flag_blind_spots(bins, rel_threshold)
