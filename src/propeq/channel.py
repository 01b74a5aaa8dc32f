"""Multi-propeller cyclic gain modulation and the AWGN receive channel.

Each propeller contributes a periodic real gain g evaluated once per output
sample; the aggregate modulator is the coefficient-weighted sum over
propellers, with coefficients normalized so an all-unity g stays unit gain.
Reception multiplies the transmit buffer by the aggregate gain and then adds
seeded complex circular Gaussian noise at a configured SNR (the engine in
``pipeline`` adds it in the frequency domain).

The default square-wave shape (duty 0.3, levels 0.5/1.0) is strictly
positive, so dividing by its band-limited estimate stays well conditioned,
and it carries a strong 4th harmonic, which is what turns rotation rates of
22.5 and 37.5 Hz into equalization blind spots at the 90/150 Hz ILS tones.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .signals import SampleBuffer, SampleClock, check_finite
from .spectral import Spectrum, forward_fft

_COEFF_NORM_TOL = 1e-12


@dataclass(frozen=True)
class SquareWave:
    """Two-level chop: gain is ``lo`` for the first ``duty`` of each cycle."""

    duty: float = 0.3
    lo: float = 0.5
    hi: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {self.duty}")
        if not 0.0 < self.lo <= self.hi:
            raise ValueError(f"need 0 < lo <= hi, got lo={self.lo} hi={self.hi}")

    def cycle_gain(self, frac: np.ndarray) -> np.ndarray:
        # left-closed: frac == 0 is the low level, frac == duty the high one
        return np.where(frac < self.duty, self.lo, self.hi)


@dataclass(frozen=True)
class SineRipple:
    """Smooth ripple g = 1 + beta*cos(theta); band-limited by construction."""

    beta: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")

    def cycle_gain(self, frac: np.ndarray) -> np.ndarray:
        return 1.0 + self.beta * np.cos(2 * np.pi * frac)


@dataclass(frozen=True)
class CustomCycle:
    """One period of gain samples, tiled with zero-order hold."""

    gains: tuple[float, ...]

    def __post_init__(self) -> None:
        gains = tuple(float(g) for g in self.gains)
        if len(gains) == 0:
            raise ValueError("gains must be non-empty")
        if not all(np.isfinite(g) for g in gains):
            raise ValueError("gains must be finite")
        object.__setattr__(self, "gains", gains)

    def cycle_gain(self, frac: np.ndarray) -> np.ndarray:
        table = np.asarray(self.gains)
        idx = np.minimum((frac * len(table)).astype(np.intp), len(table) - 1)
        return table[idx]


Shape = SquareWave | SineRipple | CustomCycle

_FRAC_SNAP = 1e12


def _cycle_frac(f_p: float, phase: float, clock: SampleClock) -> np.ndarray:
    """Cycle fraction in [0, 1) per sample, rounded to 1e-12 of a cycle.

    The snap keeps samples that sit exactly on a level transition on the
    side the left-closed contract demands, instead of flipping on the last
    bit of floating-point roundoff; it also keeps integer-period rates
    exactly periodic across the capture.
    """
    frac = np.arange(clock.n_samples, dtype=np.float64)
    frac *= f_p / clock.rate_hz
    frac -= phase / (2 * np.pi)
    # x - floor(x) is np.mod(x, 1.0) bit for bit: both round the same real
    # value once. The passes write in place, so no fresh capture-length
    # array is allocated (and page-faulted in) per pass
    frac -= np.floor(frac)
    frac *= _FRAC_SNAP
    np.round(frac, out=frac)
    frac /= _FRAC_SNAP
    np.subtract(frac, 1.0, out=frac, where=frac >= 1.0)
    return frac


@dataclass(frozen=True)
class PropellerModel:
    """One cyclic modulator: shape, rotation-rate frequency, phase, weight."""

    shape: Shape
    f_p: float = 30.0
    phase: float = 0.0
    coeff: float = 1.0

    def __post_init__(self) -> None:
        if not self.f_p > 0:
            raise ValueError(f"f_p must be > 0, got {self.f_p}")
        if not self.coeff > 0:
            raise ValueError(f"coeff must be > 0, got {self.coeff}")


@dataclass(frozen=True)
class ChannelConfig:
    """Propeller set plus optional AWGN level; coefficients sum to 1."""

    propellers: tuple[PropellerModel, ...]
    snr_db: float | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        props = tuple(self.propellers)
        if len(props) == 0:
            raise ValueError("propellers must be non-empty")
        total = sum(p.coeff for p in props)
        if abs(total - 1.0) > _COEFF_NORM_TOL:
            props = tuple(replace(p, coeff=p.coeff / total) for p in props)
        object.__setattr__(self, "propellers", props)
        if self.snr_db is not None:
            check_snr(self.snr_db)
        check_seed(self.rng_seed)

    def with_rate(self, f_p: float) -> "ChannelConfig":
        """This channel with every propeller turning at ``f_p`` (a uniform-speed sweep)."""
        return replace(self, propellers=tuple(replace(p, f_p=f_p) for p in self.propellers))


def check_rate(f_p: float, clock: SampleClock) -> None:
    """Reject a rotation rate at or above half the sample rate, where the chop aliases."""
    if not f_p < clock.rate_hz / 2.0:
        nyq = clock.rate_hz / 2.0
        raise ValueError(f"f_p {f_p} Hz must be below half the sample rate, {nyq} Hz")


def check_snr(snr_db: float) -> None:
    """Reject an SNR whose power ratio 10**(snr_db/10) is not a normal finite float.

    A subnormal ratio (snr_db below about -3076.5) would overflow the noise
    power it divides.
    """
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not sys.float_info.min <= ratio < math.inf:
        raise ValueError(
            f"snr_db {snr_db} is out of range: 10**(snr_db/10) must be a normal finite float"
        )


def check_seed(seed: int) -> None:
    """Reject a noise seed that is not a non-negative int."""
    if type(seed) is not int or seed < 0:
        raise ValueError(f"rng_seed must be a non-negative int, got {seed}")


def eval_modulator(cfg: ChannelConfig, clock: SampleClock) -> np.ndarray:
    """Aggregate gain m[k] = sum_p coeff_p * g_p(2*pi*f_p*t_k - phase_p), a float64 array.

    Gains too large for their sum to be a float are rejected, unwarned.
    """
    m = np.zeros(clock.n_samples)
    with np.errstate(over="ignore"):
        for p in cfg.propellers:
            m += p.coeff * p.shape.cycle_gain(_cycle_frac(p.f_p, p.phase, clock))
    check_finite(m, "samples")
    return m


def noise_scale(clean: np.ndarray, snr_db: float) -> float:
    """Per-component noise deviation: P_noise = mean(|clean|^2) / 10^(snr_db/10).

    A capture too loud for its power to be a float gives an infinite scale,
    which the caller rejects, not an overflow warning.
    """
    return power_noise_scale(mean_power(clean), snr_db)


def mean_power(clean: np.ndarray) -> float:
    """mean(|clean|^2); inf, without an overflow warning, for a capture too loud for a float."""
    with np.errstate(over="ignore"):
        return float(np.mean(np.abs(clean) ** 2))


def power_noise_scale(p_sig: float, snr_db: float) -> float:
    """``noise_scale`` of a capture whose mean power is ``p_sig``.

    The scale is a numpy float, so arithmetic on it overflows to inf instead
    of raising.
    """
    return np.sqrt(p_sig / 10.0 ** (snr_db / 10.0) / 2.0)


def unit_noise(seed: int, n: int) -> np.ndarray:
    """The seed's complex Gaussian noise with unit variance per component."""
    rng = np.random.default_rng(seed)
    out = np.empty(n, dtype=np.complex128)
    out.real = rng.standard_normal(n)
    out.imag = rng.standard_normal(n)
    return out


def modulator_spectrum(cfg: ChannelConfig, clock: SampleClock) -> Spectrum:
    """Spectrum of the aggregate gain over the capture window."""
    return forward_fft(SampleBuffer(clock, eval_modulator(cfg, clock)))
