"""Multi-propeller cyclic gain modulation and the AWGN receive channel.

Each propeller contributes a periodic real gain g evaluated once per output
sample; the aggregate modulator is the coefficient-weighted sum over
propellers, with coefficients normalized so an all-unity g stays unit gain.
The receive channel adds seeded complex circular Gaussian noise at a configured
SNR. The engine in ``pipeline`` applies both, and forms every spectrum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .signals import SampleClock, check_finite, check_finite_fields

_COEFF_NORM_TOL = 1e-12


@dataclass(frozen=True)
class SquareWave:
    """Two-level chop: gain is ``lo`` for the first ``duty`` of each cycle."""

    # the default chop. Levels 0.5/1.0 keep it strictly positive, so dividing by
    # its band-limited estimate stays well conditioned. Duty 0.3 keeps the 3rd
    # and 7th harmonics weak (few spurious blind-spot flags on the half-Hz sweep
    # grid) and the 4th strong, which makes rotation rates of 22.5 and 37.5 Hz
    # equalization blind spots at the 90/150 Hz ILS tones
    duty: float = 0.3
    lo: float = 0.5
    hi: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {self.duty}")
        if not 0.0 < self.lo <= self.hi:
            raise ValueError(f"need 0 < lo <= hi, got lo={self.lo} hi={self.hi}")
        check_finite_fields(self)

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
        check_finite_fields(self)


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
        if not total < math.inf:
            raise ValueError(f"propeller coefficients must have a finite sum, got {total}")
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

    A rate that aliases on ``clock`` is rejected first, and gains too large
    for their sum to be a float are rejected, unwarned.
    """
    for p in cfg.propellers:
        check_rate(p.f_p, clock)
    m = np.zeros(clock.n_samples)
    with np.errstate(over="ignore"):
        for p in cfg.propellers:
            # scaled in place, so each propeller makes one fresh array, not two
            gain = p.shape.cycle_gain(_cycle_frac(p.f_p, p.phase, clock))
            gain *= p.coeff
            m += gain
    check_finite(m, "samples")
    return m


def power_noise_scale(p_sig: float, snr_db: float) -> float:
    """Per-component noise deviation: P_noise = p_sig / 10^(snr_db/10), split over re and im.

    The scale is a numpy float, so arithmetic on it overflows to inf instead
    of raising.
    """
    return np.sqrt(p_sig / 10.0 ** (snr_db / 10.0) / 2.0)


def unit_noise(seed: int, n: int) -> np.ndarray:
    """The seed's complex Gaussian noise with unit variance per component."""
    rng = np.random.default_rng(seed)
    out = np.empty(n, dtype=np.complex128)
    # the imaginary parts are drawn into the real parts' array, which the
    # same stream fills as a fresh draw would
    draw = rng.standard_normal(n)
    out.real = draw
    out.imag = rng.standard_normal(out=draw)
    return out
