"""Multi-propeller cyclic gain modulation and the AWGN receive channel.

Each propeller contributes a periodic real gain g evaluated once per output
sample; the aggregate modulator is the coefficient-weighted sum over
propellers, with coefficients normalized so an all-unity g stays unit gain.
Reception multiplies the transmit buffer by the aggregate gain and then adds
seeded complex circular Gaussian noise at a configured SNR.

The default square-wave shape (duty 0.3, levels 0.5/1.0) is strictly
positive, so dividing by its band-limited estimate stays well conditioned,
and it carries a strong 4th harmonic, which is what turns rotation rates of
22.5 and 37.5 Hz into equalization blind spots at the 90/150 Hz ILS tones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .signals import SampleBuffer, SampleClock
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
    k = np.arange(clock.n_samples)
    frac = np.mod(k * (f_p / clock.rate_hz) - phase / (2 * np.pi), 1.0)
    frac = np.round(frac * _FRAC_SNAP) / _FRAC_SNAP
    return np.where(frac >= 1.0, frac - 1.0, frac)


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
    """Reject an SNR whose power ratio 10**(snr_db/10) is not a positive finite float."""
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(
            f"snr_db {snr_db} is out of range: 10**(snr_db/10) must be a positive finite float"
        )


def check_seed(seed: int) -> None:
    """Reject a noise seed that is not a non-negative int."""
    if type(seed) is not int or seed < 0:
        raise ValueError(f"rng_seed must be a non-negative int, got {seed}")


def eval_modulator(cfg: ChannelConfig, clock: SampleClock) -> SampleBuffer:
    """Aggregate gain m[k] = sum_p coeff_p * g_p(2*pi*f_p*t_k - phase_p).

    Returned as a real-valued buffer (imaginary part exactly zero) so it can
    feed the same spectral tooling as the captures it modulates.
    """
    m = np.zeros(clock.n_samples)
    for p in cfg.propellers:
        m += p.coeff * p.shape.cycle_gain(_cycle_frac(p.f_p, p.phase, clock))
    return SampleBuffer(clock, m.astype(np.complex128))


def noise_scale(clean: np.ndarray, snr_db: float) -> float:
    """Per-component noise deviation: P_noise = mean(|clean|^2) / 10^(snr_db/10)."""
    p_sig = float(np.mean(np.abs(clean) ** 2))
    p_noise = p_sig / 10.0 ** (snr_db / 10.0)
    return np.sqrt(p_noise / 2.0)


def unit_noise(seed: int, n: int) -> np.ndarray:
    """The seed's complex Gaussian noise with unit variance per component."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def apply_channel(tx: SampleBuffer, cfg: ChannelConfig) -> SampleBuffer:
    """Modulate ``tx`` by the aggregate gain, then add seeded AWGN.

    Noise power is set relative to the post-modulation signal power:
    P_noise = mean(|tx*m|^2) / 10^(snr_db/10). With ``snr_db`` None the
    channel is noiseless and the output is exactly tx*m.
    """
    m = eval_modulator(cfg, tx.clock)
    rx = tx.samples * m.samples.real
    if cfg.snr_db is not None:
        rx = rx + noise_scale(rx, cfg.snr_db) * unit_noise(cfg.rng_seed, tx.clock.n_samples)
    return SampleBuffer(tx.clock, rx)


def modulator_spectrum(cfg: ChannelConfig, clock: SampleClock) -> Spectrum:
    """Spectrum of the aggregate gain over the capture window."""
    return forward_fft(eval_modulator(cfg, clock))
