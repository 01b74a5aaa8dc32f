"""The staged engine behind every run: sweeps, single simulations and stage dumps.

One run is synth -> channel -> FFT -> extract -> equalize -> DDM. Across the
runs of a sweep most of that work is shared, so the engine computes each
product once, at the outermost layer it depends on:

* per scenario (``Pipeline``): the transmit's six spectral lines c_k (the
  carrier, the 90 and 150 Hz tones at +-f, and the reference tone), one
  period of the transmit built from them in closed form (3200 samples on the
  default clock), which feeds the finiteness check and the noise power; for
  each band bin j the bins j-k of the modulator spectrum that each line k
  gathers; the signed bin offsets of both bands, their polyphase IFFT plans
  (``BandIfft``), and the DFT twiddles of the DDM bins, among which the
  blind-spot bins read theirs;
* per rate (``Modulated``): the modulator m, its rfft M and the band bins of
  FFT(tx*m)[j] = sum_k c_k M[j-k], gathered line by line; the noise scale
  and, by Parseval, the norm ||FFT(tx*m)||, both from mean|tx*m|^2 with tx
  tiled by its period; and the blind-spot flags. Then, once per seed block,
  the two band series of those clean bins (s_c, g_c; see ``Pipeline.series``);
* per seed (``Noise``): the unit noise spectrum W, of which only the band
  bins and the norm are kept;
* per seed block: the two band series of each seed's unit noise bins (s_w,
  g_w). A block holds as many seeds as ``NOISE_BLOCK_BYTES`` allows, 5 on the
  default 32000-point clock, so the engine holds O(N x block + seeds x band
  bins), never a seeds x N table;
* per run: two axpys, s = s_c + scale*s_w and g_hat = g_c + scale*g_w, the
  regularized division and a DFT of the five DDM bins of the quotient.

``sweep`` returns the records the emitters read, in grid order: a
``RunResult`` per run and a ``FpSummary`` of medians and flags per rate.

The FFT is linear, so a run's received spectrum is FFT(tx*m) + scale*W, and
so are its band bins. The band IFFT is linear too, so the run's series are
the sums above to roundoff: the default 51-rate, 10-seed sweep makes
2*51*2 + 2*10 = 224 band IFFTs, not 2 per run. A grid with a single rate or
a single seed, or without noise, shares no series, so each of its runs makes
the two band IFFTs of its own received bins, as ``Pipeline.equalized`` does.
A band IFFT is a batch of short P-point transforms (50 of 640 points on the
default clock). The tone band is demodulated by shifting its bins to
baseband before its IFFT, so no carrier is multiplied in. The raw DDM is
read from the received signal-band bins directly.

No run synthesizes the transmit sample by sample, and no run draws its full
received spectrum: the tone-absence check reads the band bins and the two
norms the run already holds. Only the ``rx`` dump (``rx_spectrum``) builds
the received spectrum, from the synthesized transmit.

A run makes no full-length pass for its checks alone. The divider's one
|g_hat| pass, which sets the floor, also rejects a g_hat that is not finite
or carries no energy, and it multiplies by the reciprocal of the floored
|g_hat|^2. The quotient is checked through its five DDM bins: each bin sums
every sample, so a non-finite sample makes every bin non-finite.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channel import (
    check_seed,
    eval_modulator,
    mean_power,
    modulator_spectrum,
    noise_scale,
    power_noise_scale,
    unit_noise,
)
from .equalizer import CRITICAL_FREQS, flag_blind_spots, regularized_divide
from .errors import ToneAbsentError
from .metrics import DDM_FREQS, amplitudes_from_bins, compute_ddm
from .signals import SampleBuffer, check_finite, synth_ils, synth_tone
from .spectral import (
    BandIfft,
    Spectrum,
    band_offsets,
    bin_index,
    dft_bins,
    dft_twiddles,
    forward_fft,
    root_powers,
)

if TYPE_CHECKING:
    from .harness import ScenarioConfig

STAGES = ("modulator", "rx", "equalized")

# the unit noise series a sweep holds at once: 5 seeds' signal and tone
# series on the default 32000-point clock, fewer seeds on a longer capture
NOISE_BLOCK_BYTES = 5 * 2**20
# the most threads a sweep may ask for; its pool starts min(workers, rates)
MAX_WORKERS = 64


def seeds_per_block(n: int) -> int:
    """How many seeds' noise series of ``n`` samples a sweep holds at once."""
    return max(1, NOISE_BLOCK_BYTES // (2 * n * np.dtype(np.complex128).itemsize))


@dataclass(frozen=True)
class Modulated:
    """Products of one modulator, shared by the runs of every seed."""

    f_p_hz: float  # the first propeller's rate, which a sweep gives every propeller
    scale: float  # noise deviation per component; 0 without noise
    signal: np.ndarray  # clean bins of the signal band
    tone: np.ndarray  # clean bins of the tone band
    norm: float  # ||FFT(tx * m)||
    flags: tuple[float, ...]  # the modulator's blind spots


@dataclass(frozen=True)
class Noise:
    """The band bins and norm of one seed's unit noise spectrum."""

    signal: np.ndarray
    tone: np.ndarray
    norm: float


def _transmit_lines(cfg: ScenarioConfig) -> tuple[list[int], list[complex]]:
    """The transmit's six spectral lines: their bins k (mod N) and amplitudes c_k.

    tx[t] = sum_k c_k exp(2*pi*i*k*t/N). The real ILS puts a_c at 0 Hz and
    splits each AM tone into conjugate halves at +-90 and +-150 Hz; the
    reference tone is one line at its offset. The scenario requires every
    one of them to be an exact bin.
    """
    ils, tone = cfg.ils, cfg.tone
    half_90 = ils.a_90 / 2 * np.exp(1j * ils.phase_90)
    half_150 = ils.a_150 / 2 * np.exp(1j * ils.phase_150)
    lines = {
        0.0: complex(ils.a_c),
        90.0: half_90,
        -90.0: np.conj(half_90),
        150.0: half_150,
        -150.0: np.conj(half_150),
        tone.offset_hz: tone.amp * np.exp(1j * tone.phase),
    }
    return [bin_index(cfg.clock, f) for f in lines], list(lines.values())


def _norm(bins: np.ndarray) -> float:
    # not np.linalg.norm: its BLAS threads spin on the other cores between calls.
    # A norm too large for a float is inf, which the run's checks reject.
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(np.abs(bins) ** 2)))


class Pipeline:
    """Per-scenario products, read-only once built and shared across threads."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        clock = cfg.clock
        n = clock.n_samples
        bins, amps = _transmit_lines(cfg)
        # one period of the transmit, P = N/g samples for g = gcd(N, bins):
        # sum_k c_k exp(2 pi i (k/g)*t/P), the exponent reduced modulo P in
        # integers and read from one table of P-th roots of unity. Amplitudes
        # near the float limit overflow here; the check rejects them, unwarned.
        g = math.gcd(n, *bins)
        t = np.arange(n // g)
        roots = root_powers(len(t), 1, len(t))
        with np.errstate(over="ignore", invalid="ignore"):
            self._tx_period = sum(c * roots[k // g * t % len(t)] for k, c in zip(bins, amps))
        check_finite(self._tx_period, "transmitted samples")
        signal = band_offsets(clock, cfg.signal_band)
        tone = band_offsets(clock, cfg.tone_band)
        self._signal_idx = signal % n
        self._tone_idx = tone % n
        # bin j of FFT(tx*m) is sum_k c_k M[j-k]: each band bin gathers the
        # rfft M of the real modulator at j-k mod N, conjugated above N/2
        r = (np.concatenate([signal, tone])[None, :] - np.array(bins)[:, None]) % n
        self._upper = r > n // 2
        self._gather = np.where(self._upper, n - r, r)
        self._amps = np.array(amps)[:, None]
        self._signal_ifft = BandIfft(n, signal)
        # demodulating is shifting the tone bins down by the tone's bin k0 and
        # scaling them by the carrier's exp(-i*phase)/amp; no carrier is built
        k0 = bin_index(clock, cfg.tone.offset_hz)
        shifted = tone - (k0 - n if k0 > n // 2 else k0)
        same = np.array_equal(shifted, signal)  # the default bands share one plan
        self._tone_ifft = self._signal_ifft if same else BandIfft(n, shifted)
        self._tone_gain = np.exp(-1j * cfg.tone.phase) / cfg.tone.amp
        # where each DDM bin sits in the signal band, whose offsets run from
        # signal[0] (the band holds 0 Hz, so it is never empty); a bin outside
        # the band reads the 0 appended after it, as the windowed spectrum would
        ddm = [bin_index(clock, f) for f in DDM_FREQS]
        pos = [(k - n if k > n // 2 else k) - signal[0] for k in ddm]
        self._ddm_pos = [j if 0 <= j < len(signal) else len(signal) for j in pos]
        self._ddm_twiddles = dft_twiddles(clock, DDM_FREQS)
        # the blind-spot bins (0, 90 and 150 Hz) are DDM bins, and these are
        # the rows critical_twiddles builds for them
        self._critical_twiddles = tuple(
            self._ddm_twiddles[DDM_FREQS.index(f)] for f in (0.0, *CRITICAL_FREQS)
        )

    def modulate(self, f_p: float | None = None) -> Modulated:
        """The scenario's modulator, with every propeller at ``f_p`` if given."""
        channel = self.cfg.channel if f_p is None else self.cfg.channel.with_rate(f_p)
        m = eval_modulator(channel, self.cfg.clock)
        # a loud transmit overflows here; the checks reject what is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            spec = np.fft.rfft(m)[self._gather]
            np.conjugate(spec, out=spec, where=self._upper)
            spec *= self._amps
            bins = spec.sum(axis=0)
            # mean |tx*m|^2 of the product itself: |tx|^2 * m^2 can be inf * 0
            clean = m.reshape(-1, len(self._tx_period)) * self._tx_period
        check_finite(bins, "bins")
        power = mean_power(clean)
        if not power < math.inf:
            check_finite(clean, "samples")  # the product itself overflowed
        snr_db = self.cfg.channel.snr_db
        width = len(self._signal_idx)
        return Modulated(
            f_p_hz=float(channel.propellers[0].f_p),
            scale=0.0 if snr_db is None else power_noise_scale(power, snr_db),
            signal=bins[:width],
            tone=bins[width:],
            norm=self.cfg.clock.n_samples * np.sqrt(power),  # Parseval
            flags=flag_blind_spots(self._critical_twiddles, m),
        )

    def noise(self, seed: int) -> Noise | None:
        """The seed's unit noise stage; None when the scenario is noiseless."""
        check_seed(seed)
        if self.cfg.channel.snr_db is None:
            return None
        # unit noise is finite, and so is its spectrum: nothing to check. The
        # transform overwrites the draws, so no second capture-length array is made
        spec = unit_noise(seed, self.cfg.clock.n_samples)
        np.fft.fft(spec, out=spec)
        return Noise(spec[self._signal_idx], spec[self._tone_idx], _norm(spec))

    def series(self, signal: np.ndarray, tone: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The band IFFTs of signal-band and tone-band bins, written to ``out``'s two rows.

        Row 0 is the signal series, row 1 the tone band demodulated to a unit
        tone: for a run's received bins, its estimate g_hat. ``out`` is a
        C-contiguous complex (2, N) array. A tone too faint for its band
        overflows here without a warning; the divider's |g_hat| pass rejects it.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            self._tone_ifft(tone * self._tone_gain, out[1])
        self._signal_ifft(signal, out[0])
        return out

    def run(
        self,
        mod: Modulated,
        noise: Noise | None,
        parts: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[float, float]:
        """(ddm_raw, ddm_eq) of one run.

        ``parts`` are the ``series`` of ``mod``'s clean bins and of ``noise``'s
        unit bins. Given them, the run's series are their sum
        clean + scale*unit, which by linearity equals the band IFFTs of its
        received bins to roundoff; otherwise the run makes those IFFTs.
        """
        signal, tone = self._receive(mod, noise)
        ddm_raw = compute_ddm(self._amplitudes(np.append(signal, 0)[self._ddm_pos]))
        bins = dft_bins(self._ddm_twiddles, self._equalize(mod, noise, signal, tone, parts))
        # every sample enters every bin, so a non-finite sample shows here
        check_finite(bins, "equalized samples")
        return ddm_raw, compute_ddm(self._amplitudes(bins))

    def equalized(self, mod: Modulated, noise: Noise | None) -> SampleBuffer:
        """The equalized capture of one run."""
        q = self._equalize(mod, noise, *self._receive(mod, noise))
        check_finite(q, "equalized samples")
        return SampleBuffer(self.cfg.clock, q)

    def _amplitudes(self, bins: np.ndarray):
        return amplitudes_from_bins(bins, self.cfg.clock.n_samples)

    def _receive(self, mod: Modulated, noise: Noise | None) -> tuple[np.ndarray, np.ndarray]:
        """The received signal-band and tone-band bins, in ascending frequency."""
        signal, tone = mod.signal, mod.tone
        if noise is not None:
            signal = signal + mod.scale * noise.signal
            tone = tone + mod.scale * noise.tone
        check_finite(signal, "received bins")
        check_finite(tone, "received bins")
        return signal, tone

    def _equalize(
        self,
        mod: Modulated,
        noise: Noise | None,
        signal: np.ndarray,
        tone: np.ndarray,
        parts: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """The quotient of one run, not yet checked to be finite."""
        self._check_tone_energy(mod, noise, tone)
        if parts is None:
            n = self.cfg.clock.n_samples
            s, g = self.series(signal, tone, np.empty((2, n), dtype=np.complex128))
        else:
            # the unit tone series carries 1/amp, so a faint tone can overflow
            # here; the divider's |g_hat| pass and the DDM bins reject it, unwarned
            clean, unit = parts
            with np.errstate(over="ignore", invalid="ignore"):
                s, g = unit * mod.scale + clean
        return regularized_divide(s, g, self.cfg.reg.eps_rel)

    def _check_tone_energy(self, mod: Modulated, noise: Noise | None, tone: np.ndarray) -> None:
        # The received energy ||S + scale*W||^2 is ||S||^2 + scale^2*||W||^2
        # plus a cross term whose mean is 0. A tone band at most 1e-24 of that
        # holds only FFT roundoff. A capture can be so loud that its energy
        # overflows, and then nothing is decided.
        noise_norm = 0.0 if noise is None else noise.norm
        with np.errstate(over="ignore"):
            band_energy = float(np.sum(np.abs(tone) ** 2))
            total = float(np.square(mod.norm) + np.square(mod.scale * noise_norm))
        if not total < math.inf:
            raise ValueError("received energy must be finite")
        if band_energy <= 1e-24 * total:
            band = self.cfg.tone_band
            raise ToneAbsentError(f"no energy in tone band [{band.lo_hz}, {band.hi_hz}] Hz")


@dataclass(frozen=True)
class RunResult:
    """Raw and equalized DDM for one (rotation rate, seed) realization."""

    f_p_hz: float
    seed: int
    ddm_raw: float
    ddm_eq: float
    dev_raw: float
    dev_eq: float


@dataclass(frozen=True)
class FpSummary:
    """Per-grid-point medians across seeds, plus blind-spot flags."""

    f_p_hz: float
    median_dev_raw: float
    median_dev_eq: float
    flagged_freqs: tuple[float, ...]


@dataclass(frozen=True)
class SweepResult:
    """All runs of a rotation-rate sweep in deterministic grid order."""

    results: tuple[RunResult, ...]
    summaries: tuple[FpSummary, ...]

    @property
    def blind_spots(self) -> tuple[float, ...]:
        return tuple(s.f_p_hz for s in self.summaries if s.flagged_freqs)


def sweep(
    cfg: ScenarioConfig,
    rates: Sequence[float | None],
    seeds: Sequence[int],
    workers: int,
) -> SweepResult:
    """One ``RunResult`` per (rate, seed) and one ``FpSummary`` per rate, in grid order.

    A rate of None keeps the scenario's own propeller rates. Each rate's
    ``Modulated`` is built once, then each seed block runs one task per rate;
    with ``workers`` > 1 the tasks run on threads that share the read-only
    scenario and noise products, and their results are read in grid order,
    so every number is the same as in a serial sweep.

    With noise, more than one rate and more than one seed, the seeds run in
    blocks of ``seeds_per_block``: each block's noise series are made once,
    then each rate's task makes its clean series once for the block, and
    every run sums the two. Otherwise nothing is shared, there is one block,
    and each run makes its own band IFFTs.
    """
    if len(seeds) == 0:
        raise ValueError("seeds must be non-empty")
    if not workers >= 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be <= {MAX_WORKERS}, got {workers}")
    pipe = Pipeline(cfg)
    noises = [pipe.noise(s) for s in seeds]
    shared = len(rates) > 1 and len(seeds) > 1 and cfg.channel.snr_db is not None
    n = cfg.clock.n_samples
    size = seeds_per_block(n) if shared else len(seeds)
    # one block's unit noise series, reused by every block: fresh arrays per
    # block cost a default sweep about a hundred times the page faults
    units = np.empty((min(size, len(seeds)), 2, n), dtype=np.complex128) if shared else None

    def runs(block, block_units, mod):
        if block_units is None:
            return [pipe.run(mod, w) for w in block]
        clean = pipe.series(mod.signal, mod.tone, np.empty((2, n), dtype=np.complex128))
        return [pipe.run(mod, w, (clean, u)) for w, u in zip(block, block_units)]

    per_rate: list[list[tuple[float, float]]] = [[] for _ in rates]
    k = min(workers, len(rates))
    with ThreadPoolExecutor(max_workers=k) as pool:
        each = pool.map if k > 1 else map
        mods = list(each(pipe.modulate, rates))
        for b in range(0, len(seeds), size):
            block = noises[b : b + size]
            block_units = None if units is None else [
                pipe.series(w.signal, w.tone, u) for w, u in zip(block, units)
            ]
            for acc, r in zip(per_rate, each(functools.partial(runs, block, block_units), mods)):
                acc += r

    truth = cfg.ils.ddm
    results: list[RunResult] = []
    summaries = []
    for mod, pairs in zip(mods, per_rate):
        records = [RunResult(mod.f_p_hz, seed, raw, eq, abs(raw - truth), abs(eq - truth))
                   for seed, (raw, eq) in zip(seeds, pairs)]
        results += records
        summaries.append(FpSummary(mod.f_p_hz, float(np.median([r.dev_raw for r in records])),
                                   float(np.median([r.dev_eq for r in records])), mod.flags))
    return SweepResult(tuple(results), tuple(summaries))


def rx_spectrum(cfg: ScenarioConfig, seed: int | None) -> Spectrum:
    """The scenario's full received spectrum with ``seed``'s noise; None adds none.

    The engine keeps only band bins, so this synthesizes the transmit and
    computes FFT(tx*m), as the reference chain does.
    """
    clock, snr_db = cfg.clock, cfg.channel.snr_db
    # a loud transmit overflows here, unwarned; the checks reject what is not finite
    with np.errstate(over="ignore"):
        tx = synth_ils(cfg.ils, clock).samples + synth_tone(cfg.tone, clock).samples
        check_finite(tx, "transmitted samples")
        clean = tx * eval_modulator(cfg.channel, clock)
    spec = forward_fft(SampleBuffer(clock, clean))
    if seed is None or snr_db is None:
        return spec
    noisy = spec.bins + noise_scale(clean, snr_db) * np.fft.fft(unit_noise(seed, clock.n_samples))
    return Spectrum(clock, noisy)


def stage_spectrum(cfg: ScenarioConfig, stage: str) -> Spectrum:
    """The modulator, received or equalized spectrum of the scenario's run."""
    if stage == "modulator":
        return modulator_spectrum(cfg.channel, cfg.clock)
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
    seed = cfg.channel.rng_seed
    if stage == "rx":
        return rx_spectrum(cfg, seed)
    pipe = Pipeline(cfg)
    return forward_fft(pipe.equalized(pipe.modulate(), pipe.noise(seed)))
