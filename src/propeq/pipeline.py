"""The staged engine behind every run: sweeps, single simulations and stage dumps.

One run is synth -> channel -> FFT -> extract -> equalize -> DDM. Across the
runs of a sweep most of that work is shared, so the engine computes each
product once, at the outermost layer it depends on:

* per scenario (``Pipeline``): the transmit signal, the signed bin offsets
  of both bands, their polyphase IFFT plans (``BandIfft``), and the DFT
  twiddles of the DDM and blind-spot bins;
* per rate (``Modulated``): the modulator and FFT(tx*m), of which only the
  signal-band and tone-band bins, their norm, the noise scale and the
  blind-spot flags are kept; then, once per seed block, the two band series
  of those clean bins (s_c, g_c; see ``Pipeline.series``);
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
the two band IFFTs of its own received bins, as ``Pipeline.equalized`` does. A band IFFT is a
batch of short P-point transforms (50 of 640 points on the default clock).
The tone band is demodulated by shifting its bins to baseband before its
IFFT, so no carrier is multiplied in. The raw DDM is read from the received
signal-band bins directly. Each thread runs into its own ``Workspace`` of
full-length buffers, so a run allocates no full-length array of its own.

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

from .channel import check_seed, eval_modulator, modulator_spectrum, noise_scale, unit_noise
from .equalizer import (
    critical_twiddles,
    flag_blind_spots,
    regularized_divide,
    tone_absent,
    tone_band_empty,
)
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
)

if TYPE_CHECKING:
    from .harness import ScenarioConfig

STAGES = ("modulator", "rx", "equalized")

# the unit noise series a sweep holds at once: 5 seeds' signal and tone
# series on the default 32000-point clock, fewer seeds on a longer capture
NOISE_BLOCK_BYTES = 5 * 2**20


def seeds_per_block(n: int) -> int:
    """How many seeds' noise series of ``n`` samples a sweep holds at once."""
    return max(1, NOISE_BLOCK_BYTES // (2 * n * np.dtype(np.complex128).itemsize))


@dataclass(frozen=True)
class Modulated:
    """Products of one modulator, shared by the runs of every seed."""

    f_p: float | None  # the rate of every propeller; None keeps the scenario's
    scale: float  # noise deviation per component; 0 without noise
    signal: np.ndarray  # clean bins of the signal band
    tone: np.ndarray  # clean bins of the tone band
    norm: float  # ||FFT(tx * m)||
    flags: tuple[float, ...]  # the modulator's blind spots


@dataclass(frozen=True)
class Noise:
    """The band bins and norm of one seed's unit noise spectrum."""

    seed: int
    signal: np.ndarray
    tone: np.ndarray
    norm: float


def _norm(bins: np.ndarray) -> float:
    # not np.linalg.norm: its BLAS threads spin on the other cores between calls.
    # A norm too large for a float is inf, which the run's checks reject.
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(np.abs(bins) ** 2)))


class Workspace:
    """Full-length buffers one thread reuses for every run it makes."""

    def __init__(self, n: int):
        # rows: the run's signal series and its estimate, which the division
        # then overwrites with the quotient
        self.run = np.empty((2, n), dtype=np.complex128)
        self.mag = np.empty(n)


class Pipeline:
    """Per-scenario products, read-only once built and shared across threads."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        clock = cfg.clock
        n = clock.n_samples
        # amplitudes near the float limit overflow here and in ``modulate``;
        # the finiteness checks reject them, so numpy need not warn
        with np.errstate(over="ignore"):
            self._tx = synth_ils(cfg.ils, clock).samples + synth_tone(cfg.tone, clock).samples
        check_finite(self._tx, "transmitted samples")
        signal = band_offsets(clock, cfg.signal_band)
        tone = band_offsets(clock, cfg.tone_band)
        self._signal_idx = signal % n
        self._tone_idx = tone % n
        self._signal_ifft = BandIfft(n, signal)
        # demodulating is shifting the tone bins down by the tone's bin k0 and
        # scaling them by the carrier's exp(-i*phase)/amp; no carrier is built
        k0 = bin_index(clock, cfg.tone.offset_hz)
        shifted = tone - (k0 - n if k0 > n // 2 else k0)
        same = np.array_equal(shifted, signal)  # the default bands share one plan
        self._tone_ifft = self._signal_ifft if same else BandIfft(n, shifted)
        self._tone_gain = np.exp(-1j * cfg.tone.phase) / cfg.tone.amp
        # where each DDM bin sits in the signal band; a bin outside the band
        # reads the 0 appended after it, as the windowed spectrum would
        pos = {k: j for j, k in enumerate(self._signal_idx)}
        self._ddm_pos = [pos.get(bin_index(clock, f), len(signal)) for f in DDM_FREQS]
        self._ddm_twiddles = dft_twiddles(clock, DDM_FREQS)
        self._critical_twiddles = critical_twiddles(clock)

    def _capture(self, f_p: float | None) -> tuple[np.ndarray, np.ndarray]:
        """The modulator samples m and the noiseless capture tx*m at rate ``f_p``."""
        channel = self.cfg.channel if f_p is None else self.cfg.channel.with_rate(f_p)
        with np.errstate(over="ignore"):
            m = eval_modulator(channel, self.cfg.clock).samples
            return m, self._tx * m.real

    def _noise_scale(self, clean: np.ndarray) -> float:
        snr_db = self.cfg.channel.snr_db
        return 0.0 if snr_db is None else noise_scale(clean, snr_db)

    def modulate(self, f_p: float | None = None) -> Modulated:
        """The scenario's modulator, with every propeller at ``f_p`` if given."""
        m, clean = self._capture(f_p)
        bins = forward_fft(SampleBuffer(self.cfg.clock, clean)).bins
        return Modulated(
            f_p=f_p,
            scale=self._noise_scale(clean),
            signal=bins[self._signal_idx],
            tone=bins[self._tone_idx],
            norm=_norm(bins),
            flags=flag_blind_spots(self._critical_twiddles, m),
        )

    def noise(self, seed: int) -> Noise | None:
        """The seed's unit noise stage; None when the scenario is noiseless."""
        check_seed(seed)
        if self.cfg.channel.snr_db is None:
            return None
        spec = self._noise_spectrum(seed)
        return Noise(seed, spec[self._signal_idx], spec[self._tone_idx], _norm(spec))

    def _noise_spectrum(self, seed: int) -> np.ndarray:
        clock = self.cfg.clock
        return forward_fft(SampleBuffer(clock, unit_noise(seed, clock.n_samples))).bins

    def rx_spectrum(self, f_p: float | None, seed: int | None) -> Spectrum:
        """The full received spectrum at rate ``f_p`` with ``seed``'s noise.

        A rate of None keeps the scenario's own; a seed of None adds no noise.
        A ``Modulated`` keeps only band bins, so this computes FFT(tx*m) again.
        """
        _, clean = self._capture(f_p)
        spec = forward_fft(SampleBuffer(self.cfg.clock, clean))
        if seed is None:
            return spec
        noisy = spec.bins + self._noise_scale(clean) * self._noise_spectrum(seed)
        return Spectrum(self.cfg.clock, noisy)

    def workspace(self) -> Workspace:
        return Workspace(self.cfg.clock.n_samples)

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
        work: Workspace,
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
        bins = dft_bins(self._ddm_twiddles, self._equalize(mod, noise, signal, tone, work, parts))
        # every sample enters every bin, so a non-finite sample shows here
        check_finite(bins, "equalized samples")
        return ddm_raw, compute_ddm(self._amplitudes(bins))

    def equalized(self, mod: Modulated, noise: Noise | None) -> SampleBuffer:
        """The equalized capture of one run."""
        q = self._equalize(mod, noise, *self._receive(mod, noise), self.workspace())
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
        work: Workspace,
        parts: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """The quotient of one run, not yet checked to be finite."""
        self._check_tone_energy(mod, noise, tone)
        if parts is None:
            s, g = self.series(signal, tone, work.run)
        else:
            # the tone-energy check has bounded every received bin, and so
            # every series sample, far below the float limit: this cannot overflow
            clean, unit = parts
            s, g = np.add(clean, np.multiply(unit, mod.scale, out=work.run), out=work.run)
        return regularized_divide(s, g, self.cfg.reg.eps_rel, work.run[1], work.mag)

    def _check_tone_energy(self, mod: Modulated, noise: Noise | None, tone: np.ndarray) -> None:
        # ||S + scale*W|| <= ||S|| + scale*||W||; draw the received spectrum
        # again only when that bound cannot decide. A capture can be so loud
        # that its energy overflows, and then nothing is decided.
        seed, noise_norm = (None, 0.0) if noise is None else (noise.seed, noise.norm)
        with np.errstate(over="ignore"):
            band_energy = float(np.sum(np.abs(tone) ** 2))
            if not tone_band_empty(band_energy, (mod.norm + mod.scale * noise_norm) ** 2):
                return
            total = float(np.sum(np.abs(self.rx_spectrum(mod.f_p, seed).bins) ** 2))
        if not total < math.inf:
            raise ValueError("received energy must be finite")
        if tone_band_empty(band_energy, total):
            raise tone_absent(self.cfg.tone_band)


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

    A rate of None keeps the scenario's own propeller rates. With
    ``workers`` > 1 the rates are split into contiguous chunks, one per
    thread; the threads share the read-only scenario and noise products and
    the chunks are merged in grid order, so every number is the same as in a
    serial sweep.

    With noise, more than one rate and more than one seed, the seeds run in
    blocks of ``seeds_per_block``: each block's noise series are made once,
    then each rate makes its clean series once for the block, and every run
    sums the two. Otherwise nothing is shared and each run makes its own band
    IFFTs.
    """
    if len(seeds) == 0:
        raise ValueError("seeds must be non-empty")
    if not workers >= 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pipe = Pipeline(cfg)
    noises = [pipe.noise(s) for s in seeds]
    k = min(workers, len(rates))
    chunks = [rates[len(rates) * i // k : len(rates) * (i + 1) // k] for i in range(k)]
    works = [pipe.workspace() for _ in chunks]
    mods: list[list[Modulated]] = [[] for _ in chunks]
    shared = len(rates) > 1 and len(seeds) > 1 and cfg.channel.snr_db is not None
    n = cfg.clock.n_samples
    size = seeds_per_block(n) if shared else len(seeds)
    units = np.empty((min(size, len(seeds)), 2, n), dtype=np.complex128) if shared else None
    # each chunk's clean series of its current rate
    cleans = np.empty((k, 2, n), dtype=np.complex128) if shared else [None] * k

    def runs(block, block_units, chunk, chunk_mods, work, clean_out):
        out = []
        for i, f_p in enumerate(chunk):
            if i == len(chunk_mods):  # the first block builds each rate's modulator
                chunk_mods.append(pipe.modulate(f_p))
            mod = chunk_mods[i]
            if block_units is None:
                out.append([pipe.run(mod, w, work) for w in block])
            else:
                clean = pipe.series(mod.signal, mod.tone, clean_out)
                out.append([pipe.run(mod, w, work, (clean, u)) for w, u in zip(block, block_units)])
        return out

    per_rate: list[list[tuple[float, float]]] = [[] for _ in rates]
    with ThreadPoolExecutor(max_workers=k) as pool:
        each = pool.map if k > 1 else map
        for b in range(0, len(seeds), size):
            block = noises[b : b + size]
            block_units = None if units is None else [
                pipe.series(w.signal, w.tone, u) for w, u in zip(block, units)
            ]
            parts = each(functools.partial(runs, block, block_units), chunks, mods, works, cleans)
            for acc, r in zip(per_rate, (r for part in parts for r in part)):
                acc += r

    truth = cfg.ils.ddm
    results: list[RunResult] = []
    summaries = []
    for mod, pairs in zip((m for part in mods for m in part), per_rate):
        f_p_hz = float(cfg.channel.propellers[0].f_p if mod.f_p is None else mod.f_p)
        records = [RunResult(f_p_hz, seed, raw, eq, abs(raw - truth), abs(eq - truth))
                   for seed, (raw, eq) in zip(seeds, pairs)]
        results += records
        summaries.append(FpSummary(f_p_hz, float(np.median([r.dev_raw for r in records])),
                                   float(np.median([r.dev_eq for r in records])), mod.flags))
    return SweepResult(tuple(results), tuple(summaries))


def stage_spectrum(cfg: ScenarioConfig, stage: str) -> Spectrum:
    """The modulator, received or equalized spectrum of the scenario's run."""
    if stage == "modulator":
        return modulator_spectrum(cfg.channel, cfg.clock)
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
    pipe = Pipeline(cfg)
    seed = cfg.channel.rng_seed
    if stage == "rx":
        return pipe.rx_spectrum(None, None if cfg.channel.snr_db is None else seed)
    return forward_fft(pipe.equalized(pipe.modulate(), pipe.noise(seed)))
