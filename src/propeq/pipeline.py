"""The staged engine behind every run: sweeps, single simulations and stage dumps.

One run is synth -> channel -> FFT -> extract -> equalize -> DDM. Across the
runs of a sweep most of that work is shared, so the engine computes each
product once, at the outermost layer it depends on:

* per scenario (``Pipeline``): the transmit signal, the signed bin offsets
  of both bands, their polyphase IFFT plans (``BandIfft``), and the DFT
  twiddles of the DDM and blind-spot bins;
* per modulator (``Modulated``, one per rotation rate): the modulator,
  FFT(tx*m), the noise scale and the blind-spot bins;
* per seed (``Noise``): the unit noise spectrum W. Only its signal-band and
  tone-band bins and its norm are kept, so the engine holds
  O(N + seeds x band bins), not a seeds x N table.

The FFT is linear, so a run's received spectrum is FFT(tx*m) + scale*W. A run
then costs two band IFFTs, each a batch of short P-point transforms (50 of
640 points on the default clock), the regularized division and a DFT of the
five DDM bins of the quotient. The tone band is demodulated by shifting its
bins to baseband before its IFFT, so no carrier is multiplied in. The raw
DDM is read from the received signal-band bins directly. Each thread runs
into its own ``Workspace`` of full-length buffers, so a run allocates no
full-length array of its own.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channel import check_seed, eval_modulator, modulator_spectrum, noise_scale, unit_noise
from .equalizer import (
    CRITICAL_FREQS,
    check_estimate,
    flag_blind_spots,
    regularized_divide,
    tone_absent,
    tone_band_empty,
)
from .metrics import DDM_FREQS, amplitudes_from_bins, compute_ddm
from .signals import SampleBuffer, check_finite, combine, synth_ils, synth_tone
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

# where 0 Hz and the blind-spot frequencies sit among the DDM bins
_CRITICAL_POS = [DDM_FREQS.index(f) for f in (0.0, *CRITICAL_FREQS)]


@dataclass(frozen=True)
class Modulated:
    """Products of one modulator, shared by the runs of every seed."""

    clean: Spectrum  # FFT(tx * m)
    scale: float  # noise deviation per component; 0 without noise
    signal: np.ndarray  # clean bins of the signal band
    tone: np.ndarray  # clean bins of the tone band
    norm: float  # ||FFT(tx * m)||
    critical_bins: np.ndarray  # modulator DFT at 0 Hz and at CRITICAL_FREQS


@dataclass(frozen=True)
class Noise:
    """The band bins and norm of one seed's unit noise spectrum."""

    seed: int
    signal: np.ndarray
    tone: np.ndarray
    norm: float


def _norm(bins: np.ndarray) -> float:
    # not np.linalg.norm: its BLAS threads spin on the other cores between calls
    return float(np.sqrt(np.sum(np.abs(bins) ** 2)))


class Workspace:
    """Full-length buffers one thread reuses for every run it makes."""

    def __init__(self, n: int):
        # each band IFFT runs in place in its buffer's (P, L) grid
        self.s = np.empty(n, dtype=np.complex128)
        self.g = np.empty(n, dtype=np.complex128)  # the estimate, then the quotient
        self.mag = np.empty(n)


class Pipeline:
    """Per-scenario products, read-only once built and shared across threads."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        clock = cfg.clock
        n = clock.n_samples
        self._tx = combine(synth_ils(cfg.ils, clock), synth_tone(cfg.tone, clock)).samples
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

    def modulate(self, f_p: float | None = None) -> Modulated:
        """The scenario's modulator, with every propeller at ``f_p`` if given."""
        channel = self.cfg.channel if f_p is None else self.cfg.channel.with_rate(f_p)
        m = eval_modulator(channel, self.cfg.clock)
        clean = self._tx * m.samples.real
        spec = forward_fft(SampleBuffer(self.cfg.clock, clean))
        return Modulated(
            clean=spec,
            scale=0.0 if channel.snr_db is None else noise_scale(clean, channel.snr_db),
            signal=spec.bins[self._signal_idx],
            tone=spec.bins[self._tone_idx],
            norm=_norm(spec.bins),
            critical_bins=dft_bins(self._ddm_twiddles, m.samples)[_CRITICAL_POS],
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

    def rx_spectrum(self, mod: Modulated, seed: int | None) -> Spectrum:
        """The full received spectrum with ``seed``'s noise; None for no noise."""
        if seed is None:
            return mod.clean
        noisy = mod.clean.bins + mod.scale * self._noise_spectrum(seed)
        return Spectrum(self.cfg.clock, noisy)

    def workspace(self) -> Workspace:
        return Workspace(self.cfg.clock.n_samples)

    def run(self, mod: Modulated, noise: Noise | None, work: Workspace) -> tuple[float, float]:
        """(ddm_raw, ddm_eq) of one run."""
        signal, tone = self._receive(mod, noise)
        ddm_raw = compute_ddm(self._amplitudes(np.append(signal, 0)[self._ddm_pos]))
        q = self._equalize(mod, noise, signal, tone, work)
        return ddm_raw, compute_ddm(self._amplitudes(dft_bins(self._ddm_twiddles, q)))

    def equalized(self, mod: Modulated, noise: Noise | None) -> SampleBuffer:
        """The equalized capture of one run."""
        q = self._equalize(mod, noise, *self._receive(mod, noise), self.workspace())
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
    ) -> np.ndarray:
        cfg = self.cfg
        band_energy = float(np.sum(np.abs(tone) ** 2))
        # ||S + scale*W|| <= ||S|| + scale*||W||; redraw the noise only when
        # that bound cannot decide
        seed, noise_norm = (None, 0.0) if noise is None else (noise.seed, noise.norm)
        bound = (mod.norm + mod.scale * noise_norm) ** 2
        if tone_band_empty(band_energy, bound) and tone_band_empty(
            band_energy, float(np.sum(np.abs(self.rx_spectrum(mod, seed).bins) ** 2))
        ):
            raise tone_absent(cfg.tone_band)
        g = self._tone_ifft(tone * self._tone_gain, work.g)
        check_finite(g, "g_hat")
        check_estimate(g)
        s = self._signal_ifft(signal, work.s)
        q = regularized_divide(s, g, cfg.reg.eps_rel, work.g, work.mag)
        check_finite(q, "equalized samples")
        return q


def sweep(
    cfg: ScenarioConfig,
    rates: Sequence[float | None],
    seeds: Sequence[int],
    workers: int,
    rel_threshold: float,
) -> list[tuple[tuple[float, ...], list[tuple[float, float]]]]:
    """Blind-spot flags and (ddm_raw, ddm_eq) per seed, for each rate in order.

    A rate of None keeps the scenario's own propeller rates. With
    ``workers`` > 1 the rates are split into contiguous chunks, one per
    thread; the threads share the read-only scenario and noise products and
    the chunks are merged in grid order, so every number is the same as in a
    serial sweep.
    """
    pipe = Pipeline(cfg)
    noises = [pipe.noise(s) for s in seeds]

    def runs(chunk: Sequence[float | None]):
        work = pipe.workspace()
        out = []
        for f_p in chunk:
            mod = pipe.modulate(f_p)
            flags = flag_blind_spots(mod.critical_bins, CRITICAL_FREQS, rel_threshold)
            out.append((flags, [pipe.run(mod, n, work) for n in noises]))
        return out

    k = max(1, min(workers, len(rates)))
    chunks = [rates[len(rates) * i // k : len(rates) * (i + 1) // k] for i in range(k)]
    if k == 1:
        return runs(rates)
    with ThreadPoolExecutor(max_workers=k) as pool:
        return [r for part in pool.map(runs, chunks) for r in part]


def stage_spectra(cfg: ScenarioConfig, stages: Sequence[str] = STAGES) -> dict[str, Spectrum]:
    """The modulator, received and equalized spectra of the scenario's run.

    Only the products the requested ``stages`` need are computed.
    """
    out = {}
    if "modulator" in stages:
        out["modulator"] = modulator_spectrum(cfg.channel, cfg.clock)
    if "rx" in stages or "equalized" in stages:
        pipe = Pipeline(cfg)
        mod = pipe.modulate()
        seed = cfg.channel.rng_seed
        if "rx" in stages:
            noisy = cfg.channel.snr_db is not None
            out["rx"] = pipe.rx_spectrum(mod, seed if noisy else None)
        if "equalized" in stages:
            out["equalized"] = forward_fft(pipe.equalized(mod, pipe.noise(seed)))
    return {stage: out[stage] for stage in stages}
