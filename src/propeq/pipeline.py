"""The staged engine behind every run: sweeps, single simulations and stage dumps.

One run is transmit -> chop and noise -> bins -> extract -> equalize -> DDM.
Across the runs of a sweep most of that work is shared, so the engine
computes each product once, at the outermost layer it depends on:

* per scenario (``Pipeline``): the transmit's six spectral lines c_k and one
  period of the transmit built from them in closed form (``_transmit``; 3200
  samples on the default clock); both bands' signed bin offsets and polyphase
  IFFT plans (``BandIfft``); and the DFT twiddles of the DDM bins;
* per rate (``Modulated``): the modulator's spectrum M and mean|tx*m|^2
  (``_chop_spectrum``); the band bins of FFT(tx*m)[j] = sum_k c_k M[j-k]
  (``_line_sum``); from that power the noise scale and, by Parseval,
  ||FFT(tx*m)||; and the blind-spot flags, read from M at 0, 90 and 150 Hz;
* per seed block, drawn when the block runs: each seed's unit noise
  spectrum W, of which only the band bins and the norm are kept (``Noise``;
  a noiseless scenario's is zero, for any seed), and the two band series of
  its unit bins (s_w, g_w) in one held buffer. Every sweep runs blocks of
  ``seeds_per_block``, 5 seeds on the default 32000-point clock, so the
  engine holds O(N x block + block x band bins), never a seeds x N table;
* per (seed block, rate) task: one call of the run kernel
  (``Pipeline.runs``), which makes the two band series of the rate's clean
  bins (s_c, g_c; see ``Pipeline.series``), stacks the block's received
  band bins and reads their finiteness, the raw DDM bins and the tone-band
  energies at once, and allocates one (2, N) workspace and one N-float
  buffer r;
* per run (``Pipeline._quotient``): g_hat = g_c + scale*g_w into row 1 of
  the workspace, its squares into row 0's floats, 1/max(|g_hat|^2, floor^2)
  into r (``equalizer.divisor``), then s = s_c + scale*s_w into row 0 and
  the quotient conj(g_hat)*s*r over g_hat (``equalizer.regularized_divide``),
  and a DFT of its five DDM bins from one fold. A run that shares no
  series makes its tone IFFT in g_hat's place and its signal IFFT in s's.
  A run allocates no N-length array.

``sweep`` returns the records the emitters read, in grid order: a
``RunResult`` per run and a ``FpSummary`` of medians and flags per rate.

The FFT is linear, so a run's received spectrum is FFT(tx*m) + scale*W, and
so are its band bins. The band IFFT is linear too, so the run's series are
the sums above to roundoff: the default 51-rate, 10-seed sweep makes
2*51*2 + 2*10 = 224 band IFFTs, not 2 per run. A grid with a single rate or
a block of one seed (a clock over 81920 samples) shares no series, so each
run makes the two band IFFTs of its own bins, as ``Pipeline.equalized`` does.
A band IFFT is a batch of short P-point transforms (50 of 640 points on the
default clock). The tone band is demodulated by shifting its bins to
baseband before its IFFT, so no carrier is multiplied in. The raw DDM is
read from the received signal-band bins directly.

Nothing synthesizes the transmit sample by sample, and no run draws its full
received spectrum: the tone-absence check reads the band bins and the two
norms the run already holds. Only the ``rx`` dump (``rx_spectrum``) builds
it, by a rate's two calls, with ``_line_sum`` over all N bins: its band bins
are a run's, bit for bit, and an overflow ends both in the same error.

A run makes no full-length pass for its checks alone. The max of |g_hat|^2,
which sets the floor, also rejects a g_hat that is not finite or carries no
energy, and the quotient is a multiply by the reciprocal of the floored
|g_hat|^2 (``equalizer.divisor``). The quotient is checked through its five
DDM bins: each bin sums every sample, so a non-finite sample makes every bin
non-finite.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .channel import (
    check_seed,
    eval_modulator,
    power_noise_scale,
    unit_noise,
)
from .equalizer import FLAG_FREQS, divisor, flag_blind_spots, regularized_divide
from .errors import ToneAbsentError
from .metrics import DDM_FREQS, amplitudes_from_bins, compute_ddm
from .signals import SampleBuffer, SampleClock, check_finite
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
    from .channel import ChannelConfig
    from .harness import ScenarioConfig

STAGES = ("modulator", "rx", "equalized")

# the unit noise series a sweep holds at once: 5 seeds' signal and tone
# series on the default 32000-point clock, fewer seeds on a longer capture
NOISE_BLOCK_BYTES = 5 * 2**20
# the most threads a sweep may ask for; its pool starts min(workers, rates)
MAX_WORKERS = 64
# the most runs (grid rates x seeds) one sweep or command may ask for; the
# default sweep makes 510
MAX_RUNS = 10**6


def check_runs(rates: int, seeds: int) -> None:
    """Reject a sweep or command that would make more than ``MAX_RUNS`` runs."""
    if rates * seeds > MAX_RUNS:
        raise ValueError(f"a command may make at most {MAX_RUNS} runs (rates x seeds), "
                         f"got {rates:.7g} x {seeds}")


def seeds_per_block(n: int) -> int:
    """How many seeds every sweep's block holds on ``n`` samples: as many noise series as fit."""
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


class _Received(NamedTuple):
    """A block's received band bins, one row per run, and what its runs check in them."""

    signal: np.ndarray  # the signal band with a 0 after it, which a DDM bin outside the band reads
    tone: np.ndarray
    finite: np.ndarray  # whether each run's bins are all finite
    raw: np.ndarray  # each run's raw DDM bins
    energy: np.ndarray  # each run's tone-band energy
    total: np.ndarray  # each run's received energy, ||S||^2 + scale^2*||W||^2


def _transmit(cfg: ScenarioConfig) -> tuple[list[tuple[int, complex]], np.ndarray]:
    """The transmit's six spectral lines (k, c_k), bin k mod N and amplitude c_k, and one period.

    tx[t] = sum_k c_k exp(2*pi*i*k*t/N). The real ILS puts a_c at 0 Hz and
    splits each AM tone into conjugate halves at +-90 and +-150 Hz; the
    reference tone is one line at its offset. The scenario requires every
    one of them to be an exact bin. The period, P = N/g samples for
    g = gcd(N, bins), reduces each exponent modulo P in integers and reads
    it from one table of P-th roots of unity. Amplitudes near the float
    limit overflow it; the check rejects them, unwarned.
    """
    ils, tone, n = cfg.ils, cfg.tone, cfg.clock.n_samples
    half_90 = ils.a_90 / 2 * np.exp(1j * ils.phase_90)
    half_150 = ils.a_150 / 2 * np.exp(1j * ils.phase_150)
    amps = {
        0.0: complex(ils.a_c),
        90.0: half_90,
        -90.0: np.conj(half_90),
        150.0: half_150,
        -150.0: np.conj(half_150),
        tone.offset_hz: tone.amp * np.exp(1j * tone.phase),
    }
    lines = [(bin_index(cfg.clock, f), c) for f, c in amps.items()]
    g = math.gcd(n, *(k for k, _ in lines))
    p = n // g
    t = np.arange(p)
    roots = root_powers(p, 1, p)
    # one index and one term buffer serve all six lines, and the period is
    # summed in place from zeros, as sum() adds the terms to 0
    idx, term = np.empty(p, dtype=np.int64), np.empty(p, dtype=np.complex128)
    period = np.zeros(p, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, c in lines:
            np.remainder(np.multiply(t, k // g, out=idx), p, out=idx)
            np.multiply(c, np.take(roots, idx, out=term), out=term)
            period += term
    check_finite(period, "transmitted samples")
    return lines, period


def _chop_spectrum(m: np.ndarray, tx_period: np.ndarray) -> tuple[np.ndarray, float]:
    """(M, power): m's rfft mirrored to all N bins, and mean|tx*m|^2 (inf if too loud).

    tx is tiled by its period. A tx*m that overflows is rejected before any bin.
    """
    # the product itself, not |tx|^2 * m^2, which can be inf * 0. A loud
    # chop's M overflows unwarned, and the line sum rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        clean = m.reshape(-1, len(tx_period)) * tx_period
        power = float(np.mean(_abs_square(clean)))
        if not power < math.inf:
            check_finite(clean, "samples")
        # M overwrites the product, so no second capture-length array is made
        spec, h = clean.reshape(-1), len(m) // 2 + 1
        np.fft.rfft(m, out=spec[:h])
        np.conjugate(spec[len(m) - h : 0 : -1], out=spec[h:])  # M[N-j] = conj M[j]
    return spec, power


def _line_sum(lines: list[tuple[int, complex]], spec: np.ndarray, start: int, width: int):
    """Bins start, ..., start+width-1 (mod N) of FFT(tx*m)[j] = sum_k c_k M[j-k], M = ``spec``.

    Each line adds by two slice multiply-adds, the second where j-k wraps past N.
    """
    n = len(spec)
    bins = np.zeros(width, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, c in lines:
            r = (start - k) % n
            head = min(width, n - r)
            bins[:head] += c * spec[r : r + head]
            bins[head:] += c * spec[: width - head]
    check_finite(bins, "bins")
    return bins


def _noise_spectrum(seed: int, n: int) -> np.ndarray:
    """W, the FFT of the seed's unit noise, as every run and the ``rx`` dump add it."""
    # unit noise is finite, and so is its spectrum: nothing to check. The
    # transform overwrites the draws, so no second capture-length array is made
    spec = unit_noise(seed, n)
    return np.fft.fft(spec, out=spec)


def _abs_square(x: np.ndarray) -> np.ndarray:
    """|x|^2, as np.abs(x) ** 2 gives it bit for bit, in one fresh array, not two."""
    sq = np.abs(x)
    return np.square(sq, out=sq)


def _norm(bins: np.ndarray) -> float:
    # not np.linalg.norm: its BLAS threads spin on the other cores between calls.
    # A norm too large for a float is inf, which the run's checks reject.
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(_abs_square(bins))))


class Pipeline:
    """Per-scenario products, read-only once built and shared across threads."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        clock = cfg.clock
        n = clock.n_samples
        self._lines, self._tx_period = _transmit(cfg)
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
        # where each DDM bin sits in the signal band, whose offsets run from
        # signal[0] (the band holds 0 Hz, so it is never empty); a bin outside
        # the band reads the 0 appended after it, as the windowed spectrum would
        ddm = [bin_index(clock, f) for f in DDM_FREQS]
        pos = [(k - n if k > n // 2 else k) - signal[0] for k in ddm]
        self._ddm_pos = [j if 0 <= j < len(signal) else len(signal) for j in pos]
        self._ddm_twiddles = dft_twiddles(clock, DDM_FREQS)
        self._flag_idx = [bin_index(clock, f) for f in FLAG_FREQS]
        if cfg.channel.snr_db is None:  # one read-only zero noise stage serves every seed
            self._zero_noise = Noise(*(np.broadcast_to(0j, len(b)) for b in (signal, tone)), 0.0)

    def modulate(self, f_p: float | None = None) -> Modulated:
        """The scenario's modulator, with every propeller at ``f_p`` if given."""
        channel = self.cfg.channel if f_p is None else self.cfg.channel.with_rate(f_p)
        m = eval_modulator(channel, self.cfg.clock)
        spec, power = _chop_spectrum(m, self._tx_period)
        signal, tone = (_line_sum(self._lines, spec, int(idx[0]), len(idx))
                        for idx in (self._signal_idx, self._tone_idx))
        snr_db = self.cfg.channel.snr_db
        return Modulated(
            f_p_hz=float(channel.propellers[0].f_p),
            scale=0.0 if snr_db is None else power_noise_scale(power, snr_db),
            signal=signal,
            tone=tone,
            norm=self.cfg.clock.n_samples * np.sqrt(power),  # Parseval
            flags=flag_blind_spots(spec[self._flag_idx]),
        )

    def noise(self, seed: int) -> Noise:
        """The seed's unit noise stage; zero, and the same for every seed, when noiseless."""
        check_seed(seed)
        if self.cfg.channel.snr_db is None:
            return self._zero_noise
        spec = _noise_spectrum(seed, self.cfg.clock.n_samples)
        return Noise(spec[self._signal_idx], spec[self._tone_idx], _norm(spec))

    def series(self, signal: np.ndarray, tone: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The band IFFTs of signal-band and tone-band bins, written to ``out``'s two rows.

        Row 0 is the signal series, row 1 the tone band demodulated to a unit
        tone: for a run's received bins, its estimate g_hat. ``out`` is a
        C-contiguous complex (2, N) array. A tone too faint for its band
        overflows here without a warning; the divisor's checks of g_hat reject it.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            self._tone_ifft(tone * self._tone_gain, out[1])
        self._signal_ifft(signal, out[0])
        return out

    def equalized(self, mod: Modulated, noise: Noise) -> SampleBuffer:
        """The equalized capture of one run: the kernel's quotient, on a block of one."""
        n = self.cfg.clock.n_samples
        ws, r = np.empty((2, n), dtype=np.complex128), np.empty(n)
        with np.errstate(all="ignore"):
            q = self._quotient(mod, self._receive(mod, [noise]), 0, ws, r)
        check_finite(q, "equalized samples")
        return SampleBuffer(self.cfg.clock, q)

    def runs(
        self,
        mod: Modulated,
        block: Sequence[Noise],
        units: Sequence[np.ndarray] | None = None,
    ) -> list[tuple[float, float]]:
        """(ddm_raw, ddm_eq) of the run of ``mod`` with each noise stage of ``block``, in order.

        ``units``, the sweep's held buffer, holds the ``series`` of each
        stage's unit bins in order. Given it, the kernel makes the ``series``
        of ``mod``'s clean bins, and a run's series are clean + scale*unit,
        which by linearity equals the band IFFTs of its received bins to
        roundoff; otherwise each run makes those IFFTs.

        The block's small arrays are formed once (``_receive``). Then each
        run, in order, reads its raw DDM, and ``_quotient`` makes its checks
        and its quotient in one (2, N) workspace and one N-float buffer r,
        which every run of the block reuses (fresh ones per run would be
        refaulted run after run). The quotient's five DDM bins come from one
        fold; a non-finite quotient is found there, since every sample enters
        every bin.
        """
        n = self.cfg.clock.n_samples
        clean = None if units is None else self.series(
            mod.signal, mod.tone, np.empty((2, n), dtype=np.complex128))
        ws, r = np.empty((2, n), dtype=np.complex128), np.empty(n)
        out = []
        with np.errstate(all="ignore"):
            rx = self._receive(mod, block)
            for i in range(len(block)):
                # received bins that are not finite fail _quotient's first
                # check, which comes before the raw DDM's
                ddm_raw = compute_ddm(self._amplitudes(rx.raw[i])) if rx.finite[i] else math.nan
                bins = dft_bins(self._ddm_twiddles, self._quotient(mod, rx, i, ws, r, clean, units))
                check_finite(bins, "equalized samples")
                out.append((ddm_raw, compute_ddm(self._amplitudes(bins))))
        return out

    def _receive(self, mod: Modulated, block: Sequence[Noise]) -> _Received:
        """The block's received band bins, stacked, and what its runs check in them.

        Each run's bins are clean + scale*unit by the same complex ops as one
        run's alone, so the raw DDMs keep their bits. Its caller ignores
        overflow, which the runs' checks reject.
        """
        width = len(self._signal_idx)
        signal = np.empty((len(block), width + 1), dtype=np.complex128)
        np.multiply(mod.scale, [w.signal for w in block], out=signal[:, :width])
        np.add(mod.signal, signal[:, :width], out=signal[:, :width])
        signal[:, width] = 0
        tone = np.multiply(mod.scale, [w.tone for w in block])
        np.add(mod.tone, tone, out=tone)
        return _Received(
            signal=signal,
            tone=tone,
            finite=np.isfinite(signal).all(axis=1) & np.isfinite(tone).all(axis=1),
            raw=signal[:, self._ddm_pos],
            energy=np.sum(_abs_square(tone), axis=1),
            total=np.square(mod.norm) + np.square(mod.scale * np.array([w.norm for w in block])),
        )

    def _quotient(
        self,
        mod: Modulated,
        rx: _Received,
        i: int,
        ws: np.ndarray,
        r: np.ndarray,
        clean: np.ndarray | None = None,
        units: Sequence[np.ndarray] | None = None,
    ) -> np.ndarray:
        """Run ``i`` of ``rx``'s block from its checks to its quotient, in row 1 of ``ws``.

        The steps are the module docstring's per-run list, with the series
        clean + scale*units[i]; given no ``clean``, the tone IFFT goes in
        g_hat's place and the signal IFFT in s's. The caller ignores overflow
        and invalid operations: a tone too faint for its band overflows
        g_hat, which the divisor rejects, and the quotient is left for the
        caller to check.
        """
        signal, tone = rx.signal[i, :-1], rx.tone[i]
        if not rx.finite[i]:
            check_finite(signal, "received bins")
            check_finite(tone, "received bins")
        self._check_tone_energy(rx.energy[i], rx.total[i])
        s, g = ws
        if clean is None:
            self._tone_ifft(tone * self._tone_gain, g)
        else:
            # unit * scale on the float views: a complex multiply by
            # scale + 0j adds b*0 terms, which change only non-finite samples
            np.multiply(units[i][1].view(np.float64), mod.scale, out=g.view(np.float64))
            g += clean[1]
        divisor(g, self.cfg.reg.eps_rel, r, s.view(np.float64))
        if clean is None:
            self._signal_ifft(signal, s)
        else:
            np.multiply(units[i][0].view(np.float64), mod.scale, out=s.view(np.float64))
            s += clean[0]
        return regularized_divide(s, g, r)

    def _amplitudes(self, bins: np.ndarray):
        return amplitudes_from_bins(bins, self.cfg.clock.n_samples)

    def _check_tone_energy(self, band_energy: float, total: float) -> None:
        # The received energy ||S + scale*W||^2 is ||S||^2 + scale^2*||W||^2
        # plus a cross term whose mean is 0. A tone band at most 1e-24 of that
        # holds only FFT roundoff. A capture can be so loud that its energy
        # overflows, and then nothing is decided.
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

    A rate of None keeps the scenario's own propeller rates. Every seed is
    checked, then each rate's ``Modulated`` is built once. Then each block of
    ``seeds_per_block`` seeds draws its noise stages and runs one task per
    rate, a call of the run kernel ``Pipeline.runs``; with ``workers`` > 1
    the tasks run on threads that share the read-only scenario and noise
    products, and their results are read in grid order, so every number is
    the same as in a serial sweep.

    With two or more rates and two or more seeds in a block, the block's
    unit noise series go into one held buffer, which the kernel sums with
    each rate's clean series; otherwise each run makes its own band IFFTs.
    """
    if len(seeds) == 0:
        raise ValueError("seeds must be non-empty")
    if not workers >= 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be <= {MAX_WORKERS}, got {workers}")
    check_runs(len(rates), len(seeds))
    pipe = Pipeline(cfg)
    for seed in seeds:  # a bad seed is rejected before any rate is modulated
        check_seed(seed)
    n = cfg.clock.n_samples
    size = min(seeds_per_block(n), len(seeds))
    # shared: one block's unit noise series, reused by every block (fresh
    # arrays per block cost a default sweep a hundred times the page faults)
    units = np.empty((size, 2, n), dtype=np.complex128) if len(rates) > 1 and size > 1 else None

    per_rate: list[list[tuple[float, float]]] = [[] for _ in rates]
    k = min(workers, len(rates))
    if k > 1:  # a one-thread command spares the pool's imports
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=k) if k > 1 else contextlib.nullcontext() as pool:
        each = pool.map if k > 1 else map
        mods = list(each(pipe.modulate, rates))
        for b in range(0, len(seeds), size):
            block = [pipe.noise(s) for s in seeds[b : b + size]]
            if units is not None:
                for w, u in zip(block, units):
                    pipe.series(w.signal, w.tone, u)
            runs = functools.partial(pipe.runs, block=block, units=units)
            for acc, r in zip(per_rate, each(runs, mods)):
                acc += r

    from statistics import median  # np.median's float, without its first call's numpy.ma import
    truth = cfg.ils.ddm
    results: list[RunResult] = []
    summaries = []
    for mod, pairs in zip(mods, per_rate):
        records = [RunResult(mod.f_p_hz, seed, raw, eq, abs(raw - truth), abs(eq - truth))
                   for seed, (raw, eq) in zip(seeds, pairs)]
        results += records
        summaries.append(FpSummary(mod.f_p_hz, median([r.dev_raw for r in records]),
                                   median([r.dev_eq for r in records]), mod.flags))
    return SweepResult(tuple(results), tuple(summaries))


def modulator_spectrum(cfg: ChannelConfig, clock: SampleClock) -> Spectrum:
    """Spectrum of the aggregate gain over the capture window."""
    # not _chop_spectrum's cheaper rfft mirror: this FFT leaves bins with no chop line exactly 0
    return forward_fft(SampleBuffer(clock, eval_modulator(cfg, clock)))


def rx_spectrum(cfg: ScenarioConfig) -> Spectrum:
    """The scenario's full received spectrum, with the noise of its seed.

    Every bin is formed as a run forms its band bins, plus scale*W at the runs'
    noise scale; no ``Pipeline``, band plans or DDM twiddles are built.
    """
    clock, n, snr_db = cfg.clock, cfg.clock.n_samples, cfg.channel.snr_db
    lines, tx_period = _transmit(cfg)
    spec, power = _chop_spectrum(eval_modulator(cfg.channel, clock), tx_period)
    bins = _line_sum(lines, spec, 0, n)
    del spec  # the noise does not need it, and a long capture's peak memory is lower
    if snr_db is not None:
        noise = _noise_spectrum(cfg.channel.rng_seed, n)
        with np.errstate(over="ignore", invalid="ignore"):
            noise *= power_noise_scale(power, snr_db)
            bins += noise
    return Spectrum(clock, bins)


def stage_spectrum(cfg: ScenarioConfig, stage: str) -> Spectrum:
    """The modulator, received or equalized spectrum of the scenario's run."""
    if stage == "modulator":
        return modulator_spectrum(cfg.channel, cfg.clock)
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
    if stage == "rx":
        return rx_spectrum(cfg)
    pipe = Pipeline(cfg)
    return forward_fft(pipe.equalized(pipe.modulate(), pipe.noise(cfg.channel.rng_seed)))
