"""Scenarios, their JSON form, the rotation-rate grid, and the emitters.

A scenario bundles every knob of the pipeline (clock, transmitted signal,
channel, windows, regularization). ``run_single`` and ``simulate`` run the
chain (six-line transmit, chop, noise, band bins, extract, equalize, DDM) once;
``sweep_fp`` runs it over a rotation-rate grid (``fp_grid``) and a
Monte-Carlo seed list, optionally on threads, in deterministic grid order.
All three hand their rates and seeds to ``pipeline.sweep``, which returns the
``SweepResult`` the CSV and SVG emitters read.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import pipeline
from .channel import (
    ChannelConfig,
    CustomCycle,
    PropellerModel,
    Shape,
    SineRipple,
    SquareWave,
    check_rate,
)
from .equalizer import RegPolicy
from .metrics import DDM_FREQS
from .pipeline import FpSummary, RunResult, SweepResult  # FpSummary: re-exported
from .signals import IlsParams, SampleClock, ToneParams
from .spectral import BandSpec, Spectrum, bin_index, check_band, folded_frequencies

# Default square-wave chop and phase. Duty 0.3 keeps the 3rd/7th harmonics
# weak (few spurious blind-spot flags on the half-Hz sweep grid) while the
# 4th harmonic stays strong enough to flag 22.5/37.5 Hz; the phase aligns
# the 4th/6th-harmonic hits at f_p=15 into quadrature at the DDM bins so the
# low end of the sweep stays at the noise floor.
DEFAULT_SQUARE = SquareWave(duty=0.3, lo=0.5, hi=1.0)
DEFAULT_PROPELLER_PHASE = 1.366


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation scenario."""

    clock: SampleClock = SampleClock()
    ils: IlsParams = IlsParams()
    tone: ToneParams = ToneParams()
    channel: ChannelConfig = field(
        default_factory=lambda: ChannelConfig(
            propellers=(
                PropellerModel(
                    shape=DEFAULT_SQUARE,
                    f_p=30.0,
                    phase=DEFAULT_PROPELLER_PHASE,
                    coeff=1.0,
                ),
            ),
            snr_db=20.0,
            rng_seed=0,
        )
    )
    signal_half_width_hz: float = 300.0
    tone_half_width_hz: float = 300.0
    reg: RegPolicy = RegPolicy()

    def __post_init__(self) -> None:
        # BandSpec checks its half-width too, but its error names neither key
        for name in ("signal_half_width_hz", "tone_half_width_hz"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.signal_band.overlaps(self.tone_band):
            raise ValueError("signal_band and tone_band must be disjoint")
        # tone separation must exceed twice the modulation spread the bands admit
        min_offset = 2.0 * (150.0 + self.tone_band.half_width_hz)
        if self.tone.offset_hz < min_offset:
            raise ValueError(
                f"tone offset {self.tone.offset_hz} Hz too close to the signal "
                f"band; need >= {min_offset} Hz"
            )
        for f in (*DDM_FREQS, self.tone.offset_hz):
            bin_index(self.clock, f)
        for p in self.channel.propellers:
            check_rate(p.f_p, self.clock)
        check_band(self.clock, self.signal_band)
        check_band(self.clock, self.tone_band)

    @property
    def signal_band(self) -> BandSpec:
        """The band around the ILS carrier at 0 Hz."""
        return BandSpec(0.0, self.signal_half_width_hz)

    @property
    def tone_band(self) -> BandSpec:
        """The band around the reference tone."""
        return BandSpec(self.tone.offset_hz, self.tone_half_width_hz)


def default_scenario() -> ScenarioConfig:
    """The stock scenario: 32 kHz/1 s capture, square-wave chop, 20 dB SNR."""
    return ScenarioConfig()


CSV_HEADER = ",".join(f.name for f in fields(RunResult))


def scenario_with(
    cfg: ScenarioConfig, f_p: float | None = None, seed: int | None = None, **channel: object
) -> ScenarioConfig:
    """Copy of ``cfg`` with the rotation rate, seed, or other channel fields overridden.

    ``f_p`` is applied to every propeller (a uniform-speed sweep); ``channel``
    keywords replace ``ChannelConfig`` fields, so ``snr_db=None`` disables noise.
    """
    ch = cfg.channel if f_p is None else cfg.channel.with_rate(f_p)
    if seed is not None:
        channel["rng_seed"] = seed
    return replace(cfg, channel=replace(ch, **channel))


def simulate(cfg: ScenarioConfig) -> SweepResult:
    """One run of the scenario as configured, with its blind-spot flags."""
    return pipeline.sweep(cfg, (None,), [cfg.channel.rng_seed], 1)


def run_single(cfg: ScenarioConfig) -> RunResult:
    """Execute the full pipeline once.

    The raw DDM is measured on the signal-band window of the received
    spectrum (not the full capture) so it reflects propeller impairment
    rather than the presence of the reference tone.
    """
    (result,) = simulate(cfg).results
    return result


# the most runs (grid rates x seeds) one command may ask for; the default
# sweep makes 510
MAX_RUNS = 10**6


def grid_points(fp_start: float, fp_stop: float, fp_step: float) -> int:
    """floor((stop-start)/step)+1, the point count of the inclusive grid, without building it."""
    for name, value in (("fp_start", fp_start), ("fp_stop", fp_stop), ("fp_step", fp_step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not fp_step > 0:
        raise ValueError(f"fp_step must be > 0, got {fp_step}")
    if fp_start > fp_stop:
        raise ValueError(f"fp_start {fp_start} must be <= fp_stop {fp_stop}")
    steps = (fp_stop - fp_start) / fp_step
    if not steps < math.inf:
        raise ValueError(f"a grid from fp_start {fp_start} to fp_stop {fp_stop} by fp_step "
                         f"{fp_step} has too many points to count")
    return int(np.floor(steps + 1e-9)) + 1


def check_runs(rates: int, seeds: int) -> None:
    """Reject a command that would make more than ``MAX_RUNS`` runs."""
    if rates * seeds > MAX_RUNS:
        raise ValueError(f"a command may make at most {MAX_RUNS} runs (rates x seeds), "
                         f"got {rates:.7g} x {seeds}")


def fp_grid(
    fp_start: float, fp_stop: float, fp_step: float, clock: SampleClock
) -> tuple[float, ...]:
    """Inclusive grid with ``grid_points`` points, all below half the clock's rate."""
    n = grid_points(fp_start, fp_stop, fp_step)
    check_runs(n, 1)
    check_rate(fp_start + (n - 1) * fp_step, clock)  # before a far stop builds a vast grid
    return tuple(fp_start + i * fp_step for i in range(n))


def sweep_fp(
    cfg: ScenarioConfig,
    fp_start: float,
    fp_stop: float,
    fp_step: float,
    seeds: list[int] | tuple[int, ...],
    workers: int = 1,
) -> SweepResult:
    """Run the pipeline over a rotation-rate grid times a seed list.

    The grid's rates may run concurrently (``workers`` threads); results
    are merged in (grid, seed) order regardless of completion order, so
    serial and parallel sweeps emit byte-identical CSVs.
    """
    return pipeline.sweep(cfg, fp_grid(fp_start, fp_stop, fp_step, cfg.clock), seeds, workers)


# ---------------------------------------------------------------------------
# emitters


def emit_csv(result: SweepResult, path: str | Path) -> None:
    """Write ``CSV_HEADER``, then one row per run, each value as its ``repr``."""
    lines = [CSV_HEADER]
    for r in result.results:
        lines.append(",".join(repr(getattr(r, name)) for name, _, _ in _fields(RunResult)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_sweep_csv(path: str | Path) -> tuple[RunResult, ...]:
    """Parse a CSV written by ``emit_csv`` back into run records."""
    import csv  # only this reader needs it, so a command that writes spares the import
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if ",".join(header) != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}: {header}")
        spec = _fields(RunResult)
        return tuple(
            RunResult(*(tp(v) for (_, tp, _), v in zip(spec, row, strict=True)))
            for row in reader
        )


_DUMP_ROWS = 4096


def dump_spectrum(spec: Spectrum, path: str | Path) -> None:
    """CSV dump: freq_hz,re,im,mag_db rows in ascending folded frequency."""
    f = folded_frequencies(spec.clock)
    order = np.argsort(f, kind="stable")
    freqs, bins = f[order], spec.bins[order]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("freq_hz,re,im,mag_db\n")
        # in blocks of rows, so no more than a block of values is held as Python objects
        for lo in range(0, len(bins), _DUMP_ROWS):
            block = bins[lo : lo + _DUMP_ROWS]
            # Python's abs of each bin: np.abs of a complex array can differ in the last bit
            mag_db = 20.0 * np.log10(np.array([abs(b) for b in block.tolist()]) + 1e-20)
            columns = (freqs[lo : lo + _DUMP_ROWS], block.real, block.imag, mag_db)
            fh.writelines(",".join(row) + "\n"
                          for row in zip(*(map(repr, c.tolist()) for c in columns)))


def emit_plot(result: SweepResult, path: str | Path) -> None:
    """Self-contained SVG line chart of median deviations vs rotation rate.

    Blind-spot grid points are marked with dashed vertical lines.
    """
    w, h = 880, 460
    ml, mr, mt, mb = 70, 30, 40, 55
    pw, ph = w - ml - mr, h - mt - mb

    fps = [s.f_p_hz for s in result.summaries]
    raw = [max(s.median_dev_raw, 1e-12) for s in result.summaries]
    eq = [max(s.median_dev_eq, 1e-12) for s in result.summaries]

    x0, x1 = min(fps), max(fps)
    xspan = (x1 - x0) or 1.0
    ylo = 10.0 ** np.floor(np.log10(min(min(raw), min(eq))))
    yhi = 10.0 ** np.ceil(np.log10(max(max(raw), max(eq))))
    if yhi <= ylo:
        yhi = ylo * 10.0

    def sx(v: float) -> float:
        return ml + (v - x0) / xspan * pw

    def sy(v: float) -> float:
        return mt + ph - (np.log10(v) - np.log10(ylo)) / (np.log10(yhi) - np.log10(ylo)) * ph

    def poly(ys: list[float]) -> str:
        return " ".join(f"{sx(fp):.2f},{sy(v):.2f}" for fp, v in zip(fps, ys))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.0f}" y="22" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">Median DDM deviation vs propeller rate (raw vs equalized)</text>',
    ]
    # y grid: decades
    dec = int(np.log10(ylo))
    while 10.0 ** dec <= yhi * 1.0001:
        y = sy(10.0 ** dec)
        parts.append(
            f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + pw}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{dec}</text>'
        )
        dec += 1
    # x ticks every 5 Hz
    tick = np.ceil(x0 / 5.0) * 5.0
    while tick <= x1 + 1e-9:
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" y2="{mt + ph + 5}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{mt + ph + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>'
        )
        tick += 5.0
    # blind-spot markers
    for s in result.summaries:
        if s.flagged_freqs:
            x = sx(s.f_p_hz)
            parts.append(
                f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" y2="{mt + ph}" '
                f'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4,3"/>'
            )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<polyline points="{poly(raw)}" fill="none" stroke="#1f77b4" stroke-width="1.6"/>'
    )
    parts.append(
        f'<polyline points="{poly(eq)}" fill="none" stroke="#d62728" stroke-width="1.6"/>'
    )
    parts.append(
        f'<text x="{ml + pw / 2:.0f}" y="{h - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">propeller rate f_p (Hz)</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {mt + ph / 2:.0f})">median |DDM - truth|</text>'
    )
    lx, ly = ml + pw - 235, mt + 14
    parts.append(
        f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" stroke="#1f77b4" stroke-width="1.6"/>'
    )
    parts.append(
        f'<text x="{lx + 32}" y="{ly + 4}" font-family="sans-serif" font-size="12">raw (non-equalized)</text>'
    )
    parts.append(
        f'<line x1="{lx}" y1="{ly + 18}" x2="{lx + 26}" y2="{ly + 18}" stroke="#d62728" stroke-width="1.6"/>'
    )
    parts.append(
        f'<text x="{lx + 32}" y="{ly + 22}" font-family="sans-serif" font-size="12">equalized</text>'
    )
    parts.append(
        f'<line x1="{lx}" y1="{ly + 36}" x2="{lx + 26}" y2="{ly + 36}" '
        f'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4,3"/>'
    )
    parts.append(
        f'<text x="{lx + 32}" y="{ly + 40}" font-family="sans-serif" font-size="12">blind-spot flag</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# JSON configuration: one walk over the scenario dataclasses, both ways. A
# Shape is an object tagged by "kind"; an int goes to its class unchecked,
# since the class itself rejects anything but a Python int.

_SHAPE_KINDS = {"square": SquareWave, "sine": SineRipple, "custom": CustomCycle}
_KIND_OF = {cls: kind for kind, cls in _SHAPE_KINDS.items()}


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, object, object], ...]:
    """(name, resolved type, class default or MISSING) of each field of ``cls``."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default if f.default_factory is MISSING else f.default_factory())
        for f in fields(cls)
    )


def _decode(value: object, tp: object, path: str, base: object = None) -> object:
    """JSON ``value`` at key ``path`` as ``tp``.

    A field missing from an object takes its value in ``base``, the default of
    the field holding the object (so a channel keeps 20 dB and the stock
    propeller), or else the class default.
    """
    if tp is int:
        return value
    if tp is float:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and abs(value) <= sys.float_info.max):
            raise ValueError(f"{path} must be a finite number, got {value!r}")
        return float(value)
    if isinstance(tp, types.UnionType) and type(None) in typing.get_args(tp):
        return None if value is None else _decode(value, typing.get_args(tp)[0], path, base)
    if tp == Shape:
        kind = value.get("kind") if isinstance(value, dict) else None
        tp = _SHAPE_KINDS.get(kind) if isinstance(kind, str) else None
        if tp is None:
            raise ValueError(f"{path} must be an object with a kind in {list(_SHAPE_KINDS)}")
        value = {k: v for k, v in value.items() if k != "kind"}
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a JSON list, got {type(value).__name__}")
        item = typing.get_args(tp)[0]
        return tuple(_decode(v, item, f"{path}[{i}]") for i, v in enumerate(value))
    if not isinstance(value, dict):
        raise ValueError(f"{path or 'scenario'} must be a JSON object, got {type(value).__name__}")
    spec = _fields(tp)
    unknown = sorted(f"{path}.{k}" if path else str(k) for k in set(value) - {f[0] for f in spec})
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    base = base if isinstance(base, tp) else None
    kwargs = {}
    for name, hint, default in spec:
        inner = default if base is None else getattr(base, name)
        if name in value:
            kwargs[name] = _decode(value[name], hint, f"{path}.{name}" if path else name, inner)
        elif base is not None:
            kwargs[name] = inner
        elif default is MISSING:
            raise ValueError(f'{path or "scenario"} needs a "{name}"')
    try:
        return tp(**kwargs)
    except ValueError as e:
        raise ValueError(f"{path}: {e}" if path else str(e)) from None


def _encode(obj: object) -> object:
    if is_dataclass(obj):
        kind = {"kind": _KIND_OF[type(obj)]} if type(obj) in _KIND_OF else {}
        return kind | {name: _encode(getattr(obj, name)) for name, _, _ in _fields(type(obj))}
    return [_encode(v) for v in obj] if isinstance(obj, tuple) else obj


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return _encode(cfg)


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Build a scenario from a config dict; missing fields take defaults."""
    return _decode(d, ScenarioConfig, "")


def load_config(path: str | Path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"invalid JSON in config {path}: {e}") from e
    return scenario_from_dict(d)
