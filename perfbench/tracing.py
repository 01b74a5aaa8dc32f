"""Span tracing of propeq's pipeline stages from outside the package.

``Tracer.install`` swaps the module attributes that callers look up (for
example ``propeq.harness.forward_fft`` or ``propeq.cli.run_single``) for
wrappers that record a span around each call, and swaps ``numpy.fft.fft`` /
``numpy.fft.ifft`` for wrappers that only count transforms. ``uninstall``
puts every original object back. Nothing under ``src/`` is edited.

A span's self time is its duration minus the part of its interval covered by
its child spans. A span opened on a thread with no open span of its own (a
sweep worker) is a child of the innermost span open on the thread that
installed the tracer, which is the call that caused it.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

# public function name -> the per-layer span it is timed under
SPAN_OF = {
    "synth_ils": "signals.synth",
    "synth_tone": "signals.synth",
    "combine": "signals.synth",
    "eval_modulator": "channel.eval_modulator",
    "apply_channel": "channel.apply_channel",
    "forward_fft": "spectral.forward_fft",
    "inverse_fft": "spectral.inverse_fft",
    "bandpass_window": "spectral.bandpass_window",
    "extract_doppler": "equalizer.extract_doppler",
    "equalize": "equalizer.equalize",
    "predict_blind_spots": "equalizer.predict_blind_spots",
    "estimate_amplitudes": "metrics.estimate_amplitudes",
    "run_single": "harness.run_single",
    "sweep_fp": "harness.sweep_fp",
    "emit_csv": "harness.emit_csv",
    "emit_plot": "harness.emit_plot",
    "dump_spectrum": "harness.dump_spectrum",
    "load_config": "harness.load_config",
    "main": "cli.main",
}
HOME_MODULES = ("signals", "channel", "spectral", "equalizer", "metrics", "harness", "cli")
FFT_NAMES = ("fft", "ifft")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += (s.end - s.start) - _covered(children[i], s.start, s.end)
    return dict(out)


class Tracer:
    """Records spans and transform counts while installed."""

    def __init__(self, full_length: int):
        self.full_length = full_length
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        from propeq.errors import CarrierLostError, ToneAbsentError

        failure_counter = {ToneAbsentError: "equalizer.failed", CarrierLostError: "metrics.failed"}

        def traced(*args, **kwargs):
            stack = self._stack()
            cause = stack or self._root_stack
            parent = cause[-1] if cause else None
            span = Span(name, time.perf_counter(), 0.0, parent)
            with self._lock:
                idx = len(self.spans)
                self.spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except (ToneAbsentError, CarrierLostError) as e:
                # count each exception once, where it is first raised
                if not getattr(e, "_perfbench_counted", False):
                    e._perfbench_counted = True
                    with self._lock:
                        self.counts[failure_counter[type(e)]] += 1
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_fft(self, fn):
        def counted(a, n=None, axis=-1, *args, **kwargs):
            arr = np.asarray(a)
            length = n if n is not None else arr.shape[axis]
            transforms = arr.size // arr.shape[axis] if arr.shape[axis] else 0
            with self._lock:
                if length >= self.full_length:
                    self.counts["spectral.transforms"] += transforms
                self.counts["spectral.transform_bytes_computed"] += 2 * 16 * length * transforms
            return fn(a, n, axis, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Swap every attribute that holds a traced function for a wrapper."""
        wrappers: dict[int, object] = {}
        for mod, attr, value in traced_attributes():
            if mod is np.fft:
                wrapper = self._wrap_fft(value)
            else:
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self._wrap(SPAN_OF[value.__name__], value)
            self._patches.append((mod, attr, value))
            setattr(mod, attr, wrapper)
        self._root_stack = self._stack()

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def take(self) -> tuple[list[Span], Counter[str]]:
        """Return and clear what was recorded so far."""
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], Counter()
        return spans, counts


def traced_attributes() -> list[tuple[object, str, object]]:
    """Every (module, attribute, object) the tracer swaps, as bound now.

    A traced function is found in its home module; every ``propeq`` module
    attribute bound to that same object is swapped, so each caller's lookup
    reaches the wrapper.
    """
    import propeq.cli  # noqa: F401  (loads every home module)

    targets = set()
    for mod_name in HOME_MODULES:
        mod = sys.modules[f"propeq.{mod_name}"]
        for fname in SPAN_OF:
            fn = vars(mod).get(fname)
            if callable(fn) and getattr(fn, "__module__", None) == mod.__name__:
                targets.add(id(fn))
    found = [
        (mod, attr, value)
        for key, mod in list(sys.modules.items())
        if key == "propeq" or key.startswith("propeq.")
        for attr, value in vars(mod).items()
        if id(value) in targets
    ]
    found.extend((np.fft, attr, getattr(np.fft, attr)) for attr in FFT_NAMES)
    return found
