"""Command-line interface: simulate, sweep, blindspots, spectrum.

Exit codes: 0 success, 1 configuration or validation error, 2 runtime
pipeline error (including I/O failures while emitting results).
"""

from __future__ import annotations

import argparse
import sys

from .channel import eval_modulator
from .equalizer import BLIND_SPOT_THRESHOLD, critical_twiddles, flag_blind_spots
from .errors import PipelineError
from .harness import (
    ScenarioConfig,
    check_runs,
    default_scenario,
    dump_spectrum,
    emit_csv,
    emit_plot,
    fp_grid,
    grid_points,
    load_config,
    scenario_with,
    simulate,
    sweep_fp,
)
from .pipeline import STAGES, stage_spectrum


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this CLI reserves 2 for runtime
    # pipeline failures, so downgrade usage problems to the config exit code.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="propeq",
        description="Reference-tone equalization of propeller-modulated ILS captures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[], help="run one scenario")
    sim.add_argument("--config", help="JSON scenario config (defaults used if omitted)")
    sim.add_argument("--fp", type=float, help="override propeller rate in Hz")
    sim.add_argument("--seed", type=int, help="override channel noise seed")
    sim.add_argument("--snr-db", type=float, help="override channel SNR in dB")
    sim.add_argument("--out", help="write the run as CSV to this path")

    sw = sub.add_parser("sweep", help="propeller-rate sweep with Monte-Carlo seeds")
    sw.add_argument("--config", help="JSON scenario config (defaults used if omitted)")
    sw.add_argument("--fp-start", type=float, default=15.0)
    sw.add_argument("--fp-stop", type=float, default=40.0)
    sw.add_argument("--fp-step", type=float, default=0.5)
    sw.add_argument("--seeds", type=int, default=10, help="number of seeds (0..n-1)")
    sw.add_argument("--snr-db", type=float, help="override channel SNR in dB")
    sw.add_argument("--out", required=True, help="CSV output path")
    sw.add_argument("--plot", help="optional SVG chart output path")
    sw.add_argument("--workers", type=int, default=1, help="parallel grid workers")

    bs = sub.add_parser("blindspots", help="scan the grid for equalization blind spots")
    bs.add_argument("--config", help="JSON scenario config (defaults used if omitted)")
    bs.add_argument("--threshold", type=float, default=BLIND_SPOT_THRESHOLD)
    bs.add_argument("--fp-start", type=float, default=15.0)
    bs.add_argument("--fp-stop", type=float, default=40.0)
    bs.add_argument("--fp-step", type=float, default=0.5)

    sp = sub.add_parser("spectrum", help="dump a pipeline-stage spectrum as CSV")
    sp.add_argument("--config", help="JSON scenario config (defaults used if omitted)")
    sp.add_argument("--stage", choices=STAGES, required=True)
    sp.add_argument("--fp", type=float, help="override propeller rate in Hz")
    sp.add_argument("--seed", type=int, help="override channel noise seed")
    sp.add_argument("--out", required=True, help="CSV output path")
    return parser


def _load_scenario(args: argparse.Namespace) -> ScenarioConfig:
    if args.config:
        try:
            cfg = load_config(args.config)
        except FileNotFoundError as e:
            raise ValueError(f"config file not found: {args.config}") from e
    else:
        cfg = default_scenario()
    overrides = {}
    if getattr(args, "fp", None) is not None:
        overrides["f_p"] = args.fp
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "snr_db", None) is not None:
        overrides["snr_db"] = args.snr_db
    return scenario_with(cfg, **overrides) if overrides else cfg


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_scenario(args)
    sim = simulate(cfg)
    (result,) = sim.results
    print(f"f_p = {result.f_p_hz:g} Hz, seed = {result.seed}")
    print(f"ddm_raw = {result.ddm_raw:+.6f}  (dev {result.dev_raw:.3e})")
    print(f"ddm_eq  = {result.ddm_eq:+.6f}  (dev {result.dev_eq:.3e})")
    flagged = sim.summaries[0].flagged_freqs
    if flagged:
        freqs = ", ".join(f"{f:g} Hz" for f in flagged)
        print(f"note: modulator has components at {freqs}; equalization may underperform")
    if args.out:
        emit_csv(sim, args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds <= 0:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    cfg = _load_scenario(args)
    check_runs(grid_points(args.fp_start, args.fp_stop, args.fp_step), args.seeds)
    sweep = sweep_fp(
        cfg,
        args.fp_start,
        args.fp_stop,
        args.fp_step,
        seeds=list(range(args.seeds)),
        workers=args.workers,
    )
    emit_csv(sweep, args.out)
    print(f"wrote {len(sweep.results)} runs to {args.out}")
    if args.plot:
        emit_plot(sweep, args.plot)
        print(f"wrote plot to {args.plot}")
    print(f"{'f_p (Hz)':>9} {'med dev raw':>12} {'med dev eq':>12}  note")
    for s in sweep.summaries:
        note = ""
        if s.flagged_freqs:
            freqs = ", ".join(f"{f:g} Hz" for f in s.flagged_freqs)
            note = f"blind spot (modulator component at {freqs}); equalization may underperform"
        print(f"{s.f_p_hz:9g} {s.median_dev_raw:12.3e} {s.median_dev_eq:12.3e}  {note}".rstrip())
    return 0


def _cmd_blindspots(args: argparse.Namespace) -> int:
    cfg = _load_scenario(args)
    if not args.threshold > 0:
        raise ValueError(f"--threshold must be > 0, got {args.threshold}")
    any_flagged = False
    twiddles = critical_twiddles(cfg.clock)
    for fp in fp_grid(args.fp_start, args.fp_stop, args.fp_step, cfg.clock):
        m = eval_modulator(cfg.channel.with_rate(fp), cfg.clock).samples
        flagged = flag_blind_spots(twiddles, m, rel_threshold=args.threshold)
        if flagged:
            any_flagged = True
            freqs = ", ".join(f"{f:g} Hz" for f in flagged)
            print(f"f_p = {fp:g} Hz: blind spot at {freqs}; equalization may underperform")
    if not any_flagged:
        print("no blind spots flagged on the scanned grid")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _load_scenario(args)
    dump_spectrum(stage_spectrum(cfg, args.stage), args.out)
    print(f"wrote {args.stage} spectrum to {args.out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "blindspots": _cmd_blindspots,
    "spectrum": _cmd_spectrum,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as e:
        print(f"propeq: config error: {e}", file=sys.stderr)
        return 1
    except PipelineError as e:
        print(f"propeq: pipeline error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"propeq: i/o error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
