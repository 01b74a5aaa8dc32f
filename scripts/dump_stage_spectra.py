#!/usr/bin/env python3
"""Dump modulator, received, and equalized spectra for one rotation rate.

The received spectrum shows the chop harmonics convolved onto every
transmitted line; the equalized spectrum shows them collapsed back, leaving
the residual floor created by band truncation.
"""

import argparse
from pathlib import Path

from propeq import default_scenario, dump_spectrum, scenario_with
from propeq.pipeline import stage_spectra


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fp", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--noiseless", action="store_true")
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    noiseless = {"snr_db": None} if args.noiseless else {}
    cfg = scenario_with(default_scenario(), f_p=args.fp, seed=args.seed, **noiseless)
    for stage, spec in stage_spectra(cfg).items():
        dump_spectrum(spec, out / f"{stage}.csv")
    print(f"wrote modulator.csv, rx.csv, equalized.csv to {out}/ (f_p={args.fp:g} Hz)")


if __name__ == "__main__":
    main()
