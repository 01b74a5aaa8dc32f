#!/usr/bin/env python3
"""Write the golden reference tables the benchmark checks every operation against.

    python3 perfbench/make_golden.py

``golden.csv`` holds (workload, op, f_p, seed, ddm_raw, ddm_eq) for one
operation of each sweep workload (their operations do not depend on the
workload seed) and for the first single_capture operations at workload seed
0. ``golden_spectra.csv`` holds a few bins of each spectrum dump of
report_multiprop_w2. Regenerate them only when the numbers are meant to
change: the tables exist so that a refactor can show its results did not.
"""

from __future__ import annotations

import csv
import io
import sys
import tempfile
from pathlib import Path

from run import OUT, SRC, call_cli
from workloads import (
    DEFAULT_SEED,
    GOLDEN,
    GOLDEN_SINGLE_OPS,
    GOLDEN_SPECTRA,
    SPECTRUM_PROBE_HZ,
    SPECTRUM_STAGES,
    ReportMultipropW2,
    SingleCapture,
    SweepDefault,
    read_sweep_csv,
)


def run_op(cli, op) -> None:
    sink = io.StringIO()
    for argv in op.commands:
        if call_cli(cli, argv, sink) != 0:
            raise SystemExit(f"`propeq {' '.join(argv)}` failed")


def main() -> None:
    sys.path.insert(0, str(SRC))
    import propeq.cli as cli

    rows = []
    spectra = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out = Path(tmp)
        for cls in (SweepDefault, ReportMultipropW2):
            w = cls(DEFAULT_SEED, out, {}, {})
            run_op(cli, w.op(0))
            rows += [(w.name, 0, *r) for r in read_sweep_csv(out / "sweep.csv", w.runs_per_op)]
        for stage in SPECTRUM_STAGES:
            with open(out / f"{stage}.csv", encoding="utf-8") as fh:
                for rec in csv.DictReader(fh):
                    if float(rec["freq_hz"]) in SPECTRUM_PROBE_HZ:
                        spectra.append((stage, rec["freq_hz"], rec["re"], rec["im"]))
        single = SingleCapture(DEFAULT_SEED, out, {}, {})
        for i in range(GOLDEN_SINGLE_OPS):
            run_op(cli, single.op(i))
            rows += [(single.name, i, *r) for r in read_sweep_csv(out / "run.csv", 1)]

    with open(GOLDEN, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("workload", "op", "f_p", "seed", "ddm_raw", "ddm_eq"))
        w.writerows((name, op, repr(fp), seed, repr(raw), repr(eq)) for name, op, fp, seed, raw, eq in rows)
    with open(GOLDEN_SPECTRA, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("stage", "freq_hz", "re", "im"))
        w.writerows(spectra)
    print(f"wrote {len(rows)} runs to {GOLDEN.name} and {len(spectra)} bins to {GOLDEN_SPECTRA.name}")


if __name__ == "__main__":
    main()
