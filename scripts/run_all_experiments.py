#!/usr/bin/env python3
"""Run every registered verification experiment with its pinned defaults.

Writes one report JSON and one curves CSV per experiment into the output
directory and prints a pass/fail summary table, with each experiment's
wall time and the process's peak resident memory (ru_maxrss) after it, a
high-water mark over every experiment run so far. Expect the compensating
experiment to report a failing closed-form ratio check: the published
approximation it tabulates does not satisfy its own defining equation at
these sample sizes, and the report records that instead of hiding it.

Exits 1 when any check fails that is not listed in EXPECTED_FAILURES (the
summary prints that list), 0 otherwise.

Usage:
    python scripts/run_all_experiments.py [--outdir reports] [--only NAME]
"""

import argparse
import resource
import sys
from pathlib import Path

from flatclust.experiments import experiment_names, run_experiment
from flatclust.io import emit_curves_csv, write_json_document

# Checks that fail by design; every other failed check fails the run.
EXPECTED_FAILURES = {("compensating", "closed_form_ratio_in_band")}


def peak_rss_mb() -> float:
    """The process's peak resident memory so far, in MB (Linux counts ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="reports")
    parser.add_argument("--only", default=None, choices=experiment_names(), help="run just one experiment")
    args = parser.parse_args(argv)

    names = [args.only] if args.only else experiment_names()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    failures = 0
    unexpected = []
    for name in names:
        report = run_experiment(name)
        write_json_document(outdir / f"{name}_report.json", report.to_document())
        emit_curves_csv(outdir / f"{name}_curves.csv", report.curves)
        status = "pass" if report.passed else "FAIL"
        failures += not report.passed
        slope = f" slope={report.slope:.4f}" if report.slope is not None else ""
        print(f"{name:20s} {status}{slope}  ({report.wall_clock_s:.1f}s, peak RSS {peak_rss_mb():.1f} MB)")
        for check, ok in report.checks.items():
            expected = (name, check) in EXPECTED_FAILURES
            note = "  (expected)" if expected and not ok else ""
            print(f"    {'ok  ' if ok else 'FAIL'} {check}{note}")
            if not ok and not expected:
                unexpected.append(f"{name}.{check}")
    print(f"\n{len(names) - failures}/{len(names)} experiments passed; reports in {outdir}/")
    print("expected failures: " + ", ".join(f"{n}.{c}" for n, c in sorted(EXPECTED_FAILURES)))
    if unexpected:
        print("unexpected failures: " + ", ".join(unexpected))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
