#!/usr/bin/env python3
"""Closed-loop benchmark of flatclust, end to end and layer by layer.

    python3 perfbench/run.py --workload series_tree --seed 1 --seconds 30 --trace 0

Run from the repository root. The benchmark imports flatclust from `src/`
of the same checkout, sets up the workload's inputs from the seed, then
runs passes back to back in this one process (a closed loop with one
client: each pass starts when the previous one has finished) until the
next pass would end after `--seconds`. Every pass's outputs are checked.

With `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
per-layer metrics: the traced run alternates untraced and traced passes, so
it can also report the tracing overhead, and then runs the sd-sweep probe.
The last line of standard output is one JSON object; everything above it is
for people. Results, with the environment and the trace spans, are also
written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = "import time; t = time.perf_counter(); import flatclust; print(time.perf_counter() - t)"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("series_tree", "series_smooth", "registry"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def import_seconds() -> float:
    """Time `import flatclust` in a fresh interpreter, as a CLI user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip())


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "commit": commit,
        "seed": seed,
    }


def digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + outputs[name] + b"\0")
    return h.hexdigest()


def run_loop(workload, seconds: float, tracer) -> dict:
    """Closed loop of passes; odd passes are traced when a tracer is given."""
    walls, cpus, traced_walls = [], [], []
    verdicts: dict[str, list[str]] = {}
    first = None
    failed = 0
    rss_after_first = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        problems: list[str] = []
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if traced:
                tracer.phase, tracer.pass_id = "pass", i
                with tracer.installed():
                    workload.run_pass()
            else:
                workload.run_pass()
        except Exception:  # a failed pass is counted, reported and the loop goes on
            problems.append("pass raised:\n" + traceback.format_exc())
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if i == 0:
            rss_after_first = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        (traced_walls if traced else walls).append(wall)
        if not traced:
            cpus.append(cpu)
        if not problems:
            try:
                out = workload.outputs()
                key = digest(out)
                if key not in verdicts:
                    verdicts[key] = workload.check(out)
                problems = list(verdicts[key])
                if first is None:
                    first = key
                elif key != first:
                    problems.append("output bytes differ from the first pass")
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
                problems.append(f"output could not be checked: {exc!r}")
        if problems:
            failed += 1
            print(f"pass {i} FAILED:\n  " + "\n  ".join(problems), file=sys.stderr)
        i += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls + traced_walls)
        if elapsed + typical > seconds and (tracer is None or i >= 2):
            break
    return {
        "walls": walls,
        "cpus": cpus,
        "traced_walls": traced_walls,
        "attempted": i,
        "failed": failed,
        "rss_after_first_mb": rss_after_first,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flatclust" / "__init__.py").is_file():
        print(f"error: no flatclust sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")  # one process, one thread: cpu_s tracks wall_s
    sys.path.insert(0, str(SRC))

    import flatclust

    if Path(flatclust.__file__).resolve().parent != (SRC / "flatclust").resolve():
        print(f"error: imported flatclust from {flatclust.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS

    env = environment(args.seed)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None

    setups = []
    for _ in range(SETUP_REPS):
        took = import_seconds()
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.installed():
                workload.setup()
        else:
            workload.setup()
        setups.append(took + time.perf_counter() - t0)

    loop = run_loop(workload, args.seconds, tracer)
    walls, cpus = loop["walls"], loop["cpus"]
    q1, median, q3 = quartiles(walls)
    wall, cpu = min(walls), min(cpus)
    attempted, failed = loop["attempted"], loop["failed"]
    e2e = {
        "wall_s": {"value": wall, "unit": "s"},
        "cpu_s": {"value": cpu, "unit": "s"},
        "peak_rss_mb": {"value": loop["rss_after_first_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    series_per_s = workload.series / wall  # printed, not gated: it is wall_s again

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"sizes: {json.dumps(workload.sizes, sort_keys=True)}")
    print(f"wall_s        {wall:.4f} s fastest of n={len(walls)} untraced passes; median {median:.4f}, q1 {q1:.4f}, q3 {q3:.4f}")
    print(f"cpu_s         {cpu:.4f} s fastest; median {statistics.median(cpus):.4f}")
    print(f"series_per_s  {series_per_s:.2f} 1/s ({workload.series} series per pass)")
    print(f"peak_rss_mb   {e2e['peak_rss_mb']['value']:.1f} MB after the first pass")
    print(f"setup_s       {e2e['setup_s']['value']:.4f} s median of {SETUP_REPS} set-ups: " + ", ".join(f"{s:.4f}" for s in setups))
    print(f"error_rate    {failed / attempted:.4f} ({failed}/{attempted} passes failed their check)")
    if args.workload == "registry" and "compensating" in workload.reports:
        got = workload.reports["compensating"].checks.get("closed_form_ratio_in_band")
        print(f"expected failure: compensating.closed_form_ratio_in_band = {got} (documented False; True fails the pass)")

    result = {"environment": env, "args": vars(args), "loop": loop, "setups": setups, "series_per_s": series_per_s}
    if tracer is None:
        metrics = e2e
    else:
        traced_wall = min(loop["traced_walls"])
        layers = tracing.layer_metrics(tracer, len(loop["traced_walls"]), SETUP_REPS)
        layers["trace.overhead_s"] = traced_wall - wall
        layers["trace.overhead_frac"] = (traced_wall - wall) / wall
        layers.update(tracing.sd_probe(tracer, args.seed))
        layers_doc = json.loads((Path(__file__).parent / "layers.json").read_text())["layers"]
        metrics = {k: {"value": v, "unit": layers_doc[k]["unit"]} for k, v in layers.items()}
        print(f"tracing overhead: fastest traced pass {traced_wall:.4f} - fastest untraced {wall:.4f} = {traced_wall - wall:+.4f} s")
        if tracer.missing:
            print("hooks not found, their metrics read 0: " + ", ".join(tracer.missing))
        for k, v in metrics.items():
            print(f"  {k:36s} {v['value']:.6g} {v['unit']}")
        result["spans"] = tracer.spans
    result["metrics"] = metrics
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str)
    )
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
