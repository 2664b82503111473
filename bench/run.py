"""Run one centroflow benchmark workload and print its metrics.

    python3 bench/run.py --workload flow-seeded --seed 1 --seconds 30 --trace 0

The workload call is repeated on the same seeded inputs until the next repeat
would end after ``--seconds``; there is always at least one.  Every repeat is
checked against the acceptance bounds and its output digest against the first
repeat's.  Load model: one process, one call at a time (closed loop), no
threads added by the benchmark.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of the
workload call), ``setup_s`` (median of three fresh-interpreter imports plus
input generation) and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and
traced calls on the same inputs and reports the per-layer metrics of the
traced calls, averaged per call, and ``trace.overhead_frac`` from the pairs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import UNITS, Tracer, layer_metrics
from workloads import ROOT, WORKLOADS, import_centroflow

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def provenance(workload: str, seed: int, size: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        sha = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": sha,
        "workload": workload,
        "seed": seed,
        "size": WORKLOADS[workload].sizes[size],
    }


def measure_setup(workload: str, seed: int, size: str) -> float:
    """Median over fresh interpreters of import plus input generation."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), size]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


class Runner:
    """Times repeats of one workload call and checks each one."""

    def __init__(self, cf, workload, inputs):
        self.cf = cf
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.first_digest = None

    def call(self, around=contextlib.nullcontext()) -> tuple[int, object]:
        """One checked call, made inside ``around``: (wall time in ns, result),
        the result being None if the call raised."""
        self.attempted += 1
        try:
            with around:
                start = time.perf_counter_ns()
                result = self.workload.call(self.cf, self.inputs)
                elapsed = time.perf_counter_ns() - start
        except Exception:
            elapsed = time.perf_counter_ns() - start
            self.failed += 1
            traceback.print_exc()
            return elapsed, None
        problems = self.workload.gates(result)
        digest = self.workload.digest(result)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append(f"digest {digest[:12]} differs from {self.first_digest[:12]}")
        if problems:
            self.failed += 1
            print(f"repeat {self.attempted} failed: " + "; ".join(problems),
                  file=sys.stderr)
        return elapsed, result


def run_untraced(runner: Runner, seconds: float) -> dict:
    walls: list[int] = []
    start = time.perf_counter_ns()
    while True:
        walls.append(runner.call()[0])
        spent = (time.perf_counter_ns() - start) * 1e-9
        if spent + statistics.median(walls) * 1e-9 > seconds:
            break
    return {
        "wall_s": statistics.median(walls) * 1e-9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    tracer = Tracer(runner.cf)
    plain: list[int] = []
    traced: list[int] = []
    per_call: list[dict] = []
    start = time.perf_counter_ns()
    while True:
        for traced_turn in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            if not traced_turn:
                plain.append(runner.call()[0])
                continue
            lo, nfev0 = len(tracer.spans), tracer.nfev
            wall, result = runner.call(tracer.installed())
            traced.append(wall)
            facts = runner.workload.facts(result) if result is not None else {}
            per_call.append(layer_metrics(tracer.spans, lo, len(tracer.spans), wall,
                                          tracer.nfev - nfev0, facts))
        spent = (time.perf_counter_ns() - start) * 1e-9
        pair = statistics.median(plain) + statistics.median(traced)
        if spent + pair * 1e-9 > seconds:
            break
    metrics = {k: statistics.fmean(c[k] for c in per_call) for k in per_call[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    write_spans(tracer.spans, spans_path)
    return metrics


def write_spans(spans: list[list], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_ns,end_ns,parent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{start},{end},{parent}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("default", "tiny"), default="default",
                    help="tiny: the smoke-test size, seconds per call")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    cf = import_centroflow()
    workload = WORKLOADS[args.workload]
    prov = provenance(args.workload, args.seed, args.size)
    print("provenance " + json.dumps(prov, sort_keys=True))

    inputs = workload.make_inputs(cf, args.seed, workload.sizes[args.size])
    if args.trace:
        runner = Runner(cf, workload, inputs)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        values = run_traced(runner, args.seconds, spans_path)
        units = UNITS
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        print("note: unwrapped work inside flow._RowRecorder.record counts as "
              "flow_run self time, hence in flow.stepper_s")
    else:
        setup_s = measure_setup(args.workload, args.seed, args.size)
        runner = Runner(cf, workload, inputs)
        values = run_untraced(runner, args.seconds)
        values["setup_s"] = setup_s
        units = END_TO_END_UNITS

    failed_frac = runner.failed / runner.attempted
    print(f"{args.workload} seed={args.seed} size={args.size} "
          f"repeats={runner.attempted} digest={runner.first_digest}")
    for name in sorted(values):
        print(f"  {name:40s} {values[name]:.9g} {units[name]}")
    print(f"  {'failed_frac':40s} {failed_frac:.9g} 1")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
