"""Run the benchmark once per seed and report, for each workload and metric,
the median, the quartiles and the quartile spread as a share of the median.

    python3 bench/prove.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads fuzz]
                           [--trace 0|1] [--out bench/baseline.json]

With ``--trace 0`` each end-to-end metric's spread is checked against a third
of its bound from BENCHMARK.json (``setup_s`` excepted, as its runs are not
required to agree); the exit code is 1 if any run failed or any spread is too
wide.  ``--trace 1`` collects the per-layer metrics the same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(command: list[str], workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, dict, float]:
    start = time.monotonic()
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    elapsed = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    prov = next(json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("provenance "))
    return json.loads(lines[-1]), prov, elapsed


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report: dict = {"seeds": args.seeds, "trace": args.trace,
                    "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in names:
        metrics: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            result, prov, elapsed = run_once(spec["command"], workload, seed,
                                             spec["run_seconds"], args.trace)
            report.setdefault("provenance", {k: v for k, v in prov.items()
                                             if k not in ("workload", "seed", "size")})
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "correct": result["correct"],
                         "run_s": round(elapsed, 2)})
            ok &= result["correct"]
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} in {elapsed:.1f}s", file=sys.stderr)
        summary = {name: summarize(vals) for name, vals in sorted(metrics.items())}
        for name, s in summary.items():
            if name in bounds:
                s["bound"] = bounds[name]
                s["steady"] = name == "setup_s" or s["spread"] < bounds[name] / 3
                ok &= s["steady"]
            print(f"{workload:12s} {name:38s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}"
                  + (f" bound {s['bound']} {'ok' if s['steady'] else 'WIDE'}"
                     if "bound" in s else ""))
        report["workloads"][workload] = {"size": prov["size"], "runs": runs,
                                         "metrics": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
