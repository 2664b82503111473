"""The three benchmark workloads: inputs from a seed, the timed call, the
correctness gates, and an output digest.

Each workload is one call into the public ``centroflow`` API, made the way
the ``centroflow`` command line makes it.  The seed is the only input the
benchmark chooses; the program receives the bodies (or the seed its own
generator expands) and nothing else.

Sizes are smaller than the acceptance fixtures so that several repeats fit in
one measured run; README.md in this directory gives the reasons.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_centroflow():
    """Import ``centroflow`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "centroflow" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no centroflow sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import centroflow

    if Path(centroflow.__file__).resolve().parent != SRC / "centroflow":
        raise SystemExit(f"benchmark: imported centroflow from {centroflow.__file__}")
    return centroflow


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict[str, dict[str, Any]]
    make_inputs: Callable[[Any, int, dict], tuple]
    call: Callable[[Any, tuple], Any]
    gates: Callable[[Any], list[str]]
    digest: Callable[[Any], str]
    facts: Callable[[Any], dict[str, float]]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


# --- flow-seeded ----------------------------------------------------------------

def _flow_inputs(cf, seed: int, size: dict) -> tuple:
    bodies = [cf.random_body(cf.BodySpec(seed=seed + 1000 * j, n=size["n"],
                                         mode_count=3, decay=1.6, amplitude=0.5))
              for j in range(size["bodies"])]
    cfg = cf.FlowConfig(cfl=0.1, t_stop_area=size["t_stop_area"],
                        renormalize_every=size["every"])
    return bodies, cfg


def _flow_call(cf, inputs: tuple) -> list:
    """What ``centroflow flow`` computes for each body: the run, both
    monitors, the CSV."""
    bodies, cfg = inputs
    out = []
    for body in bodies:
        trace = cf.flow_run(body, cfg)
        cons = cf.conservation_checks(trace)
        harn = cf.harnack_and_bounds_monitor(trace)
        buf = io.StringIO()
        trace.to_csv(buf)
        out.append((trace, cons, harn, buf.getvalue()))
    return out


def _flow_gates(result: list) -> list[str]:
    out: list[str] = []
    for trace, cons, harn, _ in result:
        _check(out, trace.stop_reason == "area_threshold",
               f"stop_reason {trace.stop_reason}")
        _check(out, cons.area_law_max_rel_dev <= 1e-3,
               f"area-law deviation {cons.area_law_max_rel_dev:.3e} > 1e-3")
        worst_increase = float(np.max(np.diff(trace.bp_ratio)))
        _check(out, worst_increase <= 1e-8,
               f"bp_ratio increase {worst_increase:.3e} > 1e-8")
        _check(out, harn.harnack_worst_drop >= -1e-6,
               f"Harnack drop {harn.harnack_worst_drop:.3e} < -1e-6")
        _check(out, harn.shrinking_ok, "support not shrinking")
        _check(out, harn.displacement_ok, "displacement bound violated")
        _check(out, trace.norm_disk_dist[-1] <= 1e-2,
               f"final norm_disk_dist {trace.norm_disk_dist[-1]:.3e} > 1e-2")
    return out


def _flow_digest(result: list) -> str:
    return _sha256("".join(csv_text for *_, csv_text in result))


def _flow_facts(result: list) -> dict[str, float]:
    return {"flow.steps": sum(r[0].steps for r in result),
            "flow.rows": sum(r[0].rows for r in result),
            "flow.area_law_dev": max(r[1].area_law_max_rel_dev for r in result)}


# --- fuzz -------------------------------------------------------------------------

FUZZ_GAPS = ("bp_deficit", "santalo_gap", "petty_gap", "groemer_vs_disk",
             "groemer_vs_prev", "minkowski_vs_disk", "minkowski_vs_prev",
             "lambda_area_drop")


def _campaign_inputs(cf, seed: int, size: dict) -> tuple:
    """(count, seed, n): the campaign expands the seed into its own bodies."""
    return size["count"], seed, size["n"]


def _fuzz_call(cf, inputs: tuple):
    count, seed, n = inputs
    return cf.fuzz_campaign(count, seed=seed, n=n)


def _fuzz_gates(report) -> list[str]:
    out: list[str] = []
    worst = min(report.checks[k]["min_gap"] for k in FUZZ_GAPS)
    _check(out, worst >= -1e-9, f"inequality gap {worst:.3e} < -1e-9")
    lut = report.checks["lutwak_residual_rel"]["max"]
    _check(out, lut <= 1e-5, f"identity residual {lut:.3e} > 1e-5")
    return out


def _fuzz_digest(report) -> str:
    return _sha256(json.dumps(report.as_dict(), sort_keys=True))


# --- stability ------------------------------------------------------------------

def _stability_call(cf, inputs: tuple):
    count, seed, n = inputs
    return cf.stability_experiment(count, seed=seed, n=n)


def _stability_gates(result) -> list[str]:
    out: list[str] = []
    for s in result.samples:
        _check(out, s.d_bm_minus_1 <= result.gamma * s.eps ** 0.25 + 1e-12,
               f"sample {s.seed}: d-1 {s.d_bm_minus_1:.3e} above gamma eps^1/4")
    _check(out, math.isfinite(result.gamma), f"gamma {result.gamma}")
    _check(out, abs(result.control_eps) < 1e-6,
           f"control |eps| {abs(result.control_eps):.3e} >= 1e-6")
    _check(out, abs(result.control_d_minus_1) < 1e-6,
           f"control |d-1| {abs(result.control_d_minus_1):.3e} >= 1e-6")
    return out


def _csv_digest(result) -> str:
    buf = io.StringIO()
    result.to_csv(buf)
    return _sha256(buf.getvalue())


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="flow-seeded",
        sizes={"default": {"bodies": 4, "n": 64, "every": 25, "t_stop_area": 0.3},
               "tiny": {"bodies": 1, "n": 64, "every": 25, "t_stop_area": 0.3}},
        make_inputs=_flow_inputs,
        call=_flow_call,
        gates=_flow_gates,
        digest=_flow_digest,
        facts=_flow_facts,
    ),
    Workload(
        name="fuzz",
        sizes={"default": {"count": 20, "n": 256},
               "tiny": {"count": 2, "n": 64}},
        make_inputs=_campaign_inputs,
        call=_fuzz_call,
        gates=_fuzz_gates,
        digest=_fuzz_digest,
        facts=lambda report: {},
    ),
    Workload(
        name="stability",
        sizes={"default": {"count": 20, "n": 128},
               "tiny": {"count": 10, "n": 64}},
        make_inputs=_campaign_inputs,
        call=_stability_call,
        gates=_stability_gates,
        digest=_csv_digest,
        facts=lambda result: {"lab.samples": len(result.samples)},
    ),
)}
