"""Command-line surface: flow runs, single operators, fuzzing, stability.

Exit codes: 0 clean, 1 an inequality check genuinely failed,
2 operator/validation error (including convexity loss), 3 I/O error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shlex
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, bodyio, ops
from .errors import CentroflowError
from .flow import FlowConfig, conservation_checks, flow_run, harnack_and_bounds_monitor
from .lab import fuzz_campaign, stability_experiment
from .normalize import banach_mazur_to_disk, pinching_to_bm_bound, sl2_normalize
from .spectral import angles, deriv, resample
from .support import SupportFn, check_grid_size

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_OPERATOR = 2
EXIT_IO = 3

GAP_FLOOR = -1e-9  # tolerated inequality slack before flagging a violation


def _json_text(obj, **kwargs) -> str:
    """Strict JSON (no NaN or Infinity): non-finite floats are written as null."""
    def finite(x):
        if isinstance(x, float) and not math.isfinite(x):
            return None
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        return x
    return json.dumps(finite(obj), allow_nan=False, **kwargs) + "\n"


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when it is unset."""
    if out:
        bodyio.atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _csv_text(table) -> str:
    """What ``table.to_csv`` writes, as a string."""
    buf = io.StringIO()
    table.to_csv(buf)
    return buf.getvalue()


def _write_run_dir(out_dir: str, files: dict[str, str], argv: list[str], config: dict,
                   started: float, input_path: str | None = None,
                   extra_outputs: list[str] = (), timings: dict | None = None) -> None:
    """Make ``out_dir`` and write into it ``files`` (name: text) and the run's
    manifest, which lists them and ``extra_outputs`` (paths relative to it)
    and holds ``timings``, where the run's time went."""
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        bodyio.atomic_write_text(os.path.join(out_dir, name), text)
    manifest = {
        "command": shlex.join(["centroflow"] + list(argv)),
        "config": config,
        "input_sha256": bodyio.sha256_of_file(input_path) if input_path else None,
        "outputs": sorted([*files, *extra_outputs]),
        "timings": timings,
        "wall_time_s": time.time() - started,
        "version": __version__,
    }
    bodyio.atomic_write_text(os.path.join(out_dir, "manifest.json"),
                             _json_text(manifest, indent=2, sort_keys=True))


def _svg_frame(body: SupportFn, path: str) -> None:
    """Boundary polyline with a unit-circle overlay on a fixed [-2,2]^2 view."""
    # at the nodes deriv's zeroed Nyquist term is also the interpolant's own h'
    t, h, hp = angles(body.n), body.samples, deriv(body.samples)
    x, y = h * np.cos(t) - hp * np.sin(t), h * np.sin(t) + hp * np.cos(t)
    pts = " ".join(f"{xi:.6f},{-yi:.6f}" for xi, yi in zip(x, y))
    first = f"{x[0]:.6f},{-y[0]:.6f}"
    svg = (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-2 -2 4 4">\n'
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#999" '
        'stroke-width="0.01"/>\n'
        f'<polyline points="{pts} {first}" fill="none" stroke="#000" '
        'stroke-width="0.02"/>\n'
        "</svg>\n"
    )
    bodyio.atomic_write_text(path, svg)


def cmd_flow(args, argv) -> int:
    started = time.time()
    args.error_context = "invalid body at t=0"
    body = bodyio.load_body(args.body)

    args.error_context = "invalid flow configuration"
    flags = {"t_stop_area": args.stop_area, "t_stop": args.t_stop,
             "cfl": args.cfl, "renormalize_every": args.every}
    overrides = {k: v for k, v in flags.items() if v is not None}
    cfg = FlowConfig(**overrides)
    if args.n is not None:  # the flow runs on the body's grid: regrid it first
        check_grid_size(args.n)
        body = SupportFn(resample(body.samples, args.n))
        overrides["n"] = args.n
    args.error_context = None

    trace = flow_run(body, cfg)
    conservation = conservation_checks(trace)
    reports = {
        "estimated_T": trace.estimated_T,
        "steps": trace.steps,
        "stop_reason": trace.stop_reason,
        "conservation": asdict(conservation) if conservation is not None else None,
        "harnack": asdict(harnack_and_bounds_monitor(trace)),
    }

    frames = []
    if args.frames:
        os.makedirs(args.frames, exist_ok=True)
        inside_out = os.path.relpath(args.frames, args.out).split(os.sep)[0] != os.pardir
        for i in range(trace.rows):
            path = os.path.join(args.frames, f"frame_{i:06d}.svg")
            _svg_frame(sl2_normalize(trace.row_body(i))[0], path)
            if inside_out:
                frames.append(os.path.relpath(path, args.out))

    _write_run_dir(args.out, {"trace.csv": _csv_text(trace),
                              "report.json": _json_text(reports, indent=2, sort_keys=True)},
                   argv, overrides, started, args.body, frames,
                   {"rows": trace.rows, "steps": trace.steps, "stepper_s": trace.stepper_s,
                    "monitor_s": trace.monitor_s, "search_rounds": trace.search_rounds,
                    "search_evaluations": trace.search_evaluations})
    return EXIT_OK


_BODY_OPS = {"polar": ops.polar_body, "centroid": ops.centroid_body,
             "proj": ops.projection_body, "lambda": ops.curvature_image}
_OP_NAMES = (*_BODY_OPS, "bm", "normalize")


def cmd_op(args, argv) -> int:
    args.error_context = "invalid body"
    body = bodyio.load_body(args.body)
    args.error_context = f"op {args.name}"  # a failure from here on is the operator's

    if args.name in _BODY_OPS:
        result = bodyio.body_to_dict(_BODY_OPS[args.name](body))
    elif args.name == "normalize":
        normalized, witness = sl2_normalize(body)
        result = bodyio.body_to_dict(normalized)
        print(f"witness: {witness.tolist()}", file=sys.stderr)
    else:  # "bm"; argparse restricts the choices
        cert = banach_mazur_to_disk(body)
        result = {
            "distance": cert.distance,
            "witness": cert.witness.tolist(),
            "inner_radius": cert.inner_radius,
            "outer_radius": cert.outer_radius,
            "pinching_bound": pinching_to_bm_bound(body),
        }
    args.error_context = None
    _emit(_json_text(result), args.out)
    return EXIT_OK


def cmd_fuzz(args, argv) -> int:
    started = time.time()
    report = fuzz_campaign(args.seeds, args.seed, n=args.n)
    payload = _json_text(report.as_dict(), indent=2, sort_keys=True)
    if args.out:
        _write_run_dir(args.out, {"fuzz.json": payload}, argv,
                       {"seeds": args.seeds, "seed": args.seed, "n": args.n}, started)
    else:
        sys.stdout.write(payload)
    if report.worst() < GAP_FLOOR:
        print(f"violation: min gap {report.worst():.3e}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_stability(args, argv) -> int:
    started = time.time()
    result = stability_experiment(args.samples, args.seed, n=args.n)
    summary = {
        "gamma": result.gamma,
        "fit_exponent": result.fit_exponent,
        "fit_count": result.fit_count,
        "control_eps": result.control_eps,
        "control_d_minus_1": result.control_d_minus_1,
        "eps_min": min(s.eps for s in result.samples),
        "eps_max": max(s.eps for s in result.samples),
        "deficit_evaluations": result.deficit_evaluations,
    }
    summary_text = _json_text(summary, indent=2, sort_keys=True)
    if args.out:
        _write_run_dir(args.out, {"scatter.csv": _csv_text(result), "summary.json": summary_text},
                       argv, {"samples": args.samples, "seed": args.seed, "n": args.n}, started)
    else:
        sys.stdout.write(summary_text)
    if summary["eps_min"] < GAP_FLOOR:
        print(f"violation: min eps {summary['eps_min']:.3e}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centroflow",
        description="Planar support-function flow and affine-inequality toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p_flow = sub.add_parser("flow", help="run the curvature flow on a body file")
    p_flow.add_argument("--body", required=True)
    p_flow.add_argument("--out", required=True)
    p_flow.add_argument("--frames", help="directory for SVG frames")
    p_flow.add_argument("--n", type=int)
    p_flow.add_argument("--cfl", type=float)
    p_flow.add_argument("--stop-area", type=float, dest="stop_area")
    p_flow.add_argument("--t-stop", type=float, dest="t_stop")
    p_flow.add_argument("--every", type=int, help="steps between trace rows")

    p_op = sub.add_parser("op", help="apply one operator to a body file")
    p_op.add_argument("name", choices=_OP_NAMES)
    p_op.add_argument("--body", required=True)
    p_op.add_argument("--out")

    p_fuzz = sub.add_parser("fuzz", help="run the inequality fuzz campaign")
    p_fuzz.add_argument("--seeds", type=int, required=True,
                        help="number of bodies")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--n", type=int, default=256)
    p_fuzz.add_argument("--out")

    p_stab = sub.add_parser("stability",
                            help="deficit vs Banach-Mazur distance scatter")
    p_stab.add_argument("--samples", type=int, required=True)
    p_stab.add_argument("--seed", type=int, default=0)
    p_stab.add_argument("--n", type=int, default=256)
    p_stab.add_argument("--out")

    return parser


def main(argv=None) -> int:
    """Run one command; the one error boundary.  An I/O error exits 3, bad
    input or an operator failure 2 (an ArithmeticError too), each with one
    ``error:`` line, prefixed by the ``args.error_context`` a command sets
    while it reads its inputs or runs an operator.  numpy's floating-point
    warnings are silenced: a body whose scale overflows is reported by that
    line alone."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args.error_context = None
    handlers = {
        "flow": cmd_flow,
        "op": cmd_op,
        "fuzz": cmd_fuzz,
        "stability": cmd_stability,
    }
    try:
        with np.errstate(all="ignore"):
            return handlers[args.command](args, argv)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CentroflowError, ValueError, ArithmeticError) as exc:
        prefix = f"{args.error_context}: " if args.error_context else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return EXIT_OPERATOR


if __name__ == "__main__":
    sys.exit(main())
