"""Outside-in tracing of the ``centroflow`` layers.

The tracer replaces each public function of ``spectral``, ``support``, ``ops``,
``normalize``, ``flow`` and ``lab`` at every module binding that refers to it
(``flow`` and ``lab`` import the searches by name, ``normalize`` and ``flow``
import ``apply_linear_map`` by name, the package re-exports everything), plus
``normalize.minimize`` and the two ``to_csv`` methods.  Nothing under ``src/``
changes.  Spans are kept in memory as ``[name, start_ns, end_ns, parent]``
and the wrappers are installed only while a traced call runs.

Code that is not a public function of those modules is not wrapped: its time
falls into the self time of the nearest wrapped caller.  In particular the
unwrapped part of ``flow._RowRecorder.record`` (array arithmetic, ``SupportFn``
construction) counts as ``flow_run`` self time and therefore as
``flow.stepper_s``.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

LAYERS = ("spectral", "support", "ops", "normalize", "flow", "lab")
SEARCHES = ("normalize.sl2_normalize", "normalize.banach_mazur_to_disk")
POSTRUN = ("flow.conservation_checks", "flow.harnack_and_bounds_monitor",
           "flow.FlowTrace.to_csv")

# Self-time metrics.  Every span's self time lands in exactly one of them, so
# together with trace.unattributed_s they add up to trace.wall_s.
SELF_METRICS = (
    "spectral.self_s",
    "support.apply_linear_map.self_s", "support.other.self_s",
    "ops.polar_chain.self_s", "ops.centroid_body.self_s", "ops.other.self_s",
    "normalize.cold.self_s", "normalize.warm.self_s",
    "normalize.nelder_mead.self_s", "normalize.other.self_s",
    "flow.run.self_s", "flow.other.self_s",
    "lab.deficit_report.self_s", "lab.other.self_s",
)
COUNT_METRICS = (
    "spectral.calls",
    "support.apply_linear_map.calls",
    "ops.polar_chain.calls", "ops.centroid_body.calls",
    "normalize.sl2_normalize.calls", "normalize.banach_mazur_to_disk.calls",
    "normalize.cold.calls", "normalize.warm.calls", "normalize.nelder_mead.nfev",
    "lab.deficit_report.calls", "lab.bp_deficit.calls", "lab.random_body.calls",
)
DERIVED_METRICS = (
    ("flow.steps", "count"), ("flow.rows", "count"),
    ("flow.stepper_s", "s"), ("flow.step_us", "us"),
    ("flow.monitor_s", "s"), ("flow.row_ms", "ms"),
    ("flow.postrun_s", "s"), ("flow.area_law_dev", "1"),
    ("lab.bisection_per_sample", "count"),
    ("trace.overhead_frac", "1"), ("trace.unattributed_s", "s"),
    ("trace.wall_s", "s"),
)
UNITS = {**{m: "s" for m in SELF_METRICS}, **{m: "count" for m in COUNT_METRICS},
         **dict(DERIVED_METRICS)}


# spans with a self-time metric of their own; the rest go to <layer>.other
OWN_SELF = {"support.apply_linear_map", "ops.polar_chain", "ops.centroid_body",
            "normalize.nelder_mead", "lab.deficit_report"}


def self_metric(name: str) -> str:
    """The self-time metric a span name is charged to."""
    layer = name.partition(".")[0]
    if layer == "spectral":
        return "spectral.self_s"
    if name.startswith(SEARCHES):
        return "normalize.warm.self_s" if name.endswith(":warm") else "normalize.cold.self_s"
    if name in OWN_SELF:
        return name + ".self_s"
    if name == "flow.flow_run":
        return "flow.run.self_s"
    return layer + ".other.self_s"


class Tracer:
    """Records spans of the wrapped functions while ``installed()`` is active."""

    def __init__(self, cf):
        self.spans: list[list] = []
        self.nfev = 0
        self._stack = [-1]  # index of the open span; -1 at top level
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan(cf)

    def _plan(self, cf) -> None:
        modules = [getattr(cf, name) for name in LAYERS]
        holders = modules + [cf]
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for bound, value in vars(holder).items():
                        if value is fn:
                            self._patches.append((holder, bound, fn, wrapper))
        minimize = cf.normalize.minimize
        self._patches.append((cf.normalize, "minimize", minimize,
                              self._wrap("normalize.nelder_mead", minimize, nfev=True)))
        for cls, layer in ((cf.flow.FlowTrace, "flow"), (cf.lab.StabilityResult, "lab")):
            fn = cls.to_csv
            self._patches.append((cls, "to_csv", fn,
                                  self._wrap(f"{layer}.{cls.__name__}.to_csv", fn)))

    def _wrap(self, name: str, fn, nfev: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        search = name in SEARCHES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if search:
                cfg = args[1] if len(args) > 1 else kwargs.get("config")
                label += ":cold" if cfg is None or cfg.warm_start is None else ":warm"
            span = [label, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if nfev:
                self.nfev += int(result.nfev)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)
        try:
            yield self
        finally:
            for holder, attr, original, _ in self._patches:
                setattr(holder, attr, original)


def check_nesting(spans: list[list], lo: int, hi: int) -> None:
    """Raise if a span of ``spans[lo:hi]`` is not inside its parent."""
    for i in range(lo, hi):
        name, start, end, parent = spans[i]
        if end < start:
            raise AssertionError(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if not (lo <= parent < i and p[1] <= start and end <= p[2]):
                raise AssertionError(f"span {i} ({name}) is not inside its parent")


def layer_metrics(spans: list[list], lo: int, hi: int, wall_ns: int,
                  nfev: int, facts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced call, from ``spans[lo:hi]``.

    ``facts`` holds what the workload reads off its own result: the flow's
    step and row counts and area-law deviation, the stability sample count.
    """
    check_nesting(spans, lo, hi)
    child_ns = [0] * (hi - lo)
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= 0:
            child_ns[parent - lo] += spans[i][2] - spans[i][1]
    self_ns = dict.fromkeys(SELF_METRICS, 0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    stepper_ns = monitor_ns = postrun_ns = root_ns = 0
    for i in range(lo, hi):
        name, start, end, parent = spans[i]
        dur = end - start
        own = dur - child_ns[i - lo]
        if own < 0:
            raise AssertionError(f"span {i} ({name}) has negative self time")
        self_ns[self_metric(name)] += own
        base = name.partition(":")[0]
        layer = name.partition(".")[0]
        if layer == "spectral":
            counts["spectral.calls"] += 1
        if base + ".calls" in counts:
            counts[base + ".calls"] += 1
        if base in SEARCHES:
            counts["normalize." + name.rpartition(":")[2] + ".calls"] += 1
        if name == "flow.flow_run":
            stepper_ns += own
        if parent < 0:
            root_ns += dur
            if name in POSTRUN:
                postrun_ns += dur
        elif spans[parent][0] == "flow.flow_run":
            if layer == "spectral":
                stepper_ns += dur
            else:
                monitor_ns += dur
    counts["normalize.nelder_mead.nfev"] = nfev

    steps = facts.get("flow.steps", 0)
    rows = facts.get("flow.rows", 0)
    samples = facts.get("lab.samples", 0)
    out: dict[str, float] = {k: v * 1e-9 for k, v in self_ns.items()}
    out.update(counts)
    out.update({
        "flow.steps": steps,
        "flow.rows": rows,
        "flow.stepper_s": stepper_ns * 1e-9,
        "flow.step_us": stepper_ns * 1e-3 / steps if steps else 0.0,
        "flow.monitor_s": monitor_ns * 1e-9,
        "flow.row_ms": monitor_ns * 1e-6 / rows if rows else 0.0,
        "flow.postrun_s": postrun_ns * 1e-9,
        "flow.area_law_dev": facts.get("flow.area_law_dev", 0.0),
        "lab.bisection_per_sample":
            counts["lab.bp_deficit.calls"] / samples if samples else 0.0,
        "trace.unattributed_s": (wall_ns - root_ns) * 1e-9,
        "trace.wall_s": wall_ns * 1e-9,
    })
    return out
