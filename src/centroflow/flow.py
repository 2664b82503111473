"""Time integration of the support-function evolution dh/dt = -1/(h^2 S).

The stepper is explicit RK4 with a curvature-aware step size
dt = cfl * min( dtheta^2 * min(h^2 S^2), min(h^3 S) ); the first term is the
parabolic stability bound of the linearized operator, the second keeps a
single step from collapsing the support.  Its state is the real Fourier
coefficients of h on the kept modes only: the even modes up to n/3.  The
modes above n/3 are dealiased away (the nonlinearity feeds energy into the
tail, which would otherwise trigger spurious convexity loss) and the odd
modes vanish on origin-symmetric data; the initial body is projected onto
the kept modes.  A step starts from Y = [h; S], S = h + h'', on the half
grid [0, pi), one product of the coefficients with a precomputed table;
that is stage 1.  Each later stage is one (n x (n/2 + 1)) product, the
table [P | Y] times [c phi; 1], where P = synth @ project takes the
half-grid speed back through the kept modes and c phi = -c / (h^2 S) is
the previous stage's speed scaled by its RK4 factor.  Every stage's h and
S must be positive: stage 1 is checked in the one min that gives dt, stages
2 to 4 in one min after the last.  The coefficients take one product with
the four scaled speeds and the RK4 weights, so the state stays on the kept
modes (half-grid (h, S) as the state would drift off them by roundoff) and
the scheme is fourth order in dt.  The tables cost O(n^2) a stage, so the
flow runs on the body's own grid, of at most ``FLOW_MAX_N`` points
(``spectral.resample`` regrids a body).

A trace row is recorded every ``renormalize_every`` accepted steps: the run
stores its time, area and half-grid (h, S), and after the run one pass
computes the columns of every stored row on the half grid tiled twice (so
each row is exactly origin-symmetric).  Each row carries the monitored
functionals, the radii at the SL(2) position of least perimeter, the
Banach-Mazur distance (the search of ``banach_mazur_to_disk``, started at that
position) and the quantities needed to verify the evolution laws after the
run.  The pass runs one stacked polar chain and SL(2) search a block of
``ROW_BLOCK`` rows, and each row's columns are the ones it gives alone.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, fields

import numpy as np

from . import ops, spectral
from .errors import ConvexityLost, StepUnderflow
from .normalize import sl2_searches
from .support import SupportFn, area_quadrature, curvature_samples

__all__ = [
    "FlowConfig",
    "FlowTrace",
    "flow_run",
    "conservation_checks",
    "harnack_and_bounds_monitor",
    "ConservationReport",
    "HarnackReport",
    "TRACE_CSV_COLUMNS",
    "FLOW_MAX_N",
]

TRACE_CSV_COLUMNS = (
    "t", "area", "polar_area", "bp_ratio", "min_S",
    "max_ca2", "max_ca3", "d_bm", "harnack",
)

# largest flow grid: above about n = 700 the O(n^2) stage tables lose to the FFT
FLOW_MAX_N = 512
ROUND_RATIO = 1.5 ** 0.25  # radii-ratio threshold monitored per run
MAX_STEPS = 2_000_000  # hard step cap; a run that reaches it stops with "max_steps"

# fewest rows the extinction fit and the row-to-row monitors use; shorter
# traces report those monitors as None
MIN_FIT_ROWS = 3
STRIDE_AGREEMENT = 0.05  # stride-1/stride-2 relative agreement that keeps a row


@dataclass(frozen=True)
class FlowConfig:
    """Stepper and trace settings; the flow runs on the body's own grid.

    ``cfl``      step-safety factor in (0, 0.5];
    ``t_stop_area``  terminal area threshold;
    ``renormalize_every``  accepted steps between trace rows;
    ``t_stop``   optional time cap (the last step is clipped to land on it).
    """

    cfl: float = 0.1
    t_stop_area: float = 1e-3
    renormalize_every: int = 25
    t_stop: float | None = None

    def __post_init__(self):
        for f in fields(self):  # Python callers may pass any type
            value = getattr(self, f.name)
            if value is None and f.type.endswith("None"):
                continue
            kind = numbers.Integral if f.type.startswith("int") else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{f.name} must be of type {f.type}")
        if not (0.0 < self.cfl <= 0.5):
            raise ValueError("cfl must lie in (0, 0.5]")
        if not self.t_stop_area > 0.0:
            raise ValueError("t_stop_area must be positive")
        if self.renormalize_every < 1:
            raise ValueError("renormalize_every must be positive")
        if self.t_stop is not None and not self.t_stop > 0.0:
            raise ValueError("t_stop must be positive")


@dataclass
class FlowTrace:
    """Time series of geometric functionals along one run.

    Scalar columns are 1-D arrays over rows; ``h_rows`` and ``ca2_rows``
    store the support samples and the per-direction G/h^2 field at each row;
    ``polar_probe`` and ``polar_probe_rate`` hold the polar support and its
    predicted time derivative at three fixed angles.
    """

    t: np.ndarray
    area: np.ndarray
    polar_area: np.ndarray
    bp_ratio: np.ndarray
    min_S: np.ndarray
    max_ca2: np.ndarray
    max_ca3: np.ndarray
    d_bm: np.ndarray
    harnack: np.ndarray
    min_ca3: np.ndarray
    bp_rhs: np.ndarray
    norm_disk_dist: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray
    h_rows: np.ndarray
    ca2_rows: np.ndarray
    polar_probe: np.ndarray
    polar_probe_rate: np.ndarray
    estimated_T: float
    stop_reason: str
    steps: int
    config: FlowConfig
    stepper_s: float  # seconds of the stepping loop
    monitor_s: float  # seconds of the pass that computes the row monitors

    @property
    def rows(self) -> int:
        return self.t.size

    def row_body(self, i: int) -> SupportFn:
        return SupportFn(self.h_rows[i])

    def to_csv(self, target) -> None:
        """Write the trace in the stable 9-column format (17 significant
        digits) to an open text stream."""
        cols = [getattr(self, name) for name in TRACE_CSV_COLUMNS]
        target.write(",".join(TRACE_CSV_COLUMNS) + "\n")
        target.writelines(",".join(f"{c[i]:.17g}" for c in cols) + "\n"
                          for i in range(self.rows))


def _kept_mode_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The kept modes cos k theta, sin k theta (even k <= n/3) on the half grid
    theta_j = 2 pi j / n, j < n/2, for the coefficients [a_0, a_2, ..., b_2,
    ...]: ``synth`` (n x r) takes them to the stacked half-grid samples
    [h; S], S = h + h'' through the multipliers 1 - k^2, and ``project``
    (r x n/2) takes half-grid samples of a pi-periodic function to them."""
    m = n // 2
    ks = np.arange(0, n // 3 + 1, 2)
    phase = (2.0 * np.pi / n) * (np.outer(np.arange(m), ks) % n)  # exact k j mod n
    basis = np.hstack([np.cos(phase), np.sin(phase[:, 1:])])
    mult = spectral.curvature_multiplier(n)[ks]
    synth = np.vstack([basis, basis * np.concatenate([mult, mult[1:]])])
    weight = np.full(basis.shape[1], 2.0 / m)
    weight[0] = 1.0 / m
    return synth, basis.T * weight[:, None]


RK4_WEIGHTS = (1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)  # of c phi, c = dt/2, dt/2, dt, dt


def _later_stages(table: np.ndarray, slopes: np.ndarray, stages: np.ndarray):
    """Stages 2 to 4 of a step as run(dt, t): slopes[i] @ table into stages[i]
    and its speed into slopes[i + 1]; ConvexityLost(t) unless all are positive."""
    views = [(slopes[i], y, *np.split(y, 2), slopes[i + 1, :-1]) for i, y in enumerate(stages)]

    def run(dt: float, t: float) -> None:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # until the check
            for (slope, y, h, s, speed), c in zip(views, (0.5 * dt, dt, dt)):
                np.dot(slope, table, out=y)
                np.divide(-c, h * h * s, out=speed)
        if not np.minimum.reduce(stages, axis=None) > 0.0:  # NaN fails too
            raise ConvexityLost(t)
    return run


def _estimate_extinction(t: np.ndarray, v: np.ndarray) -> float:
    """Extinction time from a weighted linear fit of V^2 against t.

    The area of a shrinking disk satisfies V^2 = c (T - t) exactly, and every
    run approaches that law; the fit uses the last decade of area decay (or
    the last half of the rows if the run is short)."""
    if t.size < MIN_FIT_ROWS:
        return float("nan")
    mask = v <= 10.0 * v[-1]
    if np.count_nonzero(mask) < max(6, t.size // 10):
        mask = np.zeros_like(mask)
        mask[t.size // 2:] = True
    tt, vv = t[mask], v[mask]
    wgt = 1.0 / vv ** 2
    coef = np.polyfit(tt, vv ** 2, 1, w=wgt)
    slope, intercept = coef[0], coef[1]
    if slope >= 0.0:
        return float("nan")
    return float(-intercept / slope)


ROW_BLOCK = 24  # trace rows whose monitors are computed together


def _monitor_rows(t: np.ndarray, h: np.ndarray, s: np.ndarray,
                  v: np.ndarray) -> dict[str, np.ndarray]:
    """Every ``FlowTrace`` array column of the stored rows: times ``t``,
    half-grid samples ``h`` and ``s`` (R, n/2) and areas ``v``.  The polar
    chain and SL(2) search run once a block of ``ROW_BLOCK`` rows (fewer calls
    for more peak memory), and each row's columns are the ones it gives alone."""
    arr = np.tile(h, 2)
    n = arr.shape[1]
    probe_idx = [0, n // 3, (2 * n) // 3]
    ca2 = 1.0 / (s * h ** 2)
    ca3 = ca2 / h
    blocks = []
    for lo in range(0, t.size, ROW_BLOCK):
        block = slice(lo, lo + ROW_BLOCK)
        chain = ops.polar_chain(arr[block], v[block])
        gamma = chain.centroid_samples(v[block])
        radii, certs = sl2_searches(arr[block])
        blocks.append((chain.v_star, area_quadrature(gamma, curvature_samples(gamma)),
                       chain.ratio_derivative(v[block]), chain.polar[:, probe_idx],
                       curvature_samples(chain.polar)[:, probe_idx], radii,
                       [cert.distance for cert in certs]))
    v_star, bp_area, bp_rhs, probe, probe_s, radii, d_bm = (
        np.concatenate(col) for col in zip(*blocks))
    r_minus, r_plus = radii.T
    scale = np.sqrt(np.pi / v)
    return {
        "t": t, "area": v, "polar_area": v_star, "bp_ratio": bp_area / v,
        "min_S": np.min(s, axis=1), "max_ca2": np.max(ca2, axis=1),
        "max_ca3": np.max(ca3, axis=1), "min_ca3": np.min(ca3, axis=1), "d_bm": d_bm,
        "harnack": np.sqrt(np.maximum(t, 0.0)) * np.min(ca2, axis=1), "bp_rhs": bp_rhs,
        "norm_disk_dist": np.maximum(r_plus * scale - 1.0, 1.0 - r_minus * scale),
        "r_plus": r_plus, "r_minus": r_minus, "h_rows": arr, "ca2_rows": np.tile(ca2, 2),
        "polar_probe": probe, "polar_probe_rate": probe ** 4 * probe_s,
    }


def flow_run(h0: SupportFn, cfg: FlowConfig | None = None) -> FlowTrace:
    """Run the flow from ``h0`` until the area threshold, time cap, or step cap;
    StepUnderflow when a step is infinite or not above its floor."""
    cfg = cfg or FlowConfig()
    n = h0.n
    if n > FLOW_MAX_N:
        raise ValueError(f"the flow runs on grids of at most {FLOW_MAX_N} points, "
                         f"not {n}; regrid with --n to at most {FLOW_MAX_N}")
    m = n // 2
    dth = 2.0 * np.pi / n
    synth, project = _kept_mode_tables(n)
    coef = project @ (0.5 * (h0.samples[:m] + h0.samples[m:]))  # the kept part of h0
    # a later stage is [c phi; 1] @ [P | Y]^T: P = synth @ project takes the
    # half-grid speed phi to (h, S), and the last row holds the step's Y
    table = np.vstack([(synth @ project).T, np.empty(n)])
    slopes = np.ones((4, m + 1))  # c phi of each stage, then the 1 that adds Y
    # the RK4 increment of the coefficients is update @ slopes.ravel()
    update = np.hstack([np.pad(w * project, ((0, 0), (0, 1))) for w in RK4_WEIGHTS])
    scales = np.empty((4, m))  # h^3 S, (h S)^2, h and S
    y, (h, s) = scales[2:].reshape(-1), scales[2:]  # stage 1, [h; S]
    later = _later_stages(table, slopes, np.empty((3, n)))  # views made once a run

    rows = []  # (t, h, S, V) of each trace row, on the half grid
    t = 0.0
    steps = 0
    stop_reason = None
    started = time.perf_counter()

    while True:
        np.dot(synth, coef, out=y)  # stage 1
        hs = h * s
        h2s = h * hs
        np.multiply(h, h2s, out=scales[0])
        np.multiply(hs, hs, out=scales[1])
        tau, grid, min_h, min_s = np.minimum.reduce(scales, axis=1).tolist()  # tau: h / |dh/dt|
        if not (min_h > 0.0 and min_s > 0.0):  # NaN fails; h^3 S > 0 would underflow
            raise ConvexityLost(t)
        table[m] = y
        v = area_quadrature(h, s)

        if v <= cfg.t_stop_area:
            stop_reason = "area_threshold"
        elif cfg.t_stop is not None and t >= cfg.t_stop * (1.0 - 1e-14):
            stop_reason = "t_stop"
        elif steps >= MAX_STEPS:
            stop_reason = "max_steps"

        if stop_reason or steps % cfg.renormalize_every == 0:
            rows.append((t, h.copy(), s.copy(), v))
        if stop_reason:
            break

        dt = cfg.cfl * min(dth * dth * grid, tau)
        if not 1e-16 * max(t, tau) < dt < np.inf:  # a scale that over- or underflows
            raise StepUnderflow(f"dt={dt:.3g} at t={t:.9g}")
        if cfg.t_stop is not None:
            dt = min(dt, cfg.t_stop - t)

        # RK4 on the kept-mode coefficients, c phi = -c / (h^2 S) of each stage
        np.divide(-0.5 * dt, h2s, out=slopes[0, :m])
        later(dt, t)
        coef = coef + update.dot(slopes.reshape(-1))

        t += dt
        steps += 1

    stepper_s = time.perf_counter() - started

    # the last step of a t_stop run is clipped, and can be too short to
    # lower the area (t_stop = 1e-300); the trace ends at the row before it
    if stop_reason == "t_stop" and len(rows) > 1 and not rows[-1][3] < rows[-2][3]:
        rows.pop()
    t, h, s, v = (np.array(col) for col in zip(*rows))
    del rows  # the row tuples would otherwise live through the monitors' peak
    if not np.all(np.diff(t) > 0):
        raise ValueError("trace times are not strictly increasing")
    if not np.all(np.diff(v) < 0):
        raise ValueError("trace areas are not strictly decreasing")
    started = time.perf_counter()
    cols = _monitor_rows(t, h, s, v)
    for name, col in cols.items():
        bad = ~np.isfinite(col)
        if bad.any():
            row = int(np.argwhere(bad)[0][0])
            raise ValueError(f"the monitor column {name} is not finite at t={t[row]:.9g}: "
                             "the body's scale overflows or underflows")
    return FlowTrace(**cols, estimated_T=_estimate_extinction(t, v), stop_reason=stop_reason,
                     steps=steps, config=cfg, stepper_s=stepper_s,
                     monitor_s=time.perf_counter() - started)


def _central_diff(t: np.ndarray, y: np.ndarray, stride: int) -> np.ndarray:
    """Non-uniform 3-point central differences over ``stride`` rows at rows
    2 .. R-3, where strides 1 and 2 both exist."""
    i = np.arange(2, t.size - 2)
    tm, t0, tp = t[i - stride], t[i], t[i + stride]
    ym, y0, yp = y[i - stride], y[i], y[i + stride]
    dl, dr = t0 - tm, tp - t0
    return (yp - y0) / dr * (dl / (dl + dr)) + (y0 - ym) / dl * (dr / (dl + dr))


def gated_central_difference(t: np.ndarray, y: np.ndarray):
    """Richardson-extrapolated central differences with a self-consistency mask.

    Rows are kept where the stride-1 and stride-2 estimates are finite and
    agree to ``STRIDE_AGREEMENT`` relative: there the row spacing resolves
    dy/dt and the difference quotient is trustworthy.  The returned value is
    the extrapolation (4 d1 - d2) / 3, which cancels the leading second-order
    truncation term; the first and last two rows have no stride-2 estimate,
    so they are NaN and never kept.
    """
    d1, d2 = _central_diff(t, y, 1), _central_diff(t, y, 2)
    denom = np.maximum(np.abs(d1), np.abs(d2))  # finite where both are
    deriv = np.full(t.size, np.nan)
    mask = np.zeros(t.size, dtype=bool)
    deriv[2:t.size - 2] = (4.0 * d1 - d2) / 3.0
    mask[2:t.size - 2] = (np.isfinite(denom) & (denom > 0)
                          & (np.abs(d1 - d2) <= STRIDE_AGREEMENT * denom))
    return deriv, mask


@dataclass(frozen=True)
class ConservationReport:
    """Deviations of the run from the proved evolution laws.  A law's
    deviation is None when no row (probe row, for the polar law) passes the
    stride gate."""

    area_law_max_rel_dev: float | None  # dV/dt vs -2 V(K*)
    min_ca2_monotone: bool            # min G/h^2 non-decreasing
    min_ca2_worst_drop: float
    polar_law_max_rel_dev: float | None  # dh*/dt vs h*^4 S* at probe angles
    rows_checked: int


def conservation_checks(trace: FlowTrace) -> ConservationReport | None:
    """Verify the area law, speed monotonicity, and polar evolution law;
    None on a trace of fewer than 10 rows."""
    if trace.rows < 10:
        return None
    t = trace.t

    deriv, mask = gated_central_difference(t, trace.area)
    rel = np.abs(deriv[mask] + 2.0 * trace.polar_area[mask]) / (
        2.0 * trace.polar_area[mask])
    area_dev = float(np.max(rel)) if mask.any() else None

    min_ca2 = np.min(trace.ca2_rows, axis=1)
    drops = min_ca2[:-1] - min_ca2[1:]
    worst = float(np.max(drops / np.abs(min_ca2[:-1])))
    monotone = worst <= 1e-8

    polar_devs = []
    checked = int(np.count_nonzero(mask))
    for j in range(trace.polar_probe.shape[1]):
        dcol, mcol = gated_central_difference(t, trace.polar_probe[:, j])
        good = mcol & (trace.polar_probe_rate[:, j] > 0)
        if good.any():
            rel = np.abs(dcol[good] - trace.polar_probe_rate[good, j]) / \
                trace.polar_probe_rate[good, j]
            polar_devs.append(float(np.max(rel)))
    return ConservationReport(
        area_law_max_rel_dev=area_dev,
        min_ca2_monotone=monotone,
        min_ca2_worst_drop=worst,
        polar_law_max_rel_dev=max(polar_devs, default=None),
        rows_checked=checked,
    )


@dataclass(frozen=True)
class HarnackReport:
    """Harnack monotonicity, curvature sandwich, and displacement bounds.
    Monitors that compare rows or need the extinction estimate are None on
    traces with fewer than ``MIN_FIT_ROWS`` rows (or no finite estimate)."""

    harnack_ok: bool | None           # per-direction t^(1/2) G/h^2 non-decreasing
    harnack_worst_drop: float | None
    band_low: float | None            # min over final half of (T-t) * min G/h^3
    band_high: float | None           # max over final half of (T-t) * max G/h^3
    shrinking_ok: bool                # h(t) <= h(0) pointwise
    displacement_ok: bool             # h(0) <= h(t) (1 + 2 t max G/h^3)
    sandwich_ok: bool | None          # r-^4/4 <= T-t <= r+^4/4
    first_round_time: float | None    # first row with r+/r- below 1.5^(1/4)


def harnack_and_bounds_monitor(trace: FlowTrace) -> HarnackReport:
    """Check the pointwise Harnack quantity, the centro-affine curvature
    sandwich around the extinction time, and the displacement bounds."""
    t = trace.t
    long_enough = trace.rows >= MIN_FIT_ROWS
    worst = harnack_ok = None
    if long_enough:
        # t^(1/2) G/h^2 vanishes at t = 0, so that row cannot anchor a ratio
        weighted = np.sqrt(t[t > 0.0])[:, None] * trace.ca2_rows[t > 0.0]
        worst = float(np.min((weighted[1:] - weighted[:-1]) / weighted[:-1]))
        harnack_ok = worst >= -1e-6

    h0 = trace.h_rows[0]
    shrink_margin = float(np.max(trace.h_rows - h0[None, :]))
    shrinking_ok = shrink_margin <= 1e-10 * float(np.max(h0))

    ca3_rows = trace.ca2_rows / trace.h_rows
    bound = trace.h_rows * (1.0 + 2.0 * t[:, None] * ca3_rows)
    displacement_ok = bool(np.all(h0[None, :] <= bound * (1.0 + 1e-6)))

    T = trace.estimated_T
    band_low = band_high = sandwich_ok = None
    if np.isfinite(T):
        half = trace.rows // 2
        rem = T - t[half:]
        band_low = float(np.min(rem * trace.min_ca3[half:]))
        band_high = float(np.max(rem * trace.max_ca3[half:]))
        rem_all = T - t
        lo = trace.r_minus ** 4 / 4.0
        hi = trace.r_plus ** 4 / 4.0
        slack = 1e-3
        sandwich_ok = bool(np.all(lo <= rem_all * (1.0 + slack) + 1e-12)
                           and np.all(rem_all <= hi * (1.0 + slack) + 1e-12))

    below = np.nonzero(trace.r_plus / trace.r_minus < ROUND_RATIO)[0]
    first_round = float(t[below[0]]) if long_enough and below.size else None

    return HarnackReport(
        harnack_ok=harnack_ok,
        harnack_worst_drop=worst,
        band_low=band_low,
        band_high=band_high,
        shrinking_ok=shrinking_ok,
        displacement_ok=displacement_ok,
        sandwich_ok=sandwich_ok,
        first_round_time=first_round,
    )
