"""The centroid-ratio deficit, a seeded body generator, fuzzing campaigns, and
the stability experiment relating that deficit to the Banach-Mazur distance
from the disk.  ``deficit_report`` is the one home of the other gaps: it
returns one body's gaps under their ``fuzz.json`` names; ``fuzz_campaign``
keeps their minima."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import ops, spectral
from .normalize import pinching_to_bm_bound, sl2_searches
from .support import SupportFn, affine_support, area, check_grid_size, curvature_samples, disk

__all__ = [
    "BP_CONSTANT",
    "BodySpec",
    "random_body",
    "bp_deficit",
    "deficit_report",
    "StabilitySample",
    "StabilityResult",
    "stability_experiment",
    "FuzzReport",
    "fuzz_campaign",
]

# sharp constant of the planar centroid-ratio inequality, (4 / 3 pi)^2
BP_CONSTANT = (4.0 / (3.0 * np.pi)) ** 2

MIN_CURVATURE = 0.05  # generated bodies keep S at least this large
DEFICIT_RTOL = 0.01  # relative distance of a targeted deficit from its target
EPS_LOW, EPS_HIGH = 1e-6, 1e-1  # range of the stability experiment's target deficits


@dataclass(frozen=True)
class BodySpec:
    """Seeded recipe for a random origin-symmetric body.

    The support function is 1 plus even harmonics 2..2*mode_count with
    coefficients amplitude * decay^-k * U[-1, 1]; the perturbation is then
    rescaled so the curvature stays above ``MIN_CURVATURE``.
    """

    seed: int
    mode_count: int = 4
    decay: float = 1.5
    amplitude: float = 0.6
    n: int = 256

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        check_grid_size(self.n)
        if self.mode_count < 1:
            raise ValueError("mode_count must be at least 1")
        if self.decay <= 1.0:
            raise ValueError("decay must exceed 1")
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be non-negative")
        if 2 * self.mode_count >= self.n // 4:
            raise ValueError(f"highest mode {2 * self.mode_count} must stay below "
                             f"n/4 = {self.n // 4}")


def _floored_body(pert: np.ndarray) -> SupportFn:
    """Symmetric body 1 + scale * pert, with the largest scale <= 1 that keeps
    min S at ``MIN_CURVATURE``; curvature is affine in the scale, so the
    scale is solved for instead of iterated."""
    low = float(np.min(curvature_samples(pert)))
    scale = 1.0
    if 1.0 + low < MIN_CURVATURE:
        scale = (1.0 - MIN_CURVATURE) / (-low)
    return SupportFn(1.0 + scale * pert)


def random_body(spec: BodySpec) -> SupportFn:
    """Deterministic random body; identical output for identical specs."""
    rng = np.random.default_rng(spec.seed)
    th = spectral.angles(spec.n)
    pert = np.zeros(spec.n)
    for k in range(2, 2 * spec.mode_count + 1, 2):
        ca, cb = spec.amplitude * spec.decay ** (-k) * rng.uniform(-1.0, 1.0, 2)
        pert += ca * np.cos(k * th) + cb * np.sin(k * th)
    return _floored_body(pert)


def bp_deficit(h: SupportFn) -> float:
    """Normalized centroid-ratio deficit: V(Gamma K)/V(K) / (4/3pi)^2 - 1."""
    gamma = ops.centroid_body(h)
    return float(area(gamma) / area(h) / BP_CONSTANT - 1.0)


def _mixed_volume_gaps(h_k: SupportFn, h_l: SupportFn) -> tuple[float, float]:
    """Slacks of the mixed-volume inequality, (V(K,L)^2 - V(K)V(L)) /
    (V(K)V(L)), and of its strengthened form, [V(K,L)^2 / (V(K)V(L)) - 1]
    minus (V(K) / 4 D(K)^2) max |h_K / sqrt(V(K)) - h_L / sqrt(V(L))|^2,
    which is non-negative for origin-symmetric bodies.  The two differ in
    roundoff; merging them would move the fuzz bytes.  GridMismatch comes
    from ``ops.mixed_volume``."""
    vk, vl = area(h_k), area(h_l)
    vkl = ops.mixed_volume(h_k, h_l)
    vk_vl = vk * vl
    lhs = vkl * vkl / (vk * vl) - 1.0
    diam = 2.0 * float(np.max(h_k.samples))
    diff = h_k.samples / np.sqrt(vk) - h_l.samples / np.sqrt(vl)
    rhs = vk / (4.0 * diam * diam) * float(np.max(np.abs(diff)) ** 2)
    return (vkl * vkl - vk_vl) / vk_vl, float(lhs - rhs)


@functools.lru_cache(maxsize=32)
def _unit_disk(n: int) -> SupportFn:
    """The unit disk on the n grid, built once a grid size (a body is
    immutable and its arrays write-protected, so one can be shared)."""
    return disk(1.0, n)


def deficit_report(h: SupportFn) -> tuple[dict[str, float], float]:
    """One body's gaps against the unit disk, under their ``fuzz.json`` names
    and divided by their sharp constants (each >= 0 up to roundoff), and the
    centroid/projection identity residual relative to max h_{Gamma K}.

    V(K) V(K*) <= pi^2 and V(K) V((Pi K)*) <= (pi/2)^2, with equality on
    ellipses.  The affine-bracket gaps read min and max of h S^(1/3) at area
    pi, which straddle 1.  The centroid body, V(K*) and the residual share
    one polar pass.
    """
    v = area(h)
    polar, rho3, v_star = ops.polar_chain(h.samples)
    gamma = SupportFn(ops._centroid_support(rho3, v))
    residual = ops._identity_residual(polar, v_star, gamma.samples) / float(np.max(gamma.samples))
    minkowski, groemer = _mixed_volume_gaps(h, _unit_disk(h.n))
    pi_k = ops.projection_body(h)
    q = affine_support(h, np.sqrt(np.pi / v))
    gaps = {
        "bp_deficit": float(area(gamma) / v / BP_CONSTANT - 1.0),
        "santalo_gap": (np.pi ** 2 - float(v * v_star)) / np.pi ** 2,
        "petty_gap": ((np.pi / 2.0) ** 2 - float(v * ops.polar_area(pi_k))) / (np.pi / 2.0) ** 2,
        "groemer_vs_disk": groemer,
        "lambda_area_drop": float((v - area(ops._curvature_image(h, v, v_star))) / v),
        "affine_bracket_low": 1.0 - float(np.min(q)),
        "affine_bracket_high": float(np.max(q)) - 1.0,
        "minkowski_vs_disk": minkowski,
    }
    return gaps, residual


# --- stability experiment -----------------------------------------------------

@dataclass(frozen=True)
class StabilitySample:
    seed: int
    eps: float
    d_bm_minus_1: float
    pinch_bound: float
    gamma_witness: float


@dataclass(frozen=True)
class StabilityResult:
    samples: list[StabilitySample]
    gamma: float             # smallest gamma with d-1 <= gamma eps^(1/4) everywhere
    fit_exponent: float      # log-log slope over the small-deficit samples
    fit_count: int
    control_eps: float       # deficit of the disk control body
    control_d_minus_1: float
    deficit_evaluations: int  # bp_deficit calls of the campaign, the control's included

    def to_csv(self, target) -> None:
        """Write the scatter, one sample a line, to an open text stream."""
        target.write("seed,eps,d_bm_minus_1,pinch_bound,gamma_witness\n")
        target.writelines(f"{s.seed},{s.eps:.17g},{s.d_bm_minus_1:.17g},"
                          f"{s.pinch_bound:.17g},{s.gamma_witness:.17g}\n"
                          for s in self.samples)


def _interpolate_to_disk(h: SupportFn, lam: float) -> SupportFn:
    """Support-function interpolation (1 - lam) disk + lam K."""
    return SupportFn(1.0 + lam * (h.samples - 1.0))


def _square_perturbation(n: int) -> np.ndarray:
    """Mollified-square support minus its mean, the highest-deficit direction
    available to origin-symmetric bodies (parallelograms maximize the planar
    centroid ratio, so deficits are capped near 0.026)."""
    th = spectral.angles(n)
    hs = np.abs(np.cos(th)) + np.abs(np.sin(th))
    f = np.fft.rfft(hs)
    k = np.arange(n // 2 + 1)
    f *= np.exp(-0.5 * (0.04 * (256 / n) * k) ** 2)  # one width in angle: S > 0 off the nodes
    hs = np.fft.irfft(f, n)
    return hs - hs.mean()


def _stability_base(seed: int, n: int) -> SupportFn:
    """Random body blended with the square direction, curvature floored."""
    spec = BodySpec(seed=seed, n=n, mode_count=4, decay=1.4, amplitude=0.8)
    mix = np.random.default_rng(seed).uniform(0.0, 1.0)
    wob = random_body(spec)
    pert = (1.0 - mix) * (wob.samples - 1.0) + mix * _square_perturbation(n)
    return _floored_body(pert)


def _deficit_targeted_body(base: SupportFn, target: float) -> tuple[SupportFn, float, int]:
    """Root-find the disk-interpolation weight lam at which the deficit hits
    target; returns the body, its deficit and the number of deficits computed.

    The deficit of (1 - lam) disk + lam K grows like c lam^2 near the disk,
    so log f is close to linear in log lam: the search starts at
    lam = (target / f(1))^(1/2) and takes secant steps on (log lam, log f).
    Every iterate stays strictly inside the bracket [lo, hi] found so far;
    a secant step that would leave it, or a deficit <= 0, falls back to the
    bracket's midpoint.  When the base body cannot reach the target, the
    base itself is returned with its actual deficit (the target is clamped)."""
    f_hi = bp_deficit(base)
    if f_hi < target:
        return base, f_hi, 1
    lo, hi = 0.0, 1.0
    x_prev, g_prev = 0.0, math.log(f_hi / target)  # the base, lam = 1
    lam = math.sqrt(target / f_hi)
    evaluations = 1
    for _ in range(80):
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
        body = _interpolate_to_disk(base, lam)
        f = bp_deficit(body)
        evaluations += 1
        if abs(f - target) <= DEFICIT_RTOL * target:
            break
        if f < target:
            lo = lam
        else:
            hi = lam
        lam_next = 0.5 * (lo + hi)
        if f > 0.0:
            x, g = math.log(lam), math.log(f / target)
            if g != g_prev:  # capped at lam = 1; a runaway step ends outside the bracket
                lam_next = math.exp(min(x - g * (x - x_prev) / (g - g_prev), 0.0))
            x_prev, g_prev = x, g
        lam = lam_next
    return body, f, evaluations


def stability_experiment(count: int, seed: int, n: int = 256) -> StabilityResult:
    """Scatter of (deficit, Banach-Mazur distance - 1) across target deficits.

    Bodies are drawn from the seeded generator (blended with a mollified
    square for the high-deficit end) and pulled toward the disk, by a
    root-finder on the interpolation weight, until the deficit lands on a
    log-spaced target (1% relative); targets beyond the symmetric-class
    maximum are clamped to the body's own deficit.  The bodies' distances
    and the disk control's come from one stacked search.
    Reports the least admissible witness gamma for the quarter-power bound
    and the log-log slope fitted on the samples with 0 < deficit <= 1e-2; a
    sample whose deficit is not positive has a NaN witness.
    """
    if count < 10:
        raise ValueError("need at least 10 samples")
    targets = np.geomspace(EPS_LOW, EPS_HIGH, count)
    found = []
    evaluations = 1  # the disk control's deficit
    for i, target in enumerate(targets):
        best: tuple[int, SupportFn, float] | None = None
        for retry in range(6):
            base_seed = seed + 1000 * i + retry
            base = _stability_base(base_seed, n)
            body, eps, calls = _deficit_targeted_body(base, float(target))
            evaluations += calls
            if best is None or eps > best[2]:
                best = (base_seed, body, eps)
            if eps >= target * 0.99:
                break
        found.append(best)
    control = disk(1.0, n)
    # one search over the stack of every sample body and the control
    *distances, control_distance = sl2_searches(np.array([body.samples for _, body, _ in found]
                                                         + [control.samples]))[1].distances
    samples = []
    for (base_seed, body, eps), distance in zip(found, distances):
        d1 = float(distance) - 1.0
        samples.append(StabilitySample(
            seed=base_seed, eps=eps, d_bm_minus_1=d1, pinch_bound=pinching_to_bm_bound(body),
            gamma_witness=d1 / eps ** 0.25 if eps > 0 else float("nan")))
    gamma = max((s.gamma_witness for s in samples if s.eps > 0), default=float("nan"))
    small = [s for s in samples if 0 < s.eps <= 1e-2 and s.d_bm_minus_1 > 0]
    if len(small) >= 2:
        logs_e = np.log([s.eps for s in small])
        logs_d = np.log([s.d_bm_minus_1 for s in small])
        slope = float(np.polyfit(logs_e, logs_d, 1)[0])
    else:
        slope = float("nan")
    control_eps = bp_deficit(control)
    control_d = float(control_distance) - 1.0
    return StabilityResult(samples=samples, gamma=gamma, fit_exponent=slope,
                           fit_count=len(small), control_eps=control_eps,
                           control_d_minus_1=control_d, deficit_evaluations=evaluations)


# --- fuzzing -------------------------------------------------------------------

@dataclass
class FuzzReport:
    """Worst-case slacks over a seeded corpus; negative min_gap flags a
    violated inequality."""

    count: int
    seed: int
    checks: dict = field(default_factory=dict)

    def worst(self) -> float:
        return min(v["min_gap"] for k, v in self.checks.items()
                   if "min_gap" in v)

    def as_dict(self) -> dict:
        return {"count": self.count, "seed": self.seed, "checks": self.checks}


def _fuzz_spec(seed: int, i: int, n: int) -> BodySpec:
    """Recipe of the i-th body of the fuzz campaign started at ``seed``."""
    return BodySpec(seed=seed + i, n=n, mode_count=2 + (i % 4),
                    decay=1.3 + 0.2 * (i % 5), amplitude=0.1 + 0.08 * (i % 11))


def fuzz_campaign(count: int, seed: int, n: int = 256) -> FuzzReport:
    """Evaluate the inequality suite on ``count`` seeded bodies.

    Each body's ``deficit_report`` gaps, plus the plain and the strengthened
    mixed-volume gaps against the previous body, keep their least value and
    its seed; the identity residual keeps its largest.
    """
    if count < 1:
        raise ValueError("need at least one body")
    # every recipe is checked before the first body is computed
    specs = [_fuzz_spec(seed, i, n) for i in range(count)]
    report = FuzzReport(count=count, seed=seed)
    lutwak = report.checks["lutwak_residual_rel"] = {"max": -np.inf, "argmax_seed": -1}
    prev = None
    for spec in specs:
        body = random_body(spec)
        gaps, residual = deficit_report(body)
        if prev is not None:
            gaps["minkowski_vs_prev"], gaps["groemer_vs_prev"] = _mixed_volume_gaps(body, prev)
        for name, gap in gaps.items():
            worst = report.checks.setdefault(name, {"min_gap": gap, "argmin_seed": spec.seed})
            if gap < worst["min_gap"]:
                worst.update(min_gap=gap, argmin_seed=spec.seed)
        if residual > lutwak["max"]:
            lutwak.update(max=residual, argmax_seed=spec.seed)
        prev = body
    return report
