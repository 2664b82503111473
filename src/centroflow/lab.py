"""The centroid-ratio deficit, a seeded body generator, fuzzing campaigns, and
the stability experiment relating that deficit to the Banach-Mazur distance
from the disk.  ``deficit_report`` is the one home of the other gaps, under
their ``fuzz.json`` names; ``fuzz_campaign`` keeps their minima.  Bodies are
drawn as stacks, a row a body, and the deficits give a value a row: the
stability experiment takes each retry's bases and each root-finding round
as one stack, and the fuzz campaign audits blocks of ``BLOCK_SAMPLES``."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import ops, spectral
from .normalize import pinching_to_bm_bound, sl2_searches
from .support import (BLOCK_SAMPLES, SupportFn, affine_support, area, check_grid_size,
                      curvature_samples, disk)

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


def _floored_rows(pert: np.ndarray) -> np.ndarray:
    """Bodies 1 + scale * pert, a row of pert (R, n) each, with the largest
    scale <= 1 that keeps min S at ``MIN_CURVATURE``; curvature is affine in
    the scale, so the scale is solved for instead of iterated."""
    low = np.min(curvature_samples(pert), axis=-1)
    scale = (1.0 - MIN_CURVATURE) / np.maximum(-low, 1.0 - MIN_CURVATURE)  # exactly 1 unfloored
    return 1.0 + scale[:, None] * pert


def _random_rows(specs: list[BodySpec]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Samples (R, n) of the recipes ``specs`` (of one n), a row each, and the
    coefficient draws (mode_count, 2) of each, in [-1, 1)."""
    draws = [np.random.default_rng(s.seed).uniform(-1.0, 1.0, (s.mode_count, 2)) for s in specs]
    th, pert = spectral.angles(specs[0].n), np.zeros((len(specs), specs[0].n))
    for j, k in enumerate(range(2, 2 * max(s.mode_count for s in specs) + 1, 2)):
        rows = [i for i, s in enumerate(specs) if j < s.mode_count]
        coef = np.array([specs[i].amplitude * specs[i].decay ** (-k) * draws[i][j] for i in rows])
        pert[rows] += coef[:, :1] * np.cos(k * th) + coef[:, 1:] * np.sin(k * th)
    return _floored_rows(pert), draws


def random_body(spec: BodySpec) -> SupportFn:
    """Deterministic random body; identical output for identical specs."""
    return SupportFn(_random_rows([spec])[0][0])


def bp_deficit(h: SupportFn):
    """Normalized centroid-ratio deficit, V(Gamma K)/V(K) / (4/3pi)^2 - 1, a value a row."""
    return area(ops.centroid_body(h)) / area(h) / BP_CONSTANT - 1.0


def _mixed_volume_gaps(h_k: SupportFn, h_l: SupportFn):
    """Slacks of the mixed-volume inequality, (V(K,L)^2 - V(K)V(L)) /
    (V(K)V(L)), and of its strengthened form, [V(K,L)^2 / (V(K)V(L)) - 1]
    minus (V(K) / 4 D(K)^2) max |h_K / sqrt(V(K)) - h_L / sqrt(V(L))|^2,
    which is non-negative for origin-symmetric bodies; a value a row.  The
    two differ in roundoff; merging them would move the fuzz bytes.
    GridMismatch comes from ``ops.mixed_volume``."""
    vk, vl = area(h_k), area(h_l)
    vkl = ops.mixed_volume(h_k, h_l)
    vk_vl = vk * vl
    lhs = vkl * vkl / (vk * vl) - 1.0
    diam = 2.0 * np.max(h_k.samples, axis=-1)
    diff = h_k.samples / np.sqrt(vk)[..., None] - h_l.samples / np.sqrt(vl)[..., None]
    # the scalar power, pow(x, 2), which an array's square x * x differs from in the last bit
    rhs = vk / (4.0 * diam * diam) * np.vectorize(pow)(np.max(np.abs(diff), axis=-1), 2)
    return (vkl * vkl - vk_vl) / vk_vl, lhs - rhs


def deficit_report(h: SupportFn):
    """A body's gaps against the unit disk, under their ``fuzz.json`` names
    and divided by their sharp constants (each >= 0 up to roundoff), and the
    centroid/projection identity residual relative to max h_{Gamma K}, a row each.

    V(K) V(K*) <= pi^2 and V(K) V((Pi K)*) <= (pi/2)^2, with equality on
    ellipses.  The affine-bracket gaps read min and max of h S^(1/3) at area
    pi, which straddle 1.  The centroid body, V(K*) and the residual share
    one polar pass.
    """
    v = area(h)
    polar, rho3, v_star = ops.polar_chain(h.samples)
    gamma = SupportFn(ops._centroid_support(rho3, v))
    residual = ops._identity_residual(polar, v_star, gamma.samples) / np.max(gamma.samples, axis=-1)
    minkowski, groemer = _mixed_volume_gaps(h, disk(1.0, h.n))
    q = affine_support(h, np.sqrt(np.pi / v)[..., None])
    gaps = {
        "bp_deficit": area(gamma) / v / BP_CONSTANT - 1.0,
        "santalo_gap": (np.pi ** 2 - v * v_star) / np.pi ** 2,
        "petty_gap": ((np.pi / 2.0) ** 2 - v * ops.polar_area(ops.projection_body(h)))
                     / (np.pi / 2.0) ** 2,
        "groemer_vs_disk": groemer,
        "lambda_area_drop": (v - area(ops.curvature_image(h))) / v,
        "affine_bracket_low": 1.0 - np.min(q, axis=-1),
        "affine_bracket_high": np.max(q, axis=-1) - 1.0,
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
    deficit_evaluations: int  # bodies whose deficit the campaign computed, the control included
    bases: int               # base bodies built, retries included, in bases_s seconds
    bases_s: float
    deficit_rounds: int      # stacked deficits computed, the control's included
    deficits_s: float        # seconds root-finding the samples' targets
    search_s: float          # seconds of the stacked Banach-Mazur search

    def to_csv(self, target) -> None:
        """Write the scatter, one sample a line, to an open text stream."""
        target.write("seed,eps,d_bm_minus_1,pinch_bound,gamma_witness\n")
        target.writelines(f"{s.seed},{s.eps:.17g},{s.d_bm_minus_1:.17g},"
                          f"{s.pinch_bound:.17g},{s.gamma_witness:.17g}\n"
                          for s in self.samples)


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


def _stability_bases(seeds: list[int], n: int) -> np.ndarray:
    """Random bodies (R, n) blended with the square direction, curvature
    floored, one row a seed; the blend weight is the generator's first draw."""
    wob, draws = _random_rows([BodySpec(seed=s, n=n, mode_count=4, decay=1.4, amplitude=0.8)
                               for s in seeds])
    mix = 0.5 * (np.array(draws)[:, :1, 0] + 1.0)
    return _floored_rows((1.0 - mix) * (wob - 1.0) + mix * _square_perturbation(n))


def _stability_base(seed: int, n: int) -> SupportFn:
    """The stability base body of one seed."""
    return SupportFn(_stability_bases([seed], n)[0])


def _secant(f_base: float, target: float):
    """One lane of ``_deficit_targeted_bodies``: a generator that yields each
    weight lam whose deficit it needs, is sent that deficit, and yields None
    once within 1% of the target or after 80 steps.  The deficit of (1 - lam)
    disk + lam K grows like c lam^2 near the disk, so log f is close to
    linear in log lam: the search starts at lam = (target / f(1))^(1/2) and
    takes secant steps on (log lam, log f).  Every iterate stays strictly
    inside the bracket [lo, hi] found so far; a secant step that would leave
    it, or a deficit <= 0, falls back to the bracket's midpoint."""
    lo, hi = 0.0, 1.0
    x_prev, g_prev = 0.0, math.log(f_base / target)  # the base, lam = 1
    lam = math.sqrt(target / f_base)
    for _ in range(80):
        if not lo < lam < hi:
            lam = 0.5 * (lo + hi)
        f = yield lam
        if abs(f - target) <= DEFICIT_RTOL * target:
            break
        lo, hi = (lam, hi) if f < target else (lo, lam)
        lam_next = 0.5 * (lo + hi)
        if f > 0.0:
            x, g = math.log(lam), math.log(f / target)
            if g != g_prev:  # capped at lam = 1; a runaway step ends outside the bracket
                lam_next = math.exp(min(x - g * (x - x_prev) / (g - g_prev), 0.0))
            x_prev, g_prev = x, g
        lam = lam_next
    yield None


def _deficit_targeted_bodies(bases: np.ndarray, targets) -> tuple:
    """Root-find, for each base row (R, n), the lam at which 1 + lam (h - 1)
    hits the row's target: the bodies, their deficits and the deficits each
    row computed; a base short of its target keeps its own deficit.  A round
    is one ``bp_deficit`` of every open lane's body, the first the bases'."""
    eps = bp_deficit(SupportFn(bases))
    bodies, evaluations = bases.copy(), np.ones(len(bases), dtype=int)
    lanes = {i: _secant(f, t) for i, (f, t) in enumerate(zip(eps.tolist(), targets)) if not f < t}
    lams = {i: next(lane) for i, lane in lanes.items()}
    while lams:
        rows = list(lams)
        bodies[rows] = 1.0 + np.array(list(lams.values()))[:, None] * (bases[rows] - 1.0)
        eps[rows] = bp_deficit(SupportFn(bodies[rows]))
        evaluations[rows] += 1
        lams = {i: lam for i in rows if (lam := lanes[i].send(float(eps[i]))) is not None}
    return bodies, eps, evaluations


def stability_experiment(count: int, seed: int, n: int = 256) -> StabilityResult:
    """Scatter of (deficit, Banach-Mazur distance - 1) across target deficits.

    Bodies are drawn from the seeded generator (blended with a mollified
    square for the high-deficit end) and pulled toward the disk, by a
    root-finder on the interpolation weight, until the deficit lands on a
    log-spaced target (1% relative); targets beyond the symmetric-class
    maximum are clamped to the body's own deficit.  A sample that falls
    short draws up to five more bases and keeps its highest deficit; retry
    j is one wave of the open samples, built and root-found as one stack,
    and one stacked search gives every body's distance and the control's.
    Reports the least admissible witness gamma for the quarter-power bound
    and the log-log slope fitted on the samples with 0 < deficit <= 1e-2; a
    sample whose deficit is not positive has a NaN witness.
    """
    if count < 10:
        raise ValueError("need at least 10 samples")
    targets = np.geomspace(EPS_LOW, EPS_HIGH, count)
    found: list = [None] * count  # (base seed, body, eps) of each sample's best base
    open_samples, clock = list(range(count)), time.perf_counter
    bases = rounds = evaluations = bases_s = deficits_s = 0
    for retry in range(6):
        seeds = [seed + 1000 * i + retry for i in open_samples]
        started = clock()
        wave = _stability_bases(seeds, n)
        built = clock()
        bodies, eps, calls = _deficit_targeted_bodies(wave, targets[open_samples])
        bases_s, deficits_s = bases_s + built - started, deficits_s + clock() - built
        bases, rounds, evaluations = (bases + len(seeds), rounds + calls.max(),
                                      evaluations + calls.sum())
        for i, base_seed, body, e in zip(open_samples, seeds, bodies, eps.tolist()):
            if found[i] is None or e > found[i][2]:
                found[i] = (base_seed, body, e)
        open_samples = [i for i, e in zip(open_samples, eps) if not e >= targets[i] * 0.99]
        if not open_samples:
            break
    control = disk(1.0, n)
    control_eps = bp_deficit(control)
    started = clock()
    # one search over the stack of every sample body and the control
    *distances, control_distance = sl2_searches(np.array([body for _, body, _ in found]
                                                         + [control.samples]))[1].distances
    search_s = clock() - started
    samples = []
    for (base_seed, body, eps), distance in zip(found, distances):
        d1 = float(distance) - 1.0
        samples.append(StabilitySample(
            seed=base_seed, eps=eps, d_bm_minus_1=d1,
            pinch_bound=pinching_to_bm_bound(SupportFn(body)),
            gamma_witness=d1 / eps ** 0.25 if eps > 0 else float("nan")))
    gamma = max((s.gamma_witness for s in samples if s.eps > 0), default=float("nan"))
    small = [s for s in samples if 0 < s.eps <= 1e-2 and s.d_bm_minus_1 > 0]
    if len(small) >= 2:
        logs_e = np.log([s.eps for s in small])
        logs_d = np.log([s.d_bm_minus_1 for s in small])
        slope = float(np.polyfit(logs_e, logs_d, 1)[0])
    else:
        slope = float("nan")
    return StabilityResult(samples=samples, gamma=gamma, fit_exponent=slope, fit_count=len(small),
                           control_eps=control_eps, control_d_minus_1=float(control_distance) - 1.0,
                           deficit_evaluations=int(evaluations) + 1, bases=bases, bases_s=bases_s,
                           deficit_rounds=int(rounds) + 1, deficits_s=deficits_s, search_s=search_s)


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
    its seed; the identity residual keeps its largest.  The audit takes
    stacked blocks of ``max(1, BLOCK_SAMPLES // n)`` rows.
    """
    if count < 1:
        raise ValueError("need at least one body")
    # every recipe is checked before the first body is computed
    specs = [_fuzz_spec(seed, i, n) for i in range(count)]
    report = FuzzReport(count=count, seed=seed)
    lutwak = report.checks["lutwak_residual_rel"] = {"max": -np.inf, "argmax_seed": -1}
    size, prev = max(1, BLOCK_SAMPLES // n), None
    for lo in range(0, count, size):
        block = specs[lo:lo + size]
        rows = _random_rows(block)[0]
        gaps, residuals = deficit_report(SupportFn(rows))
        pairs = rows if prev is None else np.concatenate([prev, rows])
        if len(pairs) > 1:  # each body after the campaign's first, against the one before it
            gaps["minkowski_vs_prev"], gaps["groemer_vs_prev"] = _mixed_volume_gaps(
                SupportFn(pairs[1:]), SupportFn(pairs[:-1]))
        for name, column in gaps.items():  # a column of fewer rows ends at the block's end
            for gap, spec in zip(column.tolist(), block[-len(column):]):
                worst = report.checks.setdefault(name, {"min_gap": gap, "argmin_seed": spec.seed})
                if gap < worst["min_gap"]:
                    worst.update(min_gap=gap, argmin_seed=spec.seed)
        for residual, spec in zip(residuals.tolist(), block):
            if residual > lutwak["max"]:
                lutwak.update(max=residual, argmax_seed=spec.seed)
        prev = rows[-1:]
    return report
