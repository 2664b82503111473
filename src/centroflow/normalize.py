"""SL(2) searches over the two-parameter family diag(s, 1/s) . R(phi).

Left rotations change neither the perimeter nor the radii ratio of the image
body, and scalings are factored out of both objectives, so this family is
exhaustive for the perimeter-minimizing normalization and for the
Banach-Mazur distance to the disk.  Both searches run a deterministic coarse
grid followed by Nelder-Mead refinement with a fixed initial simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import spectral
from .errors import OptimizationFailed
from .support import (LinearMap2, SupportFn, apply_linear_map, area, curvature_samples,
                      require_symmetric, scaled)

__all__ = [
    "SearchConfig",
    "BMCertificate",
    "sl2_normalize",
    "banach_mazur_to_disk",
    "pinching_to_bm_bound",
]

S_MAX = 8.0  # John's bound makes larger stretches useless


@dataclass(frozen=True)
class SearchConfig:
    """Resolution knobs for the two-parameter searches.

    ``modes`` caps the number of Fourier modes used while optimizing (the
    reported objective value is still evaluated at full resolution);
    ``warm_start`` skips the coarse grid entirely.
    """

    grid: tuple[int, int] = (64, 64)
    angle_oversample: int = 4
    warm_start: tuple[float, float] | None = None  # (s, phi); skips the grid
    xatol: float = 1e-9
    fatol: float = 1e-13
    maxiter: int = 400
    modes: int | None = None


@dataclass(frozen=True)
class BMCertificate:
    """Banach-Mazur distance to the disk with its witnessing map."""

    distance: float
    witness: LinearMap2
    inner_radius: float
    outer_radius: float


def family_map(s: float, phi: float) -> LinearMap2:
    """diag(s, 1/s) . R(phi), an SL(2) element."""
    return LinearMap2.diagonal(s, 1.0 / s) @ LinearMap2.rotation(phi)


class _MappedSupport:
    """Evaluates h_{Phi K} on a fixed oversampled grid for Phi in the family."""

    def __init__(self, h: SupportFn, oversample: int, modes: int | None = None):
        self.n = h.n
        m = max(oversample, 1) * h.n
        self.m = m
        self.th = spectral.angles(m)
        self.cos = np.cos(self.th)
        self.sin = np.sin(self.th)
        a, b = spectral.fourier_coeffs(h.samples)
        if modes is not None and modes + 1 < a.size:
            a = a[: modes + 1]
            b = b[: modes + 1]
        self.a0 = a[0]
        self.a = a[1:]
        self.b = b[1:]
        self.k = np.arange(1, a.size)

    def samples(self, s: float, phi: float) -> np.ndarray:
        wx = s * self.cos
        wy = self.sin / s
        r = np.hypot(wx, wy)
        psi = np.arctan2(wy, wx) - phi
        arg = self.k[:, None] * psi[None, :]
        vals = self.a0 + self.a @ np.cos(arg) + self.b @ np.sin(arg)
        return r * vals

    def sample_grid(self, s: float, phivals: np.ndarray) -> np.ndarray:
        """h_{Phi K} samples for one stretch and a batch of rotations.

        Rotating the body is a rotation of its coefficients, so one pair of
        basis matrices per stretch serves every phi.
        """
        wx = s * self.cos
        wy = self.sin / s
        r = np.hypot(wx, wy)
        psi = np.arctan2(wy, wx)
        arg = self.k[:, None] * psi[None, :]
        cos_psi = np.cos(arg)
        sin_psi = np.sin(arg)
        kphi = self.k[:, None] * phivals[None, :]
        ckp, skp = np.cos(kphi), np.sin(kphi)
        a_rot = self.a[:, None] * ckp - self.b[:, None] * skp
        b_rot = self.a[:, None] * skp + self.b[:, None] * ckp
        return r[None, :] * (self.a0 + a_rot.T @ cos_psi + b_rot.T @ sin_psi)

    def perimeter(self, s: float, phi: float) -> float:
        return float((2.0 * np.pi / self.m) * np.sum(self.samples(s, phi)))

    def radii(self, s: float, phi: float) -> tuple[float, float]:
        vals = self.samples(s, phi)
        _, hi = spectral.refine_periodic_max(vals)
        _, lo = spectral.refine_periodic_min(vals)
        return lo, hi

    def ratio(self, s: float, phi: float) -> float:
        lo, hi = self.radii(s, phi)
        return hi / lo

    def grid_stage(self, svals, phivals, kind: str):
        """(s, phi, value) of the best grid point for 'perimeter' or 'ratio'."""
        f_best = np.inf
        best = (1.0, 0.0)
        for s in svals:
            vals = self.sample_grid(s, phivals)
            if kind == "perimeter":
                obj = (2.0 * np.pi / self.m) * vals.sum(axis=1)
            else:
                obj = vals.max(axis=1) / vals.min(axis=1)
            j = int(np.argmin(obj))
            if obj[j] < f_best:
                f_best = float(obj[j])
                best = (float(s), float(phivals[j]))
        return best[0], best[1], f_best


def _search(mapped: _MappedSupport, kind: str, cfg: SearchConfig):
    """Coarse grid then Nelder-Mead over (log s, phi)."""
    objective = mapped.perimeter if kind == "perimeter" else mapped.ratio
    if cfg.warm_start is not None:
        s0, phi0 = cfg.warm_start
    else:
        ns, nphi = cfg.grid
        svals = np.geomspace(1.0, S_MAX, ns)
        phivals = np.linspace(0.0, np.pi, nphi, endpoint=False)
        s0, phi0, _ = mapped.grid_stage(svals, phivals, kind)
    f_start = objective(s0, phi0)
    x0 = np.array([np.log(s0), phi0])
    simplex = np.vstack([x0, x0 + [0.05, 0.0], x0 + [0.0, 0.05]])
    res = minimize(
        lambda x: objective(float(np.exp(x[0])), float(x[1])),
        x0,
        method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "xatol": cfg.xatol,
            "fatol": cfg.fatol,
            "maxiter": cfg.maxiter,
            "maxfev": 4 * cfg.maxiter,
        },
    )
    if res.fun <= f_start + 1e-12 * max(1.0, abs(f_start)):
        return float(np.exp(res.x[0])), float(res.x[1]), float(res.fun)
    if cfg.warm_start is not None:
        # warm refinement may start at the optimum already
        return s0, phi0, f_start
    raise OptimizationFailed(
        f"refinement went uphill: {res.fun:.12g} > start {f_start:.12g}"
    )


def sl2_normalize(h: SupportFn, config: SearchConfig | None = None
                  ) -> tuple[SupportFn, LinearMap2]:
    """Perimeter-minimizing SL(2) image, rescaled to area pi.

    Returns the normalized body and the SL(2) witness map (the area rescale
    is applied after the map and is not part of the witness).
    """
    require_symmetric(h, "sl2_normalize")
    cfg = config or SearchConfig()
    mapped = _MappedSupport(h, cfg.angle_oversample, cfg.modes)
    s, phi, _ = _search(mapped, "perimeter", cfg)
    witness = family_map(s, phi)
    image = apply_linear_map(h, witness)
    body = scaled(image, np.sqrt(np.pi / area(image)))
    return body, witness


def banach_mazur_to_disk(h: SupportFn, config: SearchConfig | None = None
                         ) -> BMCertificate:
    """Banach-Mazur distance to the unit disk.

    For an origin-symmetric body this is the min over the family of the
    circumradius/inradius ratio of the image, both radii read off the
    mapped support function.
    """
    require_symmetric(h, "banach_mazur_to_disk")
    cfg = config or SearchConfig()
    mapped = _MappedSupport(h, cfg.angle_oversample, cfg.modes)
    s, phi, _ = _search(mapped, "ratio", cfg)
    full = _MappedSupport(h, cfg.angle_oversample) if cfg.modes else mapped
    lo, hi = full.radii(s, phi)
    return BMCertificate(distance=hi / lo, witness=family_map(s, phi),
                         inner_radius=lo, outer_radius=hi)


def pinching_to_bm_bound(h: SupportFn) -> float:
    """Banach-Mazur bound (max q / min q)^(3/2) from the pinching of the
    affine support function q = h * S^(1/3) (constant exactly on
    origin-centered ellipses)."""
    require_symmetric(h, "pinching_to_bm_bound")
    q = h.samples * np.cbrt(curvature_samples(h.samples))
    _, qmax = spectral.refine_periodic_max(q)
    _, qmin = spectral.refine_periodic_min(q)
    if qmin <= 0.0:
        return float("inf")
    return float((qmax / qmin) ** 1.5)
