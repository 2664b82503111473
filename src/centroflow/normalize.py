"""SL(2) searches over the two-parameter family diag(s, 1/s) . R(phi).

Left rotations change neither the perimeter nor the radii ratio of the image
body, and scalings are factored out of both objectives, so this family is
exhaustive for the perimeter-minimizing normalization and for the
Banach-Mazur distance to the disk.  Over M = Phi^T Phi (det 1) both
objectives are geodesically convex, so a local minimum is the global one.
Every quantity is read off one boundary sampling of the body
(``_BoundaryForms``).  The perimeter minimum comes from a majorize-minimize
fixed-point iteration in M started at the identity; the Banach-Mazur search
is Nelder-Mead (``minimize``, an in-package copy of scipy's method) with a
fixed initial simplex started at that minimum.  Nelder-Mead never trades its
best vertex for a worse one, so the search ends no higher than its start and
needs neither a fallback nor an evaluation cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spectral
from .support import (LinearMap2, SupportFn, apply_linear_map, area, boundary_points,
                      curvature_samples, require_symmetric, scaled)

__all__ = [
    "BMCertificate",
    "sl2_normalize",
    "sl2_positions",
    "banach_mazur_to_disk",
    "pinching_to_bm_bound",
]


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


SEARCH_OVERSAMPLE = 8  # boundary samples per grid node of the body


def _form_coeffs(s: float, phi: float) -> np.ndarray:
    """(a - 1, b cos 2phi, -b sin 2phi), a = (s^2 + s^-2)/2 and
    b = (s^2 - s^-2)/2: for Phi = diag(s, 1/s) R(phi), |Phi p|^2 - |p|^2 is
    their product with (|p|^2, p1^2 - p2^2, 2 p1 p2), and b -> -b gives
    Phi^-T.  a - 1 is written to keep its digits near s = 1."""
    b = 0.5 * (s * s - 1.0 / (s * s))
    return np.array([0.5 * (s - 1.0 / s) ** 2, b * np.cos(2.0 * phi), -b * np.sin(2.0 * phi)])


def _curve_rows(px, py, dx, dy, dt: float, sign: float = 1.0):
    """Rows of |Phi p|^2 and of its t-derivative times dt, (3, M + 1) each,
    for the samples p of a curve (first sample appended); sign -1 negates b."""
    rows = np.array([[px * px + py * py, px * dx + py * dy],
                     [px * px - py * py, px * dx - py * dy],
                     [2.0 * px * py, px * dy + py * dx]])
    rows *= np.array([1.0, sign, sign])[:, None, None] * [[1.0], [2.0 * dt]]
    rows = np.concatenate([rows, rows[..., :1]], axis=-1)
    return rows[:, 0], rows[:, 1]


def _refined_max(coef: np.ndarray, rows: np.ndarray, slope_rows: np.ndarray) -> np.ndarray:
    """Max over t of each of the two blocks of M + 1 samples coef @ rows:
    the largest sample or, larger, the max of the cubic Hermite interpolant
    of the samples and slopes coef @ slope_rows on a grid interval where the
    slope turns from rising to falling."""
    slope = (coef @ slope_rows).reshape(2, -1)
    vals = (coef @ rows).reshape(2, -1)
    k, j = np.nonzero((slope[:, :-1] > 0.0) & ~(slope[:, 1:] > 0.0))
    d0, d1 = slope[k, j], slope[k, j + 1]
    g0, g1 = vals[k, j], vals[k, j + 1]
    x = d0 / (d0 - d1)
    dg = g1 - g0
    rise = x * (d0 + x * (3.0 * dg - 2.0 * d0 - d1 + x * (d0 + d1 - 2.0 * dg)))
    vals[k, j] = g0 + np.maximum(rise, 0.0)
    return vals.max(axis=1)


class _BoundaryForms:
    """Symmetric K sampled at SEARCH_OVERSAMPLE * n / 2 normal angles t in
    [0, pi) as rows of quadratic forms.

    For Phi in the family, the circumradius of Phi K is max |Phi x(t)| over
    the boundary points x = h u + h' u_perp (x' = S u_perp, S = h + h''),
    its inradius is 1/max |Phi^-T u/h| over the polar boundary points, and
    its perimeter is the integral of S |Phi u_perp| dt.  These are
    identities of the interpolant, convex between the nodes or not.
    """

    def __init__(self, h: SupportFn):
        m = SEARCH_OVERSAMPLE * h.n
        dt = 2.0 * np.pi / m
        t = spectral.angles(m)[: m // 2]
        c, s = np.cos(t), np.sin(t)
        x, y = boundary_points(h.samples, t)
        hv, hp = x * c + y * s, y * c - x * s
        self.curv = curvature_samples(spectral.resample(h.samples, m))[: m // 2]
        # (u1^2, 2 u1 u2, u2^2) of u_perp, weighted by S in the perimeter
        self.tangent_rows = np.array([s * s, -2.0 * s * c, c * c])
        dpolar = (-(s * hv + c * hp) / hv ** 2, (c * hv - s * hp) / hv ** 2)  # (u/h)'
        outer = _curve_rows(x, y, -self.curv * s, self.curv * c, dt)
        polar = _curve_rows(c / hv, s / hv, *dpolar, dt, -1.0)
        # blocks [outer | polar] of M + 1 columns: samples, then slopes
        self.radius_rows = [np.hstack([o, q]) for o, q in zip(outer, polar)]

    def radii(self, s: float, phi: float) -> tuple[float, float]:
        """(inradius, circumradius) of Phi K."""
        sq = _refined_max(_form_coeffs(s, phi) + [1.0, 0.0, 0.0], *self.radius_rows)
        return 1.0 / np.sqrt(sq[1]), np.sqrt(sq[0])

    def ratio(self, s: float, phi: float) -> float:
        lo, hi = self.radii(s, phi)
        return hi / lo


def _perimeter_minimum(forms: _BoundaryForms) -> tuple[float, float]:
    """(s, phi), s >= 1 and phi in [0, pi), minimizing the perimeter of Phi K.

    With M = Phi^T Phi (det 1) the perimeter is the integral of
    S sqrt(u_perp' M u_perp) dt.  As sqrt is concave it lies below
    tr(M A)/2 + const at M0, A = sum S u_perp u_perp' dt
    / sqrt(u_perp' M0 u_perp), and det M = 1 minimizes tr(M A) at
    sqrt(det A) A^-1; repeating that step from M = I never raises the
    perimeter and converges to its one minimum.
    """
    rows = forms.tangent_rows
    mat = np.array([1.0, 0.0, 1.0])  # (M00, M01, M11)
    for _ in range(200):  # it settles in 25-45 steps
        a00, a01, a11 = rows @ (forms.curv / np.sqrt(mat @ rows))
        a01 *= 0.5
        prev, mat = mat, np.array([a11, -a01, a00]) / np.sqrt(a00 * a11 - a01 * a01)
        if np.max(np.abs(mat - prev)) <= 1e-15 * np.max(mat):
            break
    # M = R(phi)^T diag(s^2, s^-2) R(phi), so M00 - M11 = 2 sinh(2 ln s) cos 2phi
    # and 2 M01 = -2 sinh(2 ln s) sin 2phi
    d, e = mat[0] - mat[2], 2.0 * mat[1]
    s = np.exp(0.5 * np.arcsinh(0.5 * np.hypot(d, e)))
    return float(s), float(0.5 * np.arctan2(-e, d) % np.pi)


class _Minimum(NamedTuple):
    x: np.ndarray
    nfev: int


def _by_value(vertex: list) -> tuple[bool, float]:
    """Sort key ranking vertices by value, NaN last (numpy's order)."""
    return vertex[0] != vertex[0], vertex[0]


def minimize(fun, simplex, xatol: float, fatol: float, maxiter: int) -> _Minimum:
    """Nelder-Mead minimum of ``fun`` from the vertices ``simplex``.

    This is scipy.optimize.minimize(method="Nelder-Mead") with
    ``initial_simplex`` and these options, operation for operation:
    reflection 1, expansion 2, contraction 1/2 and shrink 1/2; the vertices
    sorted stably by value after each iteration; a stop once every vertex
    lies within ``xatol`` of the best in each coordinate and within ``fatol``
    of it in value, or after ``maxiter`` iterations.  So x and nfev agree
    with scipy's to the bit.  In two dimensions the simplex costs 3
    evaluations and an iteration at most 4 (a reflection, a contraction and
    a 2-vertex shrink), so a search ends after at most 3 + 4 (maxiter - 1) of
    them.  The best vertex is only ever replaced by a better one, so the
    result is no worse than the best initial vertex.
    """
    nfev = 0

    def evaluate(x: list[float]) -> float:
        nonlocal nfev
        nfev += 1
        return fun(x)

    sim = [[evaluate(x), x] for x in ([float(c) for c in vertex] for vertex in simplex)]
    dim = len(sim) - 1
    sim.sort(key=_by_value)
    for _ in range(maxiter - 1):
        (f_best, best), (f_next, _), (f_worst, worst) = sim[0], sim[-2], sim[-1]
        if (all(abs(c - b) <= xatol for _, x in sim[1:] for c, b in zip(x, best))
                and all(abs(f_best - f) <= fatol for f, _ in sim[1:])):
            break
        xbar = [sum(c[1:], c[0]) / dim for c in zip(*(x for _, x in sim[:-1]))]
        xr = [2.0 * b - w for b, w in zip(xbar, worst)]
        fr = evaluate(xr)
        if fr < f_best:
            xe = [3.0 * b - 2.0 * w for b, w in zip(xbar, worst)]
            fe = evaluate(xe)
            sim[-1] = [fe, xe] if fe < fr else [fr, xr]
        elif fr < f_next:
            sim[-1] = [fr, xr]
        else:
            if fr < f_worst:  # contract outside
                xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
                fc = evaluate(xc)
                shrink = not fc <= fr
            else:  # contract inside
                xc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
                fc = evaluate(xc)
                shrink = not fc < f_worst
            if not shrink:
                sim[-1] = [fc, xc]
            else:
                for vertex in sim[1:]:
                    vertex[1] = [b + 0.5 * (c - b) for c, b in zip(vertex[1], best)]
                    vertex[0] = evaluate(vertex[1])
        sim.sort(key=_by_value)
    return _Minimum(x=np.array(sim[0][1]), nfev=nfev)


def _bm_search(forms: _BoundaryForms, start: tuple[float, float], short: bool
               ) -> BMCertificate:
    """Certificate at the (s, phi) minimizing the radii ratio, by Nelder-Mead
    over (log s, phi) from a fixed simplex at ``start``; a short search stops
    sooner.  Either ends no higher than ``start``, its first vertex."""
    maxiter, xatol, fatol = (24, 1e-7, 1e-11) if short else (400, 1e-9, 1e-13)
    x0 = np.array([np.log(start[0]), start[1]])
    simplex = np.vstack([x0, x0 + [0.05, 0.0], x0 + [0.0, 0.05]])
    res = minimize(lambda x: float(forms.ratio(np.exp(x[0]), x[1])), simplex,
                   xatol=xatol, fatol=fatol, maxiter=maxiter)
    s, phi = float(np.exp(res.x[0])), float(res.x[1])
    lo, hi = forms.radii(s, phi)
    if not np.isfinite(hi / lo):
        raise ValueError("the Banach-Mazur distance is not finite: the body's scale "
                         "overflows or underflows")
    return BMCertificate(distance=float(hi / lo), witness=family_map(s, phi),
                         inner_radius=float(lo), outer_radius=float(hi))


def sl2_normalize(h: SupportFn) -> tuple[SupportFn, LinearMap2]:
    """Perimeter-minimizing SL(2) image, rescaled to area pi.

    Returns the normalized body and the SL(2) witness map (the area rescale
    is applied after the map and is not part of the witness).
    """
    require_symmetric(h, "sl2_normalize")
    witness = family_map(*_perimeter_minimum(_BoundaryForms(h)))
    image = apply_linear_map(h, witness)
    return scaled(image, np.sqrt(np.pi / area(image))), witness


def banach_mazur_to_disk(h: SupportFn) -> BMCertificate:
    """Banach-Mazur distance to the unit disk.

    For an origin-symmetric body this is the min over the family of the
    circumradius/inradius ratio of the image, both radii read off the
    sampled boundary and polar boundary of the body.
    """
    require_symmetric(h, "banach_mazur_to_disk")
    forms = _BoundaryForms(h)
    return _bm_search(forms, _perimeter_minimum(forms), short=False)


def sl2_positions(h: SupportFn) -> tuple[tuple[float, float], BMCertificate]:
    """The SL(2) quantities a flow trace row monitors, from one sampling.

    Returns the (inradius, circumradius) of Phi K at the perimeter-minimal
    Phi (the witness of ``sl2_normalize``), and the certificate of a short
    Banach-Mazur search started there, which reads within about 1e-4 above
    the full search's distance.
    """
    require_symmetric(h, "sl2_positions")
    forms = _BoundaryForms(h)
    start = _perimeter_minimum(forms)
    return forms.radii(*start), _bm_search(forms, start, short=True)


def _parabola_peak(values: np.ndarray, j: int) -> float:
    """Value at the vertex of the parabola through the periodic samples
    j - 1, j, j + 1, the refined extremum when sample j is one.  Collinear
    samples around an extremum are equal, so any nonzero divisor gives f0."""
    fm, f0, fp = values[j - 1], values[j], values[(j + 1) % values.size]
    denom = fm - 2.0 * f0 + fp
    denom = denom + (denom == 0.0)
    return f0 - 0.125 * (fm - fp) ** 2 / denom


def pinching_to_bm_bound(h: SupportFn) -> float:
    """Banach-Mazur bound (max q / min q)^(3/2) from the pinching of the
    affine support function q = h * S^(1/3) (constant exactly on
    origin-centered ellipses)."""
    require_symmetric(h, "pinching_to_bm_bound")
    q = h.samples * np.cbrt(curvature_samples(h.samples))
    qmax, qmin = _parabola_peak(q, np.argmax(q)), _parabola_peak(q, np.argmin(q))
    if qmin <= 0.0:
        return float("inf")
    return float((qmax / qmin) ** 1.5)
