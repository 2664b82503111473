"""SL(2) searches over the two-parameter family diag(s, 1/s) . R(phi).

Left rotations change neither the perimeter nor the radii ratio of the image
body, and scalings are factored out of both objectives, so this family is
exhaustive for the perimeter-minimizing normalization and for the
Banach-Mazur distance to the disk.  Over M = Phi^T Phi (det 1) both
objectives are geodesically convex, so a local minimum is the global one.
Every quantity is read off one boundary sampling of the body
(``_BoundaryForms``).  The perimeter minimum comes from a majorize-minimize
fixed-point iteration in M started at the identity.

The Banach-Mazur search (``minimize``) works in the Klein coordinate
v = tanh(2 ln s) (cos 2phi, -sin 2phi) of M, in which geodesics are chords
and the squared radii ratio is A(v) B(v) / (1 - |v|^2).  A is the max over
the boundary points x of |x|^2 + v . (x1^2 - x2^2, 2 x1 x2), and B the same
over the polar boundary points with -v.  Every point of the interpolant is
therefore an affine cut below A or B, and the ratio of any set of cuts bounds
the distance from below.  The search is an exchange method started at the
perimeter minimum: each round evaluates the body at one point (the upper end
of the bracket), adds the maxima found there as cuts, and minimizes the cut
model in closed form (the lower end).  It stops once the bracket is closed to
``SEARCH_RTOL`` and returns the best point it evaluated, so it ends no higher
than its start.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spectral
from .support import (LinearMap2, SupportFn, affine_support, apply_linear_map, area,
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
    """Banach-Mazur distance to the disk with its witnessing map, and the
    lower end of the search's bracket (the cut model's minimum)."""

    distance: float
    witness: LinearMap2
    inner_radius: float
    outer_radius: float
    lower_bound: float


def family_map(s: float, phi: float) -> LinearMap2:
    """diag(s, 1/s) . R(phi), an SL(2) element."""
    return LinearMap2.diagonal(s, 1.0 / s) @ LinearMap2.rotation(phi)


SEARCH_OVERSAMPLE = 8  # boundary samples per grid node of the body
SEARCH_RTOL = 1e-12  # relative width of a closed bracket
MAX_ROUNDS = 30  # evaluations a search may make
CUTS_PER_SIDE = 4  # cuts the model keeps below each of A and B


def _klein(s: float, phi: float) -> np.ndarray:
    """Klein coordinate v of M = Phi^T Phi: for Phi = diag(s, 1/s) R(phi),
    |Phi p|^2 = (|p|^2 + v . (p1^2 - p2^2, 2 p1 p2)) / sqrt(1 - |v|^2), and
    -v in place of v gives Phi^-T."""
    return np.tanh(2.0 * np.log(s)) * np.array([np.cos(2.0 * phi), -np.sin(2.0 * phi)])


def _family_params(v: np.ndarray) -> tuple[float, float]:
    """(s, phi), s >= 1 and phi in [0, pi), of the Klein coordinate v."""
    s = np.exp(0.5 * np.arctanh(np.hypot(v[0], v[1])))
    return float(s), float(0.5 * np.arctan2(-v[1], v[0]) % np.pi)


def _radii(v: np.ndarray, maxima) -> tuple[float, float]:
    """(inradius, circumradius) of Phi K from the maxima (A, B) at v."""
    scale = 1.0 / np.sqrt(1.0 - v @ v)
    return float(1.0 / np.sqrt(scale * maxima[1])), float(np.sqrt(scale * maxima[0]))


def _curve_rows(px, py, dx, dy, dt: float, sign: float = 1.0):
    """Rows of |p|^2 + v . (p1^2 - p2^2, 2 p1 p2) and of its t-derivative
    times dt, (3, M + 1) each, for the samples p of a curve (first sample
    appended); sign -1 negates v."""
    rows = np.array([[px * px + py * py, px * dx + py * dy],
                     [px * px - py * py, px * dx - py * dy],
                     [2.0 * px * py, px * dy + py * dx]])
    rows *= np.array([1.0, sign, sign])[:, None, None] * [[1.0], [2.0 * dt]]
    rows = np.concatenate([rows, rows[..., :1]], axis=-1)
    return rows[:, 0], rows[:, 1]


class _BoundaryForms:
    """Symmetric K sampled at SEARCH_OVERSAMPLE * n / 2 normal angles t in
    [0, pi) as rows of quadratic forms, and its Fourier coefficients.

    For Phi in the family, the circumradius of Phi K is max |Phi x(t)| over
    the boundary points x = h u + h' u_perp (x' = S u_perp, S = h + h''),
    its inradius is 1/max |Phi^-T u/h| over the polar boundary points, and
    its perimeter is the integral of S |Phi u_perp| dt.  These are
    identities of the interpolant, convex between the nodes or not.
    """

    def __init__(self, h: SupportFn):
        m = SEARCH_OVERSAMPLE * h.n
        self.dt = dt = 2.0 * np.pi / m
        t = spectral.angles(m)[: m // 2]
        c, s = np.cos(t), np.sin(t)
        fine = spectral.resample(h.samples, m)
        hv, hp = fine[: m // 2], spectral.deriv(fine)[: m // 2]
        x, y = hv * c - hp * s, hv * s + hp * c
        self.curv = curvature_samples(fine)[: m // 2]
        # (u1^2, 2 u1 u2, u2^2) of u_perp, weighted by S in the perimeter
        self.tangent_rows = np.array([s * s, -2.0 * s * c, c * c])
        dpolar = (-(s * hv + c * hp) / hv ** 2, (c * hv - s * hp) / hv ** 2)  # (u/h)'
        outer = _curve_rows(x, y, -self.curv * s, self.curv * c, dt)
        polar = _curve_rows(c / hv, s / hv, *dpolar, dt, -1.0)
        # blocks [outer | polar] of M + 1 columns: samples, then slopes
        self.rows, self.slope_rows = (np.hstack([o, q]) for o, q in zip(outer, polar))
        a, b = spectral.fourier_coeffs(h.samples)
        self.modes = np.arange(a.size)
        # h, h', h'' and h''' are the real parts of these times exp(i k t)
        self.derivs = (1j * self.modes) ** np.arange(4)[:, None] * (a - 1j * b)

    def _at(self, t: np.ndarray, orders: int) -> np.ndarray:
        """h and its next ``orders - 1`` derivatives at the angles t, a row each."""
        waves = np.exp(1j * np.outer(self.modes, t))
        return np.sum(self.derivs[:orders, :, None] * waves, axis=1).real

    def _peaks(self, coef: np.ndarray) -> list[np.ndarray]:
        """Angles of the two largest maxima over t of each block of samples
        coef @ rows: the peak of the cubic Hermite interpolant of the samples
        and slopes on each grid interval where the slope turns from rising to
        falling, or the largest sample where none does."""
        slope = (coef @ self.slope_rows).reshape(2, -1)
        vals = (coef @ self.rows).reshape(2, -1)
        k, j = np.nonzero((slope[:, :-1] > 0.0) & ~(slope[:, 1:] > 0.0))
        d0, d1 = slope[k, j], slope[k, j + 1]
        g0, g1 = vals[k, j], vals[k, j + 1]
        x = d0 / (d0 - d1)
        dg = g1 - g0
        rise = x * (d0 + x * (3.0 * dg - 2.0 * d0 - d1 + x * (d0 + d1 - 2.0 * dg)))
        peak = g0 + rise
        out = []
        for block in (0, 1):
            top = sorted(np.flatnonzero(k == block), key=peak.__getitem__)[-2:]
            out.append((j[top] + x[top]) * self.dt if top
                       else np.array([np.argmax(vals[block]) * self.dt]))
        return out

    @staticmethod
    def _cuts(h0: np.ndarray, h1: np.ndarray, t: np.ndarray, outer: int) -> np.ndarray:
        """Cuts (c0, c1, c2), c . (1, v) <= A(v) or B(v): of the boundary
        points with normals at the first ``outer`` angles t, and of the polar
        boundary points at the rest."""
        z2 = ((h0 + 1j * h1) * np.exp(1j * t)) ** 2
        e2 = np.exp(2j * t) / (h0 * h0)
        return np.where(np.arange(t.size)[:, None] < outer,
                        np.column_stack([h0 * h0 + h1 * h1, z2.real, z2.imag]),
                        np.column_stack([1.0 / (h0 * h0), -e2.real, -e2.imag]))

    def evaluate(self, v: np.ndarray):
        """The maxima (A, B) at v and the cuts of the points attaining them.

        The two largest maxima of each block are refined on the interpolant
        itself by one Newton step in t from the Hermite peak; of the peak and
        the Newton point the higher is kept.  A and B are the largest of
        those values, so the cut model meets them at v.  Returns (A, B),
        [outer cuts, polar cuts] and [outer angles, polar angles].
        """
        coef = np.array([1.0, v[0], v[1]])
        outer, polar = self._peaks(coef)
        t = np.concatenate([outer, polar])
        h0, h1, h2, h3 = self._at(t, 4)
        w, e = v[0] - 1j * v[1], np.exp(1j * t)
        # outer: f = |z|^2 + Re(w z^2) with z = (h + i h') e^{it}, z' = i S e^{it}
        s0, s1 = h0 + h2, h1 + h3
        z, zp, zpp = (h0 + 1j * h1) * e, 1j * s0 * e, (1j * s1 - s0) * e
        f1 = 2.0 * (h1 * s0 + (w * z * zp).real)
        f2 = 2.0 * (s0 * s0 + h1 * s1 - h0 * s0 + (w * (zp * zp + z * zpp)).real)
        # polar: f = g / h^2 with g = 1 - Re(w e^{2it})
        we2 = w * e * e
        g, gp, gpp = 1.0 - we2.real, 2.0 * we2.imag, 4.0 * we2.real
        inv = 1.0 / h0
        p1 = inv * inv * (gp - 2.0 * g * h1 * inv)
        p2 = inv * inv * (gpp - 4.0 * gp * h1 * inv
                          + g * inv * (6.0 * h1 * h1 * inv - 2.0 * h2))
        is_polar = np.arange(t.size) >= outer.size
        f1, f2 = np.where(is_polar, p1, f1), np.where(is_polar, p2, f2)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(f2 < 0.0, -f1 / f2, 0.0)
        tn = t + np.maximum(-self.dt, np.minimum(self.dt, np.nan_to_num(step)))
        old = self._cuts(h0, h1, t, outer.size)
        new = self._cuts(*self._at(tn, 2), tn, outer.size)
        higher = new @ coef >= old @ coef
        cuts = np.where(higher[:, None], new, old)
        angles = np.where(higher, tn, t)
        values = cuts @ coef
        sides = (slice(None, outer.size), slice(outer.size, None))
        return ((values[sides[0]].max(), values[sides[1]].max()),
                [cuts[side] for side in sides], [angles[side] for side in sides])

    def radii(self, s: float, phi: float) -> tuple[float, float]:
        """(inradius, circumradius) of Phi K."""
        v = _klein(s, phi)
        return _radii(v, self.evaluate(v)[0])


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


@functools.cache
def _layout(outer: int, polar: int):
    """Index arrays of a model with ``outer`` + ``polar`` stacked cuts: the
    cut pairs (i, k) of one side, whose tie lines these are; the pairs of
    tie lines, whose crossings are vertex candidates; and the pairs (a, b)
    of one cut of each side, with ``own``[p, r] the one of the two on the
    side of cut r."""
    side = np.arange(outer + polar) >= outer
    i, k = np.array([(i, k) for i, k in itertools.combinations(range(outer + polar), 2)
                     if side[i] == side[k]], dtype=int).reshape(-1, 2).T
    crossings = np.array(list(itertools.combinations(range(i.size), 2)), dtype=int)
    a, b = np.divmod(np.arange(outer * polar), polar)
    b = b + outer
    return (i, k, crossings.reshape(-1, 2).T, a, b,
            np.where(side, b[:, None], a[:, None]))


def _model_minimum(outer: np.ndarray, polar: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum over |v| < 1 of the cut model max(outer . (1, v))
    max(polar . (1, v)) / (1 - |v|^2), and a point attaining it.

    The minimum lies at a vertex (two cuts of each side tie, or three of one
    side), on a tie line where two cuts of one side tie against one of the
    other, or on a chord where one cut of each side is the largest.
    - On a tie line v = p + tau e, 1 - |v|^2 = d0 - tau^2, the model is
      (a0 + a1 tau)(b0 + b1 tau) / (d0 - tau^2) = (n0 + n1 tau + n2 tau^2) /
      (d0 - tau^2), stationary where n1 tau^2 + 2 (n0 + n2 d0) tau + n1 d0
      = 0; the roots multiply to d0, so the smaller one is the one inside.
    - The cuts a of x and b of y are null vectors, and the product of the two
      has its least value (x . y)^2 = (a0 b0 - a1 b1 - a2 b2) / 2 on the
      chord between their ideal points -(a1, a2)/a0 and -(b1, b2)/b0.  That
      is a model value where the chord crosses the cell in which a and b are
      the largest cuts of their sides.  It is reached at an ideal point only
      when that cell holds no more of the chord; a point just inside the
      disk stands in for it.
    """
    split = len(outer)
    cuts = np.vstack([outer, polar])
    i, k, (li, lk), a, b, own = _layout(split, len(polar))
    with np.errstate(divide="ignore", invalid="ignore"):
        g = cuts[i] - cuts[k]  # g . (1, v) = 0 on the tie line
        norm2 = g[:, 1] * g[:, 1] + g[:, 2] * g[:, 2]
        p = g[:, 1:] * (-g[:, :1] / norm2[:, None])
        e = np.column_stack([-g[:, 2], g[:, 1]]) / np.sqrt(norm2)[:, None]
        d0 = 1.0 - np.sum(p * p, axis=1)[:, None]
        # every cut at p, and its slope along e, on every line
        at = cuts[:, 0] + p[:, :1] * cuts[:, 1] + p[:, 1:] * cuts[:, 2]
        along = e[:, :1] * cuts[:, 1] + e[:, 1:] * cuts[:, 2]
        line = np.arange(i.size)
        a0, a1 = at[line, i][:, None], along[line, i][:, None]
        n0, n1, n2 = a0 * at, a0 * along + a1 * at, a1 * along
        q = n0 + n2 * d0
        tau = np.where(n1 == 0.0, 0.0,
                       -n1 * d0 / (q + np.copysign(np.sqrt(q * q - n1 * n1 * d0), q)))
        det = g[li, 1] * g[lk, 2] - g[li, 2] * g[lk, 1]
        v = np.vstack([(p[:, None] + tau[..., None] * e[:, None]).reshape(-1, 2),
                       np.column_stack([g[lk, 0] * g[li, 2] - g[li, 0] * g[lk, 2],
                                        g[li, 0] * g[lk, 1] - g[lk, 0] * g[li, 1]])
                       / det[:, None]])
        x = cuts[:, 0] + v[:, :1] * cuts[:, 1] + v[:, 1:] * cuts[:, 2]
        room = 1.0 - np.sum(v * v, axis=1)
        values = np.where(room > 0.0, x[:, :split].max(axis=1) * x[:, split:].max(axis=1) / room,
                          np.inf)
        # chords v = start + tau span, tau in [0, 1], along which a and b
        # stay the largest of their sides while c + d tau >= 0 for each rival
        start = -cuts[a, 1:] / cuts[a, :1]
        span = -cuts[b, 1:] / cuts[b, :1] - start
        gap = cuts[own] - cuts
        c = gap[..., 0] + gap[..., 1] * start[:, :1] + gap[..., 2] * start[:, 1:]
        d = gap[..., 1] * span[:, :1] + gap[..., 2] * span[:, 1:]
        bound = -c / d
    lo = np.max(np.where(d > 0.0, bound, 0.0), axis=1, initial=0.0)
    hi = np.min(np.where(d < 0.0, bound, 1.0), axis=1, initial=1.0)
    chord = np.where((lo <= hi) & np.all((d != 0.0) | (c >= 0.0), axis=1),
                     0.5 * (cuts[a, 0] * cuts[b, 0] - cuts[a, 1] * cuts[b, 1]
                            - cuts[a, 2] * cuts[b, 2]), np.inf)
    pair = int(np.argmin(chord))
    if values.size and values.min() <= chord[pair]:
        best = int(np.argmin(values))
        return float(values[best]), v[best]
    point = start[pair] + 0.5 * (lo[pair] + hi[pair]) * span[pair]
    radius = np.hypot(point[0], point[1])
    return float(chord[pair]), point * min(1.0, (1.0 - 1e-6) / radius)


def _merge(cuts: np.ndarray, angles: np.ndarray, new: np.ndarray, new_angles: np.ndarray,
           coef: np.ndarray, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """The new cuts and the old ones more than ``spacing`` from all of them
    (angles mod pi), the CUTS_PER_SIDE largest at coef = (1, v) kept."""
    apart = np.abs((angles[:, None] - new_angles + 0.5 * np.pi) % np.pi - 0.5 * np.pi)
    keep = np.all(apart > spacing, axis=1)
    cuts = np.vstack([new, cuts[keep]])
    angles = np.concatenate([new_angles, angles[keep]])
    values = cuts @ coef
    top = sorted(range(len(cuts)), key=lambda r: -values[r])[:CUTS_PER_SIDE]
    return cuts[top], angles[top]


class _Minimum(NamedTuple):
    x: np.ndarray  # Klein coordinate of the best point evaluated
    maxima: tuple  # (A, B) there
    lower: float  # the largest cut-model minimum of the ratio
    start: tuple  # (A, B) at the start
    nfev: int


def minimize(forms: _BoundaryForms, start: tuple[float, float]) -> _Minimum:
    """Exchange-method minimum of the radii ratio from ``start`` = (s, phi).

    Each round evaluates the body at v (``_BoundaryForms.evaluate``), keeps
    the best point so far as the upper end of the bracket, merges the cuts
    found at v into the model and moves v to the model's minimizer, whose
    value is a lower end.  It stops once the ends agree to SEARCH_RTOL or
    after MAX_ROUNDS evaluations.
    """
    v = _klein(*start)
    cuts = [np.empty((0, 3)), np.empty((0, 3))]
    angles = [np.empty(0), np.empty(0)]
    best = first = None
    lower = 0.0
    for nfev in range(1, MAX_ROUNDS + 1):
        maxima, new, new_angles = forms.evaluate(v)
        value = maxima[0] * maxima[1] / (1.0 - v @ v)
        if first is None:
            if not np.isfinite(value):
                raise ValueError("the Banach-Mazur distance is not finite: the body's "
                                 "scale overflows or underflows")
            first = maxima
        if best is None or value < best[0]:
            best = (value, v, maxima)
        coef = np.array([1.0, v[0], v[1]])
        for side in (0, 1):
            cuts[side], angles[side] = _merge(cuts[side], angles[side], new[side],
                                              new_angles[side], coef, forms.dt)
        model, v = _model_minimum(*cuts)
        lower = max(lower, model)
        if np.sqrt(best[0]) - np.sqrt(lower) <= SEARCH_RTOL * np.sqrt(best[0]):
            break
    return _Minimum(x=best[1], maxima=best[2], lower=float(np.sqrt(lower)), start=first,
                    nfev=nfev)


def _certificate(res: _Minimum) -> BMCertificate:
    inner, outer = _radii(res.x, res.maxima)
    return BMCertificate(distance=outer / inner, witness=family_map(*_family_params(res.x)),
                         inner_radius=inner, outer_radius=outer, lower_bound=res.lower)


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
    sampled boundary and polar boundary of the body.  The certificate's
    ``lower_bound`` is within SEARCH_RTOL of the distance unless the search
    ran out of rounds.
    """
    require_symmetric(h, "banach_mazur_to_disk")
    forms = _BoundaryForms(h)
    return _certificate(minimize(forms, _perimeter_minimum(forms)))


def sl2_positions(h: SupportFn) -> tuple[tuple[float, float], BMCertificate]:
    """The SL(2) quantities a flow trace row monitors, from one sampling.

    Returns the (inradius, circumradius) of Phi K at the perimeter-minimal
    Phi (the witness of ``sl2_normalize``), read off the first evaluation of
    the Banach-Mazur search started there, and that search's certificate:
    the search ``banach_mazur_to_disk`` makes.
    """
    require_symmetric(h, "sl2_positions")
    forms = _BoundaryForms(h)
    start = _perimeter_minimum(forms)
    res = minimize(forms, start)
    return _radii(_klein(*start), res.start), _certificate(res)


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
    q = affine_support(h.samples)
    qmax, qmin = _parabola_peak(q, np.argmax(q)), _parabola_peak(q, np.argmin(q))
    if qmin <= 0.0:
        return float("inf")
    return float((qmax / qmin) ** 1.5)
