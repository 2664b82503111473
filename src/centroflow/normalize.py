"""SL(2) searches over the two-parameter family diag(s, 1/s) . R(phi).

Left rotations change neither the perimeter nor the radii ratio of the image
body, and scalings are factored out of both objectives, so this family is
exhaustive for the perimeter-minimizing normalization and for the
Banach-Mazur distance to the disk.  Both searches work in the Klein
coordinate v = tanh(2 ln s) (cos 2phi, -sin 2phi) of M = Phi^T Phi, where
geodesics are chords, both objectives are geodesically convex (a local
minimum is the global one), and |Phi z|^2 sqrt(1 - |v|^2) is (1, v) times
the cut row (|z|^2, Re z^2, Im z^2) of z; negating the last two entries
gives Phi^-T.  (s, phi) is read off v only to build the witness map.

Every quantity is read off the curves of one boundary sampling of the body
(``_BoundaryForms``).  The perimeter minimum comes from safeguarded Newton
steps in v started at v = 0, majorize-minimize steps where Newton's is not
safe.  The squared radii ratio is A(v) B(v) / (1 - |v|^2), A and B maxima
over the boundary and the polar boundary of affine functions of v, so every
point of the interpolant is an affine cut below A or B and the ratio of any
set of cuts bounds the distance from below.  The Banach-Mazur search
(``minimize``) is an exchange method started at the perimeter minimum: each
round evaluates the body at one point (the upper end of the bracket), adds
the maxima found there as cuts, and minimizes the cut model in closed form
(the lower end).  It stops once the bracket is closed to ``SEARCH_RTOL``
and returns the best point it evaluated, so it ends no higher than its
start.

The searches run on a stack of bodies (R, n), one row a body; a row that has
converged stops while the others go on.  Every step is elementwise (a fold
over slices is too), a sum along the last axis or an FFT, so a row's
results are those it gives alone; the one-body functions are one-row stacks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spectral
from .support import (SupportFn, _folded, _half_period_curves, affine_support,
                      apply_linear_map, area, scaled)

__all__ = [
    "BMCertificate",
    "sl2_normalize",
    "sl2_searches",
    "banach_mazur_to_disk",
    "pinching_to_bm_bound",
]


@dataclass(frozen=True)
class BMCertificate:
    """Banach-Mazur distance to the disk, its witnessing map as a 2x2 array,
    and the lower end of the search's bracket (the cut model's minimum)."""

    distance: float
    witness: np.ndarray
    inner_radius: float
    outer_radius: float
    lower_bound: float


def family_map(s: float, phi: float) -> np.ndarray:
    """diag(s, 1/s) . R(phi), an SL(2) element, as a 2x2 array."""
    c, t = np.cos(phi), np.sin(phi)
    return np.diag([s, 1.0 / s]) @ np.array([[c, -t], [t, c]])


SEARCH_OVERSAMPLE = 8  # boundary samples per grid node of the body
SEARCH_RTOL = 1e-12  # relative width of a closed bracket
MAX_ROUNDS = 30  # evaluations a search may make
CUTS_PER_SIDE = 4  # cuts the model keeps below each of A and B
NEWTON_STEPS = 2  # refinements of each sampled maximum on the interpolant


def _family_params(v: np.ndarray) -> tuple[float, float]:
    """(s, phi), s >= 1 and phi in [0, pi), of the Klein coordinate v."""
    s = np.exp(0.5 * np.arctanh(np.hypot(v[0], v[1])))
    return float(s), float(0.5 * np.arctan2(-v[1], v[0]) % np.pi)


def _fold(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the last axis' slices: cheaper than a reduction."""
    return functools.reduce(ufunc, (x[..., k] for k in range(x.shape[-1])))


def _radii(v: np.ndarray, maxima: np.ndarray) -> np.ndarray:
    """(inradius, circumradius) of Phi K, a pair a row, from the Klein
    coordinates v and the maxima (A, B) there, both (R, 2)."""
    scale = 1.0 / np.sqrt(1.0 - _fold(np.add, v * v))
    return np.stack([1.0 / np.sqrt(scale * maxima[:, 1]), np.sqrt(scale * maxima[:, 0])], axis=-1)


def _cut_rows(z: np.ndarray, sign, out: np.ndarray | None = None) -> np.ndarray:
    """Cut rows (|z|^2, sign Re z^2, sign Im z^2) of the points z of a curve,
    along a new last axis, written into ``out`` if given: (1, v) . row is
    |Phi z|^2 sqrt(1 - |v|^2) for sign +1, and the same with Phi^-T for
    sign -1."""
    z2 = sign * z * z
    out = np.empty(z.shape + (3,)) if out is None else out
    np.add(z.real * z.real, z.imag * z.imag, out=out[..., 0])
    out[..., 1], out[..., 2] = z2.real, z2.imag
    return out


def _at(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(1, v) . row of the cut rows along the last axis of ``rows``."""
    return rows[..., 0] + v[..., 0] * rows[..., 1] + v[..., 1] * rows[..., 2]


class _BoundaryForms:
    """Symmetric bodies (R, n), each sampled at SEARCH_OVERSAMPLE * n / 2
    normal angles t in [0, pi) as the cut rows of its curves, and the Fourier
    coefficients of its fold (as in ``radial_powers``); the methods act on
    the rows they are given.

    For Phi in the family, the circumradius of Phi K is max |Phi z(t)| over
    the boundary points z = (h + i h') e^{it} (z' = i S e^{it}, S = h + h''),
    its inradius is 1/max |Phi^-T z(t)| over the polar boundary points
    z = e^{it}/h, and its perimeter is the integral of S |Phi z| dt over the
    tangents z = i e^{it}.  These are identities of the interpolant, convex
    between the nodes or not.
    """

    def __init__(self, samples: np.ndarray):
        fold = _folded(samples)
        m = SEARCH_OVERSAMPLE * fold.shape[-1]
        self.dt = np.pi / m
        e = np.exp(1j * spectral.angles(2 * m)[:m])
        hv, hp, self.curv = _half_period_curves(np.fft.rfft(fold), fold.shape[-1], m)
        self.tangent_rows = np.ascontiguousarray(_cut_rows(1j * e, 1.0).T)  # one row a component
        # blocks [boundary | polar] of m points a row
        self.rows = np.empty((len(fold), 2 * m, 3))
        z = 1j * hp  # the boundary points (h + i h') e^{it}, then the polar e^{it} / h
        z += hv
        z *= e
        _cut_rows(z, 1.0, self.rows[:, :m])
        _cut_rows(np.divide(e, hv, out=z), -1.0, self.rows[:, m:])
        coef = spectral.fourier_coeffs(fold)
        self.modes = 2 * np.arange(coef.shape[-1])  # the even modes the body has
        # h, h', h'' and h''' are the real parts of these times exp(i k t)
        self.derivs = (1j * self.modes) ** np.arange(4)[:, None] * coef[:, None, :]

    def _curves(self, t: np.ndarray, rows: np.ndarray, order: int = 2) -> np.ndarray:
        """z and its t-derivatives up to ``order`` (0 or 2) of the boundary
        curve at the angles t[:, 0] and of the polar curve at t[:, 1] (angles
        (R', 2, k) for ``rows``), shape (order + 1,) + t.shape, from h
        through its (order + 1)-th derivative of the interpolant."""
        phase = np.exp(1j * (t[..., None] * self.modes))
        sums = np.sum(self.derivs[rows, : order + 2, None, None] * phase[:, None], axis=-1).real
        # one derivative at a time, at the boundary angles (h) and the polar ones (g)
        h, g = sums[:, :, 0].swapaxes(0, 1), sums[:, :, 1].swapaxes(0, 1)
        e = np.exp(1j * t)
        out = np.empty((order + 1,) + t.shape, dtype=complex)
        g0 = 1.0 / g[0]  # the polar curve is (1/h) e^{it}
        out[0, :, 0], out[0, :, 1] = (h[0] + 1j * h[1]) * e[:, 0], g0 * e[:, 1]
        if order:
            s0, s1 = h[0] + h[2], h[1] + h[3]
            g1, g2 = -g[1] * g0 * g0, (2.0 * g[1] * g[1] * g0 - g[2]) * g0 * g0
            out[1, :, 0], out[1, :, 1] = 1j * s0 * e[:, 0], (g1 + 1j * g0) * e[:, 1]
            out[2, :, 0], out[2, :, 1] = (1j * s1 - s0) * e[:, 0], (g2 - g0 + 2j * g1) * e[:, 1]
        return out

    def evaluate(self, v: np.ndarray, rows: np.ndarray):
        """The maxima (A, B) of ``rows`` at their points in v (a point a row
        of the stack) and the cuts of the points attaining them.

        The two largest periodic local maxima of each side's samples (one
        twice, or the largest sample twice, where there are fewer) are
        refined on the interpolant itself by NEWTON_STEPS Newton steps in t,
        kept within one sample spacing; of the sample and the Newton point
        the higher is kept.  A and B are the largest of the values, so the
        cut model meets them at v.  Returns (A, B) as (R', 2), the cuts
        (R', side, 2, 3) and their angles (R', side, 2).
        """
        count = len(rows)
        v = v[rows]
        vals = _at(self.rows[rows], v[:, None]).reshape(count, 2, -1)
        ring = np.concatenate([vals[..., -1:], vals, vals[..., :1]], axis=-1)
        peak = (vals > ring[..., :-2]) & (vals >= ring[..., 2:])
        score = np.where(peak, vals, -np.inf)
        top = np.where(peak.any(axis=-1), np.argmax(score, axis=-1), np.argmax(vals, axis=-1))
        np.put_along_axis(score, top[..., None], -np.inf, axis=-1)
        second = np.where(score.max(axis=-1) > -np.inf, np.argmax(score, axis=-1), top)
        idx = np.stack([second, top], axis=-1)  # (count, side, 2)
        sign, start = np.array([[1.0], [-1.0]]), idx * self.dt  # of each side
        w, t = (v[:, 0] - 1j * v[:, 1])[:, None, None], start
        for _ in range(NEWTON_STEPS):
            z, z1, z2 = self._curves(t, rows)
            # f = |z|^2 + sign Re(w z^2) and its first two t-derivatives
            f1 = 2.0 * (z.conj() * z1 + sign * w * z * z1).real
            f2 = 2.0 * (z1.conj() * z1 + z.conj() * z2 + sign * w * (z1 * z1 + z * z2)).real
            offset = t - start - f1 / np.where(f2 < 0.0, f2, -np.inf)
            t = start + np.maximum(-self.dt, np.minimum(self.dt, offset))
        old = self.rows[rows[:, None, None], idx + np.array([[0], [vals.shape[-1]]])]
        new = _cut_rows(self._curves(t, rows, 0)[0], sign)
        higher = _at(new, v[:, None, None]) >= _at(old, v[:, None, None])
        cuts = np.where(higher[..., None], new, old)
        angles = np.where(higher, t, start)
        return _fold(np.maximum, _at(cuts, v[:, None, None])), cuts, angles


NEWTON_RADIUS = 1e-2  # largest majorize-minimize move that lets a Newton step go instead


def _perimeter_step(v: np.ndarray, rows: np.ndarray, curv: np.ndarray) -> np.ndarray:
    """The next point from the Klein coordinates v (R', 2) toward the least
    perimeter, for the tangent cut rows r and their products r1 r1, r1 r2,
    r2 r2 (``rows``, six rows) and the curvatures ``curv`` (R', M).

    log P(v) = log F - (1/4) log(1 - |v|^2) up to a constant, F = sum S sqrt q,
    q = (1, v) . r.  Its gradient and Hessian come from a = sum S r / sqrt q
    (F = (1, v) . a) and B = sum S r r^T / q^(3/2) over the last two entries
    of r.  As sqrt is concave, P at v lies below a constant plus a positive
    multiple of (1, v) . a / sqrt(1 - |v|^2), which is least at the
    majorize-minimize point -(a1, a2) / a0, a step that never raises P.  The
    Newton step of log P is taken instead where that point lies within
    NEWTON_RADIUS of v, the Hessian is positive definite and the Newton
    point lies inside the unit disk."""
    q = rows[0] + v[:, :1] * rows[1] + v[:, 1:] * rows[2]
    weight = curv / np.sqrt(q)
    a0, a1, a2 = np.sum(rows[:3, None] * weight, axis=-1)
    b11, b12, b22 = np.sum(rows[3:, None] * (weight / q), axis=-1)
    mm = -np.stack([a1, a2], axis=-1) / a0[:, None]
    f = a0 + v[:, 0] * a1 + v[:, 1] * a2
    room = 1.0 - _fold(np.add, v * v)
    # 4 F times the gradient and the Hessian of log P
    c, e = 2.0 * f / room, 4.0 * f / (room * room)
    g1, g2 = 2.0 * a1 + c * v[:, 0], 2.0 * a2 + c * v[:, 1]
    h11 = c + e * v[:, 0] * v[:, 0] - b11 - a1 * a1 / f
    h12 = e * v[:, 0] * v[:, 1] - b12 - a1 * a2 / f
    h22 = c + e * v[:, 1] * v[:, 1] - b22 - a2 * a2 / f
    det = h11 * h22 - h12 * h12
    newton = v - np.stack([h22 * g1 - h12 * g2, h11 * g2 - h12 * g1], axis=-1) / det[:, None]
    near = ((_fold(np.maximum, np.abs(mm - v)) <= NEWTON_RADIUS) & (h11 > 0.0) & (det > 0.0)
            & (_fold(np.add, newton * newton) < 1.0))
    return np.where(near[:, None], newton, mm)


def _perimeter_minimum(forms: _BoundaryForms) -> np.ndarray:
    """Klein coordinates v (R, 2) of the Phi minimizing the perimeter of Phi K.

    The perimeter is the integral of S |Phi z| dt over the tangents z, with
    |Phi z|^2 = (1, v) . r / sqrt(1 - |v|^2) for their cut rows r.  Steps of
    ``_perimeter_step`` from v = 0 settle to 1e-15 in at most 6 on flow rows
    and stability bases and 9 on a 30:1 ellipse; a row stops once its step
    is below that.
    """
    r, curv = forms.tangent_rows, forms.curv
    rows = np.vstack([r, r[1] * r[1:], r[2:] * r[2]])
    v = np.zeros((len(curv), 2))
    active = np.arange(len(v))
    for _ in range(200):
        step = _perimeter_step(v[active], rows, curv)
        moving = _fold(np.maximum, np.abs(step - v[active])) > 1e-15
        v[active] = step
        active, curv = active[moving], curv[moving]
        if not active.size:
            break
    return v


def _layout(split: int):
    """Index arrays of a model with ``split`` cuts a side, stacked: the cut
    pairs (i, k) of one side, whose tie lines these are; the pairs of tie
    lines, whose crossings are vertex candidates; and the pairs (a, b) of
    one cut of each side, with ``own``[p, r] the one of the two on the side
    of cut r."""
    side = np.arange(2 * split) >= split
    i, k = np.array([(i, k) for i, k in itertools.combinations(range(2 * split), 2)
                     if side[i] == side[k]]).T
    crossings = np.array(list(itertools.combinations(range(i.size), 2))).T
    a, b = np.divmod(np.arange(split * split), split)
    return i, k, crossings, a, b + split, np.where(side, b[:, None] + split, a[:, None])


_LAYOUT = _layout(CUTS_PER_SIDE)


def _model_minimum(cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum over |v| < 1 of the cut model max(outer . (1, v))
    max(polar . (1, v)) / (1 - |v|^2) for each row of ``cuts`` (R', side,
    CUTS_PER_SIDE, 3), and a point attaining it.

    The minimum lies at a vertex (two cuts of each side tie, or three of one
    side), on a tie line where two cuts of one side tie against one of the
    other, or on a chord where one cut of each side is the largest (a
    repeated cut adds no candidate).
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
    count, split = len(cuts), CUTS_PER_SIDE
    # one contiguous (R', 2 CUTS_PER_SIDE) array a component of the cuts
    x0, x1, x2 = x = np.ascontiguousarray(np.moveaxis(cuts.reshape(count, 2 * split, 3), -1, 0))
    i, k, (li, lk), a, b, own = _LAYOUT
    line, row = np.arange(i.size), np.arange(count)
    with np.errstate(divide="ignore", invalid="ignore"):
        g0, g1, g2 = x[:, :, i] - x[:, :, k]  # g . (1, v) = 0 on the tie line
        norm2 = g1 * g1 + g2 * g2
        foot, root = -g0 / norm2, np.sqrt(norm2)
        p0, p1, e0, e1 = g1 * foot, g2 * foot, -g2 / root, g1 / root
        d0 = (1.0 - (p0 * p0 + p1 * p1))[..., None]
        # every cut at p, and its slope along e, on every line
        at = x0[:, None] + p0[..., None] * x1[:, None] + p1[..., None] * x2[:, None]
        along = e0[..., None] * x1[:, None] + e1[..., None] * x2[:, None]
        a0, a1 = at[:, line, i][..., None], along[:, line, i][..., None]
        n0, n1, n2 = a0 * at, a0 * along + a1 * at, a1 * along
        q = n0 + n2 * d0
        tau = np.where(n1 == 0.0, 0.0,
                       -n1 * d0 / (q + np.copysign(np.sqrt(q * q - n1 * n1 * d0), q)))
        det = g1[:, li] * g2[:, lk] - g2[:, li] * g1[:, lk]
        v0, v1 = (np.concatenate([(pj[..., None] + tau * ej[..., None]).reshape(count, -1),
                                  cross / det], axis=1)
                  for pj, ej, cross in ((p0, e0, g0[:, lk] * g2[:, li] - g0[:, li] * g2[:, lk]),
                                        (p1, e1, g0[:, li] * g1[:, lk] - g0[:, lk] * g1[:, li])))
        # every cut of a side at every candidate, one (R', candidates) slice a cut
        y0, y1, y2 = x.transpose(0, 2, 1)[..., None]
        outer, polar = (functools.reduce(np.maximum, y0[side] + v0 * y1[side] + v1 * y2[side])
                        for side in (slice(split), slice(split, None)))
        room = 1.0 - (v0 * v0 + v1 * v1)
        values = np.where(room > 0.0, outer * polar / room, np.inf)
        # chords v = start + tau span, tau in [0, 1], on which a and b stay the
        # largest of their sides: c + d tau >= 0 for each cut (0 for a and b)
        start0, start1 = -x1[:, a] / x0[:, a], -x2[:, a] / x0[:, a]
        span0, span1 = -x1[:, b] / x0[:, b] - start0, -x2[:, b] / x0[:, b] - start1
        gap0, gap1, gap2 = x[:, :, own] - x[:, :, None]
        c = gap0 + start0[..., None] * gap1 + start1[..., None] * gap2
        d = gap1 * span0[..., None] + gap2 * span1[..., None]
        bound = -c / d
    lo = _fold(np.maximum, np.where(d > 0.0, bound, 0.0))
    hi = _fold(np.minimum, np.where(d < 0.0, bound, 1.0))
    chord = np.where((lo <= hi) & _fold(np.logical_and, (d != 0.0) | (c >= 0.0)),
                     0.5 * (x0[:, a] * x0[:, b] - x1[:, a] * x1[:, b] - x2[:, a] * x2[:, b]),
                     np.inf)
    pair, best = np.argmin(chord, axis=-1), np.argmin(values, axis=-1)
    vertex = values[row, best] <= chord[row, pair]
    half = 0.5 * (lo[row, pair] + hi[row, pair])
    point0 = start0[row, pair] + half * span0[row, pair]
    point1 = start1[row, pair] + half * span1[row, pair]
    shrink = np.minimum(1.0, (1.0 - 1e-6) / np.maximum(np.hypot(point0, point1), 1e-300))
    return (np.where(vertex, values[row, best], chord[row, pair]),
            np.where(vertex[:, None], np.stack([v0[row, best], v1[row, best]], axis=-1),
                     np.stack([point0 * shrink, point1 * shrink], axis=-1)))


def _merge(cuts: np.ndarray, angles: np.ndarray, new: np.ndarray, new_angles: np.ndarray,
           v: np.ndarray, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """For each row and side, the new cuts and then the old ones, less each
    cut within ``spacing`` of one before it (angles mod pi), the
    CUTS_PER_SIDE largest at the row's point v kept; a side left with fewer
    repeats its largest.  The kept cuts are more than ``spacing`` apart, so
    an old cut only gives way to a new one (or to a cut it copies)."""
    cuts = np.concatenate([new, cuts], axis=-2)
    angles = np.concatenate([new_angles, angles], axis=-1)
    apart = np.abs((angles[..., :, None] - angles[..., None, :] + 0.5 * np.pi) % np.pi
                   - 0.5 * np.pi)
    near = np.tril(apart <= spacing, -1).any(axis=-1)
    values = np.where(near, -np.inf, _at(cuts, v[:, None, None]))
    top = np.argsort(-values, axis=-1, kind="stable")[..., :CUTS_PER_SIDE]
    top = np.where(np.take_along_axis(values, top, axis=-1) > -np.inf, top, top[..., :1])
    return np.take_along_axis(cuts, top[..., None], axis=-2), np.take_along_axis(angles, top, -1)


class _Minimum(NamedTuple):
    x: np.ndarray  # Klein coordinates of the best points evaluated, (R, 2)
    maxima: np.ndarray  # (A, B) there, (R, 2)
    lower: np.ndarray  # the largest cut-model minimum of each row's ratio
    start: np.ndarray  # (A, B) at the start, (R, 2)
    nfev: int  # body evaluations, summed over the rows
    rounds: int  # rounds of the stack, each evaluating the rows not yet converged

    @property
    def distances(self) -> np.ndarray:
        """The Banach-Mazur distance of each row, circumradius / inradius at x."""
        inner, outer = _radii(self.x, self.maxima).T
        return outer / inner


def minimize(forms: _BoundaryForms, start: np.ndarray) -> _Minimum:
    """Exchange-method minimum of the radii ratio of each row of ``forms``,
    from its Klein point in ``start`` (R, 2).

    Each round evaluates the body at v (``_BoundaryForms.evaluate``), keeps
    the best point so far as the upper end of the bracket, merges the cuts
    found at v into the model and moves v to the model's minimizer, whose
    value is a lower end.  A row stops once its ends agree to SEARCH_RTOL or
    after MAX_ROUNDS evaluations.
    """
    v = np.array(start, dtype=float)
    count = len(v)
    x, rows, nfev = v.copy(), np.arange(count), 0
    best, lower, maxima = np.full(count, np.inf), np.zeros(count), np.zeros((count, 2))
    cuts, angles = np.empty((count, 2, CUTS_PER_SIDE, 3)), np.empty((count, 2, CUTS_PER_SIDE))
    for rounds in range(MAX_ROUNDS):
        found, new, new_angles = forms.evaluate(v, rows)
        value = found[:, 0] * found[:, 1] / (1.0 - _fold(np.add, v[rows] * v[rows]))
        nfev += rows.size
        if not rounds:
            if not np.all(np.isfinite(value)):
                raise ValueError("the Banach-Mazur distance is not finite: the body's "
                                 "scale overflows or underflows")
            first = found
            cuts[:], angles[:] = new[:, :, :1], new_angles[:, :, :1]  # copies the merge drops
        better = value < best[rows]
        x[rows[better]], maxima[rows[better]], best[rows[better]] = \
            v[rows[better]], found[better], value[better]
        cuts[rows], angles[rows] = _merge(cuts[rows], angles[rows], new, new_angles, v[rows],
                                          forms.dt)
        model, v[rows] = _model_minimum(cuts[rows])
        lower[rows] = np.maximum(lower[rows], model)
        rows = rows[np.sqrt(best[rows]) - np.sqrt(lower[rows]) > SEARCH_RTOL * np.sqrt(best[rows])]
        if not rows.size:
            break
    return _Minimum(x=x, maxima=maxima, lower=np.sqrt(lower), start=first, nfev=nfev,
                    rounds=rounds + 1)


def _certificates(res: _Minimum) -> list[BMCertificate]:
    return [BMCertificate(distance=float(outer / inner), witness=family_map(*_family_params(x)),
                          inner_radius=float(inner), outer_radius=float(outer),
                          lower_bound=float(lower))
            for (inner, outer), x, lower in zip(_radii(res.x, res.maxima), res.x, res.lower)]


def sl2_normalize(h: SupportFn) -> tuple[SupportFn, np.ndarray]:
    """Perimeter-minimizing SL(2) image, rescaled to area pi.

    Returns the normalized body and the SL(2) witness, a 2x2 array (the area
    rescale is applied after the map and is not part of the witness).
    """
    v = _perimeter_minimum(_BoundaryForms(h.samples[None]))[0]
    witness = family_map(*_family_params(v))
    image = apply_linear_map(h, witness)
    image_area = area(image)
    if not 0.0 < image_area < np.inf:
        raise ValueError(f"the area of the SL(2) image is {image_area:.6g}, not positive and "
                         "finite: the body's scale overflows or underflows")
    return scaled(image, np.sqrt(np.pi / image_area)), witness


def sl2_searches(samples: np.ndarray) -> tuple[np.ndarray, _Minimum]:
    """The SL(2) quantities a flow trace row monitors, for each row of
    stacked origin-symmetric support samples (R, n): the (inradius,
    circumradius) of Phi K at the perimeter-minimal Phi (the witness of
    ``sl2_normalize``), read off the first evaluation of the Banach-Mazur
    search started there, as (R, 2), and that search's result, whose
    ``distances`` are the rows' Banach-Mazur distances to the disk."""
    forms = _BoundaryForms(samples)
    start = _perimeter_minimum(forms)
    res = minimize(forms, start)
    return _radii(start, res.start), res


def banach_mazur_to_disk(h: SupportFn) -> BMCertificate:
    """Banach-Mazur distance to the unit disk.

    For an origin-symmetric body this is the min over the family of the
    circumradius/inradius ratio of the image, both radii read off the
    sampled boundary and polar boundary of the body.  The certificate's
    ``lower_bound`` is within SEARCH_RTOL of the distance unless the search
    ran out of rounds.
    """
    return _certificates(sl2_searches(h.samples[None])[1])[0]


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
    q = affine_support(h)
    qmax, qmin = _parabola_peak(q, np.argmax(q)), _parabola_peak(q, np.argmin(q))
    if qmin <= 0.0:
        return float("inf")
    return float((qmax / qmin) ** 1.5)
