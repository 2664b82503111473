"""Independent reference computations used to pin expected values.

These deliberately avoid the spectral pipeline under test: polygon-based
moment integrals with exact per-triangle formulas, classical closed forms,
and spline interpolation of the boundary parametrization.  The lab's
inequality functionals at the end are the exception: they pin bytes, not
values.
"""

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import ellipe

from centroflow.normalize import _LAYOUT, CUTS_PER_SIDE, _at
from centroflow.ops import _abs_cos_transform, polar_area
from centroflow.support import SupportFn, area_quadrature, check_same_grid, curvature_samples


def dense_boundary(body, m):
    """m > n points of the boundary X = h u + h' u_perp of the trigonometric
    interpolant of h, by zero-padded FFT; h' keeps the interpolant's Nyquist
    term, which becomes an interior cosine mode on the finer grid."""
    n = body.n
    f = np.zeros(m // 2 + 1, dtype=complex)
    f[: n // 2 + 1] = np.fft.rfft(body.samples) * (m / n)
    f[n // 2] *= 0.5
    h = np.fft.irfft(f, m)
    hp = np.fft.irfft(1j * np.arange(m // 2 + 1) * f, m)
    th = 2.0 * np.pi * np.arange(m) / m
    x = h * np.cos(th) - hp * np.sin(th)
    y = h * np.sin(th) + hp * np.cos(th)
    return x, y


def shoelace_area(x, y):
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def ellipse_perimeter(a, b):
    """4 a E(1 - b^2/a^2) with a >= b (complete elliptic integral)."""
    a, b = max(a, b), min(a, b)
    return 4.0 * a * ellipe(1.0 - (b / a) ** 2)


def centroid_support_polygon(body, u_angles, m=100_000):
    """Centroid-body support by exact moment integrals over a dense polygon.

    Each fan triangle (0, P, Q) contributes integral |<u, x>| dx in closed
    form; the half-plane <u, x> = 0 passes through the origin vertex, so a
    triangle splits at most once along PQ.
    """
    x, y = dense_boundary(body, m)
    px, py = x, y
    qx, qy = np.roll(x, -1), np.roll(y, -1)
    cross = px * qy - py * qx
    tri_area = 0.5 * cross  # positive for ccw orientation
    total_area = float(np.sum(tri_area))

    out = np.empty(len(u_angles))
    for i, ang in enumerate(np.atleast_1d(u_angles)):
        ux, uy = np.cos(ang), np.sin(ang)
        fp = px * ux + py * uy
        fq = qx * ux + qy * uy
        same = fp * fq >= 0.0
        contrib = np.where(
            same,
            np.abs(fp + fq),
            # split at f = 0 on PQ: weights t and 1 - t for the two parts
            (fp / (fp - fq)) * np.abs(fp) + (1 - fp / (fp - fq)) * np.abs(fq),
        )
        out[i] = float(np.sum(tri_area * contrib) / 3.0) / total_area
    return out if np.ndim(u_angles) else float(out[0])


def radial_by_boundary(body, u_angles, m=2048):
    """Radial function by periodic cubic-spline inversion of the boundary
    direction angle (independent of the polar-body route)."""
    x, y = dense_boundary(body, m)
    alpha = np.unwrap(np.arctan2(y, x))
    alpha -= 2.0 * np.pi * np.floor(alpha[0] / (2.0 * np.pi))
    r = np.hypot(x, y)
    alpha_ext = np.concatenate([alpha, [alpha[0] + 2.0 * np.pi]])
    r_ext = np.concatenate([r, [r[0]]])
    spline = CubicSpline(alpha_ext, r_ext, bc_type="periodic")
    query = np.mod(np.atleast_1d(u_angles) - alpha_ext[0], 2.0 * np.pi) + alpha_ext[0]
    vals = spline(query)
    return vals if np.ndim(u_angles) else float(vals[0])


def radial_powers_direct(samples, powers, oversample=64):
    """rho^p on the n grid of an origin-symmetric body, one row per power,
    band-limited to the even modes k < n/2: the change of variables to the
    normal angle t summed directly, each e^{-i k alpha} from alpha itself
    (no recurrence), on an ``oversample * n`` grid over the full period.
    There h, h' and h + h'' are synthesized from the zero-padded even
    spectrum of the samples, an even Nyquist mode at half weight."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    m = oversample * n
    k = np.arange(m // 2 + 1)
    f = np.zeros(m // 2 + 1, dtype=complex)
    f[: n // 2 + 1] = np.fft.rfft(x) * (m / n)
    f[1::2] = 0.0
    f[n // 2] *= 0.5
    h = np.fft.irfft(f, m)
    hp = np.fft.irfft(1j * k * f, m)
    s = np.fft.irfft((1.0 - k * k) * f, m)
    r2 = h * h + hp * hp
    alpha = 2.0 * np.pi * np.arange(m) / m + np.arctan2(hp, h)
    modes = np.arange(0, n // 2, 2)
    phase = np.exp(-1j * np.outer(modes, alpha))
    out = []
    for p in powers:
        coef = np.zeros(n // 2 + 1, dtype=complex)
        coef[modes] = phase @ (r2 ** (0.5 * p) * h * s / r2) / m
        out.append(np.fft.irfft(n * coef, n))
    return np.array(out)


def disk_flow_radius(t):
    """Exact radius of a unit disk evolving under dh/dt = -1/(h^2 S)."""
    return (1.0 - 4.0 * np.asarray(t)) ** 0.25


def grid_rk4_rows(samples, cfl, every, steps):
    """Times and support samples, every ``every`` steps and after the last of
    ``steps``, of dh/dt = -1/(h^2 S) by explicit RK4 on grid samples, numpy
    only: the initial samples and each stage speed are masked by FFT to the
    even modes up to n/3, each stage takes S = h + h'' by FFT, and a step has
    the size cfl * min(dtheta^2 min (h S)^2, min h^3 S)."""
    h = np.array(samples, dtype=float)
    n = h.size
    ksq = np.arange(n // 2 + 1) ** 2
    dth = 2.0 * np.pi / n

    def kept(x):
        f = np.fft.rfft(x)
        f[n // 3 + 1:] = 0.0
        f[1::2] = 0.0
        return np.fft.irfft(f, n)

    def curvature(x):
        return x - np.fft.irfft(ksq * np.fft.rfft(x), n)

    def speed(x):
        return kept(-1.0 / (x * x * curvature(x)))

    h = kept(h)
    t, times, rows = 0.0, [], []
    for step in range(steps + 1):
        if step % every == 0 or step == steps:
            times.append(t)
            rows.append(h.copy())
        if step == steps:
            break
        s = curvature(h)
        dt = cfl * min(dth * dth * np.min((h * s) ** 2), np.min(h ** 3 * s))
        k1 = speed(h)
        k2 = speed(h + 0.5 * dt * k1)
        k3 = speed(h + 0.5 * dt * k2)
        k4 = speed(h + dt * k3)
        h = h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return np.array(times), np.array(rows)


def polygon_radii(body, maps, m=4096):
    """(inradius, circumradius) of the images of the m-point boundary polygon
    under each 2x2 matrix of the stack ``maps``: the least distance from the
    origin to an edge line, and the largest vertex norm."""
    x, y = dense_boundary(body, m)
    img = np.asarray(maps) @ np.vstack([x, y])
    nxt = np.roll(img, -1, axis=-1)
    cross = np.abs(img[..., 0, :] * nxt[..., 1, :] - img[..., 1, :] * nxt[..., 0, :])
    edge = np.hypot(*np.moveaxis(nxt - img, -2, 0))
    return (cross / edge).min(axis=-1), np.hypot(*np.moveaxis(img, -2, 0)).max(axis=-1)


def polygon_perimeter(body, maps, m=4096):
    """Perimeters of the images of the m-point boundary polygon under each
    2x2 matrix A of the stack ``maps``: the sum over the edges e of
    |A e| = sqrt(e' A'A e)."""
    x, y = dense_boundary(body, m)
    dx, dy = np.roll(x, -1) - x, np.roll(y, -1) - y
    maps = np.asarray(maps)
    gram = np.swapaxes(maps, -1, -2) @ maps
    coef = np.stack([gram[..., 0, 0], 2.0 * gram[..., 0, 1], gram[..., 1, 1]], axis=-1)
    return np.sqrt(coef @ np.array([dx * dx, dx * dy, dy * dy])).sum(axis=-1)


def perimeter_minimum_mm(forms):
    """Klein coordinates (R, 2) of the least perimeter of each row of a
    search's boundary sampling ``forms``, by majorize-minimize steps from
    v = 0 until a step is below 1e-15.

    The perimeter is the integral of S |Phi z| dt over the tangents z, with
    |Phi z|^2 = (1, v) . r / sqrt(1 - |v|^2) for their cut rows r.  As sqrt
    is concave, at v0 it lies below a constant plus a positive multiple of
    (1, v) . a / sqrt(1 - |v|^2), a = sum S r / sqrt((1, v0) . r), which is
    least at v = -(a1, a2) / a0; the step never raises the perimeter and
    converges to its one minimum, linearly (24-40 steps on stability bases).
    """
    rows, curv = forms.tangent_rows, forms.curv
    v = np.zeros((len(curv), 2))
    active = np.arange(len(v))
    for _ in range(200):
        weight = curv / np.sqrt(rows[0] + v[active, :1] * rows[1] + v[active, 1:] * rows[2])
        a = np.sum(rows[:, None] * weight, axis=-1)
        step = -a[1:].T / a[0][:, None]
        moving = np.max(np.abs(step - v[active]), axis=-1) > 1e-15
        v[active] = step
        active, curv = active[moving], curv[moving]
        if not active.size:
            break
    return v


# The exchange search's cut-model minimum as it was written with NumPy
# reductions over the short trailing axes (the 2 to 8 cuts, the 2 entries of
# a point); normalize._model_minimum folds elementwise calls over the same
# slices instead and must give the same bits, NaN for NaN.
def model_minimum_reduced(cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    cuts = cuts.reshape(count, 2 * split, 3)
    i, k, (li, lk), a, b, own = _LAYOUT
    line, row = np.arange(i.size), np.arange(count)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = cuts[:, i] - cuts[:, k]  # g . (1, v) = 0 on the tie line
        norm2 = g[..., 1] * g[..., 1] + g[..., 2] * g[..., 2]
        p = g[..., 1:] * (-g[..., :1] / norm2[..., None])
        e = np.stack([-g[..., 2], g[..., 1]], axis=-1) / np.sqrt(norm2)[..., None]
        d0 = 1.0 - np.sum(p * p, axis=-1, keepdims=True)
        # every cut at p, and its slope along e, on every line
        at = _at(cuts[:, None], p[:, :, None])
        along = e[..., :1] * cuts[:, None, :, 1] + e[..., 1:] * cuts[:, None, :, 2]
        a0, a1 = at[:, line, i][..., None], along[:, line, i][..., None]
        n0, n1, n2 = a0 * at, a0 * along + a1 * at, a1 * along
        q = n0 + n2 * d0
        tau = np.where(n1 == 0.0, 0.0,
                       -n1 * d0 / (q + np.copysign(np.sqrt(q * q - n1 * n1 * d0), q)))
        det = g[:, li, 1] * g[:, lk, 2] - g[:, li, 2] * g[:, lk, 1]
        v = np.concatenate([(p[:, :, None] + tau[..., None] * e[:, :, None]).reshape(count, -1, 2),
                            np.stack([g[:, lk, 0] * g[:, li, 2] - g[:, li, 0] * g[:, lk, 2],
                                      g[:, li, 0] * g[:, lk, 1] - g[:, lk, 0] * g[:, li, 1]],
                                     axis=-1) / det[..., None]], axis=1)
        outer, polar = (_at(side[:, None], v[:, :, None]).max(axis=-1)
                        for side in (cuts[:, :split], cuts[:, split:]))
        room = 1.0 - np.sum(v * v, axis=-1)
        values = np.where(room > 0.0, outer * polar / room, np.inf)
        # chords v = start + tau span, tau in [0, 1], along which a and b
        # stay the largest of their sides while c + d tau >= 0 for each rival
        start = -cuts[:, a, 1:] / cuts[:, a, :1]
        span = -cuts[:, b, 1:] / cuts[:, b, :1] - start
        gap = cuts[:, own] - cuts[:, None]
        c = _at(gap, start[:, :, None])
        d = gap[..., 1] * span[..., :1] + gap[..., 2] * span[..., 1:]
        bound = -c / d
    lo = np.max(np.where(d > 0.0, bound, 0.0), axis=-1, initial=0.0)
    hi = np.min(np.where(d < 0.0, bound, 1.0), axis=-1, initial=1.0)
    ca, cb = cuts[:, a], cuts[:, b]
    chord = np.where((lo <= hi) & np.all((d != 0.0) | (c >= 0.0), axis=-1),
                     0.5 * (ca[..., 0] * cb[..., 0] - ca[..., 1] * cb[..., 1]
                            - ca[..., 2] * cb[..., 2]), np.inf)
    pair, best = np.argmin(chord, axis=-1), np.argmin(values, axis=-1)
    vertex = values[row, best] <= chord[row, pair]
    point = start[row, pair] + (0.5 * (lo[row, pair] + hi[row, pair]))[:, None] * span[row, pair]
    radius = np.hypot(point[:, 0], point[:, 1])
    point = point * np.minimum(1.0, (1.0 - 1e-6) / np.maximum(radius, 1e-300))[:, None]
    return (np.where(vertex, values[row, best], chord[row, pair]),
            np.where(vertex[:, None], v[row, best], point))


def family_grid(n_s=160, n_phi=160):
    """diag(s,1/s).R(phi) on a dense grid, s in [1, 4] and phi in [0, pi):
    one (n_phi, 2, 2) stack per s."""
    phi = np.linspace(0.0, np.pi, n_phi, endpoint=False)
    rot = np.moveaxis(np.array([[np.cos(phi), -np.sin(phi)],
                                [np.sin(phi), np.cos(phi)]]), -1, 0)
    return [np.diag([s, 1.0 / s]) @ rot for s in np.geomspace(1.0, 4.0, n_s)]


def brute_force_bm_to_disk(body, n_s=160, n_phi=160):
    """Dense-grid minimum of the polygon radii ratio over diag(s,1/s).R(phi)."""
    best = np.inf
    for maps in family_grid(n_s, n_phi):
        inner, outer = polygon_radii(body, maps)
        best = min(best, float(np.min(outer / inner)))
    return best


# --- reference forms of the lab's inequality functionals -------------------
# References that pin the bytes of ``lab.deficit_report`` and
# ``lab._mixed_volume_gaps``: the four expressions verbatim, over areas and a
# mixed volume that take the curvature from the samples by spectral.deriv
# rather than from the body.

def _area(h):
    return area_quadrature(h.samples, curvature_samples(h.samples))


def _mixed_volume(h_k, h_l):
    check_same_grid(h_k, h_l)
    return area_quadrature(h_l.samples, curvature_samples(h_k.samples))


def _projection_body(h):
    s = curvature_samples(h.samples)
    out = 0.5 * _abs_cos_transform(s)
    return SupportFn(out)


def santalo_product(h):
    """Volume product V(K) V(K*); at most pi^2, equality on ellipses."""
    return float(_area(h) * polar_area(h))


def petty_projection_product(h):
    """V(K) V((Pi K)*); at most (pi/2)^2, equality on ellipses."""
    pi_k = _projection_body(h)
    return float(_area(h) * polar_area(pi_k))


def groemer_gap(h_k, h_l):
    """Slack in the strengthened mixed-volume inequality.

    Returns [V(K,L)^2 / (V(K)V(L)) - 1] minus the support-difference term
    (V(K) / 4 D(K)^2) max |h_K / sqrt(V(K)) - h_L / sqrt(V(L))|^2, which is
    non-negative for origin-symmetric bodies.
    """
    check_same_grid(h_k, h_l)
    vk, vl = _area(h_k), _area(h_l)
    vkl = _mixed_volume(h_k, h_l)
    lhs = vkl * vkl / (vk * vl) - 1.0
    diam = 2.0 * float(np.max(h_k.samples))
    diff = h_k.samples / np.sqrt(vk) - h_l.samples / np.sqrt(vl)
    rhs = vk / (4.0 * diam * diam) * float(np.max(np.abs(diff)) ** 2)
    return float(lhs - rhs)


def minkowski_gap(h_k, h_l):
    """Slack in the mixed-volume inequality, (V(K,L)^2 - V(K)V(L)) / (V(K)V(L))."""
    vkl = _mixed_volume(h_k, h_l)
    vk_vl = _area(h_k) * _area(h_l)
    return (vkl * vkl - vk_vl) / vk_vl
