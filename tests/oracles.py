"""Independent reference computations used to pin expected values.

These deliberately avoid the spectral pipeline under test: polygon-based
moment integrals with exact per-triangle formulas, classical closed forms,
and spline interpolation of the boundary parametrization.
"""

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import ellipe


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
