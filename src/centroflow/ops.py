"""Affinely associated bodies and functionals.

Polar, centroid, projection and curvature-image bodies and the mixed
volume, all but ``polar_body`` row by row on a stack of bodies (R, n).
Projection bodies and mixed volumes read ``SupportFn.curvature``.

Every polar quantity comes from powers of the radial function rho, read
off the body's own n grid by a change of variables to the normal angle
(``support.radial_powers``): the polar body K* has support 1/rho, the
centroid body integrates rho^3, and the curvature image of the polar has
surface density proportional to rho^3.  ``polar_chain`` reads 1/rho and
rho^3 off one pass.  That pass sums only the even modes, over half the period
in the normal angle, from the body's even spectrum, on a grid sized by the
body's own stretch (2 to 16 times n/2 points); so every polar and centroid
sample is exactly origin-symmetric, antipodal samples equal.  The polar
body alone may leave the body's grid: when 1/rho, band-limited to the
modes below n/2, is not convex at the nodes, ``polar_body`` returns it on
the smallest finer grid 2^j n (j <= 3) on which it is.

The centroid and projection bodies integrate |<u, v>| against a density on
the circle.  That kernel has kinks, so a plain Riemann sum is only
second-order accurate; instead the integral is carried out exactly on the
trigonometric interpolant of the density, which makes it a diagonal
multiplier in Fourier space:

    integral |cos(psi - phi)| e^{i k psi} d psi
        = e^{i k phi} * 4 (-1)^(k/2) / (1 - k^2)     (k even)
        = 0                                          (k odd),

whose denominator is the curvature multiplier of h -> h + h''.
"""

from __future__ import annotations

import functools

import numpy as np

from . import spectral
from .errors import NonConvex, UnderResolved
from .support import (MAX_GRID, SupportFn, _one_body, area, area_quadrature, check_same_grid,
                      curvature_samples, radial_powers)

__all__ = [
    "polar_area",
    "polar_body",
    "centroid_body",
    "projection_body",
    "mixed_volume",
    "curvature_image",
    "polar_chain",
]


def polar_area(h: SupportFn):
    """Area of the polar body, (1/2) * integral of h^-2 d theta, a value a row."""
    return _polar_area(h.samples)


def _polar_area(samples: np.ndarray):
    return 0.5 * (2.0 * np.pi / samples.shape[-1]) * np.sum(samples ** -2, axis=-1)


POLAR_REFINEMENTS = 3  # polar_body tries the grids n, 2n, ..., 2^3 n


def polar_body(h: SupportFn) -> SupportFn:
    """Polar (dual) body K* = {x : <x, y> <= 1 for all y in K}, with support
    1/rho_K, on the smallest grid 2^j n, j <= ``POLAR_REFINEMENTS``, on which
    it is convex.  Band-limiting 1/rho to the modes below n/2 can make its
    curvature negative at nodes of a body that stretches far (sigma of
    ``radial_powers`` about 4 and up at n = 64); the body's interpolant on a
    finer grid keeps more of the polar's modes.  UnderResolved names the
    finest grid tried when none is."""
    _one_body(h)
    for j in range(POLAR_REFINEMENTS + 1):
        m = h.n << j
        if m > MAX_GRID:
            break
        try:
            return SupportFn(radial_powers(spectral.resample(h.samples, m), [-1])[0])
        except NonConvex as exc:
            failure, finest = exc, m
    raise UnderResolved(f"the polar is not convex on the grids {h.n} to {finest}; "
                        f"on {finest} points: {failure}")


# --- |cos| kernel as a Fourier multiplier -----------------------------------

@functools.lru_cache(maxsize=32)
def _abs_cos_multipliers(num_modes: int) -> np.ndarray:
    lam = np.zeros(num_modes)
    lam[::2] = 4.0 / spectral.curvature_multiplier(2 * num_modes - 2)[::2]
    lam[2::4] *= -1.0  # (-1)^(k/2)
    lam.setflags(write=False)
    return lam


def _abs_cos_transform(density: np.ndarray) -> np.ndarray:
    """Grid samples of integral |cos(psi - phi)| g(psi) d psi, exact for the
    interpolant of g.  Odd modes drop out, so the result is symmetric."""
    f = np.fft.rfft(density)
    f *= _abs_cos_multipliers(f.shape[-1])
    return np.fft.irfft(f, density.shape[-1])


def _centroid_support(rho3: np.ndarray, v_body) -> np.ndarray:
    """Centroid-body support from the samples of rho^3 and V = V(K), a row each."""
    return _abs_cos_transform(rho3) / (3.0 * np.asarray(v_body)[..., None])


def centroid_body(h: SupportFn) -> SupportFn:
    """Centroid body: support = (1/3V) * integral of |<u, v>| rho(v)^3 d v."""
    return SupportFn(_centroid_support(radial_powers(h.samples, [3])[0], area(h)))


def projection_body(h: SupportFn) -> SupportFn:
    """Projection body: support = (1/2) * integral of |<u, v>| S(v) d v.

    It equals the body rotated a quarter turn and doubled, which the
    multiplier reproduces exactly.
    """
    return SupportFn(0.5 * _abs_cos_transform(h.curvature))


def mixed_volume(h_k: SupportFn, h_l: SupportFn):
    """V(K, L) = (1/2) * integral of h_L dS_K, symmetric; a value a row of a stack."""
    check_same_grid(h_k, h_l)
    return area_quadrature(h_l.samples, h_k.curvature)


def _solve_curvature(f: np.ndarray) -> np.ndarray:
    """Samples of the solution of h'' + h = f: h_k = f_k / (1 - k^2), with
    the first harmonic (the translations) set to zero."""
    mult = spectral.curvature_multiplier(f.shape[-1])
    mult[1] = np.inf  # its reciprocal zeroes the first harmonic
    return np.fft.irfft(np.fft.rfft(f) * (1.0 / mult), f.shape[-1])


def curvature_image(h: SupportFn) -> SupportFn:
    """Curvature-image body: the body whose surface density is
    (V(K)/V(K*)) * h^-3."""
    ratio = np.asarray(area(h) / polar_area(h))[..., None]
    return SupportFn(_solve_curvature(ratio * h.samples ** -3))


def _identity_residual(polar: np.ndarray, v_star, gamma: np.ndarray):
    """Sup-norm residual of the identity relating the centroid body to the
    projection of the curvature image of the polar body,

        h_{Gamma K} = (2 / (3 V(K*))) * h_{Pi Lambda K*},

    for centroid-body samples ``gamma`` (from rho^3), the polar's support
    ``polar`` and V(K*).  The right-hand side comes from the ``polar`` row
    alone: Lambda K* has surface density (V(K*) / V(K**)) h_{K*}^-3 with
    V(K**) = (1/2) integral of h_{K*}^-2, and Pi of a body is half the |cos|
    transform of its surface density."""
    v_star = np.asarray(v_star)[..., None]
    pi_lam = 0.5 * (v_star / _polar_area(polar)[..., None]) * _abs_cos_transform(polar ** -3)
    return np.max(np.abs(gamma - (2.0 / (3.0 * v_star)) * pi_lam), axis=-1)


def _ratio_derivative(rho3: np.ndarray, v_star, v_body):
    """Time derivative of V(Gamma K)/V(K) along the flow, from rho^3, V(K*)
    and V(K), a row each: 32 (V(Lambda K*) - V(K*)) / (3 V(K)^2 V(K*)).

    The two areas of V(Lambda K*) - V(K*) come from different quadratures
    (the modes of rho^3 against the samples of h^-2), so nothing forces its
    sign to be that of the mixed-volume inequality.  Measured, V(Lambda K*)
    <= V(K*) holds with a relative margin of at least 2.8e-4 on the n=128
    stability base bodies of seeds 0-9 and the 20 bodies of the n=256 fuzz
    campaign with seed 1.
    """
    # Lambda K* has surface density (V(K*) / V(K**)) h_{K*}^-3, and V(K**) = V(K)
    lam = _solve_curvature((v_star / v_body)[..., None] * rho3)
    v_lambda_star = area_quadrature(lam, curvature_samples(lam))
    return 32.0 * (v_lambda_star - v_star) / (3.0 * v_body * v_body * v_star)


def polar_chain(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """The polar's support 1/rho, rho^3 and V(K*) of one origin-symmetric
    body (n,) or of a stack (R, n), from one pass of ``radial_powers`` on
    the body's n grid."""
    rho3, p = radial_powers(h, [3, -1])
    return p, rho3, _polar_area(h)
