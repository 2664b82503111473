"""Support-function representation of planar convex bodies.

A body K is stored through n uniform samples of its support function
h(theta) = max_{x in K} <x, u(theta)>, u(theta) = (cos theta, sin theta).
Strict convexity is equivalent to positivity of the curvature function
S = h'' + h (the reciprocal curvature of the boundary as a function of the
outer normal angle), evaluated spectrally and kept on the body.  Bodies are
immutable and origin-symmetric, h(theta + pi) = h(theta); every operation
returns a new body.

Powers of the radial function rho, the polar side of the representation,
come from a change of variables to the normal angle (``radial_powers``):
an integral over the boundary parametrization, not a root solve.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import AsymmetricData, GridMismatch, NonConvex, NonPositive

__all__ = [
    "SupportFn",
    "curvature_samples",
    "area_quadrature",
    "area",
    "perimeter",
    "apply_linear_map",
    "radial_powers",
    "scaled",
    "disk",
    "ellipse",
    "CONVEXITY_FLOOR",
    "SYMMETRY_TOL",
]

# relative floors: strict positivity with roundoff headroom
CONVEXITY_FLOOR = 1e-10
SYMMETRY_TOL = 1e-12
MAX_GRID = 65536  # largest grid size n


@dataclass(frozen=True)
class SupportFn:
    """Validated support-function samples on the uniform angular grid.

    Construction enforces the body invariants: positive samples (origin
    interior), positive spectral curvature h'' + h (strict convexity, with
    a roundoff floor of ``CONVEXITY_FLOOR * max h``) and origin symmetry
    (antipodal samples agree to ``SYMMETRY_TOL * max h``, else AsymmetricData).
    """

    samples: np.ndarray
    curvature: np.ndarray = field(init=False, repr=False, compare=False)  # the S checked, read-only

    def __post_init__(self):
        x = np.array(self.samples, dtype=float)
        if x.ndim != 1:
            raise ValueError("support samples must be a 1-D sequence")
        check_grid_size(x.size)
        if not np.all(np.isfinite(x)):
            raise ValueError("support samples must be finite")
        hmax = float(np.max(x))
        if np.min(x) <= 0.0:
            raise NonPositive(f"min support sample {np.min(x):.6g} <= 0")
        curv = curvature_samples(x)
        if not np.min(curv) > -CONVEXITY_FLOOR * hmax:  # NaN when the scale overflows
            raise NonConvex(
                f"min curvature {np.min(curv):.6g} at grid node "
                f"{int(np.argmin(curv))}"
            )
        mismatch = np.abs(x[: x.size // 2] - x[x.size // 2:]).max()  # antipodal pairs
        if mismatch > SYMMETRY_TOL * hmax:
            raise AsymmetricData(f"not origin-symmetric: antipodal samples differ by "
                                 f"{mismatch:.6g}, more than {SYMMETRY_TOL:g} * max h")
        x.setflags(write=False)
        curv.setflags(write=False)
        object.__setattr__(self, "samples", x)
        object.__setattr__(self, "curvature", curv)

    @property
    def n(self) -> int:
        return self.samples.size


def check_grid_size(n) -> None:
    """Raise ValueError unless ``n`` is an even integer from 16 to ``MAX_GRID``.
    A grid size from outside passes here before anything of that size is
    allocated."""
    if (isinstance(n, bool) or not isinstance(n, numbers.Integral)
            or not 16 <= n <= MAX_GRID or n % 2):
        raise ValueError(f"grid size n must be an even integer from 16 to {MAX_GRID}")


def curvature_samples(samples: np.ndarray) -> np.ndarray:
    """h + h'' of grid samples, computed spectrally (no positivity check)."""
    return samples + spectral.deriv(samples, 2)


def affine_support(h: SupportFn, factor: float = 1.0) -> np.ndarray:
    """The affine support function q = h S^(1/3) of the body dilated by
    ``factor`` (constant exactly on origin-centered ellipses)."""
    return factor * h.samples * np.cbrt(factor * h.curvature)


def area_quadrature(h: np.ndarray, s: np.ndarray):
    """(1/2) * integral of h * s d theta on the uniform grid: the area when s
    is the curvature h + h'' of the same samples, the mixed volume V(K, L)
    when h is the support of L and s the curvature of K.  Stacked samples
    (R, n) give an array of R values, each from its own row's dot product."""
    if h.ndim > 1:
        return np.array([area_quadrature(a, b) for a, b in zip(h, s)])
    return float(0.5 * (2.0 * np.pi / h.size) * np.dot(h, s))


def area(h: SupportFn) -> float:
    """Enclosed area, (1/2) * integral of h * (h'' + h) d theta."""
    return area_quadrature(h.samples, h.curvature)


def perimeter(h: SupportFn) -> float:
    """Boundary length, integral of h d theta."""
    return float((2.0 * np.pi / h.n) * np.sum(h.samples))


def scaled(h: SupportFn, factor: float) -> SupportFn:
    """Dilate by a positive factor about the origin."""
    if factor <= 0.0:
        raise ValueError("scale factor must be positive")
    return SupportFn(factor * h.samples)


MAP_OVERSAMPLE = 4  # output-grid refinement factor of apply_linear_map


def apply_linear_map(h: SupportFn, phi) -> SupportFn:
    """Image body under an invertible linear map ``phi``, a 2x2 array-like;
    ValueError unless it is a finite (2, 2) matrix with |det| > 1e-12.

    Uses h_{Phi K}(u) = |Phi^T u| * h(angle(Phi^T u)) on ``MAP_OVERSAMPLE`` n/2
    angles of the half period, through the interpolant of h's fold, truncated
    to its n/2 nodes to control aliasing from anisotropic maps and tiled, so
    antipodal output samples are equal.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (2, 2) or not np.isfinite(phi).all():
        raise ValueError("map must be a finite 2x2 matrix")
    if abs(phi[0, 0] * phi[1, 1] - phi[0, 1] * phi[1, 0]) <= 1e-12:
        raise ValueError(f"map is numerically singular (det={np.linalg.det(phi):.3g})")
    half = h.n // 2
    m = MAP_OVERSAMPLE * half
    th = spectral.angles(2 * m)[:m]
    w = phi.T @ np.vstack([np.cos(th), np.sin(th)])
    vals = np.hypot(*w) * spectral.trig_eval(_folded(h.samples), 2.0 * np.arctan2(w[1], w[0]))
    return SupportFn(np.tile(spectral.resample(vals, half), 2))


def _folded(samples: np.ndarray) -> np.ndarray:
    """0.5 (h(t) + h(t + pi)) on the n/2 nodes of [0, pi): the even modes of h, in s = 2t."""
    half = samples.shape[-1] // 2
    return 0.5 * (samples[..., :half] + samples[..., half:])


RADIAL_OVERSAMPLE = 16  # cap of the t-grid refinement q of radial_powers
MODE_BLOCK = 4  # even modes radial_powers sums in one matrix product
_STRETCH_EDGES = 2.0 ** np.arange(1, RADIAL_OVERSAMPLE.bit_length() - 1)  # 2, 4, 8: q's steps


def radial_powers(samples: np.ndarray, powers) -> np.ndarray:
    """Samples of rho^p on the body's n grid, one row (..., n) per power p
    for samples (..., n), each band-limited to the even modes k < n/2, so
    antipodal output samples are equal.

    The boundary point with outer normal u(t) is x(t) = h u(t) + h' u_perp(t),
    at direction angle alpha(t) = t + atan2(h', h) with d alpha/dt = h S/|x|^2.
    Substituting phi = alpha(t) turns the Fourier coefficients of rho^p into

        (1/2 pi) int |x(t)|^p e^{-i k alpha(t)} h S/|x|^2 dt,

    an integrand that is smooth and periodic in t, so the trapezoid rule is
    spectrally accurate.  The body is origin-symmetric, x(t + pi) = -x(t), so
    odd k integrate to zero and even k to twice the integral over [0, pi).
    The integrand's bandwidth grows with the stretch sigma = max d alpha/dt,
    which is 1 on a disk and free of scale; it is read off the n/2 nodes of
    that half period.  Each body sums on q n/2 points of it, q the least
    power of two at or above 2 sigma, capped at ``RADIAL_OVERSAMPLE`` (1.5
    sigma leaves errors of 6e-11 on bodies near the disk).  A stack groups
    its rows by q, so each row gives what it gives alone.  There h, h' and
    S come from the even spectrum (``_half_period_curves``).  No root is
    solved and no branch is picked: this is an identity of the interpolant,
    whether or not it is convex between the nodes.  The sum
    over even k takes ``MODE_BLOCK`` modes at a time, one matrix product
    against the powers e^{-2i j alpha}, j < ``MODE_BLOCK``, then steps on by
    the recurrence e^{-i k alpha} = e^{-2i MODE_BLOCK alpha} e^{-i (k - 2
    MODE_BLOCK) alpha}, in O(n) memory a body.  Modes at and above n/2 are
    dropped rather than folded back: the powers of rho of a mildly convex
    body decay slowly, and their aliased tail would spoil the areas
    computed from them.
    """
    half = samples.shape[-1] // 2
    fold = _folded(samples).reshape(-1, half)
    f = np.fft.rfft(fold)
    _, hp, s = _half_period_curves(f, half, half)
    sigma = (fold * s / (fold * fold + hp * hp)).max(axis=1)
    # q = 2, 4, 8 or 16, the least power of two at or above 2 sigma; NaN takes the cap
    grids = [2 << i for i in np.searchsorted(_STRETCH_EDGES, 2.0 * sigma).tolist()]
    p_halves = 0.5 * np.asarray(powers, dtype=float)
    out = np.empty((p_halves.size, len(grids), half))
    for q in set(grids):
        rows = [i for i, g in enumerate(grids) if g == q]
        out[:, rows] = _radial_sums(f[rows], half, q * half, p_halves)
    return np.tile(out.reshape(p_halves.shape + samples.shape[:-1] + (half,)), 2)


@functools.lru_cache(maxsize=32)
def _node_multipliers(m: int) -> np.ndarray:
    """rfft multipliers of d/dt and 1 + d^2/dt^2 on m points of the half
    period (s = 2t, so mode j is k = 2j), a (2, m//2 + 1) array."""
    mult = np.array([2j * np.arange(m // 2 + 1), spectral.curvature_multiplier(2 * m)[::2]])
    mult.setflags(write=False)
    return mult


@functools.lru_cache(maxsize=32)
def _half_turn_phase(m: int) -> np.ndarray:
    """e^{-2it} = e^{-is} on the m points of the half period, read-only."""
    phase = np.exp(-1j * spectral.angles(m))
    phase.setflags(write=False)
    return phase


def _half_period_curves(f: np.ndarray, half: int, m: int):
    """h, dh/dt and S = h + h'' (R, m) on m >= half points of [0, pi) from the spectra
    f of R folds, zero-padded (derivatives of fine samples amplify roundoff by k^2)."""
    g = spectral._padded_spectrum(f, half, m)
    hp, s = np.fft.irfft(g[:, None] * _node_multipliers(m), m).swapaxes(0, 1)
    return np.fft.irfft(g, m), hp, s


def _radial_sums(f: np.ndarray, half: int, m: int, p_halves: np.ndarray) -> np.ndarray:
    """The sums of ``radial_powers`` on m points of the half period for the
    spectra f (R, half//2 + 1) of R folded bodies, rho^(2 p/2) for each p/2
    in ``p_halves``: an array (P, R, half) on the half period's nodes."""
    h, hp, s = _half_period_curves(f, half, m)
    r2 = h * h + hp * hp
    weight = h * s / (m * r2)
    step = h + 0j  # e^{-2i alpha} = e^{-2i t} (h - i h')^2 / |x|^2, built in place
    step.imag = -hp
    step *= step
    step *= _half_turn_phase(m)
    step /= r2
    del h, hp, s
    vals = (r2 ** p_halves[:, None, None] * weight).astype(complex)[..., None]  # (P, R, m, 1)
    modes = (half + 1) // 2  # the even k = 2j < n/2
    block = min(MODE_BLOCK, modes)
    powers = np.empty((len(f), block, m), dtype=complex)  # step^0 .. step^(block - 1)
    powers[:, 0] = 1.0
    powers[:, 1:] = step[:, None]
    np.cumprod(powers, axis=1, out=powers)
    jump = (powers[:, -1] * step)[..., None]  # step^block
    coef = np.zeros((p_halves.size, len(f), half // 2 + 1), dtype=complex)
    for j in range(0, modes, block):
        top = min(j + block, modes)
        coef[..., j:top] = np.matmul(powers, vals)[..., : top - j, 0]
        vals *= jump
    return np.fft.irfft(half * coef, half)


def disk(radius: float = 1.0, n: int = 256) -> SupportFn:
    """Origin-centered disk."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    return SupportFn(np.full(n, float(radius)))


def ellipse(a: float, b: float, angle: float = 0.0, n: int = 256) -> SupportFn:
    """Origin-centered ellipse with semi-axes a, b, major axis at ``angle``."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("semi-axes must be positive")
    th = spectral.angles(n) - angle
    hs = np.sqrt((a * np.cos(th)) ** 2 + (b * np.sin(th)) ** 2)
    return SupportFn(hs)


def check_same_grid(*bodies) -> int:
    """Common grid size of the arguments, or GridMismatch."""
    ns = {b.n for b in bodies}
    if len(ns) != 1:
        raise GridMismatch(f"mixed grid sizes {sorted(ns)}")
    return ns.pop()
