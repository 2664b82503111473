"""Support-function representation of planar convex bodies.

A body K is stored through n uniform samples of its support function
h(theta) = max_{x in K} <x, u(theta)>, u(theta) = (cos theta, sin theta).
Strict convexity is equivalent to positivity of the curvature function
S = h'' + h (the reciprocal curvature of the boundary as a function of the
outer normal angle), which is evaluated spectrally.  Bodies are immutable and
measure their own origin symmetry; every operation returns a new body.

Powers of the radial function rho, the polar side of the representation,
come from a change of variables to the normal angle (``radial_powers``):
an integral over the boundary parametrization, not a root solve.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import AsymmetricData, GridMismatch, NonConvex, NonPositive

__all__ = [
    "SupportFn",
    "LinearMap2",
    "require_symmetric",
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


@dataclass(frozen=True)
class SupportFn:
    """Validated support-function samples on the uniform angular grid.

    Construction enforces the body invariants: positive samples (origin
    interior) and positive spectral curvature h'' + h (strict convexity, with
    a roundoff floor of ``CONVEXITY_FLOOR * max h``).  ``symmetric`` is
    measured: it holds when antipodal samples agree to ``SYMMETRY_TOL * max h``.
    """

    samples: np.ndarray
    symmetric: bool = field(init=False)

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
        x.setflags(write=False)
        object.__setattr__(self, "samples", x)
        mismatch = np.abs(x[: x.size // 2] - x[x.size // 2:]).max()  # antipodal pairs
        object.__setattr__(self, "symmetric", bool(mismatch <= SYMMETRY_TOL * hmax))

    @property
    def n(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class LinearMap2:
    """Invertible 2x2 matrix [[a, b], [c, d]] acting on bodies."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if abs(self.det) <= 1e-12:
            raise ValueError(f"map is numerically singular (det={self.det:.3g})")

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)

    @classmethod
    def from_array(cls, m) -> "LinearMap2":
        m = np.asarray(m, dtype=float)
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    @classmethod
    def rotation(cls, phi: float) -> "LinearMap2":
        c, s = np.cos(phi), np.sin(phi)
        return cls(c, -s, s, c)

    @classmethod
    def diagonal(cls, sx: float, sy: float) -> "LinearMap2":
        return cls(sx, 0.0, 0.0, sy)

    def __matmul__(self, other: "LinearMap2") -> "LinearMap2":
        return LinearMap2.from_array(self.as_array() @ other.as_array())


def check_grid_size(n) -> None:
    """Raise ValueError unless ``n`` is an even integer from 16 to 65536.
    A grid size from outside passes here before anything of that size is
    allocated."""
    if (isinstance(n, bool) or not isinstance(n, numbers.Integral)
            or not 16 <= n <= 65536 or n % 2):
        raise ValueError("grid size n must be an even integer from 16 to 65536")


def require_symmetric(h: SupportFn, op: str) -> None:
    """Raise AsymmetricData unless ``h`` is origin-symmetric (the one guard)."""
    if not h.symmetric:
        raise AsymmetricData(f"{op} requires an origin-symmetric body; this one is not")


def curvature_samples(samples: np.ndarray) -> np.ndarray:
    """h + h'' of grid samples, computed spectrally (no positivity check)."""
    return samples + spectral.deriv(samples, 2)


def affine_support(samples: np.ndarray, factor: float = 1.0) -> np.ndarray:
    """The affine support function q = h S^(1/3) of the body dilated by
    ``factor`` (constant exactly on origin-centered ellipses)."""
    return factor * samples * np.cbrt(factor * curvature_samples(samples))


def area_quadrature(h: np.ndarray, s: np.ndarray) -> float:
    """(1/2) * integral of h * s d theta on the uniform grid: the area when s
    is the curvature h + h'' of the same samples, the mixed volume V(K, L)
    when h is the support of L and s the curvature of K."""
    return float(0.5 * (2.0 * np.pi / h.size) * np.dot(h, s))


def area(h: SupportFn) -> float:
    """Enclosed area, (1/2) * integral of h * (h'' + h) d theta."""
    return area_quadrature(h.samples, curvature_samples(h.samples))


def perimeter(h: SupportFn) -> float:
    """Boundary length, integral of h d theta."""
    return float((2.0 * np.pi / h.n) * np.sum(h.samples))


def scaled(h: SupportFn, factor: float) -> SupportFn:
    """Dilate by a positive factor about the origin."""
    if factor <= 0.0:
        raise ValueError("scale factor must be positive")
    return SupportFn(factor * h.samples)


MAP_OVERSAMPLE = 4  # output-grid refinement factor of apply_linear_map


def apply_linear_map(h: SupportFn, phi: LinearMap2) -> SupportFn:
    """Image body under an invertible linear map.

    Uses h_{Phi K}(u) = |Phi^T u| * h(angle(Phi^T u)), evaluated through the
    trigonometric interpolant on a ``MAP_OVERSAMPLE`` times finer output grid
    and spectrally truncated back to n samples to control aliasing from
    anisotropic maps.
    """
    n = h.n
    m = MAP_OVERSAMPLE * n
    th = spectral.angles(m)
    u = np.vstack([np.cos(th), np.sin(th)])
    w = phi.as_array().T @ u
    r = np.hypot(w[0], w[1])
    psi = np.arctan2(w[1], w[0])
    vals = r * spectral.trig_eval(h.samples, psi)
    out = spectral.resample(vals, n)
    if h.symmetric:
        out = spectral.project_even(out)
    return SupportFn(out)


RADIAL_OVERSAMPLE = 16  # t-grid refinement of the change of variables in radial_powers


def radial_powers(samples: np.ndarray, powers) -> np.ndarray:
    """Samples of rho^p on the body's n grid, one row per power p, each
    band-limited to the modes k < n/2.

    The boundary point with outer normal u(t) is x(t) = h u(t) + h' u_perp(t),
    at direction angle alpha(t) = t + atan2(h', h) with d alpha/dt = h S/|x|^2.
    Substituting phi = alpha(t) turns the Fourier coefficients of rho^p into

        (1/2 pi) int |x(t)|^p e^{-i k alpha(t)} h S/|x|^2 dt,

    an integrand that is smooth and periodic in t, so the trapezoid rule on a
    uniform ``RADIAL_OVERSAMPLE * n`` grid is spectrally accurate.  No root is
    solved and no branch is picked: this is an identity of the interpolant,
    whether or not it is convex between the nodes.  The sum over k runs by the
    recurrence e^{-i k alpha} = e^{-i alpha} e^{-i (k-1) alpha}, in O(n) memory.
    Modes at and above n/2 are dropped rather than folded back: the powers of
    rho of a mildly convex body decay slowly, and their aliased tail would
    spoil the areas computed from them.
    """
    n = samples.size
    m = RADIAL_OVERSAMPLE * n
    h = spectral.resample(samples, m)
    hp = spectral.deriv(h, 1)
    r2 = h * h + hp * hp
    weight = h * curvature_samples(h) / (m * r2)
    vals = (r2 ** (0.5 * np.asarray(powers, dtype=float)[:, None]) * weight).astype(complex)
    # e^{-i alpha} = e^{-i t} (h - i h') / |x|
    step = (h - 1j * hp) * np.exp(-1j * spectral.angles(m)) / np.sqrt(r2)
    coef = np.zeros((vals.shape[0], n // 2 + 1), dtype=complex)
    for k in range(n // 2):
        coef[:, k] = vals.sum(axis=1)
        vals *= step
    return np.fft.irfft(n * coef, n)


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
