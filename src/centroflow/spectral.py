"""FFT calculus for 2*pi-periodic samples on a uniform grid.

An array of n real values is identified with the trigonometric interpolant
through the points theta_j = 2*pi*j/n; a stack (..., n) is one interpolant a
row, and every function acts on the last axis.  Differentiation, resampling and
pointwise evaluation are exact for bandlimited data (all spectral mass
strictly below the Nyquist wavenumber n/2), and the
derivative of the Nyquist mode follows the usual convention: zeroed for odd
orders, kept with multiplier (-1)^(order/2) * k^order for even orders.  An
odd n has no Nyquist mode: its top entry k = n//2 is an ordinary complex one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "angles",
    "deriv",
    "curvature_multiplier",
    "fourier_coeffs",
    "from_coeffs",
    "trig_eval",
    "resample",
]


def angles(n: int) -> np.ndarray:
    """Grid angles theta_j = 2*pi*j/n."""
    return (2.0 * np.pi / n) * np.arange(n)


def deriv(samples: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral derivative of the given order."""
    x = np.asarray(samples, dtype=float)
    n = x.shape[-1]
    f = np.fft.rfft(x)
    k = np.arange(n // 2 + 1, dtype=float)
    f *= (1j * k) ** order
    if order % 2:
        f[..., -1] = 0.0  # Nyquist mode of odd derivatives is ambiguous
    return np.fft.irfft(f, n)


def curvature_multiplier(n: int) -> np.ndarray:
    """The rfft multipliers 1 - k^2, k = 0..n//2, of h -> h + h'' on an n-point
    grid (Nyquist mode included, as in ``deriv`` of order 2)."""
    return 1.0 - np.arange(n // 2 + 1, dtype=float) ** 2


def fourier_coeffs(samples: np.ndarray) -> np.ndarray:
    """Complex coefficients c_k = a_k - i b_k, k = 0..n//2, of the interpolant
    ``a_0 + sum_k a_k cos(k t) + b_k sin(k t)``, the real part of
    ``sum_k c_k exp(i k t)``: 2 rfft / n, with the constant and (n even)
    Nyquist entries taken real over n."""
    x = np.asarray(samples, dtype=float)
    n = x.shape[-1]
    f = np.fft.rfft(x)
    # scaled as floats, part by part: a complex division by n rounds differently
    c = (2.0 * f.view(float) / n).view(complex)
    c[..., 0] = f[..., 0].real / n
    if n % 2 == 0:
        c[..., -1] = f[..., -1].real / n
    return c


def from_coeffs(c: np.ndarray, n: int) -> np.ndarray:
    """Synthesize n grid samples from the coefficients c (..., n//2 + 1), inverting
    fourier_coeffs; the constant and (n even) Nyquist entries are read real."""
    f = (n / 2.0) * np.asarray(c)
    f[..., 0] = 2.0 * f[..., 0].real
    if n % 2 == 0:
        f[..., -1] = 2.0 * f[..., -1].real
    return np.fft.irfft(f, n)


def trig_eval(samples: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant at arbitrary angles: Horner's
    rule in z = exp(i theta) for the real part of sum_k c_k z^k.  A stack
    (..., n) gives each row at every angle, an array (...,) + theta.shape."""
    z = np.exp(1j * np.asarray(theta, dtype=float))
    coef = np.expand_dims(fourier_coeffs(samples), tuple(range(-1 - z.ndim, -1)))
    out = np.full(coef.shape[:-z.ndim - 1] + z.shape, coef[..., -1])
    for k in range(coef.shape[-1] - 2, -1, -1):
        out *= z
        out += coef[..., k]
    return out.real


def resample(samples: np.ndarray, m: int) -> np.ndarray:
    """Resample onto an m-point grid by zero-padding or truncating the spectrum."""
    x = np.asarray(samples, dtype=float)
    n = x.shape[-1]
    if m == n:
        return x.copy()
    if m > n:
        return np.fft.irfft(_padded_spectrum(np.fft.rfft(x), n, m), m)
    # the modes k < m/2; irfft pads an even m's Nyquist entry with zero
    return np.fft.irfft(np.fft.rfft(x)[..., : (m + 1) // 2] * (m / n), m)


def _padded_spectrum(f: np.ndarray, n: int, m: int) -> np.ndarray:
    """The rfft of the m-point resample of n samples whose rfft is f
    (..., n//2 + 1), m >= n: the spectrum zero-padded and scaled by m/n; for
    m > n an even n's Nyquist mode becomes an interior cosine at half weight."""
    g = np.zeros(f.shape[:-1] + (m // 2 + 1,), dtype=complex)
    g[..., : f.shape[-1]] = f * (m / n)
    if n % 2 == 0 and m > n:
        g[..., n // 2] *= 0.5
    return g

