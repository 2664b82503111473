"""FFT calculus for 2*pi-periodic samples on a uniform grid.

An array of n real values is identified with the trigonometric interpolant
through the points theta_j = 2*pi*j/n.  Differentiation, resampling and
pointwise evaluation are exact for bandlimited data (all spectral mass
strictly below the Nyquist wavenumber n/2), and the
derivative of the Nyquist mode follows the usual convention: zeroed for odd
orders, kept with multiplier (-1)^(order/2) * k^order for even orders.
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
    "project_even",
]


def angles(n: int) -> np.ndarray:
    """Grid angles theta_j = 2*pi*j/n."""
    return (2.0 * np.pi / n) * np.arange(n)


def deriv(samples: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral derivative of the given order."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    f = np.fft.rfft(x)
    k = np.arange(n // 2 + 1, dtype=float)
    f *= (1j * k) ** order
    if order % 2:
        f[-1] = 0.0  # Nyquist mode of odd derivatives is ambiguous
    return np.fft.irfft(f, n)


def curvature_multiplier(n: int) -> np.ndarray:
    """The rfft multipliers 1 - k^2, k = 0..n//2, of h -> h + h'' on an n-point
    grid (Nyquist mode included, as in ``deriv`` of order 2)."""
    return 1.0 - np.arange(n // 2 + 1, dtype=float) ** 2


def fourier_coeffs(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real coefficients (a, b) of the interpolant, each of length n//2 + 1.

    The interpolant is ``a[0] + sum_k a[k] cos(k t) + b[k] sin(k t)``;
    ``b[0]`` and ``b[n//2]`` are identically zero.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    f = np.fft.rfft(x)
    a = 2.0 * f.real / n
    b = -2.0 * f.imag / n
    a[0] = f[0].real / n
    a[-1] = f[-1].real / n
    b[0] = 0.0
    b[-1] = 0.0
    return a, b


def from_coeffs(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Synthesize n grid samples from the n//2 + 1 real coefficients of each
    kind (inverse of fourier_coeffs)."""
    a = np.asarray(a, dtype=float)
    f = (n / 2.0) * (a - 1j * np.asarray(b, dtype=float))
    f[0] = n * a[0]
    f[-1] = n * a[-1]
    return np.fft.irfft(f, n)


def trig_eval(samples: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant at arbitrary angles: Horner's
    rule in z = exp(i theta) for the real part of sum_k (a_k - i b_k) z^k."""
    a, b = fourier_coeffs(samples)
    coef = a - 1j * b
    z = np.exp(1j * np.asarray(theta, dtype=float))
    out = np.full(z.shape, coef[-1])
    for c in coef[-2::-1]:
        out *= z
        out += c
    return out.real


def resample(samples: np.ndarray, m: int) -> np.ndarray:
    """Resample onto an m-point grid by zero-padding or truncating the spectrum."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if m == n:
        return x.copy()
    f = np.fft.rfft(x)
    if m > n:
        g = np.zeros(m // 2 + 1, dtype=complex)
        g[: n // 2 + 1] = f
        g[n // 2] = 0.5 * f[n // 2]  # source Nyquist becomes an interior cosine mode
    else:
        g = f[: m // 2 + 1].copy()
        g[-1] = 0.0
    return np.fft.irfft(g * (m / n), m)


def project_even(samples: np.ndarray) -> np.ndarray:
    """Project onto pi-periodic (origin-symmetric) functions: zero odd modes."""
    x = np.asarray(samples, dtype=float)
    f = np.fft.rfft(x)
    f[1::2] = 0.0
    return np.fft.irfft(f, x.size)

