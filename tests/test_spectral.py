import numpy as np
import pytest

from centroflow import spectral


def test_derivative_exact_on_modes():
    n = 64
    th = spectral.angles(n)
    f = 0.3 + np.cos(3 * th) - 2.0 * np.sin(7 * th)
    d1 = -3 * np.sin(3 * th) - 14.0 * np.cos(7 * th)
    d2 = -9 * np.cos(3 * th) + 98.0 * np.sin(7 * th)
    assert np.max(np.abs(spectral.deriv(f, 1) - d1)) < 1e-12
    assert np.max(np.abs(spectral.deriv(f, 2) - d2)) < 1e-11


def test_odd_derivative_kills_nyquist():
    n = 32
    th = spectral.angles(n)
    f = np.cos((n // 2) * th)
    assert np.max(np.abs(spectral.deriv(f, 1))) < 1e-13
    # the even derivative keeps it
    assert np.max(np.abs(spectral.deriv(f, 2) + (n // 2) ** 2 * f)) < 1e-10


def test_coeff_roundtrip():
    rng = np.random.default_rng(5)
    f = rng.normal(size=128)
    a, b = spectral.fourier_coeffs(f)
    back = spectral.from_coeffs(a, b, 128)
    assert np.max(np.abs(back - f)) < 1e-12


def test_trig_eval_matches_closed_form():
    n = 64
    th = spectral.angles(n)
    f = 1.0 + 0.2 * np.cos(2 * th) + 0.05 * np.sin(5 * th)
    pts = np.array([0.1, 1.7, 3.9, 6.0])
    want = 1.0 + 0.2 * np.cos(2 * pts) + 0.05 * np.sin(5 * pts)
    assert np.max(np.abs(spectral.trig_eval(f, pts) - want)) < 1e-13


@pytest.mark.parametrize("m", [128, 512])
def test_resample_bandlimited_exact(m):
    n = 256
    th = spectral.angles(n)
    f = 2.0 + np.cos(4 * th) - 0.3 * np.sin(9 * th)
    thm = spectral.angles(m)
    want = 2.0 + np.cos(4 * thm) - 0.3 * np.sin(9 * thm)
    assert np.max(np.abs(spectral.resample(f, m) - want)) < 1e-12


def test_project_even():
    n = 64
    th = spectral.angles(n)
    f = 1.0 + 0.3 * np.cos(2 * th) + 0.2 * np.cos(3 * th)
    g = spectral.project_even(f)
    assert np.max(np.abs(g - (1.0 + 0.3 * np.cos(2 * th)))) < 1e-13

