import numpy as np
import pytest

from centroflow import spectral
from centroflow.ops import _abs_cos_multipliers
from centroflow.support import _node_multipliers

import oracles


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
    # one body, a stack of three and an odd length, whose top entry is an
    # ordinary complex mode rather than a real Nyquist one
    rng = np.random.default_rng(5)
    for shape in (128, (3, 128), 127, (3, 33)):
        f = rng.normal(size=shape)
        back = spectral.from_coeffs(spectral.fourier_coeffs(f), f.shape[-1])
        assert np.max(np.abs(back - f)) < 1e-12, shape


def test_tables_and_coefficients_keep_their_bytes():
    # 1 - k^2 now comes from curvature_multiplier and the coefficients are
    # one complex array; every byte equals the earlier spellings
    for m in range(2, 4098):
        assert _abs_cos_multipliers.__wrapped__(m).tobytes() == \
            oracles.abs_cos_multipliers(m).tobytes(), m
    for m in range(1, 4097):
        assert _node_multipliers.__wrapped__(m).tobytes() == \
            oracles.node_multipliers(m).tobytes(), m
    rng = np.random.default_rng(11)
    for n in range(16, 1025):
        for x in (rng.normal(size=n), rng.normal(size=(3, n))):
            a, b = oracles.fourier_pair(x)
            c = spectral.fourier_coeffs(x)
            assert c.tobytes() == (a - 1j * b).tobytes(), (n, x.shape)
            assert spectral.from_coeffs(c, n).tobytes() == \
                oracles.from_pair(a, b, n).tobytes(), (n, x.shape)


def test_trig_eval_matches_closed_form():
    n = 64
    th = spectral.angles(n)
    f = 1.0 + 0.2 * np.cos(2 * th) + 0.05 * np.sin(5 * th)
    pts = np.array([0.1, 1.7, 3.9, 6.0])
    want = 1.0 + 0.2 * np.cos(2 * pts) + 0.05 * np.sin(5 * pts)
    assert np.max(np.abs(spectral.trig_eval(f, pts) - want)) < 1e-13


@pytest.mark.parametrize("n", [16, 17])
def test_trig_eval_of_a_stack_gives_each_row_alone(n):
    # a (3, n) stack gives each row at every angle, bit for bit the row alone
    th = spectral.angles(n)
    rows = np.array([1.0 + 0.2 * np.cos(2 * th), 2.0 - 0.1 * np.sin(3 * th) + 0.3 * np.cos(6 * th),
                     np.exp(np.cos(th))])
    pts = np.array([[0.1, 1.7, 3.9], [6.0, 7.5, -2.2]])
    got = spectral.trig_eval(rows, pts)
    assert got.shape == (3, 2, 3)
    for row, want in zip(rows, got):
        assert want.tobytes() == spectral.trig_eval(row, pts).tobytes()


@pytest.mark.parametrize("m", [128, 256, 512, 19])
def test_resample_bandlimited_exact(m):
    # m = 19 is odd: its top mode, k = 9, is an ordinary mode and is kept
    n = 256
    th = spectral.angles(n)
    f = 2.0 + np.cos(4 * th) - 0.3 * np.sin(9 * th)
    thm = spectral.angles(m)
    want = 2.0 + np.cos(4 * thm) - 0.3 * np.sin(9 * thm)
    assert np.max(np.abs(spectral.resample(f, m) - want)) < 1e-12

