import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centroflow import (
    BodySpec,
    FlowConfig,
    GridMismatch,
    LinearMap2,
    NonConvex,
    NonPositive,
    SupportFn,
    apply_linear_map,
    area,
    disk,
    ellipse,
    perimeter,
    scaled,
)
from centroflow.spectral import angles, fourier_coeffs, resample
from centroflow.support import (RADIAL_OVERSAMPLE, SYMMETRY_TOL, check_grid_size,
                                check_same_grid, curvature_samples, radial_powers)

import oracles

TH = angles(256)


class TestConstructor:
    def test_unit_disk(self):
        b = SupportFn(np.ones(64))
        s = curvature_samples(b.samples)
        assert np.allclose(s, 1.0, atol=1e-13)

    def test_valid_wobble(self):
        b = SupportFn(1 + 0.2 * np.cos(2 * TH))
        s = curvature_samples(b.samples)
        assert np.max(np.abs(s - (1 - 0.6 * np.cos(2 * TH)))) < 1e-11

    def test_nonconvex_rejected(self):
        with pytest.raises(NonConvex):
            SupportFn(1 + 0.5 * np.cos(2 * TH))

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositive):
            SupportFn(np.cos(TH) - 2.0)

    def test_symmetry_is_measured(self):
        assert not SupportFn(1 + 0.05 * np.cos(3 * TH)).symmetric
        base = 1 + 0.2 * np.cos(2 * TH)
        assert SupportFn(base).symmetric
        # an odd mode moves antipodal samples apart by twice its amplitude
        odd = SYMMETRY_TOL * np.max(base) * np.cos(3 * TH)
        assert SupportFn(base + 0.25 * odd).symmetric
        assert not SupportFn(base + 2.0 * odd).symmetric

    def test_small_or_odd_grid_rejected(self):
        with pytest.raises(ValueError):
            SupportFn(np.ones(8))
        with pytest.raises(ValueError):
            SupportFn(np.ones(17))
        with pytest.raises(ValueError):
            SupportFn(np.ones(65538))

    def test_one_grid_size_rule(self):
        for n in (16, 18, 65536, np.int64(64)):
            check_grid_size(n)
        for n in (14, 17, 65538, 2 ** 40, 64.0, True, None, "64"):
            with pytest.raises(ValueError):
                check_grid_size(n)
        # a size refused here never reaches an allocation
        with pytest.raises(ValueError):
            BodySpec(seed=0, n=2 ** 40)
        with pytest.raises(ValueError):
            FlowConfig(n=2 ** 40)

    def test_samples_immutable(self):
        b = disk(1.0, 64)
        with pytest.raises(ValueError):
            b.samples[0] = 2.0


class TestCurvature:
    def test_disk_radius(self):
        assert np.allclose(curvature_samples(disk(2.5, 64).samples), 2.5)

    def test_wobble_values(self):
        b = SupportFn(1 + 0.2 * np.cos(2 * TH))
        s = curvature_samples(b.samples)
        assert s[0] == pytest.approx(0.4, abs=1e-12)
        assert s[64] == pytest.approx(1.6, abs=1e-12)

    def test_ellipse_axis_curvature(self):
        s = curvature_samples(ellipse(2.0, 1.0, 0.0, 256).samples)
        # reciprocal curvature a^2 b^2 / h^3 = 1/2 at the major-axis normal
        assert s[0] == pytest.approx(0.5, abs=1e-10)


class TestAreaPerimeter:
    def test_disk_area(self):
        assert area(disk(2.0, 64)) == pytest.approx(4 * np.pi, rel=1e-14)

    def test_wobble_area(self):
        b = SupportFn(1 + 0.2 * np.cos(2 * TH))
        assert area(b) == pytest.approx(0.94 * np.pi, rel=1e-13)

    def test_ellipse_area(self):
        assert area(ellipse(2.0, 1.0)) == pytest.approx(2 * np.pi, rel=1e-12)

    def test_disk_perimeter(self):
        assert perimeter(disk(0.5, 64)) == pytest.approx(np.pi, rel=1e-14)

    def test_wobble_perimeter(self):
        b = SupportFn(1 + 0.2 * np.cos(2 * TH))
        assert perimeter(b) == pytest.approx(2 * np.pi, rel=1e-14)

    def test_ellipse_perimeter_vs_elliptic_integral(self):
        # oracle: complete elliptic integral, 9.688448220547675 for (2, 1)
        want = oracles.ellipse_perimeter(2.0, 1.0)
        assert want == pytest.approx(9.688448220547675, rel=1e-14)
        assert perimeter(ellipse(2.0, 1.0)) == pytest.approx(want, rel=1e-10)

    def test_parseval_area_identity(self):
        b = SupportFn(
            1 + 0.15 * np.cos(2 * TH) + 0.02 * np.sin(4 * TH)
            + 0.003 * np.cos(6 * TH))
        a, bb = fourier_coeffs(b.samples)
        k = np.arange(a.size)
        parseval = np.pi * a[0] ** 2 + (np.pi / 2) * np.sum(
            (1 - k[1:] ** 2) * (a[1:] ** 2 + bb[1:] ** 2))
        assert area(b) == pytest.approx(parseval, rel=1e-12)


class TestLinearMap:
    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            LinearMap2(1.0, 2.0, 0.5, 1.0)

    def test_scaling_on_disk(self):
        img = apply_linear_map(disk(1.0, 64), LinearMap2.diagonal(3.0, 3.0))
        assert np.max(np.abs(img.samples - 3.0)) < 1e-12

    def test_rotation_shifts_samples(self):
        b = SupportFn(1 + 0.2 * np.cos(2 * TH))
        img = apply_linear_map(b, LinearMap2.rotation(0.5))
        want = 1 + 0.2 * np.cos(2 * (TH - 0.5))
        assert np.max(np.abs(img.samples - want)) < 1e-12

    def test_diag_on_disk_gives_ellipse(self):
        img = apply_linear_map(disk(1.0, 256), LinearMap2.diagonal(2.0, 1.0))
        want = np.sqrt(4 * np.cos(TH) ** 2 + np.sin(TH) ** 2)
        assert np.max(np.abs(img.samples - want)) < 1e-12

    def test_symmetric_flag_preserved(self):
        b = ellipse(1.5, 1.0)
        img = apply_linear_map(b, LinearMap2(1.0, 0.3, -0.2, 1.1))
        assert img.symmetric
        half = img.n // 2
        assert np.max(np.abs(img.samples - np.roll(img.samples, half))) < 1e-13

    def test_sl2_image_area_vs_polygon_oracle(self):
        b = SupportFn(
            1 + 0.15 * np.cos(2 * TH) + 0.02 * np.sin(4 * TH)
            + 0.003 * np.cos(6 * TH))
        img = apply_linear_map(
            b, LinearMap2.diagonal(1.3, 1 / 1.3) @ LinearMap2.rotation(0.3))
        x, y = oracles.dense_boundary(img, 1 << 15)
        # the 2^15-gon misses the curve's area by about 1.4e-8 relative
        assert area(img) == pytest.approx(oracles.shoelace_area(x, y), rel=1e-7)
        assert area(img) == pytest.approx(area(b), rel=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.6, 1.6), st.floats(-0.3, 0.3), st.floats(0.7, 1.5),
           st.floats(0.0, np.pi))
    def test_group_action_and_determinant(self, d1, sh, d2, rot):
        # anisotropy kept inside the resolvable envelope: an ellipse-like
        # body's spectrum decays like exp(-k atanh(b/a)), so stacked
        # stretches must leave the intermediate body bandlimited at n
        b = ellipse(1.3, 0.9, 0.2, 256)
        phi = LinearMap2(d1, sh, 0.0, 1.0 / d1)
        psi = LinearMap2.rotation(rot) @ LinearMap2.diagonal(d2, 1.1)
        two_steps = apply_linear_map(apply_linear_map(b, phi), psi)
        one_step = apply_linear_map(b, psi @ phi)
        scalefree = np.max(np.abs(two_steps.samples - one_step.samples))
        assert scalefree < 1e-8 * np.max(one_step.samples)
        assert area(two_steps) == pytest.approx(
            abs((psi @ phi).det) * area(b), rel=1e-8)


class TestRadial:
    def test_matches_boundary_parametrization_oracle(self, wobble):
        rho = radial_powers(wobble.samples, [1])[0]
        want = oracles.radial_by_boundary(wobble, angles(wobble.n))
        assert np.max(np.abs(rho - want)) < 1e-8

    def test_powers_are_one_pass(self, wobble):
        rho3, inv = radial_powers(wobble.samples, [3, -1])
        rho = radial_powers(wobble.samples, [1])[0]
        assert np.max(np.abs(rho3 - rho ** 3)) < 1e-10
        assert np.max(np.abs(inv * rho - 1.0)) < 1e-10

    def test_interpolant_nonconvex_between_nodes(self):
        # this stability body is convex at its 128 nodes, but its interpolant
        # has h + h'' < 0 between some of them; the change of variables must
        # still land on the boundary: rho against 1 / (the polar support
        # max_t cos(t - phi) / h(t) on a 64x finer grid), taken on the
        # RADIAL_OVERSAMPLE grid and band-limited to the body's n grid
        from centroflow.lab import _stability_base
        body = _stability_base(4, 128)
        t = angles(64 * body.n)
        h = resample(body.samples, t.size)
        want = np.concatenate([
            1.0 / np.max(np.cos(t[None, :] - phi[:, None]) / h, axis=1)
            for phi in np.split(angles(RADIAL_OVERSAMPLE * body.n), 32)])
        got = radial_powers(body.samples, [1])[0]
        assert np.max(np.abs(got - resample(want, body.n))) < 1e-5


def test_boundary_curves_off_grid_match_coefficients():
    # an n=128 stability body with a sizeable Nyquist coefficient a_N: at the
    # grid midpoints, where sin(N t) = +-1, the boundary point
    # x(t) = h u + h' u_perp and the polar point u/h of the SL(2) search must
    # use h's own interpolant and its derivative, a_N cos(N t) included
    from centroflow.lab import _stability_base
    from centroflow.normalize import _BoundaryForms
    body = _stability_base(4, 128)
    n = body.n
    t = angles(n) + np.pi / n
    f = np.fft.rfft(body.samples) / n
    k = np.arange(n // 2 + 1)
    w = np.where((k == 0) | (k == n // 2), 1.0, 2.0)
    e = np.exp(1j * np.outer(t, k))
    h = (e * f * w).real.sum(axis=1)
    hp = (1j * k * e * f * w).real.sum(axis=1)
    boundary, polar = _BoundaryForms(body)._curves(t)[:, 0]
    assert n // 2 * abs(f[-1]) > 1e-3  # the Nyquist term is not negligible
    assert np.max(np.abs(boundary.real - (h * np.cos(t) - hp * np.sin(t)))) < 1e-12
    assert np.max(np.abs(boundary.imag - (h * np.sin(t) + hp * np.cos(t)))) < 1e-12
    assert np.max(np.abs(polar.real - np.cos(t) / h)) < 1e-12
    assert np.max(np.abs(polar.imag - np.sin(t) / h)) < 1e-12


def test_scaled():
    b = scaled(disk(1.0, 64), 2.0)
    assert area(b) == pytest.approx(4 * np.pi, rel=1e-13)
    with pytest.raises(ValueError):
        scaled(b, -1.0)


def test_grid_mismatch():
    with pytest.raises(GridMismatch):
        check_same_grid(disk(1.0, 64), disk(1.0, 128))
