import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centroflow import (
    AsymmetricData,
    BodySpec,
    GridMismatch,
    NonConvex,
    NonPositive,
    SupportFn,
    apply_linear_map,
    area,
    banach_mazur_to_disk,
    disk,
    ellipse,
    flow_run,
    perimeter,
    pinching_to_bm_bound,
    scaled,
    sl2_normalize,
)
from centroflow.normalize import family_map
from centroflow import bodyio, ops, support
from centroflow.spectral import angles, fourier_coeffs, resample
from centroflow.support import (RADIAL_OVERSAMPLE, SYMMETRY_TOL, check_grid_size,
                                check_same_grid, curvature_samples, radial_powers)

from conftest import off_node_nonconvex_body
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
        with pytest.raises(ValueError, match="radius must be positive"):
            disk(0.0, 64)
        with pytest.raises(ValueError, match="semi-axes must be positive"):
            ellipse(1.0, -1.0)

    def test_symmetry_is_measured(self):
        base = 1 + 0.2 * np.cos(2 * TH)
        # an odd mode moves antipodal samples apart by twice its amplitude
        odd = SYMMETRY_TOL * np.max(base) * np.cos(3 * TH)
        SupportFn(base + 0.25 * odd)
        with pytest.raises(AsymmetricData):
            SupportFn(base + 2.0 * odd)

    @pytest.mark.parametrize("bad, error", [
        (np.cos(TH) - 2.0, NonPositive),
        (1 + 0.5 * np.cos(2 * TH), NonConvex),
        (1 + 0.2 * np.cos(2 * TH) + 1e-9 * np.cos(3 * TH), AsymmetricData),
    ])
    def test_row_check_names_the_failing_row(self, bad, error):
        # a stack fails on the body check of its one bad row, and says which
        good = 1 + 0.2 * np.cos(2 * TH)
        with pytest.raises(error) as alone:
            SupportFn(bad)
        with pytest.raises(error) as stacked:
            support._checked_curvature(np.array([good, bad, good]))
        assert str(stacked.value) == f"row 1: {alone.value}"
        rows = np.array([good, ellipse(2.0, 1.0, 0.3, 256).samples])
        for row, curv in zip(rows, support._checked_curvature(rows)):
            assert curv.tobytes() == SupportFn(row).curvature.tobytes()

    def test_small_or_odd_grid_rejected(self):
        with pytest.raises(ValueError):
            SupportFn(np.ones(8))
        with pytest.raises(ValueError):
            SupportFn(np.ones(17))
        with pytest.raises(ValueError):
            SupportFn(np.ones(65538))
        with pytest.raises(ValueError, match="1-D"):
            SupportFn(np.ones((2, 2, 64)))
        with pytest.raises(ValueError, match="1-D"):
            SupportFn(np.ones((0, 64)))

    @pytest.mark.parametrize("fn", [
        ops.polar_body, sl2_normalize, banach_mazur_to_disk, pinching_to_bm_bound, flow_run,
        bodyio.body_to_dict, lambda h: bodyio.save_body(h, "never-written.json")])
    def test_one_body_functions_refuse_a_stack(self, fn, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        stack = SupportFn([disk(1.0, 64).samples, ellipse(2.0, 1.0, 0.3, 64).samples])
        with pytest.raises(ValueError, match=r"one body \(n,\), got a stack of shape \(2, 64\)"):
            fn(stack)
        assert list(tmp_path.iterdir()) == []

    def test_one_grid_size_rule(self):
        for n in (16, 18, 65536, np.int64(64)):
            check_grid_size(n)
        for n in (14, 17, 65538, 2 ** 40, 64.0, True, None, "64"):
            with pytest.raises(ValueError):
                check_grid_size(n)
        # a size refused here never reaches an allocation
        with pytest.raises(ValueError):
            BodySpec(seed=0, n=2 ** 40)

    def test_samples_immutable(self):
        b = disk(1.0, 64)
        with pytest.raises(ValueError):
            b.samples[0] = 2.0

    def test_curvature_is_kept_and_immutable(self):
        for b in (disk(1.0, 64), SupportFn(1 + 0.2 * np.cos(2 * TH)), ellipse(2.0, 1.0, 0.3, 128)):
            assert b.curvature.tobytes() == curvature_samples(b.samples).tobytes()
            with pytest.raises(ValueError):
                b.curvature[0] = 2.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                b.curvature = b.samples
        with pytest.raises(TypeError):
            SupportFn(np.ones(64), curvature=np.ones(64))  # not a constructor argument


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
        c = fourier_coeffs(b.samples)
        k = np.arange(c.size)
        parseval = np.pi * c[0].real ** 2 + (np.pi / 2) * np.sum(
            (1 - k[1:] ** 2) * np.abs(c[1:]) ** 2)
        assert area(b) == pytest.approx(parseval, rel=1e-12)


class TestLinearMap:
    @pytest.mark.parametrize("phi", [
        [[1.0, 2.0], [0.5, 1.0]],
        [[1.0, np.nan], [0.0, 1.0]],
        np.eye(3),
    ], ids=["singular", "nan-entry", "3x3"])
    def test_singular_rejected(self, phi):
        with pytest.raises(ValueError):
            apply_linear_map(disk(1.0, 64), phi)

    def test_scaling_on_disk(self):
        for n in (64, 66, 130):
            img = apply_linear_map(disk(1.0, n), np.diag([3.0, 3.0]))
            assert np.max(np.abs(img.samples - 3.0)) < 1e-12, n

    def test_rotation_shifts_samples(self):
        b = SupportFn(1 + 0.2 * np.cos(2 * TH))
        img = apply_linear_map(b, family_map(1.0, 0.5))
        want = 1 + 0.2 * np.cos(2 * (TH - 0.5))
        assert np.max(np.abs(img.samples - want)) < 1e-12
        # n = 2 mod 4: the fold's top mode k = n/2 - 1 is an ordinary complex
        # mode, kept by the evaluation and the truncation (a sine there is
        # lost, 1e-5 off, if the top entry is read as a real Nyquist one)
        for n in (66, 130):
            th, k = angles(n), n // 2 - 1
            b = SupportFn(1 + 0.2 * np.cos(2 * th) + 1e-5 * np.sin(k * th))
            img = apply_linear_map(b, family_map(1.0, 0.5))
            want = 1 + 0.2 * np.cos(2 * (th - 0.5)) + 1e-5 * np.sin(k * (th - 0.5))
            assert np.max(np.abs(img.samples - want)) < 1e-12, n

    def test_diag_on_disk_gives_ellipse(self):
        # at n = 66 the 2:1 ellipse is truncated at k = 32: its spectrum
        # decays like exp(-k atanh(1/2)), and the samples read 7.7e-11 off
        for n, bound in ((256, 1e-12), (66, 1e-9), (130, 1e-12)):
            th = angles(n)
            img = apply_linear_map(disk(1.0, n), np.diag([2.0, 1.0]))
            want = np.sqrt(4 * np.cos(th) ** 2 + np.sin(th) ** 2)
            assert np.max(np.abs(img.samples - want)) < bound, n

    def test_symmetric_flag_preserved(self):
        # the image is built on the half period and tiled: antipodal samples
        # are equal bit for bit, on an odd half period too
        for n in (256, 66, 130):
            img = apply_linear_map(ellipse(1.5, 1.0, 0.0, n), np.array([[1.0, 0.3], [-0.2, 1.1]]))
            half = img.n // 2
            assert img.samples[:half].tobytes() == img.samples[half:].tobytes(), n

    def test_sl2_image_area_vs_polygon_oracle(self):
        b = SupportFn(
            1 + 0.15 * np.cos(2 * TH) + 0.02 * np.sin(4 * TH)
            + 0.003 * np.cos(6 * TH))
        img = apply_linear_map(
            b, np.diag([1.3, 1 / 1.3]) @ family_map(1.0, 0.3))
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
        # (n = 130 is the smallest n = 2 mod 4 grid inside it: at n = 66 the
        # one- and two-step images differ by 1.6e-6 where they are truncated)
        phi = np.array([[d1, sh], [0.0, 1.0 / d1]])
        psi = family_map(1.0, rot) @ np.diag([d2, 1.1])
        for n in (256, 130):
            b = ellipse(1.3, 0.9, 0.2, n)
            two_steps = apply_linear_map(apply_linear_map(b, phi), psi)
            one_step = apply_linear_map(b, psi @ phi)
            scalefree = np.max(np.abs(two_steps.samples - one_step.samples))
            assert scalefree < 1e-8 * np.max(one_step.samples), n
            assert area(two_steps) == pytest.approx(
                abs(np.linalg.det(psi @ phi)) * area(b), rel=1e-8), n


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

    @pytest.mark.parametrize("corpus", ["fuzz_256", "stability_128", "stability_256",
                                        "ellipses_2_mod_4", "bisection_64", "bisection_128",
                                        "bisection_256", "flow_rows"])
    def test_matches_direct_sum_on_fine_grid(self, corpus, fuzz_bodies, flow_row_blocks):
        # against e^{-ik alpha} summed directly on a 64x grid, to 1e-13
        # relative; the output holds only even modes, so antipodal samples
        # are equal.  The bisection bodies (1 - lam) disk + lam K of the
        # stability bases hold the stretches just above 1 where a grid of
        # 1.5 sigma instead of 2 sigma misses by up to 6e-11; at n = 256 only
        # the lam where it misses and one near the base are kept, for time.
        # The flow rows come as the stacks the monitor pass makes.
        from centroflow.lab import _stability_base

        def bisection(n, lams=(0.01, 0.03, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95)):
            return [SupportFn(1.0 + lam * (_stability_base(s, n).samples - 1.0))
                    for s in range(20) for lam in lams]
        stacks = {
            "fuzz_256": lambda: fuzz_bodies,
            "stability_128": lambda: [_stability_base(s, 128) for s in range(20)],
            "stability_256": lambda: [_stability_base(s, 256) for s in range(20)],
            "ellipses_2_mod_4": lambda: [ellipse(1.6, 1.0, 0.3, n) for n in (18, 66, 130)],
            "bisection_64": lambda: bisection(64),
            "bisection_128": lambda: bisection(128),
            "bisection_256": lambda: bisection(256, (0.03, 0.1, 0.95)),
            "flow_rows": lambda: flow_row_blocks,
        }[corpus]()
        for stack in stacks:
            samples = getattr(stack, "samples", stack)
            n = samples.shape[-1]
            got = radial_powers(samples, [3, -1]).reshape(2, -1, n)
            for row, got_row in zip(samples.reshape(-1, n), got.transpose(1, 0, 2)):
                want = oracles.radial_powers_direct(row, [3, -1])
                err = np.max(np.abs(got_row - want), axis=1) / np.max(np.abs(want), axis=1)
                assert np.all(err <= 1e-13), (n, err)
                assert np.array_equal(got_row[:, : n // 2], got_row[:, n // 2:])

    def test_stack_mixing_grids_gives_each_row_alone(self, monkeypatch):
        # stretches sigma = 1, 1.44, 3.24 and 9 take q = 2, 4, 8 and 16
        bodies = [ellipse(1.8, 1.0, 0.7, 128), disk(1.0, 128), ellipse(3.0, 1.0, 1.1, 128),
                  ellipse(1.2, 1.0, 0.2, 128), ellipse(1.2, 1.0, 0.9, 128), disk(0.5, 128)]
        grids = []
        sums = support._radial_sums
        monkeypatch.setattr(support, "_radial_sums",
                            lambda f, half, m, p: (grids.append(m // half), sums(f, half, m, p))[1])
        got = radial_powers(np.array([b.samples for b in bodies]), [3, -1])
        assert sorted(grids) == [2, 4, 8, 16]
        for i, body in enumerate(bodies):
            assert np.array_equal(got[:, i], radial_powers(body.samples, [3, -1])), i

    def test_cached_tables_are_read_only(self):
        from centroflow.ops import _abs_cos_multipliers
        for table in (support._half_turn_phase(64), support._node_multipliers(32),
                      _abs_cos_multipliers(33)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_interpolant_nonconvex_between_nodes(self):
        # this body is convex at its 128 nodes, but its interpolant has
        # h + h'' < 0 between some of them; the change of variables must
        # still land on the boundary: rho against 1 / (the polar support
        # max_t cos(t - phi) / h(t) on a 64x finer grid), taken on the
        # RADIAL_OVERSAMPLE grid and band-limited to the body's n grid
        body = off_node_nonconvex_body()
        t = angles(64 * body.n)
        h = resample(body.samples, t.size)
        assert np.min(curvature_samples(h)) < -0.05
        want = np.concatenate([
            1.0 / np.max(np.cos(t[None, :] - phi[:, None]) / h, axis=1)
            for phi in np.split(angles(RADIAL_OVERSAMPLE * body.n), 32)])
        got = radial_powers(body.samples, [1])[0]
        assert np.max(np.abs(got - resample(want, body.n))) < 1e-5


def test_boundary_curves_off_grid_match_coefficients():
    # a convex n=128 body with a sizeable Nyquist coefficient a_N: at the
    # grid midpoints, where sin(N t) = +-1, the boundary point
    # x(t) = h u + h' u_perp and the polar point u/h of the SL(2) search must
    # use h's own interpolant and its derivative, a_N cos(N t) included
    from centroflow.normalize import _BoundaryForms
    th = angles(128)
    body = SupportFn(1.0 + 0.2 * np.cos(2.0 * th) + 5e-5 * np.cos(64.0 * th))
    n = body.n
    t = angles(n) + np.pi / n
    f = np.fft.rfft(body.samples) / n
    k = np.arange(n // 2 + 1)
    w = np.where((k == 0) | (k == n // 2), 1.0, 2.0)
    e = np.exp(1j * np.outer(t, k))
    h = (e * f * w).real.sum(axis=1)
    hp = (1j * k * e * f * w).real.sum(axis=1)
    boundary, polar = _BoundaryForms(body.samples[None])._curves(np.array([[t, t]]),
                                                                 np.arange(1))[0, 0]
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
