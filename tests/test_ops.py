import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centroflow import (
    BodySpec,
    NonConvex,
    SupportFn,
    apply_linear_map,
    area,
    banach_mazur_to_disk,
    centroid_body,
    curvature_image,
    disk,
    ellipse,
    mixed_volume,
    perimeter,
    pinching_to_bm_bound,
    polar_area,
    polar_body,
    projection_body,
    random_body,
    sl2_normalize,
)
from centroflow import cli, ops
from centroflow.errors import GridMismatch, UnderResolved
from centroflow.lab import _fuzz_spec, _mixed_volume_gaps, _stability_base, deficit_report
from centroflow.normalize import family_map
from centroflow.ops import (_centroid_support, _identity_residual, _ratio_derivative,
                            _solve_curvature, polar_chain)
from centroflow.spectral import angles, resample
from centroflow.support import curvature_samples, radial_powers

from conftest import near_floor_body
import oracles

TH = angles(256)


class TestPolar:
    def test_disk(self):
        p = polar_body(disk(2.0, 128))
        assert np.max(np.abs(p.samples - 0.5)) < 1e-12

    def test_ellipse_maps_to_dual_ellipse(self):
        p = polar_body(ellipse(2.0, 1.0, 0.0, 256))
        want = np.sqrt(0.25 * np.cos(TH) ** 2 + np.sin(TH) ** 2)
        assert np.max(np.abs(p.samples - want)) < 1e-9
        # off-axis and more eccentric; the change of variables is exact to roundoff
        off = polar_body(ellipse(2.0, 0.6, 0.4, 256))
        want = ellipse(1 / 2.0, 1 / 0.6, 0.4, 256).samples
        assert np.max(np.abs(off.samples - want)) <= 1e-13

    def test_polar_area_quadrature_consistency(self, wobble):
        # the polar's area must match (1/2) integral h^-2 from the primal
        assert area(polar_body(wobble)) == pytest.approx(
            polar_area(wobble), rel=1e-6)

    def test_involution(self, mild_bodies):
        for b in mild_bodies:
            back = polar_body(polar_body(b))
            assert np.max(np.abs(back.samples - b.samples)) <= \
                1e-6 * np.max(b.samples)

    def test_polar_of_regridded_stability_bases_is_symmetric(self):
        # n=256 stability bases regridded to n=1024: differentiating the
        # fine resample for h' and h + h'' left their polar samples
        # antipodally unequal by up to 1.2e-11 (AsymmetricData)
        from centroflow.lab import _stability_base
        for seed in (4, 9, 10, 13, 14, 17):
            body = SupportFn(resample(_stability_base(seed, 256).samples, 1024))
            p = polar_body(body)
            assert p.n == 1024 and np.array_equal(p.samples[:512], p.samples[512:])

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_stretched_stability_bases_have_a_polar_on_a_finer_grid(self, n):
        # band-limited to the modes below n/2, the polar of 6, 7 and 9 of the
        # 20 bases is not convex at the nodes; it is a body on the smallest
        # grid 2^j n where it is, and its own polar comes back to the base.
        # The others keep their grid.
        from centroflow.lab import _stability_base
        refined = []
        for seed in range(20):
            base = _stability_base(seed, n)
            p = polar_body(base)
            if p.n == n:
                continue
            refined.append(seed)
            assert p.n in (2 * n, 4 * n, 8 * n)
            with pytest.raises(NonConvex):
                SupportFn(radial_powers(resample(base.samples, p.n // 2), [-1])[0])
            back = polar_body(p)
            want = resample(base.samples, back.n)
            assert np.max(np.abs(back.samples - want)) <= 1e-3 * np.max(want), seed
        assert len(refined) == {64: 6, 128: 7, 256: 9}[n], refined

    @pytest.mark.parametrize("refinements", [0, 1])
    def test_polar_on_no_grid_names_the_finest(self, monkeypatch, refinements):
        # the n = 64 base of seed 4 needs the 256 grid
        from centroflow.lab import _stability_base
        monkeypatch.setattr(ops, "POLAR_REFINEMENTS", refinements)
        with pytest.raises(UnderResolved, match=f"grids 64 to {64 << refinements};"):
            polar_body(_stability_base(4, 64))

    def test_gl2_equivariance(self, wobble):
        phi = np.diag([1.4, 1 / 1.4]) @ family_map(1.0, 0.6)
        lhs = polar_body(apply_linear_map(wobble, phi))
        phi_inv_t = np.linalg.inv(phi).T
        rhs = apply_linear_map(polar_body(wobble), phi_inv_t)
        assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-6 * np.max(rhs.samples)


class TestCentroid:
    def test_disk_constant(self):
        g = centroid_body(disk(1.0, 128))
        assert np.max(np.abs(g.samples - 4 / (3 * np.pi))) < 1e-12

    def test_ellipse_equivariance(self):
        e = ellipse(2.0, 1.0, 0.0, 256)
        g = centroid_body(e)
        assert np.max(np.abs(g.samples - (4 / (3 * np.pi)) * e.samples)) < 1e-9

    def test_gl2_equivariance(self, wobble):
        phi = np.array([[1.2, 0.3], [0.1, 0.9]])
        lhs = centroid_body(apply_linear_map(wobble, phi))
        rhs = apply_linear_map(centroid_body(wobble), phi)
        assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-6 * np.max(rhs.samples)

    def test_against_polygon_moment_oracle(self, wobble):
        g = centroid_body(wobble)
        probe = angles(16)
        want = oracles.centroid_support_polygon(wobble, probe)
        got = np.array([g.samples[i * wobble.n // 16] for i in range(16)])
        assert np.max(np.abs(got - want) / want) < 1e-5


class TestProjection:
    def test_disk(self):
        p = projection_body(disk(1.0, 128))
        assert np.max(np.abs(p.samples - 2.0)) < 1e-13

    def test_symmetric_is_doubled_quarter_turn(self, mild_bodies):
        for b in mild_bodies:
            p = projection_body(b)
            # h(theta - pi/2) is an exact index shift since 4 divides n
            want = 2.0 * np.roll(b.samples, b.n // 4)
            assert np.max(np.abs(p.samples - want)) <= 1e-8 * np.max(want)

    def test_ellipse_closed_form(self):
        p = projection_body(ellipse(2.0, 1.0, 0.0, 256))
        want = 2.0 * np.sqrt(4 * np.sin(TH) ** 2 + np.cos(TH) ** 2)
        assert np.max(np.abs(p.samples - want)) < 1e-11


class TestMixedVolume:
    def test_two_disks(self):
        assert mixed_volume(disk(2.0, 64), disk(3.0, 64)) == \
            pytest.approx(6 * np.pi, rel=1e-13)

    def test_self_is_area(self, wobble):
        assert mixed_volume(wobble, wobble) == pytest.approx(
            area(wobble), rel=1e-13)

    def test_with_disk_is_half_perimeter(self, wobble):
        assert mixed_volume(wobble, disk(1.0, wobble.n)) == pytest.approx(
            perimeter(wobble) / 2, rel=1e-13)

    def test_symmetry(self, wobble, ellipse_21):
        a = mixed_volume(wobble, ellipse_21)
        b = mixed_volume(ellipse_21, wobble)
        assert abs(a - b) < 1e-10 * abs(a)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            mixed_volume(disk(1.0, 64), disk(1.0, 128))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_minkowski_inequality(self, s1, s2):
        k = random_body(BodySpec(seed=s1, mode_count=3, decay=1.5, amplitude=0.5))
        l = random_body(BodySpec(seed=s2, mode_count=4, decay=1.7, amplitude=0.4))
        v = mixed_volume(k, l)
        assert v * v >= area(k) * area(l) * (1 - 1e-10)

    def test_minkowski_equality_iff_homothety(self, wobble):
        from centroflow import scaled
        l = scaled(wobble, 1.7)
        v = mixed_volume(wobble, l)
        assert v * v == pytest.approx(area(wobble) * area(l), rel=1e-8)
        other = ellipse(1.5, 0.9, 0.0, wobble.n)
        v2 = mixed_volume(wobble, other)
        assert v2 * v2 > area(wobble) * area(other) * (1 + 1e-8)


class TestMinkowskiSolve:
    """h'' + h = f through ``_solve_curvature``, the solve behind the curvature
    image."""

    def test_constant(self):
        assert np.max(np.abs(_solve_curvature(np.ones(64)) - 1.0)) < 1e-13

    def test_mode_two(self):
        h = _solve_curvature(1 + 0.3 * np.cos(2 * TH))
        assert np.max(np.abs(h - (1 - 0.1 * np.cos(2 * TH)))) < 1e-13

    def test_mode_three_and_first_harmonic_dropped(self):
        want = 1 - 0.025 * np.cos(3 * TH)
        assert np.max(np.abs(_solve_curvature(1 + 0.2 * np.cos(3 * TH)) - want)) < 1e-13
        # the first harmonic (the translations) has no solution and is set to zero
        h = _solve_curvature(1 + 0.2 * np.cos(3 * TH) + 0.2 * np.cos(TH) - 0.1 * np.sin(TH))
        assert np.max(np.abs(h - want)) < 1e-13

    def test_curvature_fn_input(self, wobble):
        # translation gauge: the solve reproduces the body (no k=1 content)
        h = _solve_curvature(curvature_samples(wobble.samples))
        assert np.max(np.abs(h - wobble.samples)) < 1e-12


class TestCurvatureImage:
    def test_disk_fixed(self):
        lam = curvature_image(disk(1.0, 128))
        assert np.max(np.abs(lam.samples - 1.0)) < 1e-13

    def test_ellipse_fixed_point(self):
        for a, b, rot in [(2.0, 1.0, 0.0), (1.5, 0.8, 0.7), (1.2, 0.9, 1.9)]:
            e = ellipse(a, b, rot, 256)
            lam = curvature_image(e)
            assert np.max(np.abs(lam.samples - e.samples)) <= 1e-7

    def test_mixed_volume_identity(self, mild_bodies):
        for b in mild_bodies:
            lam = curvature_image(b)
            assert mixed_volume(lam, b) == pytest.approx(area(b), rel=1e-8)

    def test_area_never_increases(self, mild_bodies):
        for b in mild_bodies:
            assert area(curvature_image(b)) <= area(b) * (1 + 1e-10)

    def test_area_equality_on_ellipse_only(self, wobble):
        e = ellipse(1.3, 0.8, 0.2, 256)
        assert area(curvature_image(e)) == pytest.approx(area(e), rel=1e-6)
        assert area(curvature_image(wobble)) < area(wobble) * (1 - 1e-5)

    def test_sl2_equivariance(self, wobble):
        phi = np.diag([1.3, 1 / 1.3]) @ family_map(1.0, 0.3)
        lhs = curvature_image(apply_linear_map(wobble, phi))
        rhs = apply_linear_map(curvature_image(wobble), phi)
        assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-6 * np.max(rhs.samples)


def identity_residual(h):
    """Sup-norm residual of h_{Gamma K} = (2 / (3 V(K*))) * h_{Pi Lambda K*}."""
    polar, rho3, v_star = polar_chain(h.samples)
    return _identity_residual(polar, v_star, _centroid_support(rho3, area(h)))


class TestLutwakIdentity:
    def test_disk_exact(self):
        assert identity_residual(disk(1.0, 128)) < 1e-10

    def test_ellipse(self):
        e = ellipse(1.5, 0.9, 0.4, 256)
        g = centroid_body(e)
        assert identity_residual(e) <= 1e-6 * np.max(g.samples)

    def test_wobble(self, wobble):
        g = centroid_body(wobble)
        assert identity_residual(wobble) <= 1e-5 * np.max(g.samples)

    def test_perturbed_polar_row_is_detected(self, wobble):
        # the right-hand side is built from the polar row alone
        polar, rho3, v_star = polar_chain(wobble.samples)
        gamma = _centroid_support(rho3, area(wobble))
        assert _identity_residual(polar, v_star, gamma) <= 1e-5 * np.max(gamma)
        assert _identity_residual(polar + 1e-4, v_star, gamma) > 1e-5 * np.max(gamma)

    def test_through_public_operators(self, mild_bodies, fuzz_bodies):
        # here the right-hand side runs through the polar, the curvature
        # image and the projection
        for b in mild_bodies + fuzz_bodies:
            g = centroid_body(b).samples
            pi_lam = projection_body(curvature_image(polar_body(b))).samples
            want = (2.0 / (3.0 * polar_area(b))) * pi_lam
            assert np.max(np.abs(g - want)) <= 1e-5 * np.max(want)


class TestPolarChain:
    def test_lambda_area_below_polar_area(self, fuzz_bodies):
        # V(Lambda K*) <= V(K*) is the sign of the flow's ratio derivative;
        # the two areas come from different quadratures, so check it
        from centroflow.lab import _stability_base
        for b in [_stability_base(seed, 128) for seed in range(10)] + fuzz_bodies:
            _, rho3, v_star = polar_chain(b.samples)
            assert _ratio_derivative(rho3, v_star, area(b)) <= 0.0


def test_every_op_takes_the_generated_bodies():
    # what `centroflow op` runs, on the 20 stability bases and the first 200
    # fuzz bodies of seed 1 at each grid; one refusal is known and pinned:
    # normalize maps fuzz body 146 at n = 64, convex at its nodes only, to a
    # grid body that is not convex.  A new failure or that one's fix lands here.
    ops_run = {**cli._BODY_OPS, "normalize": sl2_normalize,
               "bm": lambda b: (banach_mazur_to_disk(b), pinching_to_bm_bound(b))}
    assert set(ops_run) == set(cli._OP_NAMES)
    failures = set()
    for n in (64, 128, 256):
        bodies = [("stability", s, _stability_base(s, n)) for s in range(20)]
        bodies += [("fuzz", i, random_body(_fuzz_spec(1, i, n))) for i in range(200)]
        for family, i, body in bodies:
            for name, op in ops_run.items():
                try:
                    op(body)
                except Exception as exc:
                    failures.add((n, family, i, name, type(exc).__name__))
    assert failures == {(64, "fuzz", 146, "normalize", "NonConvex")}


class TestConvexityFloor:
    def test_operators_take_every_validated_body(self):
        # no operator may re-validate more strictly than SupportFn does
        body = near_floor_body()
        quarter = np.roll(body.samples, -body.n // 4)  # h(theta + pi/2)
        assert np.max(np.abs(projection_body(body).samples - 2.0 * quarter)) < 1e-12
        assert mixed_volume(body, body) == pytest.approx(area(body), rel=1e-12)
        assert np.isfinite(_mixed_volume_gaps(body, disk(1.0, body.n))[1])
        assert np.isfinite(deficit_report(body)[0]["petty_gap"])  # finite with its product
        d_bm = banach_mazur_to_disk(body).distance
        assert np.isfinite(d_bm) and d_bm >= 1.0
        # the curvature radius touches 0 here, so the pinching bound is the
        # vacuous inf; it must still be returned, not raised
        assert pinching_to_bm_bound(body) >= d_bm
