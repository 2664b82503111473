import numpy as np
import pytest

from centroflow import (
    BodySpec,
    LinearMap2,
    apply_linear_map,
    area,
    banach_mazur_to_disk,
    disk,
    ellipse,
    perimeter,
    pinching_to_bm_bound,
    random_body,
    sl2_normalize,
)
from centroflow.errors import AsymmetricData
from centroflow.lab import _deficit_targeted_body, _stability_base
from centroflow.normalize import (SEARCH_RTOL, _BoundaryForms, _certificate, _parabola_peak,
                                  _perimeter_minimum, _radii, family_map, minimize)
from centroflow.spectral import angles

from conftest import smoothed_square
import oracles


def klein(s, phi):
    """Klein coordinate (M00 - M11, 2 M01) / (M00 + M11) of M = Phi^T Phi,
    Phi = family_map(s, phi)."""
    a = family_map(s, phi).as_array()
    m = a.T @ a
    return np.array([m[0, 0] - m[1, 1], 2.0 * m[0, 1]]) / (m[0, 0] + m[1, 1])


class TestSl2Normalize:
    def test_disk_identity(self):
        body, witness = sl2_normalize(disk(1.0, 128))
        assert np.max(np.abs(body.samples - 1.0)) < 1e-8
        assert np.hypot(witness.a, witness.b) == pytest.approx(1.0, abs=1e-6)

    def test_ellipse_returns_disk(self):
        e = apply_linear_map(disk(1.0, 256), LinearMap2.diagonal(2.0, 0.5))
        body, witness = sl2_normalize(e)
        assert np.max(np.abs(body.samples - 1.0)) < 1e-12
        assert abs(witness.det - 1.0) <= 1e-9

    def test_isoperimetric_ratio_improves(self, wobble):
        body, _ = sl2_normalize(wobble)
        iso = lambda k: perimeter(k) ** 2 / (4 * np.pi * area(k))
        assert iso(body) <= iso(wobble)
        assert area(body) == pytest.approx(np.pi, rel=1e-12)

    def test_requires_symmetric(self):
        from centroflow import SupportFn
        b = SupportFn(1 + 0.05 * np.cos(3 * angles(256)))
        with pytest.raises(AsymmetricData):
            sl2_normalize(b)


class TestBanachMazur:
    def test_ellipses_are_distance_one(self):
        for a, b, rot in [(2.0, 0.5, 0.0), (1.7, 0.9, 0.3), (1.1, 1.0, 2.0)]:
            cert = banach_mazur_to_disk(ellipse(a, b, rot, 256))
            assert cert.distance <= 1.0 + 1e-4
            assert cert.distance >= 1.0

    def test_certificate_consistency(self, wobble):
        cert = banach_mazur_to_disk(wobble)
        assert cert.distance == pytest.approx(
            cert.outer_radius / cert.inner_radius, rel=1e-8)
        assert abs(cert.witness.det - 1.0) <= 1e-9

    def test_smoothed_square_near_john_bound(self):
        sq = smoothed_square()
        cert = banach_mazur_to_disk(sq)
        # independent dense-grid search (raw grid extremes bias it slightly low)
        brute = oracles.brute_force_bm_to_disk(sq)
        assert cert.distance == pytest.approx(brute, abs=1e-3)
        # rounding the corners pulls the value below the sharp sqrt(2)
        assert np.sqrt(2) * 0.9 < cert.distance <= np.sqrt(2) + 1e-6

    def test_john_bound(self, mild_bodies):
        for b in mild_bodies:
            cert = banach_mazur_to_disk(b)
            assert cert.distance <= np.sqrt(2) + 1e-4


class TestPinching:
    def test_parabola_peak_refines_the_extremum(self):
        # the extremum of cos(t - 0.337) lies between the nodes; the nearest
        # sample is 2.2e-5 off, the parabola through three 1e-6
        f = np.cos(angles(128) - 0.337)
        assert _parabola_peak(f, np.argmax(f)) == pytest.approx(1.0, abs=1e-6)
        assert _parabola_peak(f, np.argmin(f)) == pytest.approx(-1.0, abs=1e-6)
        assert 1.0 - f.max() > 2e-5

    def test_disk(self):
        assert pinching_to_bm_bound(disk(2.0, 128)) == pytest.approx(1.0, abs=1e-10)

    def test_ellipse_constant_affine_support(self):
        assert pinching_to_bm_bound(ellipse(2.0, 1.0, 0.0, 256)) == \
            pytest.approx(1.0, abs=1e-8)

    def test_upper_bounds_distance(self, mild_bodies):
        for b in mild_bodies:
            cert = banach_mazur_to_disk(b)
            assert cert.distance <= pinching_to_bm_bound(b) + 1e-3

    def test_upper_bounds_distance_random(self):
        for seed in range(20):
            b = random_body(BodySpec(seed=seed, mode_count=3,
                                     decay=1.6, amplitude=0.5))
            cert = banach_mazur_to_disk(b)
            assert cert.distance <= pinching_to_bm_bound(b) + 1e-3


class TestBoundaryForms:
    PARAMS = [(1.0, 0.0), (1.5, 0.4), (0.7, 2.0), (3.0, 1.1), (2.0, 2.5)]

    def test_ellipse_radii(self):
        # Phi E is the ellipse with the singular values of Phi A as semi-axes
        for a, b, rot in [(1.7, 0.9, 0.3), (1.3, 1.0, 2.0)]:
            forms = _BoundaryForms(ellipse(a, b, rot, 256))
            axes = LinearMap2.rotation(rot).as_array() @ np.diag([a, b])
            for s, phi in self.PARAMS:
                sv = np.linalg.svd(family_map(s, phi).as_array() @ axes,
                                   compute_uv=False)
                v = klein(s, phi)
                lo, hi = _radii(v, forms.evaluate(v)[0])
                assert abs(hi - sv[0]) <= 1e-10 and abs(lo - sv[1]) <= 1e-10

    def test_certificate_matches_polygon_oracle(self):
        # n=128 stability bodies, some with interpolants that are not convex
        # between the nodes: the ratio at the witness against a dense polygon
        for seed in range(10):
            body = _stability_base(seed, 128)
            cert = banach_mazur_to_disk(body)
            inner, outer = oracles.polygon_radii(
                body, cert.witness.as_array(), m=1 << 14)
            assert cert.distance == pytest.approx(outer / inner, rel=1e-5)


class TestGlobalMinima:
    # the perimeter and the log radii ratio are geodesically convex over
    # M = Phi^T Phi, so each search must find the global minimum
    STARTS = [(1.0, 0.0), (2.0, 0.3), (1.3, 1.5), (3.0, 2.8)]

    def test_ellipse_perimeter(self):
        # the polygon oracle against the closed form, and the witness at the
        # least perimeter of an ellipse, that of the disk of equal area
        maps = np.array([family_map(s, phi).as_array() for s, phi in TestBoundaryForms.PARAMS])
        for a, b, rot in [(1.7, 0.9, 0.3), (1.3, 1.0, 2.0)]:
            e = ellipse(a, b, rot, 256)
            axes = LinearMap2.rotation(rot).as_array() @ np.diag([a, b])
            want = [oracles.ellipse_perimeter(*np.linalg.svd(m @ axes, compute_uv=False))
                    for m in maps]
            assert oracles.polygon_perimeter(e, maps, m=1 << 16) == pytest.approx(want, rel=1e-8)
            _, witness = sl2_normalize(e)
            sv = np.linalg.svd(witness.as_array() @ axes, compute_uv=False)
            assert oracles.ellipse_perimeter(*sv) == pytest.approx(
                2.0 * np.pi * np.sqrt(a * b), rel=1e-12)

    def test_perimeter_minimum_beats_dense_grid(self, wobble):
        bodies = [_stability_base(seed, 128) for seed in range(4)]
        bodies.append(apply_linear_map(wobble, family_map(np.sqrt(8.0), 0.7)))  # 8:1
        for body in bodies:
            _, witness = sl2_normalize(body)
            best = min(float(np.min(oracles.polygon_perimeter(body, maps)))
                       for maps in oracles.family_grid())
            assert oracles.polygon_perimeter(body, witness.as_array()) <= best + 1e-9

    def test_banach_mazur_does_not_depend_on_start(self):
        for seed in range(3):
            base = _stability_base(seed, 128)
            for target in (1e-4, 1e-2):
                body, _, _ = _deficit_targeted_body(base, target)
                distance = banach_mazur_to_disk(body).distance
                forms = _BoundaryForms(body)
                for start in self.STARTS:
                    cert = _certificate(minimize(forms, klein(*start)))
                    assert cert.distance == pytest.approx(distance, abs=1e-9)


class TestExchangeSearch:
    @staticmethod
    def bodies(seeded_trace):
        bodies = [_stability_base(seed, 128) for seed in range(10)]
        return bodies + [seeded_trace.row_body(i) for i in range(0, seeded_trace.rows, 10)]

    @staticmethod
    def search(body):
        forms = _BoundaryForms(body)
        res = minimize(forms, _perimeter_minimum(forms))
        return res, _certificate(res)

    def test_bracket_holds_and_closes(self, seeded_trace):
        # the cut model's minimum lies below the distance and within
        # SEARCH_RTOL of it; once the bracket has closed, the two ends can
        # cross by rounding only
        for body in self.bodies(seeded_trace):
            _, cert = self.search(body)
            gap = (cert.distance - cert.lower_bound) / cert.distance
            assert -1e-14 <= gap <= SEARCH_RTOL

    def test_few_evaluations(self, seeded_trace, wobble):
        # the bracket closes quadratically, also on a disk and on flat forms
        # (an ellipse, a strong image of a mild body, a near-disk flow row)
        flat = [disk(1.0, 128), ellipse(2.0, 1.0, 0.0, 256),
                apply_linear_map(wobble, family_map(np.sqrt(8.0), 0.7)),
                seeded_trace.row_body(seeded_trace.rows - 1)]
        for body in self.bodies(seeded_trace) + flat:
            res, cert = self.search(body)
            assert res.nfev <= 8
            assert cert.distance - cert.lower_bound <= SEARCH_RTOL * cert.distance

    def test_maxima_reach_the_best_sample(self, seeded_trace):
        # the refined maxima of each side are never below its best dense
        # sample, at the origin, off it and at the perimeter minimum
        for body in self.bodies(seeded_trace) + [disk(1.0, 128)]:
            forms = _BoundaryForms(body)
            for v in (np.zeros(2), np.array([0.3, -0.2]), _perimeter_minimum(forms)):
                maxima = forms.evaluate(v)[0]
                samples = (np.array([1.0, v[0], v[1]]) @ forms.rows).reshape(2, -1)
                assert maxima[0] >= samples[0].max() and maxima[1] >= samples[1].max()

    def test_search_ends_no_higher_than_its_start(self, seeded_trace):
        # the best point evaluated is returned, and the first is the start
        for body in self.bodies(seeded_trace):
            forms = _BoundaryForms(body)
            start = _perimeter_minimum(forms)
            inner, outer = _radii(start, forms.evaluate(start)[0])
            assert _certificate(minimize(forms, start)).distance <= \
                outer / inner * (1.0 + 1e-14)
