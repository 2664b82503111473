import numpy as np
import pytest

from centroflow import (
    BodySpec,
    FlowConfig,
    SupportFn,
    apply_linear_map,
    area,
    banach_mazur_to_disk,
    disk,
    ellipse,
    flow_run,
    perimeter,
    pinching_to_bm_bound,
    random_body,
    sl2_normalize,
    stability_experiment,
)
from centroflow import flow, normalize
from centroflow.lab import _deficit_targeted_body, _stability_base
from centroflow.normalize import (CUTS_PER_SIDE, SEARCH_RTOL, _at, _BoundaryForms, _certificates,
                                  _parabola_peak, _perimeter_minimum, _radii, family_map, minimize,
                                  sl2_searches)
from centroflow.spectral import angles

from conftest import off_node_nonconvex_body, smoothed_square
import oracles


def klein(s, phi):
    """Klein coordinate (M00 - M11, 2 M01) / (M00 + M11) of M = Phi^T Phi,
    Phi = family_map(s, phi)."""
    a = family_map(s, phi)
    m = a.T @ a
    return np.array([m[0, 0] - m[1, 1], 2.0 * m[0, 1]]) / (m[0, 0] + m[1, 1])


def forms_of(body):
    """The search's sampling of one body, a stack of one row."""
    return _BoundaryForms(body.samples[None])


def evaluate(forms, v):
    """``evaluate`` of the one row of ``forms`` at v: (A, B), cuts, angles."""
    return [x[0] for x in forms.evaluate(v[None], np.arange(1))]


def radii(forms, v):
    """(inradius, circumradius) at v, from the maxima there."""
    return _radii(v[None], evaluate(forms, v)[0][None])[0]


def search(forms, start):
    """The search from ``start`` on the one row of ``forms``, and its certificate."""
    res = minimize(forms, start[None])
    return res, _certificates(res)[0]


def test_family_map_is_the_oracle_map_bit_for_bit():
    # the op bm and op normalize witness lines print family_map's entries:
    # they are exactly diag(s, 1/s) @ R(phi) as the oracle's grid builds it
    grid = oracles.family_grid(n_s=3, n_phi=5)
    for s, maps in zip(np.geomspace(1.0, 4.0, 3), grid):
        for phi, want in zip(np.linspace(0.0, np.pi, 5, endpoint=False), maps):
            assert family_map(s, phi).tobytes() == want.tobytes()


class TestSl2Normalize:
    def test_disk_identity(self):
        body, witness = sl2_normalize(disk(1.0, 128))
        assert np.max(np.abs(body.samples - 1.0)) < 1e-8
        assert np.hypot(*witness[0]) == pytest.approx(1.0, abs=1e-6)

    def test_ellipse_returns_disk(self):
        e = apply_linear_map(disk(1.0, 256), np.diag([2.0, 0.5]))
        body, witness = sl2_normalize(e)
        assert np.max(np.abs(body.samples - 1.0)) < 1e-12
        assert abs(np.linalg.det(witness) - 1.0) <= 1e-9

    def test_isoperimetric_ratio_improves(self, wobble):
        body, _ = sl2_normalize(wobble)
        iso = lambda k: perimeter(k) ** 2 / (4 * np.pi * area(k))
        assert iso(body) <= iso(wobble)
        assert area(body) == pytest.approx(np.pi, rel=1e-12)


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
        assert abs(np.linalg.det(cert.witness) - 1.0) <= 1e-9

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
            forms = forms_of(ellipse(a, b, rot, 256))
            axes = family_map(1.0, rot) @ np.diag([a, b])
            for s, phi in self.PARAMS:
                sv = np.linalg.svd(family_map(s, phi) @ axes,
                                   compute_uv=False)
                v = klein(s, phi)
                lo, hi = radii(forms, v)
                assert abs(hi - sv[0]) <= 1e-10 and abs(lo - sv[1]) <= 1e-10

    def test_certificate_matches_polygon_oracle(self):
        # n=128 stability bodies, and one whose interpolant is not convex
        # between the nodes: the ratio at the witness against a dense polygon
        bodies = [_stability_base(seed, 128) for seed in range(10)]
        for body in bodies + [off_node_nonconvex_body()]:
            cert = banach_mazur_to_disk(body)
            inner, outer = oracles.polygon_radii(
                body, cert.witness, m=1 << 14)
            assert cert.distance == pytest.approx(outer / inner, rel=1e-5)


class TestGlobalMinima:
    # the perimeter and the log radii ratio are geodesically convex over
    # M = Phi^T Phi, so each search must find the global minimum
    STARTS = [(1.0, 0.0), (2.0, 0.3), (1.3, 1.5), (3.0, 2.8)]

    def test_ellipse_perimeter(self):
        # the polygon oracle against the closed form, and the witness at the
        # least perimeter of an ellipse, that of the disk of equal area
        maps = np.array([family_map(s, phi) for s, phi in TestBoundaryForms.PARAMS])
        for a, b, rot in [(1.7, 0.9, 0.3), (1.3, 1.0, 2.0)]:
            e = ellipse(a, b, rot, 256)
            axes = family_map(1.0, rot) @ np.diag([a, b])
            want = [oracles.ellipse_perimeter(*np.linalg.svd(m @ axes, compute_uv=False))
                    for m in maps]
            assert oracles.polygon_perimeter(e, maps, m=1 << 16) == pytest.approx(want, rel=1e-8)
            _, witness = sl2_normalize(e)
            sv = np.linalg.svd(witness @ axes, compute_uv=False)
            assert oracles.ellipse_perimeter(*sv) == pytest.approx(
                2.0 * np.pi * np.sqrt(a * b), rel=1e-12)

    def test_perimeter_minimum_beats_dense_grid(self, wobble):
        bodies = [_stability_base(seed, 128) for seed in range(4)]
        bodies.append(apply_linear_map(wobble, family_map(np.sqrt(8.0), 0.7)))  # 8:1
        for body in bodies:
            _, witness = sl2_normalize(body)
            best = min(float(np.min(oracles.polygon_perimeter(body, maps)))
                       for maps in oracles.family_grid())
            assert oracles.polygon_perimeter(body, witness) <= best + 1e-9

    def test_banach_mazur_does_not_depend_on_start(self):
        for seed in range(3):
            base = _stability_base(seed, 128)
            for target in (1e-4, 1e-2):
                body, _, _ = _deficit_targeted_body(base, target)
                distance = banach_mazur_to_disk(body).distance
                forms = forms_of(body)
                for start in self.STARTS:
                    cert = search(forms, klein(*start))[1]
                    assert cert.distance == pytest.approx(distance, abs=1e-9)


class TestPerimeterMinimum:
    """The safeguarded Newton minimum against the majorize-minimize oracle."""

    step = staticmethod(normalize._perimeter_step)  # unpatched

    def check(self, monkeypatch, samples, max_steps=None):
        # a stack of bodies; the loop stops with its slowest row
        calls = []
        monkeypatch.setattr(normalize, "_perimeter_step",
                            lambda *args: (calls.append(1), self.step(*args))[1])
        forms = _BoundaryForms(np.asarray(samples))
        v = _perimeter_minimum(forms)
        assert np.max(np.abs(v - oracles.perimeter_minimum_mm(forms))) <= 2e-15
        assert max_steps is None or len(calls) <= max_steps

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_stability_bases(self, monkeypatch, n):
        self.check(monkeypatch, [_stability_base(seed, n).samples for seed in range(20)], 8)

    def test_flow_rows(self, monkeypatch, seeded_trace):
        for lo in range(0, seeded_trace.rows, flow.ROW_BLOCK):
            self.check(monkeypatch, seeded_trace.h_rows[lo:lo + flow.ROW_BLOCK], 8)

    def test_fuzz_bodies(self, monkeypatch, fuzz_bodies):
        self.check(monkeypatch, [body.samples for body in fuzz_bodies])

    def test_ellipses(self, monkeypatch):
        # far from the minimum the Hessian in v need not be positive
        # definite, nor the Newton point inside the disk; pure Newton from
        # v = 0 gives NaN at ratios 5, 10 and 30
        self.check(monkeypatch, [ellipse(ratio, 1.0, 0.3, 256).samples
                                 for ratio in (1.2, 2.0, 5.0, 10.0, 30.0)], 12)

    def test_newton_stays_in_the_disk(self, monkeypatch):
        # with every Newton step allowed, the unit-disk test alone keeps the
        # elongated ellipses from stepping out of the Klein model into NaN
        monkeypatch.setattr(normalize, "NEWTON_RADIUS", np.inf)
        self.check(monkeypatch, [ellipse(ratio, 1.0, 0.3, 256).samples
                                 for ratio in (5.0, 10.0, 30.0)])


class TestExchangeSearch:
    @staticmethod
    def bodies(seeded_trace):
        bodies = [_stability_base(seed, 128) for seed in range(10)]
        return bodies + [seeded_trace.row_body(i) for i in range(0, seeded_trace.rows, 10)]

    @staticmethod
    def search(body):
        forms = forms_of(body)
        return search(forms, _perimeter_minimum(forms)[0])

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
            forms = forms_of(body)
            for v in (np.zeros(2), np.array([0.3, -0.2]), _perimeter_minimum(forms)[0]):
                maxima = evaluate(forms, v)[0]
                samples = _at(forms.rows[0], v).reshape(2, -1)
                assert maxima[0] >= samples[0].max() and maxima[1] >= samples[1].max()

    def test_second_cut_per_side(self):
        # at v = 0 this body has two separated local maxima of unequal height
        # on the boundary side (and two on the polar side): each side must cut
        # both arms, not the top one twice
        t = angles(128)
        forms = forms_of(SupportFn(1.0 + 0.06 * np.cos(4.0 * t) + 0.02 * np.cos(2.0 * t)))
        for first, second in evaluate(forms, np.zeros(2))[2]:
            assert abs((first - second + 0.5 * np.pi) % np.pi - 0.5 * np.pi) > forms.dt

    def test_stacked_search_equals_each_body_alone(self):
        # bodies that close in different rounds, and a disk, in one stack
        bodies = [_stability_base(seed, 128) for seed in range(6)] + [disk(1.0, 128)]
        radii, certs = sl2_searches(np.array([b.samples for b in bodies]))
        for body, pair, cert in zip(bodies, radii, certs):
            alone = sl2_searches(body.samples[None])
            assert np.array_equal(alone[0][0], pair)
            # field by field: dataclass == cannot compare the witness arrays
            assert np.array_equal(alone[1][0].witness, cert.witness)
            assert all(getattr(alone[1][0], name) == getattr(cert, name) for name in
                       ("distance", "inner_radius", "outer_radius", "lower_bound"))

    def test_search_ends_no_higher_than_its_start(self, seeded_trace):
        # the best point evaluated is returned, and the first is the start
        for body in self.bodies(seeded_trace):
            forms = forms_of(body)
            start = _perimeter_minimum(forms)[0]
            inner, outer = radii(forms, start)
            assert search(forms, start)[1].distance <= outer / inner * (1.0 + 1e-14)


class TestModelMinimumBits:
    """The cut model's minimum folds np.maximum, np.minimum and
    np.logical_and over the slices of its short axes and adds two-entry
    sums as a + b; the oracle reduces over those axes.  Both are exact, so
    they agree bit for bit, NaN for NaN, on the stacks the searches build."""

    @staticmethod
    def recorded(monkeypatch, run):
        stacks, model_minimum = [], normalize._model_minimum
        monkeypatch.setattr(normalize, "_model_minimum",
                            lambda cuts: (stacks.append(cuts.copy()), model_minimum(cuts))[1])
        run()
        monkeypatch.undo()
        assert stacks
        return stacks

    @staticmethod
    def check(stacks):
        for cuts in stacks:
            for got, want in zip(normalize._model_minimum(cuts),
                                 oracles.model_minimum_reduced(cuts)):
                assert np.array_equal(got, want, equal_nan=True)

    @pytest.fixture(scope="class")
    def flow_stacks(self):
        # the row blocks of the four seed-1 bodies of the flow benchmark
        with pytest.MonkeyPatch.context() as monkeypatch:
            return self.recorded(monkeypatch, lambda: [
                flow_run(random_body(BodySpec(seed=1 + 1000 * j, n=64, mode_count=3, decay=1.6,
                                              amplitude=0.5)),
                         FlowConfig(cfl=0.1, t_stop_area=0.3, renormalize_every=25))
                for j in range(4)])

    def test_flow_row_blocks(self, flow_stacks):
        self.check(flow_stacks)

    def test_stability_stack(self, monkeypatch):
        # 20 samples and the disk control in one stack of 21 bodies
        stacks = self.recorded(monkeypatch, lambda: stability_experiment(20, seed=1, n=128))
        assert len(stacks[0]) == 21
        self.check(stacks)

    @pytest.mark.parametrize("shifted", [False, True], ids=["copies", "shifted"])
    @pytest.mark.parametrize("distinct", [1, 2, 3])
    def test_cut_sets_padded_with_copies(self, flow_stacks, distinct, shifted):
        # a side's cuts past the first ``distinct`` copy its first: two
        # copies have no tie line (NaN candidates), and copies whose constant
        # entries are raised apart give parallel tie lines, which cross at
        # infinity
        padded = [cuts.copy() for cuts in flow_stacks[::5]]
        for cuts in padded:
            cuts[..., distinct:, :] = cuts[..., :1, :]
            if shifted:
                cuts[..., distinct:, 0] *= 1.0 + 0.01 * np.arange(1, CUTS_PER_SIDE + 1 - distinct)
        self.check(padded)
