from dataclasses import astuple

import numpy as np
import pytest

from centroflow import (
    BP_CONSTANT,
    BodySpec,
    SupportFn,
    apply_linear_map,
    area,
    bp_deficit,
    deficit_report,
    disk,
    ellipse,
    fuzz_campaign,
    perimeter,
    random_body,
    scaled,
    sl2_normalize,
    stability_experiment,
)
from centroflow import lab, ops, support
from centroflow.errors import NonConvex
from centroflow.lab import (DEFICIT_RTOL, MIN_CURVATURE, _deficit_targeted_bodies,
                            _mixed_volume_gaps, _stability_base)
from centroflow.normalize import family_map
from centroflow.ops import _identity_residual, _ratio_derivative, polar_chain
from centroflow.spectral import angles, deriv, resample
from centroflow.support import curvature_samples

import oracles


def ratio_rhs(h):
    """Closed-form time derivative of V(Gamma K)/V(K) at ``h``."""
    _, rho3, v_star = polar_chain(h.samples)
    return _ratio_derivative(rho3, v_star, area(h))


class TestGenerator:
    def test_deterministic(self):
        spec = BodySpec(seed=123456789)
        a = random_body(spec)
        b = random_body(spec)
        assert np.array_equal(a.samples, b.samples)

    def test_zero_amplitude_is_disk(self):
        b = random_body(BodySpec(seed=5, amplitude=0.0))
        assert np.max(np.abs(b.samples - 1.0)) < 1e-15

    def test_curvature_floor_and_symmetry(self):
        for seed in range(25):
            b = random_body(BodySpec(seed=seed, amplitude=2.0, decay=1.2))
            s = b.samples + deriv(b.samples, 2)
            assert np.min(s) >= MIN_CURVATURE - 1e-9

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_stability_bases_convex_between_nodes(self, n):
        # S = h + h'' is checked at the nodes only; the square direction's
        # mollifier must keep it non-negative on the interpolant as well,
        # which the SL(2) search evaluates between the nodes
        for seed in range(20):
            body = _stability_base(seed, n)
            fine = curvature_samples(resample(body.samples, 16 * n))
            assert np.min(fine) >= 0.0, (seed, np.min(fine))
            sl2_normalize(body)

    def test_rows_keep_the_scalar_generator(self):
        # bit for bit the one-harmonic-at-a-time generator, on the fuzz recipes
        # and on the stability bases, whose waves stack the rows of many seeds
        for i in range(20):
            spec = lab._fuzz_spec(1, i, 256)
            assert random_body(spec).samples.tobytes() == \
                oracles.random_body(spec).samples.tobytes(), i
        seeds = [1 + 1000 * i for i in range(20)]
        for seed, row in zip(seeds, lab._stability_bases(seeds, 128)):
            assert row.tobytes() == oracles.stability_base(seed, 128).samples.tobytes(), seed

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BodySpec(seed=1, decay=0.9)
        with pytest.raises(ValueError):
            BodySpec(seed=1, mode_count=0)
        with pytest.raises(ValueError):
            BodySpec(seed=1, mode_count=40, n=256)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            BodySpec(seed=-1)
        with pytest.raises(ValueError, match="amplitude must be non-negative"):
            BodySpec(seed=1, amplitude=-0.1)


class TestDeficits:
    def test_bp_disk_zero(self):
        assert abs(bp_deficit(disk(1.0, 128))) < 1e-9

    def test_bp_ellipse_zero(self):
        for a, b, rot in [(1.6, 0.8, 0.5), (2.0, 1.0, 0.0), (1.2, 1.1, 1.3)]:
            assert abs(bp_deficit(ellipse(a, b, rot, 256))) < 1e-6

    def test_bp_wobble_positive_and_matches_oracle(self, wobble):
        eps = bp_deficit(wobble)
        assert eps > 0
        # independent polygon-moment computation of the centroid body ratio
        probe = angles(64)
        gamma_oracle = oracles.centroid_support_polygon(wobble, probe)
        from centroflow import area, centroid_body
        got = centroid_body(wobble)
        sub = got.samples[:: wobble.n // 64]
        assert np.max(np.abs(sub - gamma_oracle) / gamma_oracle) < 1e-5

    def test_santalo(self, wobble):
        # the gap is (pi^2 - V(K) V(K*)) / pi^2
        assert abs(deficit_report(disk(2.0, 128))[0]["santalo_gap"]) <= 1e-10
        assert abs(deficit_report(ellipse(1.5, 0.7, 0.2, 256))[0]["santalo_gap"]) <= 1e-9
        assert deficit_report(wobble)[0]["santalo_gap"] > 0

    def test_petty(self, wobble):
        # the gap is ((pi/2)^2 - V(K) V((Pi K)*)) / (pi/2)^2
        assert abs(deficit_report(disk(1.0, 128))[0]["petty_gap"]) <= 1e-12
        assert abs(deficit_report(ellipse(1.5, 0.9, 0.1, 256))[0]["petty_gap"]) <= 1e-9
        assert deficit_report(wobble)[0]["petty_gap"] > 0

    def test_groemer_trivial_cases(self, wobble):
        assert abs(_mixed_volume_gaps(wobble, wobble)[1]) <= 1e-12
        assert abs(_mixed_volume_gaps(wobble, scaled(wobble, 2.3))[1]) <= 1e-10

    def test_groemer_disk_vs_wobble_regression(self, wobble):
        gap = _mixed_volume_gaps(disk(1.0, 256), wobble)[1]
        assert gap >= -1e-9
        # frozen regression anchor of the mixed-volume slack
        assert gap == pytest.approx(0.060298293321797716, rel=1e-9)

    def test_gaps_keep_their_reference_expressions(self, fuzz_bodies):
        # bit for bit the functionals of tests/oracles.py, on the fuzz bodies
        # and on each body against the one before it, as the campaign pairs them
        prev = None
        for body in fuzz_bodies:
            gaps = deficit_report(body)[0]
            unit = disk(1.0, body.n)
            assert gaps["santalo_gap"] == (
                np.pi ** 2 - oracles.santalo_product(body)) / np.pi ** 2
            assert gaps["petty_gap"] == (
                (np.pi / 2.0) ** 2 - oracles.petty_projection_product(body)) / (np.pi / 2.0) ** 2
            assert gaps["groemer_vs_disk"] == oracles.groemer_gap(body, unit)
            assert gaps["minkowski_vs_disk"] == oracles.minkowski_gap(body, unit)
            if prev is not None:
                assert _mixed_volume_gaps(body, prev) == (
                    oracles.minkowski_gap(body, prev), oracles.groemer_gap(body, prev))
            prev = body

    def test_unit_disk_is_built_once_a_grid_size(self, monkeypatch):
        # a stacked report builds its unit disk once, not once a row
        built = []
        monkeypatch.setattr(lab, "disk", lambda r, n: (built.append(n), disk(r, n))[1])
        for n in (64, 128):
            deficit_report(SupportFn([random_body(BodySpec(seed=s, n=n)).samples
                                      for s in range(3)]))
        assert built == [64, 128]

    def test_ratio_rhs_signs(self, wobble):
        assert ratio_rhs(disk(1.0, 128)) == pytest.approx(0.0, abs=1e-12)
        assert abs(ratio_rhs(ellipse(1.4, 0.9, 0.3, 256))) < 1e-6
        assert ratio_rhs(wobble) < 0

    def test_affine_bracket_straddles_one(self, mild_bodies):
        for b in mild_bodies:
            gaps = deficit_report(b)[0]
            assert gaps["affine_bracket_low"] >= -1e-8  # min h S^(1/3) <= 1 + 1e-8
            assert gaps["affine_bracket_high"] >= -2e-8  # max h S^(1/3) >= 1 - 2e-8


class TestGlInvariance:
    def test_deficits_invariant(self, wobble):
        rng = np.random.default_rng(3)
        gaps = deficit_report(wobble)[0]
        base = {
            "bp": bp_deficit(wobble),
            "santalo": gaps["santalo_gap"],
            "petty": gaps["petty_gap"],
            "rhs": ratio_rhs(wobble),
        }
        for _ in range(3):
            s = rng.uniform(1.1, 2.0)
            phi = np.diag([s, 1 / s]) @ family_map(
                1.0, rng.uniform(0, np.pi))
            img = apply_linear_map(wobble, phi)
            assert bp_deficit(img) == pytest.approx(base["bp"], rel=1e-5, abs=1e-9)
            # a product P = c (1 - g) within 1e-5 P of its base: the gaps
            # within 1e-5 (1 - g)
            img_gaps = deficit_report(img)[0]
            for key in ("santalo", "petty"):
                g = base[key]
                assert abs(img_gaps[f"{key}_gap"] - g) <= 1e-5 * (1.0 - g)
            assert ratio_rhs(img) == pytest.approx(
                base["rhs"], rel=1e-5, abs=1e-10)


class TestReports:
    def test_deficit_report_fields(self, wobble):
        gaps, residual = deficit_report(wobble)
        assert set(gaps) == {
            "bp_deficit", "santalo_gap", "petty_gap", "groemer_vs_disk", "lambda_area_drop",
            "affine_bracket_low", "affine_bracket_high", "minkowski_vs_disk"}
        assert all(gap >= -1e-9 for gap in gaps.values()), gaps
        assert residual <= 1e-5

    def test_identity_residual_matches_ops(self, wobble):
        from centroflow import centroid_body
        for body in (wobble, random_body(BodySpec(seed=5))):
            gamma = centroid_body(body).samples
            polar, _, v_star = polar_chain(body.samples)
            want = _identity_residual(polar, v_star, gamma) / np.max(gamma)
            assert deficit_report(body)[1] == pytest.approx(
                want, rel=1e-12, abs=1e-300)

    def test_one_curvature_solve_a_body(self, wobble, monkeypatch):
        # the one solve is Lambda K's, for lambda_area_drop; the audit reads
        # no area of Lambda K*
        solves = []
        solve = ops._solve_curvature
        monkeypatch.setattr(ops, "_solve_curvature", lambda f: solves.append(f) or solve(f))
        deficit_report(wobble)
        assert len(solves) == 1


class TestFuzz:
    def test_small_campaign_clean(self):
        rep = fuzz_campaign(40, seed=2024)
        assert rep.worst() >= -1e-9
        assert rep.checks["lutwak_residual_rel"]["max"] <= 1e-5
        assert rep.count == 40

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_campaign_reports_the_body_audit(self, seed):
        # one body: every check is that body's own gap, bit for bit
        report = fuzz_campaign(1, seed, 64)
        gaps, residual = deficit_report(random_body(lab._fuzz_spec(seed, 0, 64)))
        assert {name: c["min_gap"] for name, c in report.checks.items() if "min_gap" in c} == gaps
        assert report.checks["lutwak_residual_rel"] == {"max": residual, "argmax_seed": seed}

    def test_campaign_check_names(self):
        assert set(fuzz_campaign(2, seed=5, n=64).checks) == {
            "bp_deficit", "santalo_gap", "petty_gap", "groemer_vs_disk", "groemer_vs_prev",
            "minkowski_vs_disk", "minkowski_vs_prev", "lambda_area_drop",
            "affine_bracket_low", "affine_bracket_high", "lutwak_residual_rel"}

    @pytest.mark.parametrize("count, seed, n", [(1, 0, 64), (2, 5, 64), (49, 7, 64),
                                                (25, 1, 256), (30, 2, 128)])
    def test_row_blocks_give_the_per_body_loop(self, count, seed, n):
        # blocks of 48, 12 and 24 rows at n = 64, 256 and 128: the last three
        # campaigns pair bodies across block edges
        assert fuzz_campaign(count, seed, n).as_dict() == \
            oracles.fuzz_campaign(count, seed, n).as_dict()

    def test_campaign_deterministic(self):
        a = fuzz_campaign(10, seed=9)
        b = fuzz_campaign(10, seed=9)
        assert a.as_dict() == b.as_dict()

    def test_campaigns_refuse_bad_inputs_before_any_body(self, monkeypatch):
        monkeypatch.setattr(lab, "_random_rows", lambda specs: pytest.fail("a body was made"))
        with pytest.raises(ValueError, match="got -1"):
            fuzz_campaign(2, seed=-1, n=64)
        with pytest.raises(ValueError, match="got -3"):
            stability_experiment(10, seed=-3, n=64)
        # the third recipe has 2 * mode_count >= n/4 at n=32
        with pytest.raises(ValueError, match="highest mode 8 must stay below n/4 = 8"):
            fuzz_campaign(5, seed=1, n=32)


@pytest.fixture()
def deficit_calls(monkeypatch):
    """A list whose length counts the rows ``lab.bp_deficit`` evaluates from here on."""
    calls = []
    original = lab.bp_deficit

    def counted(h):
        calls.extend([None] * (h.samples.size // h.n))
        return original(h)

    monkeypatch.setattr(lab, "bp_deficit", counted)
    return calls


def targeted(base, target):
    """The one lane of ``_deficit_targeted_bodies`` for ``base``: its body's
    samples, deficit and deficit count."""
    bodies, eps, evaluations = _deficit_targeted_bodies(base.samples[None], [target])
    return bodies[0], float(eps[0]), int(evaluations[0])


class TestDeficitTarget:
    @pytest.mark.parametrize("n", [64, 128])
    def test_lands_on_every_target_in_few_deficits(self, n, deficit_calls):
        for seed in range(10):
            base = _stability_base(seed, n)
            base_eps = bp_deficit(base)
            for target in np.geomspace(1e-6, 1e-1, 12):
                deficit_calls.clear()
                body, eps, evaluations = targeted(base, float(target))
                assert evaluations == len(deficit_calls)
                if base_eps < target:  # unreachable: the base, with its own deficit
                    assert np.array_equal(body, base.samples) and eps == base_eps
                    continue
                # the base's deficit and at most five steps (the bisection takes up to 15)
                assert len(deficit_calls) <= 6, (seed, target, len(deficit_calls))
                assert abs(eps - target) <= DEFICIT_RTOL * target, (seed, target)
                assert eps == bp_deficit(SupportFn(body))

    def test_secant_steps_stay_inside_the_bracket(self, monkeypatch):
        # a deficit whose slope jumps at lam = 0.05 throws secant steps out of
        # the bracket; each must fall back to the bracket's midpoint
        def deficit_of(lam):
            return lam ** 2 if lam < 0.05 else 0.0025 + 50.0 * (lam - 0.05)

        lams = []

        def deficit(h):  # lam read back from the body (1 - lam) disk + lam base
            lams.append((h.samples[0, 0] - 1.0) / 0.2)
            return np.array([deficit_of(lams[-1])])

        monkeypatch.setattr(lab, "bp_deficit", deficit)
        base = SupportFn(1.0 + 0.2 * np.cos(2.0 * angles(64)))
        target = 0.01
        _, eps, evaluations = targeted(base, target)
        assert abs(eps - target) <= DEFICIT_RTOL * target
        assert evaluations == len(lams) <= 12  # 25 without the guard
        lo, hi = 0.0, 1.0
        for lam in lams[1:]:
            assert lo < lam < hi, (lam, lo, hi)
            if deficit_of(lam) < target:
                lo = lam
            else:
                hi = lam

    def test_campaign_deficit_count(self, deficit_calls):
        res = stability_experiment(20, seed=1, n=128)
        assert res.deficit_evaluations == len(deficit_calls)
        assert len(deficit_calls) <= 100  # the bisection makes 188

    def test_sample_seed_names_its_body(self):
        # every retry misses the targets of samples 16-19 (seed 1, n=128), so
        # those keep the best of six bodies, not the last one tried
        res = stability_experiment(20, seed=1, n=128)
        targets = np.geomspace(lab.EPS_LOW, lab.EPS_HIGH, 20)
        for sample, target in zip(res.samples, targets):
            base = _stability_base(sample.seed, 128)
            assert targeted(base, float(target))[1] == sample.eps, sample


class TestLockstep:
    """The stacked deficit and the lockstep root-finder against one body and
    one sample at a time (``oracles``), bit for bit."""

    def test_stacked_deficit_rows_equal_each_body_alone(self, monkeypatch):
        # stretches sigma = 1, 1.44, 3.24 and 9 take the radial grids q = 2,
        # 4, 8 and 16; the stability bases bring deficits far from zero
        bodies = [ellipse(1.8, 1.0, 0.7, 128), disk(1.0, 128), ellipse(3.0, 1.0, 1.1, 128),
                  ellipse(1.2, 1.0, 0.2, 128)] + [_stability_base(s, 128) for s in range(4)]
        grids = []
        sums = support._radial_sums
        monkeypatch.setattr(support, "_radial_sums",
                            lambda f, half, m, p: (grids.append(m // half), sums(f, half, m, p))[1])
        got = bp_deficit(SupportFn([b.samples for b in bodies]))
        assert sorted(set(grids)) == [2, 4, 8, 16]
        for i, body in enumerate(bodies):
            assert got[i] == bp_deficit(body) == oracles.bp_deficit(body), i

    def test_stacked_deficit_checks_every_row(self):
        rows = np.array([_stability_base(s, 64).samples for s in range(3)])
        rows[2] = 1.0 + 0.5 * np.cos(2.0 * angles(64))
        with pytest.raises(NonConvex, match="^row 2: min curvature"):
            bp_deficit(SupportFn(rows))

    @pytest.mark.parametrize("n", [64, 128])
    def test_every_lane_gives_the_scalar_root_finder(self, n):
        bases = [_stability_base(seed, n) for seed in range(10)]
        lanes = [(base, float(t)) for base in bases for t in np.geomspace(1e-6, 1e-1, 12)]
        bodies, eps, evaluations = _deficit_targeted_bodies(
            np.array([base.samples for base, _ in lanes]), [t for _, t in lanes])
        for (base, target), body, e, calls in zip(lanes, bodies, eps, evaluations):
            want_body, want_eps, want_calls = oracles.deficit_targeted_body(base, target)
            assert body.tobytes() == want_body.samples.tobytes(), target
            assert (e, calls) == (want_eps, want_calls), target

    @pytest.mark.parametrize("seed", [1, 2])
    def test_campaign_gives_the_per_sample_loop(self, seed):
        res = stability_experiment(20, seed=seed, n=128)
        samples, evaluations = oracles.stability_samples(20, seed, 128)
        assert res.deficit_evaluations == evaluations
        np.testing.assert_array_equal([astuple(s) for s in res.samples],
                                      [astuple(s) for s in samples])
        # a wave's rounds are its busiest lane's deficits: fewer than all of them
        assert res.bases >= 20 and res.deficit_rounds < res.deficit_evaluations


def _row(value, i=None):
    """Row i of a row-wise result as bytes, or the whole of a one-body result."""
    if isinstance(value, tuple):
        return tuple(_row(v, i) for v in value)
    if isinstance(value, dict):
        return {name: _row(v, i) for name, v in value.items()}
    samples = np.asarray(value.samples if isinstance(value, SupportFn) else value, dtype=float)
    return (samples if i is None else samples[i]).tobytes()


ROW_WISE = {
    "area": area,
    "perimeter": perimeter,
    "scaled": lambda h: scaled(h, 1.7),
    "apply_linear_map": lambda h: apply_linear_map(h, [[1.3, 0.4], [-0.2, 0.9]]),
    "polar_area": ops.polar_area,
    "centroid_body": ops.centroid_body,
    "projection_body": ops.projection_body,
    "curvature_image": ops.curvature_image,
    "mixed_volume": lambda h: ops.mixed_volume(h, disk(1.0, h.n)),
    "bp_deficit": bp_deficit,
    "deficit_report": deficit_report,
}


class TestRowByRow:
    """A function of a body gives each row of a stack what it gives that row alone."""

    @pytest.mark.parametrize("name", ROW_WISE)
    def test_each_row_gives_what_it_gives_alone(self, name, fuzz_bodies):
        fn = ROW_WISE[name]
        got = fn(SupportFn([body.samples for body in fuzz_bodies[:3]]))
        for i, body in enumerate(fuzz_bodies[:3]):
            assert _row(got, i) == _row(fn(body)), (name, i)

    def test_one_body_against_a_stack_of_as_many_rows_as_nodes(self):
        # R = n = 16: contracting the wrong axis would pass the shape checks
        rows = lab._random_rows([BodySpec(seed=s, n=16, mode_count=1) for s in range(16)])[0]
        unit = disk(1.0, 16)
        for fn in (lambda h: ops.mixed_volume(h, unit), lambda h: ops.mixed_volume(unit, h)):
            got = fn(SupportFn(rows))
            assert got.shape == (16,)
            assert got.tolist() == [fn(SupportFn(row)) for row in rows]


class TestStability:
    def test_mini_run(self):
        res = stability_experiment(12, seed=77)
        eps = np.array([s.eps for s in res.samples])
        d1 = np.array([s.d_bm_minus_1 for s in res.samples])
        assert np.all(d1 <= res.gamma * eps ** 0.25 + 1e-12)
        assert np.isfinite(res.gamma)
        assert abs(res.control_eps) < 1e-6
        assert abs(res.control_d_minus_1) < 1e-6
        assert eps.max() > 1e-2

    def test_rejects_tiny_count(self):
        with pytest.raises(ValueError):
            stability_experiment(5, seed=1)

    def test_zero_deficit_implies_near_disk(self):
        # equality-case consistency: vanishing deficit forces d_bm near 1
        from centroflow import banach_mazur_to_disk
        for body in (ellipse(1.8, 0.9, 0.7, 256), ellipse(1.1, 1.0, 0.0, 256)):
            assert abs(bp_deficit(body)) <= 1e-6
            assert banach_mazur_to_disk(body).distance <= 1.0 + 1e-2
