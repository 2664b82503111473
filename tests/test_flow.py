import dataclasses
import io
import time
import warnings

import numpy as np
import pytest

from centroflow import (
    BodySpec,
    ConvexityLost,
    FlowConfig,
    StepUnderflow,
    SupportFn,
    apply_linear_map,
    area,
    banach_mazur_to_disk,
    conservation_checks,
    disk,
    ellipse,
    flow_run,
    harnack_and_bounds_monitor,
    random_body,
    sl2_normalize,
)
from centroflow import flow
from centroflow.flow import (TRACE_CSV_COLUMNS, _kept_mode_tables, _later_stages,
                             gated_central_difference)
from centroflow.normalize import family_map
from centroflow.spectral import angles

from conftest import near_floor_body
import oracles


@pytest.fixture(scope="module")
def disk_trace():
    cfg = FlowConfig(cfl=0.1, t_stop=0.15, renormalize_every=25)
    return flow_run(disk(1.0, 128), cfg)


@pytest.fixture(scope="module")
def wobble_trace():
    th = angles(128)
    h0 = SupportFn(1 + 0.2 * np.cos(2 * th))
    cfg = FlowConfig(cfl=0.1, t_stop=0.12, renormalize_every=25)
    return flow_run(h0, cfg)


class TestDiskRun:
    def test_matches_exact_radius_law(self, disk_trace):
        exact = oracles.disk_flow_radius(disk_trace.t)
        for i in range(disk_trace.rows):
            assert np.max(np.abs(disk_trace.h_rows[i] - exact[i])) < 1e-9

    def test_value_at_t015(self, disk_trace):
        assert disk_trace.t[-1] == pytest.approx(0.15, abs=1e-14)
        assert disk_trace.h_rows[-1][0] == pytest.approx(
            0.4 ** 0.25, rel=1e-9)

    def test_extinction_estimate(self, disk_trace):
        assert disk_trace.estimated_T == pytest.approx(0.25, abs=1e-6)

    def test_areas_strictly_decreasing(self, disk_trace):
        assert np.all(np.diff(disk_trace.area) < 0)
        assert np.all(np.diff(disk_trace.t) > 0)

    def test_normalized_row_is_disk(self, disk_trace):
        body, _ = sl2_normalize(disk_trace.row_body(-1))
        assert np.max(np.abs(body.samples - 1.0)) < 1e-10
        assert disk_trace.norm_disk_dist[-1] < 1e-10


class TestEquivarianceOracle:
    def test_sl2_ellipse_follows_scaled_solution(self):
        # for det-1 maps the ellipse solution is the scaled initial ellipse
        phi = np.diag([1.5, 1 / 1.5]) @ family_map(1.0, 0.5)
        e0 = apply_linear_map(disk(1.0, 128), phi)
        cfg = FlowConfig(cfl=0.1, t_stop=0.12, renormalize_every=50)
        tr = flow_run(e0, cfg)
        for i in range(tr.rows):
            want = oracles.disk_flow_radius(tr.t[i]) * e0.samples
            assert np.max(np.abs(tr.h_rows[i] - want)) < 1e-5

    def test_normalized_rows_of_ellipse_run_are_disk(self):
        phi = np.diag([1.4, 1 / 1.4])
        e0 = apply_linear_map(disk(1.0, 128), phi)
        cfg = FlowConfig(cfl=0.1, t_stop=0.1, renormalize_every=100)
        tr = flow_run(e0, cfg)
        for i in range(tr.rows):
            body, _ = sl2_normalize(tr.row_body(i))
            assert np.max(np.abs(body.samples - 1.0)) < 1e-5


class TestSl2Row:
    def test_radii_match_polygon_oracle(self, seeded_trace):
        # the radii are read at the perimeter-minimal map, the normalization's
        tr = seeded_trace
        for i in range(tr.rows):
            witness = sl2_normalize(tr.row_body(i))[1]
            inner, outer = oracles.polygon_radii(tr.row_body(i), witness, m=1 << 14)
            assert tr.r_minus[i] == pytest.approx(inner, rel=1e-6)
            assert tr.r_plus[i] == pytest.approx(outer, rel=1e-6)

    def test_norm_disk_dist_reads_the_radii(self, seeded_trace):
        tr = seeded_trace
        scale = np.sqrt(np.pi / tr.area)
        want = np.maximum(tr.r_plus * scale - 1.0, 1.0 - tr.r_minus * scale)
        assert np.array_equal(tr.norm_disk_dist, want)

    def test_banach_mazur_depends_on_the_row_only(self, seeded_trace):
        # the search from the row's own perimeter minimum, the one
        # banach_mazur_to_disk makes
        tr = seeded_trace
        for i in range(tr.rows):
            assert banach_mazur_to_disk(tr.row_body(i)).distance == tr.d_bm[i]


class TestRowBlocks:
    """The monitors of a block of rows are those of each row alone."""

    ARRAY_FIELDS = [f.name for f in dataclasses.fields(flow.FlowTrace)
                    if f.type == "np.ndarray"]
    monitor_rows = staticmethod(flow._monitor_rows)  # the pass, unpatched

    def run(self, monkeypatch, cfg):
        """A run of the seed-1 flow-seeded body, the stored rows (t, h, S, V)
        its monitor pass received, and the number of rows each search block
        held."""
        received, blocks = [], []
        searches = flow.sl2_searches
        monkeypatch.setattr(flow, "_monitor_rows",
                            lambda *rows: (received.extend(rows), self.monitor_rows(*rows))[1])
        monkeypatch.setattr(flow, "sl2_searches",
                            lambda h: (blocks.append(len(h)), searches(h))[1])
        body = random_body(BodySpec(seed=1, n=64, mode_count=3, decay=1.6, amplitude=0.5))
        started = time.perf_counter()
        trace = flow_run(body, cfg)
        wall = time.perf_counter() - started
        assert 0.0 < trace.stepper_s and 0.0 < trace.monitor_s
        assert trace.stepper_s + trace.monitor_s <= wall
        return trace, received, blocks

    def check_rows_alone(self, trace, received):
        for i in range(trace.rows):
            one = self.monitor_rows(*(col[i:i + 1] for col in received))
            for name in self.ARRAY_FIELDS:
                assert np.array_equal(one[name][0], getattr(trace, name)[i]), (i, name)

    @pytest.mark.parametrize("rows", [1, flow.ROW_BLOCK - 1, flow.ROW_BLOCK,
                                      flow.ROW_BLOCK + 1])
    def test_columns_equal_each_row_alone(self, monkeypatch, rows):
        # one row a step, stopped by the step cap after rows - 1 steps
        monkeypatch.setattr(flow, "MAX_STEPS", rows - 1)
        trace, received, blocks = self.run(monkeypatch, FlowConfig(renormalize_every=1))
        assert trace.rows == rows and trace.stop_reason == "max_steps"
        assert max(blocks) <= flow.ROW_BLOCK and sum(blocks) == rows
        self.check_rows_alone(trace, received)

    def test_dropped_t_stop_row_is_never_monitored(self, monkeypatch):
        # the one step records a second row, which the run drops
        trace, received, blocks = self.run(monkeypatch, FlowConfig(t_stop=1e-300))
        assert trace.steps == 1 and trace.rows == 1
        assert received[0].size == 1 and blocks == [1]
        self.check_rows_alone(trace, received)

    def test_run_records_where_its_time_went(self, seeded_trace):
        assert seeded_trace.stepper_s > 0.0 and seeded_trace.monitor_s > 0.0


class TestConservation:
    def test_disk_area_law(self, disk_trace):
        rep = conservation_checks(disk_trace)
        assert rep.area_law_max_rel_dev < 1e-4
        assert rep.min_ca2_monotone
        assert rep.polar_law_max_rel_dev < 1e-2

    def test_wobble_area_law(self, wobble_trace):
        rep = conservation_checks(wobble_trace)
        assert rep.area_law_max_rel_dev < 1e-3
        assert rep.min_ca2_monotone

    def test_short_trace_is_refused(self):
        # too few rows for the monitor: it returns None instead of a report
        tr = flow_run(disk(1.0, 64), FlowConfig(t_stop=0.01, renormalize_every=50))
        assert tr.rows < 10
        assert conservation_checks(tr) is None

    def test_unresolved_polar_law_is_none(self):
        # a row every 50 steps at cfl 0.5 is too coarse for the stride gate:
        # no row is checked, and both deviations say so instead of 0.0 or NaN
        body = random_body(BodySpec(seed=1, n=64, mode_count=3, decay=1.6, amplitude=0.5))
        tr = flow_run(body, FlowConfig(cfl=0.5, t_stop_area=1e-3, renormalize_every=50))
        rep = conservation_checks(tr)
        assert tr.rows >= 10
        assert rep.rows_checked == 0
        assert rep.polar_law_max_rel_dev is None
        assert rep.area_law_max_rel_dev is None

    def test_ratio_monotone_and_rhs_match(self, wobble_trace):
        tr = wobble_trace
        assert np.all(np.diff(tr.bp_ratio) <= 1e-8)
        deriv, mask = gated_central_difference(tr.t, tr.bp_ratio)
        sel = mask & (np.abs(deriv) > 1e-6)
        assert np.count_nonzero(sel) > 10
        rel = np.abs(deriv[sel] - tr.bp_rhs[sel]) / np.abs(deriv[sel])
        assert np.max(rel) < 1e-3


class TestHarnackMonitor:
    def test_disk(self, disk_trace):
        rep = harnack_and_bounds_monitor(disk_trace)
        assert rep.harnack_ok
        assert rep.shrinking_ok
        assert rep.displacement_ok
        assert rep.sandwich_ok
        # (T - t) G / h^3 is exactly 1/4 on the disk
        assert rep.band_low == pytest.approx(0.25, abs=1e-6)
        assert rep.band_high == pytest.approx(0.25, abs=1e-6)
        assert rep.first_round_time == pytest.approx(0.0)

    def test_wobble(self, wobble_trace):
        rep = harnack_and_bounds_monitor(wobble_trace)
        assert rep.harnack_ok
        assert rep.shrinking_ok
        assert rep.displacement_ok


class TestStepperIntegrity:
    def test_symmetry_preserved(self, wobble_trace):
        for i in (0, wobble_trace.rows // 2, wobble_trace.rows - 1):
            h = wobble_trace.h_rows[i]
            assert np.max(np.abs(h - np.roll(h, h.size // 2))) <= \
                1e-10 * np.max(h)

    def test_temporal_order(self):
        errs = []
        for cfl in (0.25, 0.125):
            cfg = FlowConfig(cfl=cfl, t_stop=0.2, renormalize_every=10_000)
            tr = flow_run(disk(1.0, 32), cfg)
            errs.append(abs(tr.h_rows[-1][0] - oracles.disk_flow_radius(0.2)))
        order = np.log2(errs[0] / errs[1])
        assert order > 3.8

    def test_temporal_order_non_disk(self):
        # the disk has the k = 0 mode only; a random body carries the modes
        # up to n/3, and every RK4 stage must stay on them for fourth order
        body = random_body(BodySpec(seed=1, n=64, mode_count=3, decay=1.6, amplitude=0.5))
        final = {}
        for cfl in (0.1, 0.05, 0.0125):
            cfg = FlowConfig(cfl=cfl, t_stop=0.15, renormalize_every=10_000)
            final[cfl] = flow_run(body, cfg).h_rows[-1]
        errs = [np.max(np.abs(final[cfl] - final[0.0125])) for cfl in (0.1, 0.05)]
        assert np.log2(errs[0] / errs[1]) >= 3.8

    def test_rows_match_grid_space_reference(self, seeded_trace):
        # the stages run on kept-mode coefficients on the half grid; the
        # reference runs them on full-grid samples with FFT masks, so the two
        # differ by rounding only
        tr = seeded_trace
        body = tr.row_body(0)
        t, rows = oracles.grid_rk4_rows(body.samples, tr.config.cfl,
                                        tr.config.renormalize_every, tr.steps)
        assert rows.shape == tr.h_rows.shape
        assert np.max(np.abs(tr.h_rows - rows)) <= 1e-12 * np.max(rows)
        assert tr.t == pytest.approx(t, rel=1e-10)

    def test_stage_convexity_check(self):
        # a later stage is [c phi; 1] @ [P | Y]^T, P = synth @ project: each
        # is Y moved by the previous stage's scaled speed through the kept
        # modes, and that speed is -c / (h^2 S) of the stage
        synth, project = _kept_mode_tables(64)
        th = angles(64)[:32]
        coef = project @ (1.0 + 0.1 * np.cos(2.0 * th))
        table = np.vstack([(synth @ project).T, synth @ coef])
        slopes, stages = np.ones((4, 33)), np.empty((3, 64))
        slopes[0, :-1] = 0.1 * np.cos(2.0 * th)  # stage 2 is 1 + 0.2 cos 2 theta
        dt = 1e-3
        _later_stages(table, slopes, stages)(dt, 0.25)
        for i, c in enumerate((0.5 * dt, dt, dt)):
            assert np.max(np.abs(stages[i] - synth @ (coef + project @ slopes[i, :-1]))) <= 1e-12
            h, s = stages[i].reshape(2, -1)
            assert np.array_equal(slopes[i + 1, :-1], -c / (h * h * s))

    @pytest.mark.parametrize("stop_area", [1e-3, 1e3])
    def test_first_stage_is_checked_before_the_stop_tests(self, stop_area):
        # the body at the convexity floor loads (its S = -3e-12 is roundoff),
        # but its stage 1 is not convex: the run stops at t = 0, also when
        # its area is already below the stop area
        with pytest.raises(ConvexityLost) as err:
            flow_run(near_floor_body(), FlowConfig(t_stop_area=stop_area))
        assert err.value.t == 0.0

    # one point a side (n = 2): the table moves h alone or S alone from
    # Y = (1, 1) by each slope; stage 1's c phi and dt make the named stage
    # the first that is not positive, and the only one unless it is 0, which
    # divides by zero, or NaN, which runs on into the later stages
    @pytest.mark.parametrize("moves, slope, dt, bad, alone", [
        ("h", -2.0, 0.1, 2, True), ("h", 0.0, 8.0, 3, True), ("h", 0.0, 1.0, 4, True),
        ("S", -2.0, 1.0, 2, True), ("S", 0.0, 4.0, 3, True), ("S", 0.0, 1.0, 4, True),
        ("h", -1.0, 0.1, 2, False), ("S", np.nan, 1.0, 2, False),
    ], ids=["h2", "h3", "h4", "S2", "S3", "S4", "zero", "nan"])
    def test_every_later_stage_is_checked(self, moves, slope, dt, bad, alone):
        table = np.array([[1.0, 0.0] if moves == "h" else [0.0, 1.0], [1.0, 1.0]])
        slopes, stages = np.ones((4, 2)), np.empty((3, 2))
        slopes[0, 0] = slope
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # none may escape
            with pytest.raises(ConvexityLost) as err:
                _later_stages(table, slopes, stages)(dt, 0.5)
        assert err.value.t == 0.5
        positive = [bool(stage.min() > 0.0) for stage in stages]
        assert positive[:bad - 1] == [True] * (bad - 2) + [False]
        assert all(positive[bad - 1:]) == alone

    def test_state_stays_on_kept_modes(self):
        # the state is the kept-mode coefficients, so deep into extinction
        # the rows carry no odd modes and no even modes above n/3, and the
        # normalized body is the disk to roundoff.  Carrying the half-grid
        # (h, S) as the state instead drifts out of the kept space: on this
        # run it left 2.1e-14 above n/3 and a distance of 1.9e-13, against
        # 5.6e-17 and 3.1e-15 here
        body = random_body(BodySpec(seed=1, n=64, mode_count=3, decay=1.6, amplitude=0.5))
        tr = flow_run(body, FlowConfig(cfl=0.1, t_stop_area=1e-3, renormalize_every=25))
        h = tr.h_rows[-1]
        spectrum = np.abs(np.fft.rfft(h)) / (h.size * h.max())
        k = np.arange(spectrum.size)
        assert spectrum[k % 2 == 1].max() <= 5e-16
        assert spectrum[(k % 2 == 0) & (3 * k > h.size)].max() <= 5e-16
        assert tr.norm_disk_dist[-1] <= 3e-14

    def test_kept_mode_tables(self):
        # projection inverts synthesis on the kept modes (even k <= n/3), and
        # the S rows are h + h''
        n = 96
        synth, project = _kept_mode_tables(n)
        assert synth.shape == (n, 2 * (n // 6) + 1)
        assert np.max(np.abs(project @ synth[: n // 2] - np.eye(synth.shape[1]))) < 1e-14
        th = angles(n)[: n // 2]
        h = 1.0 + 0.1 * np.cos(2.0 * th) + 0.005 * np.sin(8.0 * th) + 2e-4 * np.cos(32.0 * th)
        s = 1.0 - 0.3 * np.cos(2.0 * th) - 0.315 * np.sin(8.0 * th) - 0.2046 * np.cos(32.0 * th)
        h_half, s_half = (synth @ (project @ h)).reshape(2, -1)
        assert np.max(np.abs(h_half - h)) < 1e-14
        assert np.max(np.abs(s_half - s)) < 1e-11  # 1 - k^2 scales rounding up to 1e3

    def test_spatial_resolution_already_converged(self):
        errs = {}
        for n in (128, 256):
            cfg = FlowConfig(cfl=0.1, t_stop=0.1, renormalize_every=10_000)
            tr = flow_run(disk(1.0, n), cfg)
            errs[n] = abs(tr.h_rows[-1][0] - oracles.disk_flow_radius(0.1))
        assert errs[256] <= max(2.0 * errs[128], 1e-10)

    def test_extinction_sandwich(self, wobble_trace):
        rep = harnack_and_bounds_monitor(wobble_trace)
        assert rep.sandwich_ok

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(cfl=0.0)
        with pytest.raises(ValueError):
            FlowConfig(cfl=0.7)
        with pytest.raises(ValueError):
            FlowConfig(t_stop_area=-1.0)
        # a Python caller can pass any value: no float cadence, no string for
        # a number
        with pytest.raises(ValueError):
            FlowConfig(renormalize_every=2.5)
        with pytest.raises(ValueError):
            FlowConfig(cfl="0.1")

    @pytest.mark.parametrize("body, stop_area", [
        (disk(1.0, 64), 1e-3),
        (random_body(BodySpec(seed=1, n=64, mode_count=3, decay=1.6, amplitude=0.5)), 0.3),
    ], ids=["disk", "seeded"])
    def test_scaled_body_flows_as_the_original(self, body, stop_area):
        # h -> lam h takes t to lam^4 t and areas to lam^2 areas; the step
        # floor scales with the body, so a small body runs the same steps
        lam = 1e-3
        tr = flow_run(body, FlowConfig(t_stop_area=stop_area))
        small = flow_run(SupportFn(lam * body.samples), FlowConfig(t_stop_area=stop_area * lam ** 2))
        assert (small.steps, small.rows) == (tr.steps, tr.rows)
        assert small.stop_reason == tr.stop_reason == "area_threshold"
        assert small.t / lam ** 4 == pytest.approx(tr.t, rel=1e-11)
        assert np.max(np.abs(small.h_rows / lam - tr.h_rows)) <= 1e-12 * np.max(tr.h_rows)

    @pytest.mark.parametrize("scale, dt", [(1e100, "inf"), (1e-100, "0")])
    def test_time_scale_out_of_range_raises_at_once(self, scale, dt):
        # tau = min h^3 S over- or underflows: the infinite first step, or the
        # zero one, is refused instead of repeated until MAX_STEPS
        started = time.perf_counter()
        with np.errstate(over="ignore", under="ignore"), \
                pytest.raises(StepUnderflow, match=f"^dt={dt} at t=0$"):
            flow_run(SupportFn(np.full(64, scale)), FlowConfig(t_stop_area=1e-300))
        assert time.perf_counter() - started < 5.0

    def test_step_cap_stops_the_run(self, monkeypatch):
        monkeypatch.setattr(flow, "MAX_STEPS", 3)
        tr = flow_run(disk(1.0, 64), FlowConfig(renormalize_every=2))
        assert tr.stop_reason == "max_steps"
        assert tr.steps == 3
        assert tr.rows == 3  # steps 0 and 2, and the stop


class TestTraceCsv:
    def test_columns_and_roundtrip(self, disk_trace):
        buf = io.StringIO()
        disk_trace.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ",".join(TRACE_CSV_COLUMNS)
        assert len(lines) == disk_trace.rows + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(np.pi, rel=1e-15)
