import contextlib
import io
import json
import os
import stat
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centroflow import CentroflowError, SupportFn, disk, ellipse, load_body, save_body
from centroflow import cli, lab
from centroflow.bodyio import body_from_dict, body_to_dict
from centroflow.cli import GAP_FLOOR, main
from centroflow.lab import FuzzReport, StabilityResult, StabilitySample
from centroflow.spectral import angles

from conftest import near_floor_body


@pytest.fixture()
def workdir(tmp_path):
    save_body(disk(1.0, 128), tmp_path / "disk.json")
    save_body(ellipse(1.5, 0.9, 0.4, 256), tmp_path / "ellipse.json")
    th = angles(256)
    bad = {"n": 256, "h": list(1 + 0.5 * np.cos(2 * th)), "symmetric": True}
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    # symmetric samples written without the "symmetric" key
    unflagged = {"n": 64, "h": list(ellipse(1.3, 0.8, 0.5, 64).samples)}
    (tmp_path / "unflagged.json").write_text(json.dumps(unflagged))
    return tmp_path


# Arbitrary JSON values, and objects that use the body keys with arbitrary
# values.
_JSON_KEYS = st.sampled_from(["h", "n", "fourier", "a", "b", "symmetric"]) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=20) | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=40)
_BODY_JSON = _JSON | st.fixed_dictionaries({}, optional={
    "h": _JSON | st.lists(st.floats(0.9, 1.1), min_size=16, max_size=16),
    "n": _JSON | st.integers(8, 128).map(lambda k: 2 * k),
    "fourier": _JSON | st.fixed_dictionaries({}, optional={
        "a": _JSON | st.lists(st.floats(-0.05, 1.0), max_size=12),
        "b": _JSON | st.lists(st.floats(-0.05, 0.05), max_size=12)}),
    "symmetric": _JSON})


class TestBodyJson:
    def test_grid_roundtrip(self, tmp_path, wobble):
        path = tmp_path / "w.json"
        save_body(wobble, path)
        back = load_body(path)
        assert np.max(np.abs(back.samples - wobble.samples)) < 1e-15

    def test_fourier_form_accepted(self):
        body = body_from_dict({
            "n": 64,
            "fourier": {"a": [1.0, 0.0, 0.2], "b": [0.0, 0.05]},
            "symmetric": True,
        })
        th = angles(64)
        want = 1.0 + 0.2 * np.cos(2 * th) + 0.05 * np.sin(2 * th)
        assert np.max(np.abs(body.samples - want)) < 1e-13

    def test_fourier_form_keeps_the_nyquist_cosine(self):
        # a[8] is the Nyquist cosine of n = 16 and b[5] the sine of mode 6:
        # both ends of from_coeffs read the constant and Nyquist entries real
        body = body_from_dict({"n": 16, "fourier": {"a": [1.0] + [0.0] * 7 + [1e-3],
                                                    "b": [0.0] * 5 + [1e-3]}})
        th = angles(16)
        want = 1.0 + 1e-3 * np.cos(8 * th) + 1e-3 * np.sin(6 * th)
        assert np.max(np.abs(body.samples - want)) <= 1e-15

    def test_writer_emits_grid_form(self, wobble):
        data = body_to_dict(wobble)
        assert set(data) == {"n", "h", "symmetric"}

    def test_fourier_lists_fit_the_grid(self):
        # n = 16 holds cosines 0..8 and sines 1..7; the sine at 8 vanishes on the grid
        body = body_from_dict({"n": 16, "fourier": {"a": [1.0] + [0.0] * 8, "b": [0.0] * 7}})
        assert body.n == 16
        with pytest.raises(ValueError, match="fourier a has at most 9 entries"):
            body_from_dict({"n": 16, "fourier": {"a": [1.0] + [0.0] * 9}})
        with pytest.raises(ValueError, match="fourier b has at most 7 entries"):
            body_from_dict({"n": 16, "fourier": {"a": [1.0], "b": [0.0] * 8}})

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            body_from_dict({"n": 32, "h": [1.0] * 64})

    @settings(max_examples=400)
    @given(data=_BODY_JSON)
    @example(data="hello")
    @example(data={"n": 64, "fourier": 5})
    @example(data={"n": None, "fourier": {"a": [1.0]}})
    @example(data={"n": 64, "fourier": {"a": [1.0, 10 ** 400]}})
    @example(data={"n": 10 ** 400, "fourier": {"a": [1.0]}})
    def test_any_json_is_a_body_or_a_clean_error(self, data):
        try:
            assert isinstance(body_from_dict(data), SupportFn)
        except (ValueError, CentroflowError):
            pass


class TestOpCommand:
    def test_centroid_of_disk(self, workdir, capsys):
        rc = main(["op", "centroid", "--body", str(workdir / "disk.json")])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert np.allclose(data["h"], 4 / (3 * np.pi), atol=1e-10)

    def test_removed_steiner_command_is_exit_2(self, workdir, capsys):
        body = str(workdir / "disk.json")
        for argv, why in ((["op", "steiner", "--body", body], "invalid choice: 'steiner'"),
                          (["op", "polar", "--body", body, "--axis", "0.5"],
                           "unrecognized arguments: --axis 0.5")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert why in capsys.readouterr().err

    def test_bm_of_ellipse(self, workdir, capsys):
        rc = main(["op", "bm", "--body", str(workdir / "ellipse.json")])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["distance"] == pytest.approx(1.0, abs=1e-4)

    def test_normalize_of_ellipse_is_disk(self, workdir, capsys):
        rc = main(["op", "normalize", "--body", str(workdir / "ellipse.json")])
        assert rc == 0
        out, err = capsys.readouterr()
        assert np.max(np.abs(np.array(json.loads(out)["h"]) - 1.0)) <= 1e-12
        line, = [ln for ln in err.splitlines() if ln.startswith("witness: ")]
        witness = np.array(json.loads(line.removeprefix("witness: ")))
        assert np.linalg.det(witness) == pytest.approx(1.0, abs=1e-12)

    def test_proj_of_body_at_convexity_floor(self, tmp_path, capsys):
        body = near_floor_body()
        save_body(body, tmp_path / "floor.json")
        rc = main(["op", "proj", "--body", str(tmp_path / "floor.json")])
        assert rc == 0
        want = 2.0 * np.roll(body.samples, -body.n // 4)
        assert np.max(np.abs(np.array(json.loads(capsys.readouterr().out)["h"]) - want)) < 1e-12

    def test_failed_write_is_exit_3_and_leaves_no_temp_file(self, workdir, capsys):
        # the rename onto an existing directory fails after the temp file is written
        target = workdir / "taken"
        target.mkdir()
        assert main(["op", "polar", "--body", str(workdir / "disk.json"),
                     "--out", str(target)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not list(workdir.glob("*.tmp")) and not os.listdir(target)

    def test_lambda_of_ellipse_is_fixed_point(self, workdir, capsys):
        rc = main(["op", "lambda", "--body", str(workdir / "ellipse.json")])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        orig = load_body(workdir / "ellipse.json")
        assert np.max(np.abs(np.array(data["h"]) - orig.samples)) <= 1e-7

    @pytest.mark.parametrize("claim", [{}, {"symmetric": False}])
    def test_symmetry_is_read_from_the_samples(self, workdir, capsys, claim):
        path = workdir / "claim.json"
        path.write_text(json.dumps({**json.loads((workdir / "unflagged.json").read_text()),
                                    **claim}))
        assert main(["op", "centroid", "--body", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["symmetric"] is True

    def test_nonconvex_body_is_exit_2(self, workdir, capsys):
        rc = main(["op", "polar", "--body", str(workdir / "bad.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_exit_3(self, workdir, capsys):
        rc = main(["op", "polar", "--body", str(workdir / "nope.json")])
        assert rc == 3

    def test_polar_of_a_stretched_body_is_written_on_a_finer_grid(self, tmp_path, capsys):
        # convex at 64 nodes, its polar only at 256
        save_body(lab._stability_base(4, 64), tmp_path / "base.json")
        assert main(["op", "polar", "--body", str(tmp_path / "base.json")]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == len(data["h"]) == 256
        SupportFn(np.array(data["h"]))

    def test_out_file(self, workdir):
        out = workdir / "polar.json"
        rc = main(["op", "polar", "--body", str(workdir / "disk.json"),
                   "--out", str(out)])
        assert rc == 0
        assert load_body(out).samples[0] == pytest.approx(1.0, abs=1e-10)


class TestFlowCommand:
    def test_disk_run_outputs(self, workdir):
        out = workdir / "run"
        rc = main(["flow", "--body", str(workdir / "disk.json"),
                   "--out", str(out), "--t-stop", "0.05", "--every", "20"])
        assert rc == 0
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert lines[0] == ("t,area,polar_area,bp_ratio,min_S,max_ca2,"
                            "max_ca3,d_bm,harnack")
        report = json.loads((out / "report.json").read_text())
        assert report["estimated_T"] == pytest.approx(0.25, abs=1e-6)
        final_bp = float(lines[-1].split(",")[3])
        assert final_bp == pytest.approx((4 / (3 * np.pi)) ** 2, abs=1e-6)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"]
        assert "trace.csv" in manifest["outputs"]
        assert len(manifest["input_sha256"]) == 64
        timings = manifest["timings"]
        assert timings["rows"] == len(lines) - 1 and timings["steps"] == report["steps"]
        assert timings["stepper_s"] > 0.0 and timings["monitor_s"] > 0.0
        # each row is evaluated at least once, in at least one search round
        assert timings["search_evaluations"] >= timings["rows"]
        assert 1 <= timings["search_rounds"] <= timings["search_evaluations"]

    def test_frames_emitted(self, workdir):
        out = workdir / "run_frames"
        frames = out / "frames"
        rc = main(["flow", "--body", str(workdir / "disk.json"),
                   "--out", str(out), "--frames", str(frames),
                   "--t-stop", "0.02", "--every", "50"])
        assert rc == 0
        files = sorted(os.listdir(frames))
        assert files[0] == "frame_000000.svg"
        text = (frames / files[0]).read_text()
        assert "viewBox=\"-2 -2 4 4\"" in text
        assert "polyline" in text

    def test_frames_outside_out_not_in_manifest(self, workdir):
        # "run2" shares the prefix "run" but is not inside it
        rc = main(["flow", "--body", str(workdir / "disk.json"),
                   "--out", str(workdir / "run"), "--frames", str(workdir / "run2" / "frames"),
                   "--t-stop", "0.02", "--every", "50"])
        assert rc == 0
        assert os.listdir(workdir / "run2" / "frames")
        manifest = json.loads((workdir / "run" / "manifest.json").read_text())
        assert manifest["outputs"] == ["report.json", "trace.csv"]

    def test_body_without_symmetric_key_flows(self, workdir):
        rc = main(["flow", "--body", str(workdir / "unflagged.json"),
                   "--out", str(workdir / "r3"), "--t-stop", "0.01", "--every", "20"])
        assert rc == 0

    def test_nonconvex_body_exit_2(self, workdir, capsys):
        rc = main(["flow", "--body", str(workdir / "bad.json"),
                   "--out", str(workdir / "r2")])
        assert rc == 2
        assert "t=0" in capsys.readouterr().err

    def test_short_run_report_is_strict_json(self, workdir):
        out = workdir / "short"
        rc = main(["flow", "--body", str(workdir / "disk.json"), "--out", str(out),
                   "--t-stop", "1e-6", "--every", "1"])
        assert rc == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads((out / "report.json").read_text(),
                            parse_constant=reject)
        assert report["estimated_T"] is None
        harnack = report["harnack"]
        for key in ("harnack_worst_drop", "band_low", "band_high",
                    "sandwich_ok", "first_round_time"):
            assert harnack[key] is None, key
        assert harnack["shrinking_ok"] is True

    def test_t_stop_below_one_step_ends_at_the_last_moving_row(self, workdir):
        # the step clipped to t_stop = 1e-300 cannot lower the area, so the
        # trace ends at the row before it and the run still stops on t_stop
        out = workdir / "tiny"
        assert main(["flow", "--body", str(workdir / "disk.json"), "--out", str(out),
                     "--t-stop", "1e-300"]) == 0
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert len(lines) == 2 and lines[1].startswith("0,")
        report = json.loads((out / "report.json").read_text(), parse_constant=pytest.fail)
        assert report["stop_reason"] == "t_stop"
        assert report["steps"] == 1

    def test_step_underflow_is_exit_2(self, workdir, capsys):
        # the first step, cfl * (CFL limit), is below the dt floor at t = 0
        out = workdir / "under"
        assert main(["flow", "--body", str(workdir / "disk.json"), "--out", str(out),
                     "--cfl", "1e-300"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dt=") and err.endswith(" at t=0\n"), err
        assert err.count("\n") == 1 and not out.exists()

    def test_overflowed_time_scale_is_exit_2_at_once(self, workdir, capsys):
        # tau = min h^3 S overflows to inf, so the first dt is inf: refused at
        # t = 0, not stepped as NaN states up to the step cap
        (workdir / "big.json").write_text(json.dumps({"n": 64, "h": [1e100] * 64}))
        out = workdir / "big"
        assert main(["flow", "--body", str(workdir / "big.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: dt=inf at t=0\n"
        assert not out.exists()

    def test_underflowed_disk_monitors_are_exit_2(self, workdir, capsys):
        # a valid disk already below the stop area: its one row's max_ca3
        # overflows to inf, which the trace must not record
        (workdir / "tiny.json").write_text(json.dumps({"n": 64, "h": [1e-100] * 64}))
        out = workdir / "tiny"
        assert main(["flow", "--body", str(workdir / "tiny.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the monitor column ") and err.count("\n") == 1, err
        assert "max_ca3" in err and "t=0" in err
        assert not out.exists()

    def test_grid_above_cap_says_regrid(self, workdir, capsys):
        save_body(disk(1.0, 1024), workdir / "disk1024.json")
        for argv in (["--body", str(workdir / "disk1024.json")],
                     ["--body", str(workdir / "disk.json"), "--n", "1024"]):
            assert main(["flow", *argv, "--out", str(workdir / "big")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "regrid with --n" in err
            assert not (workdir / "big").exists()
        # regridding the large body down runs
        assert main(["flow", "--body", str(workdir / "disk1024.json"), "--n", "512",
                     "--out", str(workdir / "big"), "--t-stop", "1e-4"]) == 0


# flow flags, valid and invalid, spelled "--flag=value" so that a negative
# value is not read as an option; --t-stop keeps every run to at most 1e-3
_NOT_POSITIVE = st.sampled_from([0.0, -1e-4, float("nan")])
_FLOW_FLAGS = st.fixed_dictionaries({
    "--t-stop": st.floats(0.0, 1e-3, exclude_min=True) | _NOT_POSITIVE,
}, optional={
    "--n": st.sampled_from([16, 32, 64, 128]) | st.integers(-4, 600),
    "--cfl": st.floats(0.05, 0.5) | _NOT_POSITIVE | st.just(0.7),
    "--every": st.integers(-2, 30),
    "--stop-area": st.floats(1e-3, 10.0) | _NOT_POSITIVE | st.just(float("inf")),
})


@settings(max_examples=30, deadline=None)
@given(flags=_FLOW_FLAGS)
def test_flow_flags_run_or_exit_2_cleanly(flags):
    with tempfile.TemporaryDirectory() as tmp:
        save_body(disk(1.0, 64), os.path.join(tmp, "disk.json"))
        out = os.path.join(tmp, "run")
        argv = ["flow", "--body", os.path.join(tmp, "disk.json"), "--out", out,
                *(f"{k}={v!r}" for k, v in flags.items())]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        if rc == 0:
            with open(os.path.join(out, "report.json")) as fh:
                json.load(fh, parse_constant=pytest.fail)
        else:
            assert rc == 2, err.getvalue()
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not os.path.exists(out)


def _write(path, text):
    path.write_text(text)
    return str(path)


BAD_INPUTS = {
    "flow-cfl": lambda d: ["flow", "--cfl", "0.9"],
    "flow-every": lambda d: ["flow", "--every", "0"],
    "flow-odd-n": lambda d: ["flow", "--n", "17"],
    "fuzz-no-seeds": lambda d: ["fuzz", "--seeds", "0"],
    "stability-few": lambda d: ["stability", "--samples", "3"],
    "fuzz-negative-seed": lambda d: ["fuzz", "--seeds", "2", "--seed", "-1"],
    "stability-negative-seed": lambda d: ["stability", "--samples", "10", "--seed", "-3"],
    # the third recipe's highest mode, 8, needs n/4 > 8: refused before the first body
    "fuzz-recipe-above-grid": lambda d: ["fuzz", "--seeds", "5", "--n", "32"],
    "body-string": lambda d: ["op", "polar", "--body", _write(d / "b.json", '"hello"')],
    "body-number": lambda d: ["op", "polar", "--body", _write(d / "b.json", "5")],
    "body-fourier-number": lambda d: ["op", "polar", "--body",
                                      _write(d / "b.json", '{"n": 64, "fourier": 5}')],
    "body-null-n": lambda d: ["op", "polar", "--body",
                              _write(d / "b.json", '{"n": null, "fourier": {"a": [1.0]}}')],
    "body-symmetric-string": lambda d: ["op", "polar", "--body", _write(
        d / "b.json", json.dumps({"n": 16, "h": [1.0] * 16, "symmetric": "no"}))],
    "body-fourier-huge-n": lambda d: ["op", "polar", "--body", _write(
        d / "b.json", '{"n": 1099511627776, "fourier": {"a": [1.0]}}')],
    "flow-huge-n": lambda d: ["flow", "--n", "1099511627776"],
    "flow-n-above-cap": lambda d: ["flow", "--n", "1024"],
    "fuzz-huge-n": lambda d: ["fuzz", "--seeds", "1", "--n", "1099511627776"],
    "stability-huge-n": lambda d: ["stability", "--samples", "10", "--n", "1099511627776"],
    "body-claims-symmetric": lambda d: ["op", "polar", "--body", _write(d / "b.json", json.dumps(
        {"h": list(1 + 0.05 * np.cos(3 * angles(64))), "symmetric": True}))],
    # every body must be origin-symmetric, whatever its file claims
    "body-asymmetric-unflagged": lambda d: ["op", "polar", "--body", _write(d / "b.json", json.dumps(
        {"h": list(1 + 0.05 * np.cos(3 * angles(64)))}))],
    "body-fourier-a-too-long": lambda d: ["op", "polar", "--body", _write(
        d / "b.json", json.dumps({"n": 16, "fourier": {"a": [1.0] + [0.0] * 11}}))],
    "body-fourier-b-nyquist": lambda d: ["op", "polar", "--body", _write(
        d / "b.json", json.dumps({"n": 16, "fourier": {"a": [1.0], "b": [0.0] * 8}}))],
    # scales whose curvature, polar or radii overflow to inf or NaN
    "body-overflow-lambda": lambda d: ["op", "lambda", "--body", _write(
        d / "b.json", json.dumps({"h": [1e308] * 16}))],
    "body-overflow-bm": lambda d: ["op", "bm", "--body", _write(
        d / "b.json", json.dumps({"h": [1e308] * 16}))],
    "body-underflow-bm": lambda d: ["op", "bm", "--body", _write(
        d / "b.json", json.dumps({"h": [1e-160] * 16}))],
    "body-underflow-lambda": lambda d: ["op", "lambda", "--body", _write(
        d / "b.json", json.dumps({"h": [1e-300] * 16}))],
    "body-underflow-centroid": lambda d: ["op", "centroid", "--body", _write(
        d / "b.json", json.dumps({"h": [1e-160] * 16}))],
    "body-underflow-polar": lambda d: ["op", "polar", "--body", _write(
        d / "b.json", json.dumps({"h": [1e-300] * 16}))],
    # a Python float division by an area that over- or underflowed to 0
    "body-overflow-lambda-area": lambda d: ["op", "lambda", "--body", _write(
        d / "b.json", json.dumps({"h": [1e200] * 16}))],
    "body-underflow-normalize": lambda d: ["op", "normalize", "--body", _write(
        d / "b.json", json.dumps({"h": [1e-200] * 16}))],
    "body-overflow-normalize": lambda d: ["op", "normalize", "--body", _write(
        d / "b.json", json.dumps({"h": [1e200] * 16}))],
    # deeper than the JSON parser's recursion limit
    "body-deeply-nested": lambda d: ["op", "polar", "--body", _write(d / "b.json", "[" * 100_000)],
}
# bodies that load but whose operator fails: the message names the operator,
# not the input
OPERATOR_FAILURES = {"body-underflow-bm", "body-underflow-lambda",
                     "body-underflow-centroid", "body-underflow-polar",
                     "body-overflow-lambda-area", "body-underflow-normalize",
                     "body-overflow-normalize"}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_exit_2_without_traceback(case, workdir, capsys):
    argv = BAD_INPUTS[case](workdir)
    if argv[0] == "flow":
        argv += ["--body", str(workdir / "disk.json"), "--out", str(workdir / "run")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if argv[0] == "op":
        context = f"op {argv[1]}" if case in OPERATOR_FAILURES else "invalid body"
        assert err.startswith(f"error: {context}: "), err
    # a warning would print more lines on stderr outside the test
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (workdir / "run").exists()


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_normalize_of_an_overflowed_scale_names_the_area(scale, workdir, capsys):
    assert main(["op", "normalize", "--body", _write(
        workdir / "b.json", json.dumps({"h": [scale] * 16}))]) == 2
    err = capsys.readouterr().err
    assert "area" in err and "scale factor" not in err, err


def test_removed_minkowski_command_is_exit_2(workdir, capsys):
    (workdir / "f.json").write_text(json.dumps({"n": 64, "f": [1.0] * 64}))
    with pytest.raises(SystemExit) as exc:
        main(["minkowski", "--f", str(workdir / "f.json")])
    assert exc.value.code == 2
    assert "invalid choice: 'minkowski'" in capsys.readouterr().err


def test_removed_config_option_is_exit_2(workdir, capsys):
    (workdir / "c.json").write_text(json.dumps({"cfl": 0.05}))
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--body", str(workdir / "disk.json"), "--out", str(workdir / "run"),
              "--config", str(workdir / "c.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (workdir / "run").exists()


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_output_files_honour_the_umask(workdir, umask):
    old = os.umask(umask)
    try:
        out = workdir / "run"
        assert main(["op", "polar", "--body", str(workdir / "disk.json"),
                     "--out", str(workdir / "polar.json")]) == 0
        assert main(["flow", "--body", str(workdir / "disk.json"), "--out", str(out),
                     "--t-stop", "0.01", "--every", "20"]) == 0
    finally:
        os.umask(old)
    for path in (workdir / "polar.json", out / "trace.csv", out / "report.json",
                 out / "manifest.json"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path


class TestCampaignCommands:
    def test_fuzz_deterministic_bytes(self, workdir):
        out1, out2 = workdir / "f1", workdir / "f2"
        assert main(["fuzz", "--seeds", "8", "--seed", "7",
                     "--out", str(out1)]) == 0
        assert main(["fuzz", "--seeds", "8", "--seed", "7",
                     "--out", str(out2)]) == 0
        assert (out1 / "fuzz.json").read_bytes() == (out2 / "fuzz.json").read_bytes()

    def test_stability_scatter(self, workdir):
        out = workdir / "stab"
        rc = main(["stability", "--samples", "10", "--seed", "3",
                   "--n", "128", "--out", str(out)])
        assert rc == 0
        lines = (out / "scatter.csv").read_text().strip().split("\n")
        assert lines[0] == "seed,eps,d_bm_minus_1,pinch_bound,gamma_witness"
        assert len(lines) == 11
        summary = json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)
        assert np.isfinite(summary["gamma"])
        # each sample computes at least two deficits, and the control one
        assert isinstance(summary["deficit_evaluations"], int)
        assert summary["deficit_evaluations"] >= 2 * 10 + 1

    def test_stability_without_out_prints_the_summary(self, workdir, capsys):
        assert main(["stability", "--samples", "10", "--seed", "1", "--n", "64"]) == 0
        # strict JSON: a NaN or Infinity constant fails the parse
        summary = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert set(summary) == {"gamma", "fit_exponent", "fit_count", "control_eps",
                                "control_d_minus_1", "eps_min", "eps_max",
                                "deficit_evaluations"}
        assert np.isfinite(summary["gamma"])

    @staticmethod
    def fake_fuzz(monkeypatch, min_gap, lutwak=1e-12):
        checks = {"bp_deficit": {"min_gap": 1e-3, "argmin_seed": 0},
                  "santalo_gap": {"min_gap": min_gap, "argmin_seed": 1},
                  "lutwak_residual_rel": {"max": lutwak, "argmax_seed": 0}}
        monkeypatch.setattr(cli, "fuzz_campaign",
                            lambda count, seed, n: FuzzReport(count, seed, checks))

    def test_fuzz_violation_is_exit_1(self, workdir, monkeypatch, capsys):
        self.fake_fuzz(monkeypatch, -1e-6)
        out = workdir / "fuzz"
        assert main(["fuzz", "--seeds", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("violation: ") and err.count("\n") == 1, err
        report = json.loads((out / "fuzz.json").read_text(), parse_constant=pytest.fail)
        assert report["checks"]["santalo_gap"]["min_gap"] == -1e-6

    def test_fuzz_gap_at_the_floor_is_exit_0(self, workdir, monkeypatch, capsys):
        self.fake_fuzz(monkeypatch, GAP_FLOOR)
        assert main(["fuzz", "--seeds", "2", "--out", str(workdir / "fuzz")]) == 0
        assert capsys.readouterr().err == ""

    def test_fuzz_without_out_prints_strict_json(self, monkeypatch, capsys):
        # residuals that are all NaN leave the maximum at -inf: written as null
        self.fake_fuzz(monkeypatch, 1e-4, lutwak=-np.inf)
        assert main(["fuzz", "--seeds", "2"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert report["checks"]["lutwak_residual_rel"]["max"] is None

    def test_stability_violation_is_exit_1(self, workdir, monkeypatch, capsys):
        samples = [StabilitySample(seed=i, eps=eps, d_bm_minus_1=0.01, pinch_bound=1.1,
                                   gamma_witness=0.1) for i, eps in enumerate([1e-3, -1e-6])]
        result = StabilityResult(samples=samples, gamma=0.1, fit_exponent=0.5, fit_count=1,
                                 control_eps=0.0, control_d_minus_1=0.0, deficit_evaluations=3)
        monkeypatch.setattr(cli, "stability_experiment", lambda count, seed, n: result)
        out = workdir / "stab"
        assert main(["stability", "--samples", "10", "--out", str(out)]) == 1
        lines = (out / "scatter.csv").read_text().strip().split("\n")
        assert len(lines) == 3 and lines[2].startswith("1,-9.99")
        assert capsys.readouterr().err == "violation: min eps -1.000e-06\n"

    @pytest.mark.parametrize("eps, rc", [(-1e-7, 1), (0.0, 0)])
    def test_stability_sample_without_positive_deficit(self, workdir, monkeypatch, capsys,
                                                        eps, rc):
        # the lowest target's body lands on a deficit that is not positive:
        # its witness is NaN, and gamma and the fit skip it
        targeted = lab._deficit_targeted_body

        def fake(base, target):
            body, found, calls = targeted(base, target)
            return (body, eps, calls) if target == lab.EPS_LOW else (body, found, calls)

        monkeypatch.setattr(lab, "_deficit_targeted_body", fake)
        out = workdir / "stab"
        assert main(["stability", "--samples", "10", "--seed", "1", "--n", "64",
                     "--out", str(out)]) == rc
        err = capsys.readouterr().err
        assert err == ("violation: min eps -1.000e-07\n" if rc else ""), err
        assert sorted(os.listdir(out)) == ["manifest.json", "scatter.csv", "summary.json"]
        first = (out / "scatter.csv").read_text().split("\n")[1].split(",")
        assert float(first[1]) == eps and first[4] == "nan"
        summary = json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)
        assert np.isfinite(summary["gamma"]) and summary["fit_count"] >= 2

    def test_stability_without_small_deficits_has_no_fit(self, workdir, monkeypatch):
        # every sample lands above the fit's 1e-2 window: no slope is fitted
        monkeypatch.setattr(lab, "_deficit_targeted_body", lambda base, target: (base, 0.02, 1))
        out = workdir / "stab"
        assert main(["stability", "--samples", "10", "--seed", "1", "--n", "64",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(), parse_constant=pytest.fail)
        assert summary["fit_count"] == 0 and summary["fit_exponent"] is None
        assert np.isfinite(summary["gamma"])
