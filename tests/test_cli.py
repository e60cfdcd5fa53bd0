import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import mechlift
from mechlift import (pendulum_system, pole_place, so3_closed_loop_step, so3_exp,
                      theta_update_matrix)
from mechlift.cli import build_parser, main, run_verify_maps
from mechlift.discretization import DiscretizationMap


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


@pytest.mark.parametrize("argv", [
    ["simulate-pendulum", "--t-final", "0.2"],
    ["simulate-so3"],
    ["check", "pendulum"],
    ["check", "so3"],
    ["check", "double-integrator"],
    ["order-study", "harmonic", "--map", "explicit-euler,implicit-euler,midpoint"],
    ["order-study", "so3"],
    ["verify-maps"],
], ids=["simulate-pendulum", "simulate-so3", "check-pendulum", "check-so3",
        "check-double-integrator", "order-study-harmonic", "order-study-so3", "verify-maps"])
def test_deterministic_output(argv, tmp_path, capsys):
    # both runs write to one directory, so summary.json's echo of --out agrees
    out = tmp_path / "run"
    if argv[0] != "verify-maps":
        argv = argv + ["--out", str(out)]
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
        runs.append((capsys.readouterr().out, files))
    stdout, files = runs[0]
    assert stdout and (files or argv[0] == "verify-maps")
    assert runs[1] == runs[0]


class TestSimulatePendulum:
    def test_default_run_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate-pendulum", "--out", str(out)]) == 0
        header, states = read_csv(out / "pendulum_states.csv")
        assert header == ["t", "theta1", "theta2", "dtheta1", "dtheta2"]
        ref_header, ref = read_csv(out / "pendulum_reference.csv")
        assert ref_header == header
        err_header, errors = read_csv(out / "pendulum_errors.csv")
        assert err_header == ["t", "e1", "ed1"]

        # shared uniform time grid across files
        npt.assert_array_equal(states[:, 0], errors[:, 0])
        npt.assert_array_equal(states[:, 0], ref[:, 0])
        npt.assert_allclose(np.diff(states[:, 0]), 0.01, rtol=1e-12)

        assert np.all(np.isfinite(errors))
        assert errors[0, 1] < 1e-14 and errors[0, 2] < 1e-14
        # oracle-derived envelope at h = 0.01 (measured 2.44e-2; the
        # transient with poles to -40 is under-resolved at this rate)
        assert errors[:, 1].max() < 0.03

        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["h"] == 0.01
        assert summary["metrics"]["max_e1"] == pytest.approx(errors[:, 1].max())

    def test_halving_h_quarters_the_error(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate-pendulum", "--out", str(out1)]) == 0
        assert main(["simulate-pendulum", "--h", "0.005", "--out", str(out2)]) == 0
        e1 = read_csv(out1 / "pendulum_errors.csv")[1][:, 1].max()
        e2 = read_csv(out2 / "pendulum_errors.csv")[1][:, 1].max()
        ratio = e1 / e2
        assert 4.0 * 0.7 <= ratio <= 4.0 * 1.3

    def test_zero_initial_state(self, tmp_path):
        out = tmp_path / "zero"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"initial_state": [0.0, 0.0, 0.0, 0.0]}))
        assert main(["simulate-pendulum", "--config", str(cfg),
                     "--out", str(out)]) == 0
        _, states = read_csv(out / "pendulum_states.csv")
        _, errors = read_csv(out / "pendulum_errors.csv")
        assert np.abs(states[:, 1:]).max() == 0.0
        assert np.abs(errors[:, 1:]).max() == 0.0

    def test_config_gains_drive_the_loop(self, tmp_path):
        bundle = pendulum_system()
        gains = pole_place(bundle.linear, [-5.0, -6.0, -7.0, -8.0])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gains": gains.tolist()}))
        out = tmp_path / "o"
        assert main(["simulate-pendulum", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"]["gain"] == gains.ravel().tolist()

        _, states = read_csv(out / "pendulum_states.csv")
        push = bundle.transform.push_state
        z = np.array([push(s[:2], s[2:]) for s in states[:, 1:]])
        a, b = bundle.linear.stacked()
        one_step = theta_update_matrix(a - b @ gains, 0.01, 0.5)
        assert np.abs(z[1:] - z[:-1] @ one_step.T).max() < 1e-8

    def test_wrong_number_of_gains_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gains": [1.0, 2.0]}))
        assert main(["simulate-pendulum", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 4
        assert "pendulum gains must be 4 numbers, got [1.0, 2.0]" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("poles", [-1, -2, -3]), ("poles", [-1, -2, -3, -4, -5]), ("poles", [[-1, -2], [-3, -4]]),
        ("gains", [[1, 2], [3, 4]]), ("gains", [1, [2, 3], 4, 5]),
    ], ids=["three-poles", "five-poles", "nested-poles", "square-gains", "ragged-gains"])
    def test_poles_or_gains_of_another_shape_are_usage_error(self, key, value, tmp_path, capsys):
        # refused by key, in the "got <json>" form, before any pole placement or run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "x"
        assert main(["simulate-pendulum", "--config", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr() == (
            "", f"error: pendulum {key} must be 4 numbers, got {json.dumps(value)}\n")
        assert not out.exists()

    def test_chart_exit_names_step_and_state(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"initial_state": [1.2, 0.0, 0.0, 0.0]}))
        out = tmp_path / "out"
        assert main(["simulate-pendulum", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure at step 5 from state [-1.22")
        assert err.rstrip().endswith("point not in chart image")
        # nothing is written, the output directory included
        assert not out.exists()

    def test_config_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": 0.02, "t_final": 0.1}))
        out = tmp_path / "o"
        assert main(["simulate-pendulum", "--config", str(cfg), "--h", "0.01",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["h"] == 0.01
        assert summary["config"]["t_final"] == 0.1

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stepsize": 0.01}))
        assert main(["simulate-pendulum", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 4

    def test_system_is_not_a_key(self, tmp_path, capsys):
        # the command names the system; a config key for it would go unread
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "so3"}))
        assert main(["simulate-pendulum", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 4
        assert "unknown config keys: ['system']" in capsys.readouterr().err

    def test_t_final_off_the_step_grid_is_usage_error(self, tmp_path, capsys):
        # round(1 / 0.3) = 3 steps would end at t = 0.9
        out = tmp_path / "x"
        assert main(["simulate-pendulum", "--h", "0.3", "--t-final", "1",
                     "--out", str(out)]) == 4
        assert "t_final is not an integer multiple of h = 0.3" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_map_kind_in_a_config_is_usage_error(self, tmp_path, capsys):
        # --map has argparse's choices; a config file's map_kind is checked by the run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_kind": "rk4"}))
        out = tmp_path / "x"
        assert main(["simulate-pendulum", "--config", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr() == ("", "error: unknown map kind 'rk4'\n")
        assert not out.exists()

    def test_invalid_step_size_is_usage_error(self, tmp_path):
        assert main(["simulate-pendulum", "--h", "-0.01",
                     "--out", str(tmp_path / "x")]) == 4

    def test_reference_tol_is_no_longer_a_key(self, tmp_path):
        # the references are exact; a tolerance for them has no effect
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reference_tol": 1e-10}))
        assert main(["simulate-pendulum", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 4


class TestSimulateSo3:
    def test_default_run(self, tmp_path):
        out = tmp_path / "so3"
        assert main(["simulate-so3", "--out", str(out)]) == 0
        header, data = read_csv(out / "rigid_body.csv")
        assert header == ["t", "trace_err", "trace_err_ref", "p", "q", "r"]
        assert data[0, 1] == 2.0
        assert data[-1, 1] < 1e-3
        assert data[-1, 0] == pytest.approx(10.0)
        # angular velocities head to zero (exact closed loop bottoms out
        # near 4.4e-3 at t = 10 with these gains)
        assert np.abs(data[-1, 3:]).max() < 5e-3
        assert np.abs(data[-1, 3:]).max() < np.abs(data[150:, 3:]).max(axis=0).max()
        # reference trace error agrees at the final time
        assert abs(data[-1, 1] - data[-1, 2]) < 1e-4

    def test_identity_start_is_stationary(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "initial_state": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            "t_final": 1.0,
        }))
        out = tmp_path / "so3"
        assert main(["simulate-so3", "--config", str(cfg), "--out", str(out)]) == 0
        _, data = read_csv(out / "rigid_body.csv")
        assert np.abs(data[:, 1:]).max() == 0.0

    def test_reference_on_the_loop_grid_past_t_final(self, tmp_path, capsys):
        # round(1 / 0.35) = 3 steps would end at t = 1.05, past t_final: refused
        assert main(["simulate-so3", "--h", "0.35", "--t-final", "1",
                     "--out", str(tmp_path / "x")]) == 4
        assert "t_final is not an integer multiple of h = 0.35" in capsys.readouterr().err
        from scipy.linalg import expm

        out = tmp_path / "so3"
        assert main(["simulate-so3", "--h", "0.25", "--t-final", "1",
                     "--out", str(out)]) == 0
        _, data = read_csv(out / "rigid_body.csv")
        assert data.shape[0] == 5
        eye, zero = np.eye(3), np.zeros((3, 3))
        a_cl = np.block([[zero, eye], [-5.0 * eye, -10.0 * eye]])
        z = expm(a_cl * 1.0) @ np.array([0.0, -np.pi / 2, 0.0, 0.0, 0.0, 0.0])
        assert abs(data[-1, 2] - (3.0 - np.trace(so3_exp(z[:3]).r))) < 1e-12

    def test_summary_echoes_only_the_keys_it_reads(self, tmp_path):
        out = tmp_path / "so3"
        assert main(["simulate-so3", "--t-final", "0.1", "--out", str(out)]) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert sorted(config) == ["gains", "h", "initial_state", "out_dir", "t_final"]

    def test_pendulum_keys_are_usage_errors(self, tmp_path):
        # the attitude loop has one scheme and PD gains: no base map, no poles
        for key, value in (("map_kind", "midpoint"), ("poles", [-1.0, -2.0])):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({key: value}))
            assert main(["simulate-so3", "--config", str(cfg),
                         "--out", str(tmp_path / "x")]) == 4

    def test_map_flag_is_usage_error(self, tmp_path):
        # the attitude loop has one scheme; --map belongs to simulate-pendulum
        assert main(["simulate-so3", "--map", "midpoint",
                     "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("config, step", [
        ({"gains": [5, 1e300], "initial_state": [0, 0, 0, 1e300, 0, 0], "h": 1e-300,
          "t_final": 1e-299}, 0),
        ({"gains": [5, -1e200], "initial_state": [0, 0, 0, 1, 0, 0], "h": 1e-100,
          "t_final": 1e-99}, 2),
    ], ids=["step-0", "step-2"])
    def test_a_failing_step_names_the_step_and_its_state(self, config, step, tmp_path,
                                                        capsys):
        # h K2 Omega overflows Omega+ in step `step`; the state it started from
        # is R's nine entries, then Omega; nothing is written, the output
        # directory included
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "x"
        assert main(["simulate-so3", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        rotation, omega = so3_exp(config["initial_state"][:3]), config["initial_state"][3:]
        for _ in range(step):
            rotation, omega = so3_closed_loop_step(rotation, omega, *config["gains"], config["h"])
        state = ", ".join("%.17g" % v for v in [*rotation.r.ravel(), *omega])
        assert capsys.readouterr().err.startswith(
            f"numerical failure at step {step} from state [{state}]: Omega+ = ")


class TestCheck:
    def test_pendulum_passes(self, capsys):
        assert main(["check", "pendulum"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_grid_crossing_singularity_fails(self, tmp_path, capsys):
        lim = repr(np.pi / 2)
        out = tmp_path / "rep"
        code = main(["check", "pendulum", f"--grid=-{lim}:{lim}:21",
                     "--out", str(out)])
        assert code == 1
        payload = json.loads((out / "check_report.json").read_text())
        md1 = next(c for c in payload["planar"] if c["name"] == "MD1")
        assert md1["verdict"] == "fail"
        assert abs(abs(md1["witness"][0]) - np.pi / 2) < 1e-3

    def test_double_integrator_passes(self):
        assert main(["check", "double-integrator"]) == 0

    def test_so3_passes(self):
        assert main(["check", "so3"]) == 0

    def test_unknown_system_is_usage_error(self):
        assert main(["check", "wobbler"]) == 4

    @pytest.mark.parametrize("grid, message", [
        ("0:1:0", "at least one point"), ("0:1:-3", "at least one point"),
        ("nan:1:3", "must be finite"), ("0:inf:3", "must be finite"),
        ("-inf:1:3", "must be finite"),
        ("1:2", "grid must be LO:HI:N with N a whole number, got '1:2'"),
        ("0:1:2:3", "grid must be LO:HI:N with N a whole number, got '0:1:2:3'"),
        ("0:1:2.5", "grid must be LO:HI:N with N a whole number, got '0:1:2.5'"),
        ("a:1:3", "grid must be LO:HI:N with N a whole number, got 'a:1:3'"),
    ], ids=["no-points", "negative-count", "nan-end", "inf-end", "minus-inf-end", "two-fields",
            "four-fields", "fractional-count", "word"])
    def test_bad_grid_is_usage_error(self, grid, message, tmp_path, capsys):
        # refused before any check runs: no report is written
        out = tmp_path / "rep"
        assert main(["check", "pendulum", f"--grid={grid}", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:0.001:3", "0:1:13"])
    def test_a_grid_for_so3_is_usage_error(self, grid, tmp_path, capsys):
        # so3 samples seeded random rotations: LO and HI would go unread
        out = tmp_path / "rep"
        assert main(["check", "so3", f"--grid={grid}", "--out", str(out)]) == 4
        assert capsys.readouterr() == ("", "error: check so3 runs on 13 seeded random "
                                           "rotations, not on a grid: --grid does not apply\n")
        assert not out.exists()

    def test_negative_lo_joined_to_its_flag(self, tmp_path, capsys):
        # the default pendulum grid spelled out; argparse takes a separate
        # "-1.3:1.3:21" for an option
        runs = []
        for name, extra in (("default", []), ("spelled", ["--grid=-1.3:1.3:21"])):
            assert main(["check", "pendulum", *extra, "--out", str(tmp_path / name)]) == 0
            runs.append((capsys.readouterr().out,
                         (tmp_path / name / "check_report.json").read_bytes()))
        assert runs[1] == runs[0]
        assert main(["check", "pendulum", "--grid", "-1.3:1.3:21"]) == 4


class TestVerifyMaps:
    def test_shipped_maps_pass(self):
        assert run_verify_maps() == 0

    def test_injected_bad_map_fails(self, capsys, monkeypatch):
        # only samples with x1 > 0 see the doubled velocity, so the first
        # failing sample is the first with a positive x1; the bad map's
        # builder goes first, so its samples are the first 50 draws
        bad = DiscretizationMap(
            2, "explicit-euler",
            forward=lambda x, v: (x.copy(), x + np.where(x[..., :1] > 0, 2.0, 1.0) * v),
            inverse=lambda a, b: (a.copy(), b - a),
            jacobian=lambda x, v: np.block([[np.eye(2), np.zeros((2, 2))],
                                            [np.eye(2), 2.0 * np.eye(2)]]),
        )
        monkeypatch.setattr(mechlift.cli, "_MAP_BUILDERS",
                            {"bad-map": lambda dim: bad, **mechlift.cli._MAP_BUILDERS})
        rng = np.random.default_rng(11)
        first = next(x for x in (rng.normal(size=2) for _ in range(50)) if x[0] > 0)
        assert run_verify_maps() == 1
        line, = [l for l in capsys.readouterr().out.splitlines() if l.split()[0] == "bad-map"]
        assert line.endswith(f"FAIL, first at sample ({first[0]:.6g}, {first[1]:.6g})")

    def test_cli_entry_reports_small_defects(self, capsys):
        assert main(["verify-maps"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "jacobian" in l]
        assert len(lines) == 9
        for line in lines:
            defect = float(line.split("jacobian")[1].split()[0])
            assert defect < 1e-6


class TestOrderStudy:
    def test_harmonic_midpoint_slope(self, tmp_path, capsys):
        out = tmp_path / "os"
        code = main(["order-study", "harmonic", "--map", "midpoint",
                     "--h-list", "0.1,0.05,0.025,0.0125", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        slope = float(printed.split("slope")[1].split()[0])
        assert abs(slope - 2.0) < 0.2
        lines = (out / "order_study.csv").read_text().strip().splitlines()
        assert lines[0] == "map,h,error"
        assert len(lines) == 5

    def test_harmonic_runs_no_newton(self, monkeypatch, capsys):
        # one certified open-loop fl_discretize call per step size
        def newton(*args):
            raise AssertionError("a step was solved by Newton")

        monkeypatch.setattr(mechlift.integrators, "_damped_newton", newton)
        assert main(["order-study", "harmonic", "--map",
                     "explicit-euler,implicit-euler,midpoint"]) == 0
        assert capsys.readouterr().out == (
            "harmonic/explicit-euler: slope 1.002 (fit residual 4.54e-04)\n"
            "harmonic/implicit-euler: slope 0.998 (fit residual 4.93e-04)\n"
            "harmonic/midpoint: slope 2.000 (fit residual 1.09e-05)\n")

    def test_pendulum_at_its_defaults_reports_a_chart_exit_as_its_row(self, tmp_path, capsys):
        # at h = 0.02 the explicit-Euler loop leaves the chart in step 1: that h
        # is a NaN row, named on stdout, and each map is fitted over the rest
        out = tmp_path / "os"
        assert main(["order-study", "pendulum", "--map", "explicit-euler,implicit-euler,midpoint",
                     "--out", str(out)]) == 0
        exit_line, *fits = capsys.readouterr().out.splitlines()
        assert exit_line.startswith("pendulum/explicit-euler: h = 0.02 left the chart at step 1 "
                                    "from state [0.78539816339744839, ")
        assert exit_line.endswith("|sin x1| = 1.253260 > 1: point not in chart image")
        slopes = {line.split(":")[0]: float(line.split("slope")[1].split()[0]) for line in fits}
        assert slopes.keys() == {f"pendulum/{kind}" for kind in
                                 ("explicit-euler", "implicit-euler", "midpoint")}
        assert abs(slopes["pendulum/midpoint"] - 1.996) < 0.1
        assert abs(slopes["pendulum/explicit-euler"] - 0.901) < 0.05
        assert abs(slopes["pendulum/implicit-euler"] - 1.133) < 0.05
        lines = (out / "order_study.csv").read_text().splitlines()
        assert len(lines) == 13 and lines[1] == "explicit-euler,0.02,nan"
        assert all(np.isfinite(float(line.split(",")[2])) for line in lines[2:])

    def test_so3_scheme_is_first_order(self, tmp_path, capsys):
        out = tmp_path / "os"
        assert main(["order-study", "so3", "--t-final", "2.0",
                     "--h-list", "0.02,0.01,0.005,0.0025", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("so3/group: slope ")
        slope = float(printed.split("slope")[1].split()[0])
        assert abs(slope - 1.0) < 0.2
        # the rows are labelled by what ran: the group PD loop, not a map
        rows = (out / "order_study.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            ["group", h] for h in ("0.02", "0.01", "0.0050000000000000001", "0.0025000000000000001")]

    @pytest.mark.parametrize("kinds", ["midpoint", "implicit-euler,midpoint"])
    def test_so3_refuses_a_map(self, kinds, tmp_path, capsys):
        # the group loop is no discretization map: a --map would be ignored
        out = tmp_path / "os"
        assert main(["order-study", "so3", "--map", kinds, "--out", str(out)]) == 4
        assert capsys.readouterr() == (
            "", "error: order-study so3 runs the group PD loop on SO(3), not a "
                "discretization map: --map does not apply\n")
        assert not out.exists()

    def test_a_repeated_step_size_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "os"
        assert main(["order-study", "pendulum", "--h-list", "0.02,0.02", "--out", str(out)]) == 4
        assert capsys.readouterr() == (
            "", "error: an order fit needs distinct step sizes, got [0.02, 0.02]\n")
        assert not out.exists()

    def test_single_h_omits_slope(self, capsys):
        assert main(["order-study", "harmonic", "--h-list", "0.1"]) == 0
        assert "slope omitted" in capsys.readouterr().out

    def test_unknown_system(self):
        assert main(["order-study", "wobbler"]) == 4

    @pytest.mark.parametrize("system", ["pendulum", "harmonic", "so3"])
    @pytest.mark.parametrize("kinds", ["bogus", "midpoint,bogus"])
    def test_an_unknown_map_is_usage_error_before_any_run(self, system, kinds, tmp_path, capsys):
        # every kind is checked first: no fit is printed and no table written
        out = tmp_path / "os"
        assert main(["order-study", system, "--map", kinds, "--out", str(out)]) == 4
        assert capsys.readouterr() == ("", "error: unknown map kind 'bogus'\n")
        assert not out.exists()

    def test_nonpositive_step_is_usage_error(self, capsys):
        # the simulate commands' step-grid rule: no zero-step "study"
        assert main(["order-study", "harmonic", "--h-list=-0.1"]) == 4
        assert "step size must be positive, got -0.1" in capsys.readouterr().err


def test_cli_runs_import_no_scipy(tmp_path):
    # no command loads scipy, and each loads only the modules it runs: check
    # no integrators, the simulations, order study and map checks no linearizability
    src = Path(mechlift.__file__).resolve().parents[1]
    out = ["--out", str(tmp_path)]
    for argv, unused in ((["simulate-pendulum", "--t-final", "0.1", *out], "linearizability"),
                         (["simulate-so3", "--t-final", "1", *out], "linearizability"),
                         (["order-study", "so3", *out], "linearizability"),
                         (["verify-maps"], "linearizability"),
                         (["check", "pendulum", *out], "integrators")):
        code = ("import sys\n"
                "from mechlift.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                "print([m for m in sys.modules if m.startswith('scipy')],\n"
                f"      'mechlift.{unused}' in sys.modules)\n")
        run = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                             capture_output=True, text=True)
        assert run.stdout.splitlines()[-1] == "[] False", argv


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("usage: mechlift")
        assert "error: argument command: invalid choice: 'frobnicate'" in err

    def test_a_parse_error_says_why(self, capsys):
        # a grid with a negative LO, apart from its flag, reads as an option
        assert main(["check", "pendulum", "--grid", "-1:1:5"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("usage: mechlift check [-h] [--grid LO:HI:N] [--out OUT] system\n"
                                "mechlift check: error: argument --grid: expected one argument\n")

    def test_missing_command(self):
        assert main([]) == 4

    @pytest.mark.parametrize("doc", ["README", "cli docstring"])
    def test_the_usage_lines_name_what_the_parser_defines(self, doc):
        # each "mechlift COMMAND ..." line names the command's positionals and,
        # in brackets, its option strings (a trailing "# ..." is a comment)
        if doc == "README":
            readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
            text = readme.split("## Command line")[1].split("```")[1]
        else:
            text = mechlift.cli.__doc__
        documented = {}
        for line in text.splitlines():
            words = line.split("#")[0].split()
            if words[:1] == ["mechlift"]:
                positionals = re.sub(r"\[[^]]*\]", "", " ".join(words[2:])).split()
                documented[words[1]] = (positionals, re.findall(r"\[(--[a-z-]+)", line))
        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        defined = {name: ([a.dest.upper() for a in p._actions if not a.option_strings],
                          [o for a in p._actions for o in a.option_strings if o[1] == "-"
                           and o != "--help"])
                   for name, p in commands.choices.items()}
        assert documented == defined

    @pytest.mark.parametrize("argv, message", [
        (["simulate-so3", "--t-final", "inf"], "final time must be finite, got inf"),
        (["simulate-so3", "--h", "inf"], "step size must be finite, got inf"),
        (["order-study", "so3", "--h-list", "inf,0.01"], "step size must be finite, got inf"),
        (["simulate-so3", "--t-final", "nan"], "final time must be finite, got nan"),
        (["simulate-so3", "--h", "nan"], "step size must be finite, got nan"),
        (["order-study", "so3", "--h-list", "nan,0.01"], "step size must be finite, got nan"),
        (["order-study", "so3", "--h-list", "0.01,abc"],
         "--h-list must be comma-separated numbers, got '0.01,abc'"),
        (["order-study", "so3", "--h-list", "0.01,,0.005"],
         "--h-list must be comma-separated numbers, got '0.01,,0.005'"),
    ], ids=["t-final", "h", "h-list", "t-final-nan", "h-nan", "h-list-nan", "h-list-word",
            "h-list-empty-entry"])
    def test_an_infinite_step_grid_is_usage_error(self, argv, message, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, error", [
        (["simulate-pendulum", "--config", "missing.json"], "No such file or directory"),
        (["simulate-so3", "--t-final", "0.1", "--out", "blocker/out"], "Not a directory"),
        (["order-study", "harmonic", "--out", "blocker"], "File exists"),
    ], ids=["config-missing", "out-under-a-file", "out-is-a-file"])
    def test_an_io_failure_exits_3(self, argv, error, tmp_path, monkeypatch, capsys):
        # README's exit code 3, with the operating system's reason on stderr
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blocker").write_text("")
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("i/o error: ") and error in captured.err

    @pytest.mark.parametrize("command", ["simulate-pendulum", "simulate-so3"])
    @pytest.mark.parametrize("config, message", [
        (5, "config file must hold a JSON object, got 5"),
        ({"h": "abc"}, "config key 'h' must be a number, got \"abc\""),
        ({"h": True}, "config key 'h' must be a number, got true"),
        ({"t_final": None}, "config key 't_final' must be a number, got null"),
        ({"out_dir": 7}, "config key 'out_dir' must be a string, got 7"),
        ({"h": 10**400}, f"config key 'h' must be a number, got {10**400}"),
        ({"t_final": -10**400}, f"config key 't_final' must be a number, got {-10**400}"),
        ({"initial_state": [0.1, 10**400]},
         f"config key 'initial_state' must be a list of numbers, got [0.1, {10**400}]"),
        ({"h": float("nan")}, "config key 'h' must be a number, got NaN"),
        ({"t_final": float("inf")}, "config key 't_final' must be a number, got Infinity"),
        ({"initial_state": [0.1, float("-inf")]},
         "config key 'initial_state' must be a list of numbers, got [0.1, -Infinity]"),
    ], ids=["not-an-object", "h-string", "h-boolean", "t_final-null", "out_dir-number",
            "h-huge-int", "t_final-huge-int", "initial_state-huge-int", "h-nan",
            "t_final-infinity", "initial_state-minus-infinity"])
    def test_a_config_value_of_another_type_is_usage_error(self, command, config, message,
                                                           tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "x"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"gains": [[1.0, 2.0, 3.0, 10**400]]},
         f"config key 'gains' must be a list of numbers or null, got [[1.0, 2.0, 3.0, {10**400}]]"),
        ({"poles": [-1, -2, -3, -10**400]},
         f"config key 'poles' must be a list of numbers, got [-1, -2, -3, {-10**400}]"),
        ({"gains": [[1.0, 2.0, 3.0, float("nan")]]},
         "config key 'gains' must be a list of numbers or null, got [[1.0, 2.0, 3.0, NaN]]"),
        ({"poles": [-1, -2, -3, float("-inf")]},
         "config key 'poles' must be a list of numbers, got [-1, -2, -3, -Infinity]"),
    ], ids=["gains", "poles", "gains-nan", "poles-minus-infinity"])
    def test_an_integer_beyond_float_range_is_usage_error(self, config, message, tmp_path,
                                                          capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "x"
        assert main(["simulate-pendulum", "--config", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, wanted", [
        ("simulate-pendulum", "pendulum initial_state must be 4 numbers (theta1, theta2, "
                              "dtheta1, dtheta2)"),
        ("simulate-so3", "so3 initial_state must be 6 numbers (xi, Omega)"),
    ], ids=["pendulum", "so3"])
    @pytest.mark.parametrize("state", [[0.1, 0.2, 0.3], [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]],
                                       [0.1, [0.2, 0.3], 0.4]], ids=["three", "nested", "ragged"])
    def test_an_initial_state_of_another_length_is_usage_error(self, command, wanted, state,
                                                                tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"initial_state": state}))
        out = tmp_path / "x"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr() == ("", f"error: {wanted}, got {json.dumps(state)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("gains", [[1, 2, 3], [5.0], [5, [1, 2]]],
                             ids=["three", "one", "ragged"])
    def test_so3_gains_other_than_two_numbers_are_usage_error(self, gains, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gains": gains}))
        out = tmp_path / "x"
        assert main(["simulate-so3", "--config", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: so3 gains must be 2 numbers (K1, K2), got {json.dumps(gains)}\n")
        assert not out.exists()


# one refused input per subcommand, in a fresh interpreter: a usage or
# numerical failure (exit 4 or 2) says why on stderr, never with a traceback
@pytest.mark.parametrize("argv, config, code", [
    (["simulate-pendulum"], {"h": 10**400}, 4),
    (["simulate-so3"], {"t_final": 10**400}, 4),
    (["simulate-so3"], {"gains": [5.0, 1e300], "initial_state": [0, 0, 0, 1e300, 0, 0],
                        "h": 1e-300, "t_final": 1e-299}, 2),
    (["check", "pendulum", "--grid=0:1:0"], None, 4),
    (["verify-maps", "--out", "x"], None, 4),
    (["order-study", "so3", "--h-list", "0.01", "--t-final", "1e400"], None, 4),
], ids=["simulate-pendulum", "simulate-so3", "simulate-so3-numerical", "check", "verify-maps",
        "order-study"])
def test_a_refused_input_exits_without_a_traceback(argv, config, code, tmp_path):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", "cfg.json"]
    paths = [str(Path(mechlift.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run([sys.executable, "-m", "mechlift.cli", *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert run.returncode == code
    assert run.stderr and "Traceback" not in run.stderr
