import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import mechlift
from mechlift import cayley_matrix, pendulum_system, pole_place, so3_exp
from mechlift.cli import main, run_verify_maps
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
    ["order-study", "harmonic", "--map", "explicit-euler,implicit-euler,midpoint"],
    ["verify-maps"],
], ids=["simulate-pendulum", "simulate-so3", "check-pendulum", "order-study-harmonic",
        "verify-maps"])
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
        one_step = cayley_matrix(a - b @ gains, 0.01)
        assert np.abs(z[1:] - z[:-1] @ one_step.T).max() < 1e-8

    def test_wrong_number_of_gains_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gains": [1.0, 2.0]}))
        assert main(["simulate-pendulum", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 4
        assert "pendulum gains must be 4 numbers, got 2" in capsys.readouterr().err

    def test_chart_exit_names_step_and_state(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"initial_state": [1.2, 0.0, 0.0, 0.0]}))
        assert main(["simulate-pendulum", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure at step 5 from state [-1.22")
        assert err.rstrip().endswith("point not in chart image")

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


class TestVerifyMaps:
    def test_shipped_maps_pass(self):
        assert run_verify_maps() == 0

    def test_injected_bad_map_fails(self, rng):
        bad = DiscretizationMap(
            2, "explicit-euler",
            forward=lambda x, v: (x.copy(), x + 2.0 * v),
            inverse=lambda a, b: (a.copy(), (b - a) / 2.0),
            jacobian=lambda x, v: np.block([[np.eye(2), np.zeros((2, 2))],
                                            [np.eye(2), 2.0 * np.eye(2)]]),
        )
        samples = [rng.normal(size=2) for _ in range(10)]
        assert run_verify_maps(extra_maps=[("bad-map", bad, samples)]) == 1

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

    def test_so3_scheme_is_first_order(self, capsys):
        assert main(["order-study", "so3", "--t-final", "2.0",
                     "--h-list", "0.02,0.01,0.005,0.0025"]) == 0
        printed = capsys.readouterr().out
        slope = float(printed.split("slope")[1].split()[0])
        assert abs(slope - 1.0) < 0.2

    def test_single_h_omits_slope(self, capsys):
        assert main(["order-study", "harmonic", "--h-list", "0.1"]) == 0
        assert "slope omitted" in capsys.readouterr().out

    def test_unknown_system(self):
        assert main(["order-study", "wobbler"]) == 4

    def test_nonpositive_step_is_usage_error(self, capsys):
        # the simulate commands' step-grid rule: no zero-step "study"
        assert main(["order-study", "harmonic", "--h-list=-0.1"]) == 4
        assert "step size must be positive, got -0.1" in capsys.readouterr().err


def test_cli_runs_import_no_scipy(tmp_path):
    src = Path(mechlift.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from mechlift.cli import main\n"
        "for argv in (['simulate-pendulum', '--t-final', '0.1'],\n"
        "             ['simulate-so3', '--t-final', '1'], ['order-study', 'so3']):\n"
        f"    assert main(argv + ['--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 4

    def test_missing_command(self):
        assert main([]) == 4
