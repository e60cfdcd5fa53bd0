"""cli-cold: one fresh interpreter per command, closed loop with one client.

One round runs each of six commands twice, with default arguments,
each invocation in its own working directory with ``--out out``:
``simulate-pendulum``, ``simulate-so3``, ``check pendulum``,
``check so3``, ``verify-maps`` and ``order-study so3``.  An invocation
is timed from spawn to exit, so interpreter start, ``import mechlift``,
the computation and the file output all count.

Checks: every exit code is 0; the pendulum state CSV is conjugate to
the Cayley update and its reference CSV agrees with the exact flow; the
attitude CSV starts at trace error 2 and agrees with the independent
attitude loop and the exact linear reference; both checks pass every
condition; every ``verify-maps`` line passes; ``order-study so3`` fits
order 1 +/- 0.2; and the two invocations of a command write
byte-identical files and standard output.
"""

import hashlib
import json
import subprocess
import sys

import numpy as np

import refs
from engine import Op, WrongOutput

COMMANDS = (
    ("simulate_pendulum", ["simulate-pendulum", "--out", "out"]),
    ("simulate_so3", ["simulate-so3", "--out", "out"]),
    ("check_pendulum", ["check", "pendulum", "--out", "out"]),
    ("check_so3", ["check", "so3", "--out", "out"]),
    ("verify_maps", ["verify-maps"]),
    ("order_study_so3", ["order-study", "so3", "--out", "out"]),
)
INVOCATIONS = 2
CHILD_TIMEOUT_S = 150
CONJUGACY_TOL = 1e-8
REFERENCE_TOL = 1e-6
RERUN_TOL = 1e-9


class Invocation:
    def __init__(self, code, cwd):
        self.code = code
        self.cwd = cwd

    def files(self):
        """Every file the command wrote, plus its standard output."""
        out = {"<stdout>": (self.cwd / "stdout.txt").read_bytes()}
        if (self.cwd / "out").is_dir():
            for path in sorted((self.cwd / "out").iterdir()):
                out[path.name] = path.read_bytes()
        return out

    def text(self, name):
        return self.files()[name].decode()


def _digest(inv, exc):
    if exc is not None:
        return f"{type(exc).__name__}: {exc}"
    h = hashlib.sha256(str(inv.code).encode())
    for name, data in inv.files().items():
        h.update(name.encode())
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def _csv(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


class CliCold:
    # a round takes 11 to 18 s: every run is exactly one round, so that
    # each command is timed twice in every run, however fast the machine is
    ROUNDS = 1

    def __init__(self, ml, ctx):
        self.ml = ml
        self.ctx = ctx
        self.tracer_snapshots = None
        self.first = {}
        self.output_bytes = 0
        p = ml.PendulumParams()
        self.chart = refs.PendulumChart(p.m0, p.md, p.J2)
        self.a_cl = refs.closed_loop_matrix(refs.chain_gains())
        self.ops = [
            Op(f"{metric}#{i}", self._spawn(metric, argv, i), self._verifier(metric),
               _digest, key=metric)
            for metric, argv in COMMANDS for i in range(1, INVOCATIONS + 1)
        ]
        self.round = 0

    # -- spawning ------------------------------------------------------------

    def _spawn(self, metric, argv, index):
        def run():
            cwd = self.ctx.work / f"round{self.round}" / metric / str(index)
            cwd.mkdir(parents=True)
            if self.tracer_snapshots is None:
                cmd = [sys.executable, "-m", "mechlift.cli", *argv]
            else:
                snap = cwd / "trace.json"
                self.tracer_snapshots.append(snap)
                cmd = [sys.executable, str(self.ctx.bench / "cli_child.py"), str(snap), *argv]
            with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
                code = subprocess.run(cmd, cwd=cwd, env=self.ctx.env, stdout=out, stderr=err,
                                      timeout=CHILD_TIMEOUT_S).returncode
            return Invocation(code, cwd)
        return run

    # -- checks --------------------------------------------------------------

    def _verifier(self, metric):
        check = getattr(self, f"_check_{metric}")

        def verify(inv, exc):
            if exc is not None:
                return f"{metric}: {type(exc).__name__}: {exc}"
            if inv.code != 0:
                tail = (inv.cwd / "stderr.txt").read_text()[-300:]
                return f"{metric}: exit code {inv.code}: {tail}"
            digest = _digest(inv, None)
            if metric in self.first:
                if digest != self.first[metric]:
                    raise WrongOutput(f"{metric}: invocations wrote different files")
                return None
            check(inv)
            self.first[metric] = digest
            self.output_bytes += sum(len(d) for n, d in inv.files().items() if n != "<stdout>")
            return None
        return verify

    def _check_simulate_pendulum(self, inv):
        _, states = _csv(inv.text("pendulum_states.csv"))
        _, ref = _csv(inv.text("pendulum_reference.csv"))
        t, s = states[:, 0], states[:, 1:]
        m = refs.one_step_matrix("midpoint", self.a_cl, t[1] - t[0])
        defect = refs.conjugacy_defect(self.chart, s, m)
        if not defect <= CONJUGACY_TOL:
            raise WrongOutput(f"simulate-pendulum: conjugacy defect {defect:.3e}")
        exact = refs.exact_flow(self.a_cl, self.chart.push(s[0]), t)
        pulled = np.array([self.chart.pull(z) for z in exact])
        err = float(np.abs(ref[:, 1:] - pulled).max())
        if not err <= REFERENCE_TOL:
            raise WrongOutput(f"simulate-pendulum: reference CSV off the exact flow by {err:.3e}")

    def _check_simulate_so3(self, inv):
        _, data = _csv(inv.text("rigid_body.csv"))
        t, trace_err, trace_ref, omegas = data[:, 0], data[:, 1], data[:, 2], data[:, 3:]
        if not abs(trace_err[0] - 2.0) <= 1e-12:
            raise WrongOutput(f"simulate-so3: initial trace error {trace_err[0]}, expected 2")
        steps = len(t) - 1
        h = t[1] - t[0]
        xi0 = np.array([0.0, -np.pi / 2, 0.0])
        rs, oms = refs.attitude_loop(refs.expm(refs.hat3(xi0)), np.zeros(3), 5.0, 10.0, h, steps)
        rerun = max(float(np.abs(trace_err - (3.0 - np.trace(rs, axis1=1, axis2=2))).max()),
                    float(np.abs(omegas - oms).max()))
        if not rerun <= RERUN_TOL:
            raise WrongOutput(f"simulate-so3: differs from the independent loop by {rerun:.3e}")
        lin = refs.attitude_linear_reference(5.0, 10.0, np.concatenate([xi0, np.zeros(3)]), t)
        exact = np.array([refs.trace_error(z[:3]) for z in lin])
        err = float(np.abs(trace_ref - exact).max())
        if not err <= REFERENCE_TOL:
            raise WrongOutput(f"simulate-so3: trace_err_ref off the exact reference by {err:.3e}")

    def _check_report(self, inv, label):
        report = json.loads(inv.text("check_report.json"))
        verdicts = {f"{grp}.{c['name']}": c["verdict"] for grp, conds in report.items()
                    for c in conds}
        bad = [k for k, v in verdicts.items() if v != "pass"]
        if bad or not verdicts or "verdict: PASS" not in inv.text("<stdout>"):
            raise WrongOutput(f"{label}: conditions not passed: {bad}")

    def _check_check_pendulum(self, inv):
        self._check_report(inv, "check pendulum")

    def _check_check_so3(self, inv):
        self._check_report(inv, "check so3")

    def _check_verify_maps(self, inv):
        lines = inv.text("<stdout>").strip().splitlines()
        bad = [ln for ln in lines if not ln.rstrip().endswith("pass")]
        if len(lines) != 10 or bad:
            raise WrongOutput(f"verify-maps: {len(lines)} lines, failing: {bad}")

    def _check_order_study_so3(self, inv):
        rows = inv.text("order_study.csv").strip().splitlines()[1:]
        h = np.array([float(r.split(",")[1]) for r in rows])
        err = np.array([float(r.split(",")[2]) for r in rows])
        slope = refs.order_fit(h, err)
        if not abs(slope - 1.0) <= 0.2:
            raise WrongOutput(f"order-study so3: order {slope:.3f}, expected 1 +/- 0.2")

    def check_round(self, outputs):
        self.round += 1

    def named_metrics(self, meas):
        return {f"cli_{metric}_s": (meas.median(metric), "s") for metric, _ in COMMANDS}
