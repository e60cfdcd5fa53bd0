"""mechlift benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pendulum-loop, cli-cold, group-and-checker (see README.md).
The program is taken from ``src/`` of the checkout; nothing is built or
installed.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of one
traced round and the tracing overhead.
"""

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# one BLAS thread in this process and in every child it starts
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_CODE = {
    "bundle": ("import mechlift\n"
               "b = mechlift.pendulum_system()\n"
               "mechlift.pole_place(b.linear, [-10.0, -20.0, -30.0, -40.0])\n"),
    "import": "import mechlift\n",
}
IMPORTS = {"mechlift": "import.mechlift_ms", "scipy.integrate": "import.scipy_integrate_ms",
           "numpy": "import.numpy_ms"}
PER_LAYER = (
    ("integrators.step_sode.calls", "count"),
    ("integrators.newton_iters_per_step", "count"),
    ("integrators.residual_evals_per_step", "count"),
    ("discretization.inverse.calls", "count"),
    ("discretization.jacobian.calls", "count"),
    ("discretization.forward.calls", "count"),
    ("discretization.diffeo.calls", "count"),
    ("mechanics.apply_feedback.calls", "count"),
    ("mechanics.sode_field.calls", "count"),
    ("mechanics.push_state.calls", "count"),
    ("geometry.float_array.calls", "count"),
    ("geometry.rotation.calls", "count"),
    ("geometry.numeric_jacobian.calls", "count"),
    ("numpy.linalg.solve.calls", "count"),
    ("linearizability.second_covariant_derivative.calls", "count"),
    ("cli.output.bytes", "bytes"),
    ("integrators.self_ms", "ms"),
    ("discretization.self_ms", "ms"),
    ("mechanics.self_ms", "ms"),
    ("geometry.self_ms", "ms"),
    ("import.mechlift_ms", "ms"),
    ("import.scipy_integrate_ms", "ms"),
    ("import.numpy_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


class Context:
    """Paths and the child environment of one run."""

    def __init__(self, workload):
        self.bench = BENCH
        self.work = BENCH / "_work" / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update({var: "1" for var in BLAS_VARS})


def import_mechlift():
    """Import mechlift from ``src/`` of this checkout, BLAS on one thread."""
    if not (SRC / "mechlift" / "__init__.py").is_file():
        raise ImportError(f"no mechlift sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import mechlift

    if Path(mechlift.__file__).resolve().parent != SRC / "mechlift":
        raise ImportError(f"imported mechlift from {mechlift.__file__}, not {SRC}")
    return mechlift


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the speed
    reads and the work they scale run on the same one."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def time_setup(ctx, meter, code, trace):
    """Median reference-speed time of fresh-process set-ups, after one
    untimed warm-up.

    The warm-up writes the bytecode caches, which a user pays once.
    With ``trace`` the children run under ``-X importtime`` and the
    median cumulative import times are returned too.
    """
    flags = ["-X", "importtime"] if trace else []
    walls, imports = [], {name: [] for name in IMPORTS}
    for i in range(SETUP_REPEATS + 1):
        def spawn():
            return subprocess.run([sys.executable, *flags, "-c", code], env=ctx.env,
                                  cwd=ROOT, capture_output=True, text=True, timeout=120)
        scaled = meter.scaled
        proc = meter.timed(spawn)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-500:]}")
        if i == 0:
            continue
        walls.append(meter.scaled - scaled)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m and m.group(2) in imports:
                imports[m.group(2)].append(int(m.group(1)) / 1e3)
    return statistics.median(walls), {IMPORTS[k]: statistics.median(v) if v else 0.0
                                      for k, v in imports.items()}


def load_workload(name, ml, seed, ctx):
    if name == "pendulum-loop":
        from pendulum_loop import PendulumLoop
        return PendulumLoop(ml)
    if name == "group-and-checker":
        from group_checker import GroupChecker
        return GroupChecker(ml, seed)
    from cli_cold import CliCold
    return CliCold(ml, ctx)


def layer_metrics(tracer, wl, imports, overhead_pct):
    from tracing import Summary

    s = Summary(tracer)
    steps = s.calls("integrators.step_sode")

    def per_step(value):
        return value / steps if steps else 0.0

    values = {
        "integrators.step_sode.calls": steps,
        "integrators.newton_iters_per_step": per_step(tracer.counters.get(
            "integrators.newton_iters", 0)),
        "integrators.residual_evals_per_step": per_step(s.residual_evals()),
        "discretization.inverse.calls": s.calls_prefix("discretization.map.inverse."),
        "discretization.jacobian.calls": s.calls_prefix("discretization.map.jacobian."),
        "discretization.forward.calls": s.calls_prefix("discretization.map.forward."),
        "discretization.diffeo.calls": s.calls_prefix("discretization.diffeo."),
        "mechanics.apply_feedback.calls": s.calls("mechanics.apply_feedback"),
        "mechanics.sode_field.calls": s.calls("mechanics.sode_field",
                                              "mechanics.sode_field_stacked"),
        "mechanics.push_state.calls": s.calls("mechanics.MFTransform.push_state"),
        "geometry.float_array.calls": s.calls("geometry.float_array"),
        "geometry.rotation.calls": s.calls("geometry.Rotation.__init__"),
        "geometry.numeric_jacobian.calls": s.calls("geometry.numeric_jacobian"),
        "numpy.linalg.solve.calls": s.calls("numpy.linalg.solve"),
        "linearizability.second_covariant_derivative.calls": s.calls(
            "linearizability.second_covariant_derivative"),
        "cli.output.bytes": getattr(wl, "output_bytes", 0),
        "integrators.self_ms": s.self_ms("integrators"),
        "discretization.self_ms": s.self_ms("discretization"),
        "mechanics.self_ms": s.self_ms("mechanics"),
        "geometry.self_ms": s.self_ms("geometry"),
        "trace.overhead_pct": overhead_pct,
    }
    values.update(imports)
    return s, values


def write_trace(path, summary, tracer, values, meas):
    rows = summary.table()
    payload = {
        "layer_metrics": values,
        "spans": [{"name": n, "calls": c, "total_ms": t, "self_ms": sm, "us_per_call": u}
                  for n, c, t, sm, u in rows],
        "edges": [{"parent": p, "name": n, "calls": c, "total_ms": 1e3 * t, "self_ms": 1e3 * sm}
                  for (p, n), (c, t, sm) in tracer.edges.items()],
        "counters": tracer.counters,
        "operations": [{"name": n, "ms": 1e3 * (e - b)} for n, b, e in tracer.ops],
        "round_walls_s": meas.round_walls,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pendulum-loop", "cli-cold", "group-and-checker"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        ml = import_mechlift()
    except ImportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    from engine import ChildSpeedMeter, Measurement, SpeedMeter, WrongOutput

    pin_to_one_cpu()
    ctx = Context(args.workload)
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        child_meter = ChildSpeedMeter(ctx.env)
        code = SETUP_CODE["import" if args.workload == "cli-cold" else "bundle"]
        setup_s, imports = time_setup(ctx, child_meter, code, trace=bool(args.trace))
        wl = load_workload(args.workload, ml, args.seed, ctx)
        meas = Measurement(wl.ops, child_meter if args.workload == "cli-cold" else SpeedMeter())
        wrong = []

        def after_round(outputs):
            try:
                wl.check_round(outputs)
            except WrongOutput as err:
                wrong.append(str(err))

        start = time.perf_counter()
        if args.trace:
            from tracing import Tracer, install

            untraced = meas.run_round(after_round=after_round)
            tracer = Tracer()
            install(tracer)
            if args.workload == "cli-cold":
                wl.tracer_snapshots = []
            tracer.enabled = True
            traced = meas.run_round(tracer=tracer, after_round=after_round)
            tracer.enabled = False
            for snap in getattr(wl, "tracer_snapshots", None) or []:
                if snap.is_file():
                    tracer.merge(json.loads(snap.read_text()))
            overhead = 100.0 * (traced / untraced - 1.0)
        elif wl.ROUNDS:
            for _ in range(wl.ROUNDS):
                meas.run_round(after_round=after_round)
        else:
            meas.run_for(args.seconds, after_round=after_round)
        elapsed = time.perf_counter() - start
        wrong.extend(meas.wrong)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  rounds {meas.rounds}  "
          f"measured {elapsed:.1f} s")
    print(f"operations attempted {meas.attempted}  failed {meas.failed}")
    for name, fault in meas.faults.items():
        print(f"  failed: {fault}")
    for msg in wrong:
        print(f"  WRONG OUTPUT: {msg}")
    print("  operation times at reference speed (wall time as measured in brackets):")
    for key in dict.fromkeys(op.key for op in wl.ops):
        print(f"  op {key:60s} median {1e3 * meas.median(key):10.2f} ms "
              f"({1e3 * meas.median(key, raw=True):10.2f} ms) over {len(meas.times[key])}")

    if args.trace:
        summary, values = layer_metrics(tracer, wl, imports, overhead)
        trace_path = BENCH / "_work" / f"trace-{args.workload}-seed{args.seed}.json"
        rows = write_trace(trace_path, summary, tracer, values, meas)
        print(f"traced round {traced:.3f} s, untraced round {untraced:.3f} s, "
              f"overhead {overhead:.1f} %; spans written to {trace_path.relative_to(ROOT)}")
        print(f"  {'span':58s} {'calls':>9s} {'total ms':>11s} {'self ms':>11s} {'us/call':>10s}")
        for name, calls, total, self_ms, per_call in rows[:40]:
            print(f"  {name:58s} {calls:9d} {total:11.2f} {self_ms:11.2f} {per_call:10.2f}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli-cold"
                                 else resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_s": {"value": meas.round_s(), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        print(f"metric raw_round_s {meas.round_s(raw=True):.6g} s (as measured, not scaled)")
        for name, (value, unit) in wl.named_metrics(meas).items():
            print(f"metric {name} {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": meas.attempted,
                      "failed": meas.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
