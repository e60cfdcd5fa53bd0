"""Command-line front end: experiments, condition checks, map verification.

Subcommands::

    mechlift simulate-pendulum [--h H] [--t-final T] [--map KIND] [--out DIR] [--config FILE]
    mechlift simulate-so3      [--h H] [--t-final T] [--out DIR] [--config FILE]
    mechlift check SYSTEM      [--grid LO:HI:N] [--out DIR]
    mechlift verify-maps
    mechlift order-study SYSTEM [--map KINDS] [--h-list H1,H2,...] [--out DIR]

Exit codes: 0 success, 1 condition/check failure, 2 numerical failure,
3 I/O failure, 4 usage error.  All floating-point output is printed with
17 significant digits, so repeated runs produce bit-identical files.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .discretization import (
    make_explicit_euler,
    make_implicit_euler,
    make_midpoint,
    lift_by_diffeo,
    tangent_lift,
    tangent_map,
    verify_axioms,
)
from .errors import MechliftError, UnknownSystem
from .geometry import so3_exp, so3_log
from .integrators import (
    _linear_step_jacobian,
    fl_discretize,
    grid_steps,
    linear_flow,
    order_study,
    pole_place,
    so3_closed_loop_step,
    step_sode,
)
from .linearizability import check_general, check_planar
from .mechanics import (
    LinearMechanicalSystem,
    MechanicalSystem,
    pendulum_system,
    rigid_body_system,
    sode_field,
)

_MAP_BUILDERS = {
    "explicit-euler": make_explicit_euler,
    "implicit-euler": make_implicit_euler,
    "midpoint": make_midpoint,
}

_FMT = "%.17g"


@dataclass
class So3Config:
    """simulate-so3 configuration; JSON config files use exactly these keys."""

    h: float = 0.01
    t_final: float = 10.0
    initial_state: list = field(default_factory=lambda: [0.0, -np.pi / 2, 0.0, 0.0, 0.0, 0.0])
    gains: list = field(default_factory=lambda: [5.0, 10.0])
    out_dir: str = "."


@dataclass
class PendulumConfig(So3Config):
    """simulate-pendulum configuration: the simulate-so3 keys plus the
    base map and the closed-loop poles, which ``gains`` override."""

    t_final: float = 1.0
    initial_state: list = field(default_factory=lambda: [np.pi / 4, 0.0, 0.0, 0.0])
    map_kind: str = "midpoint"
    poles: list = field(default_factory=lambda: [-10.0, -20.0, -30.0, -40.0])
    gains: list | None = None


def load_config(path, overrides, cfg):
    """``cfg`` with the JSON file's keys, then the flags, set; the run commands check values."""
    if path:
        with open(path) as fh:
            data = json.load(fh)
        unknown = set(data) - set(cfg.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            setattr(cfg, key, value)
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _write_csv(path, header, columns):
    rows = len(columns[0])
    lines = [",".join(header)]
    for i in range(rows):
        lines.append(",".join(_FMT % col[i] for col in columns))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_summary(out_dir, cfg, metrics):
    payload = {"config": asdict(cfg), "metrics": metrics}
    Path(out_dir, "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# simulate-pendulum
# ---------------------------------------------------------------------------

def _pendulum_loop(poles, gains=None):
    """Pendulum bundle, feedback gains (pole-placed unless given), A - B K."""
    bundle = pendulum_system()
    if gains is None:
        gains = pole_place(bundle.linear, poles)
    gains = np.atleast_2d(np.asarray(gains, float))
    a, b = bundle.linear.stacked()
    if gains.shape != b.T.shape:
        raise ValueError(f"pendulum gains must be {b.shape[0]} numbers, got {gains.size}")
    return bundle, gains, a - b @ gains


def _pendulum_reference(bundle, a_cl, s0, times):
    """Exact linear flow from the pushed s0, pulled back through the chart."""
    tmap = tangent_map(bundle.transform.phi)
    return np.array([tmap.inverse(z) for z in linear_flow(a_cl, tmap.forward(s0), times)])


def run_simulate_pendulum(cfg: PendulumConfig) -> int:
    """Closed-loop pendulum run against the exact-linear reference."""
    steps = grid_steps(cfg.t_final, cfg.h)
    if cfg.map_kind not in _MAP_BUILDERS:
        raise ValueError(f"unknown map kind {cfg.map_kind!r}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle, gains, a_cl = _pendulum_loop(cfg.poles, cfg.gains)
    s0 = np.asarray(cfg.initial_state, float)
    base_map = _MAP_BUILDERS[cfg.map_kind](2)

    traj = fl_discretize(bundle, base_map, s0, cfg.h, steps, gains=gains)
    ref_states = _pendulum_reference(bundle, a_cl, s0, traj.t)

    e1 = np.abs(traj.states[:, 0] - ref_states[:, 0])
    ed1 = np.abs(traj.states[:, 2] - ref_states[:, 2])

    cols = lambda S: (traj.t, S[:, 0], S[:, 1], S[:, 2], S[:, 3])
    header = ["t", "theta1", "theta2", "dtheta1", "dtheta2"]
    _write_csv(out / "pendulum_states.csv", header, cols(traj.states))
    _write_csv(out / "pendulum_reference.csv", header, cols(ref_states))
    _write_csv(out / "pendulum_errors.csv", ["t", "e1", "ed1"], (traj.t, e1, ed1))

    metrics = {
        "max_e1": float(e1.max()),
        "max_ed1": float(ed1.max()),
        "final_theta1": float(traj.states[-1, 0]),
        "gain": [float(v) for v in gains.ravel()],
    }
    _write_summary(out, cfg, metrics)
    print(f"pendulum: {steps} steps, max|e1| = {e1.max():.6e}, "
          f"max|ed1| = {ed1.max():.6e}")
    return 0


# ---------------------------------------------------------------------------
# simulate-so3
# ---------------------------------------------------------------------------

def _attitude_closed_loop(k1, k2):
    """A_cl of the attitude loop in the exponential chart, z = (xi, Omega)."""
    eye, zero = np.eye(3), np.zeros((3, 3))
    return np.block([[zero, eye], [-k1 * eye, -k2 * eye]])


def run_simulate_so3(cfg: So3Config) -> int:
    """Closed-loop rigid-body attitude run with the linear chart reference."""
    steps = grid_steps(cfg.t_final, cfg.h)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    z0 = np.asarray(cfg.initial_state, float)
    k1, k2 = float(cfg.gains[0]), float(cfg.gains[1])

    rotation = so3_exp(z0[:3])
    omega = z0[3:].copy()
    trace_err = np.empty(steps + 1)
    omegas = np.empty((steps + 1, 3))
    trace_err[0] = 3.0 - np.trace(rotation.r)
    omegas[0] = omega
    for k in range(steps):
        rotation, omega = so3_closed_loop_step(rotation, omega, k1, k2, cfg.h)
        trace_err[k + 1] = 3.0 - np.trace(rotation.r)
        omegas[k + 1] = omega

    t = cfg.h * np.arange(steps + 1)
    ref = linear_flow(_attitude_closed_loop(k1, k2), z0, t)
    trace_ref = np.array([3.0 - np.trace(so3_exp(z[:3]).r) for z in ref])

    _write_csv(out / "rigid_body.csv",
               ["t", "trace_err", "trace_err_ref", "p", "q", "r"],
               (t, trace_err, trace_ref, omegas[:, 0], omegas[:, 1], omegas[:, 2]))
    metrics = {
        "trace_err_initial": float(trace_err[0]),
        "trace_err_final": float(trace_err[-1]),
        "max_abs_omega_final": float(np.abs(omegas[-1]).max()),
    }
    _write_summary(out, cfg, metrics)
    print(f"so3: {steps} steps, trace_err(0) = {trace_err[0]:.6e}, "
          f"trace_err(T) = {trace_err[-1]:.6e}, max|omega(T)| = {metrics['max_abs_omega_final']:.6e}")
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _double_integrator() -> MechanicalSystem:
    lms = LinearMechanicalSystem(A=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                 B=np.array([[0.0], [1.0]]))
    return lms.as_mechanical_system()


def _parse_grid(spec):
    lo, hi, count = spec.split(":")
    return np.linspace(float(lo), float(hi), int(count))


def run_check(system, grid_spec, out_dir=None) -> int:
    """Run the linearizability conditions for a registered system."""
    reports = {}
    if system == "pendulum":
        grid = _parse_grid(grid_spec or "-1.3:1.3:21")
        samples = [np.array([x1, 0.0]) for x1 in grid]
        bundle = pendulum_system()
        reports["planar"] = check_planar(bundle.system, samples)
        reports["general"] = check_general(bundle.system, samples)
    elif system == "so3":
        count = int(_parse_grid(grid_spec or "0:1:13").size)
        rng = np.random.default_rng(2024)
        samples = []
        for _ in range(count):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            samples.append(axis * rng.uniform(0.05, np.pi - 0.15))
        body = rigid_body_system(np.diag([1.0, 2.0, 3.0]))
        reports["general"] = check_general(body.exp_chart_system(), samples)
    elif system == "double-integrator":
        grid = _parse_grid(grid_spec or "-1:1:11")
        samples = [np.array([x1, 0.3]) for x1 in grid]
        sys_ = _double_integrator()
        reports["planar"] = check_planar(sys_, samples)
        reports["general"] = check_general(sys_, samples)
    else:
        raise UnknownSystem(f"no registered system named {system!r}")

    all_pass = True
    payload = {}
    for label, report in reports.items():
        print(f"[{label}]")
        for line in report.summary_lines():
            print("  " + line)
        all_pass &= report.passed
        payload[label] = [
            dict(asdict(c), witness=None if c.witness is None else [float(v) for v in c.witness])
            for c in report.conditions
        ]
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "check_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    print("verdict:", "PASS" if all_pass else "FAIL")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# verify-maps
# ---------------------------------------------------------------------------

def run_verify_maps(extra_maps=None) -> int:
    """Axiom checks for built-ins, tangent lifts, and pendulum-chart lifts.

    Each map of the roster is checked on 50 samples drawn from one
    generator seeded with 11.  ``extra_maps`` is a test hook: an
    iterable of (name, map, samples) triples appended to the roster.
    """
    rng = np.random.default_rng(11)
    bundle = pendulum_system()
    phi = bundle.transform.phi

    roster = []
    for kind, builder in _MAP_BUILDERS.items():
        base = builder(2)
        roster.append((kind, base, [rng.normal(size=2) for _ in range(50)]))
        roster.append((f"{kind}+tangent", tangent_lift(base),
                       [rng.normal(size=4) for _ in range(50)]))
        chart_samples = [np.array([rng.uniform(-1.2, 1.2), rng.uniform(-1.5, 1.5)])
                         for _ in range(50)]
        roster.append((f"{kind}+pendulum-chart", lift_by_diffeo(base, phi), chart_samples))
    roster.extend(extra_maps or [])

    ok = True
    for name, dmap, samples in roster:
        report = verify_axioms(dmap, samples)
        ok &= report.passed
        print(f"{name:32s} zero {report.worst_zero:.3e}  "
              f"jacobian {report.worst_jacobian:.3e}  "
              f"{'pass' if report.passed else 'FAIL'}")

    # commutation of the two lift orders on the pendulum chart
    worst = 0.0
    base = make_midpoint(2)
    route_a = tangent_lift(lift_by_diffeo(base, phi))
    route_b = lift_by_diffeo(tangent_lift(base), tangent_map(phi))
    for _ in range(100):
        s = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                      rng.normal() * 0.5, rng.normal() * 0.5])
        w = rng.normal(size=4) * 0.1
        a0, a1 = route_a.forward(s, w)
        b0, b1 = route_b.forward(s, w)
        worst = max(worst, np.abs(a0 - b0).max(), np.abs(a1 - b1).max())
    commute_ok = worst < 1e-8
    ok &= commute_ok
    print(f"{'lift-order commutation':32s} defect {worst:.3e}  "
          f"{'pass' if commute_ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# order-study
# ---------------------------------------------------------------------------

def _pendulum_order_case(map_kind, t_final):
    bundle, gains, a_cl = _pendulum_loop([-10.0, -20.0, -30.0, -40.0])
    s0 = np.array([np.pi / 4, 0.0, 0.0, 0.0])

    def stepper(s, h, steps):
        return fl_discretize(bundle, _MAP_BUILDERS[map_kind](2), s, h, steps,
                             gains=gains).states[-1]

    return stepper, _pendulum_reference(bundle, a_cl, s0, [t_final])[-1], s0


def _harmonic_order_case(map_kind, t_final):
    lms = LinearMechanicalSystem(A=-np.eye(1), B=np.eye(1))
    sys_ = lms.as_mechanical_system()
    lifted = tangent_lift(_MAP_BUILDERS[map_kind](1))
    s0 = np.array([1.0, 0.0])

    def stepper(s, h, steps):
        jacobian = _linear_step_jacobian(lifted, lms, h)
        for _ in range(steps):
            s = step_sode(lifted, lambda z: sode_field(sys_, z, np.zeros(1)),
                          s, h, jacobian).state
        return s

    exact = np.array([np.cos(t_final), -np.sin(t_final)])
    return stepper, exact, s0


def _so3_order_case(t_final):
    k1, k2 = 5.0, 10.0
    z0 = np.array([0.0, -np.pi / 2, 0.0, 0.0, 0.0, 0.0])

    def stepper(z, h, steps):
        rotation = so3_exp(z[:3])
        omega = z[3:].copy()
        for _ in range(steps):
            rotation, omega = so3_closed_loop_step(rotation, omega, k1, k2, h)
        return np.concatenate([so3_log(rotation), omega])

    return stepper, linear_flow(_attitude_closed_loop(k1, k2), z0, [t_final])[-1], z0


def run_order_study(system, map_kinds, h_list, out_dir=None, t_final=1.0) -> int:
    """Global-error order fits; writes one (map, h, error) table."""
    rows = []
    for kind in map_kinds:
        if system == "pendulum":
            stepper, ref, s0 = _pendulum_order_case(kind, t_final)
        elif system == "harmonic":
            stepper, ref, s0 = _harmonic_order_case(kind, t_final)
        elif system == "so3":
            stepper, ref, s0 = _so3_order_case(t_final)
        else:
            raise UnknownSystem(f"no registered system named {system!r}")
        study = order_study(stepper, ref, s0, t_final, h_list)
        for h, err in zip(study.h, study.errors):
            rows.append((kind, h, err))
        if study.slope is None:
            notice = "floor" if study.floored else "insufficient points"
            print(f"{system}/{kind}: slope omitted ({notice}); errors {study.errors}")
        else:
            print(f"{system}/{kind}: slope {study.slope:.3f} "
                  f"(fit residual {study.fit_residual:.2e})")
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["map,h,error"]
        for kind, h, err in rows:
            lines.append(f"{kind},{_FMT % h},{_FMT % err}")
        (out / "order_study.csv").write_text("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(4)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mechlift")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate-pendulum", "simulate-so3"):
        p = sub.add_parser(name)
        p.add_argument("--h", type=float, default=None)
        p.add_argument("--t-final", type=float, default=None)
        if name == "simulate-pendulum":
            p.add_argument("--map", default=None, choices=sorted(_MAP_BUILDERS))
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None)

    p = sub.add_parser("check")
    p.add_argument("system")
    p.add_argument("--grid", default=None)
    p.add_argument("--out", default=None)

    sub.add_parser("verify-maps")

    p = sub.add_parser("order-study")
    p.add_argument("system")
    p.add_argument("--map", default="midpoint")
    p.add_argument("--h-list", default="0.02,0.01,0.005,0.0025")
    p.add_argument("--t-final", type=float, default=1.0)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 4

    try:
        if args.command == "simulate-pendulum":
            cfg = load_config(args.config, {
                "h": args.h, "t_final": args.t_final,
                "map_kind": args.map, "out_dir": args.out,
            }, PendulumConfig())
            return run_simulate_pendulum(cfg)
        if args.command == "simulate-so3":
            cfg = load_config(args.config, {
                "h": args.h, "t_final": args.t_final, "out_dir": args.out,
            }, So3Config())
            return run_simulate_so3(cfg)
        if args.command == "check":
            return run_check(args.system, args.grid, args.out)
        if args.command == "verify-maps":
            return run_verify_maps()
        if args.command == "order-study":
            h_list = [float(v) for v in args.h_list.split(",")]
            return run_order_study(args.system, args.map.split(","), h_list,
                                   args.out, args.t_final)
    except (UnknownSystem, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MechliftError as exc:
        where = ""
        if exc.step is not None:
            state = ", ".join(_FMT % v for v in exc.state)
            where = f" at step {exc.step} from state [{state}]"
        print(f"numerical failure{where}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
