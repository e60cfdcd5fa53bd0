"""Command-line front end: experiments, condition checks, map verification.

Subcommands::

    mechlift simulate-pendulum [--h H] [--t-final T] [--map KIND] [--out DIR] [--config FILE]
    mechlift simulate-so3      [--h H] [--t-final T] [--out DIR] [--config FILE]
    mechlift check SYSTEM      [--grid LO:HI:N] [--out DIR]
    mechlift verify-maps
    mechlift order-study SYSTEM [--map KINDS] [--h-list H1,H2,...] [--t-final T] [--out DIR]

A negative LO must be joined to its flag, as in ``--grid=-1.3:1.3:21``:
argparse reads a separate ``-1.3:1.3:21`` as an option.

Exit codes: 0 success, 1 condition/check failure, 2 numerical failure,
3 I/O failure, 4 usage error.  All floating-point output is printed with
17 significant digits, so repeated runs produce bit-identical files.

Every command loads ``geometry``, ``discretization`` and ``mechanics``;
``check`` alone loads ``linearizability``, and the simulations and the
order study alone load ``integrators``, each inside the command.
"""

import argparse
import json
import sys
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .discretization import (
    identity_diffeomorphism,
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
from .mechanics import (
    LinearMechanicalSystem,
    MFTransform,
    SystemBundle,
    pendulum_system,
    rigid_body_system,
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


def _json_type(value):
    """A config value's type: float for a JSON number a finite float holds (not a
    boolean, nor NaN, Infinity or an integer beyond float range), list for a list
    of numbers or of such lists (a gain matrix's rows)."""
    if isinstance(value, list):
        return list if all(_json_type(v) in (float, list) for v in value) else None
    if type(value) in (int, float):
        # NaN compares false, and an int compares exactly
        return float if abs(value) <= sys.float_info.max else None
    return type(value)


_TYPE_NAMES = {float: "a number", str: "a string", list: "a list of numbers", type(None): "null"}


def load_config(path, overrides, cfg):
    """``cfg`` with the JSON file's keys, then the flags, set.  The file
    holds one JSON object of ``cfg``'s fields, each value of its field's
    type; the run commands check the values."""
    if path:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file must hold a JSON object, got {json.dumps(data)}")
        unknown = set(data) - set(cfg.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            declared = cfg.__dataclass_fields__[key].type
            kinds = typing.get_args(declared) or (declared,)
            if _json_type(value) not in kinds:
                wanted = " or ".join(map(_TYPE_NAMES.get, kinds))
                raise ValueError(f"config key {key!r} must be {wanted}, got {json.dumps(value)}")
            setattr(cfg, key, value)
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _write_csv(path, header, columns):
    lines = [",".join(header)] + [",".join(_FMT % v for v in row) for row in zip(*columns)]
    Path(path).write_text("\n".join(lines) + "\n")


def _write_summary(out_dir, cfg, metrics):
    payload = {"config": asdict(cfg), "metrics": metrics}
    Path(out_dir, "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _where(exc):
    """Where a stepping loop failed: " at step k from state [...]", or ""."""
    return "" if exc.step is None else (
        f" at step {exc.step} from state [{', '.join(_FMT % v for v in exc.state)}]")


# ---------------------------------------------------------------------------
# simulate-pendulum
# ---------------------------------------------------------------------------

def _pendulum_loop(poles, gains=None):
    """Pendulum bundle, feedback gains (pole-placed unless given), A - B K."""
    from .integrators import pole_place
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
    from .integrators import linear_flow
    tmap = tangent_map(bundle.transform.phi)
    return tmap.inverse(linear_flow(a_cl, tmap.forward(s0), times))


def run_simulate_pendulum(cfg: PendulumConfig) -> int:
    """Closed-loop pendulum run against the exact-linear reference."""
    from .integrators import fl_discretize, grid_steps
    steps = grid_steps(cfg.t_final, cfg.h)
    if cfg.map_kind not in _MAP_BUILDERS:
        raise ValueError(f"unknown map kind {cfg.map_kind!r}")
    if np.shape(cfg.initial_state) != (4,):
        raise ValueError("pendulum initial_state must be 4 numbers (theta1, theta2, dtheta1, "
                         f"dtheta2), got {json.dumps(cfg.initial_state)}")
    bundle, gains, a_cl = _pendulum_loop(cfg.poles, cfg.gains)
    s0 = np.asarray(cfg.initial_state, float)
    base_map = _MAP_BUILDERS[cfg.map_kind](2)

    traj = fl_discretize(bundle, base_map, s0, cfg.h, steps, gains=gains)
    ref_states = _pendulum_reference(bundle, a_cl, s0, traj.t)

    e1 = np.abs(traj.states[:, 0] - ref_states[:, 0])
    ed1 = np.abs(traj.states[:, 2] - ref_states[:, 2])

    cols = lambda S: (traj.t, S[:, 0], S[:, 1], S[:, 2], S[:, 3])
    header = ["t", "theta1", "theta2", "dtheta1", "dtheta2"]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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


def _attitude_loop(z0, k1, k2, h, steps):
    """(R, Omega) from z0 = (xi, Omega) and after each of ``steps`` attitude steps; a
    ``MechliftError`` raised in step k carries ``step = k`` and the ``state`` it started
    from, R's nine entries then Omega."""
    from .integrators import so3_closed_loop_step
    rotation, omega = so3_exp(z0[:3]), z0[3:].copy()
    yield rotation, omega
    for k in range(steps):
        try:
            rotation, omega = so3_closed_loop_step(rotation, omega, k1, k2, h)
        except MechliftError as exc:
            exc.step, exc.state = k, np.concatenate([rotation.r.ravel(), omega])
            raise
        yield rotation, omega


def run_simulate_so3(cfg: So3Config) -> int:
    """Closed-loop rigid-body attitude run with the linear chart reference."""
    from .integrators import grid_steps, linear_flow
    steps = grid_steps(cfg.t_final, cfg.h)
    if np.shape(cfg.gains) != (2,):
        raise ValueError(f"so3 gains must be 2 numbers (K1, K2), got {json.dumps(cfg.gains)}")
    if np.shape(cfg.initial_state) != (6,):
        raise ValueError("so3 initial_state must be 6 numbers (xi, Omega), "
                         f"got {json.dumps(cfg.initial_state)}")
    z0 = np.asarray(cfg.initial_state, float)
    k1, k2 = float(cfg.gains[0]), float(cfg.gains[1])

    trace_err = np.empty(steps + 1)
    omegas = np.empty((steps + 1, 3))
    for k, (rotation, omega) in enumerate(_attitude_loop(z0, k1, k2, cfg.h, steps)):
        trace_err[k] = 3.0 - np.trace(rotation.r)
        omegas[k] = omega

    t = cfg.h * np.arange(steps + 1)
    ref = linear_flow(_attitude_closed_loop(k1, k2), z0, t)
    # 3 - trace exp(hat xi) = 2 - 2 cos|xi|
    trace_ref = 4.0 * np.sin(np.linalg.norm(ref[:, :3], axis=1) / 2.0) ** 2

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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

def _parse_grid(spec):
    """LO:HI:N as N evenly spaced points from LO to HI; N must be at
    least 1 and LO and HI finite, or the spec is a usage error."""
    lo, hi, count = spec.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"grid ends must be finite, got {spec}")
    if count < 1:
        raise ValueError(f"grid needs at least one point, got {spec}")
    return np.linspace(lo, hi, count)


def run_check(system, grid_spec, out_dir=None) -> int:
    """Run the linearizability conditions for a registered system."""
    from .linearizability import check_general, check_planar
    reports = {}
    if system == "pendulum":
        grid = _parse_grid(grid_spec or "-1.3:1.3:21")
        samples = [np.array([x1, 0.0]) for x1 in grid]
        bundle = pendulum_system()
        reports["planar"] = check_planar(bundle.system, samples)
        reports["general"] = check_general(bundle.system, samples)
    elif system == "so3":
        if grid_spec is not None:
            raise ValueError("check so3 runs on 13 seeded random rotations, not on a grid: "
                             "--grid does not apply")
        rng = np.random.default_rng(2024)
        samples = []
        for _ in range(13):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            samples.append(axis * rng.uniform(0.05, np.pi - 0.15))
        body = rigid_body_system(np.diag([1.0, 2.0, 3.0]))
        reports["general"] = check_general(body.exp_chart_system(), samples)
    elif system == "double-integrator":
        grid = _parse_grid(grid_spec or "-1:1:11")
        samples = [np.array([x1, 0.3]) for x1 in grid]
        sys_ = LinearMechanicalSystem(A=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                      B=np.array([[0.0], [1.0]])).as_mechanical_system()
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

def run_verify_maps() -> int:
    """Axiom checks for built-ins, tangent lifts, and pendulum-chart lifts.

    Each map of the roster is checked on 50 samples drawn from one
    generator seeded with 11; a map that fails names its first failing
    sample.
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

    ok = True
    for name, dmap, samples in roster:
        report = verify_axioms(dmap, samples)
        ok &= report.passed
        verdict = "pass"
        if not report.passed:
            first = ", ".join(f"{c:.6g}" for c in report.failures()[0])
            verdict = f"FAIL, first at sample ({first})"
        print(f"{name:32s} zero {report.worst_zero:.3e}  "
              f"jacobian {report.worst_jacobian:.3e}  {verdict}")

    # commutation of the two lift orders on the pendulum chart, on one
    # stack of 100 samples drawn point by point
    base = make_midpoint(2)
    route_a = tangent_lift(lift_by_diffeo(base, phi))
    route_b = lift_by_diffeo(tangent_lift(base), tangent_map(phi))
    s, w = map(np.array, zip(*[([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                                 rng.normal() * 0.5, rng.normal() * 0.5],
                                rng.normal(size=4) * 0.1) for _ in range(100)]))
    worst = max(np.abs(a - b).max() for a, b in zip(route_a.forward(s, w), route_b.forward(s, w)))
    commute_ok = worst < 1e-8
    ok &= commute_ok
    print(f"{'lift-order commutation':32s} defect {worst:.3e}  "
          f"{'pass' if commute_ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# order-study
# ---------------------------------------------------------------------------

def _pendulum_order_case(map_kind, t_final):
    from .integrators import fl_discretize
    bundle, gains, a_cl = _pendulum_loop([-10.0, -20.0, -30.0, -40.0])
    s0 = np.array([np.pi / 4, 0.0, 0.0, 0.0])

    def stepper(s, h, steps):
        return fl_discretize(bundle, _MAP_BUILDERS[map_kind](2), s, h, steps,
                             gains=gains).states[-1]

    return stepper, _pendulum_reference(bundle, a_cl, s0, [t_final])[-1], s0


def _harmonic_order_case(map_kind, t_final):
    from .integrators import fl_discretize
    # its own linear target under the identity chart, run open loop on utilde = 0
    lms = LinearMechanicalSystem(A=-np.eye(1), B=np.eye(1))
    sys_ = lms.as_mechanical_system()
    bundle = SystemBundle(sys_, MFTransform(sys_, identity_diffeomorphism(1), lms))
    s0 = np.array([1.0, 0.0])

    def stepper(s, h, steps):
        return fl_discretize(bundle, _MAP_BUILDERS[map_kind](1), s, h, steps,
                             utilde=np.zeros(steps)).states[-1]

    exact = np.array([np.cos(t_final), -np.sin(t_final)])
    return stepper, exact, s0


def _so3_order_case(t_final):
    from .integrators import linear_flow
    k1, k2 = 5.0, 10.0
    z0 = np.array([0.0, -np.pi / 2, 0.0, 0.0, 0.0, 0.0])

    def stepper(z, h, steps):
        for rotation, omega in _attitude_loop(z, k1, k2, h, steps):
            pass  # to the last state
        return np.concatenate([so3_log(rotation), omega])

    return stepper, linear_flow(_attitude_closed_loop(k1, k2), z0, [t_final])[-1], z0


def run_order_study(system, map_kinds, h_list, out_dir=None, t_final=1.0) -> int:
    """Global-error order fits per kind of ``map_kinds`` (midpoint if None), every kind and
    every step grid checked first, in one (map, h, error) table; ``so3`` takes no kinds and
    runs its group PD loop, as ``group``."""
    from .integrators import grid_steps, order_study
    for kind in map_kinds or ():
        if kind not in _MAP_BUILDERS:
            raise ValueError(f"unknown map kind {kind!r}")
    if system == "so3" and map_kinds is not None:
        raise ValueError("order-study so3 runs the group PD loop on SO(3), not a "
                         "discretization map: --map does not apply")
    cases = {"pendulum": _pendulum_order_case, "harmonic": _harmonic_order_case,
             "so3": lambda kind, t_final: _so3_order_case(t_final)}
    if system not in cases:
        raise UnknownSystem(f"no registered system named {system!r}")
    for h in h_list:
        grid_steps(t_final, h)  # before any reference is computed at t_final
    rows = []
    for kind in map_kinds or ["group" if system == "so3" else "midpoint"]:
        stepper, ref, s0 = cases[system](kind, t_final)
        study = order_study(stepper, ref, s0, t_final, h_list)
        for h, err, exc in zip(study.h, study.errors, study.exits):
            rows.append((kind, h, err))
            if exc is not None:
                print(f"{system}/{kind}: h = {_FMT % h} left the chart{_where(exc)}: {exc}")
        if study.slope is None:
            notice = "floor" if study.floored else "insufficient points"
            print(f"{system}/{kind}: slope omitted ({notice}); errors {study.errors}")
        else:
            print(f"{system}/{kind}: slope {study.slope:.3f} "
                  f"(fit residual {study.fit_residual:.2e})")
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["map,h,error"] + [f"{kind},{_FMT % h},{_FMT % err}" for kind, h, err in rows]
        (out / "order_study.csv").write_text("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """argparse's report of a parse error, with the usage exit code."""
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


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
    p.add_argument("--grid", default=None, metavar="LO:HI:N",
                   help="N sample points from LO to HI; write a negative LO as --grid=LO:HI:N")
    p.add_argument("--out", default=None)

    sub.add_parser("verify-maps")

    p = sub.add_parser("order-study")
    p.add_argument("system")
    p.add_argument("--map", default=None)
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
            kinds = None if args.map is None else args.map.split(",")
            return run_order_study(args.system, kinds, h_list, args.out, args.t_final)
    except (UnknownSystem, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MechliftError as exc:
        print(f"numerical failure{_where(exc)}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
