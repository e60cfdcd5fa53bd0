"""group-and-checker: the explicit paths, in process and warm.

One round runs

* ``so3_closed_loop_step`` for 1,000 steps from each of four seeded
  attitudes (angle in [0.05, pi - 0.15], zero rate), K1 = 5, K2 = 10,
  h = 0.01;
* ``check_planar`` and ``check_general`` on 21 seeded pendulum points
  with |x1| <= 1.3, ``check_planar`` on the grid of 21 points across
  [-pi/2, pi/2], and ``check_general`` on the rigid body's exp chart at
  13 seeded samples;
* ``verify_axioms`` on the nine maps of acceptance criterion 2 (50
  seeded samples each) and the lift-order commutation on 100 samples.

No operation here solves a Newton system.
"""

import numpy as np

import refs
from engine import Op, WrongOutput, digest_arrays

SO3_RUNS = 4
SO3_STEPS = 1000
K1, K2, H = 5.0, 10.0, 0.01
GROUP_TOL = 1e-12
RERUN_TOL = 1e-9


def _digest(output, exc):
    if exc is not None:
        return f"{type(exc).__name__}: {exc}"
    return digest_arrays(*output) if isinstance(output, tuple) else repr(output)


class GroupChecker:
    ROUNDS = None  # rounds for --seconds; a round takes about 0.5 s

    def __init__(self, ml, seed):
        self.ml = ml
        self.rng = np.random.default_rng([seed, 2])
        self.ops = self._so3_ops() + self._check_ops() + self._axiom_ops()

    # -- attitude loop -------------------------------------------------------

    def _so3_ops(self):
        ops = []
        for i in range(SO3_RUNS):
            axis = self.rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            xi0 = axis * self.rng.uniform(0.05, np.pi - 0.15)
            name = f"so3 run {i} angle={np.linalg.norm(xi0):.4f}"
            ops.append(Op(name, self._so3_run(xi0), self._so3_verify(name, xi0), _digest,
                          units=SO3_STEPS, group="so3"))
        return ops

    def _so3_run(self, xi0):
        ml = self.ml

        def run():
            rotation, omega = ml.so3_exp(xi0), np.zeros(3)
            rs = np.empty((SO3_STEPS + 1, 3, 3))
            oms = np.empty((SO3_STEPS + 1, 3))
            rs[0], oms[0] = rotation.r, omega
            for k in range(SO3_STEPS):
                rotation, omega = ml.so3_closed_loop_step(rotation, omega, K1, K2, H)
                rs[k + 1], oms[k + 1] = rotation.r, omega
            return rs, oms
        return run

    def _so3_verify(self, name, xi0):
        def verify(output, exc):
            if exc is not None:
                return f"{name}: {type(exc).__name__}: {exc}"
            rs, oms = output
            orth = float(np.abs(np.einsum("kji,kjl->kil", rs, rs) - np.eye(3)).max())
            det = float(np.abs(np.linalg.det(rs) - 1.0).max())
            if not (orth <= GROUP_TOL and det <= GROUP_TOL):
                raise WrongOutput(f"{name}: orthogonality {orth:.2e}, determinant drift "
                                  f"{det:.2e} (bound {GROUP_TOL})")
            r_ref, om_ref = refs.attitude_loop(refs.expm(refs.hat3(xi0)), np.zeros(3),
                                               K1, K2, H, SO3_STEPS)
            diff = max(float(np.abs(rs - r_ref).max()), float(np.abs(oms - om_ref).max()))
            if not diff <= RERUN_TOL:
                raise WrongOutput(f"{name}: differs from the independent re-run by {diff:.2e}")
            return None
        return verify

    # -- linearizability checker ---------------------------------------------

    def _check_ops(self):
        ml = self.ml
        inner = [np.array([x1, self.rng.uniform(-1.0, 1.0)])
                 for x1 in np.sort(self.rng.uniform(-1.3, 1.3, 21))]
        crossing = [np.array([x1, 0.0]) for x1 in np.linspace(-np.pi / 2, np.pi / 2, 21)]
        body_samples = []
        for _ in range(13):
            xi = self.rng.normal(size=3)
            xi *= self.rng.uniform(0.05, np.pi - 0.15) / np.linalg.norm(xi)
            body_samples.append(xi)

        def pendulum_check(check, samples):
            return lambda: getattr(ml, check)(ml.pendulum_system().system, samples)

        def body_check():
            body = ml.rigid_body_system(np.diag([1.0, 2.0, 3.0]))
            return ml.check_general(body.exp_chart_system(), body_samples)

        return [
            Op("check_planar pendulum |x1|<=1.3", pendulum_check("check_planar", inner),
               self._passes("check_planar pendulum |x1|<=1.3"), _report_digest,
               units=len(inner), group="check"),
            Op("check_general pendulum |x1|<=1.3", pendulum_check("check_general", inner),
               self._passes("check_general pendulum |x1|<=1.3"), _report_digest,
               units=len(inner), group="check"),
            Op("check_planar pendulum across pi/2", pendulum_check("check_planar", crossing),
               self._md1_fails("check_planar pendulum across pi/2"), _report_digest,
               units=len(crossing), group="check"),
            Op("check_general rigid body", body_check,
               self._passes("check_general rigid body"), _report_digest,
               units=len(body_samples), group="check"),
        ]

    @staticmethod
    def _passes(name):
        def verify(report, exc):
            if exc is not None:
                return f"{name}: {type(exc).__name__}: {exc}"
            bad = [c.name for c in report.conditions if c.verdict != "pass"]
            if bad or not report.passed:
                raise WrongOutput(f"{name}: conditions not passed: {bad}")
            return None
        return verify

    @staticmethod
    def _md1_fails(name):
        def verify(report, exc):
            if exc is not None:
                return f"{name}: {type(exc).__name__}: {exc}"
            md1 = report["MD1"]
            if md1.verdict != "fail" or md1.witness is None:
                raise WrongOutput(f"{name}: MD1 {md1.verdict} where the feedback is singular")
            if not abs(abs(md1.witness[0]) - np.pi / 2) < 1e-3:
                raise WrongOutput(f"{name}: MD1 witness {md1.witness[0]} not within 1e-3 of pi/2")
            return None
        return verify

    # -- map axioms and lift commutation --------------------------------------

    def _axiom_ops(self):
        ml = self.ml
        phi = ml.pendulum_system().transform.phi
        ops = []
        for kind in refs.MAP_KINDS:
            maker = "make_" + kind.replace("-", "_")
            cases = (
                (kind, lambda b=maker: getattr(ml, b)(2),
                 [self.rng.normal(size=2) for _ in range(50)]),
                (f"{kind}+tangent", lambda b=maker: ml.tangent_lift(getattr(ml, b)(2)),
                 [self.rng.normal(size=4) for _ in range(50)]),
                (f"{kind}+pendulum-chart",
                 lambda b=maker: ml.lift_by_diffeo(getattr(ml, b)(2), phi),
                 [np.array([self.rng.uniform(-1.2, 1.2), self.rng.uniform(-1.5, 1.5)])
                  for _ in range(50)]),
            )
            for name, make, samples in cases:
                def run(make=make, samples=samples):
                    dmap = make()
                    return dmap, ml.verify_axioms(dmap, samples)
                ops.append(Op(f"axioms {name}", run, self._axioms_hold(f"axioms {name}", samples),
                              _axiom_digest, units=len(samples), group="axiom"))
        ops.append(self._commutation_op(phi))
        return ops

    @staticmethod
    def _axioms_hold(name, samples):
        def verify(output, exc):
            if exc is not None:
                return f"{name}: {type(exc).__name__}: {exc}"
            dmap, report = output
            if not (report.passed and report.worst_zero < 1e-10
                    and report.worst_jacobian < 1e-6):
                raise WrongOutput(f"{name}: axiom defects {report.worst_zero:.2e}, "
                                  f"{report.worst_jacobian:.2e}")
            # axiom 1 recomputed from the forward map: forward(x, 0) == (x, x)
            n = dmap.dim
            zero = max(max(np.abs(a - x).max(), np.abs(b - x).max())
                       for x in samples for a, b in [dmap.forward(x, np.zeros(n))])
            if not zero < 1e-10:
                raise WrongOutput(f"{name}: forward(x, 0) differs from (x, x) by {zero:.2e}")
            return None
        return verify

    def _commutation_op(self, phi):
        ml = self.ml
        samples = [(np.array([self.rng.uniform(-1.0, 1.0), self.rng.uniform(-1.0, 1.0),
                              self.rng.normal() * 0.5, self.rng.normal() * 0.5]),
                    self.rng.normal(size=4) * 0.1) for _ in range(100)]

        def run():
            base = ml.make_midpoint(2)
            route_a = ml.tangent_lift(ml.lift_by_diffeo(base, phi))
            route_b = ml.lift_by_diffeo(ml.tangent_lift(base), ml.tangent_map(phi))
            worst = 0.0
            for s, w in samples:
                a0, a1 = route_a.forward(s, w)
                b0, b1 = route_b.forward(s, w)
                worst = max(worst, np.abs(a0 - b0).max(), np.abs(a1 - b1).max())
            return float(worst)

        def verify(worst, exc):
            if exc is not None:
                return f"lift-order commutation: {type(exc).__name__}: {exc}"
            if not worst < 1e-8:
                raise WrongOutput(f"lift-order commutation defect {worst:.2e} >= 1e-8")
            return None
        return Op("lift-order commutation", run, verify, _digest,
                  units=len(samples), group="axiom")

    def check_round(self, outputs):
        pass

    def named_metrics(self, meas):
        return {
            "so3_steps_per_s": (meas.rate("so3"), "steps/s"),
            "check_points_per_s": (meas.rate("check"), "points/s"),
            "axiom_samples_per_s": (meas.rate("axiom"), "samples/s"),
        }


def _report_digest(report, exc):
    if exc is not None:
        return f"{type(exc).__name__}: {exc}"
    return repr([(c.name, c.verdict, float(c.defect),
                  None if c.witness is None else list(map(float, c.witness)))
                 for c in report.conditions])


def _axiom_digest(output, exc):
    if exc is not None:
        return f"{type(exc).__name__}: {exc}"
    _, report = output
    return digest_arrays(report.zero_defects, report.jacobian_defects)
