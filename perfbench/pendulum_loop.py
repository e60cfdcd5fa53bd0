"""pendulum-loop: the implicit closed-loop step, in process and warm.

One round runs the inertia-wheel pendulum closed loop through
``fl_discretize`` with poles (-10, -20, -30, -40):

(a) the midpoint convergence ladder, h = 0.02, 0.01, 0.005, 0.0025 on
    [0, 1] from (pi/4, 0, 0, 0);
(b) each built-in base map at h = 0.01 on [0, 1] from a fixed in-chart
    state;
(c) three cases that fail today through known faults, counted as failed
    operations.

The inputs do not depend on the seed: a state drawn at random from
|x1| <= 0.8, other components in [-1, 1], now and then meets a fault
(chart exit reported as NoConvergence, or a conjugacy defect just over
1e-8), and whether an operation fails may not depend on the seed.  Those
faults are measured by the fixed cases (c) instead.

A trajectory is run as a chain of ``fl_discretize`` calls of at most
SEGMENT steps, each from the state where the last one ended, so that
the machine's speed is read between them (see engine.py).  With
feedback gains a step depends only on the state it starts from, so the
chain computes the same states as one call; the only work added is
building the lifted map once per segment.

Every returned trajectory must be conjugate, step for step, to its
map's closed-form one-step matrix (defect <= 1e-8), and the ladder must
fit order 2 +/- 0.2 against the exact flow pulled back through the chart.
"""

import numpy as np

import refs
from engine import Op, WrongOutput, digest_arrays

LADDER = (0.02, 0.01, 0.005, 0.0025)
S0 = np.array([np.pi / 4, 0.0, 0.0, 0.0])
CONJUGACY_TOL = 1e-8
SEGMENT = 10
# part (b): the exact discrete loop of each stays within |sin x1| <= 0.57
STATES = {
    "explicit-euler": np.array([0.3, -0.2, 0.5, -0.5]),
    "implicit-euler": np.array([-0.4, 0.6, -0.3, 0.8]),
    "midpoint": np.array([0.6, 0.1, -0.7, 0.2]),
}
# case (c3): a state whose explicit-Euler loop reaches |z| = 5.1e5
S_PRECISION = np.array([-0.5278014962057567, -0.15471922756090906,
                        -0.8334948748998636, -0.8437071161801359])


def _output_digest(traj, exc):
    if exc is not None:
        return f"{type(exc).__name__}: {exc}"
    return digest_arrays(traj)


class PendulumLoop:
    # a round takes 11 to 20 s: every run is exactly one round, so that
    # each operation is timed once in every run, however fast the machine is
    ROUNDS = 1

    def __init__(self, ml):
        self.ml = ml
        self.bundle = ml.pendulum_system()
        gains = ml.pole_place(self.bundle.linear, list(refs.POLES))
        k_ref = refs.chain_gains()
        if not np.allclose(gains, k_ref, rtol=1e-9, atol=0.0):
            raise WrongOutput(f"pole_place gave {gains.ravel()}, expected {k_ref.ravel()}")
        self.gains = gains
        p = ml.PendulumParams()
        self.chart = refs.PendulumChart(p.m0, p.md, p.J2)
        self.a_cl = refs.closed_loop_matrix(k_ref)
        self.ops = self._ops()

    def _trajectory(self, kind, s0, h, steps):
        """A segmented run: the states of the closed loop from ``s0``."""
        ml = self.ml
        make = getattr(ml, "make_" + kind.replace("-", "_"))

        def run(timed):
            parts = [np.asarray(s0, float)[None]]
            for start in range(0, steps, SEGMENT):
                state, n = parts[-1][-1], min(SEGMENT, steps - start)
                traj = timed(lambda: ml.fl_discretize(self.bundle, make(2), state, h, n,
                                                      gains=self.gains))
                parts.append(traj.states[1:])
            return np.concatenate(parts)
        return run

    def _conjugate(self, kind, h, label, known_fault=None):
        """Check the trajectory against the closed-form one-step matrix.

        With ``known_fault`` a defect over the bound is that counted
        fault rather than a wrong output.
        """
        m = refs.one_step_matrix(kind, self.a_cl, h)

        def verify(traj, exc):
            if exc is not None:
                return f"{label}: {type(exc).__name__}: {exc}"
            defect = refs.conjugacy_defect(self.chart, traj, m)
            if defect <= CONJUGACY_TOL:
                return None
            message = f"{label}: conjugacy defect {defect:.3e} > {CONJUGACY_TOL}"
            if known_fault is None:
                raise WrongOutput(message)
            return f"{message}; {known_fault}"
        return verify

    def _ops(self):
        ops = []
        for h in LADDER:
            steps = int(round(1.0 / h))
            name = f"ladder midpoint h={h}"
            ops.append(Op(name, self._trajectory("midpoint", S0, h, steps),
                          self._conjugate("midpoint", h, name), _output_digest,
                          units=steps, group="steps", segmented=True))
        for kind, s0 in STATES.items():
            self._require_in_chart(kind, 0.01, s0, 100)
            name = f"{kind} h=0.01 s0={tuple(s0.tolist())}"
            ops.append(Op(name, self._trajectory(kind, s0, 0.01, 100),
                          self._conjugate(kind, 0.01, name), _output_digest,
                          units=100, group="steps", segmented=True))
        ops.append(self._stall_case())
        ops.append(self._chart_exit_case())
        ops.append(self._precision_case())
        return ops

    def _require_in_chart(self, kind, h, s0, steps):
        m = refs.one_step_matrix(kind, self.a_cl, h)
        exit_step, _ = refs.discrete_chart_exit(self.chart, m, s0, steps)
        if exit_step is not None:
            raise RuntimeError(f"{kind} from {s0}: the exact loop leaves the chart")

    def _stall_case(self):
        """Midpoint, h = 0.1 from (pi/4, 0, 0, 0): the exact step exists.

        The Cayley update pulled back through the chart stays in the
        chart at all ten steps, so success is a converged trajectory
        that passes the conjugacy check.  Today the Newton solve,
        seeded with the explicit predictor, stalls at step 0.
        """
        self._require_in_chart("midpoint", 0.1, S0, 10)
        name = "fault: midpoint h=0.1 s0=(pi/4,0,0,0)"
        conjugate = self._conjugate("midpoint", 0.1, name)

        def verify(traj, exc):
            if exc is not None:
                return (f"{name}: {type(exc).__name__} although the exact step exists "
                        f"at every step ({exc})")
            return conjugate(traj, exc)
        return Op(name, self._trajectory("midpoint", S0, 0.1, 10), verify, _output_digest,
                  segmented=True)

    def _chart_exit_case(self):
        """Midpoint, h = 0.01 from (1.2, 0, 0, 0): the exact loop leaves the chart.

        The truthful outcome is OutsideChart; any other exception is a
        counted failure, and a returned trajectory is a wrong output.
        """
        s0 = np.array([1.2, 0.0, 0.0, 0.0])
        m = refs.one_step_matrix("midpoint", self.a_cl, 0.01)
        exit_step, _ = refs.discrete_chart_exit(self.chart, m, s0, 100)
        if exit_step is None:
            raise RuntimeError("chart-exit case: the exact loop was expected to leave the chart")
        name = "fault: midpoint h=0.01 s0=(1.2,0,0,0)"
        outside = self.ml.OutsideChart

        def verify(traj, exc):
            if isinstance(exc, outside):
                return None
            if exc is not None:
                return (f"{name}: {type(exc).__name__} where OutsideChart is due, the exact "
                        f"loop leaves the chart at step {exit_step} ({exc})")
            raise WrongOutput(f"{name}: returned a trajectory, but the exact loop leaves "
                              f"the chart at step {exit_step}")
        return Op(name, self._trajectory("midpoint", s0, 0.01, 100), verify, _output_digest,
                  segmented=True)

    def _precision_case(self):
        """Explicit Euler, h = 0.01, from S_PRECISION: conjugacy just misses 1e-8.

        The exact loop stays in the chart, the solve converges, and the
        trajectory's per-step conjugacy defect is 1.26e-8 at step 9,
        where |z| = 5.1e5: the step's residual tolerance is set in the
        original chart, not in the conjugate one.  Success: a defect
        within 1e-8.
        """
        self._require_in_chart("explicit-euler", 0.01, S_PRECISION, 100)
        name = "fault: explicit-euler h=0.01 s0=S_PRECISION"
        return Op(name, self._trajectory("explicit-euler", S_PRECISION, 0.01, 100),
                  self._conjugate("explicit-euler", 0.01, name,
                                  known_fault="residual tolerance not scaled to |z|"),
                  _output_digest, segmented=True)

    def check_round(self, outputs):
        """The ladder fits order 2 +/- 0.2 against the pulled-back exact flow."""
        z_end = refs.exact_flow(self.a_cl, self.chart.push(S0), [1.0])[0]
        exact = self.chart.pull(z_end)
        errors = []
        for h in LADDER:
            traj = outputs[f"ladder midpoint h={h}"]
            if traj is None:
                return  # a failed ladder rung is already counted
            errors.append(float(np.linalg.norm(traj[-1] - exact)))
        slope = refs.order_fit(LADDER, errors)
        if not abs(slope - 2.0) <= 0.2:
            raise WrongOutput(f"midpoint ladder order {slope:.3f}, expected 2 +/- 0.2")

    def named_metrics(self, meas):
        return {"pendulum_steps_per_s": (meas.rate("steps"), "steps/s")}
