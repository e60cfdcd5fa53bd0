import dataclasses
import hashlib
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import mechlift
from mechlift import (
    DimensionMismatch,
    DiscretizationMap,
    LinearMechanicalSystem,
    MechanicalSystem,
    MultiInputUnsupported,
    NonFinite,
    NotLinearityPreserving,
    OutsideChart,
    PendulumParams,
    Rotation,
    SingularFeedback,
    SingularStep,
    Uncontrollable,
    apply_feedback,
    fl_discretize,
    linear_flow,
    linear_one_step,
    linear_two_step,
    make_explicit_euler,
    make_implicit_euler,
    make_midpoint,
    order_study,
    pendulum_system,
    pole_place,
    so3_closed_loop_step,
    so3_exp,
    so3_log,
    sode_field,
    step_sode,
    tangent_lift,
    tangent_map,
    theta_update_matrix,
)
from mechlift.integrators import Trajectory, grid_steps
from mechlift.geometry import NEWTON_TOL, _scalar
from conftest import PARAMS, flat_bundle, row_by_row

PAPER_R0 = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
POLES = [-10.0, -20.0, -30.0, -40.0]


def harmonic_oscillator():
    return MechanicalSystem(
        1, 1,
        gamma=lambda x: np.zeros((1, 1, 1)),
        e=lambda x: -x,
        g=lambda x: np.eye(1),
    )


def double_integrator_lms():
    return LinearMechanicalSystem(A=np.zeros((1, 1)), B=np.eye(1))


def unforced(sys):
    """The system's second-order field under zero control."""
    return lambda s: sode_field(sys, s, np.zeros(sys.m))


@pytest.fixture()
def rotations(monkeypatch):
    """The rotations validated, one entry per call of the one validation,
    ``_validated``, which ``Rotation(m)``, ``so3_exp`` and the attitude
    step each make once for the rotation they build."""
    validated = mechlift.geometry._validated
    built = []

    def counting(r, entries=None):
        built.append(validated(r, entries))
        return built[-1]

    monkeypatch.setattr(mechlift.geometry, "_validated", counting)
    return built


class TestStepFirstOrder:
    # step_sode on a base map and a first-order field: the scheme the map
    # induces on that field
    def test_explicit_euler_bit_exact(self):
        m = make_explicit_euler(1)
        x0 = np.array([1.0])
        out = step_sode(m, lambda x: x, x0, 0.1)
        assert out.state[0] == x0[0] + 0.1 * x0[0]

    def test_zero_field_fixed_point(self, rng):
        for builder in (make_explicit_euler, make_implicit_euler, make_midpoint):
            x0 = rng.normal(size=2)
            out = step_sode(builder(2), lambda x: np.zeros(2), x0, 0.3)
            npt.assert_allclose(out.state, x0, atol=1e-12)

    def test_midpoint_scalar_decay(self):
        # closed-form solve of (x1 - x0)/h = -(x0 + x1)/2
        h = 0.1
        out = step_sode(make_midpoint(1), lambda x: -x, np.array([1.0]), h)
        npt.assert_allclose(out.state, [(1 - h / 2) / (1 + h / 2)], rtol=1e-12)

    def test_implicit_euler_scalar_decay(self):
        # solve x1 = x0 - h x1 => x1 = x0 / (1 + h)
        h = 0.25
        out = step_sode(make_implicit_euler(1), lambda x: -x, np.array([2.0]), h)
        npt.assert_allclose(out.state, [2.0 / (1 + h)], rtol=1e-10)


class TestStepSode:
    def test_midpoint_harmonic_oscillator(self):
        # hand solve of the 2x2 linear system the scheme produces
        h = 0.1
        lift = tangent_lift(make_midpoint(1))
        out = step_sode(lift, unforced(harmonic_oscillator()), np.array([1.0, 0.0]), h)
        x1 = (1 - h**2 / 4) / (1 + h**2 / 4)
        y1 = -h * (1 + x1) / 2
        npt.assert_allclose(out.state, [x1, y1], rtol=1e-12)

    def test_equilibrium(self):
        sys = MechanicalSystem(2, 1,
                               gamma=lambda x: np.zeros((2, 2, 2)),
                               e=lambda x: np.zeros(2),
                               g=lambda x: np.array([[1.0], [0.0]]))
        s0 = np.array([0.4, -0.7, 0.0, 0.0])
        out = step_sode(tangent_lift(make_midpoint(2)), unforced(sys), s0, 0.05)
        npt.assert_allclose(out.state, s0, atol=1e-14)

    @pytest.mark.parametrize("s_k", [np.zeros(3), np.zeros(5)], ids=["short", "long"])
    def test_rejects_a_state_of_another_size(self, s_k):
        with pytest.raises(DimensionMismatch, match="state dimension does not match the map"):
            step_sode(tangent_lift(make_midpoint(2)), lambda s: s, s_k, 0.1)

    @pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -0.01])
    def test_rejects_a_step_size_that_is_not_finite_positive(self, pendulum, h):
        lift = tangent_lift(make_midpoint(1))
        with pytest.raises(ValueError, match="step size must be (finite|positive), got"):
            step_sode(lift, unforced(harmonic_oscillator()), np.array([1.0, 0.0]), h)
        with pytest.raises(ValueError, match="step size must be (finite|positive), got"):
            fl_discretize(pendulum, make_midpoint(2), S0, h, 5,
                          gains=pole_place(pendulum.linear, POLES))

    def test_rejects_a_non_finite_state(self):
        lift = tangent_lift(make_midpoint(1))
        with pytest.raises(NonFinite):
            step_sode(lift, unforced(harmonic_oscillator()), np.array([np.nan, 0.0]), 0.1)

    @pytest.mark.parametrize("h", [0.02, 0.01])
    def test_a_step_to_a_far_larger_state_converges(self, pendulum, h):
        # the pendulum's closed loop from pi/4 at rest, poles to -40: the
        # next state's largest entry is ~1e4, where the residual's rounding
        # floor (2^-39 = 1.8e-12) lies above a tolerance scaled to the start
        # alone (1e-12 (1 + pi/4)); the step is solved, not a stall
        sys, t = pendulum.system, pendulum.transform
        gains = pole_place(pendulum.linear, POLES)

        def field(s):
            x, y = s[..., :2], s[..., 2:]
            return sode_field(sys, s, apply_feedback(t, x, y, t.push_state(x, y) @ -gains.T))

        out = step_sode(tangent_lift(make_midpoint(2)), field, S0, h)
        assert np.abs(out.state).max() > 1e3
        assert out.residual < NEWTON_TOL * (1.0 + np.abs(out.state).max())

    def test_scheme_residuals(self, rng):
        # the midpoint lift must satisfy both defining relations exactly
        h = 0.05
        field = unforced(harmonic_oscillator())
        lift = tangent_lift(make_midpoint(1))
        s = np.array([0.8, -0.3])
        for _ in range(20):
            out = step_sode(lift, field, s, h).state
            x0, y0 = s
            x1, y1 = out
            r1 = (x1 - x0) / h - (y0 + y1) / 2
            r2 = (y1 - y0) / h - (-(x0 + x1) / 2)
            assert abs(r1) < 1e-12 and abs(r2) < 1e-12
            s = out


S0 = np.array([np.pi / 4, 0.0, 0.0, 0.0])
# its explicit-Euler loop at h = 0.01 reaches |z| = 5.1e5 in the linear chart
S_PRECISION = np.array([-0.5278014962057567, -0.15471922756090906,
                        -0.8334948748998636, -0.8437071161801359])


def pendulum_closed_loop(pendulum, h=0.01, steps=100, make_map=make_midpoint, s0=S0):
    gains = pole_place(pendulum.linear, POLES)
    traj = fl_discretize(pendulum, make_map(2), s0, h, steps, gains=gains)
    a_full, b_full = pendulum.linear.stacked()
    return traj, a_full - b_full @ gains


def conjugacy_defect(bundle, traj, one_step):
    """Worst per-step gap between the pushed trajectory and a linear update."""
    n = bundle.system.n
    push = bundle.transform.push_state
    z = np.array([push(s[:n], s[n:]) for s in traj.states])
    return np.abs(z[1:] - z[:-1] @ one_step.T).max()


def original_chart_defect(bundle, traj, one_step):
    """Worst per-step gap, in the original chart, between each next state
    and the linear update of the pushed state pulled back through Tphi."""
    tphi = tangent_map(bundle.transform.phi)
    return max(np.abs(s_next - tphi.inverse(one_step @ tphi.forward(s))).max()
               for s, s_next in zip(traj.states[:-1], traj.states[1:]))


def bent_drift(bundle, factor=lambda x: 1.0 + 1e-6):
    """The bundle under the feedback derived from a model of its system whose
    drift e is scaled by ``factor`` (off by one part in a million)."""
    sys, t = bundle.system, bundle.transform
    model = dataclasses.replace(sys, e=lambda x: factor(x) * sys.e(x))
    return bundle._replace(transform=dataclasses.replace(t, system=model))


def three_callable_loop(plant, t, make_map, h=0.01, steps=100, s0=S0, gains=None):
    """The states of ``plant``'s closed loop under the gains K (pole-placed for
    the target of ``t`` if not given) and the control
    u = gammaF(y, y) + alpha + beta utilde from the methods of ``t``,
    utilde = -K Z at the base point, each step a Newton solve of the
    tangent-lifted map in the linearizing chart."""
    gains = pole_place(t.linear, POLES) if gains is None else gains
    tphi, lifted = tangent_map(t.phi), tangent_lift(make_map(2))

    def field(z):
        s = tphi.inverse(z)
        x, y = s[..., :2], s[..., 2:]
        u = (np.einsum("...rjk,...j,...k->...r", t.gammaF(x), y, y) + t.alpha(x)
             + (t.beta(x) @ (-z @ gains.T)[..., None])[..., 0])
        return (tphi.jacobian(s) @ sode_field(plant, s, u)[..., None])[..., 0]

    states = [s0]
    for _ in range(steps):
        states.append(tphi.inverse(step_sode(lifted, field, tphi.forward(states[-1]), h).state))
    return np.array(states)


THETA_MAPS = [make_explicit_euler, make_implicit_euler, make_midpoint]


class TestFlDiscretize:
    def test_conjugate_to_linear_one_step(self, pendulum):
        # criterion 4's run; a coarse step whose exact update exists at every
        # step; an implicit-Euler loop; an explicit-Euler loop far out in the
        # linear chart
        cases = [(make_midpoint, S0, 0.01, 100), (make_midpoint, S0, 0.1, 10),
                 (make_implicit_euler, S0, 0.01, 100),
                 (make_explicit_euler, S_PRECISION, 0.01, 100)]
        for make_map, s0, h, steps in cases:
            traj, a_cl = pendulum_closed_loop(pendulum, h, steps, make_map, s0)
            one_step = theta_update_matrix(a_cl, h, make_map(2).theta)
            assert conjugacy_defect(pendulum, traj, one_step) < 1e-8, (make_map, h)
            assert original_chart_defect(pendulum, traj, one_step) < 1e-8, (make_map, h)

    def test_conjugacy_checks_the_physical_feedback(self, pendulum):
        # the step runs on the real plant: a feedback derived from a drift
        # off by one part in a million must break the conjugacy
        bundle = bent_drift(pendulum)
        traj, a_cl = pendulum_closed_loop(bundle)
        assert conjugacy_defect(bundle, traj, theta_update_matrix(a_cl, 0.01, 0.5)) > 1e-8

    @pytest.mark.parametrize("make_map", THETA_MAPS)
    def test_each_step_is_certified(self, pendulum, make_map, field_evaluations,
                                    central_differences):
        # criterion 4's run: the physical residual at the exact linear update
        # is within the tolerance at every step, so the orbit pass certifies
        # them all, with no step solved on its own
        traj, _ = pendulum_closed_loop(pendulum, make_map=make_map)
        assert field_evaluations == []
        assert central_differences == []
        npt.assert_array_equal(traj.iterations, 0)
        push = pendulum.transform.push_state
        scale = np.array([1.0 + np.abs(push(s[:2], s[2:])).max() for s in traj.states[:-1]])
        assert np.all(traj.residuals < NEWTON_TOL * scale)

    @pytest.mark.parametrize("top, make_map, h", [
        (80.0, make_midpoint, 1.0),
        (120.0, make_implicit_euler, 0.1),
        (120.0, make_implicit_euler, 1.0),
        (200.0, make_midpoint, 0.1),
    ], ids=["poles-80-midpoint-h1", "poles-120-implicit-h0.1", "poles-120-implicit-h1",
            "poles-200-midpoint-h0.1"])
    def test_a_stiff_loop_is_certified(self, pendulum, monkeypatch, top, make_map, h):
        # h |A_cl| up to ~4e6: the residual's rounding floor grows with h A_cl Z_k,
        # which the 0-iteration bound takes in, so every step is certified, its
        # residual well within the bound, at the states Newton solves for
        s0 = np.array([0.05, 0.0, 0.0, 0.0])
        gains = pole_place(pendulum.linear, top * np.array([-1.0, -2.0, -3.0, -4.0]) / 4.0)
        traj = fl_discretize(pendulum, make_map(2), s0, h, 50, gains=gains)
        npt.assert_array_equal(traj.iterations, 0)
        a, b = pendulum.linear.stacked()
        push = pendulum.transform.push_state
        z = np.array([push(s[:2], s[2:]) for s in traj.states[:-1]])
        scale = np.maximum(np.abs(z).max(axis=1), np.abs(h * z @ (a - b @ gains).T).max(axis=1))
        assert np.all(traj.residuals <= 0.5 * NEWTON_TOL * (1.0 + scale))
        # every certificate failed: Newton takes each step from its pushed state
        monkeypatch.setattr(mechlift.integrators, "_newton_bound", lambda *terms: 0.0)
        newton = fl_discretize(pendulum, make_map(2), s0, h, 50, gains=gains)
        assert newton.iterations.max() >= 1
        npt.assert_allclose(traj.states, newton.states, rtol=0,
                            atol=1e-10 * np.abs(newton.states).max())

    def test_a_non_finite_pull_back_is_not_certified(self, pendulum, monkeypatch):
        # a chart whose inverse returns inf, without raising, at the orbit
        # point Z_j alone: step j - 1 fails its certificate, Newton takes it
        # and the steps after it, and the states stay the clean run's
        j, phi, pulls = 5, pendulum.transform.phi, []
        inverse = phi._inv
        monkeypatch.setattr(phi, "_inv", lambda z: pulls.append(z.copy()) or inverse(z))
        clean, _ = pendulum_closed_loop(pendulum, steps=10)
        z_j = pulls[0][j - 1]  # the pull-back stack starts with Z_1

        def inverse_inf_at_z_j(z):
            x = inverse(z)
            x[(z == z_j).all(axis=-1), 1] = np.inf
            return x

        monkeypatch.setattr(phi, "_inv", inverse_inf_at_z_j)
        traj, _ = pendulum_closed_loop(pendulum, steps=10)
        npt.assert_array_equal(traj.iterations[:j - 1], 0)
        assert traj.iterations[j - 1:].min() >= 1
        assert np.isfinite(traj.states).all()
        npt.assert_allclose(traj.states, clean.states, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("make_map", THETA_MAPS)
    def test_bent_feedback_fails_certificate(self, pendulum, make_map,
                                             field_evaluations):
        # derived from a drift off by one part in a million, the feedback no
        # longer linearizes the plant: every step falls back to Newton, and
        # the conjugacy shows the fault
        bundle = bent_drift(pendulum)
        traj, a_cl = pendulum_closed_loop(bundle, make_map=make_map)
        assert len(field_evaluations) == 100 and min(field_evaluations) > 1
        assert traj.iterations.min() >= 1
        one_step = theta_update_matrix(a_cl, 0.01, make_map(2).theta)
        assert conjugacy_defect(bundle, traj, one_step) > 1e-8

    def test_each_newton_iteration_is_one_jacobian_call(self, pendulum, field_evaluations):
        # the bent run from (0.3, -0.2, 0.5, -0.4): every step is solved by
        # Newton, whose Jacobian takes the field once on the stack of its
        # probes, so a step makes one evaluation at its start and two per
        # iteration (the Jacobian and the full step)
        bundle = bent_drift(pendulum)
        traj = fl_discretize(bundle, make_midpoint(2), np.array([0.3, -0.2, 0.5, -0.4]), 0.01,
                             100, gains=pole_place(pendulum.linear, POLES))
        assert traj.iterations.min() >= 1
        assert field_evaluations == (1 + 2 * traj.iterations).tolist()

    @pytest.mark.parametrize("make_map", THETA_MAPS)
    def test_feedback_bent_from_a_step_falls_back_from_it(self, pendulum, make_map,
                                                          field_evaluations):
        # one 10-step segment of criterion 4's run, its feedback derived from
        # a drift bent only where x1 has swung below the base point of step
        # j = 4: the steps before j are the unbent run's, bit for bit, and
        # from j on every step falls back to Newton
        j, steps = 4, 10
        t, lifted = pendulum.transform, tangent_lift(make_map(2))
        right, a_cl = pendulum_closed_loop(pendulum, steps=steps, make_map=make_map)
        z = np.array([t.push_state(s[:2], s[2:]) for s in right.states])
        base_x1 = t.phi.inverse(lifted.inverse(z[:-1], z[1:])[0][:, :2])[:, 0]
        cut = (base_x1[j - 1] + base_x1[j]) / 2.0
        assert base_x1[:j].min() > cut > base_x1[j:].max()
        bundle = bent_drift(pendulum, lambda x: np.where(x[..., :1] < cut, 1.0 + 1e-6, 1.0))
        traj, _ = pendulum_closed_loop(bundle, steps=steps, make_map=make_map)
        npt.assert_array_equal(traj.states[:j + 1], right.states[:j + 1])
        for got, want in [(traj.u, right.u), (traj.utilde, right.utilde),
                          (traj.residuals, right.residuals)]:
            npt.assert_array_equal(got[:j], want[:j])
        npt.assert_array_equal(traj.iterations[:j], 0)
        assert traj.iterations[j:].min() >= 1
        assert len(field_evaluations) == steps - j and min(field_evaluations) > 1
        one_step = theta_update_matrix(a_cl, 0.01, make_map(2).theta)
        assert conjugacy_defect(bundle, traj, one_step) > 1e-8

    def test_a_copy_of_the_feedback_gives_the_same_run(self, pendulum):
        # a dataclasses.replace copy keeps the system, chart and target of the
        # feedback, so criterion 4's run is the same, bit for bit
        copy, _ = pendulum_closed_loop(
            pendulum._replace(transform=dataclasses.replace(pendulum.transform)))
        traj, _ = pendulum_closed_loop(pendulum)
        for field in ("states", "u", "utilde", "iterations", "residuals"):
            npt.assert_array_equal(getattr(copy, field), getattr(traj, field), field)

    def test_a_per_point_bundle_is_certified_row_by_row(self, pendulum, field_evaluations):
        # a bundle written one point at a time, kept to the stack contract by
        # looping over the rows, is certified by the orbit pass: no step_sode
        # call, and the stacked bundle's trajectory bit for bit
        traj, _ = pendulum_closed_loop(row_by_row(pendulum))
        assert field_evaluations == []
        npt.assert_array_equal(traj.iterations, 0)
        orbit, _ = pendulum_closed_loop(pendulum)
        for field in ("states", "u", "utilde", "iterations", "residuals"):
            npt.assert_array_equal(getattr(traj, field), getattr(orbit, field), field)

    def test_a_shared_chart_jacobian_is_certified(self, rigid_body):
        # the exp-chart bundle's identity chart returns one Jacobian for a
        # whole stack; the orbit pass certifies every step of the loop
        bundle = rigid_body.bundle
        gains = np.hstack([5.0 * np.eye(3), 10.0 * np.eye(3)])
        s0 = np.array([0.3, -0.5, 0.2, 0.1, 0.4, -0.2])
        traj = fl_discretize(bundle, make_midpoint(3), s0, 0.01, 100, gains=gains)
        npt.assert_array_equal(traj.iterations, 0)
        twin = fl_discretize(row_by_row(bundle), make_midpoint(3), s0, 0.01, 100, gains=gains)
        for field in ("states", "u", "utilde", "iterations", "residuals"):
            npt.assert_array_equal(getattr(traj, field), getattr(twin, field), field)
        a_full, b_full = rigid_body.linear.stacked()
        one_step = theta_update_matrix(a_full - b_full @ gains, 0.01, 0.5)
        assert conjugacy_defect(bundle, traj, one_step) <= 1e-8

    def test_the_exp_chart_connection_is_differenced_once_a_call(self, rigid_body,
                                                                monkeypatch):
        # the body's bundle has the feedback's own system, so a certified
        # call evaluates Gamma, a central difference of the rates matrix
        # inverse, once, on the orbit's stack
        jacobian = mechlift.mechanics.numeric_jacobian
        calls = []
        monkeypatch.setattr(mechlift.mechanics, "numeric_jacobian",
                            lambda *args: calls.append(args) or jacobian(*args))
        bundle = rigid_body.bundle
        assert bundle.system is rigid_body.exp_chart_system()
        gains = np.hstack([5.0 * np.eye(3), 10.0 * np.eye(3)])
        traj = fl_discretize(bundle, make_midpoint(3), np.array([0.3, -0.5, 0.2, 0.1, 0.4, -0.2]),
                             0.01, 100, gains=gains)
        npt.assert_array_equal(traj.iterations, 0)
        assert len(calls) == 1

    @pytest.mark.parametrize("make_map", THETA_MAPS)
    def test_a_mismatched_plant_forms_the_feedback_once_an_evaluation(self, pendulum, make_map,
                                                                      monkeypatch, chart_calls):
        # a plant whose m0 is off by one part in a thousand, under the feedback
        # derived from the nominal model: every step falls back to Newton,
        # each closed-loop evaluation (the Newton steps' residuals and their
        # logged controls) forms P = (Dphi g)^+ once, from the model's terms,
        # and D2phi[y, y] once, for plant and model, and the states are those
        # of the feedback's three methods
        plant = pendulum_system(PendulumParams(m0=PARAMS["m0"] * (1 + 1e-3)))
        t = pendulum.transform
        reference = three_callable_loop(plant.system, t, make_map)
        counts = {"pinv": 0, "pushed": 0}

        def counting(name, f):
            def counted(*args):
                counts[name] += 1
                return f(*args)
            return counted

        monkeypatch.setattr(mechlift.mechanics, "_pinv",
                            counting("pinv", mechlift.mechanics._pinv))
        monkeypatch.setattr(mechlift.integrators, "_pushed_acceleration",
                            counting("pushed", mechlift.integrators._pushed_acceleration))
        chart_calls.clear()
        traj, _ = pendulum_closed_loop(plant._replace(transform=t), make_map=make_map)
        assert traj.iterations.min() >= 1
        assert counts["pinv"] == counts["pushed"] == chart_calls.count("second_deriv") > 100
        scale = np.abs(reference).max()
        assert np.abs(traj.states - reference).max() <= 1e-10 * scale

    @pytest.mark.parametrize("s0, step", [
        ((1.2, 0.0, 0.0, 0.0), 5),
        ((1.4, 0.0, 0.0, 0.0), 4),
        ((0.5, 0.0, 5.0, 0.0), 4),
        ((0.5, 0.0, 20.0, 0.0), 1),
    ], ids=["theta1=1.2", "theta1=1.4", "dtheta1=5", "dtheta1=20"])
    def test_chart_exit_is_that_of_the_per_step_path(self, pendulum, s0, step):
        exits = []
        for bundle in (pendulum, row_by_row(pendulum)):
            with pytest.raises(OutsideChart) as info:
                pendulum_closed_loop(bundle, s0=np.array(s0))
            exits.append(info.value)
        orbit, per_step = exits
        assert orbit.step == per_step.step == step
        npt.assert_array_equal(orbit.state, per_step.state)

    @pytest.mark.parametrize("s0, step", [
        ((1.2, 0.0, 0.0, 0.0), 5),
        ((1.4, 0.0, 0.0, 0.0), 4),
        ((0.5, 0.0, 5.0, 0.0), 4),
        ((0.5, 0.0, 20.0, 0.0), 1),
    ], ids=["theta1=1.2", "theta1=1.4", "dtheta1=5", "dtheta1=20"])
    def test_a_per_point_chart_exit_is_found_in_one_pass(self, pendulum, monkeypatch, s0,
                                                          step):
        # a bundle written one point at a time stops at the first step whose
        # pull-back leaves the chart: one stacked inversion, then two per row
        # up to the exit
        bundle = row_by_row(pendulum)
        phi, pulls = bundle.transform.phi, []
        inverse = phi._inv
        phi._inv = lambda x: pulls.append(x) or inverse(x)

        def newton(*args):
            raise RuntimeError("the orbit pass is over")

        monkeypatch.setattr(mechlift.integrators, "step_sode", newton)
        with pytest.raises(RuntimeError, match="orbit pass is over"):
            pendulum_closed_loop(bundle, s0=np.array(s0))
        assert len(pulls) <= 2 * step + 2

    @pytest.mark.parametrize("s0, step", [
        ((1.2, 0.0, 0.0, 0.0), 5),
        ((1.4, 0.0, 0.0, 0.0), 4),
        ((0.5, 0.0, 5.0, 0.0), 4),
        ((0.5, 0.0, 20.0, 0.0), 1),
    ], ids=["theta1=1.2", "theta1=1.4", "dtheta1=5", "dtheta1=20"])
    def test_a_raising_stacked_pass_is_rerun_row_by_row(self, pendulum, monkeypatch, s0,
                                                         step):
        # one pull-back of the whole orbit, which raises, then one of each
        # step's end and base point, up to the first step that leaves the chart
        phi, pulls = pendulum.transform.phi, []
        inverse = phi._inv
        monkeypatch.setattr(phi, "_inv", lambda x: pulls.append(np.shape(x)) or inverse(x))

        def newton(*args):
            raise RuntimeError("the orbit pass is over")

        monkeypatch.setattr(mechlift.integrators, "step_sode", newton)
        with pytest.raises(RuntimeError, match="orbit pass is over"):
            pendulum_closed_loop(pendulum, s0=np.array(s0))
        assert pulls[0] == (200, 2)
        assert all(shape == (2, 2) for shape in pulls[1:])
        assert len(pulls) - 1 <= step + 1

    def test_newton_work_per_step(self, pendulum):
        traj, _ = pendulum_closed_loop(pendulum)
        assert traj.iterations.shape == traj.residuals.shape == (100,)
        assert traj.iterations.max() <= 4

    @pytest.mark.parametrize("s0, step", [
        ((1.2, 0.0, 0.0, 0.0), 5),
        ((1.4, 0.0, 0.0, 0.0), 4),
        ((0.5, 0.0, 5.0, 0.0), 4),
        ((0.5, 0.0, 20.0, 0.0), 1),
    ], ids=["theta1=1.2", "theta1=1.4", "dtheta1=5", "dtheta1=20"])
    def test_chart_exit_names_the_step(self, pendulum, s0, step):
        s0 = np.array(s0)
        traj, a_cl = pendulum_closed_loop(pendulum, steps=step, s0=s0)
        # the exact midpoint loop leaves the chart in the step with index `step`
        z = pendulum.transform.push_state(traj.states[-1][:2], traj.states[-1][2:])
        with pytest.raises(OutsideChart):
            pendulum.transform.phi.inverse((theta_update_matrix(a_cl, 0.01, 0.5) @ z)[:2])
        with pytest.raises(OutsideChart) as info:
            pendulum_closed_loop(pendulum, s0=s0)
        assert info.value.step == step
        npt.assert_array_equal(info.value.state, traj.states[-1])

    def test_singular_feedback_is_located_at_its_step(self, pendulum):
        # one 10-step segment of criterion 4's run, its feedback singular
        # where x1 has swung below the base point of step k = 4: the stacked
        # pass raises, and the error names step k and the state it started
        # from, bit for bit as the row-looping twin's
        k, steps = 4, 10
        right, _ = pendulum_closed_loop(pendulum, steps=steps)
        t, lifted = pendulum.transform, tangent_lift(make_midpoint(2))
        z = np.array([t.push_state(s[:2], s[2:]) for s in right.states])
        base_x1 = t.phi.inverse(lifted.inverse(z[:-1], z[1:])[0][:, :2])[:, 0]
        cut = (base_x1[k - 1] + base_x1[k]) / 2.0
        assert base_x1[:k].min() > cut > base_x1[k:].max()

        # the model's control column vanishes below the cut
        g = pendulum.system.g
        model = dataclasses.replace(pendulum.system,
                                    g=lambda x: np.where(x[..., :1, None] < cut, 0.0, g(x)))
        bundle = pendulum._replace(transform=dataclasses.replace(t, system=model))
        errors = []
        for twin in (bundle, row_by_row(bundle)):
            with pytest.raises(SingularFeedback) as info:
                pendulum_closed_loop(twin, steps=steps)
            errors.append(info.value)
        orbit, rows = errors
        assert orbit.step == rows.step == k
        assert orbit.state.tobytes() == rows.state.tobytes() == right.states[k].tobytes()

    def test_target_jacobian_needs_no_central_difference(self, pendulum,
                                                         central_differences):
        # criterion 4's run: in the linearizing chart the step residual is
        # affine and each step is certified at the linear target's update,
        # so no Jacobian is ever estimated
        for make_map in (make_midpoint, make_implicit_euler, make_explicit_euler):
            traj, _ = pendulum_closed_loop(pendulum, make_map=make_map)
            assert len(central_differences) == 0, make_map
            assert traj.iterations.max() <= 2, make_map

    @pytest.mark.parametrize("make_map", THETA_MAPS)
    def test_a_wrong_target_jacobian_is_replaced_at_once(self, pendulum, make_map):
        # a feedback written for the target (3A, 2B), which the pendulum's one
        # control cannot reach, under the gains of the true target: the loop
        # is not the target's update, so every step from the first fails its
        # certificate and Newton solves it, in a few iterations each, on the
        # states of that physical loop
        gains = pole_place(pendulum.linear, POLES)
        lin, t = pendulum.linear, pendulum.transform
        t = dataclasses.replace(t, linear=LinearMechanicalSystem(A=3 * lin.A, B=2 * lin.B))
        traj = fl_discretize(pendulum._replace(transform=t), make_map(2), S0, 0.01, 100,
                             gains=gains)
        assert traj.iterations.min() >= 1
        assert traj.iterations.max() <= 4
        reference = three_callable_loop(pendulum.system, t, make_map, gains=gains)
        assert np.abs(traj.states - reference).max() <= 1e-10 * np.abs(reference).max()

    @pytest.mark.parametrize("s0, error", [
        ((np.nan, 0.0, 0.0, 0.0), NonFinite),
        ((0.1, 0.0, np.inf, 0.0), NonFinite),
        ((0.1, 0.0, 0.0), DimensionMismatch),
    ], ids=["nan", "inf", "three-entries"])
    def test_rejects_a_bad_initial_state(self, pendulum, s0, error):
        with pytest.raises(error):
            pendulum_closed_loop(pendulum, s0=np.array(s0))

    @pytest.mark.parametrize("steps", [-1, 2.0, True], ids=["negative", "float", "bool"])
    def test_rejects_a_bad_step_count(self, pendulum, steps):
        with pytest.raises(ValueError, match="non-negative integer"):
            pendulum_closed_loop(pendulum, steps=steps)

    @pytest.mark.parametrize("gains, error", [
        (np.ones((1, 3)), DimensionMismatch),
        (np.ones((2, 4)), DimensionMismatch),
        (np.array([[240000.0, np.nan, 50000.0, 100.0]]), NonFinite),
        (np.array([[np.inf, 3500.0, 50000.0, 100.0]]), NonFinite),
    ], ids=["1x3", "2x4", "nan", "inf"])
    def test_rejects_bad_gains(self, pendulum, gains, error):
        with pytest.raises(error, match="gains"):
            fl_discretize(pendulum, make_midpoint(2), S0, 0.01, 5, gains=gains)

    @pytest.mark.parametrize("dim", [1, 5])
    @pytest.mark.parametrize("kwargs", [{"gains": np.ones((1, 4))}, {"utilde": np.zeros(5)}],
                             ids=["closed-loop", "open-loop"])
    def test_rejects_a_base_map_of_another_dimension(self, pendulum, dim, kwargs):
        # a 1-d or 5-d midpoint map on the 2-dof pendulum, refused before any step
        with pytest.raises(DimensionMismatch, match=f"base map must have dim 2, got {dim}"):
            fl_discretize(pendulum, make_midpoint(dim), S0, 0.01, 5, **kwargs)

    @pytest.mark.parametrize("gains", [
        np.ones((1, 3)), np.ones((2, 4)),
        np.array([[240000.0, np.nan, 50000.0, 100.0]]),
        np.array([[np.inf, 3500.0, 50000.0, 100.0]]),
    ], ids=["1x3", "2x4", "nan", "inf"])
    def test_linear_one_step_reads_gains_as_fl_discretize_does(self, pendulum, gains):
        with pytest.raises(Exception) as want:
            fl_discretize(pendulum, make_midpoint(2), S0, 0.01, 5, gains=gains)
        with pytest.raises(type(want.value)) as got:
            linear_one_step(pendulum.linear, make_midpoint(2), 0.01, gains)
        assert type(want.value) in (DimensionMismatch, NonFinite)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("utilde, error", [
        (np.zeros((4, 1)), DimensionMismatch),
        (np.zeros((5, 2)), DimensionMismatch),
        (np.array([0.1, np.nan, 0.0, 0.0, 0.0]), NonFinite),
        (np.array([0.1, 0.0, 0.0, 0.0, -np.inf]), NonFinite),
    ], ids=["4x1", "5x2", "nan", "inf"])
    def test_rejects_a_bad_utilde(self, pendulum, utilde, error):
        with pytest.raises(error, match="utilde"):
            fl_discretize(pendulum, make_midpoint(2), S0, 0.01, 5, utilde=utilde)

    def test_a_nonlinear_open_loop_falls_back_to_per_step_solves(self, rng,
                                                                 field_evaluations):
        # the system is not the linear target, so step 0 fails its
        # certificate and Newton solves every step, as step_sode alone does
        sys = MechanicalSystem(
            2, 1,
            gamma=lambda x: np.zeros((2, 2, 2)),
            e=lambda x: np.stack([-8.0 * np.sin(x[..., 0]),
                                  -2.0 * np.sin(x[..., 1]) * np.cos(x[..., 0])], axis=-1),
            g=lambda x: np.array([[0.0], [1.0]]),
        )
        flat = flat_bundle(LinearMechanicalSystem(A=np.zeros((2, 2)), B=np.array([[0.0], [1.0]])))
        bundle = flat._replace(system=sys)
        s0 = np.array([1.0, -0.5, 0.3, 0.8])
        useq = rng.normal(size=(40, 1))
        traj = fl_discretize(bundle, make_midpoint(2), s0, 0.1, 40, utilde=useq)
        assert len(field_evaluations) == 40 and traj.iterations.min() >= 1
        lift = tangent_lift(make_midpoint(2))
        states = [s0]
        for k in range(40):
            field = lambda z, k=k: sode_field(sys, z, useq[k])
            states.append(step_sode(lift, field, states[-1], 0.1).state)
        npt.assert_allclose(traj.states, states, rtol=0, atol=1e-12)

    def test_identity_chart_matches_plain_stepper(self, rng):
        lms = LinearMechanicalSystem(A=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                     B=np.array([[0.0], [1.0]]))
        bundle = flat_bundle(lms)
        sys = bundle.system
        s0 = rng.normal(size=4)
        useq = rng.normal(size=(20, 1))
        traj = fl_discretize(bundle, make_midpoint(2), s0, 0.05, 20, utilde=useq)
        lift = tangent_lift(make_midpoint(2))
        s = s0.copy()
        for k in range(20):
            s = step_sode(lift, lambda z, k=k: sode_field(sys, z, useq[k]), s, 0.05).state
        npt.assert_allclose(traj.states[-1], s, atol=1e-12)

    def test_an_open_loop_run_is_certified(self, pendulum, field_evaluations):
        # under an open-loop utilde the pushed field is the target's
        # A Z + B utilde_k, so every step is the orbit's M Z_k + N utilde_k:
        # no step_sode call, and the states of per-step Newton solves in the
        # linearizing chart to rounding
        t, tphi = pendulum.transform, tangent_map(pendulum.transform.phi)
        s0 = np.array([0.3, -0.2, 0.5, -0.4])
        useq = np.random.default_rng(3).normal(scale=2.0, size=(100, 1))
        traj = fl_discretize(pendulum, make_midpoint(2), s0, 0.01, 100, utilde=useq)
        assert field_evaluations == []
        npt.assert_array_equal(traj.iterations, 0)
        npt.assert_array_equal(traj.utilde, useq)

        def pushed(k):
            def field(z):
                s = tphi.inverse(z)
                u = apply_feedback(t, s[..., :2], s[..., 2:], useq[k])
                return (tphi.jacobian(s) @ sode_field(pendulum.system, s, u)[..., None])[..., 0]
            return field

        lift, states = tangent_lift(make_midpoint(2)), [s0]
        for k in range(100):
            z = step_sode(lift, pushed(k), tphi.forward(states[-1]), 0.01).state
            states.append(tphi.inverse(z))
        npt.assert_allclose(traj.states, states, rtol=0, atol=1e-11)

    def test_an_open_loop_singular_resolvent_is_refused_at_entry(self, field_evaluations):
        # x'' = x + u under implicit Euler at h = 1: I - h A is singular
        bundle = flat_bundle(LinearMechanicalSystem(A=np.eye(1), B=np.eye(1)))
        with pytest.raises(SingularStep) as info:
            fl_discretize(bundle, make_implicit_euler(1), np.array([1.0, 0.0]), 1.0, 3,
                          utilde=np.zeros(3))
        assert info.value.step is None
        assert field_evaluations == []

    def test_zero_state_zero_control(self, pendulum):
        traj = fl_discretize(pendulum, make_midpoint(2), np.zeros(4), 0.01, 10,
                             utilde=np.zeros((10, 1)))
        assert np.abs(traj.states).max() == 0.0

    def test_requires_exactly_one_control_source(self, pendulum):
        with pytest.raises(ValueError):
            fl_discretize(pendulum, make_midpoint(2), np.zeros(4), 0.01, 5)

    def test_records_controls(self, pendulum):
        traj, _ = pendulum_closed_loop(pendulum, steps=5)
        assert traj.u.shape == (5, 1) and traj.utilde.shape == (5, 1)
        assert np.all(np.isfinite(traj.u))

    @pytest.mark.parametrize("make_map", [make_explicit_euler, make_implicit_euler,
                                          make_midpoint])
    def test_controls_are_those_of_the_converged_base_state(self, pendulum, make_map):
        traj, _ = pendulum_closed_loop(pendulum, make_map=make_map)
        gains = pole_place(pendulum.linear, POLES)
        t, lifted = pendulum.transform, tangent_lift(make_map(2))
        z = [t.push_state(s[:2], s[2:]) for s in traj.states]
        for k in range(len(traj.u)):
            base, _ = lifted.inverse(z[k], z[k + 1])
            x = t.phi.inverse(base[:2])
            y = np.linalg.solve(t.phi.jacobian(x), base[2:])
            utilde = -gains @ base
            npt.assert_allclose(traj.utilde[k], utilde, rtol=1e-10, atol=1e-12)
            npt.assert_allclose(traj.u[k], mechlift.apply_feedback(t, x, y, utilde),
                                rtol=1e-10, atol=1e-12)


def trajectory_bytes(traj):
    return [getattr(traj, field).tobytes()
            for field in ("t", "states", "u", "utilde", "iterations", "residuals")]


class TestSetupMemo:
    """fl_discretize builds the setup of a call (-K^T, the update M and, in
    open loop, (I - theta h A)^-1 B) once per distinct content of
    (A, B, K, h) and of the map's theta."""

    def test_a_chain_of_calls_builds_the_update_once(self, pendulum, update_builds):
        # twelve 10-step segments, as a warm process chains them
        gains = pole_place(pendulum.linear, POLES)
        state = S0
        for _ in range(12):
            traj = fl_discretize(pendulum, make_midpoint(2), state, 0.01, 10, gains=gains)
            npt.assert_array_equal(traj.iterations, 0)
            state = traj.states[-1]
        assert len(update_builds) == 1

    def test_cold_and_warm_calls_agree_bit_for_bit(self, pendulum, update_builds):
        gains = pole_place(pendulum.linear, POLES)
        useq = np.random.default_rng(3).normal(scale=2.0, size=(20, 1))
        s0 = np.array([0.3, -0.2, 0.5, -0.4])
        for make_map in THETA_MAPS:
            for kwargs in ({"gains": gains}, {"utilde": useq}):
                mechlift.integrators._SETUPS.clear()
                cold = fl_discretize(pendulum, make_map(2), s0, 0.01, 20, **kwargs)
                warm = fl_discretize(pendulum, make_map(2), s0, 0.01, 20, **kwargs)
                assert trajectory_bytes(cold) == trajectory_bytes(warm)
        assert len(update_builds) == 6

    def test_gains_changed_in_place_give_the_fresh_update(self, pendulum, update_builds):
        gains = pole_place(pendulum.linear, POLES)
        fl_discretize(pendulum, make_midpoint(2), S0, 0.01, 10, gains=gains)
        gains[...] = pole_place(pendulum.linear, [-1.0, -2.0, -3.0, -4.0])
        warm = fl_discretize(pendulum, make_midpoint(2), S0, 0.01, 10, gains=gains)
        mechlift.integrators._SETUPS.clear()
        cold = fl_discretize(pendulum, make_midpoint(2), S0, 0.01, 10, gains=gains.copy())
        assert trajectory_bytes(warm) == trajectory_bytes(cold)
        assert len(update_builds) == 3

    @pytest.mark.parametrize("in_place", [False, True], ids=["new-A", "A-in-place"])
    def test_a_new_target_gives_the_fresh_update(self, update_builds, in_place):
        # the target (3A, B) fails the certificate: Newton solves every step
        bundle = mechlift.pendulum_system()
        gains = pole_place(bundle.linear, POLES)
        fl_discretize(bundle, make_midpoint(2), S0, 0.01, 10, gains=gains)
        if in_place:
            bundle.linear.A *= 3.0
        else:
            bundle.linear.A = 3.0 * bundle.linear.A
        warm = fl_discretize(bundle, make_midpoint(2), S0, 0.01, 10, gains=gains)
        assert warm.iterations.min() >= 1
        mechlift.integrators._SETUPS.clear()
        cold = fl_discretize(bundle, make_midpoint(2), S0, 0.01, 10, gains=gains)
        assert trajectory_bytes(warm) == trajectory_bytes(cold)
        assert len(update_builds) == 3

    def test_the_setup_is_read_only(self, pendulum, update_builds):
        gains = pole_place(pendulum.linear, POLES)
        # -K^T, M, the (here empty) columns of N and h A_cl; M, N and h [A B]
        # in open loop
        for K, count in ((gains, 4), (None, 3)):
            setup = mechlift.integrators._setup(pendulum.linear, K, 0.01, 0.5)
            arrays = [a for a in setup if isinstance(a, np.ndarray)]
            assert len(arrays) == count
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0.0

    def test_an_integer_step_size_gives_a_float_grid(self):
        # x'' = -x under implicit Euler at h = 1, certified on every step
        bundle = flat_bundle(LinearMechanicalSystem(A=-np.eye(1), B=np.eye(1)))
        traj = fl_discretize(bundle, make_implicit_euler(1), np.array([1.0, 0.0]), 1, 3,
                             utilde=np.zeros(3))
        assert traj.t.dtype == float and traj.t.tolist() == [0.0, 1.0, 2.0, 3.0]
        npt.assert_array_equal(traj.iterations, 0)

    @pytest.mark.parametrize("make_map", THETA_MAPS)
    @pytest.mark.parametrize("h", [np.float64(0.01), np.array(0.01), np.float32(0.01),
                                   np.longdouble(0.01)],
                             ids=["float64", "0-d", "float32", "longdouble"])
    def test_a_step_size_of_any_real_type_gives_the_bytes_of_its_float(self, pendulum,
                                                                         make_map, h):
        gains = pole_place(pendulum.linear, POLES)
        got = fl_discretize(pendulum, make_map(2), S0, h, 20, gains=gains)
        want = fl_discretize(pendulum, make_map(2), S0, float(h), 20, gains=gains)
        assert got.t.dtype == got.states.dtype == np.float64
        assert trajectory_bytes(got) == trajectory_bytes(want)

    @pytest.mark.parametrize("make_map", THETA_MAPS)
    def test_an_integer_step_size_gives_the_bytes_of_its_float(self, make_map):
        # x'' = -x + u under u = -(x + 2 x'), poles -1 +- i, at h = 1
        bundle = flat_bundle(LinearMechanicalSystem(A=-np.eye(1), B=np.eye(1)))
        runs = [fl_discretize(bundle, make_map(1), np.array([1.0, 0.0]), h, 10,
                              gains=np.array([[1.0, 2.0]])) for h in (1, 1.0)]
        assert trajectory_bytes(runs[0]) == trajectory_bytes(runs[1])

    def test_nan_gains_are_refused_on_every_call(self, pendulum, update_builds):
        gains = pole_place(pendulum.linear, POLES)
        gains[0, 1] = np.nan
        for _ in range(2):
            with pytest.raises(NonFinite, match="^gains contains NaN/Inf$"):
                fl_discretize(pendulum, make_midpoint(2), S0, 0.01, 10, gains=gains)
        assert mechlift.integrators._SETUPS == {} and update_builds == []

    def test_a_singular_resolvent_is_refused_on_every_call(self, update_builds):
        # x'' = x + u under implicit Euler at h = 1: I - h A is singular
        bundle = flat_bundle(LinearMechanicalSystem(A=np.eye(1), B=np.eye(1)))
        for _ in range(2):
            with pytest.raises(SingularStep):
                fl_discretize(bundle, make_implicit_euler(1), np.array([1.0, 0.0]), 1.0, 3,
                              utilde=np.zeros(3))
        assert mechlift.integrators._SETUPS == {} and len(update_builds) == 2


class TestLinearTwoStep:
    def test_double_integrator_midpoint(self):
        rec = linear_two_step(double_integrator_lms(), make_midpoint(1), 0.1)
        npt.assert_allclose(rec.A2, [[-1.0]], atol=1e-10)
        npt.assert_allclose(rec.B2, [[2.0]], atol=1e-10)

    @pytest.mark.parametrize("builder",
                             [make_explicit_euler, make_implicit_euler, make_midpoint])
    def test_free_motion_recurrence_is_map_independent(self, builder):
        # with no drift and no control every built-in gives straight lines
        lms = LinearMechanicalSystem(A=np.zeros((1, 1)), B=np.zeros((1, 1)))
        rec = linear_two_step(lms, builder(1), 0.2)
        npt.assert_allclose(rec.A2, [[-1.0]], atol=1e-9)
        npt.assert_allclose(rec.B2, [[2.0]], atol=1e-9)

    def test_matches_one_step_simulation(self, pendulum, rng):
        # dual-path oracle: iterate both forms for 100 steps
        lms = pendulum.linear
        h = 0.01
        m, n_mat, _ = linear_one_step(lms, make_midpoint(2), h)
        useq = rng.normal(size=(100, 1)) * 5
        z = np.array([1.0, 2.0, 0.5, -0.4])
        zs = [z]
        for k in range(100):
            zs.append(m @ zs[-1] + n_mat @ useq[k])
        zs = np.array(zs)
        rec = linear_two_step(lms, make_midpoint(2), h)
        xs = rec.iterate(zs[0][:2], zs[1][:2], useq)
        assert np.abs(xs - zs[:, :2]).max() < 1e-10

    def test_closed_loop_one_step_equals_cayley(self, pendulum):
        # dual path: probe the implicit stepper on the closed loop vs the
        # closed-form resolvent update
        gains = pole_place(pendulum.linear, POLES)
        a_full, b_full = pendulum.linear.stacked()
        m, _, zero = linear_one_step(pendulum.linear, make_midpoint(2), 0.01,
                                     gains=gains)
        npt.assert_allclose(zero, np.zeros(4), atol=1e-12)
        npt.assert_allclose(m, theta_update_matrix(a_full - b_full @ gains, 0.01, 0.5),
                            rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("make_map", THETA_MAPS)
    @pytest.mark.parametrize("h", [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0])
    def test_a_stiff_closed_loop_one_step_converges(self, pendulum, make_map, h):
        # poles to -40 (gain entries up to 2.4e5): at h = 0.5 under implicit
        # Euler and h = 1 under midpoint the residual's rounding floor,
        # h |A - B K| |z|, lies above a tolerance scaled to the state alone
        gains = pole_place(pendulum.linear, POLES)
        a_full, b_full = pendulum.linear.stacked()
        m, _, _ = linear_one_step(pendulum.linear, make_map(2), h, gains=gains)
        want = theta_update_matrix(a_full - b_full @ gains, h, make_map(2).theta)
        assert np.abs(m - want).max() <= 1e-12 * np.abs(want).max()

    def test_nonlinear_map_rejected(self):
        # cubic distortion keeps both axioms but breaks linearity
        def forward(x, v):
            return x - v / 2.0, x + v / 2.0 + 0.2 * v**3

        def inverse(a, b):
            # the real root of 0.2 v^3 + v = b - a, row by row
            v = np.empty(b.shape)
            for i, c in np.ndenumerate((b - a)[..., 0]):
                roots = np.roots([0.2, 0.0, 1.0, -c])
                v[i] = float(np.real(roots[np.argmin(np.abs(np.imag(roots)))]))
            return a + v / 2.0, v

        def jacobian(x, v):
            out = np.empty(v.shape[:-1] + (2, 2))
            out[..., 0, :] = 1.0, -0.5
            out[..., 1, 0], out[..., 1, 1] = 1.0, 0.5 + 0.6 * v[..., 0] ** 2
            return out

        crooked = DiscretizationMap(1, "midpoint", forward, inverse, jacobian)
        with pytest.raises(NotLinearityPreserving):
            linear_two_step(double_integrator_lms(), crooked, 0.1)

    def test_a_step_that_leaves_every_probe_in_place_is_refused(self):
        # at h = 1e-20 each probe's start is within Newton's 0-iteration bound,
        # so the one-step update is I and its velocity block is 0
        with pytest.raises(SingularStep, match="^velocity block of the one-step update is singular$"):
            linear_two_step(double_integrator_lms(), make_midpoint(1), 1e-20)


class TestPolePlace:
    def test_benchmark_gain(self, pendulum):
        gains = pole_place(pendulum.linear, POLES)
        npt.assert_allclose(gains, [[240000.0, 3500.0, 50000.0, 100.0]],
                            rtol=1e-6)

    def test_characteristic_polynomial_identity(self, pendulum):
        # the stacked chain gives s^4 + k4 s^3 + k2 s^2 + k3 s + k1
        k1, k2, k3, k4 = pole_place(pendulum.linear, POLES).ravel()
        want = np.poly(POLES)
        npt.assert_allclose([1.0, k4, k2, k3, k1], want, rtol=1e-6)

    def test_zero_gain_when_poles_already_placed(self, pendulum):
        # the open-loop chain is nilpotent: all poles at the origin already
        gains = pole_place(pendulum.linear, [0.0, 0.0, 0.0, 0.0])
        npt.assert_allclose(gains, np.zeros((1, 4)), atol=1e-10)

    def test_random_controllable_systems(self, rng):
        # eigensolver oracle on random second-order chains
        for _ in range(5):
            a = rng.normal(size=(2, 2))
            lms = LinearMechanicalSystem(A=a, B=np.array([[0.0], [1.0]]))
            a_full, b_full = lms.stacked()
            ctrb = np.column_stack([np.linalg.matrix_power(a_full, i) @ b_full
                                    for i in range(4)])
            if np.linalg.matrix_rank(ctrb) < 4:
                continue
            poles = -rng.uniform(1, 6, size=4)
            gains = pole_place(lms, poles)
            got = np.sort(np.linalg.eigvals(a_full - b_full @ gains).real)
            npt.assert_allclose(got, np.sort(poles), rtol=1e-6, atol=1e-8)

    def test_multi_input_rejected(self):
        lms = LinearMechanicalSystem(A=np.zeros((2, 2)), B=np.eye(2))
        with pytest.raises(MultiInputUnsupported):
            pole_place(lms, [-1, -2, -3, -4])

    def test_uncontrollable_rejected(self):
        lms = LinearMechanicalSystem(A=np.zeros((2, 2)),
                                     B=np.array([[0.0], [0.0]]))
        with pytest.raises(Uncontrollable):
            pole_place(lms, [-1, -2, -3, -4])

    def test_a_singular_controllability_matrix_of_tiny_scale_is_refused_by_the_ratio(self):
        # the second mode is unreachable; 1e-12 times the largest singular value,
        # ~1e-313, would underflow to 0, but the smallest over the largest does not
        lms = LinearMechanicalSystem(A=np.zeros((2, 2)), B=np.array([[1e-313], [0.0]]))
        with pytest.raises(Uncontrollable,
                           match=r"^controllability matrix near-singular \(ratio 0\.0e\+00\)$"):
            pole_place(lms, [-1, -2, -3, -4])

    @pytest.mark.parametrize("a, b, match", [
        # A^3 B overflows
        (1e200 * np.eye(2), [[1.0], [0.5]], "^controllability matrix overflows$"),
        # subnormal columns, whose smallest singular values the SVD rounds to 0;
        # the gain, ~1e323, would overflow
        ([[0.0, 1.0], [1.0, -1.0]], [[1.5e-323], [1e-323]],
         r"^controllability matrix near-singular \(ratio 0\.0e\+00\)$"),
    ], ids=["overflow", "underflow"])
    def test_a_finite_target_out_of_float_range_is_refused(self, a, b, match):
        # before numpy warns or raises
        lms = LinearMechanicalSystem(A=np.array(a), B=np.array(b))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Uncontrollable, match=match):
                pole_place(lms, [-1, -2, -3, -4])

    @pytest.mark.parametrize("poles", [[-5.0] * 4, [-1.0] * 4, [-10.0] * 4,
                                       [-1.0, -1.0001, -1.0002, -1.0003]],
                             ids=["-5x4", "-1x4", "-10x4", "cluster"])
    def test_a_repeated_pole_set_is_placed(self, pendulum, poles):
        # a solver returns a fourfold eigenvalue only to ~eps^(1/4), ~1e-4 away;
        # the characteristic polynomial is exact to rounding
        k1, k2, k3, k4 = pole_place(pendulum.linear, poles).ravel()
        npt.assert_allclose([1.0, k4, k2, k3, k1], np.poly(poles), rtol=1e-12)

    def test_a_placement_whose_polynomial_misses_is_refused(self):
        # two modes 1e-3 apart need gains of ~4e4, and the closed loop's
        # characteristic polynomial misses np.poly(poles) by ~1.8e-7 of its
        # largest coefficient, beyond 1e-8
        lms = LinearMechanicalSystem(A=np.diag([-1.0, -1.001]), B=np.ones((2, 1)))
        with pytest.raises(Uncontrollable, match="^placed eigenvalues failed validation$"):
            pole_place(lms, [-1, -2, -3, -4])

    @pytest.mark.parametrize("poles", [[-1, -2, -3], [-1, -2, -3, -4, -5]], ids=["three", "five"])
    def test_wrong_number_of_poles_rejected(self, pendulum, poles):
        with pytest.raises(DimensionMismatch, match=f"need 4 poles, got {len(poles)}"):
            pole_place(pendulum.linear, poles)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_poles_are_refused(self, pendulum, bad):
        # NaN never equals its conjugate, so the closure test would misreport it
        with pytest.raises(NonFinite, match="poles contain NaN/Inf"):
            pole_place(pendulum.linear, [bad, -1, -2, -3])

    def test_conjugation_closure_required(self, pendulum):
        with pytest.raises(ValueError):
            pole_place(pendulum.linear, [-1, -2, -3, -4 + 1j])


class TestCayley:
    def test_scalar_multiplier(self):
        out = theta_update_matrix(np.array([[-10.0]]), 0.01, 0.5) @ np.array([1.0])
        npt.assert_allclose(out, [(1 - 0.05) / (1 + 0.05)], rtol=1e-15)

    def test_zero_matrix_identity(self, rng):
        x = rng.normal(size=3)
        npt.assert_array_equal(theta_update_matrix(np.zeros((3, 3)), 0.5, 0.5) @ x, x)

    def test_benchmark_iteration_eigenvalues(self, pendulum):
        # Moebius-map oracle applied to the placed poles
        gains = pole_place(pendulum.linear, POLES)
        a_full, b_full = pendulum.linear.stacked()
        cay = theta_update_matrix(a_full - b_full @ gains, 0.01, 0.5)
        got = np.sort(np.linalg.eigvals(cay).real)
        want = np.sort([(1 + 0.005 * lam) / (1 - 0.005 * lam) for lam in POLES])
        npt.assert_allclose(got, want, rtol=1e-9)
        npt.assert_allclose(want, [0.666667, 0.739130, 0.818182, 0.904762],
                            rtol=1e-6)

    def test_a_stability_on_random_hurwitz(self, rng):
        # any Hurwitz matrix, any step: spectral radius below one
        for _ in range(100):
            m = rng.normal(size=(4, 4))
            shift = max(np.real(np.linalg.eigvals(m)).max(), 0.0)
            a_cl = m - (shift + rng.uniform(0.2, 2.0)) * np.eye(4)
            h = 10.0 ** rng.uniform(-3, 2)
            rho = np.abs(np.linalg.eigvals(theta_update_matrix(a_cl, h, 0.5))).max()
            assert rho < 1.0

    def test_singular_resolvent(self):
        with pytest.raises(SingularStep):
            theta_update_matrix(np.eye(2), 2.0, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_a_matrix_with_nan_or_inf_is_refused(self, bad):
        # before any arithmetic, as h and theta are: the solve would spread a
        # NaN of A over M with no error
        with pytest.raises(NonFinite, match="^a contains NaN/Inf$"):
            theta_update_matrix([[bad, 1.0], [0.0, 0.0]], 0.01, 0.5)


# SHA-256 of R and Omega, step after step, over 1,000 attitude steps from rest
# at xi0 with K1 = 5, K2 = 10 and h = 0.01; the last angle is past 2 pi / 3,
# on the logarithm's symmetric-part branch
ATTITUDE_RUNS = {
    (0.05, -0.03, 0.02): "b1048a43c20c72d4b459b52866e7f3022db37202572243093c20ca27892c220d",
    (0.6, 0.5, -0.55): "d630ef541191c985ae71ce4be30db46caa16cc0fbd1b891e338e763d411d8367",
    (-1.2, 0.9, 1.1): "e3cc6b7b204dd4eb3291deab11878891d1e8f34e61ace4b7f7c8cef026cd422e",
    (0.4, -2.8, 0.9): "bd45918ec197ab83c831dd1450252eecb24254a33cfb7ea4ccd28e304130e401",
}


class TestSo3ClosedLoop:
    def test_fixed_point(self):
        r, om = so3_closed_loop_step(Rotation(np.eye(3)), np.zeros(3),
                                     5.0, 10.0, 0.01)
        npt.assert_array_equal(r.r, np.eye(3))
        npt.assert_array_equal(om, np.zeros(3))

    def test_orthogonality_over_long_run(self):
        r, om = Rotation(PAPER_R0), np.zeros(3)
        worst = 0.0
        for _ in range(10_000):
            r, om = so3_closed_loop_step(r, om, 5.0, 10.0, 0.01)
            worst = max(worst, np.abs(r.r.T @ r.r - np.eye(3)).max())
        assert worst < 1e-12

    def test_linear_chart_image_up_to_commutator(self, rng):
        # the chart image of one step deviates from the flat update by at
        # most h * |xi| * |omega| when the state is small
        for _ in range(20):
            xi = rng.normal(size=3) * 0.2
            om = rng.normal(size=3) * 0.2
            h = 0.01
            r, _ = so3_closed_loop_step(so3_exp(xi), om, 5.0, 10.0, h)
            flat = xi + h * om
            defect = np.linalg.norm(so3_log(r) - flat)
            assert defect <= 1.0 * h * np.linalg.norm(xi) * np.linalg.norm(om) + 1e-12

    def test_one_rotation_per_step(self, rotations):
        r, om = so3_exp([0.3, -0.2, 0.5]), np.array([0.1, 0.2, 0.3])
        assert len(rotations) == 1
        rotations.clear()
        for _ in range(10):
            r, om = so3_closed_loop_step(r, om, 5.0, 10.0, 0.01)
        assert len(rotations) == 10

    @pytest.mark.parametrize("k1, k2", [
        (5.0, 10.0), (5.0 * np.eye(3), 10.0 * np.eye(3)), (5, 10),
        (np.float64(5.0), np.float64(10.0)), (np.array(5.0), np.array(10.0)),
    ], ids=["scalar", "matrix", "int", "float64", "0-d"])
    def test_gain_shapes(self, k1, k2):
        # Omega+ = Omega - h K1 log(R) - h K2 Omega with K1 = 5, K2 = 10,
        # bit for bit the same for every form of the gains
        r = so3_exp([0.3, -0.2, 0.5])
        _, om = so3_closed_loop_step(r, [0.1, 0.2, 0.3], k1, k2, 0.01)
        npt.assert_allclose(om, [0.075, 0.19, 0.245], rtol=1e-14)
        _, floats = so3_closed_loop_step(r, [0.1, 0.2, 0.3], 5.0, 10.0, 0.01)
        assert om.tobytes() == floats.tobytes()

    @pytest.mark.parametrize("xi0, digest", ATTITUDE_RUNS.items(),
                             ids=["0.06", "0.96", "1.86", "2.97"])
    def test_the_attitude_loop_keeps_its_bytes(self, xi0, digest):
        r, om, run = so3_exp(xi0), np.zeros(3), hashlib.sha256()
        for _ in range(1000):
            r, om = so3_closed_loop_step(r, om, 5.0, 10.0, 0.01)
            run.update(r.r.tobytes())
            run.update(om.tobytes())
        assert run.hexdigest() == digest

    def test_a_replaced_matrix_is_refused_as_a_rotation_refuses_it(self):
        # the step checks R itself: the defect of R+ = R exp(h hat(Omega))
        # would read 2.021e-01 here
        bad = np.diag([1.0, 1.0, 1.1])
        bad[0, 1] = 0.05
        with pytest.raises(ValueError) as built:
            Rotation(bad)
        r = so3_exp([0.3, -0.2, 0.5])
        r.r = bad
        with pytest.raises(ValueError) as stepped:
            so3_closed_loop_step(r, [10.0, -20.0, 30.0], 5.0, 10.0, 0.01)
        assert str(stepped.value) == str(built.value)

    @pytest.mark.parametrize("edit", [
        lambda r: r.r.__setitem__((0, 0), 5.0),
        lambda r: setattr(r, "r", r.r.astype(np.float32)),
        lambda r: setattr(r, "r", r.r.ravel().copy()),
    ], ids=["edited-in-place", "float32", "flattened"])
    def test_an_edited_rotation_is_refused_as_a_rotation_refuses_it(self, edit):
        # the entries R holds now, not the ones it was validated with, are read
        r = so3_exp([0.3, -0.2, 0.5])
        edit(r)
        with pytest.raises(Exception) as built:
            Rotation(np.array(r.r))
        with pytest.raises(type(built.value)) as stepped:
            so3_closed_loop_step(r, [0.1, 0.2, 0.3], 5.0, 10.0, 0.01)
        assert type(stepped.value) is type(built.value)
        assert str(stepped.value) == str(built.value)

    @pytest.mark.parametrize("k1, k2, omega, error, match", [
        ([5.0, 5.0, 5.0], 10.0, [0.1, 0.2, 0.3], DimensionMismatch, "K1"),
        (5.0, np.ones((2, 2)), [0.1, 0.2, 0.3], DimensionMismatch, "K2"),
        (5.0, 10.0, [0.1, 0.2], DimensionMismatch, "omega"),
        (5.0, 10.0, [[0.1, 0.2, 0.3]], DimensionMismatch, "omega"),
        (5.0, 10.0, [0.1, np.nan, 0.3], NonFinite, "omega"),
    ], ids=["vector-K1", "2x2-K2", "short-omega", "row-omega", "nan-omega"])
    def test_refuses_bad_gains_and_rates(self, k1, k2, omega, error, match):
        with pytest.raises(error, match=match):
            so3_closed_loop_step(so3_exp([0.3, -0.2, 0.5]), omega, k1, k2, 0.01)

    @pytest.mark.parametrize("k1, k2, match", [
        (float("nan"), 10.0, "K1"), (5.0, np.float64(np.inf), "K2"),
        (np.diag([5.0, np.inf, 5.0]), 10.0, "K1"), (5.0, float("-inf"), "K2"),
    ], ids=["nan-K1", "float64-inf-K2", "matrix-inf-K1", "minus-inf-K2"])
    def test_refuses_non_finite_gains(self, k1, k2, match):
        with pytest.raises(NonFinite, match=match):
            so3_closed_loop_step(so3_exp([0.1, 0.0, 0.0]), [0.1, 0.2, 0.3], k1, k2, 0.01)

    def test_refuses_an_increment_whose_angle_overflows(self):
        # h Omega = (inf, 0, 0): its angle has no sine
        with pytest.raises(NonFinite, match="rotation angle"):
            so3_closed_loop_step(so3_exp([0.1, 0.0, 0.0]), [1e10, 0.0, 0.0], 5.0, 10.0, 1e300)

    @pytest.mark.parametrize("h", [0.0, -0.01, np.inf, np.nan])
    def test_refuses_bad_step_sizes(self, h):
        with pytest.raises(ValueError, match="step size"):
            so3_closed_loop_step(so3_exp([0.3, -0.2, 0.5]), np.zeros(3), 5.0, 10.0, h)

    def test_refuses_a_rate_that_overflows_where_it_arises(self):
        # every input finite, but K2 Omega = 1e600: Omega+ is refused in this step
        # rather than by the next one
        with pytest.raises(NonFinite, match=r"Omega\+ = \(-inf, 0.0, 0.0\) is not finite"):
            so3_closed_loop_step(so3_exp([0.1, 0.0, 0.0]), [1e300, 0.0, 0.0], 1.0, 1e300, 1e-300)

    @pytest.mark.parametrize("h", [np.float64(0.01), np.array(0.01), np.float32(0.01),
                                   np.longdouble(0.01), 1],
                             ids=["float64", "0-d", "float32", "longdouble", "int"])
    def test_a_step_size_of_any_real_type_gives_the_bytes_of_its_float(self, h):
        # 100 steps, each read once as a float: float64 rotations and rates
        runs = []
        for step in (h, float(h)):
            r, om, out = so3_exp([0.3, -0.2, 0.5]), np.array([0.1, 0.2, 0.3]), []
            for _ in range(100):
                r, om = so3_closed_loop_step(r, om, 0.5, 1.0, step)
                assert r.r.dtype == om.dtype == np.float64
                out += [r.r.tobytes(), om.tobytes()]
            runs.append(out)
        assert runs[0] == runs[1]

    def test_benchmark_scenario_converges(self):
        r, om = Rotation(PAPER_R0), np.zeros(3)
        errs = [3.0 - np.trace(r.r)]
        for _ in range(1000):
            r, om = so3_closed_loop_step(r, om, 5.0, 10.0, 0.01)
            errs.append(3.0 - np.trace(r.r))
        assert errs[0] == 2.0
        assert errs[-1] < 1e-3
        # monotone decay after the initial transient
        tail = np.array(errs[200:])
        assert np.all(np.diff(tail) <= 1e-12)


class TestTrajectoryGrid:
    """The time grid of a record must be strictly increasing with every
    step within 1e-9 of the first, relative."""

    def test_fl_discretize_grid_accepted(self):
        t = 0.01 * np.arange(101)
        traj = Trajectory(t, np.zeros((101, 4)))
        npt.assert_array_equal(traj.t, t)
        Trajectory([0.0], np.zeros((1, 4)))

    def test_steps_within_the_tolerance_accepted(self):
        Trajectory([0.0, 1.0, 2.0 + 0.9e-9], np.zeros((3, 1)))

    @pytest.mark.parametrize("t", [
        [0.0, np.nan, 0.02],
        [0.0, 0.01, np.nan],
        [np.nan, 0.01, 0.02],
    ], ids=["nan-inside", "nan-last", "nan-first"])
    def test_nan_grid_refused(self, t):
        with pytest.raises(ValueError, match="uniform and strictly increasing"):
            Trajectory(t, np.zeros((3, 1)))

    @pytest.mark.parametrize("t", [
        [0.0, 0.0, 0.0],
        [0.02, 0.01, 0.0],
        [0.0, 0.01, 0.01],
    ], ids=["constant", "decreasing", "repeated-last"])
    def test_non_increasing_grid_refused(self, t):
        with pytest.raises(ValueError, match="uniform and strictly increasing"):
            Trajectory(t, np.zeros((3, 1)))

    @pytest.mark.parametrize("t", [
        [0.0, 1.0, 2.0 + 1.1e-9],
        [0.0, 0.01, 0.03],
    ], ids=["just-past-tolerance", "doubled-step"])
    def test_non_uniform_grid_refused(self, t):
        with pytest.raises(ValueError, match="uniform and strictly increasing"):
            Trajectory(t, np.zeros((3, 1)))


    def test_a_state_row_per_grid_point_required(self):
        with pytest.raises(DimensionMismatch, match="one state row per grid point"):
            Trajectory([0.0, 0.01, 0.02], np.zeros((2, 4)))


_A_CL = np.array([[0.0, 1.0], [-2.0, -2.0]])

# every scalar integrators reads: its call on a value x, the name the
# reader gives it, and whether it must be positive (a step size or horizon)
SCALARS = {
    "step_sode-h": (lambda x: step_sode(tangent_lift(make_midpoint(1)),
                                        unforced(harmonic_oscillator()), np.ones(2), x),
                    "step size", True),
    "fl_discretize-h": (lambda x: fl_discretize(pendulum_system(), make_midpoint(2), S0, x, 5,
                                                gains=np.ones((1, 4))), "step size", True),
    "so3-h": (lambda x: so3_closed_loop_step(so3_exp([0.3, -0.2, 0.5]), np.ones(3), 5.0, 10.0, x),
              "step size", True),
    "so3-K1": (lambda x: so3_closed_loop_step(so3_exp([0.3, -0.2, 0.5]), np.ones(3), x, 10.0,
                                              0.01), "K1", False),
    "so3-K2": (lambda x: so3_closed_loop_step(so3_exp([0.3, -0.2, 0.5]), np.ones(3), 5.0, x,
                                              0.01), "K2", False),
    "theta_update_matrix-h": (lambda x: theta_update_matrix(_A_CL, x, 0.5), "step size", False),
    "theta_update_matrix-theta": (lambda x: theta_update_matrix(_A_CL, 0.01, x), "theta", False),
    "grid_steps-h": (lambda x: grid_steps(1.0, x), "step size", True),
    "grid_steps-t_final": (lambda x: grid_steps(x, 0.01), "final time", True),
}
BAD_SCALARS = {"bool": True, "str": "0.01", "complex": 0.01 + 0j, "nan": np.nan, "inf": np.inf,
               "minus-inf": -np.inf, "huge-int": 10**400}
NOT_POSITIVE = {"zero": 0.0, "negative": -0.01}
SCALAR_REFUSALS = {
    f"{entry}-{label}": (call, name, positive, value)
    for entry, (call, name, positive) in SCALARS.items()
    for label, value in {**BAD_SCALARS, **(NOT_POSITIVE if positive else {})}.items()
}


@pytest.mark.parametrize("call, name, positive, value", SCALAR_REFUSALS.values(),
                         ids=SCALAR_REFUSALS.keys())
def test_a_scalar_is_refused_as_its_one_reader_refuses_it(call, name, positive, value):
    with pytest.raises(Exception) as want:
        _scalar(value, name, positive)
    with pytest.raises(type(want.value)) as got:
        call(value)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_theta_update_matrix_takes_a_negative_step():
    # a step back undoes a step forward at theta = 1/2: M(-h) = M(h)^-1
    back, forward = theta_update_matrix(_A_CL, -0.1, 0.5), theta_update_matrix(_A_CL, 0.1, 0.5)
    npt.assert_allclose(back @ forward, np.eye(2), atol=1e-15)


def test_grid_steps_refuses_an_overflowing_ratio():
    with pytest.raises(ValueError, match="t_final / h overflows"):
        mechlift.integrators.grid_steps(1e300, 1e-300)


def test_import_leaves_scipy_unloaded():
    # a bare import loads the exception types and nothing numerical: every
    # other module, numpy with it, waits for its first use
    src = Path(mechlift.__file__).resolve().parents[1]
    code = ("import sys, mechlift\n"
            "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy', 'mechlift'))))")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "['mechlift', 'mechlift.errors']"


class TestLinearFlow:
    def test_pendulum_closed_loop_matches_expm(self, pendulum):
        # A_cl has entries up to 2.4e5 and the flow reaches |z| = 4.4e5
        from scipy.linalg import expm

        _, a_cl = pendulum_closed_loop(pendulum, steps=0)
        z0 = pendulum.transform.push_state(S0[:2], S0[2:])
        t = 0.01 * np.arange(101)
        exact = np.array([expm(a_cl * tk) @ z0 for tk in t])
        err = np.abs(linear_flow(a_cl, z0, t) - exact).max()
        assert err <= 1e-10 * np.abs(exact).max()

    def test_attitude_closed_loop_matches_expm(self):
        from scipy.linalg import expm

        eye, zero = np.eye(3), np.zeros((3, 3))
        a_cl = np.block([[zero, eye], [-5.0 * eye, -10.0 * eye]])
        z0 = np.array([0.0, -np.pi / 2, 0.0, 0.0, 0.0, 0.0])
        t = np.linspace(0.0, 10.0, 1001)
        exact = np.array([expm(a_cl * tk) @ z0 for tk in t])
        assert np.abs(linear_flow(a_cl, z0, t) - exact).max() <= 1e-12 * np.abs(z0).max()

    def test_exact_on_a_jordan_block(self):
        # defective: no eigenbasis, expm(N t) = [[1, t], [0, 1]]
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        t = np.array([0.0, 0.37, 1.3, 7.1e3])
        first_row = np.column_stack([linear_flow(jordan, e, t)[:, 0] for e in np.eye(2)])
        npt.assert_array_equal(first_row, np.column_stack([np.ones_like(t), t]))
        npt.assert_array_equal(linear_flow(jordan, [0.0, 1.0], t)[:, 1], 1.0)

    def test_time_zero_returns_the_start_bit_for_bit(self, pendulum, rng):
        _, a_cl = pendulum_closed_loop(pendulum, steps=0)
        z0 = rng.normal(size=4) * 1e3
        assert np.array_equal(linear_flow(a_cl, z0, [0.0])[0], z0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_a_matrix_with_nan_or_inf_is_refused(self, bad):
        # before any arithmetic: at t = 0 an infinite A gives A t = inf * 0 =
        # NaN, which the Taylor sum spreads with only numpy's RuntimeWarning
        with pytest.raises(NonFinite, match="^a contains NaN/Inf$"):
            linear_flow([[bad]], [1.0], [0.0])


class TestOrderStudy:
    def test_midpoint_sode_second_order(self):
        field = unforced(harmonic_oscillator())
        lift = tangent_lift(make_midpoint(1))

        def stepper(s, h, steps):
            state = s
            for _ in range(steps):
                state = step_sode(lift, field, state, h).state
            return state

        exact = np.array([np.cos(1.0), -np.sin(1.0)])
        study = order_study(stepper, exact, np.array([1.0, 0.0]), 1.0,
                            [0.1, 0.05, 0.025, 0.0125])
        assert abs(study.slope - 2.0) < 0.2

    def test_explicit_euler_first_order(self):
        m = make_explicit_euler(1)

        def stepper(s, h, steps):
            state = s
            for _ in range(steps):
                state = step_sode(m, lambda x: -x, state, h).state
            return state

        study = order_study(stepper, np.array([np.exp(-1.0)]), np.array([1.0]),
                            1.0, [0.05, 0.025, 0.0125, 0.00625])
        assert abs(study.slope - 1.0) < 0.2

    def test_self_comparison_flags_floor(self):
        def via_reference(s, h, steps):
            return linear_flow(-np.eye(1), s, [1.0])[-1]

        ref = via_reference(np.array([1.0]), 0.0, 0)
        study = order_study(via_reference, ref, np.array([1.0]), 1.0,
                            [0.5, 0.25, 0.125, 0.0625])
        assert study.floored
        assert study.slope is None

    def test_single_step_size_gives_no_slope(self):
        m = make_explicit_euler(1)

        def stepper(s, h, steps):
            state = s
            for _ in range(steps):
                state = step_sode(m, lambda x: -x, state, h).state
            return state

        study = order_study(stepper, np.array([np.exp(-1.0)]), np.array([1.0]),
                            1.0, [0.1])
        assert study.slope is None
        assert len(study.errors) == 1

    @pytest.mark.parametrize("h_list", [[0.02, 0.02], [0.02, 0.01, 0.02]])
    def test_a_repeated_step_size_is_refused_before_any_run(self, h_list):
        # a fit over a repeated h is rank-deficient: no slope to report
        def stepper(s, h, steps):
            raise AssertionError("a run started")

        with pytest.raises(ValueError, match="an order fit needs distinct step sizes, got"):
            order_study(stepper, np.array([np.exp(-1.0)]), np.array([1.0]), 1.0, h_list)
