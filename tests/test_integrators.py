import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import mechlift
from mechlift import (
    DimensionMismatch,
    DiscretizationMap,
    LinearMechanicalSystem,
    MFTransform,
    MechanicalSystem,
    MultiInputUnsupported,
    NonFinite,
    NotLinearityPreserving,
    OutsideChart,
    Rotation,
    SingularStep,
    SystemBundle,
    Uncontrollable,
    cayley_matrix,
    fl_discretize,
    identity_diffeomorphism,
    linear_flow,
    linear_one_step,
    linear_two_step,
    make_explicit_euler,
    make_implicit_euler,
    make_midpoint,
    order_study,
    pole_place,
    so3_closed_loop_step,
    so3_exp,
    so3_log,
    sode_field,
    step_sode,
    tangent_lift,
)

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
def central_differences(monkeypatch):
    """The calls made to the package's central-difference Jacobian."""
    jac = mechlift.geometry.numeric_jacobian
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return jac(*args, **kwargs)

    monkeypatch.setattr(mechlift.geometry, "numeric_jacobian", counting)
    return calls


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

    @pytest.mark.parametrize("carried", [np.zeros((2, 2)), -np.eye(2)],
                             ids=["singular", "wrong-sign"])
    def test_carried_jacobian_never_ends_a_solve(self, carried):
        # a Jacobian carried in from elsewhere that cannot solve the step is
        # replaced by a fresh one, not reported as a stall
        lift = tangent_lift(make_midpoint(1))
        field = unforced(harmonic_oscillator())
        fresh = step_sode(lift, field, np.array([1.0, 0.0]), 0.1)
        out = step_sode(lift, field, np.array([1.0, 0.0]), 0.1, jacobian=carried)
        npt.assert_allclose(out.state, fresh.state, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -0.01])
    def test_rejects_a_step_size_that_is_not_finite_positive(self, pendulum, h):
        lift = tangent_lift(make_midpoint(1))
        with pytest.raises(ValueError, match="finite positive"):
            step_sode(lift, unforced(harmonic_oscillator()), np.array([1.0, 0.0]), h)
        with pytest.raises(ValueError, match="finite positive"):
            fl_discretize(pendulum, make_midpoint(2), S0, h, 5,
                          gains=pole_place(pendulum.linear, POLES))

    def test_rejects_a_non_finite_state(self):
        lift = tangent_lift(make_midpoint(1))
        with pytest.raises(NonFinite):
            step_sode(lift, unforced(harmonic_oscillator()), np.array([np.nan, 0.0]), 0.1)

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
    push = bundle.transform.push_state
    z = np.array([push(s[:2], s[2:]) for s in traj.states])
    return np.abs(z[1:] - z[:-1] @ one_step.T).max()


class TestFlDiscretize:
    def test_conjugate_to_linear_one_step(self, pendulum):
        # criterion 4's run; a coarse step whose exact update exists at every
        # step; an explicit-Euler loop far out in the linear chart
        cases = [(make_midpoint, S0, 0.01, 100), (make_midpoint, S0, 0.1, 10),
                 (make_explicit_euler, S_PRECISION, 0.01, 100)]
        for make_map, s0, h, steps in cases:
            traj, a_cl = pendulum_closed_loop(pendulum, h, steps, make_map, s0)
            if make_map is make_midpoint:
                one_step = cayley_matrix(a_cl, h)
            else:
                one_step = np.eye(4) + h * a_cl
            assert conjugacy_defect(pendulum, traj, one_step) < 1e-8, (make_map, h)

    def test_conjugacy_checks_the_physical_feedback(self, pendulum):
        # the step runs on the real model: a feedback off by one part in a
        # million must break the conjugacy
        t = pendulum.transform
        bent = dataclasses.replace(t, alpha=lambda x: (1.0 + 1e-6) * t.alpha(x))
        bundle = pendulum._replace(transform=bent)
        traj, a_cl = pendulum_closed_loop(bundle)
        assert conjugacy_defect(bundle, traj, cayley_matrix(a_cl, 0.01)) > 1e-8

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
            pendulum.transform.phi.inverse((cayley_matrix(a_cl, 0.01) @ z)[:2])
        with pytest.raises(OutsideChart) as info:
            pendulum_closed_loop(pendulum, s0=s0)
        assert info.value.step == step
        npt.assert_array_equal(info.value.state, traj.states[-1])

    def test_target_jacobian_needs_no_central_difference(self, pendulum,
                                                         central_differences):
        # criterion 4's run: in the linearizing chart the step residual is
        # affine, and the linear target's Jacobian solves it in one iteration
        # plus the polish step
        for make_map in (make_midpoint, make_implicit_euler, make_explicit_euler):
            traj, _ = pendulum_closed_loop(pendulum, make_map=make_map)
            assert len(central_differences) == 0, make_map
            assert traj.iterations.max() <= 2, make_map

    def test_a_wrong_target_jacobian_is_replaced_at_once(self, pendulum,
                                                         central_differences):
        # a target of (3A, 2B) gives a step Jacobian whose full steps only
        # halve the residual; kept, it would take 25 iterations in step 0, while
        # one fresh central difference, carried on, solves every step
        gains = pole_place(pendulum.linear, POLES)
        lin = pendulum.linear
        wrong = pendulum._replace(linear=LinearMechanicalSystem(A=3 * lin.A, B=2 * lin.B))
        traj = fl_discretize(wrong, make_midpoint(2), S0, 0.01, 100, gains=gains)
        assert traj.iterations.max() <= 4
        assert len(central_differences) <= 1
        right, _ = pendulum_closed_loop(pendulum)
        npt.assert_allclose(traj.states, right.states, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("s0, error", [
        ((np.nan, 0.0, 0.0, 0.0), NonFinite),
        ((0.1, 0.0, np.inf, 0.0), NonFinite),
        ((0.1, 0.0, 0.0), DimensionMismatch),
    ], ids=["nan", "inf", "three-entries"])
    def test_rejects_a_bad_initial_state(self, pendulum, s0, error):
        with pytest.raises(error):
            pendulum_closed_loop(pendulum, s0=np.array(s0))

    def test_carried_jacobian_matches_fresh_solves_on_a_nonlinear_loop(self, rng):
        sys = MechanicalSystem(
            2, 1,
            gamma=lambda x: np.zeros((2, 2, 2)),
            e=lambda x: np.array([-8.0 * np.sin(x[0]), -2.0 * np.sin(x[1]) * np.cos(x[0])]),
            g=lambda x: np.array([[0.0], [1.0]]),
        )
        t = MFTransform(identity_diffeomorphism(2),
                        alpha=lambda x: np.zeros(1),
                        beta=lambda x: np.eye(1),
                        gammaF=lambda x: np.zeros((1, 2, 2)))
        bundle = SystemBundle(sys, t, LinearMechanicalSystem(A=np.zeros((2, 2)),
                                                             B=np.array([[0.0], [1.0]])))
        s0 = np.array([1.0, -0.5, 0.3, 0.8])
        useq = rng.normal(size=(40, 1))
        traj = fl_discretize(bundle, make_midpoint(2), s0, 0.1, 40, utilde=useq)
        lift = tangent_lift(make_midpoint(2))
        states = [s0]
        for k in range(40):
            field = lambda z, k=k: sode_field(sys, z, useq[k])
            states.append(step_sode(lift, field, states[-1], 0.1).state)
        npt.assert_allclose(traj.states, states, rtol=0, atol=1e-12)

    def test_identity_chart_matches_plain_stepper(self, rng):
        lms = LinearMechanicalSystem(A=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                     B=np.array([[0.0], [1.0]]))
        sys = lms.as_mechanical_system()
        t = MFTransform(identity_diffeomorphism(2),
                        alpha=lambda x: np.zeros(1),
                        beta=lambda x: np.eye(1),
                        gammaF=lambda x: np.zeros((1, 2, 2)))
        bundle = SystemBundle(sys, t, lms)
        s0 = rng.normal(size=4)
        useq = rng.normal(size=(20, 1))
        traj = fl_discretize(bundle, make_midpoint(2), s0, 0.05, 20, utilde=useq)
        lift = tangent_lift(make_midpoint(2))
        s = s0.copy()
        for k in range(20):
            s = step_sode(lift, lambda z, k=k: sode_field(sys, z, useq[k]), s, 0.05).state
        npt.assert_allclose(traj.states[-1], s, atol=1e-12)

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


class TestLinearTwoStep:
    def test_probe_solves_need_no_central_difference(self, pendulum, central_differences):
        for builder in (make_explicit_euler, make_implicit_euler, make_midpoint):
            linear_two_step(pendulum.linear, builder(2), 0.01)
        assert len(central_differences) == 0

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
        npt.assert_allclose(m, cayley_matrix(a_full - b_full @ gains, 0.01),
                            rtol=1e-9, atol=1e-9)

    def test_nonlinear_map_rejected(self):
        # cubic distortion keeps both axioms but breaks linearity
        def forward(x, v):
            return x - v / 2.0, x + v / 2.0 + 0.2 * v**3

        def inverse(a, b):
            roots = np.roots([0.2, 0.0, 1.0, -(b[0] - a[0])])
            v = float(np.real(roots[np.argmin(np.abs(np.imag(roots)))]))
            return np.array([a[0] + v / 2.0]), np.array([v])

        def jacobian(x, v):
            return np.array([[1.0, -0.5], [1.0, 0.5 + 0.6 * v[0] ** 2]])

        crooked = DiscretizationMap(1, "midpoint", forward, inverse, jacobian)
        with pytest.raises(NotLinearityPreserving):
            linear_two_step(double_integrator_lms(), crooked, 0.1)


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

    def test_conjugation_closure_required(self, pendulum):
        with pytest.raises(ValueError):
            pole_place(pendulum.linear, [-1, -2, -3, -4 + 1j])


class TestCayley:
    def test_scalar_multiplier(self):
        out = cayley_matrix(np.array([[-10.0]]), 0.01) @ np.array([1.0])
        npt.assert_allclose(out, [(1 - 0.05) / (1 + 0.05)], rtol=1e-15)

    def test_zero_matrix_identity(self, rng):
        x = rng.normal(size=3)
        npt.assert_array_equal(cayley_matrix(np.zeros((3, 3)), 0.5) @ x, x)

    def test_benchmark_iteration_eigenvalues(self, pendulum):
        # Moebius-map oracle applied to the placed poles
        gains = pole_place(pendulum.linear, POLES)
        a_full, b_full = pendulum.linear.stacked()
        cay = cayley_matrix(a_full - b_full @ gains, 0.01)
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
            rho = np.abs(np.linalg.eigvals(cayley_matrix(a_cl, h))).max()
            assert rho < 1.0

    def test_singular_resolvent(self):
        with pytest.raises(SingularStep):
            cayley_matrix(np.eye(2), 2.0)


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


def test_import_leaves_scipy_unloaded():
    src = Path(mechlift.__file__).resolve().parents[1]
    code = "import sys, mechlift; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


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
