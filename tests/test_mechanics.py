import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import mechlift.cli
from conftest import PARAMS, flat_bundle, stack_rows_are_the_points
from mechlift import (
    Diffeomorphism,
    DimensionMismatch,
    LinearMechanicalSystem,
    MFTransform,
    MechanicalSystem,
    NonFinite,
    OutsideChart,
    PendulumParams,
    SingularFeedback,
    apply_feedback,
    identity_diffeomorphism,
    pendulum_system,
    rigid_body_system,
    sode_field,
    so3_exp,
    so3_log,
    verify_mf_equivalence,
)

M0, MD, J2 = PARAMS["m0"], PARAMS["md"], PARAMS["J2"]


def harmonic_order_bundle(monkeypatch):
    """The bundle ``order-study harmonic`` steps, caught at its first call."""
    bundles, run = [], mechlift.integrators.fl_discretize
    monkeypatch.setattr(mechlift.integrators, "fl_discretize",
                        lambda bundle, *rest, **kw: bundles.append(bundle) or run(bundle, *rest, **kw))
    stepper, _, s0 = mechlift.cli._harmonic_order_case("midpoint", 1.0)
    stepper(s0, 0.1, 10)
    return bundles[0]


class TestSodeField:
    def test_free_particle(self, rng):
        sys = LinearMechanicalSystem(A=np.zeros((3, 3)), B=np.eye(3)).as_mechanical_system()
        x, y = rng.normal(size=3), rng.normal(size=3)
        out = sode_field(sys, np.concatenate([x, y]), np.zeros(3))
        xdot, ydot = out[:3], out[3:]
        npt.assert_array_equal(xdot, y)
        npt.assert_array_equal(ydot, np.zeros(3))

    def test_pendulum_control_direction_at_origin(self, pendulum):
        # arithmetic on the published constants: g = (-1/md, 1/J2 + 1/md)
        ydot = sode_field(pendulum.system, np.zeros(4), np.array([1.0]))[2:]
        expected = np.array([-1.0 / MD, 1.0 / J2 + 1.0 / MD])
        npt.assert_allclose(ydot, expected, rtol=1e-15)
        npt.assert_allclose(expected[0], -204.0816, rtol=1e-6)

    def test_zero_velocity_gives_drift(self, pendulum, rng):
        x = np.array([rng.uniform(-1, 1), rng.normal()])
        ydot = sode_field(pendulum.system, np.concatenate([x, [0.0, 0.0]]),
                          np.array([0.0]))[2:]
        npt.assert_allclose(ydot, pendulum.system.e(x), atol=1e-15)

    def test_affine_in_control(self, pendulum, rng):
        s = np.concatenate([[0.3, -0.1], rng.normal(size=2)])
        u1, u2 = rng.normal(size=(2, 1))
        a = sode_field(pendulum.system, s, u1 + u2)[2:]
        b = sode_field(pendulum.system, s, u2)[2:]
        c = sode_field(pendulum.system, s, u1)[2:]
        d = sode_field(pendulum.system, s, np.zeros(1))[2:]
        scale = max(np.abs(a).max(), 1.0)
        assert np.abs((a - b) - (c - d)).max() < 1e-12 * scale

    def test_dimension_mismatch(self, pendulum):
        for size, m in [(2, 1), (5, 1), (4, 2)]:
            with pytest.raises(DimensionMismatch, match=f"state size {size} / control dim {m} "
                                                        r"do not match system \(2, 1\)"):
                sode_field(pendulum.system, np.zeros(size), np.zeros(m))

    def test_a_zero_connection_is_skipped(self, pendulum, rigid_body, rng, monkeypatch):
        # the pendulum's chart is flat: its acceleration is e + g u, equal
        # (up to the sign of a zero) to the value with -Gamma(y, y) added
        from mechlift import mechanics
        sys = pendulum.system
        s, u = rng.normal(size=(7, 4)) * 0.5, rng.normal(size=(7, 1))
        with_form = (-mechanics._quadratic(sys.gamma(s[:, :2]), s[:, 2:]) + sys.e(s[:, :2])
                     + (sys.g(s[:, :2]) @ u[..., None])[..., 0])
        forms = []
        quadratic = mechanics._quadratic
        monkeypatch.setattr(mechanics, "_quadratic", lambda q, y: forms.append(q) or quadratic(q, y))
        npt.assert_array_equal(sode_field(sys, s, u)[:, 2:], with_form)
        assert forms == []
        sode_field(rigid_body.exp_chart_system(), rng.normal(size=(7, 6)) * 0.5, u.repeat(3, 1))
        assert len(forms) == 1


class TestApplyFeedback:
    def test_identity_feedback(self, rng):
        t = flat_bundle(LinearMechanicalSystem(A=np.zeros((2, 2)), B=np.eye(2))).transform
        ut = rng.normal(size=2)
        npt.assert_array_equal(apply_feedback(t, np.zeros(2), np.zeros(2), ut), ut)

    def test_pendulum_inverts_published_auxiliary_control(self, pendulum, rng):
        # oracle: the forward auxiliary-control formula
        def utilde_of(x, y, u):
            return (-M0 / J2 * np.sin(x[0]) * y[0] ** 2
                    + M0**2 / (2 * MD * J2) * np.sin(2 * x[0])
                    - M0 / (MD * J2) * np.cos(x[0]) * u)

        for _ in range(25):
            x = np.array([rng.uniform(-1.3, 1.3), rng.normal()])
            y = rng.normal(size=2)
            ut = rng.normal(size=1)
            u = apply_feedback(pendulum.transform, x, y, ut)
            npt.assert_allclose(utilde_of(x, y, u[0]), ut[0], rtol=1e-9, atol=1e-9)

    def test_pendulum_origin_gain(self, pendulum):
        # at the origin the quadratic and drift terms vanish
        u = apply_feedback(pendulum.transform, np.zeros(2), np.zeros(2),
                           np.array([1.0]))
        npt.assert_allclose(u, [-MD * J2 / M0], rtol=1e-15)

    def test_affine_in_auxiliary_control(self, pendulum, rng):
        x = np.array([0.4, 0.0])
        y = rng.normal(size=2)
        base = apply_feedback(pendulum.transform, x, y, np.zeros(1))
        ut = rng.normal(size=1)
        for c in (2.0, -3.5):
            scaled = apply_feedback(pendulum.transform, x, y, c * ut)
            once = apply_feedback(pendulum.transform, x, y, ut)
            tol = 1e-12 * max(1.0, abs(base[0]), abs(once[0]))
            assert abs((scaled - base) - c * (once - base))[0] < tol

    def test_singular_at_quarter_turn(self, pendulum):
        with pytest.raises(SingularFeedback):
            apply_feedback(pendulum.transform, np.array([np.pi / 2, 0.0]),
                           np.zeros(2), np.zeros(1))


def _verify(bundle, *samples):
    return verify_mf_equivalence(bundle.system, bundle.transform,
                                 [tuple(map(np.zeros, sizes)) for sizes in samples])


@pytest.mark.parametrize("call, message", [
    (lambda b: _verify(b, (2, 2, 1), (3, 2, 1)), "sample 1: state size 5 / control dim 1"),
    (lambda b: _verify(b, (2, 2, 1), (2, 3, 1)), "sample 1: state size 5 / control dim 1"),
    (lambda b: _verify(b, (2, 2, 2)), "sample 0: state size 4 / control dim 2"),
    (lambda b: apply_feedback(b.transform, np.zeros(3), np.zeros(2), np.zeros(1)),
     "state size 5 / control dim 1"),
    (lambda b: apply_feedback(b.transform, np.zeros(2), np.zeros(2), np.zeros(2)),
     "state size 4 / control dim 2"),
], ids=["verify-x3", "verify-ragged", "verify-utilde2", "feedback-x3", "feedback-utilde2"])
def test_a_wrong_size_is_refused_before_the_chart_runs(pendulum, chart_calls, call, message):
    # the one size check names the sizes, and a sample by its index, before
    # numpy meets operands that do not fit
    with pytest.raises(DimensionMismatch, match=message + r" do not match system \(2, 1\)"):
        call(pendulum)
    assert chart_calls == []


class TestPendulumSystem:
    def test_composite_constants_match_formulas(self):
        p = PendulumParams()
        m0_f = p.a * p.L1 * (p.m1 + 2 * p.m2)
        md_f = p.L1**2 * (p.m1 + 4 * p.m2) + p.J1
        assert abs(m0_f - p.m0) <= 0.005 * p.m0
        assert abs(md_f - p.md) <= 0.005 * p.md

    def test_inconsistent_params_rejected(self):
        with pytest.raises(ValueError):
            PendulumParams(m0=0.5)
        with pytest.raises(ValueError):
            PendulumParams(L1=-1.0)

    def test_chart_value(self, pendulum):
        out = pendulum.transform.phi.forward(np.array([np.pi / 6, 0.0]))
        npt.assert_allclose(out, [154.125 * np.pi / 6, 11975.0 * 0.5], rtol=1e-15)

    def test_drift_vanishes_at_origin(self, pendulum):
        npt.assert_array_equal(pendulum.system.e(np.zeros(2)), np.zeros(2))

    def test_drift_components_opposite(self, pendulum, rng):
        for _ in range(10):
            e = pendulum.system.e(np.array([rng.uniform(-3, 3), rng.normal()]))
            assert e[1] == -e[0]

    def test_chart_inverse_round_trip(self, pendulum, rng):
        phi = pendulum.transform.phi
        for _ in range(20):
            x = np.array([rng.uniform(-1.4, 1.4), rng.normal()])
            npt.assert_allclose(phi.inverse(phi.forward(x)), x, atol=1e-9)

    def test_chart_inverse_outside_image(self, pendulum):
        with pytest.raises(OutsideChart):
            pendulum.transform.phi.inverse(np.array([0.0, 12500.0]))

    def test_linear_target_shape(self, pendulum):
        lms = pendulum.linear
        npt.assert_array_equal(lms.A, [[0.0, 1.0], [0.0, 0.0]])
        npt.assert_array_equal(lms.B, [[0.0], [1.0]])
        a_full, b_full = lms.stacked()
        npt.assert_array_equal(a_full, [[0, 0, 1, 0], [0, 0, 0, 1],
                                        [0, 1, 0, 0], [0, 0, 0, 0]])
        npt.assert_array_equal(b_full.ravel(), [0, 0, 0, 1])


def refused_without_warning(error, f, *args):
    """The exception f raises, under numpy warnings turned into errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            f(*args)
    return info.value


class TestBatchAware:
    """The pendulum's system and the rigid body's exp-chart system keep
    the stack contract: each of their callables, and apply_feedback and
    sode_field on the pendulum, acts row by row."""

    def stacks(self, rng, k=9):
        # in-chart points, both signs of each coordinate, one exact zero row
        x = np.column_stack([rng.uniform(-1.4, 1.4, k), rng.normal(size=k)])
        y = rng.normal(size=(k, 2)) * 3.0
        x[0] = y[0] = 0.0
        return x, y, rng.normal(size=(k, 1))

    def body_stack(self, rng, k=9):
        # exp-chart points up to pi - 0.15, one zero row and one on the
        # small-angle series (|xi| < 1e-4)
        xi = rng.normal(size=(k, 3))
        xi *= rng.uniform(0.05, np.pi - 0.15, size=(k, 1)) / np.linalg.norm(xi, axis=1)[:, None]
        xi[0] = 0.0
        xi[1] *= 1e-5
        return xi

    @pytest.mark.parametrize("name", ["gamma", "e", "g"])
    def test_system_callables(self, pendulum, rng, name):
        x, _, _ = self.stacks(rng)
        stack_rows_are_the_points(getattr(pendulum.system, name), x)

    @pytest.mark.parametrize("name", ["alpha", "beta", "gammaF"])
    def test_feedback_callables(self, pendulum, rng, name):
        x, _, _ = self.stacks(rng)
        stack_rows_are_the_points(getattr(pendulum.transform, name), x)

    def test_chart(self, pendulum, rng):
        phi = pendulum.transform.phi
        x, y, _ = self.stacks(rng)
        stack_rows_are_the_points(phi.forward, x)
        stack_rows_are_the_points(phi.inverse, phi.forward(x))
        stack_rows_are_the_points(phi.jacobian, x)
        stack_rows_are_the_points(phi.second_deriv, x, y, y[::-1])
        stack_rows_are_the_points(pendulum.transform.push_state, x, y)

    def test_feedback_and_field(self, pendulum, rng):
        x, y, ut = self.stacks(rng)
        stack_rows_are_the_points(lambda *a: apply_feedback(pendulum.transform, *a), x, y, ut)
        stack_rows_are_the_points(lambda *a: sode_field(pendulum.system, *a),
                                  np.concatenate([x, y], axis=1), ut)

    def test_leading_axes(self, pendulum, rng):
        # a (3, 3, 2) stack gives what its nine rows give as a (9, 2) stack
        x, y, ut = self.stacks(rng)
        t = pendulum.transform
        for f, args in [(t.phi.forward, (x,)), (t.phi.jacobian, (x,)),
                        (t.phi.second_deriv, (x, y, y)), (pendulum.system.e, (x,)),
                        (lambda *a: apply_feedback(t, *a), (x, y, ut))]:
            flat = np.asarray(f(*args))
            npt.assert_array_equal(np.asarray(f(*(a.reshape(3, 3, -1) for a in args))),
                                   flat.reshape((3, 3) + flat.shape[1:]))

    @pytest.mark.parametrize("name", ["gamma", "e", "g"])
    def test_rigid_body_system_callables(self, rigid_body, rng, name):
        stack_rows_are_the_points(getattr(rigid_body.exp_chart_system(), name),
                                  self.body_stack(rng))

    @pytest.mark.parametrize("name", ["alpha", "beta", "gammaF"])
    def test_rigid_body_feedback_callables(self, rigid_body, rng, name):
        stack_rows_are_the_points(getattr(rigid_body.bundle.transform, name),
                                  self.body_stack(rng))

    def test_rigid_body_leading_axes(self, rigid_body, rng):
        xi = self.body_stack(rng)
        sys3 = rigid_body.exp_chart_system()
        for f in (sys3.gamma, sys3.g, rigid_body.bundle.transform.gammaF):
            flat = f(xi)
            npt.assert_array_equal(f(xi.reshape(3, 3, 3)), flat.reshape((3, 3) + flat.shape[1:]))

    def test_chart_guard_refuses_one_offending_row(self, pendulum, rng):
        phi = pendulum.transform.phi
        x, _, _ = self.stacks(rng)
        z = phi.forward(x)
        z[4, 1] = 12500.0
        exc = refused_without_warning(OutsideChart, phi.inverse, z)
        assert str(exc) == str(refused_without_warning(OutsideChart, phi.inverse, z[4]))

    @pytest.mark.parametrize("name", ["beta", "gammaF"])
    def test_feedback_guard_refuses_one_offending_row(self, pendulum, rng, name):
        x, y, ut = self.stacks(rng)
        x[6, 0] = -np.pi / 2
        refused_without_warning(SingularFeedback, getattr(pendulum.transform, name), x)
        refused_without_warning(SingularFeedback, apply_feedback, pendulum.transform, x, y, ut)


class TestMfTransform:
    """The feedback derived from the system, the chart and the target."""

    def test_pendulum_feedback_is_the_published_one(self, pendulum, rng):
        # the published auxiliary control, inverted for u in closed form
        x = np.column_stack([rng.uniform(-1.4, 1.4, 200), rng.normal(size=200)])
        s, c = np.sin(x[:, 0]), np.cos(x[:, 0])
        t = pendulum.transform
        npt.assert_allclose(t.alpha(x)[:, 0], M0 * s, rtol=1e-15)
        npt.assert_allclose(t.beta(x)[:, 0, 0], -MD * J2 / (M0 * c), rtol=1e-15)
        gam = t.gammaF(x)
        npt.assert_allclose(gam[:, 0, 0, 0], -MD * s / c, rtol=1e-15)
        assert not gam.reshape(200, 4)[:, 1:].any()

    # sigma_min(Dphi g) = |Dphi g| falls to RANK_TOL |Dphi|_F |g|_F at |cos x1| = 1.98e-8
    @pytest.mark.parametrize("x1", [np.arccos(1e-9), -np.arccos(1e-9), np.arccos(1.9e-8),
                                    np.pi / 2, -np.pi / 2],
                             ids=["cos-1e-9", "minus-cos-1e-9", "cos-1.9e-8", "pi/2", "-pi/2"])
    def test_the_pendulum_guard_names_the_row_it_refuses(self, pendulum, rng, x1):
        x = np.column_stack([rng.uniform(-1.4, 1.4, 6), rng.normal(size=6)])
        x[3, 0] = x1
        y, ut = rng.normal(size=(6, 2)), rng.normal(size=(6, 1))
        t = pendulum.transform
        for f, args in [(t.alpha, (x,)), (t.beta, (x,)), (t.gammaF, (x,)),
                        (apply_feedback, (t, x, y, ut))]:
            exc = refused_without_warning(SingularFeedback, f, *args)
            assert str(exc).startswith(f"feedback singular at x = {x[3]}: "), f

    @pytest.mark.parametrize("cos", [1e-7, 2.1e-8])
    def test_the_pendulum_guard_passes_a_regular_row(self, pendulum, cos):
        x = np.array([[np.arccos(cos), 0.3], [-np.arccos(cos), -0.3]])
        npt.assert_allclose(pendulum.transform.beta(x)[:, 0, 0], -MD * J2 / (M0 * cos),
                            rtol=1e-6)

    @pytest.mark.parametrize("dim, A, B, sizes", [
        (3, np.zeros((2, 2)), np.array([[0.0], [1.0]]), "chart dim 3 / target (2, 1)"),
        (2, np.zeros((3, 3)), np.ones((3, 1)), "chart dim 2 / target (3, 1)"),
        (2, np.zeros((2, 2)), np.eye(2), "chart dim 2 / target (2, 2)"),
    ], ids=["chart-3", "target-3", "target-m-2"])
    def test_sizes_are_checked_at_construction(self, pendulum, dim, A, B, sizes):
        # a chart or a target of another size than the pendulum's (2, 1) is
        # refused here, not in numpy at the first evaluation
        with pytest.raises(DimensionMismatch) as info:
            MFTransform(pendulum.system, identity_diffeomorphism(dim),
                        LinearMechanicalSystem(A=A, B=B))
        assert str(info.value) == f"{sizes} do not match system (2, 1)"

    @pytest.mark.parametrize("shipped", [
        lambda monkeypatch: pendulum_system(),
        lambda monkeypatch: rigid_body_system(np.diag([1.0, 2.0, 3.0])).bundle,
        lambda monkeypatch: harmonic_order_bundle(monkeypatch),
    ], ids=["pendulum", "rigid-body-exp-chart", "cli-harmonic"])
    def test_a_shipped_bundle_derives_its_feedback_from_its_plant(self, shipped, monkeypatch):
        # the plant's own e, Gamma and g serve the feedback: another system
        # object would have them evaluated a second time on each call
        bundle = shipped(monkeypatch)
        assert bundle.transform.system is bundle.system

    @pytest.mark.parametrize("bundle", [
        lambda monkeypatch: pendulum_system(),
        lambda monkeypatch: flat_bundle(pendulum_system().linear),
        lambda monkeypatch: flat_bundle(LinearMechanicalSystem(A=-np.eye(3), B=np.eye(3)[:, :2])),
        lambda monkeypatch: harmonic_order_bundle(monkeypatch),
    ], ids=["pendulum", "flat-pendulum-target", "flat-3-2", "cli-harmonic"])
    def test_a_bundle_reads_its_target_from_its_feedback(self, bundle, monkeypatch):
        # the feedback holds the one target; the bundle has no copy to set apart
        bundle = bundle(monkeypatch)
        assert bundle.linear is bundle.transform.linear
        with pytest.raises(AttributeError):
            bundle.linear = bundle.linear
        with pytest.raises(ValueError, match="unexpected field names"):
            bundle._replace(linear=bundle.linear)

    def test_the_multi_input_guard_refuses_a_rank_deficient_row(self, rng):
        # the two control columns align where x1 = 0; elsewhere P = g^-1
        def g(x):
            out = np.zeros(x.shape + (2,))
            out[..., 0, :] = 1.0
            out[..., 1, 1] = x[..., 0]
            return out

        sys2 = MechanicalSystem(2, 2, gamma=lambda x: np.zeros((2, 2, 2)),
                                e=lambda x: np.zeros(2), g=g)
        t = MFTransform(sys2, identity_diffeomorphism(2),
                        LinearMechanicalSystem(A=np.zeros((2, 2)), B=np.eye(2)))
        x = rng.normal(size=(5, 2))
        npt.assert_allclose(t.beta(x) @ g(x), np.broadcast_to(np.eye(2), (5, 2, 2)),
                            rtol=0, atol=1e-12)
        x[2, 0] = 0.0
        exc = refused_without_warning(SingularFeedback, t.beta, x)
        assert str(exc).startswith(f"feedback singular at x = {x[2]}: ")


class TestLinearMechanicalSystem:
    @pytest.mark.parametrize("a, b, match", [
        ([[0.0, np.nan], [0.0, 0.0]], [[0.0], [1.0]], "^A contains NaN/Inf$"),
        ([[0.0, 1.0], [0.0, 0.0]], [[0.0], [np.inf]], "^B contains NaN/Inf$"),
    ], ids=["nan-A", "inf-B"])
    def test_refuses_non_finite_data(self, a, b, match):
        with pytest.raises(NonFinite, match=match):
            LinearMechanicalSystem(A=np.array(a), B=np.array(b))

    @pytest.mark.parametrize("a, b, match", [
        (np.zeros((2, 3)), np.zeros((2, 1)), r"^A must be a square matrix, got shape \(2, 3\)$"),
        (np.zeros((2, 2)), np.zeros((3, 1)), r"^B must have shape \(2, None\), got \(3, 1\)$"),
    ], ids=["non-square-A", "B-rows"])
    def test_refuses_mismatched_shapes(self, a, b, match):
        with pytest.raises(DimensionMismatch, match=match):
            LinearMechanicalSystem(A=a, B=b)

    def test_compared_and_hashed_by_identity(self):
        # equal arrays do not make equal targets, and a target is a dict key
        a, b = (LinearMechanicalSystem(A=np.zeros((2, 2)), B=np.ones((2, 1))) for _ in range(2))
        assert a == a and a != b and dataclasses.replace(a) != a
        assert hash(a) == hash(a) and len({a, b, a}) == 2

    @pytest.mark.parametrize("name", ["gamma", "e", "g"])
    def test_mechanical_view_is_batch_aware(self, rng, name):
        lms = LinearMechanicalSystem(A=np.array([[0.0, 1.0, 0.0], [-2.0, 0.0, 1.0],
                                                 [0.5, 0.0, -3.0]]), B=np.eye(3)[:, :2])
        sys = lms.as_mechanical_system()
        x = rng.normal(size=(9, 3))
        stack_rows_are_the_points(getattr(sys, name), x)
        npt.assert_array_equal(sys.e(x[0]), lms.A @ x[0])


class TestRigidBody:
    def test_equilibrium(self, rigid_body):
        rdot, omdot = rigid_body.derivative(np.eye(3), np.zeros(3), np.zeros(3))
        npt.assert_array_equal(rdot, np.zeros((3, 3)))
        npt.assert_array_equal(omdot, np.zeros(3))

    def test_derivative_is_pinned_bit_for_bit(self):
        # bytes recorded before the derivative read R through _entries
        body = rigid_body_system(np.diag([1.0, 2.0, 3.0]) + 0.1)
        r = so3_exp([0.4, -0.7, 1.1])
        for rotation in (r, r.r):
            rdot, omdot = body.derivative(rotation, [0.3, -1.2, 0.5], [0.2, 0.1, -0.4])
            assert rdot.tobytes().hex() == (
                "26cc91255f9deabf7ecd91130b99cdbf164033533fa3acbf6a78809ce003e1bf"
                "d4ef5e2effa0e0bfef90631144b3edbfa6ef60b38511eb3f0f9aca1f1f70c0bf"
                "a0524d18961aeabf")
            assert omdot.tobytes().hex() == (
                "8d891d00f4dfe43ffe3741817d03c53f119ec5b7575d94bf")

    def test_derivative_refuses_what_a_rotation_refuses(self, rigid_body):
        r = so3_exp([0.4, -0.7, 1.1])
        r.r[0, 0] = 5.0
        with pytest.raises(ValueError, match="orthogonality defect"):
            rigid_body.derivative(r, np.zeros(3), np.zeros(3))

    def test_torque_for_axis_aligned_spin(self, rigid_body):
        # cross-product oracle: Omega x J Omega vanishes on a principal axis
        omega = np.array([1.0, 0.0, 0.0])
        tau = rigid_body.torque_from_control(omega, np.zeros(3))
        npt.assert_allclose(tau, np.cross(omega, rigid_body.inertia @ omega),
                            atol=1e-15)
        npt.assert_array_equal(tau, np.zeros(3))

    def test_torque_control_round_trip(self, rigid_body, rng):
        for _ in range(20):
            omega, u = rng.normal(size=3), rng.normal(size=3)
            tau = rigid_body.torque_from_control(omega, u)
            npt.assert_allclose(rigid_body.control_from_torque(omega, tau), u,
                                atol=1e-12)

    def test_the_body_reads_its_target_from_its_bundle(self):
        # one exp-chart bundle per body, built once; the target has no second
        # copy on the body to set apart
        body = rigid_body_system(np.diag([1.0, 2.0, 3.0]))
        assert body.linear is body.bundle.transform.linear
        assert body.bundle.system is body.exp_chart_system() is body.bundle.transform.system
        with pytest.raises(AttributeError):
            body.linear = LinearMechanicalSystem(A=np.eye(3), B=np.eye(3))
        with pytest.raises(AttributeError):
            body.bundle = body.bundle

    def test_linear_target(self, rigid_body):
        a_full, b_full = rigid_body.linear.stacked()
        npt.assert_array_equal(a_full[:3, 3:], np.eye(3))
        npt.assert_array_equal(a_full[3:], np.zeros((3, 6)))
        npt.assert_array_equal(b_full[3:], np.eye(3))

    def test_inertia_validation(self):
        with pytest.raises(ValueError):
            rigid_body_system(np.diag([1.0, -2.0, 3.0]))
        with pytest.raises(DimensionMismatch):
            rigid_body_system(np.eye(2))

    def test_exp_chart_sode_matches_group_flow(self, rigid_body, rng):
        # oracle: second difference of the exp-chart coordinates along the
        # exact group flow computed by a high-order integrator
        from scipy.integrate import solve_ivp
        from mechlift import hat

        sys3 = rigid_body.exp_chart_system()
        xi = np.array([0.3, -0.7, 0.5])
        u = np.array([0.2, -0.1, 0.3])
        xidot = np.array([0.4, 0.1, -0.2])
        ydot = sode_field(sys3, np.concatenate([xi, xidot]), u)[3:]

        r0 = so3_exp(xi)
        # body velocity corresponding to the chart rate
        eps = 1e-7
        dr = (so3_exp(xi + eps * xidot).r - so3_exp(xi - eps * xidot).r) / (2 * eps)
        w = r0.r.T @ dr
        om0 = np.array([w[2, 1], w[0, 2], w[1, 0]])

        def rhs(t, st):
            r = st[:9].reshape(3, 3)
            om = st[9:]
            return np.concatenate([(r @ hat(om)).reshape(9), u])

        def xi_at(t):
            sol = solve_ivp(rhs, (0, t), np.concatenate([r0.r.reshape(9), om0]),
                            rtol=1e-12, atol=1e-12)
            from mechlift import Rotation
            return so3_log(Rotation(sol.y[:9, -1].reshape(3, 3)))

        dt = 1e-3
        oracle = (xi_at(dt) - 2 * xi + xi_at(-dt)) / dt**2
        npt.assert_allclose(ydot, oracle, atol=5e-6)

    def test_exp_chart_gamma_symmetric(self, rigid_body, rng):
        sys3 = rigid_body.exp_chart_system()
        for _ in range(5):
            xi = rng.normal(size=3) * 0.8
            G = sys3.gamma(xi)
            assert np.abs(G - G.transpose(0, 2, 1)).max() < 1e-12


class TestMFEquivalence:
    def test_pendulum_passes(self, pendulum, rng):
        samples = [(np.array([rng.uniform(-1.3, 1.3), rng.normal()]),
                    rng.normal(size=2), rng.normal(size=1)) for _ in range(100)]
        report = verify_mf_equivalence(pendulum.system, pendulum.transform, samples)
        assert report.passed
        assert report.max_defect < 1e-7

    def test_identity_transform_on_linear_system(self, rng):
        lms = LinearMechanicalSystem(A=np.array([[0.0, 1.0], [-2.0, 0.0]]),
                                     B=np.eye(2))
        sys, t = flat_bundle(lms)
        samples = [(rng.normal(size=2), rng.normal(size=2), rng.normal(size=2))
                   for _ in range(20)]
        report = verify_mf_equivalence(sys, t, samples)
        assert report.max_defect == 0.0

    def test_a_feedback_of_a_wrong_model_fails(self, pendulum, rng):
        # derived from a model whose drift is off by 0.01, the feedback no
        # longer linearizes the plant
        e = pendulum.system.e
        bad = dataclasses.replace(pendulum.transform,
                                  system=dataclasses.replace(pendulum.system,
                                                             e=lambda x: e(x) + 0.01))
        samples = [(np.array([rng.uniform(-1.0, 1.0), rng.normal()]),
                    rng.normal(size=2), rng.normal(size=1)) for _ in range(50)]
        report = verify_mf_equivalence(pendulum.system, bad, samples)
        assert not report.passed
        assert report.max_defect > 1e-3
        assert report.witness is not None

    def test_a_feedback_for_a_wrong_target_fails(self, pendulum, rng):
        # a feedback written for (3A, 2B): the pendulum's one control cannot
        # reach the first row, where the plant gives phi_2 = (m0/J2) sin x1
        # and the target 3 phi_2, so the defect is 2 (m0/J2) |sin x1|, first
        # largest at x1 = -1
        lin = pendulum.linear
        bad = dataclasses.replace(pendulum.transform,
                                  linear=LinearMechanicalSystem(A=3 * lin.A, B=2 * lin.B))
        samples = [(np.array([x1, 0.3]), rng.normal(size=2), rng.normal(size=1))
                   for x1 in np.linspace(-1.0, 1.0, 9)]
        report = verify_mf_equivalence(pendulum.system, bad, samples)
        assert not report.passed
        assert report.max_defect == pytest.approx(2 * M0 / J2 * np.sin(1.0), rel=1e-12)
        for got, want in zip(report.witness, samples[0]):
            npt.assert_array_equal(got, want)

    def test_rigid_body_exp_chart_passes(self, rigid_body, rng):
        sys3 = rigid_body.exp_chart_system()
        t3 = rigid_body.bundle.transform
        samples = []
        for _ in range(50):
            xi = rng.normal(size=3)
            xi *= rng.uniform(0.05, np.pi - 0.1) / np.linalg.norm(xi)
            samples.append((xi, rng.normal(size=3), rng.normal(size=3)))
        report = verify_mf_equivalence(sys3, t3, samples)
        assert report.passed
        assert report.max_defect < 1e-10

    def test_a_non_finite_defect_fails_at_its_sample(self, pendulum, rng):
        # the feedback's model has a NaN drift at sample 3 alone: the check
        # fails there, with that sample as its witness, not at the largest
        # finite defect
        samples = [(np.array([rng.uniform(-1.0, 1.0), rng.normal()]),
                    rng.normal(size=2), rng.normal(size=1)) for _ in range(8)]
        marked = samples[3][0][0]
        sys, t = pendulum.system, pendulum.transform
        model = dataclasses.replace(sys, e=lambda x: np.where(x[..., :1] == marked, np.nan,
                                                              sys.e(x)))
        bad = dataclasses.replace(t, system=model)
        report = verify_mf_equivalence(pendulum.system, bad, samples)
        assert np.isnan(report.max_defect)
        assert not report.passed
        for got, want in zip(report.witness, samples[3]):
            npt.assert_array_equal(got, want)

    def test_no_samples_is_refused(self, pendulum):
        with pytest.raises(ValueError, match="at least one sample"):
            verify_mf_equivalence(pendulum.system, pendulum.transform, [])

    def test_one_call_per_callable_on_the_sample_stack(self, pendulum, rng):
        shapes = {}

        def watch(name, f):
            def watched(x, *rest):
                shapes.setdefault(name, []).append(np.shape(x))
                return f(x, *rest)
            return watched

        sys, t = pendulum.system, pendulum.transform
        phi = t.phi
        chart = Diffeomorphism(2, *(watch(name, getattr(phi, name))
                                    for name in ("forward", "inverse", "jacobian", "second_deriv")))
        watched = MechanicalSystem(2, 1, *(watch(name, getattr(sys, name))
                                           for name in ("gamma", "e", "g")))
        report = verify_mf_equivalence(
            watched, MFTransform(watched, chart, pendulum.linear),
            [(np.array([x1, 0.2]), rng.normal(size=2), rng.normal(size=1))
             for x1 in np.linspace(-1.0, 1.0, 10)])
        assert report.passed
        assert shapes == {name: [(10, 2)] for name in (
            "gamma", "e", "g", "second_deriv", "jacobian", "forward")}
