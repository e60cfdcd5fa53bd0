import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import mechlift
from conftest import PARAMS, row_by_row
from mechlift import (
    DimensionMismatch,
    LinearMechanicalSystem,
    MechanicalSystem,
    NonFinite,
    WrongDimensions,
    check_general,
    check_planar,
    covariant_derivative,
    curvature_tensor,
    lie_bracket,
    second_covariant_derivative,
)

M0, MD = PARAMS["m0"], PARAMS["md"]


def pendulum_fields(pendulum):
    sys = pendulum.system
    g = lambda x: np.asarray(sys.g(x))[:, 0]
    e = lambda x: np.asarray(sys.e(x))
    ad = lambda x: lie_bracket(e, g, x)
    return sys, g, e, ad


def flat(n, gamma=None, e=None, g=None):
    return MechanicalSystem(
        n, 1,
        gamma=gamma or (lambda x: np.zeros((n, n, n))),
        e=e or (lambda x: np.zeros(x.shape)),
        g=g or (lambda x: np.ones((n, 1))),
    )


@pytest.fixture()
def checker_differences(monkeypatch):
    """The calls the checker makes to the central-difference Jacobian,
    one entry (the shape of the points) per call."""
    jac = mechlift.linearizability.numeric_jacobian
    calls = []

    def counting(f, x0, *args, **kwargs):
        calls.append(np.shape(x0))
        return jac(f, x0, *args, **kwargs)

    monkeypatch.setattr(mechlift.linearizability, "numeric_jacobian", counting)
    return calls


class TestLieBracket:
    def test_constant_fields(self, rng):
        c1, c2 = rng.normal(size=2), rng.normal(size=2)
        out = lie_bracket(lambda x: c1, lambda x: c2, rng.normal(size=2))
        assert np.abs(out).max() < 1e-9

    def test_a_shared_value_is_broadcast(self, rigid_body, rng):
        # the rigid body's drift is one zero vector for the whole stack
        x = rng.normal(size=3)
        out = lie_bracket(rigid_body.exp_chart_system().e, lambda p: p * p, x)
        npt.assert_allclose(out, np.zeros(3), atol=1e-12)

    def test_a_point_only_field_is_refused(self, rng):
        # at the (4, 2) probe stack it returns a (2, 2) value
        rotation = lambda p: np.array([p[1], -p[0]])
        with pytest.raises(DimensionMismatch, match=r"shape \(2, 2\) at points of shape \(4, 2\)"):
            lie_bracket(rotation, lambda p: p, rng.normal(size=2))

    def test_pendulum_drift_bracket_value(self, pendulum):
        # arithmetic oracle: (m0/md^2) cos(x1) in both slots, opposite signs
        _, g, e, ad = pendulum_fields(pendulum)
        expected = M0 / MD**2
        out = ad(np.zeros(2))
        npt.assert_allclose(out, [expected, -expected], rtol=1e-6)
        npt.assert_allclose(expected, 15960.0166, rtol=1e-7)

    def test_antisymmetry_on_polynomial_fields(self, rng):
        a, b = rng.normal(size=(2, 3, 3))
        f1 = lambda x: x @ a.T + (x[..., 0] * x[..., 1])[..., None] * np.ones(3)
        f2 = lambda x: x @ b.T + np.stack([x[..., 2] ** 2, x[..., 0], x[..., 1] * x[..., 2]],
                                          axis=-1)
        for _ in range(10):
            x = rng.normal(size=3)
            lhs = lie_bracket(f1, f2, x)
            rhs = lie_bracket(f2, f1, x)
            assert np.abs(lhs + rhs).max() < 1e-9 * (1 + np.abs(lhs).max())

    def test_bilinearity(self, rng):
        a, b = rng.normal(size=(2, 2, 2))
        f1 = lambda x: x @ a.T
        f2 = lambda x: x @ b.T + (x[..., 0] * x[..., 1])[..., None] * np.ones(2)
        x = rng.normal(size=2)
        combo = lambda x_: 2.0 * f1(x_) + 0.5 * f2(x_)
        g_ = lambda x_: np.stack([np.sin(x_[..., 0]), x_[..., 1]], axis=-1)
        lhs = lie_bracket(combo, g_, x)
        rhs = 2.0 * lie_bracket(f1, g_, x) + 0.5 * lie_bracket(f2, g_, x)
        assert np.abs(lhs - rhs).max() < 1e-7 * (1 + np.abs(rhs).max())


class TestCovariantDerivative:
    def test_pendulum_control_self_derivative_vanishes(self, pendulum):
        sys, g, _, _ = pendulum_fields(pendulum)
        out = covariant_derivative(sys, g, g, np.array([0.3, -0.5]))
        npt.assert_array_equal(out, np.zeros(2))

    def test_flat_directional_derivative(self, rng):
        a = rng.normal(size=(3, 3))
        c = rng.normal(size=3)
        sys = flat(3)
        out = covariant_derivative(sys, lambda x: c, lambda x: x @ a.T,
                                   rng.normal(size=3))
        npt.assert_allclose(out, a @ c, atol=1e-8)

    def test_torsion_free(self, rng):
        # both sides computed independently; symmetric connection
        def gamma(x):
            G = np.zeros(x.shape[:-1] + (2, 2, 2))
            G[..., 0, 0, 1] = G[..., 0, 1, 0] = np.sin(x[..., 0])
            G[..., 1, 1, 1] = x[..., 0] * x[..., 1]
            return G

        sys = flat(2, gamma=gamma)
        f1 = lambda x: np.stack([np.cos(x[..., 1]), x[..., 0] ** 2], axis=-1)
        f2 = lambda x: np.stack([x[..., 1], np.sin(x[..., 0])], axis=-1)
        for _ in range(10):
            x = rng.normal(size=2)
            lhs = (covariant_derivative(sys, f1, f2, x)
                   - covariant_derivative(sys, f2, f1, x))
            rhs = lie_bracket(f1, f2, x)
            assert np.abs(lhs - rhs).max() < 1e-7


class TestSecondCovariantDerivative:
    def test_pendulum_ordering_commutator_vanishes(self, pendulum):
        sys, g, _, ad = pendulum_fields(pendulum)
        for x1 in (0.0, 0.5, -0.5, 1.0, -1.0):
            x = np.array([x1, 0.0])
            d1 = second_covariant_derivative(sys, g, ad, ad, x)
            d2 = second_covariant_derivative(sys, ad, g, ad, x)
            scale = max(np.abs(d1).max(), np.abs(d2).max(), 1.0)
            assert np.abs(d1 - d2).max() < 1e-4 * scale

    def test_flat_constant_field(self, rng):
        sys = flat(2)
        c = rng.normal(size=2)
        out = second_covariant_derivative(sys, lambda x: c, lambda x: c,
                                          lambda x: np.array([1.0, -2.0]),
                                          rng.normal(size=2))
        assert np.abs(out).max() < 1e-9

    def test_flat_matches_nested_oracle(self, rng):
        # oracle: direct nested differencing of D(DZ . Y) . X - DZ . (DY . X)
        sys = flat(2)
        a = rng.normal(size=(2, 2))
        x_f = lambda p: np.stack([np.sin(p[..., 1]), p[..., 0]], axis=-1)
        y_f = lambda p: p @ a.T
        z_f = lambda p: np.stack([p[..., 0] ** 2 * p[..., 1], np.cos(p[..., 0])], axis=-1)

        def nested_oracle(p, s=1e-5):
            def dz_dot_y(q):
                dz = np.column_stack([
                    (z_f(q + s * e) - z_f(q - s * e)) / (2 * s) for e in np.eye(2)
                ])
                return dz @ y_f(q)

            xv = x_f(p)
            first = (dz_dot_y(p + s * xv) - dz_dot_y(p - s * xv)) / (2 * s)
            dy = np.column_stack([
                (y_f(p + s * e) - y_f(p - s * e)) / (2 * s) for e in np.eye(2)
            ])
            dz = np.column_stack([
                (z_f(p + s * e) - z_f(p - s * e)) / (2 * s) for e in np.eye(2)
            ])
            return first - dz @ (dy @ xv)

        for _ in range(5):
            p = rng.normal(size=2)
            mine = second_covariant_derivative(sys, x_f, y_f, z_f, p)
            npt.assert_allclose(mine, nested_oracle(p), atol=1e-5)


class TestCurvature:
    def test_flat_connection(self, rng):
        sys = flat(3)
        assert np.abs(curvature_tensor(sys, rng.normal(size=3))).max() == 0.0

    def test_last_pair_antisymmetry(self, rng):
        def gamma(x):
            G = np.zeros(x.shape[:-1] + (2, 2, 2))
            G[..., 0, 1, 1] = np.sin(x[..., 0]) * x[..., 1]
            G[..., 1, 0, 1] = G[..., 1, 1, 0] = np.cos(x[..., 0] * x[..., 1])
            G[..., 0, 0, 0] = x[..., 0] ** 2
            return G

        sys = flat(2, gamma=gamma)
        for _ in range(5):
            r = curvature_tensor(sys, rng.normal(size=2))
            assert np.abs(r + r.transpose(0, 1, 3, 2)).max() < 1e-9 * (1 + np.abs(r).max())

    def test_round_sphere_sectional_component(self):
        # symbolic-formula oracle for the unit round sphere:
        # R^1_212 = sin(x1)^2
        def gamma(x):
            G = np.zeros(x.shape[:-1] + (2, 2, 2))
            G[..., 0, 1, 1] = -np.sin(x[..., 0]) * np.cos(x[..., 0])
            G[..., 1, 0, 1] = G[..., 1, 1, 0] = 1.0 / np.tan(x[..., 0])
            return G

        sys = MechanicalSystem(2, 1, gamma=gamma, e=lambda x: np.zeros(x.shape),
                               g=lambda x: np.ones((2, 1)))
        r = curvature_tensor(sys, np.array([np.pi / 4, 0.3]))
        npt.assert_allclose(r[0, 1, 0, 1], 0.5, atol=1e-5)


class TestCheckPlanar:
    def test_pendulum_grid_passes(self, pendulum):
        samples = [np.array([x1, 0.0]) for x1 in np.linspace(-1.3, 1.3, 21)]
        report = check_planar(pendulum.system, samples)
        assert report.passed
        for name in ("MD1", "MD2", "MD3"):
            assert report[name].verdict == "pass"

    def test_degenerate_point_fails_with_witness(self, pendulum):
        samples = [np.array([x1, 0.0])
                   for x1 in np.linspace(-np.pi / 2, np.pi / 2, 21)]
        report = check_planar(pendulum.system, samples)
        assert not report.passed
        md1 = report["MD1"]
        assert md1.verdict == "fail"
        assert min(abs(abs(md1.witness[0]) - np.pi / 2), 0.1) < 1e-9

    def test_a_passed_membership_has_no_witness(self, pendulum):
        # next to the singular feedback at x1 = pi/2 the commutator blows
        # up, so MD3 passes on a rounding-level defect that is not zero
        samples = [np.array([x1, x1 / 2]) for x1 in np.linspace(-1.57, 1.57, 9)]
        report = check_planar(pendulum.system, samples)
        md3 = report["MD3"]
        assert md3.verdict == "pass" and md3.defect > 0.0
        assert md3.witness is None and report["MD2"].witness is None
        assert not any("witness=" in line for line in report.summary_lines())

    def test_double_integrator_passes(self):
        lms = LinearMechanicalSystem(A=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                     B=np.array([[0.0], [1.0]]))
        samples = [np.array([x, 0.3]) for x in np.linspace(-1, 1, 11)]
        report = check_planar(lms.as_mechanical_system(), samples)
        assert report.passed

    def test_wrong_dimensions(self, rigid_body):
        with pytest.raises(WrongDimensions):
            check_planar(rigid_body.exp_chart_system(), [np.zeros(3)])

    def test_each_field_is_differentiated_once(self, pendulum, checker_differences):
        # Dg, De and D(ad_e g) on the samples, the last through two calls
        # on its probes; one along each of g and ad_e g for the connection;
        # and two for ad_e g at the probes the two mixed second derivatives
        # share
        samples = [np.array([x1, 0.0]) for x1 in np.linspace(-1.3, 1.3, 21)]
        check_planar(pendulum.system, samples)
        assert len(checker_differences) == 9
        assert checker_differences[:3] == [(21, 2)] * 3


class TestRefusedSamples:
    @pytest.mark.parametrize("check", [check_planar, check_general])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_sample_is_named_before_any_field_runs(self, pendulum, check, bad):
        evaluated = []

        def record(f):
            def g(x):
                evaluated.append(f)
                return f(x)
            return g

        sys = pendulum.system
        watched = MechanicalSystem(sys.n, sys.m, record(sys.gamma), record(sys.e),
                                   record(sys.g))
        samples = [np.array([0.1, 0.0]), np.array([0.2, 0.0]), np.array([0.3, bad])]
        with pytest.raises(NonFinite, match="sample 2 contains NaN/Inf"):
            check(watched, samples)
        assert evaluated == []


    @pytest.mark.parametrize("check", [check_planar, check_general])
    def test_a_sample_of_another_size_is_named_before_any_field_runs(self, pendulum, check):
        # ragged samples get the package's error, not numpy's
        sys = pendulum.system
        ran = []
        watched = MechanicalSystem(sys.n, sys.m, lambda x: ran.append(x) or sys.gamma(x),
                                   lambda x: ran.append(x) or sys.e(x),
                                   lambda x: ran.append(x) or sys.g(x))
        with pytest.raises(DimensionMismatch, match=r"sample 1 must be a 2-vector, got shape \(3,\)"):
            check(watched, [np.zeros(2), np.zeros(3)])
        assert ran == []


def inverse_square_connection():
    """Gamma^0_11 = 1/|x|^2, e = (x2, 0), g = (0, 1): Gamma is infinite at 0."""
    def gamma(x):
        G = np.zeros(x.shape[:-1] + (2, 2, 2))
        with np.errstate(divide="ignore"):
            G[..., 0, 1, 1] = 1.0 / (x * x).sum(axis=-1)
        return G

    return MechanicalSystem(2, 1, gamma=gamma,
                            e=lambda x: np.stack([x[..., 1], 0.0 * x[..., 0]], axis=-1),
                            g=lambda x: np.array([[0.0], [1.0]]))


class TestNonFiniteTensors:
    """A NaN/Inf curvature or covariant derivative of g raises, rather than
    reading as no defect and hiding another sample's failure."""

    def test_a_finite_sample_fails_ml3_and_ml4(self):
        report = check_general(inverse_square_connection(), [np.array([0.5, 0.1])])
        for name, defect in (("ML3", 14.79), ("ML4", 3.85)):
            assert report[name].verdict == "fail", name
            assert report[name].defect == pytest.approx(defect, abs=0.01), name

    def test_an_infinite_connection_on_the_grid_raises(self):
        with pytest.raises(NonFinite, match="curvature tensor returned NaN/Inf"):
            check_general(inverse_square_connection(), [np.zeros(2), np.array([0.5, 0.1])])

    def test_curvature_tensor_refuses_a_non_finite_value(self):
        with pytest.raises(NonFinite, match="curvature tensor returned NaN/Inf"):
            curvature_tensor(inverse_square_connection(), np.zeros((2, 2)))

    @pytest.mark.parametrize("call, match", [
        (lambda f, x: lie_bracket(f, np.cos, x), "^lie bracket evaluation returned NaN/Inf$"),
        (lambda f, x: covariant_derivative(flat(2), f, np.cos, x),
         "^covariant derivative returned NaN/Inf$"),
        (lambda f, x: second_covariant_derivative(flat(2), f, np.cos, np.sin, x),
         "^second covariant derivative returned NaN/Inf$"),
    ], ids=["lie_bracket", "covariant_derivative", "second_covariant_derivative"])
    def test_a_field_that_is_nan_at_the_point_raises(self, call, match):
        # NaN at x alone: every difference probe around x is finite, so the
        # NaN enters through the field's value and the result is what is refused
        x = np.array([0.5, 0.1])

        def nan_at_x(p):
            return np.where((p == x).all(axis=-1, keepdims=True), np.nan, p)

        with pytest.raises(NonFinite, match=match):
            call(nan_at_x, x)

    def test_an_overflowing_covariant_derivative_of_g_raises(self):
        # a finite curvature, but Gamma g overflows in nabla g
        def gamma(x):
            G = np.zeros(x.shape[:-1] + (2, 2, 2))
            G[..., 0, 1, 1] = 10.0
            return G

        sys = MechanicalSystem(2, 1, gamma=gamma,
                               e=lambda x: np.stack([x[..., 1], 0.0 * x[..., 0]], axis=-1),
                               g=lambda x: np.array([[0.0], [1e308]]))
        with pytest.raises(NonFinite, match="covariant derivative of a control field"):
            check_general(sys, [np.array([0.5, 0.1])])


class TestCheckGeneral:
    def test_pendulum_passes(self, pendulum):
        samples = [np.array([x1, 0.0]) for x1 in np.linspace(-1.3, 1.3, 21)]
        report = check_general(pendulum.system, samples)
        assert report.passed

    def test_rigid_body_exp_chart_passes(self, rigid_body, rng):
        samples = []
        for _ in range(13):
            xi = rng.normal(size=3)
            xi *= rng.uniform(0.05, np.pi - 0.15) / np.linalg.norm(xi)
            samples.append(xi)
        report = check_general(rigid_body.exp_chart_system(), samples)
        assert report.passed

    def test_linear_system_passes(self, rng):
        lms = LinearMechanicalSystem(
            A=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -2.0, -3.0]]),
            B=np.array([[0.0], [0.0], [1.0]]),
        )
        samples = [rng.normal(size=3) for _ in range(8)]
        report = check_general(lms.as_mechanical_system(), samples)
        assert report.passed

    def test_each_field_is_differentiated_once(self, rigid_body, checker_differences):
        # e and the whole 3 x 3 g once each; every bracket is read from
        # those two Jacobians (the exp chart has full rank, so ML3-ML5
        # have no point to run on)
        samples = [np.array([0.3, -0.2, 0.5]) * s for s in np.linspace(0.5, 4.0, 13)]
        assert check_general(rigid_body.exp_chart_system(), samples).passed
        assert checker_differences == [(13, 3)] * 2

    def test_each_drift_probe_is_evaluated_once(self):
        # ML5 runs on every point of the round sphere's grid: the drift at
        # the 5 samples, at the 20 probes of its Jacobian, and at 16 probes
        # a point for its mixed second derivatives, where the pairs (j, k)
        # and (k, j) share theirs and x itself stands for the u - v probes
        # of a pair j = k
        sphere, points = round_sphere(), []

        def drift(x):
            points.extend(map(tuple, np.reshape(x, (-1, 2))))
            return sphere.e(x)

        samples = [np.array([x1, 0.3]) for x1 in np.linspace(0.4, 1.2, 5)]
        report = check_general(dataclasses.replace(sphere, e=drift), samples)
        assert report["ML5"].verdict == "fail"
        assert len(points) == len(set(points)) == 5 + 20 + 5 * 16

    def test_rank_change_detected(self, pendulum):
        samples = [np.array([x1, 0.0])
                   for x1 in (-1.0, 0.0, 1.0, np.pi / 2)]
        report = check_general(pendulum.system, samples)
        assert report["ML1"].verdict == "fail"
        assert report["ML1"].witness is not None


# ---------------------------------------------------------------------------
# the stacked checks and their row-by-row reference
# ---------------------------------------------------------------------------

def both_paths(check, sys, samples):
    """The reports of ``check`` on ``sys`` and on its twin that evaluates
    each callable one row at a time, checked to agree: the same verdicts
    and witnesses, defects within 1e-12."""
    report, other = (check(s, samples) for s in (sys, row_by_row(sys)))
    for a, b in zip(report.conditions, other.conditions):
        assert (a.name, a.verdict, a.tol) == (b.name, b.verdict, b.tol)
        assert a.defect == b.defect or abs(a.defect - b.defect) <= 1e-12
        assert (a.witness is None) == (b.witness is None)
        if a.witness is not None:
            npt.assert_array_equal(a.witness, b.witness)
    return report


def round_sphere(e=lambda x: np.stack([np.sin(x[..., 0]), 0.0 * x[..., 0]], axis=-1)):
    """The unit round sphere's connection, g = (1, 0)."""
    def gamma(x):
        x1 = x[..., 0]
        G = np.zeros(x.shape[:-1] + (2, 2, 2))
        G[..., 0, 1, 1] = -np.sin(x1) * np.cos(x1)
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = 1.0 / np.tan(x1)
        return G

    return MechanicalSystem(2, 1, gamma=gamma, e=e, g=lambda x: np.array([[1.0], [0.0]]))


def bent_control():
    """Gamma = 0, e = (0, x1), g = (1, x1): nabla_g g leaves span(g)."""
    def g(x):
        x1 = x[..., 0]
        return np.stack([1.0 + 0.0 * x1, x1], axis=-1)[..., None]

    return MechanicalSystem(2, 1, gamma=lambda x: np.zeros((2, 2, 2)),
                            e=lambda x: np.stack([0.0 * x[..., 0], x[..., 0]], axis=-1),
                            g=g)


class TestStackedEvaluation:
    def test_pendulum_grids(self, pendulum, rng):
        inner = [np.array([x1, rng.uniform(-1.0, 1.0)])
                 for x1 in np.sort(rng.uniform(-1.3, 1.3, 21))]
        for check in (check_planar, check_general):
            assert both_paths(check, pendulum.system, inner).passed

    def test_rigid_body_grid(self, rigid_body, rng):
        samples = []
        for _ in range(13):
            xi = rng.normal(size=3)
            samples.append(xi * rng.uniform(0.05, np.pi - 0.15) / np.linalg.norm(xi))
        assert both_paths(check_general, rigid_body.exp_chart_system(), samples).passed

    def test_primitives_on_a_stack_are_their_one_point_calls(self, rng):
        sys = round_sphere()
        xs = np.column_stack([rng.uniform(0.4, 1.2, 6), rng.normal(size=6)])
        e = lambda x: sys.e(x)
        g = lambda x: np.broadcast_to(sys.g(x)[:, 0], x.shape)
        ad = lambda x: lie_bracket(e, g, x)
        stacked = [lie_bracket(e, g, xs), covariant_derivative(sys, ad, e, xs),
                   second_covariant_derivative(sys, g, ad, e, xs), curvature_tensor(sys, xs)]
        for i, x in enumerate(xs):
            points = [lie_bracket(e, g, x), covariant_derivative(sys, ad, e, x),
                      second_covariant_derivative(sys, g, ad, e, x), curvature_tensor(sys, x)]
            for row, point in zip(stacked, points):
                assert row[i].tobytes() == point.tobytes()

    def test_empty_grid(self):
        # refused before any callable runs: an empty grid has no point at
        # which a condition could fail
        def unreachable(x):
            raise AssertionError("a callable ran on an empty grid")
        sys = MechanicalSystem(2, 1, gamma=unreachable, e=unreachable, g=unreachable)
        for check in (check_planar, check_general):
            with pytest.raises(ValueError, match="at least one sample"):
                check(sys, [])


def bracket_control():
    """Gamma = 0, e = 0, g1 = (1, 0, 0), g2 = (0, 1, x1): [g1, g2] =
    (0, 0, 1) leaves span(g1, g2)."""
    def g(x):
        x1 = x[..., 0]
        zero, one = 0.0 * x1, 1.0 + 0.0 * x1
        return np.stack([np.stack([one, zero], axis=-1), np.stack([zero, one], axis=-1),
                         np.stack([zero, x1], axis=-1)], axis=-2)

    return MechanicalSystem(3, 2, gamma=lambda x: np.zeros((3, 3, 3)),
                            e=lambda x: np.zeros(x.shape), g=g)


def tanh_control():
    """Gamma = 0, e = sin(x), g = tanh(x B) as a 3 x 2 matrix: generic
    fields, so the rank margins read the last bits of the drift
    brackets, and [g_1, g_2] leaves span(g_1, g_2)."""
    b = np.array([[0.9, -0.4, 0.3, 1.1, -0.7, 0.2], [0.5, 0.8, -1.2, 0.1, 0.6, -0.3],
                  [-0.2, 0.4, 0.7, -0.9, 0.3, 1.0]])

    def g(x):
        # x B entry by entry, so that a stack's rows are its points' values
        xb = x[..., 0, None] * b[0] + x[..., 1, None] * b[1] + x[..., 2, None] * b[2]
        return np.tanh(xb).reshape(x.shape[:-1] + (3, 2))

    return MechanicalSystem(3, 2, gamma=lambda x: np.zeros((3, 3, 3)), e=np.sin, g=g)


class TestFaultsStayDetected:
    """Known non-linearizable systems fail the conditions they break, on
    stacks and row by row."""

    def test_round_sphere_fails_ml3_ml4_ml5(self):
        samples = [np.array([x1, 0.3]) for x1 in np.linspace(0.4, 1.2, 5)]
        report = both_paths(check_general, round_sphere(), samples)
        for name in ("ML3", "ML4", "ML5"):
            assert report[name].verdict == "fail", name
            assert report[name].witness is not None

    def test_bent_control_fails_md2(self):
        samples = [np.array([x1, 0.3]) for x1 in np.linspace(-1.0, 1.0, 11)]
        report = both_paths(check_planar, bent_control(), samples)
        assert report["MD2"].verdict == "fail"
        assert report["MD2"].witness is not None

    def test_crossing_grid_fails_md1_near_pi_half(self, pendulum):
        samples = [np.array([x1, 0.0]) for x1 in np.linspace(-np.pi / 2, np.pi / 2, 21)]
        md1 = both_paths(check_planar, pendulum.system, samples)["MD1"]
        assert md1.verdict == "fail"
        assert abs(abs(md1.witness[0]) - np.pi / 2) < 1e-3


# Every condition of each control above: (name, verdict, defect, index
# of the witness in the samples or None, tol), as a point-by-point
# evaluation (one SVD and one lstsq per point) gives them.  Defects read
# off singular values (MD1, ML1, ML2) are pinned bit for bit; projection
# defects to 1e-12 relative, as a stacked projection rounds differently.
CROSSING = [np.array([x1, 0.0]) for x1 in np.linspace(-np.pi / 2, np.pi / 2, 21)]
RANK_CHANGE = [np.array([x1, 0.0]) for x1 in (-1.0, 0.0, 1.0, np.pi / 2)]
BENT = [np.array([x1, 0.3]) for x1 in np.linspace(-1.0, 1.0, 11)]
SPHERE = [np.array([x1, 0.3]) for x1 in np.linspace(0.4, 1.2, 5)]
BRACKET = [np.array([x1, 0.2, -0.1]) for x1 in np.linspace(-1.0, 1.0, 7)]
TANH = [np.array([x1, 0.4, -0.3]) for x1 in np.linspace(-1.0, 1.0, 7)]
WEAK = [np.array([x1, 0.3]) for x1 in np.linspace(-1.0, 1.0, 5)]
PINNED = {
    "crossing-MD1": (check_planar, lambda p: p.system, CROSSING, [
        ("MD1", "fail", 0.0, 0, 1e-8), ("MD2", "pass", 0.0, None, 1e-6),
        ("MD3", "pass", 0.0, None, 1e-6)]),
    "bent-MD2": (check_planar, lambda p: bent_control(), BENT, [
        ("MD1", "pass", 0.38196601124553475, None, 1e-8), ("MD2", "fail", 1.0, 5, 1e-6),
        ("MD3", "pass", 0.0, None, 1e-6)]),
    "rank-change-ML1": (check_general, lambda p: p.system, RANK_CHANGE, [
        ("ML1", "fail", 0.2517828289548124, 0, 1e-8), ("ML2", "pass", 0.0, None, 1e-8),
        ("ML3", "pass", 0.0, None, 1e-6), ("ML4", "pass", 0.0, None, 1e-6),
        ("ML5", "fail", 77.69503943693186, 3, 7.820408164962196e-05)]),
    "sphere-ML3-ML5": (check_general, lambda p: round_sphere(), SPHERE, [
        ("ML1", "pass", 1.0, None, 1e-8), ("ML2", "pass", 0.0, None, 1e-8),
        ("ML3", "fail", 1.0000000001004392, 1, 1.0000000001004392e-06),
        ("ML4", "fail", 2.3652224200391103, 0, 2.3652224200391103e-06),
        ("ML5", "fail", 0.9320390911680705, 4, 1e-6)]),
    "bracket-ML2": (check_general, lambda p: bracket_control(), BRACKET, [
        ("ML1", "pass", 0.7071067811865475, None, 1e-8), ("ML2", "fail", 1.0, 3, 1e-8),
        ("ML3", "pass", 0.0, None, 1e-6), ("ML4", "fail", 1.0, 3, 1e-6),
        ("ML5", "pass", 0.0, None, 1e-6)]),
    "tanh-ML2-ML4": (check_general, lambda p: tanh_control(), TANH, [
        ("ML1", "pass", 0.03557291727081771, None, 1e-8),
        ("ML2", "fail", 0.15451771359186978, 0, 1e-8),
        ("ML3", "pass", 0.0, None, 1e-6), ("ML4", "fail", 0.87509076879964, 6, 1e-6),
        ("ML5", "pass", 0.0, None, 1e-6)]),
    # a double integrator whose drift couples by 5e-8: g and ad_e g are
    # independent at every sample, by a margin within 10x RANK_TOL
    "weak-coupling-ML1": (check_general, lambda p: LinearMechanicalSystem(
        A=np.array([[0.0, 5e-8], [0.0, 0.0]]), B=np.array([[0.0], [1.0]])).as_mechanical_system(),
        WEAK, [("ML1", "inconclusive", 4.999999999939495e-08, 0, 1e-8),
               ("ML2", "pass", 0.0, None, 1e-8), ("ML3", "pass", 0.0, None, 1e-6),
               ("ML4", "pass", 0.0, None, 1e-6), ("ML5", "pass", 0.0, None, 1e-6)]),
}


@pytest.mark.parametrize("control", PINNED)
def test_controls_keep_their_pinned_reports(pendulum, control):
    check, system, samples, expected = PINNED[control]
    report = both_paths(check, system(pendulum), samples)
    assert [c.name for c in report.conditions] == [e[0] for e in expected]
    for c, (name, verdict, defect, witness, tol) in zip(report.conditions, expected):
        assert c.verdict == verdict, name
        if name in ("MD1", "ML1", "ML2"):
            assert c.defect == defect and c.tol == tol, name
        else:
            assert c.defect == pytest.approx(defect, rel=1e-12, abs=1e-12), name
            assert c.tol == pytest.approx(tol, rel=1e-12), name
        if witness is None:
            assert c.witness is None, name
        else:
            assert c.witness.tobytes() == samples[witness].tobytes(), name


def test_a_report_refuses_an_unknown_condition_name(pendulum):
    report = check_planar(pendulum.system, [np.array([0.1, 0.0])])
    assert report["MD2"] is report.conditions[1]
    with pytest.raises(KeyError, match="ML9"):
        report["ML9"]


def test_ml2_with_zero_control_fields_has_a_finite_defect():
    # g = 0 with m = 2: every singular value of [g, [g_1, g_2]] is 0, and
    # the bracket adds no rank to the (empty) control span
    sys = MechanicalSystem(2, 2, gamma=lambda x: np.zeros((2, 2, 2)),
                           e=lambda x: np.stack([np.sin(x[..., 0]), 0.0 * x[..., 0]], axis=-1),
                           g=lambda x: np.zeros((2, 2)))
    samples = [np.array([x1, 0.0]) for x1 in np.linspace(-1.0, 1.0, 5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ml2 = check_general(sys, samples)["ML2"]
    assert ml2.defect == 0.0
    assert ml2.verdict == "pass"
