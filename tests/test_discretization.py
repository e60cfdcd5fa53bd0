import hashlib
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

import mechlift
from mechlift import (
    AxiomReport,
    Diffeomorphism,
    DimensionMismatch,
    DiscretizationMap,
    NonFinite,
    OutsideChart,
    identity_diffeomorphism,
    lift_by_diffeo,
    make_explicit_euler,
    make_implicit_euler,
    make_midpoint,
    pendulum_system,
    tangent_lift,
    tangent_map,
    verify_axioms,
)

from conftest import stack_rows_are_the_points

BUILDERS = (make_explicit_euler, make_implicit_euler, make_midpoint)
PHI = pendulum_system().transform.phi
# the six theta-family maps: each built-in and its tangent lift, on the 2-chart
THETA_MAPS = [lambda b=b: b(2) for b in BUILDERS] + [lambda b=b: tangent_lift(b(2))
                                                      for b in BUILDERS]
THETA_IDS = [b.__name__[5:] for b in BUILDERS] + [b.__name__[5:] + "+tangent" for b in BUILDERS]
# the maps outside the family: each built-in through the pendulum chart, and
# the tangent lift of that
CHART_MAPS = [lambda b=b: lift_by_diffeo(b(2), PHI) for b in BUILDERS] + [
    lambda b=b: tangent_lift(lift_by_diffeo(b(2), PHI)) for b in BUILDERS]
CHART_IDS = [b.__name__[5:] + "+pendulum-chart" for b in BUILDERS] + [
    b.__name__[5:] + "+pendulum-chart+tangent" for b in BUILDERS]
# charts whose second derivative is given, and one whose is a central difference
CHARTS = {
    "pendulum": PHI,
    "identity": identity_diffeomorphism(2),
    "no-second": Diffeomorphism(2, PHI.forward, PHI.inverse, PHI.jacobian),
}


def chart_points(rng, count, n=2, lim=1.2):
    # samples inside the pendulum chart (|x1| < pi/2)
    return [np.concatenate([[rng.uniform(-lim, lim)], rng.uniform(-1.5, 1.5, n - 1)])
            for _ in range(count)]


def samples_for(dmap, rng, count):
    """Samples of every scale for a theta-family map, and points inside
    the pendulum chart, with velocities of every sign, for any other."""
    if dmap.theta is not None:
        return [rng.normal(size=dmap.dim) * 10.0 ** rng.uniform(-3, 3) for _ in range(count)]
    return [np.concatenate([x, rng.normal(size=dmap.dim - 2)]) for x in chart_points(rng, count)]


class TestBuiltins:
    def test_explicit_euler_forward(self):
        m = make_explicit_euler(2)
        a, b = m.forward(np.array([1.0, 1.0]), np.array([2.0, 3.0]))
        npt.assert_array_equal(a, [1.0, 1.0])
        npt.assert_array_equal(b, [3.0, 4.0])

    def test_explicit_euler_inverse(self):
        m = make_explicit_euler(2)
        x, v = m.inverse(np.array([1.0, 1.0]), np.array([3.0, 4.0]))
        npt.assert_array_equal(x, [1.0, 1.0])
        npt.assert_array_equal(v, [2.0, 3.0])

    def test_implicit_euler_forward(self):
        m = make_implicit_euler(1)
        a, b = m.forward(np.array([0.0]), np.array([1.0]))
        npt.assert_array_equal(a, [-1.0])
        npt.assert_array_equal(b, [0.0])

    def test_midpoint_forward(self):
        m = make_midpoint(1)
        a, b = m.forward(np.array([0.0]), np.array([2.0]))
        npt.assert_array_equal(a, [-1.0])
        npt.assert_array_equal(b, [1.0])

    def test_midpoint_inverse(self):
        # solve x - v/2 = 0, x + v/2 = 1 by hand: x = 0.5, v = 1
        m = make_midpoint(1)
        x, v = m.inverse(np.array([0.0]), np.array([1.0]))
        npt.assert_allclose(x, [0.5])
        npt.assert_allclose(v, [1.0])

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_zero_velocity_doubles_the_point(self, builder, rng):
        m = builder(3)
        for _ in range(10):
            x = rng.normal(size=3)
            a, b = m.forward(x, np.zeros(3))
            npt.assert_allclose(a, x, atol=1e-15)
            npt.assert_allclose(b, x, atol=1e-15)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_round_trip(self, builder, rng):
        m = builder(2)
        for _ in range(10):
            x, v = rng.normal(size=2), rng.normal(size=2)
            a, b = m.forward(x, v)
            x2, v2 = m.inverse(a, b)
            npt.assert_allclose(x2, x, atol=1e-14)
            npt.assert_allclose(v2, v, atol=1e-14)


def test_an_unknown_kind_is_refused():
    midpoint = make_midpoint(2)
    with pytest.raises(ValueError, match="unknown kind 'rk4'"):
        DiscretizationMap(2, "rk4", midpoint.forward, midpoint.inverse, midpoint.jacobian)


class TestVerifyAxioms:
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_builtins_pass(self, builder, rng):
        report = verify_axioms(builder(2), [rng.normal(size=2) for _ in range(10)])
        assert report.passed

    def test_bad_map_fails_second_axiom(self, rng):
        bad = DiscretizationMap(
            2, "explicit-euler",
            forward=lambda x, v: (x.copy(), x + 2.0 * v),
            inverse=lambda a, b: (a.copy(), (b - a) / 2.0),
            jacobian=lambda x, v: np.block([[np.eye(2), np.zeros((2, 2))],
                                            [np.eye(2), 2.0 * np.eye(2)]]),
        )
        report = verify_axioms(bad, [rng.normal(size=2) for _ in range(5)])
        assert not report.passed
        # velocity derivative of (second - first) is 2 I, defect about 1
        npt.assert_allclose(report.worst_jacobian, 1.0, atol=1e-6)
        assert report.worst_zero < 1e-10
        assert len(report.failures()) == 5

    @pytest.mark.parametrize("make", THETA_MAPS + CHART_MAPS, ids=THETA_IDS + CHART_IDS)
    def test_stacked_check_is_the_per_point_one(self, make, rng):
        # the one pass over the stack gives each sample the defects it
        # gets when checked alone
        dmap = make()
        samples = samples_for(dmap, rng, 30)
        stacked = verify_axioms(dmap, samples)
        alone = [verify_axioms(dmap, [x]) for x in samples]
        for name in ("zero_defects", "jacobian_defects"):
            each = np.hstack([getattr(report, name) for report in alone])
            assert getattr(stacked, name).tobytes() == each.tobytes()

    @pytest.mark.parametrize("make", THETA_MAPS, ids=THETA_IDS)
    def test_a_theta_map_takes_one_central_difference(self, make, rng, monkeypatch):
        calls = []
        jacobian = mechlift.discretization.numeric_jacobian
        monkeypatch.setattr(mechlift.discretization, "numeric_jacobian",
                            lambda *args: calls.append(args) or jacobian(*args))
        dmap = make()
        verify_axioms(dmap, samples_for(dmap, rng, 7))
        assert len(calls) == 1

    @pytest.mark.parametrize("make", CHART_MAPS, ids=CHART_IDS)
    def test_a_chart_lifted_map_takes_one_central_difference(self, make, rng, monkeypatch):
        self.test_a_theta_map_takes_one_central_difference(make, rng, monkeypatch)

    @pytest.mark.parametrize("sample", [np.zeros(3), np.zeros((1, 2)), np.float64(0.0)],
                             ids=["3-vector", "row", "scalar"])
    def test_refuses_a_sample_of_another_shape(self, sample):
        samples = [np.zeros(2), np.ones(2), sample]
        with pytest.raises(DimensionMismatch, match="sample 2 must be a 2-vector"):
            verify_axioms(make_midpoint(2), samples)

    def test_refuses_no_samples(self):
        with pytest.raises(ValueError, match="at least one sample"):
            verify_axioms(make_midpoint(2), [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_a_non_finite_sample_by_its_index_before_the_map_runs(self, bad):
        calls = []
        midpoint = make_midpoint(2)
        watched = DiscretizationMap(2, "midpoint",
                                    lambda x, v: calls.append(x) or midpoint.forward(x, v),
                                    midpoint.inverse, midpoint.jacobian)
        with pytest.raises(NonFinite, match="sample 1 contains NaN/Inf"):
            verify_axioms(watched, [np.zeros(2), np.array([0.0, bad]), np.ones(2)])
        assert calls == []

    @pytest.mark.parametrize("zero, jac", [
        ([0.0, np.nan, 0.0], [0.0, 0.0, 0.0]),
        ([0.0, 0.0, 0.0], [0.0, 0.0, np.nan]),
        ([0.0, 0.0, 0.0], [0.0, 1e-6, 0.0]),
    ], ids=["nan-zero-defect", "nan-jacobian-defect", "at-the-bound"])
    def test_passed_is_false_exactly_when_a_sample_fails(self, zero, jac):
        # a NaN defect fails its sample, so the report cannot fail with no
        # failing sample to name
        points = [np.zeros(2), np.ones(2), np.full(2, 2.0)]
        report = AxiomReport("midpoint", points, np.array(zero), np.array(jac))
        bad = [i for i in range(3) if not (zero[i] < 1e-10 and jac[i] < 1e-6)]
        assert not report.passed
        assert [p.tobytes() for p in report.failures()] == [points[i].tobytes() for i in bad]
        clean = AxiomReport("midpoint", points, np.zeros(3), np.zeros(3))
        assert clean.passed and clean.failures() == []


class TestLiftByDiffeo:
    def test_identity_lift_matches_base(self, rng):
        base = make_midpoint(2)
        lifted = lift_by_diffeo(base, identity_diffeomorphism(2))
        for _ in range(10):
            x, v = rng.normal(size=2), rng.normal(size=2)
            for got, want in zip(lifted.forward(x, v), base.forward(x, v)):
                npt.assert_allclose(got, want, atol=1e-14)
            for got, want in zip(lifted.inverse(x, x + v), base.inverse(x, x + v)):
                npt.assert_allclose(got, want, atol=1e-14)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_commutation_with_chart_change(self, builder, pendulum, rng):
        # both routes evaluated independently: push the lifted pair vs
        # apply the base map to the pushed tangent vector
        phi = pendulum.transform.phi
        base = builder(2)
        lifted = lift_by_diffeo(base, phi)
        worst = 0.0
        for x in chart_points(rng, 100, lim=1.0):
            v = rng.normal(size=2) * 0.02
            a, b = lifted.forward(x, v)
            lhs = np.concatenate([phi.forward(a), phi.forward(b)])
            rhs = np.concatenate(base.forward(phi.forward(x), phi.jacobian(x) @ v))
            worst = max(worst, np.abs(lhs - rhs).max())
        assert worst < 1e-9

    def test_lifted_map_passes_axioms(self, pendulum, rng):
        lifted = lift_by_diffeo(make_midpoint(2), pendulum.transform.phi)
        report = verify_axioms(lifted, chart_points(rng, 20))
        assert report.passed

    def test_a_chart_of_another_dimension_is_refused(self, pendulum):
        with pytest.raises(DimensionMismatch, match="map dimension 3 != diffeomorphism dimension 2"):
            lift_by_diffeo(make_midpoint(3), pendulum.transform.phi)

    def test_outside_chart_propagates(self, pendulum):
        lifted = lift_by_diffeo(make_explicit_euler(2), pendulum.transform.phi)
        # a velocity large enough to push the second point past the fold, at a
        # point and in the second row of a stack
        x, v = np.array([[0.3, 0.0], [1.4, 0.0]]), np.array([[0.01, 0.0], [4.0, 0.0]])
        for args in ((x[1], v[1]), (x, v)):
            with pytest.raises(OutsideChart, match=r"\|sin x1\| = 1\.\d{6} > 1"):
                lifted.forward(*args)


class TestTangentLift:
    def test_midpoint_lift_formula(self, rng):
        lifted = tangent_lift(make_midpoint(2))
        for _ in range(10):
            x, xd, y, yd = rng.normal(size=(4, 2))
            a, b = lifted.forward(np.concatenate([x, xd]), np.concatenate([y, yd]))
            npt.assert_allclose(a, np.concatenate([x - y / 2, xd - yd / 2]), atol=1e-15)
            npt.assert_allclose(b, np.concatenate([x + y / 2, xd + yd / 2]), atol=1e-15)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_zero_vector_doubles_the_tangent_point(self, builder, rng):
        lifted = tangent_lift(builder(2))
        s = rng.normal(size=4)
        a, b = lifted.forward(s, np.zeros(4))
        npt.assert_allclose(a, s, atol=1e-15)
        npt.assert_allclose(b, s, atol=1e-15)

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_lift_passes_axioms(self, builder, rng):
        report = verify_axioms(tangent_lift(builder(2)),
                               [rng.normal(size=4) for _ in range(10)])
        assert report.passed

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_jacobian_of_a_non_affine_lift(self, builder, rng):
        # a chart-transported map is outside the theta family, so its
        # lift's Jacobian is a central difference of the lift; through the
        # identity chart it must match the plain lift's exact Jacobian
        plain = tangent_lift(builder(2))
        lifted = tangent_lift(lift_by_diffeo(builder(2), identity_diffeomorphism(2)))
        for _ in range(5):
            s, w = rng.normal(size=4), rng.normal(size=4)
            npt.assert_allclose(lifted.jacobian(s, w), plain.jacobian(s, w), atol=1e-8)


class TestTangentMap:
    def test_identity(self, rng):
        tphi = tangent_map(identity_diffeomorphism(3))
        xv = rng.normal(size=6)
        npt.assert_allclose(tphi.forward(xv), xv, atol=1e-15)
        npt.assert_allclose(tphi.jacobian(xv), np.eye(6), atol=1e-15)

    def test_linear_map_has_no_curvature_term(self, rng):
        a = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        phi = Diffeomorphism(
            2, lambda x: x @ a.T, lambda z: np.linalg.solve(a, z[..., None])[..., 0],
            jac=lambda x: a,
        )
        tphi = tangent_map(phi)
        x, v = rng.normal(size=2), rng.normal(size=2)
        out = tphi.forward(np.concatenate([x, v]))
        npt.assert_allclose(out, np.concatenate([a @ x, a @ v]), atol=1e-12)
        jac = tphi.jacobian(np.concatenate([x, v]))
        npt.assert_allclose(jac[2:, :2], np.zeros((2, 2)), atol=1e-9)

    def test_pendulum_velocity_push(self, pendulum):
        from conftest import PARAMS

        c1 = (PARAMS["md"] + PARAMS["J2"]) / PARAMS["J2"]
        c2 = PARAMS["m0"] / PARAMS["J2"]
        assert c1 == 154.125 and c2 == 11975.0
        tphi = tangent_map(pendulum.transform.phi)
        out = tphi.forward(np.array([np.pi / 6, 0.0, 1.0, 0.0]))
        npt.assert_allclose(out[2:], [c1, c2 * np.cos(np.pi / 6)], rtol=1e-12)


class TestLiftInteraction:
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_lift_orders_commute(self, builder, pendulum, rng):
        # tangent lift of the chart-lifted map == chart lift (through the
        # tangent map) of the tangent-lifted map, pointwise
        phi = pendulum.transform.phi
        base = builder(2)
        route_a = tangent_lift(lift_by_diffeo(base, phi))
        route_b = lift_by_diffeo(tangent_lift(base), tangent_map(phi))
        worst = 0.0
        for _ in range(100):
            s = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                          rng.normal() * 0.5, rng.normal() * 0.5])
            w = rng.normal(size=4) * 0.1
            a0, a1 = route_a.forward(s, w)
            b0, b1 = route_b.forward(s, w)
            worst = max(worst, np.abs(a0 - b0).max(), np.abs(a1 - b1).max())
        assert worst < 1e-8

    def test_lift_orders_agree_on_a_chart_with_a_differenced_second_derivative(self):
        # both orders push with the same central differences of Dphi, so they
        # agree to rounding, not to the differences' truncation
        s, w = commutation_samples()
        chart = CHARTS["no-second"]
        base = make_midpoint(2)
        a = tangent_lift(lift_by_diffeo(base, chart)).forward(s, w)
        b = lift_by_diffeo(tangent_lift(base), tangent_map(chart)).forward(s, w)
        assert max(np.abs(p - q).max() for p, q in zip(a, b)) < 1e-12

    def test_pushforward_identity(self, pendulum, rng):
        # pushing the chart-lifted tangent map through T(phi) x T(phi)
        # reproduces the plain tangent lift at the image point
        phi = pendulum.transform.phi
        base = make_midpoint(2)
        lifted = tangent_lift(lift_by_diffeo(base, phi))
        plain = tangent_lift(base)
        tphi = tangent_map(phi)
        ttphi = tangent_map(tphi)
        worst = 0.0
        for _ in range(100):
            s = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                          rng.normal() * 0.5, rng.normal() * 0.5])
            w = rng.normal(size=4) * 0.1
            a, b = lifted.forward(s, w)
            lhs = np.concatenate([tphi.forward(a), tphi.forward(b)])
            img = ttphi.forward(np.concatenate([s, w]))
            rhs = np.concatenate(plain.forward(img[:4], img[4:]))
            worst = max(worst, np.abs(lhs - rhs).max())
        assert worst < 1e-8

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_inverse_of_forward_all_lifts(self, builder, pendulum, rng):
        phi = pendulum.transform.phi
        maps_and_points = [
            (builder(2), lambda: (rng.normal(size=2), rng.normal(size=2))),
            (tangent_lift(builder(2)),
             lambda: (rng.normal(size=4), rng.normal(size=4))),
            (lift_by_diffeo(builder(2), phi),
             lambda: (chart_points(rng, 1, lim=1.0)[0], rng.normal(size=2) * 0.02)),
            (tangent_lift(lift_by_diffeo(builder(2), phi)),
             lambda: (np.concatenate([chart_points(rng, 1, lim=1.0)[0],
                                      rng.normal(size=2) * 0.3]),
                      rng.normal(size=4) * 0.02)),
        ]
        for dmap, sample in maps_and_points:
            for _ in range(10):
                x, v = sample()
                a, b = dmap.forward(x, v)
                x2, v2 = dmap.inverse(a, b)
                assert np.abs(x2 - x).max() < 1e-8
                assert np.abs(v2 - v).max() < 1e-8


class TestStacks:
    """Every construction on a chart acts row by row on stacks: on a
    (k, n) stack it gives, bit for bit, its calls on the k rows."""

    @pytest.mark.parametrize("chart", CHARTS.values(), ids=CHARTS.keys())
    def test_tangent_map(self, chart, rng):
        tphi = tangent_map(chart)
        xv = np.hstack([np.array(chart_points(rng, 20)), rng.normal(size=(20, 2))])
        stack_rows_are_the_points(tphi.forward, xv)
        stack_rows_are_the_points(tphi.inverse, tphi.forward(xv))
        stack_rows_are_the_points(tphi.jacobian, xv)

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("chart", CHARTS.values(), ids=CHARTS.keys())
    @pytest.mark.parametrize("tangent", [False, True], ids=["lifted", "lifted+tangent"])
    def test_chart_lifted_map(self, builder, chart, tangent, rng):
        dmap = lift_by_diffeo(builder(2), chart)
        if tangent:
            dmap = tangent_lift(dmap)
        x = np.array(samples_for(dmap, rng, 20))
        v = rng.normal(size=x.shape) * 0.02
        stack_rows_are_the_points(lambda *a: np.hstack(dmap.forward(*a)), x, v)
        stack_rows_are_the_points(lambda *a: np.hstack(dmap.inverse(*a)), *dmap.forward(x, v))
        stack_rows_are_the_points(dmap.jacobian, x, v)

    @pytest.mark.parametrize("chart", CHARTS.values(), ids=CHARTS.keys())
    def test_second_derivative_broadcasts(self, chart, rng):
        x, u, v = np.array(chart_points(rng, 5)), np.eye(2), rng.normal(size=(5, 2))
        assert chart.second_deriv(x, v, v).shape == (5, 2)
        # the n directions of u meet every point of the stack
        both = chart.second_deriv(x[:, None], u, v[:, None])
        assert both.shape == (5, 2, 2)
        for j in range(2):
            npt.assert_array_equal(both[:, j], chart.second_deriv(x, u[j], v))

    @pytest.mark.parametrize("chart", CHARTS.values(), ids=CHARTS.keys())
    def test_second_derivative_at_a_listed_point(self, chart):
        npt.assert_array_equal(chart.second_deriv([0.3, 0.1], [1.0, 0.0], [0.5, 2.0]),
                               chart.second_deriv(np.array([0.3, 0.1]), np.array([1.0, 0.0]),
                                                  np.array([0.5, 2.0])))

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0])
    def test_a_central_difference_second_derivative_steps_along_unit_directions(self, scale,
                                                                                rng):
        # the differences are taken along each e_j, so the error does not grow
        # with the size of the vectors it acts on
        x, (u, v) = np.array(chart_points(rng, 20)), rng.normal(size=(2, 20, 2)) * scale
        exact = PHI.second_deriv(x, u, v)
        got = CHARTS["no-second"].second_deriv(x, u, v)
        assert np.abs(got - exact).max() <= 1e-8 * np.abs(exact).max()


def commutation_samples():
    """100 (s, w) pairs on the pendulum chart's tangent bundle, seed 19."""
    rng = np.random.default_rng(19)
    s = np.column_stack([rng.uniform(-1.0, 1.0, (100, 2)), rng.normal(size=(100, 2)) * 0.5])
    return s, rng.normal(size=(100, 4)) * 0.1


def commutation_routes(builder=make_midpoint):
    """The two lift orders of a built-in map (midpoint unless given) through
    the pendulum chart."""
    base = builder(2)
    return {"tangent-of-chart": tangent_lift(lift_by_diffeo(base, PHI)),
            "chart-of-tangent": lift_by_diffeo(tangent_lift(base), tangent_map(PHI))}


# each route's forward at the first sample, and the SHA-256 of its 100
# forwards (both outputs side by side, one row per sample) on the samples;
# both routes push one tangent vector through the same stages, and on the
# midpoint map they agree bit for bit
PINNED_ROUTES = {
    route: (
        [-0.14473305522650787, 0.9041596018938627, -0.3818481894118972, -0.03361761752741445,
         -0.17378565410191701, 0.8045414197057461, -0.34390610696554147, -0.06546823857868504],
        "407fd48b82f20a168eda805bdee6b061cfdd23f42b0e4bcb39cb1fa58f89f3f8")
    for route in ("tangent-of-chart", "chart-of-tangent")
}


def digest(*arrays):
    """SHA-256 of the arrays' bytes, one after the other."""
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


# SHA-256 of a chart-lifted map's inverse of (x, x + v) and its Jacobian at
# (x, v), at the first sample and then on the stack of all 100, with (x, v)
# the samples' first two coordinates
PINNED_LIFTS = {
    ("explicit_euler", "pendulum"):
        "f21befa9d0d6d8e3bfb630276d96d8a26e173b209fe4f62db588d1d285508780",
    ("explicit_euler", "identity"):
        "80dde8f50d964e3acf88b003675c276436415e965aa7b88f7a4ebd7c6eead4b4",
    ("implicit_euler", "pendulum"):
        "db4f3643edea50916aee987e8972317e57fb0fad9f3496dd99deef5e0da223f5",
    ("implicit_euler", "identity"):
        "c922601a648b1c1dbd6f90540182d2b6090df1e6357196f7790645f6bb65a26c",
    ("midpoint", "pendulum"):
        "a189eedf36ea5ccdf7a530cf01d42932957c3d042471fe28b44390814a33b62d",
    ("midpoint", "identity"):
        "855d29641b3d366449e28f088d599034ab2d0c2a535d96d72b02333a9ae151f2",
}
# SHA-256 of each route's inverse of (s, s + w), at the first sample and then
# on the stack of all 100
PINNED_ROUTE_INVERSES = {
    ("explicit_euler", "tangent-of-chart"):
        "00cf7b80682b7e456a4b75f5a0836be1921ae3ac93e62c6e92da35c00f3f0ee1",
    ("explicit_euler", "chart-of-tangent"):
        "4feaf0bbcadba079da141a0debefe6c5c8f84e1ffd7510ba5758a1dc8074e5b3",
    ("implicit_euler", "tangent-of-chart"):
        "6c8160713e72e60072bf4ddaa2f6b235ea615460549bb8a1190ff472cbed2940",
    ("implicit_euler", "chart-of-tangent"):
        "309d00ff1134a664105ad8eb22eb10b735063e420bc73f243a85cc4b0ec54d9b",
    ("midpoint", "tangent-of-chart"):
        "7bf7b38a35f64e891dd6b5f179aa6c6505e6aadfc0680a9c4d7afe1609ec7c3f",
    ("midpoint", "chart-of-tangent"):
        "ddf57beaf68ade9ed658cf214ee96d9810290099000ca4f5d875c5bbe2202295",
}


class TestJointEvaluation:
    """A chart-lifted map pushes a tangent vector through phi(x) and Dphi(x),
    the base map and one pull-back of both ends, and evaluates its chart once
    per stage on the stacked ends."""

    def test_the_tangent_of_a_chart_lift_calls_the_chart_five_times(self, chart_calls):
        route = commutation_routes()["tangent-of-chart"]
        s, w = commutation_samples()
        route.forward(s[0], w[0])
        # the tangent map's push, with phi(x), Dphi(x) and D2phi(x); and the
        # pull-back of both outputs and both halves of the pushed vector, one
        # phi inverse and one Dphi on the stacked ends
        assert Counter(chart_calls) == {"forward": 1, "jacobian": 2, "second_deriv": 1,
                                        "inverse": 1}

    def test_a_chart_lift_through_a_tangent_map_pulls_both_ends_back_at_once(self,
                                                                           chart_calls):
        route = commutation_routes()["chart-of-tangent"]
        s, w = commutation_samples()
        route.forward(s[0], w[0])
        # the tangent map's push, with phi(x), one Dphi(x) and D2phi(x); and
        # one pull-back of both outputs through the tangent map, with phi's
        # inverse and Jacobian inside it
        assert Counter(chart_calls) == {"forward": 1, "jacobian": 2, "second_deriv": 1,
                                        "inverse": 2}

    @pytest.mark.parametrize("route", PINNED_ROUTES)
    def test_the_routes_keep_their_values(self, route):
        dmap = commutation_routes()[route]
        s, w = commutation_samples()
        first, digest = PINNED_ROUTES[route]
        assert np.hstack(dmap.forward(s[0], w[0])).tolist() == first
        stacked = np.hstack(dmap.forward(s, w))
        each = np.array([np.hstack(dmap.forward(a, b)) for a, b in zip(s, w)])
        assert hashlib.sha256(stacked.tobytes()).hexdigest() == digest
        assert hashlib.sha256(each.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("builder, chart", PINNED_LIFTS)
    def test_a_chart_lift_keeps_its_inverse_and_jacobian(self, builder, chart):
        dmap = lift_by_diffeo(getattr(mechlift, "make_" + builder)(2), CHARTS[chart])
        s, w = commutation_samples()
        x, v = s[:, :2], w[:, :2]
        outputs = [out for a, b in ((x[0], v[0]), (x, v))
                   for out in (*dmap.inverse(a, a + b), dmap.jacobian(a, b))]
        assert digest(*outputs) == PINNED_LIFTS[builder, chart]

    @pytest.mark.parametrize("builder, route", PINNED_ROUTE_INVERSES)
    def test_the_routes_keep_their_inverses(self, builder, route):
        dmap = commutation_routes(getattr(mechlift, "make_" + builder))[route]
        s, w = commutation_samples()
        outputs = [*dmap.inverse(s[0], s[0] + w[0]), *dmap.inverse(s, s + w)]
        assert digest(*outputs) == PINNED_ROUTE_INVERSES[builder, route]


def pushed_maps(builder, chart):
    """A chart lift of a theta map, and a chart lift of that."""
    lifted = lift_by_diffeo(builder(2), chart)
    return lifted, lift_by_diffeo(lifted, identity_diffeomorphism(2))


def push_shapes(rng):
    """(x, v) on one point, on a (100, 2) stack and on a (2, 50, 2) stack."""
    x = np.array(chart_points(rng, 100, lim=1.0))
    v = rng.normal(size=x.shape) * 0.02
    return [(x[0], v[0]), (x, v), (x.reshape(2, 50, 2), v.reshape(2, 50, 2))]


def relative_defect(got, want, axes):
    """The largest |got - want| of each point, over the largest |want| there."""
    return (np.abs(got - want).max(axis=axes) / np.abs(want).max(axis=axes)).max()


class TestPush:
    """A map's push (x0, x1, J(x, v) t) is its forward map and its Jacobian
    applied to t, with no Jacobian built on a chart lift."""

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("chart", ["pendulum", "identity"])
    def test_the_push_of_the_identity_is_the_jacobian(self, builder, chart, rng):
        for dmap in pushed_maps(builder, CHARTS[chart]):
            for x, v in push_shapes(rng):
                # the four directions e_j at every point, on a new axis
                eye = np.broadcast_to(np.eye(4), x.shape[:-1] + (4, 4))
                pushed = dmap._push(x[..., None, :], v[..., None, :], eye)[2]
                jac = dmap.jacobian(x, v)
                assert relative_defect(np.swapaxes(pushed, -1, -2), jac, (-2, -1)) <= 1e-15

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("chart", ["pendulum", "identity"])
    def test_the_ends_of_a_push_are_the_forward_map(self, builder, chart, rng):
        for dmap in pushed_maps(builder, CHARTS[chart]):
            for x, v in push_shapes(rng):
                t = rng.normal(size=x.shape[:-1] + (4,))
                ends = dmap._push(x, v, t)[:2]
                assert [a.tobytes() for a in ends] == [a.tobytes() for a in dmap.forward(x, v)]

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("chart", ["pendulum", "identity"])
    def test_a_push_is_the_jacobian_applied(self, builder, chart, rng):
        for dmap in pushed_maps(builder, CHARTS[chart]):
            for x, v in push_shapes(rng):
                t = rng.normal(size=x.shape[:-1] + (4,))
                want = (dmap.jacobian(x, v) @ t[..., None])[..., 0]
                got = dmap._push(x, v, t)[2]
                assert got.shape == want.shape
                assert relative_defect(got, want, -1) <= 1e-13
