import numpy as np
import numpy.testing as npt
import pytest

from mechlift import (
    Diffeomorphism,
    DiscretizationMap,
    OutsideChart,
    identity_diffeomorphism,
    lift_by_diffeo,
    make_explicit_euler,
    make_implicit_euler,
    make_midpoint,
    tangent_lift,
    tangent_map,
    verify_axioms,
)

BUILDERS = (make_explicit_euler, make_implicit_euler, make_midpoint)


def chart_points(rng, count, n=2, lim=1.2):
    # samples inside the pendulum chart (|x1| < pi/2)
    return [np.concatenate([[rng.uniform(-lim, lim)], rng.uniform(-1.5, 1.5, n - 1)])
            for _ in range(count)]


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

    def test_outside_chart_propagates(self, pendulum):
        lifted = lift_by_diffeo(make_explicit_euler(2), pendulum.transform.phi)
        # a velocity large enough to push the second point past the fold
        with pytest.raises(OutsideChart):
            lifted.forward(np.array([1.4, 0.0]), np.array([4.0, 0.0]))


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
            2, lambda x: a @ x, lambda z: np.linalg.solve(a, z),
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
