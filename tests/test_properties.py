"""Property tests over generated inputs, derandomized so every run draws
the same examples: the map axioms, the lift-order commutation and the
chart lifts on stacks against the same lifts row by row on the pendulum
chart, the closed form of the built-in maps' tangent lift against its
structural derivation, the orbit's one-step update against the one
Newton probes, the pendulum's closed loop under each built-in map
against that map's exact linear update and its orbit pass on stacks
against the same pass row by row, the rigid body's derived feedback
against the rates matrix, the rotation logarithm around its pi guard
band, and the attitude loop
against a re-run of it on scipy's matrix exponential."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechlift import (
    AngleAtPi,
    MechliftError,
    OutsideChart,
    fl_discretize,
    lift_by_diffeo,
    linear_one_step,
    make_explicit_euler,
    make_implicit_euler,
    make_midpoint,
    numeric_jacobian,
    pendulum_system,
    pole_place,
    rigid_body_system,
    so3_closed_loop_step,
    so3_exp,
    so3_log,
    tangent_lift,
    tangent_map,
    theta_update_matrix,
    verify_axioms,
)
from conftest import flat_bundle, row_by_row, stack_rows_are_the_points
from mechlift.mechanics import _rotation_rates_matrix

BUILDERS = (make_explicit_euler, make_implicit_euler, make_midpoint)
PENDULUM = pendulum_system()
BODY = rigid_body_system(np.diag([1.0, 2.0, 3.0]))
PHI = PENDULUM.transform.phi
DERANDOMIZED = settings(derandomize=True, max_examples=50, deadline=None)


def floats(bound):
    return st.floats(-bound, bound)


# in-chart pendulum configurations, |x1| <= 1.2 < pi/2
chart_points = st.tuples(floats(1.2), floats(1.5)).map(np.array)
axes = (st.tuples(floats(1.0), floats(1.0), floats(1.0))
        .map(np.array).filter(lambda a: np.linalg.norm(a) > 0.1)
        .map(lambda a: a / np.linalg.norm(a)))


@pytest.mark.parametrize("builder", BUILDERS)
@DERANDOMIZED
@given(x=chart_points)
def test_chart_lifted_map_axioms(builder, x):
    report = verify_axioms(lift_by_diffeo(builder(2), PHI), [x])
    assert report.worst_zero < 1e-10
    assert report.worst_jacobian < 1e-6


@pytest.mark.parametrize("builder", BUILDERS)
@DERANDOMIZED
@given(x=chart_points, xdot=st.tuples(floats(1.0), floats(1.0)),
       w=st.tuples(*[floats(0.1)] * 4))
def test_lift_orders_commute(builder, x, xdot, w):
    base = builder(2)
    route_a = tangent_lift(lift_by_diffeo(base, PHI))
    route_b = lift_by_diffeo(tangent_lift(base), tangent_map(PHI))
    s, w = np.concatenate([x, xdot]), np.array(w)
    for a, b in zip(route_a.forward(s, w), route_b.forward(s, w)):
        assert np.abs(a - b).max() < 1e-8


@pytest.mark.parametrize("builder", BUILDERS)
@DERANDOMIZED
@given(rows=st.lists(st.tuples(chart_points, st.tuples(floats(1.0), floats(1.0)),
                               st.tuples(*[floats(0.1)] * 4)), min_size=1, max_size=6))
def test_chart_lifts_act_row_by_row(builder, rows):
    # on a stack of tangent points, the chart-lifted map, its tangent lift
    # and the tangent map give, bit for bit, their calls row by row
    s = np.array([np.concatenate([x, xdot]) for x, xdot, _ in rows])
    w = np.array([w for *_, w in rows])
    lifted = lift_by_diffeo(builder(2), PHI)
    for dmap, x, v in ((lifted, s[:, :2], w[:, :2]), (tangent_lift(lifted), s, w)):
        stack_rows_are_the_points(lambda *a: np.hstack(dmap.forward(*a)), x, v)
        stack_rows_are_the_points(lambda *a: np.hstack(dmap.inverse(*a)), *dmap.forward(x, v))
        stack_rows_are_the_points(dmap.jacobian, x, v)
    tphi = tangent_map(PHI)
    for f in (tphi.forward, tphi.jacobian):
        stack_rows_are_the_points(f, s)
    stack_rows_are_the_points(tphi.inverse, tphi.forward(s))


# The built-in maps written out one by one, as (x, v) -> (x0, x1), its
# inverse, and the 2x2 block pattern of its constant Jacobian.
WRITTEN_OUT = {
    "explicit-euler": (lambda x, v: (x, x + v), lambda a, b: (a, b - a),
                       [[1.0, 0.0], [1.0, 1.0]]),
    "implicit-euler": (lambda x, v: (x - v, x), lambda a, b: (b, b - a),
                       [[1.0, -1.0], [1.0, 0.0]]),
    "midpoint": (lambda x, v: (x - v / 2.0, x + v / 2.0),
                 lambda a, b: ((a + b) / 2.0, b - a),
                 [[1.0, -0.5], [1.0, 0.5]]),
}


def structural_lift(kind, n):
    """Forward and inverse of the tangent lift derived from the base map:
    the base map on (x, y), its Jacobian on (xdot, ydot), and the inverse
    of that Jacobian for the inverse."""
    fwd, inv, pattern = WRITTEN_OUT[kind]
    jb = np.kron(pattern, np.eye(n))
    jb_inv = np.linalg.inv(jb)

    def forward(s, w):
        a, b = fwd(s[:n], w[:n])
        t = jb @ np.concatenate([s[n:], w[n:]])
        return np.concatenate([a, t[:n]]), np.concatenate([b, t[n:]])

    def inverse(s0, s1):
        x, y = inv(s0[:n], s1[:n])
        sol = jb_inv @ np.concatenate([s0[n:], s1[n:]])
        return np.concatenate([x, sol[:n]]), np.concatenate([y, sol[n:]])

    return jb, forward, inverse


# signed zeros on purpose; subnormals are left out, since there the
# family's (1 - theta) x0 + theta x1 and the written-out (x0 + x1) / 2
# of the midpoint round differently (by one subnormal unit)
entries = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-1e6, 1e6, allow_subnormal=False))
packed = st.lists(entries, min_size=8, max_size=8).map(np.array)


@pytest.mark.parametrize("builder", BUILDERS)
@DERANDOMIZED
@given(s=packed, w=packed, n=st.sampled_from([1, 2]))
def test_tangent_lift_is_its_structural_derivation(builder, s, w, n):
    base = builder(n)
    lifted = tangent_lift(base)
    assert lifted.kind == "tangent-lift"
    _, forward, inverse = structural_lift(base.kind, n)
    s, w = s[:2 * n], w[:2 * n]
    for got, want in zip(lifted.forward(s, w) + lifted.inverse(s, w),
                         forward(s, w) + inverse(s, w)):
        npt.assert_array_equal(got, want)
    fwd, inv, _ = WRITTEN_OUT[base.kind]
    for got, want in zip(base.forward(s[:n], w[:n]) + base.inverse(s[:n], w[:n]),
                         fwd(s[:n], w[:n]) + inv(s[:n], w[:n])):
        npt.assert_array_equal(got, want)


# the pendulum's linear target as a system of its own: one-step calls
# probe the update
FLAT = flat_bundle(PENDULUM.linear)


@pytest.mark.parametrize("builder", BUILDERS)
@DERANDOMIZED
@given(h=st.floats(1e-3, 0.5), closed_loop=st.booleans())
def test_orbit_update_is_the_probed_one_step_update(builder, h, closed_loop):
    # one-step fl_discretize calls from each unit state (and, in open loop,
    # under a unit utilde) are certified, and their states are the columns
    # of the (M, N) that linear_one_step probes with Newton solves
    gains = pole_place(PENDULUM.linear, [-1.0, -2.0, -3.0, -4.0]) if closed_loop else None
    M, N, _ = linear_one_step(PENDULUM.linear, builder(2), h, gains=gains)
    control = {"gains": gains} if closed_loop else {"utilde": np.zeros(1)}
    probes = [fl_discretize(FLAT, builder(2), e, h, 1, **control) for e in np.eye(4)]
    want = [M]
    if not closed_loop:
        probes.append(fl_discretize(FLAT, builder(2), np.zeros(4), h, 1, utilde=np.ones(1)))
        want.append(N)
    for traj in probes:
        npt.assert_array_equal(traj.iterations, 0)
    got = np.column_stack([traj.states[1] for traj in probes])
    want = np.hstack(want)
    npt.assert_allclose(got, want, rtol=0, atol=1e-10 * (1.0 + np.abs(want).max()))


@pytest.mark.parametrize("builder", BUILDERS)
@settings(derandomize=True, max_examples=36, deadline=None)
@given(s0=st.tuples(floats(1.2), floats(1.0), floats(5.0), floats(100.0)).map(np.array),
       h=st.floats(0.002, 0.1))
def test_theta_loop_is_its_linear_update_or_exits_the_chart(builder, s0, h):
    # every step maps s_k onto the map's exact linear update pulled back
    # through the chart, or the loop raises OutsideChart in the first step
    # whose exact orbit leaves the chart image
    gains = pole_place(PENDULUM.linear, [-10.0, -20.0, -30.0, -40.0])
    a, b = PENDULUM.linear.stacked()
    base = builder(2)
    one_step = theta_update_matrix(a - b @ gains, h, base.theta)
    tphi = tangent_map(PHI)
    z, exit_step = tphi.forward(s0), None
    for k in range(30):
        z = one_step @ z
        try:
            PHI.inverse(z[:2])
        except OutsideChart:
            exit_step = k
            break
    try:
        traj = fl_discretize(PENDULUM, base, s0, h, 30, gains=gains)
    except OutsideChart as exc:
        assert exc.step == exit_step
        return
    assert exit_step is None
    for s, s_next in zip(traj.states[:-1], traj.states[1:]):
        assert np.abs(s_next - tphi.inverse(one_step @ tphi.forward(s))).max() < 1e-8


@pytest.mark.parametrize("builder", BUILDERS)
@settings(derandomize=True, max_examples=36, deadline=None)
@given(s0=st.tuples(floats(1.2), floats(1.0), floats(5.0), floats(100.0)).map(np.array),
       h=st.floats(0.002, 0.1))
def test_orbit_pass_is_the_per_step_path(builder, s0, h):
    # the pendulum bundle certifies the whole orbit on stacks; its twin
    # evaluates every callable one row at a time: the two give the same
    # trajectory bit for bit, or fail alike in the same step and state
    gains = pole_place(PENDULUM.linear, [-10.0, -20.0, -30.0, -40.0])
    outcomes = []
    for bundle in (PENDULUM, row_by_row(PENDULUM)):
        try:
            outcomes.append(fl_discretize(bundle, builder(2), s0, h, 30, gains=gains))
        except MechliftError as exc:
            outcomes.append(exc)
    orbit, per_step = outcomes
    if isinstance(per_step, MechliftError):
        assert type(orbit) is type(per_step)
        assert orbit.step == per_step.step
        npt.assert_array_equal(orbit.state, per_step.state)
        return
    for field in ("states", "u", "utilde", "iterations", "residuals"):
        npt.assert_array_equal(getattr(orbit, field), getattr(per_step, field), field)


@DERANDOMIZED
@given(axis=axes, angle=st.floats(0.0, np.pi - 0.15))
def test_derived_rigid_body_feedback_is_the_rates_matrix(axis, angle):
    # identity chart, target (0, I) and e = 0: P = (R(xi)^-1)^+ = R(xi), R the
    # rates matrix, so beta = R(xi), gammaF = R(xi) Gamma and alpha = 0
    xi, t = angle * axis, BODY.bundle.transform
    rates = _rotation_rates_matrix(xi)
    npt.assert_allclose(t.beta(xi), rates, rtol=0, atol=1e-12)
    npt.assert_allclose(t.gammaF(xi),
                        np.einsum("ri,ijk->rjk", rates, BODY.exp_chart_system().gamma(xi)),
                        rtol=0, atol=1e-12)
    assert not t.alpha(xi).any()


@DERANDOMIZED
@given(axis=axes, gap=st.floats(4e-5, np.pi))
def test_so3_log_inverts_exp_outside_the_guard_band(axis, gap):
    # the guard band is trace <= -1 + 1e-9, angles within ~3.2e-5 of pi;
    # outside it the axis comes from the symmetric part near pi, so the
    # round trip keeps full accuracy
    w = (np.pi - gap) * axis
    npt.assert_allclose(so3_log(so3_exp(w)), w, rtol=0, atol=1e-13)


@DERANDOMIZED
@given(axis=axes, gap=st.floats(0.0, 3e-5))
def test_so3_log_refuses_angles_in_the_guard_band(axis, gap):
    with pytest.raises(AngleAtPi):
        so3_log(so3_exp((np.pi - gap) * axis))


def written_out_central_difference(f, x0, step):
    cols = []
    for j in range(x0.size):
        e = np.zeros_like(x0)
        e[j] = step
        cols.append((f(x0 + e) - f(x0 - e)) / (2.0 * step))
    return np.column_stack(cols)


def sign_sensitive(x):
    # copysign tells -0.0 from 0.0, so a probe whose arithmetic flips the
    # sign of a zero changes the result; row by row on (..., n) stacks
    return np.concatenate([np.copysign(1.0, x), x * x[..., ::-1],
                           np.sin(x).sum(axis=-1, keepdims=True)], axis=-1)


@DERANDOMIZED
@given(x0=st.lists(entries, min_size=1, max_size=5).map(np.array),
       step=st.sampled_from([1e-6, 1e-4, 0.3]))
def test_central_difference_is_the_written_out_one(x0, step):
    jac = numeric_jacobian(sign_sensitive, x0, step)
    want = written_out_central_difference(sign_sensitive, x0, step)
    assert jac.shape == want.shape
    assert jac.tobytes() == want.tobytes()


@DERANDOMIZED
@given(x0=st.lists(entries, min_size=1, max_size=5).map(np.array),
       step=st.sampled_from([1e-6, 1e-4, 0.3]))
def test_a_point_is_one_call_on_all_its_probes(x0, step):
    # f runs once, on the (2n, n) stack of the + probes then the - probes,
    # and the Jacobian is still the written-out one, bit for bit
    calls = []

    def f(x):
        calls.append(x.copy())
        return sign_sensitive(x)

    jac = numeric_jacobian(f, x0, step)
    assert [probes.shape for probes in calls] == [(2 * x0.size, x0.size)]
    assert jac.tobytes() == written_out_central_difference(sign_sensitive, x0, step).tobytes()


@DERANDOMIZED
@given(axis=axes, angle=st.floats(0.0, np.pi - 0.1),
       omega=st.tuples(floats(3.0), floats(3.0), floats(3.0)).map(np.array),
       k1=st.floats(0.0, 50.0), k2=st.floats(0.0, 50.0), h=st.floats(1e-4, 0.1))
def test_scalar_gains_are_multiples_of_the_identity(axis, angle, omega, k1, k2, h):
    r = so3_exp(angle * axis)
    r_s, om_s = so3_closed_loop_step(r, omega, k1, k2, h)
    r_m, om_m = so3_closed_loop_step(r, omega, k1 * np.eye(3), k2 * np.eye(3), h)
    assert np.array_equal(r_s.r, r_m.r)
    assert np.array_equal(om_s, om_m)


def attitude_rerun(r, omega, k1, k2, h, steps):
    """R+ = R expm(h hat(Omega)), Omega+ = Omega - h K1 log R - h K2 Omega,
    on scipy: the matrix exponential and the rotation vector of R."""
    from scipy.linalg import expm
    from scipy.spatial.transform import Rotation as ScipyRotation

    rs, oms = [r], [omega]
    for _ in range(steps):
        xi = ScipyRotation.from_matrix(r).as_rotvec()
        x, y, z = h * omega
        r = r @ expm(np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]))
        omega = omega - h * k1 * xi - h * k2 * omega
        rs.append(r)
        oms.append(omega)
    return np.array(rs), np.array(oms)


def attitude_loop_holds(r0, omega0, steps=1000, k1=5.0, k2=10.0, h=0.01):
    r, omega = r0, omega0
    rs, oms = [r0.r], [omega0]
    for _ in range(steps):
        r, omega = so3_closed_loop_step(r, omega, k1, k2, h)
        rs.append(r.r)
        oms.append(omega)
    rs, oms = np.array(rs), np.array(oms)
    r_ref, om_ref = attitude_rerun(r0.r, omega0, k1, k2, h, steps)
    assert np.abs(rs - r_ref).max() <= 1e-12
    assert np.abs(oms - om_ref).max() <= 1e-12
    assert np.abs(np.einsum("kji,kjl->kil", rs, rs) - np.eye(3)).max() <= 1e-12
    assert np.abs(np.linalg.det(rs) - 1.0).max() <= 1e-12
    return oms


# rates of at most 0.5 per axis: the loop's overshoot then stays below
# 0.1 rad, so no attitude drawn with angle <= pi - 0.15 reaches the pi guard band
rates = st.tuples(floats(0.5), floats(0.5), floats(0.5)).map(np.array)


@settings(derandomize=True, max_examples=6, deadline=None)
@given(axis=axes, angle=st.floats(0.0, np.pi - 0.15), omega=rates)
def test_attitude_loop_is_its_expm_rerun(axis, angle, omega):
    attitude_loop_holds(so3_exp(angle * axis), omega)


@settings(derandomize=True, max_examples=3, deadline=None)
@given(axis=axes, angle=st.floats(0.0, 1e-3), omega=st.tuples(
    floats(5e-3), floats(5e-3), floats(5e-3)).map(np.array))
def test_attitude_loop_on_the_small_angle_series(axis, angle, omega):
    # |h Omega| < 1e-4 on every step: every increment is the series branch
    oms = attitude_loop_holds(so3_exp(angle * axis), omega)
    assert 0.01 * np.linalg.norm(oms, axis=1).max() < 1e-4
