"""Property tests over generated inputs, derandomized so every run draws
the same examples: the map axioms and the lift-order commutation on the
pendulum chart, the closed forms of the built-in maps' tangent lift and
step Jacobian against their structural derivations, the pendulum's
midpoint closed loop against the Cayley update, and the rotation
logarithm around its pi guard band."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechlift import (
    AngleAtPi,
    OutsideChart,
    cayley_matrix,
    fl_discretize,
    lift_by_diffeo,
    make_explicit_euler,
    make_implicit_euler,
    make_midpoint,
    pendulum_system,
    pole_place,
    so3_exp,
    so3_log,
    tangent_lift,
    tangent_map,
    verify_axioms,
)
from mechlift.integrators import _linear_step_jacobian

BUILDERS = (make_explicit_euler, make_implicit_euler, make_midpoint)
PENDULUM = pendulum_system()
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


def assembled_step_jacobian(kind, n, a, h):
    """Lv - h a Lz, with (Lz, Lv) the second-slot columns of the inverse of
    the lift's 4n x 4n Jacobian assembled from the base Jacobian."""
    jb, _, _ = structural_lift(kind, n)
    # variable order (x, xd, y, yd) -> output order (x0, v0, x1, v1)
    base = np.r_[0:n, 2 * n:3 * n]
    full = np.zeros((4 * n, 4 * n))
    full[np.ix_(base, base)] = jb
    full[np.ix_(base + n, base + n)] = jb
    inv = np.linalg.inv(full)
    d = 2 * n
    return inv[d:, d:] - h * a @ inv[:d, d:]


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


@pytest.mark.parametrize("builder", BUILDERS)
@DERANDOMIZED
@given(h=st.floats(1e-4, 1.0), closed_loop=st.booleans())
def test_step_jacobian_is_its_assembled_derivation(builder, h, closed_loop):
    lms = PENDULUM.linear
    gains = pole_place(lms, [-10.0, -20.0, -30.0, -40.0]) if closed_loop else None
    a, b = lms.stacked()
    if closed_loop:
        a = a - b @ gains
    base = builder(2)
    got = _linear_step_jacobian(tangent_lift(base), lms, h, gains)
    npt.assert_array_equal(got, assembled_step_jacobian(base.kind, 2, a, h))


@settings(derandomize=True, max_examples=36, deadline=None)
@given(s0=st.tuples(floats(1.2), floats(1.0), floats(5.0), floats(100.0)).map(np.array),
       h=st.floats(0.002, 0.1))
def test_midpoint_loop_is_cayley_until_the_exact_loop_leaves_the_chart(s0, h):
    # every step maps s_k onto the Cayley update pulled back through the
    # chart, or the loop raises OutsideChart in the first step whose exact
    # Cayley orbit leaves the chart image
    gains = pole_place(PENDULUM.linear, [-10.0, -20.0, -30.0, -40.0])
    a, b = PENDULUM.linear.stacked()
    cay = cayley_matrix(a - b @ gains, h)
    tphi = tangent_map(PHI)
    z, exit_step = tphi.forward(s0), None
    for k in range(30):
        z = cay @ z
        try:
            PHI.inverse(z[:2])
        except OutsideChart:
            exit_step = k
            break
    try:
        traj = fl_discretize(PENDULUM, make_midpoint(2), s0, h, 30, gains=gains)
    except OutsideChart as exc:
        assert exc.step == exit_step
        return
    assert exit_step is None
    for s, s_next in zip(traj.states[:-1], traj.states[1:]):
        assert np.abs(s_next - tphi.inverse(cay @ tphi.forward(s))).max() < 1e-8


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
