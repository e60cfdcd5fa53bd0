"""End-to-end acceptance checks, one test per criterion.

Each test prints one PASS/FAIL line with the measured quantity next to
its required tolerance (run with ``pytest -s`` to see the lines for
passing tests too).

Two sub-criteria are known to be unattainable with the benchmark's own
parameters and are expected to fail honestly rather than pass with a
loosened tolerance:

* criterion 4 (tracking): the closed loop places poles out to -40, and
  at the fixed rate h = 0.01 the symmetric scheme's transient error in
  the pendulum angle is ~2.4e-2 on [0, 1], not < 5e-3.  Halving h
  shrinks it by ~4x (second order), so the bound would need h ~ 0.0045.
* criterion 6 (terminal angular velocity): with gains K1 = 5 I,
  K2 = 10 I the slow closed-loop pole is -5 + 2*sqrt(5) = -0.528, and
  the exact solution itself has |omega_y(10)| = 4.48e-3 > 1e-3; the
  discrete run matches it at 4.42e-3.
"""

import time

import numpy as np

from mechlift import (
    Rotation,
    check_general,
    check_planar,
    fl_discretize,
    lift_by_diffeo,
    linear_flow,
    make_explicit_euler,
    make_implicit_euler,
    make_midpoint,
    order_study,
    pole_place,
    so3_closed_loop_step,
    tangent_lift,
    tangent_map,
    theta_update_matrix,
    verify_axioms,
)
from mechlift.cli import _harmonic_order_case, _pendulum_order_case, _so3_order_case
from mechlift.integrators import linear_one_step, linear_two_step

POLES = [-10.0, -20.0, -30.0, -40.0]
PAPER_R0 = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
BUILDERS = {
    "explicit-euler": make_explicit_euler,
    "implicit-euler": make_implicit_euler,
    "midpoint": make_midpoint,
}


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_pole_placement(pendulum):
    start = time.monotonic()
    gains = pole_place(pendulum.linear, POLES)
    elapsed = time.monotonic() - start

    target = np.array([240000.0, 3500.0, 50000.0, 100.0])
    rel = np.abs(gains.ravel() - target) / target
    # independent cross-check: expand prod (s - lambda_i) by hand
    # (s^2+30s+200)(s^2+70s+1200) = s^4+100s^3+3500s^2+50000s+240000
    k1, k2, k3, k4 = gains.ravel()
    char = np.array([1.0, k4, k2, k3, k1])
    char_target = np.array([1.0, 100.0, 3500.0, 50000.0, 240000.0])
    char_rel = np.abs(char - char_target) / char_target

    ok = rel.max() < 1e-6 and char_rel.max() < 1e-6 and elapsed < 1.0
    assert report(1, ok,
                  f"gain rel err {rel.max():.2e}, char-poly rel err "
                  f"{char_rel.max():.2e}, runtime {elapsed:.3f}s (< 1 s)")


def test_criterion_2_map_axioms(pendulum, rng):
    start = time.monotonic()
    phi = pendulum.transform.phi

    def chart_samples(count):
        return [np.array([rng.uniform(-1.2, 1.2), rng.uniform(-1.5, 1.5)])
                for _ in range(count)]

    worst_zero = worst_jac = 0.0
    all_pass = True
    for kind, builder in BUILDERS.items():
        cases = [
            (builder(2), [rng.normal(size=2) for _ in range(50)]),
            (tangent_lift(builder(2)), [rng.normal(size=4) for _ in range(50)]),
            (lift_by_diffeo(builder(2), phi), chart_samples(50)),
        ]
        for dmap, samples in cases:
            rep = verify_axioms(dmap, samples)
            assert rep.tols == (1e-10, 1e-6)  # the criterion's bounds are the checker's
            worst_zero = max(worst_zero, rep.worst_zero)
            worst_jac = max(worst_jac, rep.worst_jacobian)
            all_pass &= rep.passed
    elapsed = time.monotonic() - start
    ok = all_pass and elapsed < 5.0
    assert report(2, ok,
                  f"9 maps x 50 points: zero defect {worst_zero:.2e} (< 1e-10), "
                  f"jacobian defect {worst_jac:.2e} (< 1e-6), runtime {elapsed:.2f}s")


def test_criterion_3_commutation_identities(pendulum, rng):
    phi = pendulum.transform.phi
    base = make_midpoint(2)

    # chart-level square: pushing the lifted pair equals mapping the
    # pushed tangent vector
    lifted = lift_by_diffeo(base, phi)
    worst_chart = 0.0
    for _ in range(100):
        x = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.5, 1.5)])
        v = rng.normal(size=2) * 0.02
        a, b = lifted.forward(x, v)
        lhs = np.concatenate([phi.forward(a), phi.forward(b)])
        rhs = np.concatenate(base.forward(phi.forward(x), phi.jacobian(x) @ v))
        worst_chart = max(worst_chart, np.abs(lhs - rhs).max())

    # tangent-level square: the two lift orders agree pointwise
    route_a = tangent_lift(lift_by_diffeo(base, phi))
    route_b = lift_by_diffeo(tangent_lift(base), tangent_map(phi))
    worst_tan = 0.0
    for _ in range(100):
        s = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                      rng.normal() * 0.5, rng.normal() * 0.5])
        w = rng.normal(size=4) * 0.1
        a0, a1 = route_a.forward(s, w)
        b0, b1 = route_b.forward(s, w)
        worst_tan = max(worst_tan, np.abs(a0 - b0).max(), np.abs(a1 - b1).max())

    ok = worst_chart < 1e-8 and worst_tan < 1e-8
    assert report(3, ok,
                  f"chart square {worst_chart:.2e}, tangent square "
                  f"{worst_tan:.2e} (both < 1e-8, 100 samples each)")


def _closed_loop_run(pendulum, h=0.01, steps=100):
    gains = pole_place(pendulum.linear, POLES)
    s0 = np.array([np.pi / 4, 0.0, 0.0, 0.0])
    traj = fl_discretize(pendulum, make_midpoint(2), s0, h, steps, gains=gains)
    a_full, b_full = pendulum.linear.stacked()
    return traj, a_full - b_full @ gains


def test_criterion_4_step_conjugacy(pendulum):
    traj, a_cl = _closed_loop_run(pendulum)
    cay = theta_update_matrix(a_cl, 0.01, 0.5)
    push = pendulum.transform.push_state
    worst = 0.0
    for k in range(100):
        zk = push(traj.states[k][:2], traj.states[k][2:])
        zn = push(traj.states[k + 1][:2], traj.states[k + 1][2:])
        worst = max(worst, np.abs(zn - cay @ zk).max())
    ok = worst < 1e-8
    assert report("4 (conjugacy)", ok,
                  f"per-step defect {worst:.2e} (< 1e-8, 100 steps, h = 0.01)")


def test_criterion_4_reference_tracking(pendulum):
    traj, a_cl = _closed_loop_run(pendulum)
    z0 = pendulum.transform.push_state(traj.states[0][:2], traj.states[0][2:])
    ref = linear_flow(a_cl, z0, traj.t)
    phi = pendulum.transform.phi
    worst = 0.0
    for i, z in enumerate(ref):
        x_ref = phi.inverse(z[:2])
        worst = max(worst, abs(traj.states[i, 0] - x_ref[0]))
    ok = worst < 5e-3
    report("4 (tracking)", ok,
           f"max |theta1 - reference| {worst:.3e} on [0, 1] (required < 5e-3; "
           "unattainable at h = 0.01, see module docstring)")
    assert ok, (
        f"max theta1 tracking error {worst:.3e} exceeds 5e-3: the bound is "
        "unattainable at h = 0.01 with poles to -40 (second-order scheme, "
        "error ~2.4e-2; would need h ~ 0.0045)"
    )


def test_criterion_5_convergence_orders():
    start = time.monotonic()
    stepper, ref, s0 = _pendulum_order_case("midpoint", 1.0)
    pend = order_study(stepper, ref, s0, 1.0, [0.02, 0.01, 0.005, 0.0025])

    stepper, ref, s0 = _harmonic_order_case("midpoint", 1.0)
    harm = order_study(stepper, ref, s0, 1.0, [0.1, 0.05, 0.025, 0.0125])

    stepper, ref, s0 = _so3_order_case(2.0)
    rot = order_study(stepper, ref, s0, 2.0, [0.02, 0.01, 0.005, 0.0025])
    elapsed = time.monotonic() - start

    ok = (abs(pend.slope - 2.0) < 0.2 and abs(harm.slope - 2.0) < 0.2
          and abs(rot.slope - 1.0) < 0.2 and elapsed < 30.0)
    assert report(5, ok,
                  f"slopes: pendulum loop {pend.slope:.3f} (2 +/- 0.2), "
                  f"oscillator {harm.slope:.3f} (2 +/- 0.2), rotation "
                  f"{rot.slope:.3f} (1 +/- 0.2); runtime {elapsed:.1f}s (< 30 s)")


def _rigid_body_run(steps=1000, h=0.01):
    r, om = Rotation(PAPER_R0), np.zeros(3)
    trace = [3.0 - np.trace(r.r)]
    orth = det = 0.0
    for _ in range(steps):
        r, om = so3_closed_loop_step(r, om, 5.0, 10.0, h)
        orth = max(orth, np.abs(r.r.T @ r.r - np.eye(3)).max())
        det = max(det, abs(np.linalg.det(r.r) - 1.0))
    trace.append(3.0 - np.trace(r.r))
    return trace, orth, det, om


def test_criterion_6_group_structure():
    trace, orth, det, _ = _rigid_body_run()
    ok = (orth < 1e-12 and det < 1e-12 and trace[0] == 2.0 and trace[-1] < 1e-3)
    assert report("6 (structure)", ok,
                  f"1000 steps: orthogonality {orth:.2e}, det drift {det:.2e} "
                  f"(< 1e-12), trace error {trace[0]:.1f} -> {trace[-1]:.2e} "
                  "(starts at 2, < 1e-3 by t = 10)")


def test_criterion_6_terminal_angular_velocity():
    _, _, _, om = _rigid_body_run()
    worst = np.abs(om).max()
    ok = worst < 1e-3
    report("6 (velocity)", ok,
           f"max |omega_i(10)| {worst:.3e} (required < 1e-3; the exact "
           "closed loop gives 4.48e-3, see module docstring)")
    assert ok, (
        f"terminal angular velocity {worst:.3e} exceeds 1e-3: with gains "
        "K1 = 5I, K2 = 10I the slow pole -0.528 leaves |omega_y(10)| = 4.5e-3 "
        "even in the exact solution"
    )


def test_criterion_7_linearizability_verdicts(pendulum, rigid_body, rng):
    inner = [np.array([x1, 0.0]) for x1 in np.linspace(-1.3, 1.3, 21)]
    planar_ok = check_planar(pendulum.system, inner).passed

    crossing = [np.array([x1, 0.0])
                for x1 in np.linspace(-np.pi / 2, np.pi / 2, 21)]
    cross_rep = check_planar(pendulum.system, crossing)
    md1 = cross_rep["MD1"]
    witness_ok = (md1.verdict == "fail" and md1.witness is not None
                  and abs(abs(md1.witness[0]) - np.pi / 2) < 1e-3)

    general_pend = check_general(pendulum.system, inner).passed

    samples = []
    for _ in range(13):
        xi = rng.normal(size=3)
        xi *= rng.uniform(0.05, np.pi - 0.15) / np.linalg.norm(xi)
        samples.append(xi)
    general_body = check_general(rigid_body.exp_chart_system(), samples).passed

    ok = planar_ok and witness_ok and general_pend and general_body
    assert report(7, ok,
                  f"planar pass on |x1| <= 1.3: {planar_ok}; degenerate-point "
                  f"witness at {md1.witness[0]:+.6f} (within 1e-3 of pi/2): "
                  f"{witness_ok}; general pendulum: {general_pend}; general "
                  f"rigid body: {general_body}")


def test_criterion_8_two_step_equivalence(pendulum, rng):
    lms = pendulum.linear
    h = 0.01
    m, n_mat, _ = linear_one_step(lms, make_midpoint(2), h)
    useq = rng.normal(size=(100, 1)) * 5.0
    z = np.array([1.0, 2.0, 0.5, -0.4])
    zs = [z]
    for k in range(100):
        zs.append(m @ zs[-1] + n_mat @ useq[k])
    zs = np.array(zs)
    rec = linear_two_step(lms, make_midpoint(2), h)
    xs = rec.iterate(zs[0][:2], zs[1][:2], useq)
    worst = np.abs(xs - zs[:, :2]).max()
    ok = worst < 1e-10
    assert report(8, ok,
                  f"two-step vs one-step over 100 steps: {worst:.2e} (< 1e-10)")
