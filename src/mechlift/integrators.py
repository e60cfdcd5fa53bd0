"""The implicit stepper built from discretization maps, plus the linear-control toolbox.

The one stepper solves, for a step of size h along a field X, the
implicit relation "map-inverse of the step pair equals h times X at the
recovered base point".  On a base map and a first-order field that is
the scheme the map induces; on the tangent lift of a base map and the
field of a second-order system under a control sampled at the recovered
base state, it is the scheme that makes the feedback-linearizable
closed loop conjugate to a linear one-step update.

The toolbox side carries single-input pole placement, the Cayley
one-step matrix for linear closed loops, the closed-loop stepper on the
rotation group, the exact flow of a linear system, and the order-study
harness.
"""

from dataclasses import dataclass

import numpy as np

from .discretization import DiscretizationMap, tangent_lift
from .errors import (
    DimensionMismatch,
    MechliftError,
    MultiInputUnsupported,
    NotLinearityPreserving,
    SingularStep,
    Uncontrollable,
)
from .geometry import (
    Rotation,
    _damped_newton,
    _vec,
    so3_exp,
    so3_log,
)
from .mechanics import (
    LinearMechanicalSystem,
    SystemBundle,
    apply_feedback,
    sode_field,
)


@dataclass
class StepResult:
    """State after one implicit step plus solver diagnostics.

    ``jacobian`` is the residual Jacobian the step's Newton solve ended
    with; passing it to the next ``step_sode`` call of the same scheme
    spares that step a fresh central difference.
    """

    state: np.ndarray
    iterations: int
    residual: float
    jacobian: np.ndarray | None


@dataclass
class Trajectory:
    """Uniform-grid trajectory with recorded controls.

    ``fl_discretize`` also records, one entry per step, the step's
    Newton ``iterations`` and its final residual norm (``residuals``).
    """

    t: np.ndarray
    states: np.ndarray
    u: np.ndarray | None = None
    utilde: np.ndarray | None = None
    iterations: np.ndarray | None = None
    residuals: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, float)
        self.states = np.asarray(self.states, float)
        dt = np.diff(self.t)
        if self.t.size > 1 and not (np.all(dt > 0)
                                    and np.allclose(dt, dt[0], rtol=1e-9, atol=0)):
            raise ValueError("time grid must be uniform and strictly increasing")
        if self.states.shape[0] != self.t.size:
            raise DimensionMismatch("one state row per grid point required")


def _check_step_size(h):
    if not 0.0 < h < np.inf:
        raise ValueError(f"step size must be a finite positive number, got {h}")


def step_sode(dmap: DiscretizationMap, field, s_k, h, jacobian=None) -> StepResult:
    """One step of the scheme ``dmap`` induces on the vector ``field``.

    Solves for ``s_next`` such that, with (z, v) the ``dmap`` inverse of
    (s_k, s_next), v = h * field(z).  On the tangent lift of a base map
    and a second-order field this is the second-order scheme; on a base
    map and a first-order field, the first-order one.  Newton starts at
    s_k, and its tolerance is relative to the largest entry of s_k: both
    live in the chart the step is taken in.  Newton's first Jacobian is
    ``jacobian`` when given: the previous step's ``StepResult.jacobian``,
    or the exact one of a linear field on a theta-family map.  It only
    speeds the solve up, since a Jacobian whose full step fails to cut
    the residual tenfold is replaced by a fresh central difference, and
    the step solves the same equation either way.  A state that is not
    a finite vector of the map's dimension, or a step size that is not a
    finite positive number, is refused before Newton starts.
    """
    s_k = _vec(s_k, "s_k")
    if s_k.size != dmap.dim:
        raise DimensionMismatch("state dimension does not match the map")
    _check_step_size(h)

    def residual(s_next):
        z, v = dmap.inverse(s_k, s_next)
        return v - h * field(z)

    scale = 1.0 + float(np.abs(s_k).max())
    return StepResult(*_damped_newton(residual, s_k, scale=scale, jac=jacobian))


def _linear_step_jacobian(lifted: DiscretizationMap, lms: LinearMechanicalSystem, h,
                          gains=None):
    """Exact ``step_sode`` Jacobian of a theta-family lift on a linear field.

    On z' = a z + b with a = A - B K (A, B the stacked pair of ``lms``,
    K the ``gains``, zero without them), the lift's inverse gives
    z = (1 - theta) s_k + theta s_next and v = s_next - s_k, so the step
    residual v - h a z - h b has the constant Jacobian I - theta h a.
    None for a map outside the family.
    """
    if lifted.theta is None:
        return None
    a, b = lms.stacked()
    if gains is not None:
        a = a - b @ np.atleast_2d(np.asarray(gains, float))
    return np.eye(lifted.dim) - (lifted.theta * h) * a


def fl_discretize(bundle: SystemBundle, base_map: DiscretizationMap, s0, h, steps,
                  gains=None, utilde=None) -> Trajectory:
    """Feedback-linearizable discretization of a mechanical system.

    The scheme is the tangent lift of the base map transported by the
    linearizing chart change phi.  By the lift-order commutation
    (criterion 3) it is exactly the tangent lift of ``base_map`` acting,
    in the linearizing chart, on the closed-loop field pushed there, so
    each step is solved in that chart: push the state through
    Tphi = ``tangent_map(phi)``, run ``step_sode`` on DTphi(z) f(z) with
    z = Tphi^-1(Z) and f the physical field under ``apply_feedback``,
    pull the result back.  There that field is the linear target's
    A Z + B utilde, so for a base map of the theta family the step
    residual is affine with the constant Jacobian I - theta h (A - B K)
    (``_linear_step_jacobian``): every step's Newton solve starts from
    it, lands in one iteration and polishes in a second.  Newton still
    solves the physical residual, so a feedback or target that does not
    linearize shows as a Jacobian whose full step fails to cut the
    residual tenfold; it is then replaced by a fresh central difference
    and carried on to the next step (the chord method), which is also
    the path of a base map outside the family.  Each step starts from
    the push of its stored state, so a chain of calls computes the
    states of one to the Newton tolerance.

    Either closed-loop ``gains`` (utilde = -K ztilde at the base state)
    or an open-loop ``utilde`` sequence must be given.  ``s0`` must be a
    finite 2n-vector and h a finite positive number.  The trajectory
    records each step's controls at its converged base state, Newton
    iterations and final residual.  A ``MechliftError`` raised in step k
    carries ``step = k`` and the ``state`` that step started from.

    The defining property, used by the tests: pushing each step through
    Tphi reproduces, step by step, the linear one-step update the base
    map induces on the linear target system.
    """
    if (gains is None) == (utilde is None):
        raise ValueError("provide exactly one of gains / utilde sequence")
    sys, transform = bundle.system, bundle.transform
    phi = transform.phi
    lifted = tangent_lift(base_map)
    n, m = sys.n, sys.m

    s0 = _vec(s0, "s0")
    if s0.size != 2 * n:
        raise DimensionMismatch(f"s0 must have {2 * n} entries, got {s0.size}")
    _check_step_size(h)

    if gains is not None:
        K = np.atleast_2d(np.asarray(gains, float))
    else:
        utilde = np.atleast_2d(np.asarray(utilde, float).reshape(steps, m))

    def utilde_at(k, Z):
        if gains is not None:
            return np.atleast_1d(-K @ Z)
        return utilde[k]

    def pull(Z):
        """Tphi^-1(Z) = (x, y), with d = Dphi(x)."""
        x = phi.inverse(Z[:n])
        d = phi.jacobian(x)
        return x, np.linalg.solve(d, Z[n:]), d

    def pushed_field(k, Z):
        """DTphi(z) f(z) = (Y, D2phi(x)[y, y] + Dphi(x) ydot) at z = Tphi^-1(Z)."""
        x, y, d = pull(Z)
        u = apply_feedback(transform, x, y, utilde_at(k, Z))
        ydot = sode_field(sys, np.concatenate([x, y]), u)[n:]
        return np.concatenate([Z[n:], phi.second_deriv(x, y, y) + d @ ydot])

    states = np.empty((steps + 1, 2 * n))
    states[0] = s0
    u_log = np.empty((steps, m))
    ut_log = np.empty((steps, m))
    iterations = np.empty(steps, int)
    residuals = np.empty(steps)

    jacobian = _linear_step_jacobian(lifted, bundle.linear, h, gains)
    for k in range(steps):
        try:
            z_k = transform.push_state(states[k][:n], states[k][n:])
            result = step_sode(lifted, lambda Z, k=k: pushed_field(k, Z), z_k, h, jacobian)
            x, y, _ = pull(result.state)
            states[k + 1, :n], states[k + 1, n:] = x, y
            # log the controls at the converged base state of the step
            base, _ = lifted.inverse(z_k, result.state)
            ut_log[k] = utilde_at(k, base)
            x, y, _ = pull(base)
            u_log[k] = apply_feedback(transform, x, y, ut_log[k])
        except MechliftError as exc:
            exc.step = k
            exc.state = states[k].copy()
            raise
        iterations[k] = result.iterations
        residuals[k] = result.residual
        jacobian = result.jacobian

    t = h * np.arange(steps + 1)
    return Trajectory(t, states, u_log, ut_log, iterations, residuals)


def linear_one_step(lms: LinearMechanicalSystem, dmap: DiscretizationMap, h,
                    gains=None):
    """Matrices (M, N) of the one-step update z+ = M z + N utilde.

    The update is the second-order scheme of ``dmap`` applied to the
    (optionally closed-loop) linear system, recovered column by column;
    probing verifies it is affine and raises ``NotLinearityPreserving``
    otherwise.  The probe solves of a theta-family ``dmap`` start from
    the step's exact Jacobian.
    """
    n, m = lms.n, lms.m
    sys = lms.as_mechanical_system()
    lifted = tangent_lift(dmap)
    K = np.zeros((m, 2 * n)) if gains is None else np.atleast_2d(np.asarray(gains, float))
    jacobian = _linear_step_jacobian(lifted, lms, h, K)

    def advance(z, ut):
        return step_sode(lifted, lambda base: sode_field(sys, base, ut - K @ base), z, h,
                         jacobian).state

    zero = advance(np.zeros(2 * n), np.zeros(m))
    M = np.column_stack([advance(e, np.zeros(m)) - zero for e in np.eye(2 * n)])
    N = np.column_stack([advance(np.zeros(2 * n), e) - zero for e in np.eye(m)])

    rng = np.random.default_rng(7)
    for _ in range(3):
        z = rng.normal(size=2 * n)
        ut = rng.normal(size=m)
        lin = M @ z + N @ ut + zero
        defect = np.abs(advance(z, ut) - lin).max()
        if defect > 1e-8 * (1.0 + np.abs(lin).max()):
            raise NotLinearityPreserving(
                f"one-step update deviates from affine by {defect:.3e}"
            )
    return M, N, zero


@dataclass
class TwoStepRecurrence:
    """Position-only recurrence x+2 = A2 x_k + B2 x_{k+1} + P0 u_k + P1 u_{k+1}."""

    A2: np.ndarray
    B2: np.ndarray
    P0: np.ndarray
    P1: np.ndarray

    def iterate(self, x0, x1, u_seq):
        """Run the recurrence; returns positions including the two seeds."""
        u_seq = np.atleast_2d(np.asarray(u_seq, float))
        out = [np.asarray(x0, float), np.asarray(x1, float)]
        for k in range(len(u_seq) - 1):
            out.append(self.A2 @ out[k] + self.B2 @ out[k + 1]
                       + self.P0 @ u_seq[k] + self.P1 @ u_seq[k + 1])
        return np.array(out)


def linear_two_step(lms: LinearMechanicalSystem, dmap: DiscretizationMap,
                    h) -> TwoStepRecurrence:
    """Eliminate the velocity from the one-step linear update.

    With the one-step blocks z+ = [[M11, M12], [M21, M22]] z + [N1; N2] u,
    solving the first row for the velocity yields the two-step position
    recurrence; the returned coefficients reproduce the one-step
    simulation exactly.
    """
    n = lms.n
    M, N, _ = linear_one_step(lms, dmap, h)
    M11, M12 = M[:n, :n], M[:n, n:]
    M21, M22 = M[n:, :n], M[n:, n:]
    N1, N2 = N[:n], N[n:]
    try:
        M12_inv = np.linalg.inv(M12)
    except np.linalg.LinAlgError as exc:
        raise SingularStep("velocity block of the one-step update is singular") from exc
    B2 = M11 + M12 @ M22 @ M12_inv
    A2 = M12 @ M21 - M12 @ M22 @ M12_inv @ M11
    P0 = M12 @ N2 - M12 @ M22 @ M12_inv @ N1
    P1 = N1
    return TwoStepRecurrence(A2, B2, P0, P1)


def pole_place(lms: LinearMechanicalSystem, poles) -> np.ndarray:
    """Single-input state feedback by Ackermann's formula.

    Places the eigenvalues of the stacked closed-loop matrix A - B K at
    ``poles``; the result is validated against an eigensolver to 1e-6
    relative.
    """
    if lms.m != 1:
        raise MultiInputUnsupported("pole placement implemented for m = 1 only")
    poles = np.atleast_1d(np.asarray(poles, complex))
    A, B = lms.stacked()
    dim = A.shape[0]
    if poles.size != dim:
        raise DimensionMismatch(f"need {dim} poles, got {poles.size}")
    if not np.allclose(np.sort_complex(poles), np.sort_complex(poles.conj())):
        raise ValueError("pole set must be closed under conjugation")

    ctrb = np.column_stack([np.linalg.matrix_power(A, i) @ B for i in range(dim)])
    sv = np.linalg.svd(ctrb, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        ratio = 0.0 if sv[0] == 0.0 else sv[-1] / sv[0]
        raise Uncontrollable(f"controllability matrix near-singular (ratio {ratio:.1e})")

    coeffs = np.real(np.poly(poles))
    pa = np.zeros_like(A)
    for c in coeffs:
        pa = pa @ A + c * np.eye(dim)
    last_row = np.zeros(dim)
    last_row[-1] = 1.0
    try:
        K = (np.linalg.solve(ctrb.T, last_row) @ pa)[None, :]
    except np.linalg.LinAlgError as exc:
        raise Uncontrollable("controllability matrix is singular") from exc

    achieved = np.linalg.eigvals(A - B @ K)
    want = np.sort_complex(poles)
    got = np.sort_complex(achieved)
    if np.abs(got - want).max() > 1e-6 * max(1.0, np.abs(want).max()):
        raise Uncontrollable("placed eigenvalues failed validation")
    return K


def cayley_matrix(a_cl, h) -> np.ndarray:
    """One-step matrix (I - h/2 A)^-1 (I + h/2 A) of the Cayley update x+ = C x.

    The midpoint scheme's update for the linear field x' = A x; raises
    ``SingularStep`` when the resolvent I - h/2 A is singular.
    """
    a_cl = np.atleast_2d(np.asarray(a_cl, float))
    hp = h / 2.0
    eye = np.eye(a_cl.shape[0])
    try:
        return np.linalg.solve(eye - hp * a_cl, eye + hp * a_cl)
    except np.linalg.LinAlgError as exc:
        raise SingularStep("resolvent I - h/2 A is singular") from exc


def so3_closed_loop_step(rotation, omega, k1, k2, h):
    """Proportional-derivative attitude step on the rotation group.

    R+ = R exp(h hat(Omega)); Omega+ = Omega - h K1 log(R) - h K2 Omega.
    The rotation update is a group product, so orthogonality is
    preserved to roundoff regardless of step size.
    """
    R = rotation if isinstance(rotation, Rotation) else Rotation(np.asarray(rotation, float))
    omega = np.asarray(omega, float)
    k1 = np.asarray(k1, float) * np.eye(3) if np.ndim(k1) == 0 else np.asarray(k1, float)
    k2 = np.asarray(k2, float) * np.eye(3) if np.ndim(k2) == 0 else np.asarray(k2, float)
    xi = so3_log(R)
    r_next = Rotation(R.r @ so3_exp(h * omega).r)
    omega_next = omega - h * (k1 @ xi) - h * (k2 @ omega)
    return r_next, omega_next


def linear_flow(a, z0, times) -> np.ndarray:
    """Exact flow expm(a t) z0 of z' = a z, one row per entry of ``times``.

    Scaling and squaring (Moler and Van Loan, "Nineteen dubious ways to
    compute the exponential of a matrix", SIAM Review 2003), batched
    over the times: each a t is scaled by 2^-s until its 1-norm is at
    most 1/2, exponentiated by a degree-18 Taylor sum (truncation below
    1e-22) and squared s times.  No eigendecomposition, so defective
    matrices such as a double integrator are handled as well; t = 0
    returns ``z0`` bit for bit.
    """
    a = np.atleast_2d(np.asarray(a, float))
    at = np.asarray(times, float)[:, None, None] * a
    # s = e + 1 gives |a t|_1 2^-s = m / 2 < 1/2, where frexp splits the
    # 1-norm (largest column sum) as m 2^e with 1/2 <= m < 1
    squarings = np.maximum(np.frexp(np.abs(at).sum(axis=1).max(axis=1))[1] + 1, 0)
    x = np.ldexp(at, -squarings[:, None, None])
    eye = np.eye(a.shape[0])
    e = eye + x / 18.0
    for k in range(17, 0, -1):
        e = eye + (x @ e) / k
    for i in range(int(squarings.max(initial=0))):
        more = squarings > i
        e[more] = e[more] @ e[more]
    return e @ np.asarray(z0, float)


ORDER_FLOOR = 1e-10


@dataclass
class OrderStudy:
    """Log-log fit of global error against step size."""

    h: np.ndarray
    errors: np.ndarray
    slope: float | None
    fit_residual: float | None
    floored: bool

    def __repr__(self):
        if self.slope is None:
            return f"OrderStudy(no fit, errors {self.errors})"
        tag = " [floor]" if self.floored else ""
        return f"OrderStudy(slope {self.slope:.3f}{tag})"


def grid_steps(t_final, h) -> int:
    """Steps of size h to t_final; ``ValueError`` unless both are positive
    and t_final / h is a whole number to 1e-9 relative."""
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    if not t_final > 0:
        raise ValueError(f"final time must be positive, got {t_final}")
    steps = int(round(t_final / h))
    if abs(steps * h - t_final) > 1e-9 * t_final:
        raise ValueError(f"t_final is not an integer multiple of h = {h}")
    return steps


def order_study(stepper, reference_state, s0, t_final, h_list) -> OrderStudy:
    """Estimate the global convergence order of a stepper.

    ``stepper(s0, h, steps)`` must return the state at t_final = h * steps;
    ``reference_state`` is the accurate terminal state the errors are
    measured against.  Errors below ``ORDER_FLOOR`` flag the fit as
    floored (self-comparison / interpolation noise).
    """
    h_list = np.asarray(h_list, float)
    reference_state = np.asarray(reference_state, float)
    errors = []
    for h in h_list:
        steps = grid_steps(t_final, h)
        final = np.asarray(stepper(s0, h, steps), float)
        errors.append(float(np.linalg.norm(final - reference_state)))
    errors = np.asarray(errors)

    floored = bool(np.max(errors) < ORDER_FLOOR)
    if h_list.size < 2 or np.any(errors == 0.0) or floored:
        return OrderStudy(h_list, errors, None, None, floored)
    logs_h, logs_e = np.log(h_list), np.log(errors)
    slope, intercept = np.polyfit(logs_h, logs_e, 1)
    resid = float(np.sqrt(np.mean((logs_e - (slope * logs_h + intercept)) ** 2)))
    return OrderStudy(h_list, errors, float(slope), resid, floored)
