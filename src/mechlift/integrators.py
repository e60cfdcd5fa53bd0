"""The implicit stepper built from discretization maps, plus the linear-control toolbox.

The one stepper solves, for a step of size h along a field X, the
implicit relation "map-inverse of the step pair equals h times X at the
recovered base point".  On a base map and a first-order field that is
the scheme the map induces; on the tangent lift of a base map and the
field of a second-order system under a control sampled at the recovered
base state, it is the scheme that makes the feedback-linearizable
closed loop conjugate to a linear one-step update.

The toolbox side carries single-input pole placement, the one-step
matrix of the theta family (the Cayley matrix at theta = 1/2) for linear
closed loops, the closed-loop stepper on the rotation group, the exact
flow of a linear system, and the order-study harness.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discretization import DiscretizationMap, _pull, tangent_lift
from .errors import (
    DimensionMismatch,
    MechliftError,
    MultiInputUnsupported,
    NonFinite,
    NotLinearityPreserving,
    OutsideChart,
    SingularStep,
    Uncontrollable,
)
from .geometry import (
    _damped_newton,
    _log,
    _entries,
    _matrix,
    _newton_bound,
    _norms,
    _read_only,
    _rodrigues,
    _rotation,
    _scalar,
    _vec,
)
from .mechanics import (
    LinearMechanicalSystem,
    SystemBundle,
    _pushed_acceleration,
    sode_field,
)


@dataclass(eq=False)
class StepResult:
    """State after one implicit step plus solver diagnostics."""

    state: np.ndarray
    iterations: int
    residual: float


@dataclass(eq=False)
class Trajectory:
    """Uniform-grid trajectory with recorded controls.

    ``fl_discretize`` also records, one entry per step, the step's
    Newton ``iterations`` and its final residual norm (``residuals``).
    ``iterations == 0`` means the step was certified, not solved: its
    physical residual at the orbit point M Z_k (plus N utilde_k in open
    loop) on a theta-family map, and at Z_k otherwise, was within the
    0-iteration bound ``geometry._newton_bound``, and no Newton step ran.
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
        if self.t.ndim != 1:
            raise DimensionMismatch(f"t must be a 1-d time grid, got shape {self.t.shape}")
        if self.t.size > 1:
            # the first step positive and every step within 1e-9 of it, relative
            # (counted: ndarray.all reduces at microseconds); NaN fails a test
            dt = self.t[1:] - self.t[:-1]
            if not (dt[0] > 0.0 and np.count_nonzero(abs(dt - dt[0]) <= 1e-9 * dt[0]) == dt.size):
                raise ValueError("time grid must be uniform and strictly increasing")
        if self.states.shape[0] != self.t.size:
            raise DimensionMismatch("one state row per grid point required")


def step_sode(dmap: DiscretizationMap, field, s_k, h) -> StepResult:
    """One step of the scheme ``dmap`` induces on the vector ``field``.

    Solves for ``s_next`` such that, with (z, v) the ``dmap`` inverse of
    (s_k, s_next), v = h * field(z).  On the tangent lift of a base map
    and a second-order field this is the second-order scheme; on a base
    map and a first-order field, the first-order one.  Damped Newton
    (``geometry._damped_newton``, a fresh central-difference Jacobian
    each iteration) starts at s_k, in the chart the step is taken in; a
    start already within its tolerance is the next state with
    ``iterations == 0``.  A state that is not a finite vector of the
    map's dimension is refused before Newton starts, and so is an h that
    ``geometry._scalar`` refuses as a step size (``ValueError``); h is
    read once, as a float.

    ``field`` acts row by row on (..., dim) stacks, as every callable of
    a ``MechanicalSystem`` does (unchecked, as for ``numeric_jacobian``):
    the residual takes s_k against the probe stack, so each Newton
    iteration's Jacobian is one call of ``field``.
    """
    s_k = _vec(s_k, "s_k")
    if s_k.size != dmap.dim:
        raise DimensionMismatch("state dimension does not match the map")
    h = _scalar(h, "step size", positive=True)

    def residual(s_next):
        z, v = dmap.inverse(np.broadcast_to(s_k, s_next.shape), s_next)
        return v - h * field(z)

    return StepResult(*_damped_newton(residual, s_k))


_ORBIT_FAULTS = (MechliftError, np.linalg.LinAlgError)

_SETUPS = {}  # _setup's memo: its last 16 setups, first in first out


def _setup(linear: LinearMechanicalSystem, K, h, theta):
    """-K^T (None in open loop) and, at a theta, M and (I - theta h A)^-1 B from one solve
    and h [A B] on (Z, utilde), with A - B K for A and a B of no columns under gains,
    read-only, once per content of its arguments."""
    key = (linear.A.shape, linear.A.tobytes(), linear.B.shape, linear.B.tobytes(),
           None if K is None else K.tobytes(), h, theta)
    if key in _SETUPS:
        return _SETUPS[key]
    a, b = linear.stacked()
    minus_kt = update = resolved_b = step_field = None
    if K is not None:
        a, b, minus_kt = a - b @ K, b[:, :0], _read_only(-K.T)
    if theta is not None:
        full = _read_only(_theta_update(a, h, theta, b))
        update, resolved_b = full[:, :len(a)], full[:, len(a):]
        step_field = _read_only(h * np.hstack([a, b]))
    if len(_SETUPS) == 16:
        del _SETUPS[next(iter(_SETUPS))]
    _SETUPS[key] = minus_kt, update, resolved_b, step_field
    return _SETUPS[key]


def fl_discretize(bundle: SystemBundle, base_map: DiscretizationMap, s0, h, steps,
                  gains=None, utilde=None) -> Trajectory:
    """Feedback-linearizable discretization of a mechanical system.

    The scheme is the tangent lift of ``base_map`` transported by the
    linearizing chart change phi.  By the lift-order commutation
    (criterion 3) each step is the lift of ``base_map`` itself acting in
    the linearizing chart on the physical closed-loop field pushed there
    by Tphi = ``tangent_map(phi)``, DTphi(z) f(z) with z = Tphi^-1(Z) and
    f the physical field under the feedback (``mechanics._pushed_acceleration``):
    the target's A Z + B utilde.  So on a theta-family map the step is
    Z+ = M Z under ``gains`` K, with
    M = ``theta_update_matrix(A - B K, h, theta)``, and Z+ = M Z +
    N utilde_k under an open-loop ``utilde``, with M and
    N = h (I - theta h A)^-1 B from one solve on A, kept with -K^T in
    a small read-only memo keyed by content.

    Such a call certifies its whole orbit in one pass on stacks: each
    step's physical residual (Z_{k+1} - Z_k) - h DTphi f at its base
    point (1 - theta) Z_k + theta Z_{k+1}, against Newton's 0-iteration
    bound ``geometry._newton_bound`` at its start Z_k and the target's
    h A Z_k + h B utilde_k there.  A certified step has
    ``iterations == 0`` and makes no ``step_sode`` call.  A pass that
    raises (any ``MechliftError`` or ``LinAlgError``, as at a chart exit
    or a singular feedback) is rerun one step at a time up to the step
    that raises.  From the first step that fails its certificate (a
    feedback, target or system that does not linearize), raises or is
    not finite, and on every step of a map outside the family, Newton
    solves the step by ``step_sode`` from the push of its stored state.
    The pass, its rerun and each solved step's end and controls share one
    evaluation, and every pull-back through Tphi, Newton's residual's too,
    is one ``discretization._pull``.  A chain of calls gives the states of
    one call to rounding.

    Either ``gains`` (an m x 2n matrix K, utilde = -K ztilde at the base
    state) or ``utilde`` (steps x m entries) must be given.  Refused at
    entry, on every call: a ``base_map`` whose ``dim`` is not n or an
    ``s0`` that is not a finite 2n-vector (``DimensionMismatch``,
    ``NonFinite``), an h that ``geometry._scalar`` refuses as a step
    size and ``steps`` that is not a non-negative integer
    (``ValueError``), gains or ``utilde`` of another size
    (``DimensionMismatch``) or with NaN/Inf (``NonFinite``), and on a
    theta-family map a singular resolvent I - theta h (A - B K), or
    I - theta h A in open loop (``SingularStep``).  h is read once, as a
    float, so every output is float64 whatever real type h has.  The
    trajectory records each step's controls at its base state, Newton
    iterations and final residual.  A ``MechliftError`` raised in step k carries
    ``step = k`` and the ``state`` that step started from.
    """
    if (gains is None) == (utilde is None):
        raise ValueError("provide exactly one of gains / utilde sequence")
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValueError(f"steps must be a non-negative integer, got {steps!r}")
    sys, transform = bundle.system, bundle.transform
    phi = transform.phi
    n, m = sys.n, sys.m
    if base_map.dim != n:
        raise DimensionMismatch(f"base map must have dim {n}, got {base_map.dim}")

    s0 = _vec(s0, "s0", 2 * n)
    h = _scalar(h, "step size", positive=True)

    if gains is not None:
        K, utilde = _matrix(gains, "gains", (m, 2 * n)), np.empty((steps, 0))
    else:
        K, utilde = None, _vec(np.ravel(utilde), "utilde")
        if utilde.size != steps * m:
            raise DimensionMismatch(f"utilde must have {steps} x {m} entries, not {utilde.size}")
        utilde = utilde.reshape(steps, m)
    minus_kt, update, resolved_b, step_field = _setup(bundle.linear, K, h, base_map.theta)
    lifted = tangent_lift(base_map)

    def field(Z, ut, x, y, d):
        """DTphi(z) f(z) = (Y, D2phi(x)[y, y] + Dphi(x) ydot) at z = (x, y) =
        Tphi^-1(Z), d = Dphi(x), under utilde ``ut`` (-K^T Z under gains), with
        the physical control u and that utilde."""
        if gains is not None:
            ut = Z.dot(minus_kt)
        pushed, u = _pushed_acceleration(sys, transform, x, y, ut, d, Z[..., :n])
        return np.concatenate([Z[..., n:], pushed], axis=-1), u, ut

    def evaluate(z0, z1, ut):
        """The step z0 -> z1, or a stack of steps, under utilde ``ut``, from one
        lifted-map inverse, one pull-back and one pushed field: the pulled end
        (x, y), and at the base point the pushed field, u and utilde, and v."""
        base, v = lifted.inverse(z0, z1)
        # ends, then base points, as rows of one stack; a chart may give one d for all rows
        Z = np.concatenate([z1, base]).reshape(-1, 2 * n)
        x, y, d = _pull(phi, Z[:, :n], Z[:, n:])
        end, at = (slice(len(z1)), slice(len(z1), None)) if z1.ndim > 1 else (0, 1)
        return (x[end], y[end]) + field(base, ut, x[at], y[at], d[at] if d.ndim > 2 else d) + (v,)

    states = np.empty((steps + 1, 2 * n))
    states[0] = s0
    u_log = np.empty((steps, m))
    ut_log = np.empty((steps, m))
    iterations = np.zeros(steps, int)
    residuals = np.empty(steps)

    done = 0
    if update is not None and steps:
        orbit = np.empty((steps + 1, 2 * n))
        orbit[0] = transform.push_state(s0[:n], s0[n:])
        # in open loop N utilde_k for every step, N = h (I - theta h A)^-1 B
        drive = None if gains is not None else h * utilde @ resolved_b.T
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(steps):
                # ndarray.dot into the next row, here and for -K^T: @'s product
                update.dot(orbit[k], orbit[k + 1])
                if drive is not None:
                    orbit[k + 1] += drive[k]
        # a non-finite end is its step's fault, as a raise is; every later end takes it in
        good = np.count_nonzero(np.isfinite(orbit[1:])) // (2 * n)

        try:
            values = evaluate(orbit[:good], orbit[1:good + 1], utilde[:good]) if good else ()
        except _ORBIT_FAULTS:
            # the first step that raises: one step at a time, up to it
            rows = []
            for k in range(good):
                try:
                    rows.append(evaluate(orbit[k], orbit[k + 1], utilde[k]))
                except _ORBIT_FAULTS:
                    break
            values = [np.array(column) for column in zip(*rows)]
        done = len(values[0]) if values else 0
        if done:
            x, y, pushed, u, ut, v = values
            norms = _norms(v - h * pushed)
            # the pulled ends; the Newton steps past a failing one rewrite theirs
            ends = states[1:done + 1]
            ends[:, :n], ends[:, n:] = x, y
            start = np.concatenate([orbit[:done], utilde[:done]], axis=1)
            certified = norms < _newton_bound(orbit[:done], start.dot(step_field.T))
            # and the end finite (counted: a reduction costs microseconds)
            finite = np.isfinite(ends)
            if np.count_nonzero(finite) < finite.size:
                certified &= finite.all(axis=1)
            if np.count_nonzero(certified) < done:
                done = int(certified.argmin())
            ut_log[:done], u_log[:done] = ut[:done], u[:done]
            residuals[:done] = norms[:done]

    for k in range(done, steps):
        try:
            z_k = transform.push_state(states[k][:n], states[k][n:])
            result = step_sode(lifted, lambda Z, k=k: field(
                Z, utilde[k], *_pull(phi, Z[..., :n], Z[..., n:]))[0], z_k, h)
            # the end, and the controls at the converged base state of the step
            x, y, _, u_log[k], ut_log[k], _ = evaluate(z_k, result.state, utilde[k])
            states[k + 1, :n], states[k + 1, n:] = x, y
        except MechliftError as exc:
            exc.step = k
            exc.state = states[k].copy()
            raise
        iterations[k] = result.iterations
        residuals[k] = result.residual

    return Trajectory(h * np.arange(steps + 1), states, u_log, ut_log, iterations, residuals)


def linear_one_step(lms: LinearMechanicalSystem, dmap: DiscretizationMap, h,
                    gains=None):
    """Matrices (M, N) of the one-step update z+ = M z + N utilde.

    The update is the second-order scheme of ``dmap`` applied to the
    (optionally closed-loop) linear system, recovered column by column;
    probing verifies it is affine and raises ``NotLinearityPreserving``
    otherwise.  Each probe is one ``step_sode`` solve; on a theta-family
    ``dmap`` the result is, to the Newton tolerance, the closed form
    ``fl_discretize`` certifies.  ``gains`` are read as ``fl_discretize``
    reads them: another shape than m x 2n raises ``DimensionMismatch`` and
    a NaN/Inf ``NonFinite``, before any solve; h is read by ``step_sode``.
    """
    n, m = lms.n, lms.m
    sys = lms.as_mechanical_system()
    lifted = tangent_lift(dmap)
    K = np.zeros((m, 2 * n)) if gains is None else _matrix(gains, "gains", (m, 2 * n))

    def advance(z, ut):
        return step_sode(lifted, lambda base: sode_field(sys, base, ut - base @ K.T), z, h).state

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


@dataclass(eq=False)
class TwoStepRecurrence:
    """Position-only recurrence x+2 = A2 x_k + B2 x_{k+1} + P0 u_k + P1 u_{k+1}."""

    A2: np.ndarray
    B2: np.ndarray
    P0: np.ndarray
    P1: np.ndarray

    def iterate(self, x0, x1, u_seq):
        """Positions, the two seeds (n-vectors read by ``geometry._vec``) first, under ``u_seq``
        read as ``fl_discretize`` reads ``utilde``: k x m entries, raveled (m = 1: k controls)."""
        n, m = self.P0.shape
        u_seq = _vec(np.ravel(u_seq), "u_seq")
        if u_seq.size % m:
            raise DimensionMismatch(f"u_seq must have k x {m} entries, not {u_seq.size}")
        u_seq = u_seq.reshape(-1, m)
        out = [_vec(x0, "x0", n), _vec(x1, "x1", n)]
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
    ``poles``, 2n complex numbers read by ``geometry._vec``, closed under
    conjugation (``ValueError``).  Raises ``Uncontrollable`` when the
    controllability matrix is not finite or its smallest singular value
    is below 1e-12 of its largest, and when the characteristic polynomial
    of A - B K misses ``np.poly(poles)`` by more than 1e-8 of its largest
    coefficient: the polynomial holds a repeated pole set to rounding,
    where a solver returns its eigenvalues only to ~eps^(1/4).
    """
    if lms.m != 1:
        raise MultiInputUnsupported("pole placement implemented for m = 1 only")
    A, B = lms.stacked()
    dim = A.shape[0]
    poles = _vec(poles, "poles", dim, complex)
    if not np.allclose(np.sort_complex(poles), np.sort_complex(poles.conj())):
        raise ValueError("pole set must be closed under conjugation")

    # a finite target can over- or underflow on the way: each inf or NaN is
    # refused below, so numpy neither warns nor raises
    with np.errstate(over="ignore", invalid="ignore"):
        ctrb = np.column_stack([np.linalg.matrix_power(A, i) @ B for i in range(dim)])
        if not np.isfinite(ctrb).all():
            raise Uncontrollable("controllability matrix overflows")
        sv = np.linalg.svd(ctrb, compute_uv=False)
        ratio = sv[-1] / sv[0] if sv[0] > 0.0 else 0.0
        if ratio < 1e-12:
            raise Uncontrollable(f"controllability matrix near-singular (ratio {ratio:.1e})")

        coeffs = np.real(np.poly(poles))
        pa = np.zeros_like(A)
        for c in coeffs:
            pa = pa @ A + c * np.eye(dim)
        try:
            K = (np.linalg.solve(ctrb.T, np.eye(dim)[-1]) @ pa)[None, :]
        except np.linalg.LinAlgError as exc:
            raise Uncontrollable("controllability matrix is singular") from exc
        a_cl = A - B @ K
        if not (np.isfinite(a_cl).all() and np.abs(np.poly(a_cl) - coeffs).max()
                <= 1e-8 * np.abs(coeffs).max()):
            raise Uncontrollable("placed eigenvalues failed validation")
    return K


def theta_update_matrix(a, h, theta) -> np.ndarray:
    """One-step matrix M = (I - theta h A)^-1 (I + (1 - theta) h A) of x+ = M x.

    The update the theta-family map induces on the linear field x' = A x:
    explicit Euler at theta = 0, implicit Euler at 1, the Cayley update
    at 1/2.  ``a`` is read by ``geometry._matrix`` as a square matrix,
    and h and theta as floats by ``geometry._scalar``: each must be a
    finite real number (``TypeError``, ``NonFinite``), and h may be
    negative, as a step backwards; all before any arithmetic.  Raises
    ``SingularStep`` when the resolvent I - theta h A is singular.
    """
    a = _matrix(a, "a")
    return _theta_update(a, _scalar(h, "step size"), _scalar(theta, "theta"), a[:, :0])


def _theta_update(a, h, theta, b):
    """M for a float matrix ``a``, then (I - theta h A)^-1 ``b``'s columns."""
    eye = np.eye(a.shape[0])
    rhs = np.hstack([eye + ((1.0 - theta) * h) * a, b])
    try:
        return np.linalg.solve(eye - (theta * h) * a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularStep(f"resolvent I - {theta} h A is singular") from exc


def _times_gain(k, v, name):
    """K v as three floats, for a gain K that is a scalar (read by ``_scalar``) or a
    3x3 matrix (read by ``_matrix``) and three floats v."""
    # a float skips np.ndim, which costs ~1 us, a sixth of an attitude step
    if type(k) is float or np.ndim(k) == 0:
        k = _scalar(k, name)
        return k * v[0], k * v[1], k * v[2]
    return (_matrix(k, name, (3, 3)) @ v).tolist()


def so3_closed_loop_step(rotation, omega, k1, k2, h):
    """Proportional-derivative attitude step on the rotation group.

    R+ = R exp(h hat(Omega)); Omega+ = Omega - h K1 log(R) - h K2 Omega.
    The rotation update is a group product, so orthogonality is
    preserved to roundoff regardless of step size; R+ is the one
    ``Rotation`` the step builds, by one ``geometry._validated`` call on
    the nine floats of the product, which checks them as every rotation
    is checked and then makes its array.  R is read as :func:`so3_log`
    reads it and Omega as a finite 3-vector (``DimensionMismatch``,
    ``NonFinite``), each once as Python floats; the logarithm, the
    increment and the product R exp(h hat(Omega)) run on them in
    ``math``.  Each gain is a scalar (K I), read as a float by
    ``geometry._scalar`` (``TypeError``, ``NonFinite``), or a 3x3 matrix,
    read by ``geometry._matrix``, and h is read as a
    float step size (``ValueError``), so R+ and Omega+ are float64
    whatever real types they have.  An h Omega whose angle overflows
    raises ``NonFinite``, and so does an Omega+ that is not finite, where
    h K1 log(R) or h K2 Omega overflows.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r = _entries(rotation)
    # one shape test and one sum in the common case; _vec refuses any other Omega by name
    omega = np.asarray(omega, dtype=float)
    w0, w1, w2 = w = (omega if omega.shape == (3,) else _vec(omega, "omega", 3)).tolist()
    if not math.isfinite(w0 + w1 + w2):
        _vec(omega, "omega")
    h = _scalar(h, "step size", positive=True)
    xi = _log(r)
    e00, e01, e02, e10, e11, e12, e20, e21, e22 = _rodrigues(h * w0, h * w1, h * w2)
    r_next = _rotation([
        r00 * e00 + r01 * e10 + r02 * e20, r00 * e01 + r01 * e11 + r02 * e21,
        r00 * e02 + r01 * e12 + r02 * e22, r10 * e00 + r11 * e10 + r12 * e20,
        r10 * e01 + r11 * e11 + r12 * e21, r10 * e02 + r11 * e12 + r12 * e22,
        r20 * e00 + r21 * e10 + r22 * e20, r20 * e01 + r21 * e11 + r22 * e21,
        r20 * e02 + r21 * e12 + r22 * e22,
    ])
    a0, a1, a2 = _times_gain(k1, xi, "K1")
    b0, b1, b2 = _times_gain(k2, w, "K2")
    omega_next = o0, o1, o2 = w0 - h * a0 - h * b0, w1 - h * a1 - h * b1, w2 - h * a2 - h * b2
    # the same test on Omega+: a non-finite rate from finite inputs is refused here
    if not math.isfinite(o0 + o1 + o2) and not all(map(math.isfinite, omega_next)):
        raise NonFinite(f"Omega+ = {omega_next} is not finite: h K1 log(R) or h K2 Omega "
                        "overflows")
    return r_next, np.array(omega_next)


def linear_flow(a, z0, times) -> np.ndarray:
    """Exact flow expm(a t) z0 of z' = a z, one row per entry of ``times``.

    Scaling and squaring (Moler and Van Loan, "Nineteen dubious ways to
    compute the exponential of a matrix", SIAM Review 2003), on the
    stack of times: each a t is scaled by 2^-s until its 1-norm is at
    most 1/2, exponentiated by a degree-18 Taylor sum (truncation below
    1e-22) and squared s times.  No eigendecomposition, so defective
    matrices such as a double integrator are handled as well; t = 0
    returns ``z0`` bit for bit.  ``a`` is read by ``geometry._matrix`` as a
    square matrix, and ``z0``, one entry per row of ``a``, and ``times`` by
    ``geometry._vec``, before any arithmetic.
    """
    a = _matrix(a, "a")
    z0 = _vec(z0, "z0", len(a))
    at = _vec(times, "times")[:, None, None] * a
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
    return e @ z0


ORDER_FLOOR = 1e-10


@dataclass(eq=False)
class OrderStudy:
    """Log-log fit of global error against step size; ``exits`` holds, per
    step size, the ``OutsideChart`` its run raised (its error is NaN and
    the fit leaves it out), else None."""

    h: np.ndarray
    errors: np.ndarray
    slope: float | None
    fit_residual: float | None
    floored: bool
    exits: list


def grid_steps(t_final, h) -> int:
    """Steps of size h to t_final; ``ValueError`` unless ``geometry._scalar``
    reads both as finite positive floats and t_final / h is a finite whole
    number to 1e-9 relative."""
    h = _scalar(h, "step size", positive=True)
    t_final = _scalar(t_final, "final time", positive=True)
    if t_final / h == math.inf:
        raise ValueError(f"t_final / h overflows: {t_final} / {h}")
    steps = int(round(t_final / h))
    if abs(steps * h - t_final) > 1e-9 * t_final:
        raise ValueError(f"t_final is not an integer multiple of h = {h}")
    return steps


def order_study(stepper, reference_state, s0, t_final, h_list) -> OrderStudy:
    """Estimate the global convergence order of a stepper.

    ``stepper(s0, h, steps)`` must return the state at t_final = h * steps;
    ``reference_state`` is the accurate terminal state the errors are
    measured against.  Errors below ``ORDER_FLOOR`` flag the fit as
    floored (self-comparison / interpolation noise).  A run that raises
    ``OutsideChart`` is recorded in ``exits``; the fit takes the others.
    Before any run ``geometry._vec`` reads ``h_list`` (a repeated h raises ``ValueError``)
    and ``reference_state``, of s0's size; it reads each final state too, named by its h.
    """
    h_list = _vec(h_list, "h_list")
    if len(set(h_list.tolist())) < h_list.size:
        raise ValueError(f"an order fit needs distinct step sizes, got {h_list.tolist()}")
    ref = _vec(reference_state, "reference_state", np.size(s0))
    errors, exits = np.full(h_list.size, np.nan), [None] * h_list.size
    for i, h in enumerate(h_list):
        try:
            final = stepper(s0, h, grid_steps(t_final, h))
        except OutsideChart as exc:
            exits[i] = exc
            continue
        errors[i] = np.linalg.norm(_vec(final, f"final state at h = {h}", ref.size) - ref)
    ran = np.array([exc is None for exc in exits], bool)

    floored = bool(ran.any() and np.max(errors[ran]) < ORDER_FLOOR)
    if ran.sum() < 2 or np.any(errors[ran] == 0.0) or floored:
        return OrderStudy(h_list, errors, None, None, floored, exits)
    logs_h, logs_e = np.log(h_list[ran]), np.log(errors[ran])
    slope, intercept = np.polyfit(logs_h, logs_e, 1)
    resid = float(np.sqrt(np.mean((logs_e - (slope * logs_h + intercept)) ** 2)))
    return OrderStudy(h_list, errors, float(slope), resid, floored, exits)
