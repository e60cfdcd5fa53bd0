"""Mechanical control systems, feedback transformations, and the two benchmarks.

A mechanical control system on an n-dimensional chart is the data
(Christoffel symbols, drift field, control fields): the second-order
dynamics read

    xdot = y,   ydot_i = -Gamma^i_jk(x) y_j y_k + e_i(x) + sum_r g_ir(x) u_r.

A mechanical feedback transformation is a chart change plus a
velocity-quadratic control substitution u = y^T gamma y + alpha + beta
utilde that makes a suitable system the flat linear system
xtildedot = ytilde, ytildedot = A xtilde + B utilde; the system, the
chart and that target fix it.

Two systems ship with the package: the inertia wheel pendulum and the
rigid body on SO(3).
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .discretization import Diffeomorphism, identity_diffeomorphism
from .errors import DimensionMismatch, OutsideChart, SingularFeedback
from .geometry import (
    _EYE3,
    RANK_TOL,
    _entries,
    _matrix,
    _matvec,
    _norms,
    _read_only,
    _scalar,
    _vec,
    float_array,
    hat,
    numeric_jacobian,
)


@dataclass
class MechanicalSystem:
    """Connection coefficients, drift, and control fields on an n-chart.

    gamma(x) returns the n x n x n array Gamma^i_jk, symmetric in (j, k);
    e(x) the drift n-vector; g(x) the n x m matrix of control fields.

    Every callable of a system and of its chart acts row by row on
    (..., n) stacks of points, and so does the feedback derived from
    them: it returns the stack of its values, each row exactly the value
    at that row's point, and a 1-d point is a stack of one.  A value
    that does not depend on the point may be returned once for the whole
    stack.  A guard raises when any row offends.
    """

    n: int
    m: int
    gamma: Callable[[np.ndarray], np.ndarray]
    e: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class MFTransform:
    """The mechanical feedback that makes ``system``, in the chart ``phi``, the
    flat ``linear`` system: u = gammaF(y, y) + alpha + beta utilde, with
    P = (Dphi g)^+ (:func:`_pinv`), alpha = P (A phi - Dphi e), beta = P B and
    gammaF = P (Dphi Gamma - D2phi), an m x n x n stack of symmetric forms, each
    on (..., n) stacks.  ``DimensionMismatch`` unless phi has the system's n and
    the target its n and m.  Compared and hashed by identity.
    """

    system: MechanicalSystem
    phi: Diffeomorphism
    linear: "LinearMechanicalSystem"

    def __post_init__(self):
        n, m = self.system.n, self.system.m
        if self.phi.dim != n or (self.linear.n, self.linear.m) != (n, m):
            raise DimensionMismatch(
                f"chart dim {self.phi.dim} / target ({self.linear.n}, {self.linear.m}) do not "
                f"match system ({n}, {m})")

    def push_state(self, x, y):
        """Tangent-lifted chart change (x, y) -> (phi(x), Dphi(x) y), stacked,
        row by row on (..., n) stacks."""
        x = float_array(x)
        return np.concatenate([self.phi.forward(x), _matvec(self.phi.jacobian(x), float_array(y))],
                              axis=-1)

    def _terms(self, x):
        """Dphi(x) and P = (Dphi g)^+ at x."""
        d, g = self.phi.jacobian(x), float_array(self.system.g(x))
        return d, _pinv(d @ g, d, g, float_array(x))

    def alpha(self, x):
        d, p = self._terms(x)
        return _matvec(p, self.phi.forward(x) @ self.linear.A.T
                       - _matvec(d, float_array(self.system.e(x))))

    def beta(self, x):
        return self._terms(x)[1] @ self.linear.B

    def gammaF(self, x):
        (d, p), x = self._terms(x), float_array(x)
        eye = np.eye(self.system.n)
        # D2phi^i_jk = D2phi[e_j, e_k]_i, with i moved to the front
        d2 = np.moveaxis(self.phi.second_deriv(x[..., None, None, :], eye[:, None], eye), -1, -3)
        dgamma = np.einsum("...il,...ljk->...ijk", d, float_array(self.system.gamma(x)))
        return np.einsum("...ri,...ijk->...rjk", p, dgamma - d2)


@dataclass(eq=False)
class LinearMechanicalSystem:
    """Flat linear mechanical system ytildedot = A xtilde + B utilde; compared by identity.
    A is read by ``geometry._matrix`` as a square n x n matrix and B as an n x m one."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.A = _matrix(self.A, "A")
        self.B = _matrix(self.B, "B", (self.n, None))

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    def stacked(self):
        """First-order pair on the stacked state z = (xtilde, ytilde)."""
        zero = np.zeros((self.n, self.n))
        return (np.block([[zero, np.eye(self.n)], [self.A, zero]]),
                np.vstack([np.zeros((self.n, self.m)), self.B]))

    def as_mechanical_system(self) -> MechanicalSystem:
        """View as a flat-connection mechanical system with linear drift."""
        zero_gamma = _read_only(np.zeros((self.n,) * 3))
        return MechanicalSystem(self.n, self.m, gamma=lambda x: zero_gamma,
                                e=lambda x: x @ self.A.T, g=lambda x: self.B)


def _quadratic(q, y):
    """The forms q_i(y, y) = q_ijk y_j y_k of a (..., r, n, n) stack."""
    return _matvec(_matvec(q, y[..., None, :]), y)


def sode_field(sys: MechanicalSystem, s, u):
    """Second-order vector field of a mechanical system on the packed (x, y).

    Returns the 2n-vector (xdot, ydot) with xdot = y and
    ydot_i = -Gamma^i_jk y_j y_k + e_i + (g u)_i under the m-vector control u;
    ``DimensionMismatch`` unless s has 2n entries and u m.  On a (..., 2n)
    stack of states and a (..., m) stack of controls it returns the stack of
    fields.
    """
    s = float_array(s)
    x, y = s[..., :sys.n], s[..., sys.n:]
    w, u = _drift(sys, x, y, u)
    return np.concatenate([y, w + _matvec(float_array(sys.g(x)), u)], axis=-1)


def _sized(sys: MechanicalSystem, x, y, u, where=""):
    """u as a float (..., m) stack; ``DimensionMismatch``, its message led by
    ``where``, unless the float (..., n) stacks x and y have n entries and u m."""
    u = np.atleast_1d(float_array(u))
    if x.shape[-1] != sys.n or y.shape[-1] != sys.n or u.shape[-1] != sys.m:
        raise DimensionMismatch(f"{where}state size {x.shape[-1] + y.shape[-1]} / control dim "
                                f"{u.shape[-1]} do not match system ({sys.n}, {sys.m})")
    return u


def _drift(sys: MechanicalSystem, x, y, u):
    """e - Gamma(y, y) at float (..., n) stacks x, y, and u as :func:`_sized`
    gives it, which checks the sizes before any callable runs."""
    u = _sized(sys, x, y, u)
    G, w = float_array(sys.gamma(x)), float_array(sys.e(x))
    # a zero Gamma (a flat chart) is skipped: at finite y, -Gamma(y, y) + e
    # is e up to the sign of a zero sum
    if np.count_nonzero(G):
        w = -_quadratic(G, y) + w
    return w, u


def apply_feedback(t: MFTransform, x, y, utilde):
    """Physical control u = gammaF(y, y) + alpha + beta utilde of ``t``, from
    :func:`_pushed_acceleration` on its own system, row by row on (..., n) stacks
    of (x, y) and (..., m) stacks of utilde."""
    return _pushed_acceleration(t.system, t, float_array(x), float_array(y), utilde)[1]


def _pushed_acceleration(sys: MechanicalSystem, t: MFTransform, x, y, utilde, d=None, z=None):
    """q + Dphi g u, the closed-loop acceleration of ``sys`` pushed through Tphi,
    q = D2phi[y, y] + Dphi (e - Gamma(y, y)), and the control u = P (A z + B utilde - q),
    P = (Dphi g)^+, from the system and target of ``t`` (reusing the terms of ``sys``
    when it is that system), at float (..., n) stacks x, y, d = Dphi(x) and
    z = phi(x) (evaluated here if not given)."""
    w, utilde = _drift(sys, x, y, utilde)
    if d is None:
        d, z = t.phi.jacobian(x), t.phi.forward(x)
    d2, g = t.phi.second_deriv(x, y, y), float_array(sys.g(x))
    q, dg = d2 + _matvec(d, w), d @ g
    own, linear = t.system, t.linear
    q_own, dg_own, g_own = q, dg, g
    if own is not sys:
        g_own = float_array(own.g(x))
        q_own, dg_own = d2 + _matvec(d, _drift(own, x, y, utilde)[0]), d @ g_own
    u = _matvec(_pinv(dg_own, d, g_own, x), z @ linear.A.T + utilde @ linear.B.T - q_own)
    return q + _matvec(dg, u), u


def _pinv(dg, d, g, x):
    """(Dphi g)^+ on (..., n, m) stacks, in closed form for m = 1, by SVD above;
    ``SingularFeedback`` names the first point of the stack x where
    sigma_min(Dphi g) <= RANK_TOL |Dphi|_F |g|_F."""
    one = dg.shape[-1] == 1
    low = (dg * dg).sum(axis=(-2, -1)) if one else np.linalg.svd(dg, compute_uv=False)[..., -1] ** 2
    bad = low <= (RANK_TOL * RANK_TOL) * (d * d).sum(axis=(-2, -1)) * (g * g).sum(axis=(-2, -1))
    if _any(bad):
        i = np.unravel_index(np.broadcast_to(bad, x.shape[:-1]).argmax(), x.shape[:-1])
        raise SingularFeedback(f"feedback singular at x = {x[i]}: sigma_min(Dphi g) <= "
                               "RANK_TOL |Dphi|_F |g|_F")
    return np.swapaxes(dg, -1, -2) / low[..., None, None] if one else np.linalg.pinv(dg)


# ---------------------------------------------------------------------------
# inertia wheel pendulum
# ---------------------------------------------------------------------------

def _any(flags):
    """Whether any flag is set: a count over an array of flags (``any``
    reduces at microseconds a call), a plain test of a numpy scalar one."""
    return np.count_nonzero(flags) > 0 if flags.ndim else flags


@dataclass(frozen=True)
class PendulumParams:
    """Inertia wheel pendulum constants (SI units).

    The composite constants m0 = a L1 (m1 + 2 m2) and
    md = L1^2 (m1 + 4 m2) + J1 are stored at their published rounded
    values; construction asserts they agree with the defining formulas
    to 0.5%.  Each is read by ``geometry._scalar`` as a finite positive number.
    """

    L1: float = 0.063
    m1: float = 0.02
    m2: float = 0.3
    J1: float = 47e-6
    J2: float = 32e-6
    a: float = 9.81
    m0: float = 0.3832
    md: float = 49e-4

    def __post_init__(self):
        for name, value in vars(self).items():
            _scalar(value, name, positive=True)
        m0_f = self.a * self.L1 * (self.m1 + 2 * self.m2)
        md_f = self.L1**2 * (self.m1 + 4 * self.m2) + self.J1
        if abs(m0_f - self.m0) > 0.005 * self.m0 or abs(md_f - self.md) > 0.005 * self.md:
            raise ValueError("m0/md inconsistent with their defining formulas")


class SystemBundle(NamedTuple):
    """A plant and its linearizing feedback, whose target is read as ``linear``."""

    system: MechanicalSystem
    transform: MFTransform

    linear = property(lambda self: self.transform.linear)


def pendulum_system(params: PendulumParams | None = None) -> SystemBundle:
    """Inertia wheel pendulum with its linearizing chart and feedback.

    The configuration is (pendulum angle, wheel angle).  The drift is
    e = (m0/md) sin(x1) (1, -1); the control column is constant.  The
    linearizing chart is

        xt1 = (md + J2)/J2 x1 + x2,   xt2 = (m0/J2) sin x1,

    valid on |x1| < pi/2, and the linear target has
    A = [[0, 1], [0, 0]], B = [[0], [1]] in second-order form.  The
    feedback is the :class:`MFTransform` of this system, chart and target;
    its guard refuses |cos x1| below about 2.0e-8, x1 = +/- pi/2 included.
    """
    p = params or PendulumParams()
    m0, md, J2 = p.m0, p.md, p.J2
    c1 = (md + J2) / J2
    c2 = m0 / J2
    g_mat = _read_only(np.array([[-1.0 / md], [(md + J2) / (md * J2)]]))
    zero_gamma = _read_only(np.zeros((2, 2, 2)))
    zero_one, plus_minus = np.array([0.0, 1.0]), np.array([1.0, -1.0])

    # Every callable acts row by row on (..., 2) stacks: the chart map reads
    # coordinate i as x.T[i], np.array([...]).T puts its components back last,
    # and the Jacobian is filled in place, so every matrix of a stack is
    # C-contiguous like a single one, which numpy's matrix product rounds alike.
    def e(x):
        # (s, -s) in one product: s (-1.0) rounds as -s
        return m0 / md * np.sin(x[..., :1]) * plus_minus

    system = MechanicalSystem(2, 1, gamma=lambda x: zero_gamma, e=e, g=lambda x: g_mat)

    def fwd(x):
        x1, x2 = x.T[0], x.T[1]
        return np.array([c1 * x1 + x2, c2 * np.sin(x1)]).T

    def inv(z):
        zt = z.T
        s = zt[1] / c2
        if _any(abs(s) > 1.0):
            raise OutsideChart(f"|sin x1| = {abs(s).max():.6f} > 1: point not in chart image")
        x1 = np.arcsin(s)
        return np.array([x1, zt[0] - c1 * x1]).T

    def jac(x):
        out = np.empty(x.shape + (2,))
        out[..., 0, 0], out[..., 0, 1] = c1, 1.0
        out[..., 1, 0], out[..., 1, 1] = c2 * np.cos(x[..., 0]), 0.0
        return out

    def second(x, u, v):
        # (0 w, w) in one product: w 0.0 and w 1.0 round as 0.0 w and w
        return -c2 * np.sin(x[..., :1]) * u[..., :1] * v[..., :1] * zero_one

    phi = Diffeomorphism(2, fwd, inv, jac, second)
    linear = LinearMechanicalSystem(A=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                    B=np.array([[0.0], [1.0]]))
    return SystemBundle(system, MFTransform(system, phi, linear))


# ---------------------------------------------------------------------------
# rigid body on SO(3)
# ---------------------------------------------------------------------------

def _exp_chart_terms(xi):
    """|xi|, hat(xi), the flags of |xi| < 1e-4 (where the series take over)
    and |xi| with 1 in place of the flagged ones, row by row on (..., 3)
    stacks.  Powers are written as products: numpy's power rounds a
    scalar and an array differently."""
    th = _norms(xi)
    X = np.zeros(xi.shape + (3,))
    X[..., 0, 1], X[..., 0, 2] = -xi[..., 2], xi[..., 1]
    X[..., 1, 0], X[..., 1, 2] = xi[..., 2], -xi[..., 0]
    X[..., 2, 0], X[..., 2, 1] = -xi[..., 1], xi[..., 0]
    small = th < 1e-4
    return th, X, small, np.where(small, 1.0, th)


def _rotation_rates_matrix(xi):
    """Matrix mapping exp-chart rates to body angular velocity, row by row
    on (..., 3) stacks."""
    th, X, small, t = _exp_chart_terms(float_array(xi))
    a = np.where(small, 0.5 - th * th / 24.0, (1.0 - np.cos(t)) / (t * t))
    b = np.where(small, 1.0 / 6.0 - th * th / 120.0, (t - np.sin(t)) / (t * t * t))
    return _EYE3 - a[..., None, None] * X + b[..., None, None] * (X @ X)


def _rotation_rates_matrix_inv(xi):
    """Inverse of :func:`_rotation_rates_matrix` in closed form, row by row
    on (..., 3) stacks."""
    th, X, small, t = _exp_chart_terms(float_array(xi))
    c = np.where(small, 1.0 / 12.0 + th * th / 720.0,
                 1.0 / (t * t) - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t)))
    return _EYE3 + 0.5 * X + c[..., None, None] * (X @ X)


@dataclass(eq=False)
class RigidBodySystem:
    """Rotational rigid-body dynamics with inertia J: the group-level state
    evolution, the torque/control substitution, and ``bundle``, built once:
    the second-order system in exp coordinates xi, valid for |xi| < pi, with
    velocity y = xidot, and its derived feedback toward the flat target
    ``linear``.  A rotation goes to and from its chart point by ``so3_log``
    and ``so3_exp``; the bundle's state pairs xi with xidot, not with the body
    angular velocity.  J, read by ``geometry._matrix`` as a 3x3 matrix, must be
    symmetric positive definite (``ValueError``).  Compared and hashed by identity."""

    inertia: np.ndarray

    def __post_init__(self):
        J = _matrix(self.inertia, "inertia", (3, 3))
        if np.abs(J - J.T).max() > 1e-12 or np.any(np.linalg.eigvalsh(J) <= 0):
            raise ValueError("inertia must be symmetric positive definite")
        self.inertia = J
        system = MechanicalSystem(3, 3, gamma=_exp_chart_gamma, e=lambda x: np.zeros(3),
                                  g=_rotation_rates_matrix_inv)
        linear = LinearMechanicalSystem(A=np.zeros((3, 3)), B=np.eye(3))
        self._bundle = SystemBundle(system, MFTransform(system, identity_diffeomorphism(3), linear))

    bundle = property(lambda self: self._bundle)
    linear = property(lambda self: self._bundle.linear)

    # -- group-level dynamics -------------------------------------------------

    def derivative(self, rotation, omega, torque):
        """(Rdot, Omegadot) under Rdot = R hat(Omega), R read as ``so3_log`` reads it,
        and Omegadot = J^-1 (-Omega x J Omega + torque), the control the torque realizes."""
        R = np.reshape(_entries(rotation), (3, 3))
        return R @ hat(_vec(omega, "omega", 3)), self.control_from_torque(omega, torque)

    def torque_from_control(self, omega, u):
        """Physical torque realizing the normalized control: tau = Omega x J Omega + J u;
        Omega and u are read by ``geometry._vec`` as finite 3-vectors."""
        omega = _vec(omega, "omega", 3)
        return np.cross(omega, self.inertia @ omega) + self.inertia @ _vec(u, "u", 3)

    def control_from_torque(self, omega, tau):
        """Inverse of :meth:`torque_from_control`, Omega and tau read as it reads Omega and u."""
        omega = _vec(omega, "omega", 3)
        return np.linalg.solve(self.inertia,
                               _vec(tau, "tau", 3) - np.cross(omega, self.inertia @ omega))

    # -- mechanical-system chart views ------------------------------------------

    def exp_chart_system(self) -> MechanicalSystem:
        """``bundle.system``: body angular velocity Omega = A(xi) y, whose derivative
        gives the connection coefficients, and control fields g(xi) = A(xi)^-1."""
        return self._bundle.system


def _exp_chart_gamma(x):
    """Connection coefficients of the exp-chart system, row by row on (..., 3) stacks."""
    x = float_array(x)
    A = _rotation_rates_matrix(x)
    # dB[..., j, i, l] = d(Binv)_il/dxi_j; the six probes of every
    # point go to Binv in one call
    dB = numeric_jacobian(
        lambda p: _rotation_rates_matrix_inv(p).reshape(p.shape[:-1] + (9,)),
        x[..., None, :])
    dB = np.swapaxes(dB[..., 0, :, :], -1, -2).reshape(x.shape[:-1] + (3, 3, 3))
    # quadratic term of xi'' is  dB[y] A y; Gamma is minus its symmetrization
    t = np.einsum("...jil,...lk->...ijk", dB, A)
    return -0.5 * (t + np.swapaxes(t, -1, -2))


def rigid_body_system(inertia) -> RigidBodySystem:
    """Rigid body, with its exp-chart ``bundle``, of an SPD inertia matrix."""
    return RigidBodySystem(inertia)


# ---------------------------------------------------------------------------
# equivalence check
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class MFEquivalenceReport:
    max_defect: float
    witness: tuple | None

    tol = 1e-7

    @property
    def passed(self):
        return self.max_defect < self.tol


def verify_mf_equivalence(sys: MechanicalSystem, t: MFTransform, samples) -> MFEquivalenceReport:
    """Check that feedback plus chart change linearizes the system.

    At each sample (x, y, utilde) the closed-loop second-order field of
    ``sys`` under ``t`` is pushed through the tangent-lifted chart change
    (:func:`_pushed_acceleration`) and compared with the flat field
    (ytilde, A xtilde + B utilde) of ``t``'s target at the image point.
    When ``sys`` is the transform's own system, the defect is the range
    defect (I - Dphi g P)(A phi + B utilde - q): the part of the target's
    field that the controls cannot reach; a plant other than the
    transform's adds its mismatch.  The samples
    go to each callable as one stack.  The witness is the first
    sample with a defect that is not finite, else the first with the
    largest defect above 0; a defect that is not finite fails.  An empty
    ``samples`` raises ``ValueError``, and a sample whose flat x, y and utilde
    do not have n, n and m entries ``DimensionMismatch`` naming its index.
    """
    rows = [[float_array(s[i]).ravel() for i in range(3)] for s in samples]
    if not rows:
        raise ValueError("verify_mf_equivalence needs at least one sample")
    for i, row in enumerate(rows):
        _sized(sys, *row, f"sample {i}: ")
    x, y, ut = (np.array(column) for column in zip(*rows))
    # d/dt (Dphi(x) y) = D2phi[y, xdot] + Dphi ydot with xdot = y
    z = t.phi.forward(x)
    pushed, _ = _pushed_acceleration(sys, t, x, y, ut, t.phi.jacobian(x), z)
    target = z @ t.linear.A.T + ut @ t.linear.B.T
    defects = np.abs(pushed - target).max(axis=-1)
    i = int(np.where(np.isfinite(defects), defects, np.inf).argmax())
    worst = float(defects[i])
    witness = None if worst == 0.0 else (x[i].copy(), y[i].copy(), ut[i].copy())
    return MFEquivalenceReport(worst, witness)
