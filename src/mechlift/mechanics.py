"""Mechanical control systems, feedback transformations, and the two benchmarks.

A mechanical control system on an n-dimensional chart is the data
(Christoffel symbols, drift field, control fields): the second-order
dynamics read

    xdot = y,   ydot_i = -Gamma^i_jk(x) y_j y_k + e_i(x) + sum_r g_ir(x) u_r.

A mechanical feedback transformation is a chart change plus a
velocity-quadratic control substitution u = y^T gamma y + alpha + beta
utilde; applying one to a suitable system yields a flat linear system
xtildedot = ytilde, ytildedot = A xtilde + B utilde.

Two systems ship with the package: the inertia wheel pendulum and the
rigid body on SO(3).
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .discretization import Diffeomorphism, identity_diffeomorphism
from .errors import DimensionMismatch, OutsideChart, SingularFeedback
from .geometry import (
    Rotation,
    float_array,
    hat,
    numeric_jacobian,
    so3_exp,
    so3_log,
)


@dataclass
class MechanicalSystem:
    """Connection coefficients, drift, and control fields on an n-chart.

    gamma(x) returns the n x n x n array Gamma^i_jk, symmetric in (j, k);
    e(x) the drift n-vector; g(x) the n x m matrix of control fields.
    """

    n: int
    m: int
    gamma: Callable[[np.ndarray], np.ndarray]
    e: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]


@dataclass
class MFTransform:
    """Chart change plus velocity-quadratic feedback data.

    The feedback realizes u = y^T gamma y + alpha(x) + beta(x) utilde,
    with gammaF(x) an m x n x n stack of symmetric quadratic forms.
    """

    phi: Diffeomorphism
    alpha: Callable[[np.ndarray], np.ndarray]
    beta: Callable[[np.ndarray], np.ndarray]
    gammaF: Callable[[np.ndarray], np.ndarray]

    def push_state(self, x, y):
        """Tangent-lifted chart change (x, y) -> (phi(x), Dphi(x) y), stacked."""
        x = float_array(x)
        return np.concatenate([self.phi.forward(x), self.phi.jacobian(x) @ float_array(y)])


@dataclass
class LinearMechanicalSystem:
    """Flat linear mechanical system ytildedot = A xtilde + B utilde."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, float))
        self.B = np.atleast_2d(np.asarray(self.B, float))
        if self.A.shape[0] != self.A.shape[1] or self.B.shape[0] != self.A.shape[0]:
            raise DimensionMismatch("A must be n x n and B n x m")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.B))):
            raise DimensionMismatch("A, B must be finite")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    def stacked(self):
        """First-order pair on the stacked state z = (xtilde, ytilde)."""
        n, m = self.n, self.m
        A_full = np.zeros((2 * n, 2 * n))
        A_full[:n, n:] = np.eye(n)
        A_full[n:, :n] = self.A
        B_full = np.zeros((2 * n, m))
        B_full[n:] = self.B
        return A_full, B_full

    def as_mechanical_system(self) -> MechanicalSystem:
        """View as a flat-connection mechanical system with linear drift."""
        n, m = self.n, self.m
        zero_gamma = np.zeros((n, n, n))
        return MechanicalSystem(
            n, m,
            gamma=lambda x: zero_gamma,
            e=lambda x: self.A @ x,
            g=lambda x: self.B,
        )


def sode_field(sys: MechanicalSystem, s, u):
    """Second-order vector field of a mechanical system on the packed (x, y).

    Returns the 2n-vector (xdot, ydot) with xdot = y and
    ydot_i = -Gamma^i_jk y_j y_k + e_i + (g u)_i under the m-vector
    control u; ``DimensionMismatch`` unless s has 2n entries and u m.
    """
    n = sys.n
    s = float_array(s)
    u = np.atleast_1d(float_array(u))
    if s.size != 2 * n or u.size != sys.m:
        raise DimensionMismatch(
            f"state size {s.size} / control dim {u.size} do not match system ({sys.n}, {sys.m})"
        )
    x, y = s[:n], s[n:]
    G = float_array(sys.gamma(x))
    ydot = -(G @ y @ y) + float_array(sys.e(x)) + float_array(sys.g(x)) @ u
    return np.concatenate([y, ydot])


def apply_feedback(t: MFTransform, x, y, utilde):
    """Physical control from feedback data: u = y^T gamma y + alpha + beta utilde."""
    x = float_array(x)
    y = float_array(y)
    utilde = np.atleast_1d(float_array(utilde))
    gam = float_array(t.gammaF(x))
    beta = np.atleast_2d(float_array(t.beta(x)))
    if beta.shape[1] != utilde.size or gam.shape[1] != y.size:
        raise DimensionMismatch("feedback data inconsistent with (x, y, utilde)")
    return gam @ y @ y + float_array(t.alpha(x)) + beta @ utilde


# ---------------------------------------------------------------------------
# inertia wheel pendulum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PendulumParams:
    """Inertia wheel pendulum constants (SI units).

    The composite constants m0 = a L1 (m1 + 2 m2) and
    md = L1^2 (m1 + 4 m2) + J1 are stored at their published rounded
    values; construction asserts they agree with the defining formulas
    to 0.5%.
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
        if min(self.L1, self.m1, self.m2, self.J1, self.J2, self.a,
               self.m0, self.md) <= 0:
            raise ValueError("all pendulum parameters must be positive")
        m0_f = self.a * self.L1 * (self.m1 + 2 * self.m2)
        md_f = self.L1**2 * (self.m1 + 4 * self.m2) + self.J1
        if abs(m0_f - self.m0) > 0.005 * self.m0 or abs(md_f - self.md) > 0.005 * self.md:
            raise ValueError("m0/md inconsistent with their defining formulas")


class SystemBundle(NamedTuple):
    """A mechanical system together with its linearizing transformation."""

    system: MechanicalSystem
    transform: MFTransform
    linear: LinearMechanicalSystem


def pendulum_system(params: PendulumParams | None = None) -> SystemBundle:
    """Inertia wheel pendulum with its linearizing chart and feedback.

    The configuration is (pendulum angle, wheel angle).  The drift is
    e = (m0/md) sin(x1) (1, -1); the control column is constant.  The
    linearizing chart is

        xt1 = (md + J2)/J2 x1 + x2,   xt2 = (m0/J2) sin x1,

    valid on |x1| < pi/2, and the linear target has
    A = [[0, 1], [0, 0]], B = [[0], [1]] in second-order form.  The
    feedback inverts the published auxiliary control for u; it is
    singular where cos x1 = 0.
    """
    p = params or PendulumParams()
    m0, md, J2 = p.m0, p.md, p.J2
    c1 = (md + J2) / J2
    c2 = m0 / J2
    g_col = np.array([-1.0 / md, (md + J2) / (md * J2)])
    zero_gamma = np.zeros((2, 2, 2))

    system = MechanicalSystem(
        n=2, m=1,
        gamma=lambda x: zero_gamma,
        e=lambda x: np.array([m0 / md * np.sin(x[0]), -m0 / md * np.sin(x[0])]),
        g=lambda x: g_col[:, None],
    )

    def fwd(x):
        return np.array([c1 * x[0] + x[1], c2 * np.sin(x[0])])

    def inv(z):
        s = z[1] / c2
        if abs(s) > 1.0:
            raise OutsideChart(f"|sin x1| = {abs(s):.6f} > 1: point not in chart image")
        x1 = np.arcsin(s)
        return np.array([x1, z[0] - c1 * x1])

    def jac(x):
        return np.array([[c1, 1.0], [c2 * np.cos(x[0]), 0.0]])

    def second(x, u, v):
        return np.array([0.0, -c2 * np.sin(x[0]) * u[0] * v[0]])

    phi = Diffeomorphism(2, fwd, inv, jac, second)

    def regular_cos(x):
        """cos x1, guarded: the feedback is singular where it vanishes."""
        c = np.cos(x[0])
        if abs(c) < 1e-9:
            raise SingularFeedback("feedback singular at x1 = +/- pi/2")
        return c

    def beta(x):
        return np.array([[-md * J2 / (m0 * regular_cos(x))]])

    def alpha(x):
        # -(md J2/(m0 cos)) * (-(m0^2/(2 md J2)) sin 2x1) = m0 sin x1
        return np.array([m0 * np.sin(x[0])])

    def gammaF(x):
        c = regular_cos(x)
        out = np.zeros((1, 2, 2))
        out[0, 0, 0] = -md * np.sin(x[0]) / c
        return out

    transform = MFTransform(phi, alpha, beta, gammaF)
    linear = LinearMechanicalSystem(A=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                    B=np.array([[0.0], [1.0]]))
    return SystemBundle(system, transform, linear)


# ---------------------------------------------------------------------------
# rigid body on SO(3)
# ---------------------------------------------------------------------------

def _rotation_rates_matrix(xi):
    """Matrix mapping exp-chart rates to body angular velocity."""
    th = np.linalg.norm(xi)
    X = hat(xi)
    if th < 1e-4:
        a = 0.5 - th**2 / 24.0
        b = 1.0 / 6.0 - th**2 / 120.0
    else:
        a = (1.0 - np.cos(th)) / th**2
        b = (th - np.sin(th)) / th**3
    return np.eye(3) - a * X + b * (X @ X)


def _rotation_rates_matrix_inv(xi):
    """Inverse of :func:`_rotation_rates_matrix` in closed form."""
    th = np.linalg.norm(xi)
    X = hat(xi)
    if th < 1e-4:
        c = 1.0 / 12.0 + th**2 / 720.0
    else:
        c = 1.0 / th**2 - (1.0 + np.cos(th)) / (2.0 * th * np.sin(th))
    return np.eye(3) + 0.5 * X + c * (X @ X)


@dataclass
class RigidBodySystem:
    """Rotational rigid-body dynamics with inertia J.

    Carries the group-level state evolution, the torque/control
    substitution, the log/exp chart, the flat linear target, and the
    exponential-chart mechanical system with its linearizing feedback,
    used by the linearizability and equivalence checks.
    """

    inertia: np.ndarray

    def __post_init__(self):
        J = np.asarray(self.inertia, float)
        if J.shape != (3, 3):
            raise DimensionMismatch("inertia must be 3x3")
        if np.abs(J - J.T).max() > 1e-12 or np.any(np.linalg.eigvalsh(J) <= 0):
            raise ValueError("inertia must be symmetric positive definite")
        self.inertia = J
        self.linear = LinearMechanicalSystem(A=np.zeros((3, 3)), B=np.eye(3))

    # -- group-level dynamics -------------------------------------------------

    def derivative(self, rotation, omega, torque):
        """(Rdot, Omegadot) under dynamics Rdot = R hat(Omega),
        Omegadot = J^-1 (-Omega x J Omega + torque)."""
        R = rotation.r if isinstance(rotation, Rotation) else np.asarray(rotation, float)
        omega = np.asarray(omega, float)
        rdot = R @ hat(omega)
        omdot = np.linalg.solve(
            self.inertia, -np.cross(omega, self.inertia @ omega) + np.asarray(torque, float)
        )
        return rdot, omdot

    def torque_from_control(self, omega, u):
        """Physical torque realizing the normalized control: tau = Omega x J Omega + J u."""
        omega = np.asarray(omega, float)
        return np.cross(omega, self.inertia @ omega) + self.inertia @ np.asarray(u, float)

    def control_from_torque(self, omega, tau):
        """Inverse of :meth:`torque_from_control`."""
        omega = np.asarray(omega, float)
        return np.linalg.solve(
            self.inertia, np.asarray(tau, float) - np.cross(omega, self.inertia @ omega)
        )

    # -- log/exp chart ---------------------------------------------------------

    def to_chart(self, rotation, omega):
        """Stacked (xi, Omega) with xi the axis-angle coordinates of the rotation."""
        return np.concatenate([so3_log(rotation), np.asarray(omega, float)])

    def from_chart(self, z):
        z = np.asarray(z, float)
        return so3_exp(z[:3]), z[3:].copy()

    # -- mechanical-system chart views ------------------------------------------

    def exp_chart_system(self) -> MechanicalSystem:
        """Second-order system in exp coordinates with velocity y = xidot.

        Body angular velocity relates to chart rates via Omega = A(xi) y;
        differentiating gives a velocity-quadratic drift term that
        defines the connection coefficients, and control fields
        g(xi) = A(xi)^-1.  Valid for |xi| < pi.
        """

        def gamma(x):
            A = _rotation_rates_matrix(x)
            # dB[j] = d(Binv)/dxi_j
            dB = numeric_jacobian(lambda p: _rotation_rates_matrix_inv(p).ravel(), x)
            dB = dB.T.reshape(3, 3, 3)
            # quadratic term of xi'' is  dB[y] A y; Gamma is minus its symmetrization
            t = np.einsum("jil,lk->ijk", dB, A)
            return -0.5 * (t + t.transpose(0, 2, 1))

        return MechanicalSystem(
            n=3, m=3,
            gamma=gamma,
            e=lambda x: np.zeros(3),
            g=_rotation_rates_matrix_inv,
        )

    def exp_chart_transform(self) -> MFTransform:
        """Feedback data linearizing :meth:`exp_chart_system` in place.

        The chart is already the linearizing one, so the chart change is
        the identity; beta = A(xi) and the quadratic form cancels the
        connection term exactly.
        """
        sys3 = self.exp_chart_system()

        def gammaF(x):
            A = _rotation_rates_matrix(x)
            return np.einsum("ri,ijk->rjk", A, sys3.gamma(x))

        return MFTransform(
            phi=identity_diffeomorphism(3),
            alpha=lambda x: np.zeros(3),
            beta=_rotation_rates_matrix,
            gammaF=gammaF,
        )


def rigid_body_system(inertia) -> RigidBodySystem:
    """Rigid-body bundle for a symmetric positive definite inertia matrix."""
    return RigidBodySystem(np.asarray(inertia, float))


# ---------------------------------------------------------------------------
# equivalence check
# ---------------------------------------------------------------------------

MF_EQUIVALENCE_TOL = 1e-7


@dataclass
class MFEquivalenceReport:
    max_defect: float
    witness: tuple | None
    tol: float

    @property
    def passed(self):
        return self.max_defect < self.tol


def verify_mf_equivalence(sys: MechanicalSystem, t: MFTransform,
                          lms: LinearMechanicalSystem, samples) -> MFEquivalenceReport:
    """Check that feedback plus chart change linearizes the system.

    At each sample (x, y, utilde) the closed-loop second-order field is
    pushed through the tangent-lifted chart change and compared with the
    flat field (ytilde, A xtilde + B utilde) at the image point.
    """
    worst, witness = 0.0, None
    for x, y, utilde in samples:
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        u = apply_feedback(t, x, y, utilde)
        ydot = sode_field(sys, np.concatenate([x, y]), u)[sys.n:]
        d = t.phi.jacobian(x)
        xt = t.phi.forward(x)
        # d/dt (Dphi(x) y) = D2phi[y, xdot] + Dphi ydot with xdot = y
        pushed = t.phi.second_deriv(x, y, y) + d @ ydot
        target = lms.A @ xt + lms.B @ np.atleast_1d(np.asarray(utilde, float))
        defect = float(np.abs(pushed - target).max())
        if defect > worst:
            worst, witness = defect, (x.copy(), y.copy(), np.copy(utilde))
    return MFEquivalenceReport(worst, witness, MF_EQUIVALENCE_TOL)
