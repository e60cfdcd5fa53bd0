"""Discretization maps on a chart, their axiom checks, and their lifts.

A discretization map sends a (point, velocity) pair on an n-dimensional
chart to an ordered pair of points straddling it; every one-step
numerical scheme is such a map.  Two axioms pin the construction down:
the zero velocity must return the doubled point, and the velocity
derivative of (second output - first output) at zero velocity must be
the identity.

Maps can be pushed through a diffeomorphism (to transport a scheme
between charts) and lifted to the tangent bundle (to integrate
second-order dynamics).  Both constructions are closed under each other
and commute; the test suite checks that pointwise.
"""

import numpy as np

from .errors import DimensionMismatch
from .geometry import (
    SECOND_ORDER_STEP,
    float_array,
    numeric_jacobian,
)

_KINDS = ("explicit-euler", "implicit-euler", "midpoint", "lifted", "tangent-lift")


class DiscretizationMap:
    """One-step scheme on an n-dimensional chart.

    Parameters
    ----------
    dim : int
        Chart dimension n.
    kind : str
        One of ``explicit-euler``, ``implicit-euler``, ``midpoint``,
        ``lifted``, ``tangent-lift``.
    forward : callable
        (x, v) -> (x0, x1), two n-vectors.
    inverse : callable
        (x0, x1) -> (x, v); left inverse of ``forward`` on the map's
        domain of validity.
    jacobian : callable
        (x, v) -> 2n x 2n derivative of the packed forward map.

    ``theta`` is set on the members of the affine family built by
    :func:`_theta_map` and is None on every other map.
    """

    theta = None

    def __init__(self, dim, kind, forward, inverse, jacobian):
        if kind not in _KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        self.dim = int(dim)
        self.kind = kind
        self._forward = forward
        self._inverse = inverse
        self._jacobian = jacobian

    def forward(self, x, v):
        return self._forward(float_array(x), float_array(v))

    def inverse(self, x0, x1):
        return self._inverse(float_array(x0), float_array(x1))

    def jacobian(self, x, v):
        """Derivative of the packed forward map at (x, v)."""
        return self._jacobian(float_array(x), float_array(v))


def _theta_map(dim, kind, theta) -> DiscretizationMap:
    """Map (x, v) -> (x - theta v, x + (1 - theta) v) on a dim-chart.

    The built-in maps are its members theta = 0, 1 and 1/2; the inverse
    is ((1 - theta) x0 + theta x1, x1 - x0).
    """
    eye = np.eye(dim)
    jac = np.block([[eye, -theta * eye], [eye, (1.0 - theta) * eye]])
    dmap = DiscretizationMap(
        dim,
        kind,
        forward=lambda x, v: (x - theta * v, x + (1.0 - theta) * v),
        inverse=lambda a, b: ((1.0 - theta) * a + theta * b, b - a),
        jacobian=lambda x, v: jac,
    )
    dmap.theta = theta
    return dmap


def make_explicit_euler(n) -> DiscretizationMap:
    """Map (x, v) -> (x, x + v); the forward Euler scheme."""
    return _theta_map(int(n), "explicit-euler", 0.0)


def make_implicit_euler(n) -> DiscretizationMap:
    """Map (x, v) -> (x - v, x); the backward Euler scheme."""
    return _theta_map(int(n), "implicit-euler", 1.0)


def make_midpoint(n) -> DiscretizationMap:
    """Map (x, v) -> (x - v/2, x + v/2); the symmetric (midpoint) scheme."""
    return _theta_map(int(n), "midpoint", 0.5)


class AxiomReport:
    """Per-sample defects of the two discretization-map axioms."""

    def __init__(self, kind, points, zero_defects, jacobian_defects, tols):
        self.kind = kind
        self.points = points
        self.zero_defects = np.asarray(zero_defects)
        self.jacobian_defects = np.asarray(jacobian_defects)
        self.tols = tols

    @property
    def worst_zero(self):
        return float(self.zero_defects.max())

    @property
    def worst_jacobian(self):
        return float(self.jacobian_defects.max())

    @property
    def passed(self):
        return bool(
            (self.zero_defects < self.tols[0]).all()
            and (self.jacobian_defects < self.tols[1]).all()
        )

    def failures(self):
        bad = (self.zero_defects >= self.tols[0]) | (
            self.jacobian_defects >= self.tols[1]
        )
        return [self.points[i] for i in np.nonzero(bad)[0]]

    def __repr__(self):
        flag = "pass" if self.passed else "FAIL"
        return (
            f"AxiomReport({self.kind}: {flag}, "
            f"zero {self.worst_zero:.2e}, jacobian {self.worst_jacobian:.2e})"
        )


def verify_axioms(dmap, samples, zero_tol=1e-10, jacobian_tol=1e-6) -> AxiomReport:
    """Check both discretization-map axioms at each sample point.

    Axiom 1: forward(x, 0) == (x, x).  Axiom 2: the velocity derivative
    of (second component - first component) at (x, 0) is the identity,
    estimated by central differences.
    """
    n = dmap.dim
    zero = np.zeros(n)
    zero_defects, jac_defects = [], []
    points = [np.asarray(x, float) for x in samples]
    for x in points:
        a, b = dmap.forward(x, zero)
        zero_defects.append(max(np.abs(a - x).max(), np.abs(b - x).max()))

        def second_minus_first(v, x=x):
            lo, hi = dmap.forward(x, v)
            return hi - lo

        dv = numeric_jacobian(second_minus_first, zero)
        jac_defects.append(np.abs(dv - np.eye(n)).max())
    return AxiomReport(dmap.kind, points, zero_defects, jac_defects,
                       (zero_tol, jacobian_tol))


class Diffeomorphism:
    """Invertible chart change with derivative data.

    Parameters
    ----------
    dim : int
    fwd, inv : callable
        The map and its inverse on n-vectors.
    jac : callable
        x -> n x n derivative.
    second : callable, optional
        (x, u, v) -> n-vector bilinear second-derivative action
        D2(x)[u, v]; central differences of ``jac`` when omitted.
    """

    def __init__(self, dim, fwd, inv, jac, second=None):
        self.dim = int(dim)
        self._fwd = fwd
        self._inv = inv
        self._jac = jac
        self._second = second

    def forward(self, x):
        return float_array(self._fwd(float_array(x)))

    def inverse(self, x):
        return float_array(self._inv(float_array(x)))

    def jacobian(self, x):
        return float_array(self._jac(float_array(x)))

    def second_deriv(self, x, u, v):
        """Bilinear action D2(x)[u, v] of the second derivative."""
        if self._second is not None:
            return float_array(self._second(x, float_array(u), float_array(v)))
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        s = SECOND_ORDER_STEP
        jp = self.jacobian(x + s * u)
        jm = self.jacobian(x - s * u)
        return (jp - jm) @ np.asarray(v, float) / (2.0 * s)


def identity_diffeomorphism(n) -> Diffeomorphism:
    n = int(n)
    eye = np.eye(n)
    return Diffeomorphism(
        n,
        fwd=lambda x: x.copy(),
        inv=lambda x: x.copy(),
        jac=lambda x: eye,
        second=lambda x, u, v: np.zeros(n),
    )


def tangent_map(phi: Diffeomorphism) -> Diffeomorphism:
    """Tangent lift of a chart change: (x, v) -> (phi(x), Dphi(x) v).

    Its derivative is the block map
    (dx, dv) -> (Dphi dx, D2phi[dx, v] + Dphi dv), which is what a
    second tangent lift consumes.
    """
    n = phi.dim

    def fwd(xv):
        x, v = xv[:n], xv[n:]
        return np.concatenate([phi.forward(x), phi.jacobian(x) @ v])

    def inv(xv):
        x = phi.inverse(xv[:n])
        v = np.linalg.solve(phi.jacobian(x), xv[n:])
        return np.concatenate([x, v])

    def jac(xv):
        x, v = xv[:n], xv[n:]
        d = phi.jacobian(x)
        s = np.column_stack([phi.second_deriv(x, e, v) for e in np.eye(n)])
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = d
        out[n:, :n] = s
        out[n:, n:] = d
        return out

    return Diffeomorphism(2 * n, fwd, inv, jac)


def lift_by_diffeo(dmap: DiscretizationMap, phi: Diffeomorphism) -> DiscretizationMap:
    """Transport a discretization map through a chart change.

    The returned map acts on the source chart of ``phi``: push (x, v)
    through the tangent map, apply ``dmap``, pull both outputs back.
    Chart-domain errors (``OutsideChart``) propagate from ``phi``.
    """
    if dmap.dim != phi.dim:
        raise DimensionMismatch(
            f"map dimension {dmap.dim} != diffeomorphism dimension {phi.dim}"
        )
    n = dmap.dim
    tphi = tangent_map(phi)

    def forward(x, v):
        a, b = dmap.forward(phi.forward(x), phi.jacobian(x) @ v)
        return phi.inverse(a), phi.inverse(b)

    def inverse(a, b):
        z, w = dmap.inverse(phi.forward(a), phi.forward(b))
        x = phi.inverse(z)
        return x, np.linalg.solve(phi.jacobian(x), w)

    def jacobian(x, v):
        # chain rule through Tphi, the base map, and the two pullbacks
        jt = tphi.jacobian(np.concatenate([x, v]))
        jb = dmap.jacobian(phi.forward(x), jt[:n, :n] @ v)
        a, b = forward(x, v)
        pulled = jb @ jt
        out = np.zeros((2 * n, 2 * n))
        out[:n] = np.linalg.solve(phi.jacobian(a), pulled[:n])
        out[n:] = np.linalg.solve(phi.jacobian(b), pulled[n:])
        return out

    return DiscretizationMap(n, "lifted", forward, inverse, jacobian)


def tangent_lift(dmap: DiscretizationMap) -> DiscretizationMap:
    """Lift a map on an n-chart to the induced map on the 2n tangent chart.

    Forward: swap the vector-bundle structures, then apply the tangent
    of the base map.  On packed coordinates the base point is (x, xdot)
    and the input vector is (y, ydot); the outputs are the two tangent
    points (x0, v0) and (x1, v1).

    A member of the affine theta family is its own tangent: its lift is
    the same member on the 2n chart.  For any other map the inverse is
    structural: recover (x, y) from the base inverse, then solve the
    base Jacobian for (xdot, ydot); the lift's Jacobian would need the
    base map's second derivative, and is a central difference of the
    forward map.

    The lift commutes with chart transport (criterion 3): the lift of
    ``lift_by_diffeo(dmap, phi)`` is ``lift_by_diffeo(tangent_lift(dmap),
    tangent_map(phi))``.  ``fl_discretize`` relies on this to solve each
    closed-loop step with the lift of the base map itself, in the
    linearizing chart: the step is exactly the same.
    """
    n = dmap.dim
    if dmap.theta is not None:
        return _theta_map(2 * n, "tangent-lift", dmap.theta)

    def forward(s, w):
        x, xd = s[:n], s[n:]
        y, yd = w[:n], w[n:]
        a, b = dmap.forward(x, y)
        j = dmap.jacobian(x, y)
        t = j @ np.concatenate([xd, yd])
        return np.concatenate([a, t[:n]]), np.concatenate([b, t[n:]])

    def inverse(s0, s1):
        x, y = dmap.inverse(s0[:n], s1[:n])
        t = np.concatenate([s0[n:], s1[n:]])
        sol = np.linalg.solve(dmap.jacobian(x, y), t)
        return np.concatenate([x, sol[:n]]), np.concatenate([y, sol[n:]])

    def jacobian(s, w):
        return numeric_jacobian(lambda q: np.concatenate(forward(q[:2 * n], q[2 * n:])),
                                np.concatenate([s, w]))

    return DiscretizationMap(2 * n, "tangent-lift", forward, inverse, jacobian)
