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
and commute.  Charts and maps act row by row on (..., n) stacks of
points, so the axioms of any map are checked on a whole stack at once.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .geometry import (SECOND_ORDER_STEP, _matvec, _read_only, _sample_stack, float_array,
                       numeric_jacobian)

_KINDS = ("explicit-euler", "implicit-euler", "midpoint", "lifted", "tangent-lift")
AXIOM_ZERO_TOL = 1e-10
AXIOM_JACOBIAN_TOL = 1e-6


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

    All three act row by row on (..., n) stacks whose leading axes
    agree, and a 1-d point is a stack of one; a Jacobian that does not
    depend on the point may be one 2n x 2n matrix for the whole stack.
    ``theta`` is set on the members of the affine family built by
    :func:`_theta_map` and is None on every other map.  The push ``_push(x, v, t)``
    = (x0, x1, J(x, v) t) is the forward-mode derivative along a direction t per
    point (k at each: t of shape (..., k, 2n), x and v of (..., 1, n); the push of
    the identity is J's transpose).  Only ``jacobian`` builds a matrix.
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

    def _push(self, x, v, t):
        return (*self._forward(x, v), _matvec(self._jacobian(x, v), t))


def _theta_map(dim, kind, theta) -> DiscretizationMap:
    """Map (x, v) -> (x - theta v, x + (1 - theta) v) on a dim-chart.

    The built-in maps are its members theta = 0, 1 and 1/2; the inverse
    is ((1 - theta) x0 + theta x1, x1 - x0).  Both act row by row on
    stacks of (..., dim) points.  The constant Jacobian is built on the
    first ``jacobian`` call, since most users of a map never ask for it,
    and is read-only, as every later call hands it out again.
    """
    jac = None

    def jacobian(x, v):
        nonlocal jac
        if jac is None:
            eye = np.eye(dim)
            jac = _read_only(np.block([[eye, -theta * eye], [eye, (1.0 - theta) * eye]]))
        return jac

    dmap = DiscretizationMap(
        dim,
        kind,
        forward=lambda x, v: (x - theta * v, x + (1.0 - theta) * v),
        inverse=lambda a, b: ((1.0 - theta) * a + theta * b, b - a),
        jacobian=jacobian,
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


@dataclass(eq=False)
class AxiomReport:
    """Per-sample defects of the two discretization-map axioms.  A sample
    fails unless both its defects are below ``tols``, so a NaN defect
    fails; the report passes when no sample fails.  Compared and hashed
    by identity."""

    kind: str
    points: np.ndarray
    zero_defects: np.ndarray
    jacobian_defects: np.ndarray

    tols = (AXIOM_ZERO_TOL, AXIOM_JACOBIAN_TOL)
    worst_zero = property(lambda self: float(self.zero_defects.max()))
    worst_jacobian = property(lambda self: float(self.jacobian_defects.max()))
    passed = property(lambda self: not self.failures())

    def failures(self):
        ok = (self.zero_defects < self.tols[0]) & (self.jacobian_defects < self.tols[1])
        return [self.points[i] for i in np.nonzero(~ok)[0]]


def verify_axioms(dmap, samples) -> AxiomReport:
    """Check both discretization-map axioms at each sample point.

    Axiom 1: forward(x, 0) == (x, x), to ``AXIOM_ZERO_TOL``.  Axiom 2: the
    velocity derivative of (second component - first component) at (x, 0) is
    the identity, estimated by central differences, to ``AXIOM_JACOBIAN_TOL``.
    The map acts row by row on stacks, so both are checked in one pass over
    the (N, n) stack of samples, with one ``numeric_jacobian`` call for all N
    points; each sample's defects are the ones it gets when checked alone.
    Empty ``samples`` raise ``ValueError``, and a sample that is not a finite
    ``dim``-vector ``DimensionMismatch`` or ``NonFinite``, before the map runs.
    """
    n = dmap.dim
    x = _sample_stack(samples, n)
    zero = np.zeros(x.shape)
    a, b = dmap.forward(x, zero)
    zero_defects = np.maximum(np.abs(a - x).max(axis=-1), np.abs(b - x).max(axis=-1))

    def second_minus_first(v):
        # the (N, 2n, n) stack of velocity probes, each at its own point
        lo, hi = dmap.forward(np.broadcast_to(x[:, None], v.shape), v)
        return hi - lo

    dv = numeric_jacobian(second_minus_first, zero)
    return AxiomReport(dmap.kind, x, zero_defects, np.abs(dv - np.eye(n)).max(axis=(-2, -1)))


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
        D2(x)[u, v]; central differences of ``jac`` along each unit
        direction, whatever the size of u and v, when omitted.

    All four act row by row on (..., n) stacks, and a 1-d point is a
    stack of one; ``second``'s three arguments broadcast against each
    other, and a derivative that does not depend on the point may be
    one n x n matrix for the whole stack.  The push ``_push(x, t)`` is
    (phi(x), Dphi(x) t), broadcast as a map's push.
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

    def _push(self, x, t):
        return self.forward(x), _matvec(self.jacobian(x), t)

    def second_deriv(self, x, u, v):
        """Bilinear action D2(x)[u, v] of the second derivative, with x, u
        and v broadcast against each other."""
        x, u, v = float_array(x), float_array(u), float_array(v)
        if self._second is not None:
            return float_array(self._second(x, u, v))
        # sum_j u_j D2(x)[e_j, v], so no step scales with u
        x, s = x[..., None, :], SECOND_ORDER_STEP * np.eye(self.dim)
        dv = _matvec(self.jacobian(x + s) - self.jacobian(x - s), v[..., None, :])
        return (u[..., :, None] * dv).sum(axis=-2) / (2.0 * SECOND_ORDER_STEP)


def identity_diffeomorphism(n) -> Diffeomorphism:
    n = int(n)
    eye = _read_only(np.eye(n))
    return Diffeomorphism(
        n,
        fwd=lambda x: x.copy(),
        inv=lambda x: x.copy(),
        jac=lambda x: eye,
        second=lambda x, u, v: np.zeros(np.broadcast_shapes(x.shape, u.shape, v.shape)),
    )


def _pull(phi, z, w):
    """Tphi^-1(z, w) = (x, Dphi(x)^-1 w) with x = phi^-1(z), and Dphi(x): the
    pull-back of a tangent vector w at z, row by row on stacks."""
    x = phi.inverse(z)
    d = phi.jacobian(x)
    return x, np.linalg.solve(d, w[..., None])[..., 0], d


def _tangent_push(phi, x, v, t):
    """phi(x), Dphi(x) v and Tphi's derivative along (t1, t2), (Dphi t1, D2phi[v, t1] + Dphi t2)."""
    n, d = phi.dim, phi.jacobian(x)
    du, dv = _matvec(d, t[..., :n]), phi.second_deriv(x, v, t[..., :n]) + _matvec(d, t[..., n:])
    return phi.forward(x), _matvec(d, v), np.concatenate([du, dv], axis=-1)


def tangent_map(phi: Diffeomorphism) -> Diffeomorphism:
    """Tangent lift of a chart change: (x, v) -> (phi(x), Dphi(x) v).

    Its inverse is the pull-back ``_pull``.  Its push along (t1, t2) is the
    closed form (Dphi t1, D2phi[v, t1] + Dphi t2), with one Dphi(x), and its
    Jacobian is the block matrix of that map.
    """
    n = phi.dim
    # the directions e_j of the Jacobian's lower-left block, built once per map
    # and read-only, as every call shares them
    eye = _read_only(np.eye(n))

    def fwd(xv):
        return np.concatenate(phi._push(xv[..., :n], xv[..., n:]), axis=-1)

    def inv(xv):
        return np.concatenate(_pull(phi, xv[..., :n], xv[..., n:])[:2], axis=-1)

    def push(xv, t):
        z, w, dt = _tangent_push(phi, xv[..., :n], xv[..., n:], t)
        return np.concatenate([z, w], axis=-1), dt

    def jac(xv):
        d = phi.jacobian(xv[..., :n])
        out = np.zeros(xv.shape[:-1] + (2 * n, 2 * n))
        out[..., :n, :n] = out[..., n:, n:] = d
        # D2phi(x)[e_j, v], one row per direction e_j, is column j
        out[..., n:, :n] = np.swapaxes(
            phi.second_deriv(xv[..., None, :n], eye, xv[..., None, n:]), -1, -2)
        return out

    tmap = Diffeomorphism(2 * n, fwd, inv, jac)
    tmap._push = push
    return tmap


def lift_by_diffeo(dmap: DiscretizationMap, phi: Diffeomorphism) -> DiscretizationMap:
    """Transport a discretization map through a chart change.

    The returned map acts on the source chart of ``phi``: push (x, v)
    through the tangent map, apply ``dmap``, pull both outputs back.
    Each stage evaluates the chart once on the pair of ends stacked along
    a new leading axis: the forward map pulls (x0, x1) back in one
    ``phi.inverse``, the inverse pushes (a, b) in one ``phi.forward`` and
    pulls the result back by ``_pull``.  Its push composes the tangent
    map's push, the base map's push and one pull-back of both ends and both
    halves of the derivative, a right-hand column each (5 chart calls in a
    one-point forward of its tangent lift); its Jacobian takes the same
    steps on matrices.  Chart-domain errors (``OutsideChart``) propagate
    from ``phi``; one raised by the stacked pull-back speaks of both ends.
    """
    if dmap.dim != phi.dim:
        raise DimensionMismatch(
            f"map dimension {dmap.dim} != diffeomorphism dimension {phi.dim}"
        )
    n = dmap.dim
    tphi = tangent_map(phi)

    # the two ends stack by np.array: on one point, ~2 us a call less than np.stack
    def forward(x, v):
        return tuple(phi.inverse(np.array(dmap.forward(*phi._push(x, v)))))

    def inverse(a, b):
        return _pull(phi, *dmap.inverse(*phi.forward(np.array([a, b]))))[:2]

    def pull_back(a, b, m, k):
        # both ends, and the vector (k = 1) or matrix (k = 2) m as two row blocks, on one axis
        ends = phi.inverse(np.concatenate([a, b], axis=-1).reshape(a.shape[:-1] + (2, n)))
        rows = np.linalg.solve(phi.jacobian(ends), m.reshape(m.shape[:m.ndim - k] + (2, n, -1)))
        return ends[..., 0, :], ends[..., 1, :], rows.reshape(m.shape)

    def jacobian(x, v):
        z, jt = phi.forward(x), tphi.jacobian(np.concatenate([x, v], axis=-1))
        w = _matvec(jt[..., :n, :n], v)
        return pull_back(*dmap.forward(z, w), dmap.jacobian(z, w) @ jt, 2)[2]

    lifted = DiscretizationMap(n, "lifted", forward, inverse, jacobian)
    lifted._push = lambda x, v, t: pull_back(*dmap._push(*_tangent_push(phi, x, v, t)), 1)
    return lifted


def tangent_lift(dmap: DiscretizationMap) -> DiscretizationMap:
    """Lift a map on an n-chart to the induced map on the 2n tangent chart.

    Forward: swap the vector-bundle structures, then apply the tangent
    of the base map.  On packed coordinates the base point is (x, xdot)
    and the input vector is (y, ydot); the outputs are the two tangent
    points (x0, v0) and (x1, v1).

    A member of the affine theta family is its own tangent: its lift is
    the same member on the 2n chart.  For any other map the forward map is
    the base map's push at (x, y) along (xdot, ydot), and the inverse is
    structural: recover (x, y) from the base inverse, then solve the base
    Jacobian for (xdot, ydot); the lift's Jacobian would need the base
    map's second derivative, and is a central difference of the forward map.

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
        a, b, t = dmap._push(s[..., :n], w[..., :n], np.concatenate([s[..., n:], w[..., n:]],
                                                                    axis=-1))
        return (np.concatenate([a, t[..., :n]], axis=-1),
                np.concatenate([b, t[..., n:]], axis=-1))

    def inverse(s0, s1):
        x, y = dmap.inverse(s0[..., :n], s1[..., :n])
        t = np.concatenate([s0[..., n:], s1[..., n:]], axis=-1)
        sol = np.linalg.solve(dmap.jacobian(x, y), t[..., None])[..., 0]
        return (np.concatenate([x, sol[..., :n]], axis=-1),
                np.concatenate([y, sol[..., n:]], axis=-1))

    def jacobian(s, w):
        return numeric_jacobian(
            lambda q: np.concatenate(forward(q[..., :2 * n], q[..., 2 * n:]), axis=-1),
            np.concatenate([s, w], axis=-1))

    return DiscretizationMap(2 * n, "tangent-lift", forward, inverse, jacobian)
