"""Rotations and the numerical primitives used everywhere else.

Positions and velocities live in local chart coordinates on an
n-dimensional configuration manifold, packed as one 2n-vector (x, y)
wherever a state is passed.  Rotations are 3x3 orthogonal
matrices with unit determinant; the hat/vee pair, the exponential and
the logarithm connect them to axis-angle 3-vectors.  The package's one
central-difference Jacobian and its one damped Newton solver live here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AngleAtPi, DimensionMismatch, NoConvergence, NonFinite, NotSkew

# central-difference defaults: eps**(1/3) and eps**(1/4) ballparks
FIRST_ORDER_STEP = 1e-6
SECOND_ORDER_STEP = 1e-4
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


def float_array(a):
    """View as a float64 array; integer and object inputs are promoted.

    Every numerical path of the package runs in plain float64, the
    implicit closed-loop step included.
    """
    return np.asarray(a, dtype=float)


def _vec(a, name):
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFinite(f"{name} contains NaN/Inf")
    return v


@dataclass
class Rotation:
    """Orthogonal 3x3 matrix with determinant +1.

    Construction re-orthonormalizes by polar projection when the
    orthogonality defect lies in (1e-12, 1e-9] and rejects anything
    beyond, so accumulated drift cannot hide behind silent clean-up.
    """

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.shape != (3, 3):
            raise DimensionMismatch(f"rotation must be 3x3, got {r.shape}")
        if not np.all(np.isfinite(r)):
            raise NonFinite("rotation contains NaN/Inf")
        defect = np.abs(r.T @ r - np.eye(3)).max()
        if defect > 1e-9:
            raise ValueError(f"orthogonality defect {defect:.3e} exceeds 1e-9")
        det = np.linalg.det(r)
        if abs(det - 1.0) > 1e-9 and defect <= 1e-12:
            raise ValueError(f"determinant {det:.12f} is not +1")
        if defect > 1e-12:
            u, _, vt = np.linalg.svd(r)
            r = u @ vt
            if np.linalg.det(r) < 0:
                raise ValueError("nearest orthogonal matrix is a reflection")
        self.r = r


def hat(w) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, so that hat(w) @ v == cross(w, v)."""
    w = _vec(w, "w")
    if w.size != 3:
        raise DimensionMismatch("hat expects a 3-vector")
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def vee(s) -> np.ndarray:
    """Inverse of :func:`hat`.

    Raises
    ------
    NotSkew
        If ``s + s.T`` is not zero within 1e-9.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (3, 3):
        raise DimensionMismatch("vee expects a 3x3 matrix")
    if np.abs(s + s.T).max() >= 1e-9:
        raise NotSkew("matrix is not skew-symmetric")
    return np.array([s[2, 1], s[0, 2], s[1, 0]])


def so3_exp(w) -> Rotation:
    """Rotation about axis w/|w| by angle |w| (Rodrigues formula).

    Series expansions of sin(t)/t and (1-cos(t))/t^2 take over below
    t = 1e-4 to avoid cancellation.
    """
    w = _vec(w, "w")
    if w.size != 3:
        raise DimensionMismatch("so3_exp expects a 3-vector")
    th = np.linalg.norm(w)
    k = hat(w)
    if th < 1e-4:
        a = 1.0 - th**2 / 6.0 + th**4 / 120.0
        b = 0.5 - th**2 / 24.0 + th**4 / 720.0
    else:
        a = np.sin(th) / th
        b = (1.0 - np.cos(th)) / th**2
    return Rotation(np.eye(3) + a * k + b * (k @ k))


def _rotation_matrix(r):
    return r.r if isinstance(r, Rotation) else np.asarray(r, dtype=float)


def so3_log(r) -> np.ndarray:
    """Axis-angle 3-vector of a rotation, principal branch (angle < pi).

    Past 2 pi / 3 the axis comes from the symmetric part of r, so the
    result keeps full accuracy up to the guard band.

    Raises
    ------
    AngleAtPi
        When trace(r) <= -1 + 1e-9: the angle is within the branch cut's
        guard band and the axis sign is ambiguous.
    """
    m = _rotation_matrix(r)
    tr = np.trace(m)
    if tr <= -1.0 + 1e-9:
        raise AngleAtPi(f"trace {tr:.12f}: rotation angle too close to pi")
    cos = (tr - 1.0) / 2.0
    axis = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    if cos <= -0.5:
        # the skew part, 2 sin(angle) a, fades near pi; the symmetric part
        # R + R^T - 2 cos I = 2 (1 - cos) a a^T keeps full accuracy: take
        # its column with the largest diagonal entry, signed by the skew part
        j = int(m.diagonal().argmax())
        col = m[:, j] + m[j]
        col[j] -= 2.0 * cos
        th = math.atan2(math.hypot(*axis) / 2.0, cos)
        return math.copysign(th, axis[j]) / math.sqrt(2.0 * (1.0 - cos) * col[j]) * col
    th = np.arccos(np.clip(cos, -1.0, 1.0))
    if th < 1e-4:
        factor = 0.5 + th**2 / 12.0 + 7.0 * th**4 / 720.0
    else:
        factor = th / (2.0 * np.sin(th))
    return factor * axis


def numeric_jacobian(f, x0, step=FIRST_ORDER_STEP) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at ``x0``.

    Parameters
    ----------
    f : callable
        Maps an n-vector to an m-vector.
    x0 : array, shape (n,)
        Expansion point.
    step : float
        Absolute difference step; entrywise error is O(step**2) for
        smooth ``f``.

    Raises
    ------
    NonFinite
        If any probe evaluation returns NaN/Inf.
    """
    x0 = _vec(x0, "x0")
    cols = []
    for j in range(x0.size):
        e = np.zeros_like(x0)
        e[j] = step
        fp = np.asarray(f(x0 + e), dtype=float)
        fm = np.asarray(f(x0 - e), dtype=float)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise NonFinite("function evaluation returned NaN/Inf")
        cols.append((fp - fm) / (2.0 * step))
    return np.column_stack(cols)


def _damped_newton(residual, guess, scale, jac=None):
    """Damped Newton iteration in plain float64, reusing its Jacobian.

    The Jacobian starts as ``jac`` when one is given (a chord step: a
    caller solving a sequence of nearby systems passes the one the last
    solve ended with) and otherwise as a central difference
    (:func:`numeric_jacobian`) with a step scaled to the iterate.  It is
    kept while full steps cut the residual norm tenfold (one that merely
    halves it can take tens of iterations to converge) and replaced by a
    fresh one when a step does not; a fresh one's full step is halved
    until the norm drops.  A given Jacobian never ends a solve:
    when it is singular or its step fails, a fresh one takes over.  Past
    ``NEWTON_TOL * scale`` one more step takes the residual to its
    rounding floor, which the step-conjugacy checks need.  Returns the
    best iterate, the iteration count, the final norm and the Jacobian
    the solve ended with; raises ``NoConvergence`` when
    ``NEWTON_MAX_ITER`` iterations or a stalled line search leave the
    norm above the tolerance.
    """
    q = np.asarray(guess, float)
    r = residual(q)
    norm = float(np.linalg.norm(r))
    converged = norm < NEWTON_TOL * scale
    it = 0
    while norm > 0.0 and it < NEWTON_MAX_ITER:
        it += 1
        fresh = jac is None
        if fresh:
            step = FIRST_ORDER_STEP * (1.0 + float(np.abs(q).max()))
            jac = numeric_jacobian(residual, q, step)
        try:
            dq = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            if fresh:
                break
            jac = None
            continue
        lam = 1.0
        while True:
            q_try = q - lam * dq
            r_try = residual(q_try)
            norm_try = float(np.linalg.norm(r_try))
            if norm_try < norm or not fresh or converged or lam < 1e-8:
                break
            lam /= 2.0
        improved, contracted = norm_try < norm, norm_try < 0.1 * norm
        if improved:
            q, r, norm = q_try, r_try, norm_try
        if converged or (fresh and not improved):
            break  # the polish step is done, or the solve has stalled
        if not contracted:
            jac = None
        converged = norm < NEWTON_TOL * scale
    if not converged:
        raise NoConvergence(it, norm)
    return q, it, norm, jac
