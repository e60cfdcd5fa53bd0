"""Rotations and the numerical primitives used everywhere else.

Positions and velocities live in local chart coordinates on an
n-dimensional configuration manifold, packed as one 2n-vector (x, y)
wherever a state is passed.  Rotations are 3x3 orthogonal
matrices with unit determinant; the hat/vee pair, the exponential and
the logarithm connect them to axis-angle 3-vectors.  The package's
readers of the vectors, matrices and scalars a caller hands it, its one
central-difference Jacobian and its one damped Newton solver live here.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import AngleAtPi, DimensionMismatch, NoConvergence, NonFinite, NotSkew

# central-difference defaults: eps**(1/3) and eps**(1/4) ballparks
FIRST_ORDER_STEP = 1e-6
SECOND_ORDER_STEP = 1e-4
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
# a singular value at most this, relative to the scale of its matrix, counts as zero
RANK_TOL = 1e-8


def float_array(a):
    """View as a float64 array; integer and object inputs are promoted.

    Every numerical path of the package runs in plain float64, the
    implicit closed-loop step included.
    """
    return np.asarray(a, dtype=float)


def _vec(a, name, size=None, dtype=float):
    """``a`` as a 1-d ``dtype`` vector of ``size`` entries (any size where None), refused
    by ``name``: another shape or size (``DimensionMismatch``) and a NaN/Inf (``NonFinite``)."""
    v = np.asarray(a, dtype=dtype)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-d vector, got shape {v.shape}")
    # a count of the finite entries: ndarray.all reduces at microseconds a call
    if np.count_nonzero(np.isfinite(v)) < v.size:
        raise NonFinite(f"{name} contains NaN/Inf")
    if size is not None and v.size != size:
        raise DimensionMismatch(f"{name} must have {size} entries, got {v.size}")
    return v


def _matrix(a, name, shape=None):
    """``a`` as a float matrix, a 1-d row read as one row, refused by ``name``: a shape
    other than ``shape``, whose None entries take any size, or where ``shape`` is None
    a matrix that is not square (``DimensionMismatch``), and a NaN/Inf (``NonFinite``)."""
    v = np.asarray(a, dtype=float)
    m = np.atleast_2d(v)
    if shape is None:
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"{name} must be a square matrix, got shape {v.shape}")
    elif m.shape != shape and (m.ndim != 2 or any(k not in (None, j)
                                                  for k, j in zip(shape, m.shape))):
        raise DimensionMismatch(f"{name} must have shape {shape}, got {v.shape}")
    # a count of the finite entries, as _vec's
    if np.count_nonzero(np.isfinite(m)) < m.size:
        raise NonFinite(f"{name} contains NaN/Inf")
    return m


def _read_only(a):
    """``a``, made read-only: an array a callable hands to every caller."""
    a.flags.writeable = False
    return a


def _scalar(x, name, positive=False):
    """``x``, one real number, as a Python float, refused by ``name``: a bool, str, complex
    or array (``TypeError``), NaN/Inf or an int beyond float range (``NonFinite``), and
    where ``positive`` (a step size or horizon) also a value <= 0, each then with
    ``ValueError``.  A float passes the first test and is only range-checked."""
    if type(x) is not float:
        if isinstance(x, np.ndarray) and x.ndim == 0:
            x = x[()]
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise (ValueError if positive else TypeError)(
                f"{name} must be a real number, got {x!r}")
        try:
            x = float(x)
        except OverflowError:
            raise (ValueError if positive else NonFinite)(
                f"{name} must be finite, got an integer beyond float range") from None
    if positive:
        if not 0.0 < x < math.inf:
            raise ValueError(f"{name} must be {'positive' if x <= 0.0 else 'finite'}, got {x}")
    elif not math.isfinite(x):
        raise NonFinite(f"{name} must be finite, got {x}")
    return x


def _sample_stack(samples, n):
    """The sample points as one float (k, n) stack, k >= 1; a sample that is
    not a finite n-vector is refused, by its index, before any callable sees it."""
    points = [float_array(x) for x in samples]
    if not points:
        raise ValueError("need at least one sample")
    for i, x in enumerate(points):
        if x.shape != (n,):
            raise DimensionMismatch(f"sample {i} must be a {n}-vector, got shape {x.shape}")
    xs = np.array(points)
    # one test on the stack: ndarray.all reduces at microseconds a call
    finite = np.isfinite(xs).all(axis=1)
    if not finite.all():
        raise NonFinite(f"sample {int(finite.argmin())} contains NaN/Inf")
    return xs


_EYE3 = _read_only(np.eye(3))


@dataclass(eq=False)
class Rotation:
    """Orthogonal 3x3 matrix with determinant +1.

    Construction checks, in order: the shape is 3x3
    (``DimensionMismatch``); every entry is finite (``NonFinite``); the
    orthogonality defect max|R^T R - I| is at most 1e-9 (``ValueError``
    beyond it).  A defect of at most 1e-12 leaves the matrix as given,
    and its determinant, expanded by cofactors, must lie within 1e-9 of
    +1.  A defect in (1e-12, 1e-9] is re-orthonormalized by polar
    projection, and a projection that lands on a reflection is
    rejected.  So accumulated drift cannot hide behind silent clean-up.
    The validated entries are kept: :func:`_entries` checks them again
    only once ``r`` is no longer a 3x3 matrix that holds them.  A
    rotation the package computes in floats (:func:`so3_exp`, the
    attitude step) is built by :func:`_rotation`, with the same checks
    on those floats.
    """

    r: np.ndarray

    def __post_init__(self):
        self.r, self._entries = _validated(self.r)


def _rotation(entries):
    """The :class:`Rotation` with these nine entries, a list of floats,
    row by row: one :func:`_validated` call checks the floats as
    ``Rotation`` checks a matrix and makes its one array; no
    ``__post_init__`` runs on the way."""
    rotation = Rotation.__new__(Rotation)
    rotation.r, rotation._entries = _validated(None, entries)
    return rotation


def _entries(rotation):
    """The nine entries, row by row, as floats, of a ``Rotation`` or of a
    3x3 matrix, checked as ``Rotation`` checks a matrix: a rotation's kept
    entries stand only while its ``r`` is a 3x3 matrix that holds them."""
    if not isinstance(rotation, Rotation):
        return _validated(rotation)[1]
    r = np.asarray(rotation.r, dtype=float)
    entries = r.ravel().tolist()
    return entries if entries == rotation._entries and r.shape == (3, 3) else _validated(r)[1]


def _validated(r, entries=None):
    """``r`` checked as :class:`Rotation` checks it, and re-orthonormalized
    where the defect calls for it: the 3x3 float array and its nine
    entries, row by row, as floats.  Given the nine ``entries`` (``r``
    None), the floats are checked as they are and the array is built from
    them.  One chain of comparisons settles the common case, every entry
    of R^T R - I within 1e-12 of 0; only where one is not is the defect
    max|R^T R - I| taken, for the same decisions and messages."""
    if entries is None:
        r = float_array(r)
        if r.shape != (3, 3):
            raise DimensionMismatch(f"rotation must be 3x3, got {r.shape}")
        entries = r.ravel().tolist()
    else:
        r = np.array(entries).reshape(3, 3)
    a, b, c, d, e, f, g, h, i = entries
    # the six distinct entries of the symmetric R^T R - I
    t00, t11, t22, t01, t02, t12 = (
        a * a + d * d + g * g - 1.0, b * b + e * e + h * h - 1.0, c * c + f * f + i * i - 1.0,
        a * b + d * e + g * h, a * c + d * f + g * i, b * c + e * f + h * i)
    # each within 1e-12 of 0, by one chain of comparisons between the two bounds,
    # which a NaN fails: only a matrix that fails it is looked at further
    if not (-1e-12 <= t00 <= 1e-12 >= t11 >= -1e-12 <= t22 <= 1e-12 >= t01 >= -1e-12
            <= t02 <= 1e-12 >= t12 >= -1e-12):
        if not all(map(math.isfinite, entries)):
            raise NonFinite("rotation contains NaN/Inf")
        if not (defect := max(map(abs, (t00, t11, t22, t01, t02, t12)))) <= 1e-9:
            raise ValueError(f"orthogonality defect {defect:.3e} exceeds 1e-9")
        u, _, vt = np.linalg.svd(r)
        r = u @ vt
        if np.linalg.det(r) < 0:
            raise ValueError("nearest orthogonal matrix is a reflection")
        return r, r.ravel().tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if abs(det - 1.0) > 1e-9:
        raise ValueError(f"determinant {det:.12f} is not +1")
    return r, entries


def hat(w) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, so that hat(w) @ v == cross(w, v);
    ``w`` is read by :func:`_vec` as a finite 3-vector."""
    w = _vec(w, "w", 3)
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def vee(s) -> np.ndarray:
    """Inverse of :func:`hat`; ``s`` is read by :func:`_matrix` as a 3x3 matrix.

    Raises
    ------
    NotSkew
        If ``s + s.T`` is not zero within 1e-9.
    """
    s = _matrix(s, "s", (3, 3))
    if np.abs(s + s.T).max() >= 1e-9:
        raise NotSkew("matrix is not skew-symmetric")
    return np.array([s[2, 1], s[0, 2], s[1, 0]])


def _rodrigues(x, y, z):
    """The nine entries of exp(hat(w)), row by row, for floats w = (x, y, z),
    none NaN: I + a K + b K^2 with K = hat(w) and K^2 = w w^T - |w|^2 I.
    An angle |w| that overflows to inf raises ``NonFinite``.

    Series expansions of a = sin(t)/t and b = (1-cos(t))/t^2 take over
    below t = 1e-4 to avoid cancellation.
    """
    xx, yy, zz = x * x, y * y, z * z
    th = math.sqrt(xx + yy + zz)
    if th < 1e-4:
        a = 1.0 - th**2 / 6.0 + th**4 / 120.0
        b = 0.5 - th**2 / 24.0 + th**4 / 720.0
    elif th == math.inf:
        raise NonFinite(f"rotation angle |w| overflows, w = ({x!r}, {y!r}, {z!r})")
    else:
        a = math.sin(th) / th
        b = (1.0 - math.cos(th)) / th**2
    ax, ay, az = a * x, a * y, a * z
    bxy, bxz, byz = b * (x * y), b * (x * z), b * (y * z)
    return [1.0 - b * (yy + zz), bxy - az, bxz + ay,
            bxy + az, 1.0 - b * (xx + zz), byz - ax,
            bxz - ay, byz + ax, 1.0 - b * (xx + yy)]


def so3_exp(w) -> Rotation:
    """Rotation about axis w/|w| by angle |w| (Rodrigues formula), w a 3-vector read by
    :func:`_vec`; an angle that overflows to inf raises ``NonFinite``."""
    w = _vec(w, "w", 3)
    return _rotation(_rodrigues(*w.tolist()))


def so3_log(r) -> np.ndarray:
    """Axis-angle 3-vector of a rotation, principal branch (angle < pi).

    Past 2 pi / 3 the axis comes from the symmetric part of r, so the
    result keeps full accuracy up to the guard band.  ``r`` is read as the
    attitude step reads it (:func:`_entries`), refused as ``Rotation(r)`` is.

    Raises
    ------
    AngleAtPi
        When trace(r) <= -1 + 1e-9: the angle is within the branch cut's
        guard band and the axis sign is ambiguous.
    """
    return np.array(_log(_entries(r)))


def _log(entries):
    """:func:`so3_log` of the rotation with these nine entries, row by
    row, as three floats."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = entries
    tr = r00 + r11 + r22
    if tr <= -1.0 + 1e-9:
        raise AngleAtPi(f"trace {tr:.12f}: rotation angle too close to pi")
    cos = (tr - 1.0) / 2.0
    axis = (r21 - r12, r02 - r20, r10 - r01)
    if cos <= -0.5:
        # the skew part, 2 sin(angle) a, fades near pi; the symmetric part
        # R + R^T - 2 cos I = 2 (1 - cos) a a^T keeps full accuracy: take
        # its column with the largest diagonal entry, signed by the skew part
        diagonal = (r00, r11, r22)
        j = diagonal.index(max(diagonal))
        col = [entries[3 * i + j] + entries[3 * j + i] for i in range(3)]
        col[j] -= 2.0 * cos
        th = math.atan2(math.hypot(*axis) / 2.0, cos)
        scale = math.copysign(th, axis[j]) / math.sqrt(2.0 * (1.0 - cos) * col[j])
        return scale * col[0], scale * col[1], scale * col[2]
    th = math.acos(min(cos, 1.0))
    if th < 1e-4:
        factor = 0.5 + th**2 / 12.0 + 7.0 * th**4 / 720.0
    else:
        factor = th / (2.0 * math.sin(th))
    return factor * axis[0], factor * axis[1], factor * axis[2]


def numeric_jacobian(f, x0, step=FIRST_ORDER_STEP) -> np.ndarray:
    """Central-difference Jacobian of ``f`` at ``x0``, shape (m, n).

    Column j is (f(x0 + e_j) - f(x0 - e_j)) / (2 step), with e_j the j-th
    row of ``step * I``.  ``f`` is called once, on the (..., 2n, n) stack
    of every point's probes (the n + probes, then the n - probes), and
    must return one value per probe, each flattened to its m entries; on
    a (..., n) stack of points the result is the (..., m, n) stack of
    Jacobians.  This is not checked: an ``f`` of one point at a time, or
    one value shared by every probe, is refused by its shape (below) or
    gives a wrong Jacobian without an error.

    Parameters
    ----------
    f : callable
        Maps a stack of n-vectors to the stack of their m-vectors; a
        scalar value counts as m = 1.
    x0 : array, shape (n,) or (..., n)
        Expansion point, or a stack of them.
    step : float
        Absolute difference step; entrywise error is O(step**2) for
        smooth ``f``.

    Raises
    ------
    NonFinite
        When ``x0`` or any probe's value has a NaN/Inf.
    DimensionMismatch
        When ``x0`` is a scalar, or the shape ``f`` returns does not
        begin with the probe stack's.
    """
    x0 = float_array(x0)
    if x0.ndim == 0:
        raise DimensionMismatch("x0 must be a 1-d vector, got shape ()")
    if not np.isfinite(x0).all():
        raise NonFinite("x0 contains NaN/Inf")
    n = x0.shape[-1]
    e = step * np.eye(n)
    probes = x0[..., None, :] + np.concatenate([e, -e])
    lead = probes.shape[:-1]
    vals = float_array(f(probes))
    if vals.shape[:len(lead)] != lead:
        raise DimensionMismatch(
            f"f returned shape {vals.shape} on a stack of probes of shape {probes.shape}")
    if not np.isfinite(vals).all():
        raise NonFinite("function evaluation returned NaN/Inf")
    vals = vals.reshape(lead + (math.prod(vals.shape[len(lead):]),))
    return np.swapaxes((vals[..., :n, :] - vals[..., n:, :]) / (2.0 * step), -1, -2)


def _norms(v):
    """Euclidean norms of a stack of vectors along the last axis, each
    equal to ``np.linalg.norm`` of its row (both take the dot product of
    the row with itself)."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _matvec(a, v):
    """a v for a stack of matrices and a stack of vectors, ``(..., m, n)``
    by ``(..., n)``; the leading axes broadcast."""
    if v.ndim == 1:
        return a @ v
    return (a @ v[..., None])[..., 0]


def _newton_bound(*terms):
    """The one 0-iteration bound of Newton and the orbit certificate, NEWTON_TOL (1 + m),
    m the largest entry of ``terms`` (of a row, on stacks): a step's start and h X(start),
    X its field (and the iterate, in Newton's stop), as rounding grows with h X."""
    return NEWTON_TOL * (1.0 + np.abs(np.concatenate(terms, axis=-1)).max(axis=-1))


def _damped_newton(residual, guess):
    """Damped Newton iteration in plain float64.

    A guess within ``_newton_bound(guess, r)`` is returned with 0
    iterations, r its residual: h X(guess) = -r, as the step map's
    inverse takes (s, s) to (s, 0).  Otherwise each iteration takes a
    fresh central-difference Jacobian (:func:`numeric_jacobian`: one call
    of ``residual`` on its probes) and halves its step until the residual
    norm drops, and stops within ``_newton_bound(guess, r, iterate)``.
    One more full step, the polish step, is kept if it lowers the norm.
    Returns the best iterate, the iteration count and the final norm;
    raises ``NoConvergence`` if ``NEWTON_MAX_ITER`` iterations, a
    singular Jacobian or a stalled line search leave it above the bound.
    """
    q = np.asarray(guess, float)
    r = residual(q)
    norm = float(np.linalg.norm(r))
    start = q, r
    if norm < _newton_bound(*start):
        return q, 0, norm
    converged = False
    it = 0
    while norm > 0.0 and it < NEWTON_MAX_ITER:
        it += 1
        step = FIRST_ORDER_STEP * (1.0 + float(np.abs(q).max()))
        try:
            dq = np.linalg.solve(numeric_jacobian(residual, q, step), r)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        while True:
            q_try = q - lam * dq
            r_try = residual(q_try)
            norm_try = float(np.linalg.norm(r_try))
            if norm_try < norm or converged or lam < 1e-8:
                break
            lam /= 2.0
        if not norm_try < norm:
            break  # the solve has stalled, or the polish step does not help
        q, r, norm = q_try, r_try, norm_try
        if converged:
            break  # the polish step is done
        converged = norm < _newton_bound(*start, q)
    if not converged:
        raise NoConvergence(it, norm)
    return q, it, norm
