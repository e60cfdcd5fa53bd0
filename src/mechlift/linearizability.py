"""Numeric verification of mechanical-feedback linearizability conditions.

The planar test (n = 2, one control) checks three conditions at sample
points: independence of the control field and its drift bracket,
membership of two covariant derivatives in the control span, and
membership of a second-covariant-derivative commutator.  The general
test checks rank constancy and involutivity of the control
distributions plus three annihilator conditions involving the curvature
tensor, the covariant derivatives of the control fields, and the second
covariant derivative of the drift.

Everything is sampled numerically on user-supplied grids: ranks via
singular values with a relative threshold, memberships via least-squares
projection residuals scaled by the magnitude of the tested tensor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, WrongDimensions
from .geometry import (RANK_TOL, SECOND_ORDER_STEP, _matvec, _norms, _sample_stack, float_array,
                       numeric_jacobian)
from .mechanics import MechanicalSystem

MEMBERSHIP_TOL = 1e-6


def _values(f, x, shape) -> np.ndarray:
    """``f``, a callable of a system, at a point or a (..., n) stack of
    points, as the full C-contiguous (...,) + ``shape`` stack of values:
    a value shared by the whole stack is broadcast to every row."""
    values = float_array(f(x))
    lead = x.shape[:-1]
    if values.shape != lead + shape:
        try:
            values = np.broadcast_to(values, lead + shape)
        except ValueError:
            raise DimensionMismatch(f"shape {values.shape} at points of shape {x.shape}") from None
    return np.ascontiguousarray(values)


def _field(f, shape):
    """``f`` returning the full stack of its values, as ``numeric_jacobian`` needs."""
    return lambda p: _values(f, p, shape)


def _part(jac, rows=Ellipsis, entries=slice(None)):
    """The Jacobians ``jac[rows]`` of a stack of them, restricted to these
    entries of the differentiated value, laid out as ``numeric_jacobian``
    lays out the Jacobians of that part alone, so that products with
    them round as products with those would."""
    probes_first = np.swapaxes(jac, -1, -2)[rows][..., entries]
    return np.swapaxes(np.ascontiguousarray(probes_first), -1, -2)


def _gam(G, a, b):
    """The quadratic forms Gamma^i_jk a^j b^k, row by row on stacks."""
    return np.einsum("...ijk,...j,...k->...i", G, a, b)


def lie_bracket(x_field, y_field, x) -> np.ndarray:
    """Bracket [X, Y](x) = DY(x) X(x) - DX(x) Y(x), Jacobians by central differences.

    The fields act row by row on (..., n) stacks, as every callable of a
    ``MechanicalSystem`` does (a value shared by every row is broadcast;
    a field of one point at a time is refused or gives a wrong Jacobian,
    as for ``numeric_jacobian``).  ``x`` is a point or a (..., n) stack
    of points, and the result is the bracket there or the stack of them.
    """
    x = float_array(x)
    x_field, y_field = (_field(f, x.shape[-1:]) for f in (x_field, y_field))
    xv, yv = x_field(x), y_field(x)
    dy = numeric_jacobian(y_field, x)
    return _bracket(xv, yv, dy, numeric_jacobian(x_field, x))


def _bracket(xv, yv, dy, dx):
    """[X, Y] from the values and the Jacobians of X and Y."""
    out = _matvec(dy, xv) - _matvec(dx, yv)
    if not np.isfinite(out).all():
        raise NonFinite("lie bracket evaluation returned NaN/Inf")
    return out


def covariant_derivative(sys: MechanicalSystem, x_field, y_field, x) -> np.ndarray:
    """(nabla_X Y)^i = dY^i/dx^j X^j + Gamma^i_jk X^j Y^k.

    The fields act on stacks, and ``x`` is a point or a (..., n) stack
    of points, as for :func:`lie_bracket`.
    """
    x = float_array(x)
    x_field, y_field = (_field(f, x.shape[-1:]) for f in (x_field, y_field))
    xv, yv = x_field(x), y_field(x)
    dy = numeric_jacobian(y_field, x)
    return _covariant(xv, yv, dy, _values(sys.gamma, x, (sys.n,) * 3))


def _covariant(xv, yv, dy, G):
    """nabla_X Y from the values of X and Y, the Jacobian of Y and the
    connection coefficients."""
    out = _matvec(dy, xv) + _gam(G, xv, yv)
    if not np.isfinite(out).all():
        raise NonFinite("covariant derivative returned NaN/Inf")
    return out


def _second_directional(f, x, f0, u, v):
    """Mixed second derivatives D2f(x)[u, v] and D2f(x)[v, u] by
    symmetric polarization.

    Directions are normalized before differencing and the norms factored
    back in, and the step grows with |f|^(1/4) so function-value rounding
    does not swamp the quotient when the fields are large.  The
    polarization is symmetric in (u, v) by construction.  One level of
    Richardson extrapolation, from twice the step, recovers roughly half
    the digits lost to the second difference.

    The two orders differ only in rounding: they probe the same points,
    the u - v ones with their signs swapped.  So ``f`` is evaluated once
    for both, and each quotient is formed from the values in its own
    order, bit for bit what that order alone would give.  Where ``v`` is
    ``u``, the u - v probes are x itself, and ``f0`` stands for them.

    ``f0`` is f at x.  Row by row on a (..., n) stack of points and of
    directions, a 1-d point being a stack of one, for a field ``f`` that
    acts row by row: ``f`` is called once, on the stack of every point's
    probes.  A row with a zero direction gives 0.
    """
    nu, nv = _norms(u), _norms(v)
    uh = u / np.where(nu > 0.0, nu, 1.0)[..., None]
    vh = v / np.where(nv > 0.0, nv, 1.0)[..., None]
    # the fourth root as two square roots: numpy's power rounds a scalar
    # and an array differently, and a stack's rows must be its points'
    s = 2.0 * SECOND_ORDER_STEP * np.sqrt(np.sqrt(1.0 + np.abs(f0).max(axis=-1)))
    # axes after the points': step (s/2, s), direction (u + v, u - v), sign (+, -)
    h = np.stack([s / 2.0, s], axis=-1)[..., None, None]
    hw = h * np.stack([uh + vh] if v is u else [uh + vh, uh - vh], axis=-2)[..., None, :, :]
    xp = x[..., None, None, :]
    fs = float_array(f(np.stack([xp + hw, xp - hw], axis=-2)))
    if v is u:
        fs = np.concatenate([fs, np.broadcast_to(f0[..., None, None, None, :], fs.shape)],
                            axis=-3)
    swapped = np.stack([fs[..., 0, :, :], fs[..., 1, ::-1, :]], axis=-3)
    return tuple(_polarized(values, f0, h, nu * nv) for values in (fs, swapped))


def _polarized(fs, f0, h, scale):
    """The extrapolated polarization quotient from f at the probes, with
    axes step, direction and sign after the points', and f0 at x."""
    quad = (fs[..., 0, :] - 2.0 * f0[..., None, None, :] + fs[..., 1, :]) / (h * h)
    mixed = (quad[..., 0, :] - quad[..., 1, :]) / 4.0
    d = (4.0 * mixed[..., 0, :] - mixed[..., 1, :]) / 3.0
    return scale[..., None] * d


def second_covariant_derivative(sys: MechanicalSystem, x_field, y_field, z_field,
                                x) -> np.ndarray:
    """nabla^2_{X,Y} Z = nabla_X (nabla_Y Z) - nabla_{nabla_X Y} Z.

    The outer derivative is expanded by the product rule, so only
    single-depth differences of the user callables remain: the first
    derivative of Z, one mixed second derivative of Z, and one
    directional derivative of the connection coefficients.  Naive
    nesting of the covariant derivative amplifies rounding noise by the
    field magnitudes over the squared step, which is fatal for systems
    with large control fields; the expanded form is mathematically
    identical and loses nothing to nesting.  The fields act on stacks,
    and ``x`` is a point or a (..., n) stack of points, as for
    :func:`lie_bracket`.
    """
    x = float_array(x)
    x_field, y_field, z_field = (_field(f, x.shape[-1:]) for f in (x_field, y_field, z_field))
    xv, yv, zv = x_field(x), y_field(x), z_field(x)
    dz = numeric_jacobian(z_field, x)
    G = _values(sys.gamma, x, (sys.n,) * 3)
    return _second_covariant(_second_directional(z_field, x, zv, xv, yv)[0], xv, yv, zv, dz, G,
                             _connection_along(sys, x, xv))


def _connection_along(sys, x, xv):
    """The derivative of the connection coefficients along X: a central
    difference in t of Gamma(x + t X/|X|) at t = 0, scaled back by |X|.
    t is a (..., 1, 1) stack, so every point's two probes go to gamma in
    one call."""
    n = sys.n
    nxv = _norms(xv)
    xh = xv / np.where(nxv == 0.0, 1.0, nxv)[..., None]

    def along(t):
        p = x[..., None, None, :] + t * xh[..., None, None, :]
        return _values(sys.gamma, p, (n,) * 3).reshape(t.shape[:-1] + (n**3,))

    dG = numeric_jacobian(along, np.zeros(x.shape[:-1] + (1, 1)), SECOND_ORDER_STEP)
    return dG[..., 0, :, 0].reshape(x.shape[:-1] + (n,) * 3) * nxv[..., None, None, None]


def _second_covariant(d2z, xv, yv, zv, dz, G, dG):
    """nabla^2_{X,Y} Z from the mixed second derivative D2Z[X, Y], the
    values of X, Y and Z, the Jacobian of Z, the connection coefficients
    and their derivative along X."""
    out = (d2z + _gam(dG, yv, zv) + _gam(G, yv, _matvec(dz, xv)) + _gam(G, xv, _matvec(dz, yv))
           + _gam(G, xv, _gam(G, yv, zv)) - _matvec(dz, _gam(G, xv, yv))
           - _gam(G, _gam(G, xv, yv), zv))
    if not np.isfinite(out).all():
        raise NonFinite("second covariant derivative returned NaN/Inf")
    return out


def curvature_tensor(sys: MechanicalSystem, x) -> np.ndarray:
    """Curvature R^i_jkl = d_k G^i_lj - d_l G^i_kj + G^i_km G^m_lj - G^i_lm G^m_kj.

    At a point, or row by row on a (..., n) stack of points; ``NonFinite``
    if any entry is NaN/Inf.
    """
    x = float_array(x)
    n = sys.n
    G = _values(sys.gamma, x, (n,) * 3)
    # dG[..., m] = d Gamma / d x_m
    dG = numeric_jacobian(
        lambda p: _values(sys.gamma, p, (n,) * 3).reshape(p.shape[:-1] + (n**3,)), x)
    dG = np.swapaxes(dG, -1, -2).reshape(x.shape[:-1] + (n,) * 4)
    term1 = np.einsum("...kilj->...ijkl", dG)
    term2 = np.einsum("...likj->...ijkl", dG)
    term3 = np.einsum("...ikm,...mlj->...ijkl", G, G)
    term4 = np.einsum("...ilm,...mkj->...ijkl", G, G)
    out = term1 - term2 + term3 - term4
    if not np.isfinite(out).all():
        raise NonFinite("curvature tensor returned NaN/Inf")
    return out


@dataclass(eq=False)
class ConditionResult:
    """Verdict for one linearizability condition."""

    name: str
    verdict: str  # 'pass' | 'fail' | 'inconclusive'
    defect: float
    witness: np.ndarray | None
    tol: float

    @property
    def passed(self):
        return self.verdict == "pass"


@dataclass
class ConditionReport:
    conditions: list

    @property
    def passed(self):
        return all(c.passed for c in self.conditions)

    def __getitem__(self, name):
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary_lines(self):
        return [
            f"{c.name}: {c.verdict}  defect={c.defect:.3e}  tol={c.tol:.1e}"
            + (f"  witness={np.array2string(c.witness, precision=4)}"
               if c.witness is not None else "")
            for c in self.conditions
        ]


def _line_residuals(g, v):
    """Norms of the least-squares residuals of a (..., n) stack of vectors
    ``v`` against the lines a (..., n) stack ``g`` spans, row by row: the
    projection residual |v - g (g.v) / (g.g)|, and |v| where g is 0."""
    gg = np.einsum("...i,...i->...", g, g)
    coef = np.einsum("...i,...i->...", g, v) / np.where(gg > 0.0, gg, 1.0)
    return _norms(v - coef[..., None] * g)


def _worst(xs, defects, scales=1.0):
    """(defect, witness, scale) where defect / scale, over (k, ...) stacks
    with one row per point of ``xs``, is largest and above 0, first in
    sample order and then along the row, as a scan keeping only strictly
    larger quotients picks it; (0.0, None, 1.0) if none is."""
    defects, scales = np.broadcast_arrays(defects, scales)
    ratios = (defects / scales).reshape(-1)
    if not ratios.max() > 0.0:
        return 0.0, None, 1.0
    j = int(ratios.argmax())
    return (float(defects.flat[j]), xs[j // (ratios.size // len(xs))].copy(),
            float(scales.flat[j]))


def _least(xs, values):
    """(value, witness) where ``values``, one per point of ``xs``, is least
    and below inf, first occurrence; (inf, None) if none is."""
    if not values.min() < np.inf:
        return np.inf, None
    i = int(values.argmin())
    return values[i], xs[i].copy()


def check_planar(sys: MechanicalSystem, samples) -> ConditionReport:
    """Planar (n = 2, m = 1) linearizability conditions on a sample grid.

    MD1: g and its drift bracket independent (singular-value ratio above
    ``RANK_TOL``).  MD2: nabla_g g and nabla_{ad_e g} g lie in span(g).
    MD3: the commutator of second covariant derivatives of ad_e g lies
    in span(g).  Membership defects are projection residuals, compared
    against ``MEMBERSHIP_TOL`` times the magnitude of the tested vector.
    Every differentiated quantity is evaluated for the whole grid at
    once, and so is the rank and projection algebra: g, ad_e g, their
    Jacobians and the connection once each, and every derivative formed
    from them.  A failed condition's witness is the first point, in
    sample order, with the worst defect, and a passed one has none.  An
    empty grid, or a sample that is not a finite 2-vector, is refused first.
    """
    if sys.n != 2 or sys.m != 1:
        raise WrongDimensions(f"planar check needs (n, m) = (2, 1), got ({sys.n}, {sys.m})")

    xs = _sample_stack(samples, sys.n)
    e_field, g_matrix = _field(sys.e, (sys.n,)), _field(sys.g, (sys.n, sys.m))
    g_field = lambda p: g_matrix(p)[..., 0]
    ad_field = lambda p: lie_bracket(e_field, g_field, p)
    evs, gvs = e_field(xs), g_field(xs)
    dg = numeric_jacobian(g_field, xs)
    advs = _bracket(evs, gvs, dg, numeric_jacobian(e_field, xs))
    dad = numeric_jacobian(ad_field, xs)
    G = _values(sys.gamma, xs, (2,) * 3)
    md2_vecs = np.stack([_covariant(gvs, gvs, dg, G), _covariant(advs, gvs, dg, G)], axis=1)
    d2_ga, d2_ag = _second_directional(ad_field, xs, advs, gvs, advs)
    d1s = _second_covariant(d2_ga, gvs, advs, advs, dad, G, _connection_along(sys, xs, gvs))
    d2s = _second_covariant(d2_ag, advs, gvs, advs, dad, G, _connection_along(sys, xs, advs))

    sv = np.linalg.svd(np.stack([gvs, advs], axis=-1), compute_uv=False)
    md1_ratio, md1_wit = _least(xs, sv[:, -1] / np.where(sv[:, 0] > 0.0, sv[:, 0], 1.0))
    md2_def, md2_wit, md2_scale = _worst(
        xs, _line_residuals(gvs[:, None], md2_vecs), np.maximum(_norms(md2_vecs), 1.0))
    md3_def, md3_wit, md3_scale = _worst(
        xs, _line_residuals(gvs, d1s - d2s),
        np.maximum(np.maximum(_norms(d1s), _norms(d2s)), 1.0))

    md1_ok = md1_ratio > RANK_TOL
    return ConditionReport([
        ConditionResult("MD1", "pass" if md1_ok else "fail", md1_ratio,
                        None if md1_ok else md1_wit, RANK_TOL),
        _membership("MD2", md2_def, md2_wit, md2_scale),
        _membership("MD3", md3_def, md3_wit, md3_scale),
    ])


def _membership(name, defect, witness, scale):
    """The verdict on a membership defect against ``MEMBERSHIP_TOL`` times
    ``scale``, with its witness on a failure only."""
    ok = defect < MEMBERSHIP_TOL * scale
    return ConditionResult(name, "pass" if ok else "fail", defect,
                           None if ok else witness, MEMBERSHIP_TOL * scale)


def _numeric_ranks(stack):
    """Numeric ranks of a (k, n, c) stack of matrices, the singular values
    above ``RANK_TOL`` relative to the largest, and each rank's margin
    sv[rank - 1] / sv[0] (inf for a zero matrix)."""
    sv = np.linalg.svd(stack, compute_uv=False)
    rel = sv / np.where(sv[:, :1] > 0.0, sv[:, :1], 1.0)
    ranks = (rel > RANK_TOL).sum(axis=-1)
    margins = np.take_along_axis(rel, np.maximum(ranks - 1, 0)[:, None], axis=-1)[:, 0]
    return ranks, np.where(ranks > 0, margins, np.inf)


def _annihilators(stack, ranks):
    """Orthonormal bases (columns) of the left null spaces of a (k, n, c)
    stack of matrices of these ranks, as a (k, n, n) stack whose first
    rank columns are 0."""
    u = np.linalg.svd(stack)[0]
    return np.where(np.arange(u.shape[-1]) >= ranks[:, None, None], u, 0.0)


def _nabla2_e_tensor(sys, x, ev, de):
    """Second covariant derivative of the drift as an (n, n, n) array
    [i, j, k], row by row on a (..., n) stack, from the drift's values
    ``ev`` and Jacobians ``de`` there: the connection once, its
    derivative once per direction j, and the drift once per distinct
    probe, the pairs (j, k) and (k, j) sharing theirs."""
    n = sys.n
    e_field = _field(sys.e, (sys.n,))
    G = _values(sys.gamma, x, (n,) * 3)
    directions = [np.broadcast_to(v, x.shape) for v in np.eye(n)]
    dGs = [_connection_along(sys, x, xj) for xj in directions]
    out = np.empty(x.shape[:-1] + (n, n, n))
    for j, xj in enumerate(directions):
        for k in range(j, n):
            xk = directions[k]
            d2_jk, d2_kj = _second_directional(e_field, x, ev, xj, xk)
            out[..., :, j, k] = _second_covariant(d2_jk, xj, xk, ev, de, G, dGs[j])
            out[..., :, k, j] = _second_covariant(d2_kj, xk, xj, ev, de, G, dGs[k])
    return out


def check_general(sys: MechanicalSystem, samples) -> ConditionReport:
    """General linearizability conditions on a sample grid.

    ML1: both control distributions keep a constant numeric rank across the
    samples (a margin within 10x of ``RANK_TOL`` downgrades the verdict to
    inconclusive).  ML2: brackets of control fields do not enlarge the
    control span.  ML3/ML4/ML5: an orthonormal basis of the relevant
    annihilator kills the curvature tensor, the covariant derivatives of the
    control fields, and the second covariant derivative of the drift.  As in
    :func:`check_planar`, the grid is refused if it is empty or a sample is
    not a finite n-vector, and every differentiated quantity and the rank
    and annihilator algebra are evaluated for all the points that need them
    at once.  The drift and the whole n x m matrix g are differentiated once
    each; every bracket ad_e g_r and [g_r, g_s] and every nabla g_r is read
    from those two Jacobians column by column.
    """
    xs = _sample_stack(samples, sys.n)
    n, m = sys.n, sys.m
    e_field, g_matrix = _field(sys.e, (sys.n,)), _field(sys.g, (sys.n, sys.m))
    evs, e0s = e_field(xs), g_matrix(xs)
    dgs = numeric_jacobian(g_matrix, xs)
    de = numeric_jacobian(e_field, xs)
    # column r of g and its Jacobian: g_r and Dg_r
    gs = [e0s[..., r] for r in range(m)]
    dg = [_part(dgs, entries=slice(r, None, m)) for r in range(m)]
    e1s = np.concatenate(
        [e0s, np.stack([_bracket(evs, gs[r], dg[r], de) for r in range(m)], axis=-1)], axis=-1)
    control_brackets = [_bracket(gs[r], gs[s_], dg[s_], dg[r])
                        for r in range(m) for s_ in range(r + 1, m)]

    ranks0, margins0 = _numeric_ranks(e0s)
    ranks1, margins1 = _numeric_ranks(e1s)
    ml1_margin, ml1_wit = _least(xs, np.minimum(margins0, margins1))

    # ML2: a control-field bracket must not add rank beyond the control
    # span; all-zero fields and brackets add none
    ml2_def, ml2_wit = 0.0, None
    if control_brackets:
        spans = np.stack([np.concatenate([e0s, br[..., None]], axis=-1)
                          for br in control_brackets], axis=1)
        sv = np.linalg.svd(spans, compute_uv=False)
        # the singular value past the control span's rank, 0 where there is none
        past = np.take_along_axis(np.pad(sv, [(0, 0), (0, 0), (0, 1)]),
                                  ranks0[:, None, None], axis=-1)[..., 0]
        ml2_def, ml2_wit, _ = _worst(xs, past / np.where(sv[..., 0] > 0.0, sv[..., 0], 1.0))

    ml3 = ml4 = ml5 = 0.0, None, 1.0
    at0 = ranks0 < n
    if at0.any():
        x0 = xs[at0]
        ann0 = _annihilators(e0s[at0], ranks0[at0])
        curv = curvature_tensor(sys, x0)
        ml3 = _worst(x0, np.abs(np.einsum("...ia,...ijkl->...ajkl", ann0, curv)).max(
            axis=(1, 2, 3, 4)), np.maximum(np.abs(curv).max(axis=(1, 2, 3, 4)), 1.0))
        # nabla g_r as an n x n matrix (upper index first)
        G0, g0 = _values(sys.gamma, x0, (n,) * 3), e0s[at0]
        ngs = np.stack([dg[r][at0] + np.einsum("...ijk,...k->...ij", G0, g0[..., r])
                        for r in range(m)], axis=1)
        if not np.isfinite(ngs).all():
            raise NonFinite("covariant derivative of a control field returned NaN/Inf")
        ml4 = _worst(x0, np.abs(np.swapaxes(ann0, -1, -2)[:, None] @ ngs).max(axis=(2, 3)),
                     np.maximum(np.abs(ngs).max(axis=(2, 3)), 1.0))
    at1 = ranks1 < n
    if at1.any():
        x1 = xs[at1]
        n2e = _nabla2_e_tensor(sys, x1, evs[at1], _part(de, at1))
        ann1 = _annihilators(e1s[at1], ranks1[at1])
        ml5 = _worst(x1, np.abs(np.einsum("...ia,...ijk->...ajk", ann1, n2e)).max(axis=(1, 2, 3)),
                     np.maximum(np.abs(n2e).max(axis=(1, 2, 3)), 1.0))

    rank_constant = len(set(ranks0.tolist())) <= 1 and len(set(ranks1.tolist())) <= 1
    if not rank_constant:
        ml1 = ConditionResult("ML1", "fail", ml1_margin, ml1_wit, RANK_TOL)
    elif ml1_margin < 10 * RANK_TOL:
        ml1 = ConditionResult("ML1", "inconclusive", ml1_margin, ml1_wit, RANK_TOL)
    else:
        ml1 = ConditionResult("ML1", "pass", ml1_margin, None, RANK_TOL)

    ml2_ok = ml2_def <= RANK_TOL
    return ConditionReport([
        ml1,
        ConditionResult("ML2", "pass" if ml2_ok else "fail", ml2_def,
                        None if ml2_ok else ml2_wit, RANK_TOL),
        _membership("ML3", *ml3),
        _membership("ML4", *ml4),
        _membership("ML5", *ml5),
    ])
