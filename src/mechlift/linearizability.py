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

from .errors import NonFinite, WrongDimensions
from .geometry import SECOND_ORDER_STEP, numeric_jacobian
from .mechanics import MechanicalSystem

RANK_TOL = 1e-8
MEMBERSHIP_TOL = 1e-6


def lie_bracket(x_field, y_field, x) -> np.ndarray:
    """Bracket [X, Y](x) = DY(x) X(x) - DX(x) Y(x), Jacobians by central differences."""
    x = np.asarray(x, float)
    xv = np.asarray(x_field(x), float)
    yv = np.asarray(y_field(x), float)
    dy = numeric_jacobian(y_field, x)
    dx = numeric_jacobian(x_field, x)
    out = dy @ xv - dx @ yv
    if not np.isfinite(out).all():
        raise NonFinite("lie bracket evaluation returned NaN/Inf")
    return out


def covariant_derivative(sys: MechanicalSystem, x_field, y_field, x) -> np.ndarray:
    """(nabla_X Y)^i = dY^i/dx^j X^j + Gamma^i_jk X^j Y^k."""
    x = np.asarray(x, float)
    xv = np.asarray(x_field(x), float)
    yv = np.asarray(y_field(x), float)
    dy = numeric_jacobian(y_field, x)
    G = np.asarray(sys.gamma(x), float)
    out = dy @ xv + np.einsum("ijk,j,k->i", G, xv, yv)
    if not np.isfinite(out).all():
        raise NonFinite("covariant derivative returned NaN/Inf")
    return out


def _second_directional(f, x, u, v):
    """Mixed second derivative D2f(x)[u, v] by symmetric polarization.

    Directions are normalized before differencing and the norms factored
    back in, and the step grows with |f|^(1/4) so function-value rounding
    does not swamp the quotient when the fields are large.  The
    polarization is symmetric in (u, v) by construction.  One level of
    Richardson extrapolation, from twice the step, recovers roughly half
    the digits lost to the second difference.
    """
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return np.zeros_like(np.asarray(f(x), float))
    uh, vh = np.asarray(u, float) / nu, np.asarray(v, float) / nv
    f0 = np.asarray(f(x), float)
    s = 2.0 * SECOND_ORDER_STEP * (1.0 + float(np.abs(f0).max())) ** 0.25

    def quad(w, s_):
        fp = np.asarray(f(x + s_ * w), float)
        fm = np.asarray(f(x - s_ * w), float)
        return (fp - 2.0 * f0 + fm) / s_**2

    def mixed(s_):
        return (quad(uh + vh, s_) - quad(uh - vh, s_)) / 4.0

    d = (4.0 * mixed(s / 2.0) - mixed(s)) / 3.0
    return nu * nv * d


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
    identical and loses nothing to nesting.
    """
    x = np.asarray(x, float)
    xv = np.asarray(x_field(x), float)
    yv = np.asarray(y_field(x), float)
    zv = np.asarray(z_field(x), float)
    dz = numeric_jacobian(z_field, x)
    G = np.asarray(sys.gamma(x), float)

    def gam(a, b):
        return np.einsum("ijk,j,k->i", G, a, b)

    d2z = _second_directional(z_field, x, xv, yv)

    nxv = float(np.linalg.norm(xv))
    if nxv == 0.0:
        dgam_term = np.zeros(sys.n)
    else:
        xh = xv / nxv
        dG = numeric_jacobian(lambda t: np.asarray(sys.gamma(x + t[0] * xh), float).ravel(),
                              np.zeros(1), SECOND_ORDER_STEP)
        dG = dG.reshape(sys.n, sys.n, sys.n) * nxv
        dgam_term = np.einsum("ijk,j,k->i", dG, yv, zv)

    out = (d2z + dgam_term + gam(yv, dz @ xv) + gam(xv, dz @ yv)
           + gam(xv, gam(yv, zv)) - dz @ gam(xv, yv) - gam(gam(xv, yv), zv))
    if not np.isfinite(out).all():
        raise NonFinite("second covariant derivative returned NaN/Inf")
    return out


def curvature_tensor(sys: MechanicalSystem, x) -> np.ndarray:
    """Curvature R^i_jkl = d_k G^i_lj - d_l G^i_kj + G^i_km G^m_lj - G^i_lm G^m_kj."""
    x = np.asarray(x, float)
    n = sys.n
    G = np.asarray(sys.gamma(x), float)
    # dG[m] = d Gamma / d x_m
    dG = numeric_jacobian(lambda p: np.asarray(sys.gamma(p), float).ravel(), x)
    dG = dG.T.reshape(n, n, n, n)
    term1 = np.einsum("kilj->ijkl", dG)
    term2 = np.einsum("likj->ijkl", dG)
    term3 = np.einsum("ikm,mlj->ijkl", G, G)
    term4 = np.einsum("ilm,mkj->ijkl", G, G)
    return term1 - term2 + term3 - term4


@dataclass
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
        return all(c.verdict == "pass" for c in self.conditions)

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


def _membership_residual(basis, v):
    """Least-squares residual of v against the column span of basis."""
    coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
    return float(np.linalg.norm(basis @ coef - v))


def _drift_bracket_fields(sys):
    """Control fields g_r and their drift brackets ad_e g_r as callables."""
    fields = []
    for r in range(sys.m):
        g_r = (lambda r: lambda p: np.asarray(sys.g(p), float)[:, r])(r)
        ad_r = (lambda g_r: lambda p: lie_bracket(
            lambda q: np.asarray(sys.e(q), float), g_r, p))(g_r)
        fields.append((g_r, ad_r))
    return fields


def check_planar(sys: MechanicalSystem, samples) -> ConditionReport:
    """Planar (n = 2, m = 1) linearizability conditions on a sample grid.

    MD1: g and its drift bracket independent (singular-value ratio above
    ``RANK_TOL``).  MD2: nabla_g g and nabla_{ad_e g} g lie in span(g).
    MD3: the commutator of second covariant derivatives of ad_e g lies
    in span(g).  Membership defects are projection residuals, compared
    against ``MEMBERSHIP_TOL`` times the magnitude of the tested vector.
    """
    if sys.n != 2 or sys.m != 1:
        raise WrongDimensions(f"planar check needs (n, m) = (2, 1), got ({sys.n}, {sys.m})")

    g_field, ad_field = _drift_bracket_fields(sys)[0]

    md1_ratio, md1_wit = np.inf, None
    md2_def, md2_wit, md2_scale = 0.0, None, 1.0
    md3_def, md3_wit, md3_scale = 0.0, None, 1.0

    for x in samples:
        x = np.asarray(x, float)
        gv = g_field(x)
        adv = ad_field(x)
        pair = np.column_stack([gv, adv])
        sv = np.linalg.svd(pair, compute_uv=False)
        ratio = sv[-1] / sv[0] if sv[0] > 0 else 0.0
        if ratio < md1_ratio:
            md1_ratio, md1_wit = ratio, x.copy()

        basis = gv[:, None]
        for vec in (covariant_derivative(sys, g_field, g_field, x),
                    covariant_derivative(sys, ad_field, g_field, x)):
            res = _membership_residual(basis, vec)
            scale = max(float(np.linalg.norm(vec)), 1.0)
            if res / scale > md2_def / md2_scale:
                md2_def, md2_wit, md2_scale = res, x.copy(), scale

        d1 = second_covariant_derivative(sys, g_field, ad_field, ad_field, x)
        d2 = second_covariant_derivative(sys, ad_field, g_field, ad_field, x)
        diff = d1 - d2
        res = _membership_residual(basis, diff)
        scale = max(float(np.linalg.norm(d1)), float(np.linalg.norm(d2)), 1.0)
        if res / scale > md3_def / md3_scale:
            md3_def, md3_wit, md3_scale = res, x.copy(), scale

    def verdict(ok):
        return "pass" if ok else "fail"

    md1_ok = md1_ratio > RANK_TOL
    return ConditionReport([
        ConditionResult("MD1", verdict(md1_ok), md1_ratio,
                        None if md1_ok else md1_wit, RANK_TOL),
        ConditionResult("MD2", verdict(md2_def < MEMBERSHIP_TOL * md2_scale),
                        md2_def, md2_wit, MEMBERSHIP_TOL * md2_scale),
        ConditionResult("MD3", verdict(md3_def < MEMBERSHIP_TOL * md3_scale),
                        md3_def, md3_wit, MEMBERSHIP_TOL * md3_scale),
    ])


def _numeric_rank(matrix):
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0, np.inf
    ranks = int(np.sum(sv / sv[0] > RANK_TOL))
    margin = sv[ranks - 1] / sv[0] if ranks > 0 else np.inf
    return ranks, margin


def _annihilator(matrix, rank):
    """Orthonormal basis (columns) of the left null space of ``matrix``."""
    u, _, _ = np.linalg.svd(matrix)
    return u[:, rank:]


def _nabla_g_matrix(sys, x, r):
    """Covariant derivative of control field r as an n x n matrix (upper index first)."""
    g_r = lambda p: np.asarray(sys.g(p), float)[:, r]
    dg = numeric_jacobian(g_r, x)
    G = np.asarray(sys.gamma(x), float)
    return dg + np.einsum("ijk,k->ij", G, g_r(x))


def _nabla2_e_tensor(sys, x):
    """Second covariant derivative of the drift as an (n, n, n) array [i, j, k]."""
    n = sys.n
    e_field = lambda p: np.asarray(sys.e(p), float)
    basis = np.eye(n)
    out = np.empty((n, n, n))
    for j in range(n):
        xj = (lambda v: lambda p: v)(basis[j])
        for k in range(n):
            xk = (lambda v: lambda p: v)(basis[k])
            out[:, j, k] = second_covariant_derivative(sys, xj, xk, e_field, x)
    return out


def check_general(sys: MechanicalSystem, samples) -> ConditionReport:
    """General linearizability conditions on a sample grid.

    ML1: both control distributions keep a constant numeric rank across
    the samples (a margin within 10x of ``RANK_TOL`` downgrades the
    verdict to inconclusive).  ML2: brackets of control fields do not
    enlarge the control span.  ML3/ML4/ML5: an orthonormal basis of the
    relevant annihilator kills the curvature tensor, the covariant
    derivatives of the control fields, and the second covariant
    derivative of the drift.
    """
    fields = _drift_bracket_fields(sys)

    ranks0, ranks1 = [], []
    ml1_margin, ml1_wit = np.inf, None
    ml2_def, ml2_wit = 0.0, None
    ml3_def, ml3_wit, ml3_scale = 0.0, None, 1.0
    ml4_def, ml4_wit, ml4_scale = 0.0, None, 1.0
    ml5_def, ml5_wit, ml5_scale = 0.0, None, 1.0

    pts = [np.asarray(x, float) for x in samples]
    for x in pts:
        e0 = np.asarray(sys.g(x), float)
        brackets = np.column_stack([ad(x) for _, ad in fields])
        e1 = np.column_stack([e0, brackets])

        r0, m0_ = _numeric_rank(e0)
        r1, m1_ = _numeric_rank(e1)
        ranks0.append(r0)
        ranks1.append(r1)
        if min(m0_, m1_) < ml1_margin:
            ml1_margin, ml1_wit = min(m0_, m1_), x.copy()

        # ML2: a control-field bracket must not add rank beyond the control span
        for r in range(sys.m):
            for s_ in range(r + 1, sys.m):
                br = lie_bracket(fields[r][0], fields[s_][0], x)
                aug = np.column_stack([e0, br])
                sv = np.linalg.svd(aug, compute_uv=False)
                defect = sv[r0] / sv[0] if r0 < sv.size else 0.0
                if defect > ml2_def:
                    ml2_def, ml2_wit = defect, x.copy()

        ann0 = _annihilator(e0, r0)
        ann1 = _annihilator(e1, r1)

        if ann0.shape[1] > 0:
            curv = curvature_tensor(sys, x)
            scale = max(float(np.abs(curv).max()), 1.0)
            d = float(np.abs(np.einsum("ia,ijkl->ajkl", ann0, curv)).max())
            if d / scale > ml3_def / ml3_scale:
                ml3_def, ml3_wit, ml3_scale = d, x.copy(), scale
            for r in range(sys.m):
                ng = _nabla_g_matrix(sys, x, r)
                scale = max(float(np.abs(ng).max()), 1.0)
                d = float(np.abs(ann0.T @ ng).max())
                if d / scale > ml4_def / ml4_scale:
                    ml4_def, ml4_wit, ml4_scale = d, x.copy(), scale

        if ann1.shape[1] > 0:
            n2e = _nabla2_e_tensor(sys, x)
            scale = max(float(np.abs(n2e).max()), 1.0)
            d = float(np.abs(np.einsum("ia,ijk->ajk", ann1, n2e)).max())
            if d / scale > ml5_def / ml5_scale:
                ml5_def, ml5_wit, ml5_scale = d, x.copy(), scale

    rank_constant = len(set(ranks0)) <= 1 and len(set(ranks1)) <= 1
    if not rank_constant:
        ml1 = ConditionResult("ML1", "fail", ml1_margin, ml1_wit, RANK_TOL)
    elif ml1_margin < 10 * RANK_TOL:
        ml1 = ConditionResult("ML1", "inconclusive", ml1_margin, ml1_wit, RANK_TOL)
    else:
        ml1 = ConditionResult("ML1", "pass", ml1_margin, None, RANK_TOL)

    def membership(name, defect, wit, scale):
        ok = defect < MEMBERSHIP_TOL * scale
        return ConditionResult(name, "pass" if ok else "fail", defect,
                               None if ok else wit, MEMBERSHIP_TOL * scale)

    ml2_ok = ml2_def <= RANK_TOL
    return ConditionReport([
        ml1,
        ConditionResult("ML2", "pass" if ml2_ok else "fail", ml2_def,
                        None if ml2_ok else ml2_wit, RANK_TOL),
        membership("ML3", ml3_def, ml3_wit, ml3_scale),
        membership("ML4", ml4_def, ml4_wit, ml4_scale),
        membership("ML5", ml5_def, ml5_wit, ml5_scale),
    ])
