import numpy as np
import numpy.testing as npt
import pytest

from mechlift import (
    AngleAtPi,
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    NotSkew,
    Rotation,
    check_general,
    check_planar,
    hat,
    make_midpoint,
    numeric_jacobian,
    pendulum_system,
    so3_exp,
    so3_log,
    verify_axioms,
    vee,
)
from mechlift.geometry import _damped_newton, _sample_stack

PAPER_R0 = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def rodrigues(w):
    # independent oracle: explicit Rodrigues formula
    th = np.linalg.norm(w)
    if th == 0:
        return np.eye(3)
    k = np.asarray(w) / th
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(th) * kx + (1 - np.cos(th)) * (kx @ kx)


class TestHatVee:
    def test_first_basis_vector(self):
        npt.assert_array_equal(
            hat([1.0, 0.0, 0.0]),
            np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float),
        )

    def test_zero(self):
        npt.assert_array_equal(hat(np.zeros(3)), np.zeros((3, 3)))

    def test_matches_cross_product(self, rng):
        for _ in range(50):
            w, v = rng.normal(size=3), rng.normal(size=3)
            npt.assert_allclose(hat(w) @ v, np.cross(w, v), atol=1e-14)

    def test_vee_round_trip(self):
        npt.assert_array_equal(vee(hat([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_vee_zero(self):
        npt.assert_array_equal(vee(np.zeros((3, 3))), np.zeros(3))

    def test_vee_rejects_symmetric(self):
        with pytest.raises(NotSkew):
            vee(np.diag([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("f", [hat, so3_exp], ids=["hat", "so3_exp"])
    @pytest.mark.parametrize("w", [np.zeros(2), np.zeros(4)], ids=["2-vector", "4-vector"])
    def test_a_non_3_vector_is_refused(self, f, w):
        with pytest.raises(DimensionMismatch, match="expects a 3-vector"):
            f(w)

    @pytest.mark.parametrize("s", [np.zeros((2, 2)), np.zeros(3), np.zeros((3, 4))],
                             ids=["2x2", "vector", "3x4"])
    def test_vee_refuses_a_non_3x3_matrix(self, s):
        with pytest.raises(DimensionMismatch, match=r"^s must have shape \(3, 3\), got \("):
            vee(s)

    def test_mutually_inverse_bit_exact(self, rng):
        for _ in range(20):
            w = rng.normal(size=3)
            npt.assert_array_equal(vee(hat(w)), w)


class TestExpLog:
    def test_exp_zero_is_identity(self):
        npt.assert_array_equal(so3_exp(np.zeros(3)).r, np.eye(3))

    def test_exp_reproduces_benchmark_initial_rotation(self):
        w = np.array([0.0, -np.pi / 2, 0.0])
        npt.assert_allclose(so3_exp(w).r, rodrigues(w), atol=1e-15)
        npt.assert_allclose(so3_exp(w).r, PAPER_R0, atol=1e-15)

    def test_exp_orthogonality(self, rng):
        for _ in range(100):
            w = rng.normal(size=3)
            w *= rng.uniform(0, np.pi) / max(np.linalg.norm(w), 1e-12)
            r = so3_exp(w).r
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(r) - 1) < 1e-12

    def test_log_identity(self):
        npt.assert_array_equal(so3_log(Rotation(np.eye(3))), np.zeros(3))

    def test_log_benchmark_rotation(self):
        # oracle: extract axis-angle by hand; angle pi/2 about -y
        xi = so3_log(Rotation(PAPER_R0))
        npt.assert_allclose(xi, [0.0, -np.pi / 2, 0.0], atol=1e-12)

    def test_log_rejects_angle_pi(self):
        half_turn = rodrigues(np.array([0.0, 0.0, np.pi]))
        with pytest.raises(AngleAtPi):
            so3_log(Rotation(half_turn))

    def test_log_exp_round_trip(self, rng):
        for _ in range(100):
            w = rng.normal(size=3)
            w *= rng.uniform(1e-3, np.pi - 1e-3) / np.linalg.norm(w)
            npt.assert_allclose(so3_log(so3_exp(w)), w, atol=1e-10)

    @pytest.mark.parametrize("w", [[1e308, 1e308, 0.0], [1e200, 0.0, 0.0]],
                             ids=["sum-overflows", "square-overflows"])
    def test_an_overflowing_angle_is_refused(self, w):
        with pytest.raises(NonFinite, match="rotation angle"):
            so3_exp(w)

    def test_small_angle_series_branch(self):
        w = np.array([1e-6, -2e-6, 5e-7])
        npt.assert_allclose(so3_exp(w).r, rodrigues(w), atol=1e-18)
        npt.assert_allclose(so3_log(so3_exp(w)), w, atol=1e-18)


def _replaced(m):
    r = so3_exp([0.3, -0.2, 0.5])
    r.r = m
    return r


def _edited_in_place():
    r = so3_exp([0.3, -0.2, 0.5])
    r.r[0, 0] = 5.0
    return r


def _flattened():
    r = so3_exp([0.3, -0.2, 0.5])
    r.r = r.r.ravel().copy()
    return r


def _log_refusal(make):
    """so3_log of what ``make`` builds, and Rotation of the matrix it holds."""
    r = make()
    m = np.array(r.r if isinstance(r, Rotation) else r)
    return lambda: so3_log(r), lambda: Rotation(m)


def _empty_grid_refusal(check, subject):
    """``check`` of ``subject`` on no samples, and the sample reader on them."""
    return lambda: check(subject, []), lambda: _sample_stack([], 2)


# each second reader of an input, against the one reader it goes through
REFUSALS = {
    "log-2x2": _log_refusal(lambda: np.eye(2)),
    "log-nan": _log_refusal(lambda: np.full((3, 3), np.nan)),
    "log-stretched": _log_refusal(lambda: np.diag([1.0, 1.0, 1.1])),
    "log-reflection": _log_refusal(lambda: np.diag([1.0, 1.0, -1.0])),
    "log-replaced": _log_refusal(lambda: _replaced(np.diag([1.0, 1.0, 1.1]))),
    "log-edited-in-place": _log_refusal(_edited_in_place),
    "log-flattened": _log_refusal(_flattened),
    "check_planar-empty": _empty_grid_refusal(check_planar, pendulum_system().system),
    "check_general-empty": _empty_grid_refusal(check_general, pendulum_system().system),
    "verify_axioms-empty": _empty_grid_refusal(verify_axioms, make_midpoint(2)),
}


@pytest.mark.parametrize("call, reader", REFUSALS.values(), ids=REFUSALS.keys())
def test_an_input_is_refused_as_its_one_reader_refuses_it(call, reader):
    with pytest.raises(Exception) as want:
        reader()
    with pytest.raises(type(want.value)) as got:
        call()
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# so3_log(so3_exp(w)), bytes recorded before so3_log read its rotation
# through _entries; the last two angles are past 2 pi / 3, on the
# symmetric-part branch
LOG_BYTES = {
    (0.3, -0.2, 0.1): "343333333333d33f9b9999999999c9bf9b9999999999b93f",
    (1e-6, -2e-6, 5e-7): "8dedb5a0f7c6b03e8dedb5a0f7c6c0be8dedb5a0f7c6a03e",
    (2.0, 1.5, -1.2): "feffffffffffff3ffffffffffffff73f333333333333f3bf",
    (0.0, -2.9, 0.4): "000000000000008033333333333307c0989999999999d93f",
}


@pytest.mark.parametrize("w", LOG_BYTES)
def test_log_of_exp_is_pinned_bit_for_bit(w):
    r = so3_exp(w)
    assert so3_log(r).tobytes().hex() == LOG_BYTES[w]
    assert so3_log(r.r).tobytes().hex() == LOG_BYTES[w]


class TestNumericJacobian:
    def test_identity_map(self, rng):
        x0 = rng.normal(size=4)
        npt.assert_allclose(numeric_jacobian(lambda x: x, x0), np.eye(4),
                            atol=1e-10)

    def test_quadratic_against_analytic(self):
        f = lambda x: np.stack([x[..., 0] ** 2, x[..., 0] * x[..., 1]], axis=-1)
        jac = numeric_jacobian(f, np.array([1.0, 1.0]), step=1e-5)
        npt.assert_allclose(jac, [[2.0, 0.0], [1.0, 1.0]], atol=1e-8)

    def test_constant_map(self):
        jac = numeric_jacobian(lambda x: np.broadcast_to([3.0, -1.0], x.shape[:-1] + (2,)),
                               np.zeros(3))
        npt.assert_allclose(jac, np.zeros((2, 3)), atol=1e-10)

    def test_quadratic_error_bound(self, rng):
        # invariant: quadratic polynomials are exact up to 10 * step**2
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        f = lambda x: x @ a.T + np.einsum("...i,ij,...j->...", x, b, x)[..., None] * np.ones(3)
        x0 = rng.normal(size=3)
        analytic = a + np.outer(np.ones(3), (b + b.T) @ x0)
        for step in (1e-6, 1e-4):
            jac = numeric_jacobian(f, x0, step=step)
            assert np.abs(jac - analytic).max() < 10 * step**2 + 1e-9

    def test_a_scalar_point_is_refused(self):
        with pytest.raises(DimensionMismatch, match=r"x0 must be a 1-d vector, got shape \(\)"):
            numeric_jacobian(lambda x: x, 0.5)

    def test_non_finite_detection(self):
        f = lambda x: np.where(x[..., :1] < 0, np.inf, x[..., :1])
        with pytest.raises(NonFinite):
            numeric_jacobian(f, np.zeros(1))

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["plus-probe", "minus-probe"])
    @pytest.mark.parametrize("pair", range(3))
    def test_non_finite_probe_of_any_pair_is_refused(self, side, pair):
        # only one probe, of this pair, is non-finite; f runs once, on all probes
        calls = []

        def f(x):
            calls.append(x.shape)
            return np.where(side * x[..., pair:pair + 1] > 0, np.inf,
                            x.sum(axis=-1, keepdims=True))

        with pytest.raises(NonFinite):
            numeric_jacobian(f, np.zeros(3))
        assert calls == [(6, 3)]

    def test_a_point_only_map_is_refused(self):
        # a map written for one point at a time, handed the (4, 2) stack of
        # probes, returns the value at its first two rows only
        f = lambda x: np.array([x[0] ** 2, x[0] * x[1]])
        with pytest.raises(DimensionMismatch, match=r"probes of shape \(4, 2\)"):
            numeric_jacobian(f, np.array([1.0, 1.0]))

    def test_a_point_only_map_may_give_a_wrong_jacobian(self):
        # the contract is not checked: a point-only map that slices rows
        # returns a (4, 2) stack, so it is not refused, and its Jacobian is
        # not the rotation's; the same map on stacks gives the rotation
        point_only = lambda s: np.concatenate([s[1:], -s[:1]])
        on_stacks = lambda s: np.concatenate([s[..., 1:], -s[..., :1]], axis=-1)
        x0 = np.array([1.0, 0.0])
        npt.assert_allclose(numeric_jacobian(on_stacks, x0), [[0.0, 1.0], [-1.0, 0.0]],
                            atol=1e-9)
        assert np.abs(numeric_jacobian(point_only, x0) - [[0.0, 1.0], [-1.0, 0.0]]).max() > 1.0

    def test_scalar_valued_map_is_one_row(self, rng):
        x0 = rng.normal(size=3)
        jac = numeric_jacobian(lambda x: (x * x).sum(axis=-1), x0)
        assert jac.shape == (1, 3)
        npt.assert_allclose(jac[0], 2.0 * x0, atol=1e-8)


class TestDampedNewton:
    def test_step_halving_reaches_a_far_root(self):
        # undamped Newton on arctan diverges from |q0| > 1.39; halving the
        # step until the residual drops converges from 3
        q, iterations, norm = _damped_newton(np.arctan, np.array([3.0]))
        assert iterations == 5
        assert abs(q[0]) < 1e-12 and norm < 1e-12

    def test_a_stalled_line_search_raises(self):
        # q^2 + 1 has no root: the iterates stall at its minimum, residual 1
        with pytest.raises(NoConvergence) as info:
            _damped_newton(lambda q: q * q + 1.0, np.array([0.5]))
        assert info.value.residual == 1.0

    def test_a_singular_jacobian_raises(self):
        # a constant residual: the first Jacobian is zero and the solve
        # stops there, after the guess's residual and the Jacobian's one call
        calls = []

        def residual(q):
            calls.append(q.shape)
            return np.ones_like(q)

        with pytest.raises(NoConvergence) as info:
            _damped_newton(residual, np.zeros(2))
        assert (info.value.iterations, info.value.residual) == (1, np.sqrt(2.0))
        assert calls == [(2,), (4, 2)]


def stacked_field(x):
    """A smooth map R^3 -> R^3 that acts row by row on (..., 3) stacks."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([np.sin(x0) * x1, x0 * x2 - x1, np.cos(x2) * np.exp(x0)], axis=-1)


class TestStackedNumericJacobian:
    """On a (..., n) stack ``numeric_jacobian`` calls f once on every
    probe, and each Jacobian is bit for bit the 1-d call at its point."""

    def test_rows_are_the_one_point_calls(self, rng):
        xs = rng.normal(size=(7, 3))
        jacs = numeric_jacobian(stacked_field, xs)
        assert jacs.shape == (7, 3, 3)
        for x, jac in zip(xs, jacs):
            assert jac.tobytes() == numeric_jacobian(stacked_field, x).tobytes()

    def test_leading_axes_and_matrix_values(self, rng):
        xs = rng.normal(size=(2, 4, 3))
        outer = lambda x: stacked_field(x)[..., :, None] * x[..., None, :]
        jacs = numeric_jacobian(outer, xs, step=1e-5)
        assert jacs.shape == (2, 4, 9, 3)
        assert jacs[1, 2].tobytes() == numeric_jacobian(outer, xs[1, 2], step=1e-5).tobytes()

    def test_one_call_on_all_probes(self, rng):
        calls = []

        def f(x):
            calls.append(x.shape)
            return stacked_field(x)

        numeric_jacobian(f, rng.normal(size=(5, 3)))
        assert calls == [(5, 6, 3)]

    def test_non_finite_probe_refused(self):
        # only the second point's - probe along x0 leaves the domain
        xs = np.array([[0.5, 0.0, 0.0], [1e-7, 0.0, 0.0]])
        with pytest.raises(NonFinite):
            numeric_jacobian(lambda x: np.where(x[..., :1] > 0.0, x, np.inf), xs)
        with pytest.raises(NonFinite):
            numeric_jacobian(stacked_field, np.array([[0.0, np.nan, 0.0]]))

    def test_shared_value_refused(self):
        with pytest.raises(DimensionMismatch):
            numeric_jacobian(lambda x: np.ones(3), np.zeros((4, 3)))


class TestStateTypes:
    def test_rotation_accepts_exact(self):
        Rotation(np.eye(3))

    def test_rotation_polar_projection_band(self):
        # defect in (1e-12, 1e-9] gets re-orthonormalized
        noisy = PAPER_R0 + 1e-10 * np.ones((3, 3))
        r = Rotation(noisy).r
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-14

    def test_rotation_rejects_large_defect(self):
        with pytest.raises(ValueError):
            Rotation(PAPER_R0 + 1e-7 * np.ones((3, 3)))

    def test_rotation_rejects_reflection(self):
        with pytest.raises(ValueError):
            Rotation(np.diag([1.0, 1.0, -1.0]))


NOISY_R0 = PAPER_R0 + 5e-11 * np.ones((3, 3))


@pytest.mark.parametrize("matrix, error, match", [
    (np.eye(2), DimensionMismatch, "3x3"),
    (np.eye(3).ravel(), DimensionMismatch, "3x3"),
    (np.where(np.eye(3) > 0, np.nan, 0.0), NonFinite, "NaN"),
    (np.diag([1.0, 1.0, np.inf]), NonFinite, "NaN"),
    (np.diag([1.0, 1.0, -1.0]), ValueError, "determinant"),
    (np.diag([1.0, 1.0, -1.0]) + 5e-11 * np.ones((3, 3)), ValueError, "reflection"),
    (PAPER_R0 + 2e-9 * np.ones((3, 3)), ValueError, "orthogonality defect"),
], ids=["2x2", "flat", "nan", "inf", "reflection", "drifted-reflection", "drift-2e-9"])
def test_rotation_refuses(matrix, error, match):
    with pytest.raises(error, match=match):
        Rotation(matrix)


@pytest.mark.parametrize("matrix, reprojected", [
    (PAPER_R0, False),
    (so3_exp([0.3, -0.2, 0.5]).r, False),
    (NOISY_R0, True),
], ids=["exact", "rodrigues", "drift-5e-11"])
def test_rotation_accepts(matrix, reprojected):
    r = Rotation(matrix).r
    # a defect of at most 1e-12 is kept as given; 5e-11 of drift is projected
    assert np.array_equal(r, matrix) != reprojected
    assert np.abs(r.T @ r - np.eye(3)).max() <= (1e-15 if reprojected else 1e-12)
    npt.assert_allclose(r, matrix, atol=1e-9)
