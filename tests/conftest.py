import numpy as np
import pytest

import mechlift
from mechlift import (
    Diffeomorphism,
    MFTransform,
    MechanicalSystem,
    SystemBundle,
    identity_diffeomorphism,
    pendulum_system,
    rigid_body_system,
)


@pytest.fixture(scope="session")
def pendulum():
    return pendulum_system()


@pytest.fixture(scope="session")
def rigid_body():
    return rigid_body_system(np.diag([1.0, 2.0, 3.0]))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def _rows(f):
    """f keeping the stack contract one point at a time: on a (..., n)
    stack it is handed each row as a 1-d point, and its values are
    stacked.  A 1-d point goes to f as it is, and so does an empty
    stack, which has no row to hand it."""
    def stacked(*args):
        args = np.broadcast_arrays(*(np.asarray(a, float) for a in args))
        if args[0].ndim == 1 or not args[0].size:
            return f(*args)
        lead = args[0].shape[:-1]
        rows = [np.asarray(f(*point), float)
                for point in zip(*(a.reshape(-1, a.shape[-1]) for a in args))]
        return np.array(rows).reshape(lead + rows[0].shape)
    return stacked


def row_by_row(obj):
    """The twin of a system or a bundle whose every callable loops over
    the rows of a stack: the reference a system written one point at a
    time gives for the stacked paths.  A bundle's feedback is derived
    again, from the twins of its own system and chart, so its control
    takes the same values from that system, whether or not it is the
    bundle's."""
    if isinstance(obj, SystemBundle):
        t, system = obj.transform, row_by_row(obj.system)
        phi = t.phi
        chart = Diffeomorphism(phi.dim, *map(_rows, (phi.forward, phi.inverse, phi.jacobian,
                                                     phi.second_deriv)))
        return SystemBundle(system, MFTransform(row_by_row(t.system), chart, t.linear))
    return MechanicalSystem(obj.n, obj.m, *map(_rows, (obj.gamma, obj.e, obj.g)))


def flat_bundle(lms):
    """The linear target ``lms`` as a system of its own, under the identity
    chart: its feedback is alpha = 0, beta = I and gammaF = 0, and its
    states are the target's."""
    system = lms.as_mechanical_system()
    return SystemBundle(system, MFTransform(system, identity_diffeomorphism(lms.n), lms))


def stack_rows_are_the_points(f, *stacks):
    """f on (k, ...) stacks gives, bit for bit, f on each row; a value
    shared by every row (a constant callable's) counts for each row."""
    out = np.asarray(f(*stacks))
    for i in range(len(stacks[0])):
        point = np.asarray(f(*(s[i] for s in stacks)))
        row = np.broadcast_to(out, (len(stacks[0]),) + point.shape)[i]
        assert row.shape == point.shape
        assert row.tobytes() == point.tobytes(), i


# inertia wheel pendulum constants used to derive expected numbers in tests
PARAMS = {
    "L1": 0.063, "m1": 0.02, "m2": 0.3, "J1": 47e-6, "J2": 32e-6,
    "a": 9.81, "m0": 0.3832, "md": 49e-4,
}


@pytest.fixture()
def central_differences(monkeypatch):
    """The calls made to the package's central-difference Jacobian."""
    jac = mechlift.geometry.numeric_jacobian
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return jac(*args, **kwargs)

    monkeypatch.setattr(mechlift.geometry, "numeric_jacobian", counting)
    return calls


@pytest.fixture()
def update_builds(monkeypatch):
    """The theta-family updates ``fl_discretize``'s setup solves for,
    counted from an empty setup memo (which the test gets to itself)."""
    build = mechlift.integrators._theta_update
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(mechlift.integrators, "_theta_update", counting)
    monkeypatch.setattr(mechlift.integrators, "_SETUPS", {})
    return calls


@pytest.fixture()
def chart_calls(monkeypatch):
    """The calls made to the methods of every chart change (a
    ``Diffeomorphism``, tangent maps included), one method name per call."""
    calls = []
    for name in ("forward", "inverse", "jacobian", "second_deriv"):
        def counting(self, *args, method=getattr(Diffeomorphism, name), name=name):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(Diffeomorphism, name, counting)
    return calls


@pytest.fixture()
def field_evaluations(monkeypatch):
    """Evaluations of the field each ``step_sode`` call of ``fl_discretize``
    is given (the closed-loop field, once per residual), one count per step."""
    step_sode = mechlift.integrators.step_sode
    counts = []

    def counting(dmap, field, *args, **kwargs):
        counts.append(0)

        def counted(z):
            counts[-1] += 1
            return field(z)

        return step_sode(dmap, counted, *args, **kwargs)

    monkeypatch.setattr(mechlift.integrators, "step_sode", counting)
    return counts
