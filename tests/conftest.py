import numpy as np
import pytest

import mechlift
from mechlift import (
    Diffeomorphism,
    MFTransform,
    MechanicalSystem,
    SystemBundle,
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


def one_point(f):
    """f, asserting that it is handed one point (1-d arguments)."""
    def g(*args):
        assert all(np.ndim(a) == 1 for a in args), [np.shape(a) for a in args]
        return f(*args)
    return g


def per_point(bundle):
    """The undeclared per-point twin of ``bundle``: the same callables,
    each asserting that it is handed one point (1-d arguments)."""
    sys, t = bundle.system, bundle.transform
    phi = t.phi
    return SystemBundle(
        MechanicalSystem(sys.n, sys.m, one_point(sys.gamma), one_point(sys.e),
                         one_point(sys.g)),
        MFTransform(Diffeomorphism(phi.dim, one_point(phi.forward), one_point(phi.inverse),
                                   one_point(phi.jacobian), one_point(phi.second_deriv)),
                    one_point(t.alpha), one_point(t.beta), one_point(t.gammaF)),
        bundle.linear)


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
