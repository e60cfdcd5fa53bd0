import inspect
import re
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import mechlift

PUBLIC = {
    # errors
    "AngleAtPi", "DimensionMismatch", "MechliftError", "MultiInputUnsupported",
    "NoConvergence", "NonFinite", "NotLinearityPreserving", "NotSkew", "OutsideChart",
    "SingularFeedback", "SingularStep", "Uncontrollable", "UnknownSystem", "WrongDimensions",
    # geometry
    "Rotation", "hat", "numeric_jacobian", "so3_exp", "so3_log", "vee",
    # discretization
    "AxiomReport", "Diffeomorphism", "DiscretizationMap", "identity_diffeomorphism",
    "lift_by_diffeo", "make_explicit_euler", "make_implicit_euler", "make_midpoint",
    "tangent_lift", "tangent_map", "verify_axioms",
    # mechanics
    "LinearMechanicalSystem", "MFTransform", "MechanicalSystem", "PendulumParams",
    "RigidBodySystem", "SystemBundle", "apply_feedback", "pendulum_system",
    "rigid_body_system", "sode_field", "verify_mf_equivalence",
    # linearizability
    "ConditionReport", "ConditionResult", "check_general", "check_planar",
    "covariant_derivative", "curvature_tensor", "lie_bracket", "second_covariant_derivative",
    # integrators
    "OrderStudy", "StepResult", "Trajectory", "fl_discretize", "linear_flow",
    "linear_one_step", "linear_two_step", "order_study", "pole_place",
    "so3_closed_loop_step", "step_sode", "theta_update_matrix",
}


SUBMODULES = {"errors", "geometry", "discretization", "mechanics", "linearizability",
              "integrators"}


def test_public_names_are_pinned(monkeypatch):
    # an added or removed public name is an edit to this set; no submodule
    # is exported, but each is an attribute
    assert set(mechlift.__all__) == PUBLIC
    assert PUBLIC | SUBMODULES <= set(dir(mechlift))
    # all but the exception types resolve on first use: forget them, then
    # resolve each by a star import and as an attribute
    for name in (PUBLIC | SUBMODULES) - set(vars(mechlift.errors)) - {"errors"}:
        monkeypatch.delattr(mechlift, name)
    star = {}
    exec("from mechlift import *", star)
    assert star.keys() - {"__builtins__"} == PUBLIC
    for name in PUBLIC:
        assert star[name] is getattr(mechlift, name) is vars(mechlift)[name], name
    for name in SUBMODULES:
        assert getattr(mechlift, name) is sys.modules[f"mechlift.{name}"], name
    with pytest.raises(AttributeError, match="^module 'mechlift' has no attribute 'nope'$"):
        mechlift.nope


def test_a_bundle_and_the_checks_have_their_pinned_shapes():
    # a bundle is (plant, feedback) and reads its target from the feedback;
    # the checks take no tolerance or target of their own, so an option
    # dropped from them cannot come back unnoticed
    assert mechlift.SystemBundle._fields == ("system", "transform")
    for check, names in ((mechlift.verify_mf_equivalence, ["sys", "t", "samples"]),
                         (mechlift.verify_axioms, ["dmap", "samples"])):
        assert list(inspect.signature(check).parameters) == names, check.__name__


_EYE = np.eye(3)
VALUES_HOLDING_ARRAYS = {
    "Rotation": lambda: mechlift.Rotation(_EYE),
    "Trajectory": lambda: mechlift.Trajectory(np.arange(3.0), np.zeros((3, 2))),
    "StepResult": lambda: mechlift.StepResult(np.zeros(2), 1, 0.0),
    "OrderStudy": lambda: mechlift.OrderStudy(np.ones(2), np.ones(2), None, None, False,
                                              [None, None]),
    "TwoStepRecurrence": lambda: mechlift.integrators.TwoStepRecurrence(_EYE, _EYE, _EYE, _EYE),
    "ConditionResult": lambda: mechlift.ConditionResult("MD1", "fail", 1.0, np.zeros(2), 1e-8),
    "MFEquivalenceReport": lambda: mechlift.mechanics.MFEquivalenceReport(
        1.0, (np.zeros(2), np.zeros(2), np.zeros(1))),
    "AxiomReport": lambda: mechlift.AxiomReport("midpoint", [np.zeros(2)], np.zeros(1),
                                                np.zeros(1)),
    "RigidBodySystem": lambda: mechlift.rigid_body_system(_EYE),
    "LinearMechanicalSystem": lambda: mechlift.LinearMechanicalSystem(_EYE, _EYE),
    "MFTransform": lambda: mechlift.pendulum_system().transform,
}


@pytest.mark.parametrize("make", VALUES_HOLDING_ARRAYS.values(), ids=VALUES_HOLDING_ARRAYS)
def test_a_value_holding_arrays_compares_and_hashes_by_identity(make):
    # a generated == would compare the arrays inside a tuple and raise on
    # their ambiguous truth value, and would leave the class unhashable
    a, b = make(), make()
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


_A_CL = [[0.0, 1.0], [-1.0, -1.0]]
_NAN, _INF = float("nan"), float("inf")
# every matrix a caller hands the package goes through geometry._matrix, and
# linear_flow's z0 and times through geometry._vec: each refusal names its argument
BAD_ARGUMENTS = {
    "theta_update_matrix-non-square-a": (
        lambda: mechlift.theta_update_matrix([[1.0, 2.0, 3.0]], 0.1, 0.5),
        mechlift.DimensionMismatch, r"^a must be a square matrix, got shape \(1, 3\)$"),
    "linear_flow-non-square-a": (
        lambda: mechlift.linear_flow([[1.0, 2.0, 3.0]], [1.0], [0.0, 1.0]),
        mechlift.DimensionMismatch, r"^a must be a square matrix, got shape \(1, 3\)$"),
    "linear_flow-long-z0": (
        lambda: mechlift.linear_flow(np.eye(2), [1.0, 2.0, 3.0], [0.0]),
        mechlift.DimensionMismatch, "^z0 must have 2 entries, got 3$"),
    "linear_flow-nan-time": (
        lambda: mechlift.linear_flow(_A_CL, [1.0, 0.0], [0.0, _NAN]),
        mechlift.NonFinite, "^times contains NaN/Inf$"),
    "linear_flow-nan-z0": (
        lambda: mechlift.linear_flow(_A_CL, [_NAN, 0.0], [0.0, _NAN]),
        mechlift.NonFinite, "^z0 contains NaN/Inf$"),
    "rigid_body_system-nan-inertia": (
        lambda: mechlift.rigid_body_system(np.diag([1.0, _NAN, 3.0])),
        mechlift.NonFinite, "^inertia contains NaN/Inf$"),
    "PendulumParams-nan-m0": (lambda: mechlift.PendulumParams(m0=_NAN), ValueError,
                              "^m0 must be finite, got nan$"),
    "PendulumParams-nan-a": (lambda: mechlift.PendulumParams(a=_NAN), ValueError,
                             "^a must be finite, got nan$"),
    "PendulumParams-inf-md": (lambda: mechlift.PendulumParams(md=_INF), ValueError,
                              "^md must be finite, got inf$"),
    "vee-nan": (lambda: mechlift.vee(np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0],
                                               [-2.0, _NAN, 0.0]])),
                mechlift.NonFinite, "^s contains NaN/Inf$"),
}


@pytest.mark.parametrize("call, error, match", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_a_bad_argument_is_refused_by_its_name(call, error, match):
    # before any arithmetic: no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call()


# callables that hand every caller one array
SHARED_ARRAYS = {
    "identity_diffeomorphism-jacobian": lambda: mechlift.identity_diffeomorphism(2).jacobian,
    "theta-map-jacobian": lambda: partial(mechlift.make_midpoint(2).jacobian, v=np.zeros(2)),
    "pendulum-g": lambda: mechlift.pendulum_system().system.g,
    "pendulum-gamma": lambda: mechlift.pendulum_system().system.gamma,
    "linear-system-gamma": lambda: mechlift.LinearMechanicalSystem(
        np.eye(2), np.ones((2, 1))).as_mechanical_system().gamma,
}


@pytest.mark.parametrize("make", SHARED_ARRAYS.values(), ids=SHARED_ARRAYS)
def test_a_shared_array_is_read_only(make):
    # an edit by one caller would change what every later call returns
    f = make()
    got = f(np.zeros(2))
    want = got.copy()
    with pytest.raises(ValueError, match="read-only"):
        got[(0,) * got.ndim] = 5.0
    assert np.array_equal(f(np.array([0.3, -0.2])), want)


def test_the_readme_example_stabilizes_the_pendulum():
    # the documented usage runs as written; from pi/4 the pendulum angle and
    # its rate end near the upright equilibrium (the wheel keeps spinning)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    scope = {"print": lambda *args: None}
    exec(example, scope)
    states = scope["traj"].states
    assert states[0, 0] == np.pi / 4 and len(states) == 101
    assert np.abs(states[-1, [0, 2]]).max() < 0.01
