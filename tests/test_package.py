import inspect
import re
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


def test_public_names_are_pinned():
    # an added or removed public name is an edit to this set; no submodule
    # is exported
    assert set(mechlift.__all__) == PUBLIC


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
