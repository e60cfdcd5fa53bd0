import inspect

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
