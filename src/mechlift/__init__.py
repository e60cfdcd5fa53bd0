"""Structure-preserving discretizations and mechanical feedback linearization.

``import mechlift`` loads only the exception types of ``mechlift.errors``,
and no numpy.  Every other public name, and each submodule, is imported on
its first use as an attribute (``mechlift.pole_place``, ``mechlift.geometry``)
or through ``from mechlift import ...``, and then kept in this module.
"""

from importlib import import_module as _import_module

from .errors import (
    AngleAtPi,
    DimensionMismatch,
    MechliftError,
    MultiInputUnsupported,
    NoConvergence,
    NonFinite,
    NotLinearityPreserving,
    NotSkew,
    OutsideChart,
    SingularFeedback,
    SingularStep,
    Uncontrollable,
    UnknownSystem,
    WrongDimensions,
)

# the submodule that defines each lazily imported public name
_HOME = {name: module for module, names in {
    "geometry": "Rotation hat numeric_jacobian so3_exp so3_log vee",
    "discretization": "AxiomReport Diffeomorphism DiscretizationMap identity_diffeomorphism "
                      "lift_by_diffeo make_explicit_euler make_implicit_euler make_midpoint "
                      "tangent_lift tangent_map verify_axioms",
    "mechanics": "LinearMechanicalSystem MFTransform MechanicalSystem PendulumParams "
                 "RigidBodySystem SystemBundle apply_feedback pendulum_system rigid_body_system "
                 "sode_field verify_mf_equivalence",
    "linearizability": "ConditionReport ConditionResult check_general check_planar "
                       "covariant_derivative curvature_tensor lie_bracket "
                       "second_covariant_derivative",
    "integrators": "OrderStudy StepResult Trajectory fl_discretize linear_flow linear_one_step "
                   "linear_two_step order_study pole_place so3_closed_loop_step step_sode "
                   "theta_update_matrix",
}.items() for name in names.split()}
_SUBMODULES = set(_HOME.values())

# the exception types imported above, then the lazy names
__all__ = sorted([name for name, value in globals().items() if isinstance(value, type)]
                 + list(_HOME))
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
