"""Structure-preserving discretizations and mechanical feedback linearization."""

from types import ModuleType as _ModuleType

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
from .geometry import (
    Rotation,
    hat,
    numeric_jacobian,
    so3_exp,
    so3_log,
    vee,
)
from .discretization import (
    AxiomReport,
    Diffeomorphism,
    DiscretizationMap,
    identity_diffeomorphism,
    lift_by_diffeo,
    make_explicit_euler,
    make_implicit_euler,
    make_midpoint,
    tangent_lift,
    tangent_map,
    verify_axioms,
)
from .mechanics import (
    LinearMechanicalSystem,
    MFTransform,
    MechanicalSystem,
    PendulumParams,
    RigidBodySystem,
    SystemBundle,
    apply_feedback,
    pendulum_system,
    rigid_body_system,
    sode_field,
    verify_mf_equivalence,
)
from .linearizability import (
    ConditionReport,
    ConditionResult,
    check_general,
    check_planar,
    covariant_derivative,
    curvature_tensor,
    lie_bracket,
    second_covariant_derivative,
)
from .integrators import (
    OrderStudy,
    StepResult,
    Trajectory,
    fl_discretize,
    linear_flow,
    linear_one_step,
    linear_two_step,
    order_study,
    pole_place,
    so3_closed_loop_step,
    step_sode,
    theta_update_matrix,
)

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
