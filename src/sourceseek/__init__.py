"""Source seeking for a constant-turn-rate unicycle on a radially quadratic
signal field: closed-loop simulators for a gradient seeker and a
curvature-inverting (Riccati-filtered) seeker, a generic second-order
averaging engine for oscillatory control-affine systems, and numerical
stability certificates for the averaged dynamics."""

__version__ = "0.1.0"

from .model import FieldParams, SeekerParams, eval_field
from .ode import (
    IntegrationAborted,
    IntegratorConfig,
    Trajectory,
    first_entry_time,
    integrate,
)
from .seekers import (
    AveragedForm,
    FRAME_SPECS,
    Frame,
    FrameSpec,
    Scheme,
    averaged_closed_loop,
    closed_loop,
    gradient_affine_system,
    newton_affine_system,
    rotation_matrix,
    to_rotating_frame,
)
from .averaging import (
    AveragedField,
    ControlAffineSystem,
    Coefficient,
    DivergentAverageError,
    OscillatoryInput,
    QuadratureError,
    build_averaged_field,
    check_assumptions,
    default_omega_grid,
    gamma_pair,
    gamma_triple,
    lie_bracket,
)
from .stability import (
    EquilibriumError,
    Linearization,
    LyapunovCertificate,
    build_certificate,
    iss_bound_check,
    linearize,
    lyapunov_V,
    stability_report,
    vdot_margin,
)
from .experiments import (
    AppConfig,
    CompareConfig,
    ConfigError,
    DEFAULT_FIELD,
    DEFAULT_PARAMS,
    DEFAULT_X0,
    HessianSweepConfig,
    OmegaSweepConfig,
    RateEstimate,
    Scenario,
    estimate_rate,
    load_config,
    run_average,
    run_certify,
    run_compare,
    run_hessian_invariance,
    run_omega_sweep,
    run_simulate,
)
