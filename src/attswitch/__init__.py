"""Quaternion attitude-control simulation with an energy-aware switching
controller, a shorter-path benchmark law, and Lyapunov verification tools."""

from .controllers import (
    BenchmarkController,
    ContinuousController,
    ErrorState,
    GainSet,
    SwitchingController,
    nu_sigma,
    switch_function,
    update_sigma,
)
from .harness import (
    BENCHMARK_GAINS,
    REFERENCE_ICS,
    SWITCHING_GAINS,
    ComparisonReport,
    PerturbationSpec,
    RunResult,
    Scenario,
    control_effort,
    effort_comparison,
    export_run,
    lyapunov_ic_table,
    make_ic_scenario,
    run_scenario,
)
from .quat import (
    IDENTITY,
    from_axis_angle,
    quat_inverse,
    quat_kinematics,
    quat_mul,
    rotate_vector,
    to_axis_angle,
    yaw_of,
)
from .reference import (
    ManeuverSpec,
    ManeuverTracker,
    stage3_initial_state,
)
from .rigid_body import (
    DEFAULT_DT,
    DEFAULT_INERTIA,
    SimulationError,
    Trajectory,
    simulate,
    validate_inertia,
)
from .stability import (
    SaddleSpectrum,
    closed_loop_field,
    error_jacobian,
    exponential_rate_check,
    format_stability_report,
    inter_switch_decrease_check,
    lyapunov_decay_bound,
    lyapunov_rate,
    lyapunov_series,
    lyapunov_value,
    p_matrix_certificate,
    roa_contains,
    saddle_eigenvalues,
    saddle_jacobian,
)

__version__ = "0.1.0"
