"""Quaternion attitude-control simulation with an energy-aware switching
controller, a shorter-path benchmark law, and Lyapunov verification tools.

The package exports the names of the README's Library example and what a
caller of ``run_scenario`` needs; everything else is read from its module."""

from .controllers import GainSet
from .harness import (
    RunResult,
    Scenario,
    effort_comparison,
    export_run,
    lyapunov_ic_table,
    make_ic_scenario,
    run_scenario,
)
from .reference import ManeuverSpec
from .rigid_body import SimulationError
from .stability import saddle_eigenvalues

__version__ = "0.1.0"
