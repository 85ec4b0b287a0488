"""whipflow: a numerical laboratory for the overdamped inextensible-string
gradient flow, its epsilon-regularized parabolic approximation, and the
tension boundary-value problems that govern it."""

from .diagnostics import (constitutive_tension, decay_fit,
                          generalized_residual, hardy_check,
                          potential_energy, report)
from .flow import (ArcState, GravitySpec, StepperConfig, discrete_energy,
                   evolve, residual, step)
from .grid import Grid
from .regmap import RegularizedMap
from .run_io import RunRecord, Snapshot, read_run, write_run
from .scenarios import BranchingPair, ScenarioSpec, branching_pair, build, mollify
from .tension import (TensionProfile, counterexample_tension, solve_tension,
                      tension_for_state)

__version__ = "0.1.0"

__all__ = [
    "ArcState", "BranchingPair", "GravitySpec", "Grid", "RegularizedMap",
    "RunRecord", "ScenarioSpec", "Snapshot", "StepperConfig",
    "TensionProfile", "branching_pair", "build", "constitutive_tension",
    "counterexample_tension", "decay_fit", "discrete_energy", "evolve",
    "generalized_residual", "hardy_check", "mollify", "potential_energy",
    "read_run", "report", "residual", "solve_tension", "step",
    "tension_for_state", "write_run",
]
