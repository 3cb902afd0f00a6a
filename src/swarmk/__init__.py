"""swarmk: macroscopic rate-equation models of multi-robot systems.

Compile state diagrams of agent swarms into rate equations (ordinary,
delayed, or finite-difference), integrate them, analyze steady states and
optima, and cross-check the mean-field predictions against exact
master-equation solutions and stochastic simulation.
"""
from .diagram import (RateSystem, StateDiagram, Transition, ValidationReport,
                      compile_rhs, validate_diagram)
from .errors import (ConservationDrift, DelayMisaligned, EvalError,
                     IntegrationError, LexError, ModelError,
                     NegativePopulation, NonFinite, NotReached,
                     ParseError, SemanticError, StepGridError,
                     SwarmkError)
from .integrate import (HistoryAccessor, Trajectory, integrate,
                        integrate_delayed, iterate_difference)
from .models import BUILTIN_NAMES, build_builtin, shipped_source
from .parser import parse_file, parse_model, pretty_print
from .analysis import (SteadyStateResult, SweepTable, beta_critical,
                       collaboration_rate, completion_time,
                       efficiency_per_robot, gamma_opt, scaling_exponent,
                       steady_state_delayed, steady_state_simple,
                       steady_state_of_trajectory, sweep, tau_opt)
from .stochastic import (ConfigurationSpace, EnsembleStats, ensemble,
                         master_exact, semimarkov_run, ssa_run)

__version__ = "1.0.0"

__all__ = [
    "BUILTIN_NAMES", "ConfigurationSpace", "ConservationDrift",
    "DelayMisaligned", "EnsembleStats", "EvalError", "HistoryAccessor",
    "IntegrationError", "LexError", "ModelError", "NegativePopulation",
    "NonFinite", "NotReached", "ParseError", "RateSystem",
    "SemanticError", "StateDiagram", "StepGridError", "SteadyStateResult",
    "SwarmkError", "SweepTable", "Trajectory", "Transition",
    "ValidationReport", "beta_critical", "build_builtin",
    "collaboration_rate", "compile_rhs", "completion_time",
    "efficiency_per_robot", "ensemble", "gamma_opt", "integrate", "integrate_delayed",
    "iterate_difference", "master_exact", "parse_file", "parse_model",
    "pretty_print", "scaling_exponent", "semimarkov_run", "shipped_source",
    "ssa_run", "steady_state_delayed", "steady_state_of_trajectory",
    "steady_state_simple", "sweep", "tau_opt", "validate_diagram",
]
