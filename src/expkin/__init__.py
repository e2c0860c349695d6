"""Adaptive exponential time integration for zero-D chemical kinetics."""

from .kinetics import (EXP_ARG_MAX, P_STANDARD, R_GAS, InvalidStateError,
                       KineticsError, Mechanism, RateTelemetry, Reaction,
                       Species, ThermoRangeError, ThermoState, concentrations,
                       density, equilibrium_constants, fd_jacobian,
                       production_rates, rate_constants, reaction_rates, rhs,
                       rhs_and_jacobian, rhs_vector, species_thermo)
from .phikrylov import (Arnoldi, PhiConvergenceError, PhiResult,
                        dense_phi_oracle, expm, kiops_eval, phi_scalar)
from .integrator import (ControllerConfig, OdeProblem, SolverOutput,
                         StepRecord, controller_update, epi3v_step,
                         integrate_adaptive, integrate_fixed,
                         integrate_mechanism, problem_from_mechanism,
                         scaled_error_norm)
from .diagnostics import (EigensolverError, SpectrumStats, eigenvalues_dense,
                          jacobian_spectrum, normalized_step_cost,
                          spectrum_bounds)
from .mechio import (MechIoError, RunConfig, parse_config, parse_mechanism,
                     read_csv, serialize_mechanism, write_csv)

__version__ = "0.1.0"
