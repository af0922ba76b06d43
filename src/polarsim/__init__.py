"""polarsim: a numerical laboratory for mass-conserved reaction-diffusion systems.

Simulates two-species systems u_t = D lap u + f(u, v), tau v_t = lap v - f(u, v)
with Neumann boundary conditions, where the reaction only exchanges mass
between the species, so the total mean(u + tau v) is a conserved quantity.
Alongside the PDE solver it provides the homogeneous equilibrium theory, the
well-mixed ODE reduction, energy (Lyapunov) functionals and their dissipation
identities, sufficient conditions for convergence to the flat state, and
scanners for the mode degeneracies that gate inhomogeneous bifurcation.
"""

from .errors import (
    ConfigError,
    DiagnosticsError,
    EquilibriumError,
    GridMismatchError,
    ParameterError,
    PolarsimError,
    QuadratureError,
    SolverError,
)
from .grid import (
    Field,
    Grid,
    discrete_neumann_eigenvalue,
    neumann_eigenvalue,
    second_eigenvalue,
)
from .kinetics import (
    Model1Params,
    Model2Params,
    Model4Params,
    ModelParams,
    quasi_positivity_margins,
    reaction_rhs,
)
from .equilibrium import (
    HomogeneousEquilibrium,
    OdeTrajectory,
    balance_gap,
    constant_a_equilibrium,
    integrate_homogeneous_ode,
    solve_equilibrium,
)
from .linearization import (
    DegeneracyReport,
    ModeEigenpair,
    degeneracy_residual,
    linearized_operator_matrix,
    mode_eigenpair,
    mode_matrix,
    scan_degeneracy,
)
from .solver import (
    RunResult,
    SimState,
    SolverConfig,
    default_dt,
    read_snapshot,
    run,
    transform_w,
    transform_z,
    write_snapshot,
)
from .diagnostics import (
    ConditionReport,
    DecayEstimate,
    DiagnosticsRecord,
    OmegaLimitReport,
    PairingMonitor,
    RecordBuilder,
    check_contraction_condition,
    check_coupling_condition,
    check_sigma_condition,
    deviation_pairing_integral,
    estimate_decay_rate,
    fit_decay_rate,
    lyapunov_model1,
    lyapunov_model2,
    omega_limit_check,
    sufficient_sigma,
    v_norm_sup,
    variational_energy_model1,
    variational_energy_model2,
    write_diagnostics_table,
)
from .config import (
    ExpressionIC,
    FileIC,
    PerturbationIC,
    ScenarioConfig,
    build_initial_condition,
    compile_expression,
    load_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PolarsimError",
    "ParameterError",
    "GridMismatchError",
    "EquilibriumError",
    "QuadratureError",
    "SolverError",
    "DiagnosticsError",
    "ConfigError",
    # grid
    "Grid",
    "Field",
    "neumann_eigenvalue",
    "discrete_neumann_eigenvalue",
    "second_eigenvalue",
    # kinetics
    "ModelParams",
    "Model1Params",
    "Model2Params",
    "Model4Params",
    "reaction_rhs",
    "quasi_positivity_margins",
    # equilibrium
    "HomogeneousEquilibrium",
    "OdeTrajectory",
    "balance_gap",
    "solve_equilibrium",
    "constant_a_equilibrium",
    "integrate_homogeneous_ode",
    # linearization
    "ModeEigenpair",
    "DegeneracyReport",
    "mode_matrix",
    "mode_eigenpair",
    "degeneracy_residual",
    "scan_degeneracy",
    "linearized_operator_matrix",
    # solver
    "SolverConfig",
    "SimState",
    "RunResult",
    "default_dt",
    "run",
    "transform_w",
    "transform_z",
    "write_snapshot",
    "read_snapshot",
    # diagnostics
    "DiagnosticsRecord",
    "RecordBuilder",
    "ConditionReport",
    "check_coupling_condition",
    "check_contraction_condition",
    "check_sigma_condition",
    "sufficient_sigma",
    "lyapunov_model1",
    "lyapunov_model2",
    "variational_energy_model1",
    "variational_energy_model2",
    "DecayEstimate",
    "fit_decay_rate",
    "estimate_decay_rate",
    "OmegaLimitReport",
    "omega_limit_check",
    "PairingMonitor",
    "deviation_pairing_integral",
    "v_norm_sup",
    "write_diagnostics_table",
    # config
    "ExpressionIC",
    "FileIC",
    "PerturbationIC",
    "ScenarioConfig",
    "load_scenario",
    "build_initial_condition",
    "compile_expression",
]
