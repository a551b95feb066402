"""Energy-conserving HBVM(k,s) and Gauss-Legendre collocation integrators
with an efficient triangular-splitting solver for the stage equations."""

from .convergence import (
    AmplificationReport,
    amplification_report,
    iteration_matrix,
    spectral_radius,
)
from .hamiltonian import (
    HamiltonianSystem,
    apply_J,
    charged_particle,
    fpu_modified,
    harmonic_oscillator,
)
from .integrator import (
    RunConfig,
    RunStats,
    Trajectory,
    composition6_stormer_verlet,
    integrate,
    order_study,
)
from .nlsolve import (
    SolveOptions,
    SolveResult,
    StageProblem,
    fixed_point_solve,
    residual_F,
    simplified_newton_solve,
    splitting_solve,
    stages_from_gamma,
)
from .polybasis import QuadratureRule, gauss_rule, legendre_eval, legendre_integral, xi
from .splitting import (
    SplittingData,
    auxiliary_abscissae,
    build_splitting,
    crout_lu_constant_diag,
    d_s,
    verify_conditions,
)
from .tableau import HbvmTableau, build_Xhat, build_tableau, det_Xs, leading_Xs

__version__ = "0.1.0"
