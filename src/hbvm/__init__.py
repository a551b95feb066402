"""Energy-conserving HBVM(k,s) and Gauss-Legendre collocation integrators
with an efficient triangular-splitting solver for the stage equations."""

from .convergence import amplification_report
from .hamiltonian import HamiltonianSystem, charged_particle, fpu_modified, harmonic_oscillator
from .integrator import RunConfig, integrate
from .nlsolve import SolveOptions, StageProblem
from .polybasis import gauss_rule
from .splitting import build_splitting, verify_conditions
from .tableau import build_tableau

__version__ = "0.1.0"
