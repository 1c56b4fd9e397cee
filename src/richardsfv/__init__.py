"""richardsfv: finite-volume solver for the steady-state Richards
equation, built around a nonlinearity-continuation driver with
interchangeable Newton / Picard / mixed nonlinear solvers."""

from .benchmarks import (build_dam, build_layered_slab, build_preset,
                         build_verification_linear, dam_conductivity)
from .constitutive import (UnconfinedParams, VgmParams, continuation_kr,
                           unconf_theta, vgm_kr_of_head, vgm_kr_of_theta,
                           vgm_theta)
from .continuation import (ContinuationConfig, ContinuationReport,
                           make_entries, run_continuation, sweep)
from .discretization import (Assembly, AssemblyError, Discretization, Medium,
                             ProblemSpec, tpfa_transmissibilities)
from .linalg import LinearSolveReport, SingularMatrixError, solve
from .mesh import (Mesh2D, MeshFormatError, MeshTopologyError, build_mesh,
                   gen_cartesian, gen_triangular, read_mesh, write_mesh)
from .output import (FieldSnapshot, field_snapshot, write_convergence_csv,
                     write_report_csv, write_sweep_csv, write_vtk)
from .solvers import (CONVERGED, DIVERGED, LINE_SEARCH_FAILED,
                      LINEAR_SOLVE_FAILED, MAX_ITERATIONS, ConvergenceTrace,
                      LineSearchConfig, SolverConfig, WarmupConfig,
                      armijo_line_search, newton_step, picard_step,
                      solve_nonlinear)

__version__ = "0.1.0"

# The kernel implementation, recorded in benchmark run manifests; the
# numpy kernels in _kernels are the only one.
BACKEND = "python"
