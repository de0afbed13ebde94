"""Global spectral method for linear PDEs on the cube [-1, 1]^3.

Chebyshev trial basis, ultraspherical test basis, CP-split operators,
boundary-condition substitution, and a Laplace-like solver (or GMRES
preconditioned by it) for the reduced tensor-valued linear system.  The
Laplace-like solver diagonalizes when the eigenvector matrices are well
conditioned and otherwise runs a Schur-form Sylvester sweep, as it always
does for a first-order mode.
"""

from .bc import (
    BoundaryConditionError,
    BoundaryOperator,
    BoundarySet,
    ReducedSystem,
    assemble_boundary_set,
    constraint_residual,
    dirichlet,
    neumann,
    normalize_leading_identity,
    reconstruct,
    reduce,
)
from .drivers import (
    FaceBC,
    ProblemSpec,
    Solution,
    SolverOptions,
    StationarySolver,
    evolve_implicit_euler,
    inverse_iteration,
    solve_stationary,
    zero_dirichlet_boundary,
)
from .opdisc import (
    CpFactors,
    DiffOperator3,
    DiffusionForm,
    DiscretizedOperator,
    apply_operator,
    assemble_L_1d,
    build_coeff_tensor,
    cp_decompose,
    discretize,
    split_operator,
)
from .presets import PRESETS, make_problem
from .tensolve import (
    GmresError,
    NotLaplaceLikeError,
    ReshapeRefusedError,
    SingularOperatorError,
    SolveReport,
    SolverError,
    apply_reduced_operator,
    gmres_solve,
    real_schur,
)
from .tensor3 import (
    ShapeError,
    mode_matricize,
    mode_mult,
    vectorize,
)

__version__ = "0.1.0"
