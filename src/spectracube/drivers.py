"""End-to-end problem pipelines.

``StationarySolver`` prepares a problem once (discretization, boundary
substitution, backend factorizations) and solves repeatedly for new right
sides; ``solve_stationary`` is the one-shot wrapper.  On top of it sit the
residual-driven adaptive loop, the implicit Euler time stepper, and the
inverse-iteration eigensolver.
"""

from __future__ import annotations

import contextlib
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .bc import (
    BoundaryConditionError,
    assemble_boundary_set,
    constraint_residual,
    dirichlet,
    neumann,
    normalize_leading_identity,
    reconstruct,
    reduce,
)
from .cheb import (
    cheb_interp_3d,
    conv_chain,
    eval_cheb_3d,
    inner_product_3d,
    l2_norm_3d,
)
from .opdisc import (
    DiffOperator3,
    DiffusionForm,
    Operator,
    _coeff_fn1,
    _coeff_fn3,
    _is_const,
    apply_operator,
    discretize,
    scale_shift_operator,
    split_operator,
)
from .expr import ExprError
from .tensolve import (
    RESHAPE_CAP,
    GmresError,
    ReducedLaplaceSolver,
    ReshapeSolver,
    SolveReport,
    SolverError,
    apply_reduced_operator,
    gmres_solve,
)
from .tensor3 import mode_mult


@dataclass(frozen=True)
class FaceBC:
    """Boundary condition on one face: kind 'dirichlet' or 'neumann', data a
    constant or a bivariate function of the remaining coordinates."""

    kind: str
    data: object = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann"):
            raise BoundaryConditionError(f"unknown boundary kind {self.kind!r}")


def zero_dirichlet_boundary(orders: tuple[int, int, int]) -> dict:
    """Homogeneous Dirichlet data on every face of modes with order 2."""
    faces = {}
    for mode in range(1, 4):
        if orders[mode - 1] == 2:
            faces[(mode, -1)] = FaceBC("dirichlet", 0.0)
            faces[(mode, 1)] = FaceBC("dirichlet", 0.0)
        elif orders[mode - 1] == 1:
            faces[(mode, -1)] = FaceBC("dirichlet", 0.0)
        elif orders[mode - 1] != 0:
            raise BoundaryConditionError(
                f"no default boundary for operator order {orders[mode - 1]}"
            )
    return faces


BACKENDS = ("auto", "recursive", "gmres", "reshape")
# the named ``precond`` values; it may also be a surrogate operator
PRECONDS = ("auto", "separable", "constant", "none")


@dataclass
class SolverOptions:
    """Backend and discretization knobs for one problem."""

    backend: str = "auto"  # auto | recursive | gmres | reshape
    gmres_max_outer: int = 200
    cp_rank: int = 10
    mult_rank: int = 7
    split_identity: bool = True
    cp_restarts: int = 5
    cp_seed: int = 0
    precond: object = "auto"  # auto | separable | constant | none | Operator
    seed: int = 1234
    samples: int = 1000

    def __post_init__(self):
        for name in ("cp_rank", "mult_rank", "cp_restarts", "gmres_max_outer", "samples"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(
                    f"bad value for solver option {name!r}: {value!r} (must be at least 1)"
                )
        for name, allowed in (("backend", BACKENDS), ("precond", PRECONDS)):
            value = getattr(self, name)
            # a non-string precond is a surrogate operator
            if name == "precond" and isinstance(value, (DiffOperator3, DiffusionForm)):
                continue
            if not isinstance(value, str) or value not in allowed:
                raise ValueError(
                    f"bad value for solver option {name!r}: {value!r} "
                    f"(allowed: {', '.join(allowed)})"
                )


@dataclass
class ProblemSpec:
    """A stationary problem: operator, right side, boundary data, degrees."""

    operator: Operator
    rhs: object  # trivariate callable or Chebyshev coefficient tensor
    boundary: dict  # {(mode, side): FaceBC}
    degrees: tuple[int, int, int]
    options: SolverOptions = field(default_factory=SolverOptions)
    exact: Callable | None = None

    def __post_init__(self):
        orders = self.operator.orders
        for mode in range(3):
            have = sum(1 for (m, _s) in self.boundary if m == mode + 1)
            if have != orders[mode]:
                raise BoundaryConditionError(
                    f"mode {mode + 1} has {have} boundary faces but operator "
                    f"order {orders[mode]}"
                )


@dataclass
class Solution:
    u: np.ndarray
    report: SolveReport
    combined_residual: float
    degrees: tuple[int, int, int]
    error: float | None = None


class _Stage:
    """Context tagging errors with the pipeline stage that raised them and
    timing the stage into ``stages[name]``.

    An expression that cannot be evaluated (an ``ExprError`` from a
    coefficient, face data or the right side) is bad input and stays a
    ``ValueError``; any other error becomes a ``SolverError``.
    """

    def __init__(self, name: str, stages: dict):
        self.name = name
        self.stages = stages

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stages[self.name] = time.perf_counter() - self._t0
        if isinstance(exc, Exception) and not isinstance(exc, _Tagged):
            tagged = _TaggedInputError if isinstance(exc, ExprError) else _TaggedSolverError
            raise tagged(f"[{self.name}] {exc}", exc) from exc
        return False


class _Tagged(Exception):
    """An error tagged with the stage that raised it; ``original`` is the
    untagged error."""

    def __init__(self, message, original):
        super().__init__(message)
        self.original = original


class _TaggedSolverError(_Tagged, SolverError):
    pass


class _TaggedInputError(_Tagged, ValueError):
    pass


def _boundary_rows(boundary: dict, degrees, orders):
    rows = [[], [], []]
    for mode in range(1, 4):
        for side in (-1, 1):
            face = boundary.get((mode, side))
            if face is None:
                continue
            if face.kind == "dirichlet":
                rows[mode - 1].append(dirichlet(mode, side, face.data, degrees))
            else:
                rows[mode - 1].append(neumann(mode, side, face.data, degrees))
    return rows


def to_output_basis(u_cheb: np.ndarray, orders: tuple[int, int, int]) -> np.ndarray:
    """Convert a Chebyshev coefficient tensor into the operator's output
    ultraspherical basis (parameter = differential order, per mode)."""
    out = np.asarray(u_cheb, dtype=float)
    for mode in range(3):
        if orders[mode] > 0:
            out = mode_mult(out, conv_chain(0, orders[mode], out.shape[mode] - 1), mode + 1)
    return out


def _auto_surrogate(operator: Operator, degrees, options: SolverOptions):
    """Surrogate operator for preconditioning.

    Diffusion forms keep their first separable term ('separable', the
    default) or become the constant-coefficient ``-c Laplacian``, ``c`` the
    L2 norm of the whole coefficient ('constant').  General operators drop
    their mixed derivatives, which no Laplace-like surrogate holds, and
    replace every other non-constant coefficient by its L2 norm.
    """
    spec = options.precond
    if isinstance(spec, (DiffOperator3, DiffusionForm)):
        return spec
    if isinstance(operator, DiffusionForm):
        if spec in ("auto", "separable"):
            return DiffusionForm(terms=(operator.terms[0],))
        n1, n2, n3 = degrees
        total = np.zeros((n1 + 1, n2 + 1, n3 + 1))
        for term in operator.terms:
            fns = [_coeff_fn1(f, v) for f, v in zip(term, "xyz")]
            total += cheb_interp_3d(
                lambda x, y, z: fns[0](x) * fns[1](y) * fns[2](z), n1, n2, n3
            )
        c = l2_norm_3d(total)
        return DiffOperator3(
            orders=(2, 2, 2), coeffs={(2, 0, 0): -c, (0, 2, 0): -c, (0, 0, 2): -c}
        )
    coeffs = {}
    for key, val in operator.coeffs.items():
        if sum(o > 0 for o in key) > 1:
            continue
        if _is_const(val):
            coeffs[key] = val
        else:
            k = cheb_interp_3d(_coeff_fn3(val), *degrees)
            coeffs[key] = l2_norm_3d(k)
    return DiffOperator3(orders=operator.orders, coeffs=coeffs)


class StationarySolver:
    """Prepared stationary pipeline, reusable across right sides.

    The constructor does the right-side-independent work: operator
    discretization, boundary normalization and substitution (which carries
    the boundary data through the operator once), and the Laplace-like
    factorizations (eigendecompositions or Schur forms, and companion LUs)
    of the ``recursive`` backend or of the ``gmres`` preconditioner.  The
    ``reshape`` backend assembles and sparse-LU factorizes the Kronecker
    system in its first solve and keeps the factors for later right sides.
    """

    def __init__(
        self,
        operator: Operator,
        boundary: dict,
        degrees: tuple[int, int, int],
        options: SolverOptions | None = None,
    ):
        orders = operator.orders
        if any(n < o for n, o in zip(degrees, orders)):
            raise ValueError(f"degrees {degrees} must be at least the operator orders {orders}")
        self.options = options or SolverOptions()
        self.degrees = degrees
        # seconds of each preparation stage, copied into every report
        self.stages = {}
        with _Stage("discretize", self.stages):
            # the split's warnings go into every report and are re-issued
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                split = split_operator(operator, degrees, self.options)
                self.disc = discretize(operator, degrees, split)
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        self.discretize_warnings = [str(w.message) for w in caught]
        with _Stage("boundary", self.stages):
            rows = _boundary_rows(boundary, degrees, self.disc.orders)
            bset = assemble_boundary_set(rows, degrees, self.disc.orders)
            self.bset = normalize_leading_identity(bset)
        with _Stage("reduce", self.stages):
            self.reduced = reduce(self.disc, self.bset)
        backend = self.options.backend
        auto = backend == "auto"
        if auto:
            backend = "recursive" if self.reduced.laplace_like else "gmres"
        self.fallback_note = None
        # the Laplace-like solver of the recursive backend or of the gmres
        # preconditioner, and the sparse LU of the reshape backend
        self._laplace = None
        self._reshape = None
        if backend == "gmres" and self.options.precond != "none":
            try:
                with _Stage("preconditioner", self.stages):
                    # a Laplace-like system is its own, unless refused or an operator is given
                    if self.reduced.laplace_like and isinstance(self.options.precond, str):
                        with contextlib.suppress(SolverError):
                            self._laplace = ReducedLaplaceSolver(self.reduced)
                    if self._laplace is None:
                        surrogate_op = _auto_surrogate(operator, degrees, self.options)
                        split = split_operator(surrogate_op, degrees, self.options)
                        sdisc = discretize(surrogate_op, degrees, split)
                        self._laplace = ReducedLaplaceSolver(reduce(sdisc, self.bset))
            except SolverError as exc:
                # auto-selected gmres falls back to the direct backend
                # when no usable surrogate exists
                if not (auto and np.prod(self.reduced.shape) <= RESHAPE_CAP):
                    raise
                backend = "reshape"
                self.fallback_note = f"gmres preconditioner unavailable ({exc})"
        if backend == "recursive":
            with _Stage("factorize", self.stages):
                self._laplace = ReducedLaplaceSolver(self.reduced)
        self.backend = backend

    def solve_output_rhs(self, f_out: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """Solve for a right side already in the operator's output basis.

        Under ``reshape`` the first call assembles and factorizes the
        Kronecker system, inside its ``wall_seconds``; later calls reuse the
        factors.  ``report.stages`` holds the seconds of the preparation
        stages (discretize, boundary, reduce, and preconditioner or
        factorize) and of this call's solve, residual and reconstruct.
        GMRES computes its true residual inside the solve stage, so its
        report has no residual stage.
        """
        sys, fhat = self.reduced, self.reduced.rhs(f_out)
        stages = dict(self.stages)
        with _Stage("solve", stages):
            if self.backend == "gmres":
                precond = None if self._laplace is None else (lambda y: self._laplace.solve(y)[0])
                try:
                    x, report = gmres_solve(
                        lambda t: apply_reduced_operator(sys, t),
                        precond,
                        fhat,
                        max_outer=self.options.gmres_max_outer,
                    )
                except GmresError as exc:
                    if self.disc.cp_fit is not None:
                        exc.args = (f"{exc}; {self._cp_split_note()}",)
                    raise
            elif self.backend == "recursive":
                x, solves = self._laplace.solve(fhat)
            else:
                if self._reshape is None:
                    self._reshape = ReshapeSolver(sys)
                x, solves = self._reshape.solve(fhat), None
        if self.backend != "gmres":
            with _Stage("residual", stages):
                res = float(np.max(np.abs(apply_reduced_operator(sys, x) - fhat)))
            report = SolveReport(
                backend=self.backend, residual=res, wall_seconds=stages["solve"],
                iterations=solves,
            )
        if self._laplace is not None:
            report.extra["laplace_path"] = self._laplace.path
            report.extra["eigvec_cond"] = self._laplace.eigvec_cond
            report.extra["min_eig_sum"] = self._laplace.min_eig_sum
        fit = self.disc.cp_fit
        if fit is not None:
            report.cp_error = fit.error
            report.extra["cp_restart"] = fit.restart
            report.extra["cp_sweeps"] = fit.sweeps
            report.extra["cp_core_dims"] = fit.core_dims
        with _Stage("reconstruct", stages):
            u = reconstruct(x, self.bset)
        report.stages = stages
        report.warnings = [*self.discretize_warnings, *self.bset.warnings]
        if self.fallback_note:
            report.warnings.append(self.fallback_note)
        if fit is not None and fit.regularized:
            report.warnings.append(
                f"CP-ALS restart {fit.restart} won after a ridge fallback on a "
                f"singular normal system (cp_error {fit.error:.3g})"
            )
        return u, report

    def _cp_split_note(self) -> str:
        """Names the CP-ALS split of the operator: the rank option it was
        fitted at (``mult_rank`` when only the zero-order coefficient went
        through CP-ALS) and its error."""
        fit = self.disc.cp_fit
        rank = fit.factors[0].shape[1]
        option = "cp_rank" if rank == self.disc.rank else "mult_rank"
        return (
            f"the operator is a CP-ALS split with {option} {rank} and cp_error "
            f"{fit.error:.3g}; a higher {option} may help"
        )

    def solve_cheb_rhs(self, f_cheb: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        return self.solve_output_rhs(to_output_basis(f_cheb, self.disc.orders))

    def combined_residual(self, u: np.ndarray, f_out: np.ndarray) -> float:
        """Max of the discretized-PDE residual and all constraint residuals."""
        pde = float(np.max(np.abs(apply_operator(self.disc, u) - f_out)))
        return max(pde, constraint_residual(u, self.bset))


def _rhs_output_tensor(spec: ProblemSpec, solver: StationarySolver) -> np.ndarray:
    if callable(spec.rhs):
        f_cheb = cheb_interp_3d(spec.rhs, *spec.degrees)
    else:
        f_cheb = np.asarray(spec.rhs, dtype=float)
    return to_output_basis(f_cheb, solver.disc.orders)


def sample_points(seed: int, count: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (count, 3))


def sampled_max_error(u: np.ndarray, exact, seed: int, count: int) -> float:
    pts = sample_points(seed, count)
    vals = eval_cheb_3d(u, pts[:, 0], pts[:, 1], pts[:, 2])
    ref = exact(pts[:, 0], pts[:, 1], pts[:, 2])
    return float(np.max(np.abs(vals - ref)))


def solve_stationary(spec: ProblemSpec) -> Solution:
    """Full pipeline: discretize, substitute boundaries, solve, reconstruct.

    Besides the stages of :meth:`StationarySolver.solve_output_rhs`,
    ``report.stages`` times the right side (``rhs``) and the checks after
    the solve: ``combined_residual`` and, when the problem has an exact
    solution, ``sampled_error``.
    """
    solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)
    rhs_stage = {}
    with _Stage("rhs", rhs_stage):
        f_out = _rhs_output_tensor(spec, solver)
    u, report = solver.solve_output_rhs(f_out)
    report.stages.update(rhs_stage)
    with _Stage("combined_residual", report.stages):
        combined = solver.combined_residual(u, f_out)
    err = None
    if spec.exact is not None:
        with _Stage("sampled_error", report.stages):
            err = sampled_max_error(u, spec.exact, spec.options.seed, spec.options.samples)
    return Solution(
        u=u, report=report, combined_residual=combined, degrees=spec.degrees, error=err
    )


def _tail_mass(u: np.ndarray) -> float:
    """Largest coefficient among the trailing 10% of indices of any mode."""
    out = 0.0
    for mode in range(3):
        n = u.shape[mode]
        start = max(n - max(n // 10, 1), 0)
        sl = [slice(None)] * 3
        sl[mode] = slice(start, None)
        out = max(out, float(np.max(np.abs(u[tuple(sl)]))))
    return out


def adaptive_solve(spec: ProblemSpec, residual_tol: float, n_max: int) -> Solution:
    """Double the degrees until the combined residual and the trailing
    coefficient mass both drop below the tolerance (or the cap is hit)."""
    if n_max < max(spec.degrees):
        raise ValueError(f"n_max {n_max} below initial degrees {spec.degrees}")
    degrees = spec.degrees
    history = []
    while True:
        sol = solve_stationary(replace(spec, degrees=degrees))
        tail = _tail_mass(sol.u)
        history.append((degrees, sol.combined_residual, tail))
        sol.report.extra["degree_history"] = history
        if sol.combined_residual <= residual_tol and tail <= residual_tol:
            return sol
        doubled = tuple(min(2 * n, n_max) for n in degrees)
        if doubled == degrees:
            sol.report.warnings.append(
                f"adaptive degree cap {n_max} reached with combined residual "
                f"{sol.combined_residual:.3e} and tail mass {tail:.3e} above "
                f"tolerance {residual_tol:.3e}"
            )
            return sol
        degrees = doubled


def evolve_implicit_euler(
    generator: DiffOperator3,
    u0: Callable,
    h: float,
    steps: int,
    degrees: tuple[int, int, int],
    options: SolverOptions | None = None,
    boundary: dict | None = None,
) -> tuple[list, StationarySolver]:
    """Backward Euler states for ``du/dt = L u`` with homogeneous boundaries.

    Each step solves the stationary problem ``(I - h L) u_next = u_prev``;
    the step operator is discretized once and its factorizations reused.
    Returns the list ``[U_0, ..., U_steps]`` and the prepared solver.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    step_op = scale_shift_operator(generator, -h, 1.0)
    if boundary is None:
        boundary = zero_dirichlet_boundary(step_op.orders)
    solver = StationarySolver(step_op, boundary, degrees, options)
    u = cheb_interp_3d(u0, *degrees)
    states = [u]
    for _ in range(steps):
        u, _report = solver.solve_cheb_rhs(u)
        states.append(u)
    return states, solver


def inverse_iteration(
    operator: Operator,
    u0: Callable,
    iters: int,
    degrees: tuple[int, int, int],
    options: SolverOptions | None = None,
    boundary: dict | None = None,
) -> tuple[float, np.ndarray, list, StationarySolver]:
    """Smallest eigenpair of ``L u = lambda u`` by inverse iteration.

    Each step solves ``L u_s = u_{s-1} / ||u_{s-1}||`` with cached
    factorizations; the eigenvalue estimate is the reciprocal Rayleigh
    quotient against the normalized predecessor.  Returns the final
    estimate, the normalized eigenfunction tensor, the estimate history and
    the prepared solver.
    """
    if iters < 1:
        raise ValueError("inverse iteration needs at least one step")
    if boundary is None:
        boundary = zero_dirichlet_boundary(operator.orders)
    solver = StationarySolver(operator, boundary, degrees, options)
    v = cheb_interp_3d(u0, *degrees)
    history = []
    for _ in range(iters):
        nrm = l2_norm_3d(v)
        if nrm < 1e-300:
            raise SolverError("inverse iteration breakdown: iterate norm underflow")
        vhat = v / nrm
        w, _report = solver.solve_cheb_rhs(vhat)
        mu = inner_product_3d(vhat, w)
        if mu == 0.0:
            raise SolverError("inverse iteration breakdown: zero Rayleigh quotient")
        history.append(1.0 / mu)
        v = w
    return history[-1], v / l2_norm_3d(v), history, solver
