"""End-to-end problem pipelines.

``StationarySolver`` prepares a problem once (discretization, boundary
substitution, backend factorizations) and solves repeatedly for new right
sides; ``solve_stationary`` is the one-shot wrapper.  On top of it sit the
implicit Euler time stepper and the inverse-iteration eigensolver.

Conditions the user must hear about (a non-positive diffusion factor, face
data that disagree along an edge, a CP-ALS ridge, a fallback from ``gmres``
to ``reshape``) are ``UserWarning``s issued where they are found.
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
    cheb_gram,
    cheb_grid_values,
    cheb_interp_3d,
    conv_chain,
    eval_cheb_3d,
    inner_product_3d,
    l2_norm_3d,
    values_to_output,
)
from .opdisc import (
    DiffOperator3,
    DiffusionForm,
    Operator,
    _coeff_fn1,
    _is_const,
    apply_operator,
    discretize,
    scale_shift_operator,
    split_operator,
)
from .expr import ExprError, to_callable
from .tensolve import (
    GmresError,
    ReducedLaplaceSolver,
    ReshapeSolver,
    SolveReport,
    SolverError,
    apply_reduced_operator,
    gmres_solve,
    reshape_refusal,
)
from .tensor3 import mode_mult, mode_products


@dataclass(frozen=True)
class FaceBC:
    """Boundary condition on one face: kind 'dirichlet' or 'neumann', data a
    constant or a bivariate function of the remaining coordinates."""

    kind: str
    data: object = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann"):
            raise BoundaryConditionError(f"unknown boundary kind {self.kind!r}")


def face_restriction(f: Callable, mode: int, side: int) -> Callable:
    """The restriction of a trivariate ``f`` to face ``(mode, side)``: a
    bivariate function of the two other coordinates, in order, with the
    face's own coordinate at ``side``."""

    def data(a, b):
        coords = [a, b]
        coords.insert(mode - 1, side)
        return f(*coords)

    return data


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
        counts = ("cp_rank", "mult_rank", "cp_restarts", "gmres_max_outer", "samples")
        for name in counts + ("seed", "cp_seed"):
            value, least = getattr(self, name), 1 if name in counts else 0
            if value < least:
                raise ValueError(
                    f"bad value for solver option {name!r}: {value!r} (must be at least {least})"
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
    rhs: Callable  # trivariate; a Chebyshev tensor goes to StationarySolver.solve_cheb_rhs
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


def _boundary_rows(boundary: dict, degrees):
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
    ultraspherical basis (parameter = differential order, per mode), by the
    memoized conversion matrices of :func:`~spectracube.cheb.conv_chain`."""
    out = np.asarray(u_cheb, dtype=float)
    for mode, (order, d) in enumerate(zip(orders, out.shape), start=1):
        if order > 0:
            out = mode_mult(out, conv_chain(0, order, d - 1), mode)
    return out


def _auto_surrogate(operator: Operator, degrees, options: SolverOptions):
    """Surrogate operator for preconditioning.

    Diffusion forms keep their first separable term ('separable', the
    default) or become the constant-coefficient ``-c Laplacian``, ``c`` the
    RMS of the whole coefficient over the cube ('constant').  General
    operators drop their mixed derivatives, which no Laplace-like surrogate
    holds, and replace every other non-constant coefficient by its RMS.
    The RMS is the L2 norm over the cube of volume 8 divided by ``sqrt(8)``,
    signed as the coefficient's mean, so a constant written as an
    expression keeps its value.
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
        c = _rms(total)
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
            k = cheb_interp_3d(to_callable(val), *degrees)
            coeffs[key] = _rms(k)
    return DiffOperator3(orders=operator.orders, coeffs=coeffs)


def _rms(k: np.ndarray) -> float:
    """The root mean square over the cube of a Chebyshev coefficient tensor,
    with the sign of its mean: a negative coefficient, such as ``-h a`` of
    an implicit Euler step, keeps its sign."""
    integral = inner_product_3d(k, np.ones((1, 1, 1)))
    return float(np.copysign(l2_norm_3d(k), integral)) / np.sqrt(8.0)


class StationarySolver:
    """Prepared stationary pipeline, reusable across right sides.

    The constructor does the right-side-independent work: operator
    discretization, boundary normalization and substitution (which carries
    the boundary data through the operator once), and the Laplace-like
    factorizations (eigendecompositions or Schur forms, and companion LUs)
    of the ``recursive`` backend or of the ``gmres`` preconditioner.  The
    ``reshape`` backend assembles and sparse-LU factorizes the Kronecker
    system in its first solve and keeps the factors for later right sides;
    a preconditioned ``gmres`` builds ``P^-1 A`` in the preconditioner's
    basis (:meth:`ReducedLaplaceSolver.preconditioned`) in its first solve
    and keeps it for :meth:`Preconditioned.solve`.  ``warnings`` holds the
    messages of the warnings the whole preparation raised, in order and
    once each, and re-issued once each.
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
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                self._prepare(operator, boundary, degrees)
        finally:
            # re-issued also when a stage fails; a surrogate's split can
            # repeat a warning of the operator's split
            first = {}
            for w in caught:
                first.setdefault(str(w.message), w)
            for w in first.values():
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        self.warnings = list(first)

    def _prepare(self, operator: Operator, boundary: dict, degrees) -> None:
        with _Stage("discretize", self.stages):
            split = split_operator(operator, degrees, self.options)
            self.disc = discretize(operator, degrees, split)
        with _Stage("boundary", self.stages):
            rows = _boundary_rows(boundary, degrees)
            bset = assemble_boundary_set(rows, degrees, self.disc.orders)
            self.bset = normalize_leading_identity(bset)
        with _Stage("reduce", self.stages):
            self.reduced = reduce(self.disc, self.bset)
        backend = self.options.backend
        auto = backend == "auto"
        if auto:
            backend = "recursive" if self.reduced.laplace_like else "gmres"
        # the Laplace-like solver of the recursive backend or of the gmres
        # preconditioner, and the sparse LU of the reshape backend
        self._laplace = None
        self._reshape = None
        # gmres's P^-1 A in the preconditioner's basis, built in its first call
        self._preconditioned = None
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
                        # only P's matrices are used: reduced without face data, P has no lift
                        no_data = [replace(op, g=np.zeros_like(op.g)) for op in self.bset.ops]
                        sys = reduce(sdisc, replace(self.bset, ops=tuple(no_data)))
                        self._laplace = ReducedLaplaceSolver(sys)
            except SolverError as exc:
                # auto-selected gmres falls back to the direct backend
                # when no usable surrogate exists and reshape accepts the system
                if not auto:
                    raise
                why = reshape_refusal(self.reduced)
                if why is not None:
                    exc.args = (f"{exc}; no reshape fallback: {why}",)
                    raise
                backend = "reshape"
                warnings.warn(f"gmres preconditioner unavailable ({exc})", stacklevel=3)
        if backend == "recursive":
            with _Stage("factorize", self.stages):
                self._laplace = ReducedLaplaceSolver(self.reduced)
        self.backend = backend

    def solve_output_rhs(
        self, f_out: np.ndarray, residual: bool = True
    ) -> tuple[np.ndarray, SolveReport]:
        """Solve for a right side already in the operator's output basis.

        Under ``reshape`` the first call assembles and factorizes the
        Kronecker system, inside its ``wall_seconds``; later calls reuse the
        factors.  ``report.residual`` is the combined residual of the
        solution: the max of the discretized-PDE residual on every row,
        boundary rows dropped by the substitution included, and all
        constraint residuals.  With ``residual=False`` the call skips it, an
        operator apply and the constraint residuals: ``report.residual`` is
        ``None`` and ``report.stages`` has no ``residual`` key.  The time
        stepper and the eigensolver skip it.  ``report.stages`` holds the
        seconds of the preparation stages (discretize, boundary, reduce, and
        preconditioner or factorize) and of this call's solve, reconstruct
        and, when computed, residual.
        ``report.extra["boundary_cond"]`` holds each mode's ``cond_2`` of
        the leading boundary block that normalization inverted (1.0 where it
        was already the identity).  A preconditioned ``gmres`` is
        :meth:`Preconditioned.solve`, whose report adds
        ``extra["remainder_rank"]`` and counts ``precond_applies``; with
        ``precond="none"`` it is :func:`gmres_solve` on the reduced operator
        and ``precond_applies`` is 0.  ``report.warnings`` is a copy of
        :attr:`warnings`.
        """
        sys, fhat = self.reduced, self.reduced.rhs(f_out)
        stages = dict(self.stages)
        extra = {}
        with _Stage("solve", stages):
            if self.backend == "gmres":
                max_outer = self.options.gmres_max_outer
                try:
                    if self._laplace is None:
                        x, gmres = gmres_solve(
                            lambda t: apply_reduced_operator(sys, t), fhat, max_outer=max_outer
                        )
                        gmres.extra["precond_applies"] = 0
                    else:
                        if self._preconditioned is None:
                            self._preconditioned = self._laplace.preconditioned(sys.lhat)
                        x, gmres = self._preconditioned.solve(fhat, max_outer)
                except GmresError as exc:
                    if self.disc.cp_fit is not None:
                        exc.args = (f"{exc}; {self._cp_split_note()}",)
                    raise
                iterations, extra = gmres.iterations, gmres.extra
            elif self.backend == "recursive":
                x, iterations = self._laplace.solve(fhat)
            else:
                if self._reshape is None:
                    self._reshape = ReshapeSolver(sys)
                x, iterations = self._reshape.solve(fhat), None
        with _Stage("reconstruct", stages):
            u = reconstruct(x, self.bset)
        # free the interior tensors before the residual's temporaries (peak RSS)
        del x, fhat
        res = None
        if residual:
            with _Stage("residual", stages):
                pde = float(np.max(np.abs(apply_operator(self.disc, u) - f_out)))
                res = max(pde, constraint_residual(u, self.bset))
        report = SolveReport(
            backend=self.backend, residual=res, wall_seconds=stages["solve"],
            iterations=iterations, extra=extra, stages=stages,
        )
        report.extra["boundary_cond"] = list(self.bset.lead_cond)
        if self._laplace is not None:
            report.extra["laplace_path"] = self._laplace.path
            report.extra["eigvec_cond"] = self._laplace.eigvec_cond
            report.extra["companion_cond"] = self._laplace.companion_cond
            report.extra["min_eig_sum"] = self._laplace.min_eig_sum
        fit = self.disc.cp_fit
        if fit is not None:
            report.cp_error = fit.error
            report.extra["cp_restart"] = fit.restart
            report.extra["cp_sweeps"] = fit.sweeps
            report.extra["cp_fit_change"] = (
                None if fit.restart is None else fit.fit_change[fit.restart]
            )
            report.extra["cp_core_dims"] = fit.core_dims
        report.warnings = list(self.warnings)
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

    def solve_cheb_rhs(
        self, f_cheb: np.ndarray, residual: bool = True
    ) -> tuple[np.ndarray, SolveReport]:
        """:meth:`solve_output_rhs` for a right side in Chebyshev coefficients
        of the solver's degrees, converted by :func:`to_output_basis`;
        ``residual=False`` skips the combined residual, as there."""
        return self.solve_output_rhs(
            to_output_basis(f_cheb, self.disc.orders), residual=residual
        )


def _rhs_output_tensor(spec: ProblemSpec, solver: StationarySolver) -> np.ndarray:
    """The right side in the operator's output basis, from its values on the
    Chebyshev grid: one mode product per mode by the memoized
    :func:`~spectracube.cheb.values_to_output` (the DCT-I values-to-coefficients
    map, then the Chebyshev-to-output conversion), built once per order and
    degree.  At n=80 an 81x81 GEMM is faster than a DCT-I pass, so a mode of
    order 0 (the DCT alone) takes it too."""
    mats = [values_to_output(order, n) for order, n in zip(solver.disc.orders, spec.degrees)]
    return mode_products(cheb_grid_values(spec.rhs, *spec.degrees), mats)


def sample_points(seed: int, count: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (count, 3))


def sampled_max_error(u: np.ndarray, exact, seed: int, count: int) -> float:
    pts = sample_points(seed, count)
    vals = eval_cheb_3d(u, pts[:, 0], pts[:, 1], pts[:, 2])
    ref = exact(pts[:, 0], pts[:, 1], pts[:, 2])
    return float(np.max(np.abs(vals - ref)))


def solve_stationary(spec: ProblemSpec) -> Solution:
    """Full pipeline: discretize, substitute boundaries, solve, reconstruct.

    ``combined_residual`` is ``report.residual``.  The right side is
    sampled on the Chebyshev grid and taken to the output basis in one mode
    product per mode (``_rhs_output_tensor``); non-finite samples raise
    ``SolverError`` tagged ``[rhs]``.  Besides the stages of
    :meth:`StationarySolver.solve_output_rhs`, ``report.stages`` times the
    right side (``rhs``) and, when the problem has an exact solution,
    ``sampled_error``.
    """
    solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)
    rhs_stage = {}
    with _Stage("rhs", rhs_stage):
        f_out = _rhs_output_tensor(spec, solver)
    u, report = solver.solve_output_rhs(f_out)
    report.stages.update(rhs_stage)
    err = None
    if spec.exact is not None:
        with _Stage("sampled_error", report.stages):
            err = sampled_max_error(u, spec.exact, spec.options.seed, spec.options.samples)
    return Solution(
        u=u, report=report, combined_residual=report.residual, degrees=spec.degrees,
        error=err,
    )


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
    A step skips the combined residual (``residual=False``), and its report
    is not returned.  Returns the list ``[U_0, ..., U_steps]`` and the
    prepared solver.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if not np.isfinite(h):
        raise ValueError(f"step size must be finite, got {h}")
    step_op = scale_shift_operator(generator, -h, 1.0)
    if boundary is None:
        boundary = zero_dirichlet_boundary(step_op.orders)
    solver = StationarySolver(step_op, boundary, degrees, options)
    u = cheb_interp_3d(u0, *degrees)
    states = [u]
    for _ in range(steps):
        u, _report = solver.solve_cheb_rhs(u, residual=False)
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
    quotient against the normalized predecessor.  A step applies the Gram
    matrices (built once per call) to its solution once: the Rayleigh
    quotient ``<u_{s-1}/||u_{s-1}||, G u_s>`` and the next norm
    ``sqrt(<u_s, G u_s>)`` both come from that product.  A step skips the
    combined residual (``residual=False``), and its report is not returned.
    Returns the final estimate, the normalized eigenfunction tensor, the
    estimate history and the prepared solver.
    """
    if iters < 1:
        raise ValueError("inverse iteration needs at least one step")
    if boundary is None:
        boundary = zero_dirichlet_boundary(operator.orders)
    solver = StationarySolver(operator, boundary, degrees, options)
    v = cheb_interp_3d(u0, *degrees)
    grams = [cheb_gram(d, d) for d in v.shape]
    nrm = _norm_from_gram(v, mode_products(v, grams))
    history = []
    for _ in range(iters):
        if nrm < 1e-300:
            raise SolverError("inverse iteration breakdown: iterate norm underflow")
        vhat = v / nrm
        w, _report = solver.solve_cheb_rhs(vhat, residual=False)
        gw = mode_products(w, grams)
        mu = float(np.vdot(vhat, gw))
        if mu == 0.0:
            raise SolverError("inverse iteration breakdown: zero Rayleigh quotient")
        history.append(1.0 / mu)
        v, nrm = w, _norm_from_gram(w, gw)
    return history[-1], v / nrm, history, solver


def _norm_from_gram(v: np.ndarray, gv: np.ndarray) -> float:
    """The L2 norm of ``v`` from its Gram product ``gv``, as :func:`l2_norm_3d`."""
    return float(np.sqrt(max(float(np.vdot(v, gv)), 0.0)))
