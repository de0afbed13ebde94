"""Solvers for the reduced tensor-valued linear system.

Backends:

* ``reshape``   - assemble the Kronecker system sparsely and LU-factorize.
* ``recursive`` - transform an eligible rank-3 system to a Laplace-like
  equation, bring the three matrices to real Schur form and solve by the
  recursive blocked algorithm (split the largest mode, solve the trailing
  block, back-substitute the coupling).
* ``gmres``     - restarted, left-preconditioned GMRES on the matrix-free
  operator, preconditioned by a cached Laplace-like solve of a surrogate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bc import ReducedSystem
from .tensor3 import mode_matricize, mode_mult, mode_refold, unvectorize, vectorize

# a companion matrix at or above this condition number is not inverted
COMPANION_COND_LIMIT = 1e12
# largest interior size the reshape backend assembles and factorizes
RESHAPE_CAP = 32768


class SolverError(RuntimeError):
    """Solver-stage failure."""


class NotLaplaceLikeError(SolverError):
    """The reduced system lacks the rank-3 symmetric structure."""


class SingularOperatorError(SolverError):
    """An eigenvalue sum of the Laplace-like operator (numerically) vanishes."""


class GmresError(SolverError):
    """GMRES stagnated or ran out of iterations; carries the best iterate."""

    def __init__(
        self,
        message: str,
        best: np.ndarray,
        iterations: int,
        residual: float,
        history: list | None = None,
    ):
        super().__init__(message)
        self.best = best
        self.iterations = iterations
        self.residual = residual
        self.history = history or []


@dataclass
class SolveReport:
    backend: str
    residual: float
    wall_seconds: float
    iterations: int | None = None
    cp_error: float = 0.0
    warnings: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class SchurFactor:
    """Real Schur form ``a = q @ t @ q.T`` with quasi-upper-triangular ``t``."""

    q: np.ndarray
    t: np.ndarray


def apply_reduced_operator(sys: ReducedSystem, x: np.ndarray) -> np.ndarray:
    """Matrix-free action of the reduced system on an interior tensor."""
    out = np.zeros_like(np.asarray(x, dtype=float))
    for r in range(sys.rank):
        out += mode_mult(
            mode_mult(mode_mult(x, sys.lhat[0][r], 1), sys.lhat[1][r], 2),
            sys.lhat[2][r], 3,
        )
    return out


def solve_reshape(
    sys: ReducedSystem, size_cap: int = RESHAPE_CAP
) -> tuple[np.ndarray, SolveReport]:
    """Direct solve of the reshaped Kronecker system by sparse LU."""
    dims = sys.interior_dims
    m = dims[0] * dims[1] * dims[2]
    if m > size_cap:
        raise SolverError(
            f"reshape backend refused: interior size {m} exceeds cap {size_cap}"
        )
    t0 = time.perf_counter()
    mat = None
    for r in range(sys.rank):
        term = sp.kron(
            sp.csr_matrix(sys.lhat[2][r]),
            sp.kron(sp.csr_matrix(sys.lhat[1][r]), sp.csr_matrix(sys.lhat[0][r])),
        )
        mat = term if mat is None else mat + term
    try:
        lu = spla.splu(sp.csc_matrix(mat))
        x = lu.solve(vectorize(sys.fhat))
    except RuntimeError as exc:
        raise SolverError(f"reshape backend: sparse LU failed ({exc})") from exc
    if not np.all(np.isfinite(x)):
        raise SolverError("reshape backend: singular system (non-finite solution)")
    u222 = unvectorize(x, dims)
    res = float(np.max(np.abs(apply_reduced_operator(sys, u222) - sys.fhat)))
    return u222, SolveReport(
        backend="reshape", residual=res, wall_seconds=time.perf_counter() - t0,
        cp_error=sys.cp_error,
    )


def real_schur(a: np.ndarray) -> SchurFactor:
    """Real Schur decomposition; deterministic wrapper around LAPACK."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise SolverError(f"schur needs a square matrix, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise SolverError("schur input contains non-finite entries")
    try:
        t, q = scipy.linalg.schur(a, output="real")
    except scipy.linalg.LinAlgError as exc:
        raise SolverError(
            f"QR iteration failed to converge (matrix norm {np.linalg.norm(a):.3e}): {exc}"
        ) from exc
    return SchurFactor(q=q, t=t)


def quasi_tri_eigvals(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of a quasi-upper-triangular matrix from its diagonal blocks."""
    n = t.shape[0]
    vals = np.empty(n, dtype=complex)
    k = 0
    while k < n:
        if k + 1 < n and t[k + 1, k] != 0.0:
            a, b, c, d = t[k, k], t[k, k + 1], t[k + 1, k], t[k + 1, k + 1]
            tr, det = a + d, a * d - b * c
            disc = complex(tr * tr / 4.0 - det) ** 0.5
            vals[k] = tr / 2.0 + disc
            vals[k + 1] = tr / 2.0 - disc
            k += 2
        else:
            vals[k] = t[k, k]
            k += 1
    return vals


def _split_index(t: np.ndarray, n: int) -> int:
    """Split index nearest the midpoint whose subdiagonal entry vanishes."""
    mid = n // 2
    for off in range(n):
        for m in (mid - off, mid + off):
            if 0 < m < n and t[m, m - 1] == 0.0:
                return m
    raise SolverError("quasi-triangular matrix has no valid split point")


def _kron_sum(tu: np.ndarray, tv: np.ndarray, tw: np.ndarray) -> np.ndarray:
    p, q, s = tu.shape[0], tv.shape[0], tw.shape[0]
    return (
        np.kron(np.eye(s * q), tu)
        + np.kron(np.eye(s), np.kron(tv, np.eye(p)))
        + np.kron(tw, np.eye(q * p))
    )


def _recurse(ts: list, f: np.ndarray, base_cap: int, depth: int = 0) -> tuple[np.ndarray, int]:
    dims = f.shape
    if dims[0] * dims[1] * dims[2] <= base_cap:
        x = np.linalg.solve(_kron_sum(*ts), f.ravel(order="F"))
        return x.reshape(dims, order="F"), depth
    mode = int(np.argmax(dims))
    t = ts[mode]
    m = _split_index(t, dims[mode])
    lead = [slice(None)] * 3
    lead[mode] = slice(0, m)
    trail = [slice(None)] * 3
    trail[mode] = slice(m, None)
    ts_trail = list(ts)
    ts_trail[mode] = t[m:, m:]
    x2, d2 = _recurse(ts_trail, np.ascontiguousarray(f[tuple(trail)]), base_cap, depth + 1)
    f1 = f[tuple(lead)] - mode_mult(x2, t[:m, m:], mode + 1)
    ts_lead = list(ts)
    ts_lead[mode] = t[:m, :m]
    x1, d1 = _recurse(ts_lead, np.ascontiguousarray(f1), base_cap, depth + 1)
    return np.concatenate([x1, x2], axis=mode), max(d1, d2)


class LaplaceLikeSolver:
    """Schur-transformed recursive solver with reusable factorizations."""

    def __init__(self, u: np.ndarray, v: np.ndarray, w: np.ndarray, base_cap: int = 128):
        self.base_cap = base_cap
        self.factors = [real_schur(m) for m in (u, v, w)]
        self.norm_sum = sum(float(np.linalg.norm(m)) for m in (u, v, w))
        eigs = [quasi_tri_eigvals(fac.t) for fac in self.factors]
        sums = np.abs(
            eigs[0][:, None, None] + eigs[1][None, :, None] + eigs[2][None, None, :]
        )
        self.min_eig_sum = float(sums.min()) if sums.size else np.inf
        if self.min_eig_sum < 1e-13 * max(self.norm_sum, 1.0):
            raise SingularOperatorError(
                f"singular Laplace-like operator: smallest eigenvalue sum "
                f"{self.min_eig_sum:.3e} vs matrix scale {self.norm_sum:.3e}"
            )

    def solve(self, f: np.ndarray) -> tuple[np.ndarray, int]:
        """Solve for one right side; returns (solution, recursion depth)."""
        qu, qv, qw = (fac.q for fac in self.factors)
        ft = mode_mult(mode_mult(mode_mult(f, qu.T, 1), qv.T, 2), qw.T, 3)
        xt, depth = _recurse([fac.t for fac in self.factors], ft, self.base_cap)
        return mode_mult(mode_mult(mode_mult(xt, qu, 1), qv, 2), qw, 3), depth


class ReducedLaplaceSolver:
    """Cached recursive solver for a Laplace-like-eligible reduced system.

    In the symmetric layout, term ``r`` carries its payload in mode ``r`` and
    the two companion factors of each mode are equal; multiplying the
    equation by the inverse of each mode's companion (applied as LU solves,
    never formed) leaves one matrix per mode.  The companion LU factors and
    the Schur forms are computed once; every :meth:`solve` call only
    transforms the right side, recurses and back-transforms.
    """

    def __init__(self, sys: ReducedSystem):
        if sys.rank != 3 or not sys.laplace_like:
            raise NotLaplaceLikeError(
                f"system is not Laplace-like eligible (rank {sys.rank}, "
                f"structure flag {sys.laplace_like})"
            )
        payloads = [sys.lhat[0][0], sys.lhat[1][1], sys.lhat[2][2]]
        companions = [sys.lhat[0][1], sys.lhat[1][0], sys.lhat[2][0]]
        for mode, comp in enumerate(companions, start=1):
            cond = np.linalg.cond(comp)
            if not np.isfinite(cond) or cond >= COMPANION_COND_LIMIT:
                raise SolverError(
                    f"mode-{mode} companion matrix is ill-conditioned "
                    f"(cond {cond:.2e}); Laplace-like transform refused"
                )
        self._lus = [scipy.linalg.lu_factor(c) for c in companions]
        mats = [scipy.linalg.lu_solve(lu, p) for lu, p in zip(self._lus, payloads)]
        self._core = LaplaceLikeSolver(*mats)

    def solve(self, fhat: np.ndarray) -> tuple[np.ndarray, int]:
        """Solve for one right side; returns (solution, recursion depth)."""
        f = fhat
        for mode, lu in enumerate(self._lus, start=1):
            f = mode_refold(scipy.linalg.lu_solve(lu, mode_matricize(f, mode)), mode, f.shape)
        return self._core.solve(f)


def gmres_solve(
    op_a,
    precond,
    rhs: np.ndarray,
    restart: int = 15,
    tol: float = 1e-12,
    max_outer: int = 200,
) -> tuple[np.ndarray, SolveReport]:
    """Left-preconditioned restarted GMRES on coefficient tensors.

    ``op_a`` and ``precond`` map tensors to tensors; ``precond=None`` means
    the identity.  Convergence is declared when the preconditioned residual
    drops below ``tol`` times the preconditioned right side.  Raises
    :class:`GmresError` (best iterate attached) on stagnation over three
    consecutive restarts or on iteration exhaustion.
    """
    t0 = time.perf_counter()
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise SolverError("gmres right side contains non-finite entries")
    dims = rhs.shape
    ident = precond is None

    def mv(vec):
        t = unvectorize(vec, dims)
        t = op_a(t)
        if not ident:
            t = precond(t)
        # copy: ravel/reshape may alias the caller's array, and the Arnoldi
        # loop updates the returned vector in place
        return np.array(vectorize(t))

    b = np.array(vectorize(rhs) if ident else vectorize(precond(rhs)))
    beta0 = np.linalg.norm(b)
    if beta0 == 0.0:
        return np.zeros(dims), SolveReport(
            backend="gmres", residual=0.0, wall_seconds=time.perf_counter() - t0,
            iterations=0,
        )
    x = np.zeros_like(b)
    # residual of the current iterate; the operator vanishes at x = 0
    r, res_now = b, beta0
    total_iters = 0
    best_x, best_res = x.copy(), beta0
    stagnant = 0
    converged = False
    history = []
    for _outer in range(max_outer):
        if res_now <= tol * beta0:
            converged = True
            break
        basis = [r / res_now]
        h = np.zeros((restart + 1, restart))
        cs, sn = np.zeros(restart), np.zeros(restart)
        gvec = np.zeros(restart + 1)
        gvec[0] = res_now
        k_used = 0
        for k in range(restart):
            w = mv(basis[k])
            for j in range(k + 1):
                h[j, k] = w @ basis[j]
                w -= h[j, k] * basis[j]
            hnorm = np.linalg.norm(w)
            h[k + 1, k] = hnorm
            total_iters += 1
            k_used = k + 1
            for j in range(k):
                tmp = cs[j] * h[j, k] + sn[j] * h[j + 1, k]
                h[j + 1, k] = -sn[j] * h[j, k] + cs[j] * h[j + 1, k]
                h[j, k] = tmp
            denom = np.hypot(h[k, k], h[k + 1, k])
            cs[k] = h[k, k] / denom if denom else 1.0
            sn[k] = h[k + 1, k] / denom if denom else 0.0
            h[k, k] = denom
            h[k + 1, k] = 0.0
            gvec[k + 1] = -sn[k] * gvec[k]
            gvec[k] = cs[k] * gvec[k]
            res_est = abs(gvec[k + 1])
            history.append(res_est / beta0)
            if res_est <= tol * beta0 or hnorm == 0.0:
                break
            if k + 1 < restart:
                basis.append(w / hnorm)
        y = scipy.linalg.solve_triangular(h[:k_used, :k_used], gvec[:k_used])
        for j in range(k_used):
            x += y[j] * basis[j]
        r = b - mv(x)
        res_now = np.linalg.norm(r)
        if res_now < best_res * (1.0 - 1e-12):
            best_res, best_x = res_now, x.copy()
            stagnant = 0
        else:
            stagnant += 1
        if res_now <= tol * beta0:
            converged = True
            break
        if stagnant >= 3:
            raise GmresError(
                f"gmres stagnated: preconditioned residual {best_res:.3e} after "
                f"{total_iters} iterations (target {tol * beta0:.3e})",
                best=unvectorize(best_x, dims), iterations=total_iters,
                residual=float(best_res), history=history,
            )
    if not converged:
        if res_now < best_res:
            best_res, best_x = res_now, x.copy()
        raise GmresError(
            f"gmres did not converge in {max_outer} restarts "
            f"({total_iters} iterations): preconditioned residual {best_res:.3e}",
            best=unvectorize(best_x, dims), iterations=total_iters,
            residual=float(best_res), history=history,
        )
    xt = unvectorize(x, dims)
    true_res = float(np.max(np.abs(op_a(xt) - rhs)))
    return xt, SolveReport(
        backend="gmres", residual=true_res, wall_seconds=time.perf_counter() - t0,
        iterations=total_iters,
        extra={
            "preconditioned_residual": float(res_now),
            "residual_history": history,
        },
    )

