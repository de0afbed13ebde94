"""Solvers for the reduced tensor-valued linear system.

Backends:

* ``reshape``   - assemble the Kronecker system sparsely and LU-factorize.
* ``recursive`` - invert each mode's companion matrix of an eligible rank-3
  system (:class:`ReducedLaplaceSolver`) and solve the Laplace-like equation
  that remains with one solver, :class:`LaplaceLikeSolver`.  It takes one of
  two paths, chosen from the eigen-analysis of the three matrices.  When
  every spectrum is real and every eigenvector matrix ``V`` has
  ``cond_1(V) <= EIGVEC_COND_LIMIT``, the solve is three mode products into
  the eigenbases, one division by the eigenvalue sums and three mode
  products back (fast diagonalization).  Otherwise, as always for a
  first-order mode, whose spectrum is complex, the matrices are brought to
  real Schur form and the division becomes a Bartels-Stewart sweep along
  mode 3: one LAPACK ``trsyl`` Sylvester solve per diagonal block of the
  mode-3 Schur factor, back-substituting the coupling to the later slices.
* ``gmres``     - restarted, left-preconditioned GMRES on the matrix-free
  operator, preconditioned by a cached Laplace-like solve ``P^-1`` of a
  surrogate ``P``.  GMRES runs on the coordinates in the basis of ``P``'s
  core (eigenvectors or Schur vectors), where
  :meth:`ReducedLaplaceSolver.preconditioned` applies ``P^-1 A`` as
  ``y + P^-1 (A - P) y``, the terms ``A`` shares with ``P`` cancelled, or
  as ``P^-1 (A y)`` when that remainder is no smaller than ``A``.  Every
  term factor is taken into the basis once, a factor equal to its mode's
  companion matrix drops out, and :meth:`Preconditioned.solve` maps the
  solution back once per solve.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bc import ReducedSystem
from .tensor3 import mode_mult, mode_product_sum, mode_products, unvectorize, vectorize

# a companion matrix at or above this condition number is not inverted
COMPANION_COND_LIMIT = 1e12
# largest cond_1 of a mode's eigenvector matrix for the diagonalized
# Laplace-like solve; above it the Schur sweep runs.  On non-normal test
# matrices with clustered real spectra the diagonalized solve stays within
# 1e-11 (relative) of the sweep up to about this value and drifts to 1e-7
# near 1e5; the presets reach 99 at degree 200.
EIGVEC_COND_LIMIT = 1e3
# largest interior size the reshape backend assembles and factorizes
RESHAPE_CAP = 32768
# most entries, sum_r prod_m nnz(L_m^r), of the Kronecker terms the reshape
# backend assembles.  Poisson at n=32 holds 1.3e6; a dense rank-10
# CP split of helmholtz-sqrt at n=20 holds 3.3e8 and peaked at 2 GB, at n=30
# 4.2e9 (a 4.4 GiB allocation)
RESHAPE_NNZ_CAP = 2**25


class SolverError(RuntimeError):
    """Solver-stage failure."""


class ReshapeRefusedError(SolverError):
    """The reduced system is too large for the reshape backend."""


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
    # None when the solve skipped its combined residual
    residual: float | None
    wall_seconds: float
    iterations: int | None = None
    cp_error: float = 0.0
    warnings: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    # seconds per pipeline stage, filled in by the drivers
    stages: dict = field(default_factory=dict)


@dataclass
class SchurFactor:
    """Real Schur form ``a = q @ t @ q.T`` with quasi-upper-triangular ``t``."""

    q: np.ndarray
    t: np.ndarray


def apply_reduced_operator(sys: ReducedSystem, x: np.ndarray) -> np.ndarray:
    """Matrix-free action of the reduced system on an interior tensor."""
    return mode_product_sum(x, sys.lhat)


def reshape_refusal(sys: ReducedSystem) -> str | None:
    """Why the reshape backend refuses ``sys``, or ``None``: an interior size
    above ``RESHAPE_CAP``, or Kronecker terms whose entries, estimated as
    ``sum_r prod_m nnz(L_m^r)`` before any is built, exceed
    ``RESHAPE_NNZ_CAP``."""
    size = int(np.prod(sys.shape))
    if size > RESHAPE_CAP:
        return f"interior size {size} exceeds cap {RESHAPE_CAP}"
    entries = sum(math.prod(np.count_nonzero(m) for m in term) for term in zip(*sys.lhat))
    if entries > RESHAPE_NNZ_CAP:
        return (
            f"its Kronecker terms hold an estimated {entries} entries, "
            f"above cap {RESHAPE_NNZ_CAP}"
        )
    return None


class ReshapeSolver:
    """Sparse LU of the reshaped Kronecker system, reusable across right sides.
    Raises :class:`ReshapeRefusedError` for a system :func:`reshape_refusal`
    refuses."""

    def __init__(self, sys: ReducedSystem):
        why = reshape_refusal(sys)
        if why is not None:
            raise ReshapeRefusedError(f"reshape backend refused: {why}")
        mat = None
        for r in range(sys.rank):
            term = sp.kron(
                sp.csr_matrix(sys.lhat[2][r]),
                sp.kron(sp.csr_matrix(sys.lhat[1][r]), sp.csr_matrix(sys.lhat[0][r])),
            )
            mat = term if mat is None else mat + term
        try:
            self._lu = spla.splu(sp.csc_matrix(mat))
        except RuntimeError as exc:
            raise SolverError(f"reshape backend: sparse LU failed ({exc})") from exc

    def solve(self, fhat: np.ndarray) -> np.ndarray:
        x = self._lu.solve(vectorize(fhat))
        if not np.all(np.isfinite(x)):
            raise SolverError("reshape backend: singular system (non-finite solution)")
        return unvectorize(x, fhat.shape)


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


def _diagonal_blocks(t: np.ndarray) -> list[tuple[int, int]]:
    """``(start, size)`` of the 1x1 and 2x2 diagonal blocks of a quasi-triangular ``t``."""
    blocks, k, n = [], 0, t.shape[0]
    while k < n:
        size = 2 if k + 1 < n and t[k + 1, k] != 0.0 else 1
        blocks.append((k, size))
        k += size
    return blocks


def _per_mode(factor, *per_mode) -> list:
    """``factor(mode, *args)`` for each mode's arguments, where ``per_mode``
    holds one sequence of arrays per argument.  A mode whose arrays all equal
    an earlier mode's reuses that result: an isotropic operator repeats a
    mode's matrices, and they are factored once."""
    keys, out = list(zip(*per_mode)), []
    for mode, key in enumerate(keys, start=1):
        same = [
            done for prev, done in zip(keys, out)
            if all(np.array_equal(a, b) for a, b in zip(prev, key))
        ]
        out.append(same[0] if same else factor(mode, *key))
    return out


def _eigenbasis(mode: int, a: np.ndarray):
    """``(eigenvalues, V, V^-1, cond_1(V))`` of ``a``; ``V^-1`` is ``None`` and
    the condition number infinite when the spectrum is not real or ``V`` is
    singular."""
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"mode-{mode} eigen-analysis failed: {exc}") from exc
    if np.iscomplexobj(vals):
        return vals, vecs, None, np.inf
    try:
        inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        return vals, vecs, None, np.inf
    return vals, vecs, inv, float(np.linalg.norm(vecs, 1) * np.linalg.norm(inv, 1))


def _min_eig_sum(vals) -> float:
    """Smallest modulus ``|lam_i + mu_j + nu_k|`` over the three spectra."""
    if not any(np.iscomplexobj(v) for v in vals):
        # addition is monotone, so these are the extreme sums
        lo, hi = sum(v.min() for v in vals), sum(v.max() for v in vals)
        if lo > 0 or hi < 0:
            return float(lo if lo > 0 else -hi)
    # one mode-3 eigenvalue at a time, so only p*q sums are held
    pair = vals[0][:, None] + vals[1][None, :]
    return min(float(np.abs(pair + nu).min()) for nu in vals[2])


class LaplaceLikeSolver:
    """Solver for the Laplace-like equation ``x x1 u + x x2 v + x x3 w = f``.

    Each distinct matrix goes through one ``np.linalg.eig``.  A solve is a
    mode product by each entry matrix ``into``, a core step in those bases
    (:meth:`core_step`) and a mode product by each exit matrix ``back``.

    * ``path == "diagonalize"`` when every spectrum is real and every
      eigenvector matrix has ``cond_1(V) <= EIGVEC_COND_LIMIT``: ``into`` is
      ``V^-1``, ``back`` is ``V`` and the core divides by the eigenvalue sums
      ``lam_i + mu_j + nu_k`` (fast diagonalization).
    * ``path == "schur"`` otherwise: with the real Schur forms ``Q T Q^T``,
      ``into`` is ``Q^T``, ``back`` is ``Q`` and the core is a Bartels-Stewart
      sweep backwards over the diagonal blocks of ``T_w``.  Each block leaves
      one 2-D Sylvester equation,
      ``(T_u + t_kk I) X_k + X_k T_v^T = F_k - sum_{l>k} t_kl X_l``, solved by
      LAPACK ``dtrsyl``.  A 2x2 block (a complex pair) is split by the
      complex Schur form of the block into two complex Sylvester equations,
      solved by ``ztrsyl`` in the complex Schur bases of ``T_u`` and ``T_v``.

    Either way an operator whose smallest eigenvalue sum ``min_eig_sum``
    vanishes against the matrices' scale is refused.
    """

    def __init__(self, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        mats = (u, v, w)
        vals, vecs, invs, conds = zip(*_per_mode(_eigenbasis, mats))
        self.min_eig_sum = _min_eig_sum(vals)
        norm_sum = sum(float(np.linalg.norm(m)) for m in mats)
        if self.min_eig_sum < 1e-13 * max(norm_sum, 1.0):
            raise SingularOperatorError(
                f"singular Laplace-like operator: smallest eigenvalue sum "
                f"{self.min_eig_sum:.3e} vs matrix scale {norm_sum:.3e}"
            )
        if all(c <= EIGVEC_COND_LIMIT for c in conds):
            self.path, self.eigvec_cond = "diagonalize", list(conds)
            self.into, self.back = list(invs), list(vecs)
            self._sums = vals[0][:, None, None] + vals[1][None, :, None] + vals[2][None, None, :]
            return
        self.path, self.eigvec_cond = "schur", None
        self.factors = _per_mode(lambda _mode, a: real_schur(a), mats)
        self.into = [fac.q.T for fac in self.factors]
        self.back = [fac.q for fac in self.factors]
        self._blocks = _diagonal_blocks(self.factors[2].t)
        # complex Schur forms (r, z) of T_u and T_v, needed only for the 2x2
        # blocks of T_w
        self._csf = None
        if any(size == 2 for _, size in self._blocks):
            self._csf = [
                scipy.linalg.rsf2csf(fac.t, np.eye(fac.t.shape[0])) for fac in self.factors[:2]
            ]

    def solve(self, f: np.ndarray) -> tuple[np.ndarray, int]:
        """Solve for one right side; returns (solution, number of 2-D
        Sylvester solves, 0 on the diagonalized path)."""
        y, sweeps = self.core_step(mode_products(f, self.into))
        return mode_products(y, self.back), sweeps

    def core_step(self, ft: np.ndarray) -> tuple[np.ndarray, int]:
        """The core step for a right side already multiplied by ``into``: the
        division by the eigenvalue sums or the Bartels-Stewart sweep.
        Returns the solution in the bases, ``y`` with
        ``x = y x1 back[0] x2 back[1] x3 back[2]``, and the number of 2-D
        Sylvester solves (0 on the diagonalized path)."""
        if self.path == "diagonalize":
            y = ft / self._sums
            if not np.all(np.isfinite(y)):
                raise SolverError("diagonalized Laplace-like solve gave a non-finite solution")
            return y, 0
        tw = self.factors[2].t
        p, q, s = ft.shape
        # column k is mode-3 slice k, vectorized
        f = ft.reshape(p * q, s, order="F")
        x = np.zeros((p * q, s), order="F")
        for k, size in reversed(self._blocks):
            end = k + size
            g = f[:, k:end] - x[:, end:] @ tw[k:end, end:].T
            if size == 1:
                xk = self._real_sylvester(tw[k, k], g.reshape(p, q, order="F"), k)
                x[:, k] = xk.ravel(order="F")
            else:
                x[:, k:end] = self._pair_sylvester(tw[k:end, k:end], g, p, k)
        return x.reshape(p, q, s, order="F"), len(self._blocks)

    def _real_sylvester(self, shift: float, g: np.ndarray, k: int) -> np.ndarray:
        """Solve ``(T_u + shift I) X + X T_v^T = G`` for mode-3 slice ``k``."""
        tu, tv = self.factors[0].t, self.factors[1].t
        a = tu + shift * np.eye(tu.shape[0])
        x, scale, info = scipy.linalg.lapack.dtrsyl(a, tv, g, trana="N", tranb="T")
        return _checked(x / scale, info, f"mode-3 slice {k}")

    def _pair_sylvester(self, m: np.ndarray, g: np.ndarray, p: int, k: int) -> np.ndarray:
        """Coupled solve for the slices ``k, k+1`` of a 2x2 block ``m`` of ``T_w``.

        ``g`` holds the two vectorized right sides as columns.  With
        ``m = U R U^H`` (complex Schur) the unknowns ``Y = X x3 U^H`` satisfy
        a triangular pair: ``Y_1`` first, then ``Y_0`` with the coupling
        ``r_01 Y_1`` moved to its right side.  Each is a complex Sylvester
        equation, solved in the complex Schur bases ``T_u = Z_u R_u Z_u^H``
        and ``T_v = Z_v R_v Z_v^H``.
        """
        r, uw = scipy.linalg.schur(m.astype(complex), output="complex")
        h = g @ uw.conj()
        (ru, zu), (rv, zv) = self._csf
        y = np.zeros_like(h)
        for j in (1, 0):
            rhs = h[:, j] - r[j, 1] * y[:, 1] if j == 0 else h[:, j]
            c = zu.conj().T @ rhs.reshape(p, -1, order="F") @ zv.conj()
            a = ru + r[j, j] * np.eye(p)
            yj, scale, info = scipy.linalg.lapack.ztrsyl(a, rv.conj(), c, trana="N", tranb="C")
            yj = _checked(yj / scale, info, f"mode-3 slices {k}-{k + 1}")
            y[:, j] = (zu @ yj @ zv.T).ravel(order="F")
        return (y @ uw.T).real


def _checked(x: np.ndarray, info: int, where: str) -> np.ndarray:
    if info < 0 or not np.all(np.isfinite(x)):
        raise SolverError(f"Sylvester solve failed for {where} (LAPACK info {info})")
    return x


def _companion_factor(mode: int, payload: np.ndarray, comp: np.ndarray):
    """Companion LU, ``A = C^-1 P`` and ``cond_2(C)`` of one mode."""
    cond = np.linalg.cond(comp)
    if not np.isfinite(cond) or cond >= COMPANION_COND_LIMIT:
        raise SolverError(
            f"mode-{mode} companion matrix is ill-conditioned "
            f"(cond {cond:.2e}); Laplace-like transform refused"
        )
    lu = scipy.linalg.lu_factor(comp)
    return lu, scipy.linalg.lu_solve(lu, payload), float(cond)


class Preconditioned(NamedTuple):
    """``P^-1 A`` in the basis of the preconditioner's core, from
    :meth:`ReducedLaplaceSolver.preconditioned`.

    ``apply`` maps coordinates ``y`` in that basis to the coordinates of
    ``P^-1 A x``, ``x = back(y)``; ``rhs`` maps a right side ``fhat`` to the
    coordinates of ``P^-1 fhat``; ``back`` maps coordinates to the reduced
    basis.  ``remainder_rank`` is the number of terms of ``A - P`` that
    ``apply`` runs through, or ``None`` when it runs through ``A``.
    :meth:`solve` is the only code that counts ``P^-1`` applies.
    """

    apply: Callable
    rhs: Callable
    back: Callable
    remainder_rank: int | None

    def solve(self, fhat: np.ndarray, max_outer: int) -> tuple[np.ndarray, SolveReport]:
        """:func:`gmres_solve` of ``apply`` for ``rhs(fhat)``; its solution, or
        a :class:`GmresError`'s ``best``, is mapped by ``back``.  ``extra``
        adds ``remainder_rank`` and ``precond_applies``: the right side's 1,
        plus ``operator_applies`` unless ``apply`` is a copy."""
        try:
            y, report = gmres_solve(self.apply, self.rhs(fhat), max_outer=max_outer)
        except GmresError as exc:
            exc.best = self.back(exc.best)
            raise
        applies = report.extra["operator_applies"] if self.remainder_rank != 0 else 0
        report.extra["precond_applies"] = 1 + applies
        report.extra["remainder_rank"] = self.remainder_rank
        return self.back(y), report


class ReducedLaplaceSolver:
    """Cached Laplace-like solver for an eligible reduced system.

    In the symmetric layout, term ``r`` carries its payload in mode ``r`` and
    the two companion factors of each mode must be equal; multiplying the
    equation by the inverse of each mode's companion leaves one matrix
    ``A_m = C_m^{-1} P_m`` per mode, and a :class:`LaplaceLikeSolver` of the
    three takes over.  Its entry matrices absorb the companion inverses, one
    ``into_m C_m^{-1}`` per mode, so a :meth:`solve` call is three mode
    products in, the core step and three mode products back.  Like the
    companion LUs and the core's eigen-analysis, each entry matrix is built
    once per distinct mode (:func:`_per_mode`): an isotropic system shares
    one object across its three modes.  ``path``,
    ``eigvec_cond`` and ``min_eig_sum`` are the core's; ``companion_cond``
    holds the three ``cond_2(C_m)``, each below ``COMPANION_COND_LIMIT``.
    As a preconditioner ``P``, :meth:`preconditioned` gives ``P^-1 A`` in
    the core's basis for the operator ``A`` it preconditions.
    """

    def __init__(self, sys: ReducedSystem):
        if not sys.laplace_like:
            why = (
                f"rank {sys.rank}" if sys.rank != 3
                else f"companion matrices differ in mode {sys.unequal_companion_modes()[0]}"
            )
            raise NotLaplaceLikeError(f"system is not Laplace-like eligible ({why})")
        payloads = [sys.lhat[0][0], sys.lhat[1][1], sys.lhat[2][2]]
        self._companions = [sys.lhat[0][1], sys.lhat[1][0], sys.lhat[2][0]]
        lus, mats, conds = zip(*_per_mode(_companion_factor, payloads, self._companions))
        self.companion_cond = list(conds)
        self._lhat = sys.lhat
        self._core = LaplaceLikeSolver(*mats)
        self.path = self._core.path
        self.eigvec_cond = self._core.eigvec_cond
        self.min_eig_sum = self._core.min_eig_sum
        # into C^-1 = (C^-T into^T)^T, once per distinct (C, into)
        self._into = _per_mode(
            lambda mode, _comp, into: scipy.linalg.lu_solve(lus[mode - 1], into.T, trans=1).T,
            self._companions, self._core.into,
        )

    def solve(self, fhat: np.ndarray) -> tuple[np.ndarray, int]:
        """Solve for one right side; returns (solution, number of 2-D
        Sylvester solves, 0 on the diagonalized path)."""
        # ft outlives the exit products: freed before them, it cost poisson n=80 3 MB peak RSS
        ft = mode_products(fhat, self._into)
        y, sweeps = self._core.core_step(ft)
        return mode_products(y, self._core.back), sweeps

    def preconditioned(self, lhat) -> Preconditioned:
        """``P^-1 A`` for the reduced operator ``A`` with terms ``lhat`` and
        this system ``P``, on the coordinates ``y`` of the core's basis:
        ``x = y x1 back_1 x2 back_2 x3 back_3`` with the core's exit
        matrices, so the exit products run once per solve, in
        :attr:`Preconditioned.back`, and not in every apply.

        With the remainder ``R = A - P`` (:func:`_remainder_terms`), which
        drops the terms the two share, ``P^-1 A x = x + P^-1 R x``, so the
        apply is ``y + core(sum R~ y)``.  That form runs when ``R`` has
        fewer terms than ``A``, and ``core(sum A~ y)`` otherwise; an empty
        remainder makes it a copy.  Each term factor ``M`` of mode ``m``
        becomes ``M~ = into_m C_m^-1 M back_m`` (:meth:`_in_basis`).  The
        core is :meth:`LaplaceLikeSolver.core_step`, and
        :attr:`Preconditioned.rhs` is the entry products and the core step.
        """
        a_terms = list(zip(*lhat))
        terms = _remainder_terms(a_terms, list(zip(*self._lhat)))
        rank = len(terms) if len(terms) < len(a_terms) else None
        core = self._core

        def rhs(fhat: np.ndarray) -> np.ndarray:
            return core.core_step(mode_products(fhat, self._into))[0]

        def back(y: np.ndarray) -> np.ndarray:
            return mode_products(y, core.back)

        if not terms:
            return Preconditioned(np.copy, rhs, back, 0)
        folded = self._in_basis(a_terms if rank is None else terms)

        def apply(y: np.ndarray) -> np.ndarray:
            s = None
            for term in folded:
                t = y
                for mode, m in term:
                    t = mode_mult(t, m, mode)
                if s is None:
                    # the sum starts as the first product; a term with no
                    # live factor is y itself, which is not written into
                    s = t.copy() if t is y else t
                else:
                    s += t
            z = core.core_step(s)[0]
            if rank is not None:
                z += y
            return z

        return Preconditioned(apply, rhs, back, rank)

    def _in_basis(self, terms: list) -> list:
        """The terms ``(L1, L2, L3)`` in the core's basis, each as its live
        factors ``(mode, into_m C_m^-1 L_m back_m)``, mode 1 first.

        A factor ``np.array_equal`` to the mode's companion ``C_m`` is the
        identity there and is dropped.  The terms left with one live mode
        are summed into one matrix per mode, after the others.
        """
        multi, single = [], {}
        for term in terms:
            live = [
                (mode, into @ m @ back)
                for mode, (m, comp, into, back) in enumerate(
                    zip(term, self._companions, self._into, self._core.back), start=1
                )
                if not np.array_equal(m, comp)
            ]
            if len(live) == 1:
                mode, m = live[0]
                single[mode] = single[mode] + m if mode in single else m
            else:
                multi.append(live)
        return multi + [[(mode, single[mode])] for mode in sorted(single)]


def _remainder_terms(a_terms: list, p_terms: list) -> list:
    """The terms ``(L1, L2, L3)`` of ``A - P``.

    Each term of ``P`` takes the first unused term of ``A`` with the most
    ``np.array_equal`` modes, if at least two: equal in all three the pair
    cancels, equal in two it leaves one term whose odd mode holds the
    difference.  Unmatched terms of ``A`` are kept, unmatched terms of ``P``
    kept negated.
    """
    left, out = list(a_terms), []
    for p in p_terms:
        same = [[np.array_equal(x, y) for x, y in zip(a, p)] for a in left]
        best = max(range(len(left)), key=lambda i: sum(same[i]), default=None)
        if best is None or sum(same[best]) < 2:
            out.append((-p[0], p[1], p[2]))
            continue
        a, eq = left.pop(best), same[best]
        if not all(eq):
            odd = eq.index(False)
            out.append(tuple(m - p[odd] if mode == odd else m for mode, m in enumerate(a)))
    return out + left


def _back_substitute(cols: list, g: list) -> np.ndarray:
    """Solve ``R y = g[:k]`` for the upper triangle ``R`` of ``k`` columns,
    ``cols[j]`` holding rows ``0..j`` of column ``j``."""
    y = g[: len(cols)]
    for j in reversed(range(len(cols))):
        col = cols[j]
        if col[j] == 0.0:
            raise SolverError(f"gmres breakdown: singular Hessenberg matrix at column {j}")
        y[j] /= col[j]
        for i in range(j):
            y[i] -= y[j] * col[i]
    return np.array(y)


def gmres_solve(
    op,
    rhs: np.ndarray,
    restart: int = 15,
    tol: float = 1e-12,
    max_outer: int = 200,
) -> tuple[np.ndarray, SolveReport]:
    """Restarted GMRES for ``op(x) = rhs`` on coefficient tensors.

    ``op`` maps a tensor to one of the same shape; :meth:`Preconditioned.solve`
    passes ``P^-1 A`` and ``P^-1 f`` in the preconditioner's basis.  It stops
    when the residual 2-norm, the report's ``residual``, drops below ``tol``
    times the right side's.  ``op`` runs once per iteration and once per
    restart cycle, for the cycle's residual, and not after convergence: the
    caller checks the true residual; ``extra["operator_applies"]`` is that
    count.  Raises :class:`GmresError` (best iterate attached) on
    stagnation over three consecutive restarts or on iteration exhaustion.

    The Krylov vectors are the C-order flat views of the tensors
    (``t.reshape(-1)``), so ``op`` receives C-contiguous tensors and no
    vector is copied to change layout.  The Arnoldi vectors are the rows of
    one ``(restart + 1, N)`` basis matrix, allocated once per call.  Each
    new vector is orthogonalized against them by classical Gram-Schmidt
    with one reorthogonalization (CGS2): two passes, each two matrix-vector
    products with the basis.  Twice is enough: CGS2 keeps the basis as
    orthogonal as modified Gram-Schmidt does.  The small state of a cycle
    (the Hessenberg columns, the Givens rotations and the rotated right
    side, at most ``restart + 1`` numbers each) is kept in Python floats,
    and the least-squares triangle is solved by back-substitution on them
    (:func:`_back_substitute`): at ``restart`` 15, numpy scalars and a
    LAPACK call cost more than the arithmetic.  An ``op`` that gives a
    non-finite vector, or a breakdown that leaves the triangle singular,
    raises :class:`SolverError`.
    """
    t0 = time.perf_counter()
    rhs = np.ascontiguousarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise SolverError("gmres right side contains non-finite entries")
    dims = rhs.shape

    def mv(vec):
        return op(vec.reshape(dims)).reshape(-1)

    b = rhs.reshape(-1)
    beta0 = float(np.linalg.norm(b))
    if beta0 == 0.0:
        return np.zeros(dims), SolveReport(
            backend="gmres", residual=0.0, wall_seconds=time.perf_counter() - t0,
            iterations=0, extra={"operator_applies": 0},
        )
    x = np.zeros(b.size)
    # residual of the current iterate; the operator vanishes at x = 0
    r, res_now = b, beta0
    total_iters = 0
    best_x, best_res = x.copy(), beta0
    stagnant = 0
    converged = False
    history = []
    # row k is the k-th Arnoldi vector; row k + 1 holds the next one while it
    # is orthogonalized
    basis = np.empty((restart + 1, b.size))
    for cycle in range(max_outer):
        np.divide(r, res_now, out=basis[0])
        # the rotated Hessenberg columns (rows 0..k of column k), the Givens
        # pairs (c, s) and the rotated right side, as Python floats
        cols, rots, g = [], [], [res_now]
        for k in range(restart):
            w = basis[k + 1]
            w[:] = mv(basis[k])
            done = basis[: k + 1]
            coef = done @ w
            w -= coef @ done
            again = done @ w
            w -= again @ done
            col = (coef + again).tolist()
            hnorm = float(np.linalg.norm(w))
            if not math.isfinite(hnorm):
                raise SolverError("gmres: the operator gave a non-finite vector")
            total_iters += 1
            for j, (c, s) in enumerate(rots):
                col[j], col[j + 1] = c * col[j] + s * col[j + 1], -s * col[j] + c * col[j + 1]
            denom = math.hypot(col[k], hnorm)
            c, s = (col[k] / denom, hnorm / denom) if denom else (1.0, 0.0)
            rots.append((c, s))
            col[k] = denom
            cols.append(col)
            g.append(-s * g[k])
            g[k] = c * g[k]
            res_est = abs(g[k + 1])
            history.append(res_est / beta0)
            if res_est <= tol * beta0 or hnorm == 0.0:
                break
            w /= hnorm
        x += _back_substitute(cols, g) @ basis[: len(cols)]
        r = b - mv(x)
        res_now = float(np.linalg.norm(r))
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
                best=best_x.reshape(dims), iterations=total_iters,
                residual=float(best_res), history=history,
            )
    if not converged:
        if res_now < best_res:
            best_res, best_x = res_now, x.copy()
        raise GmresError(
            f"gmres did not converge in {max_outer} restarts "
            f"({total_iters} iterations): preconditioned residual {best_res:.3e}",
            best=best_x.reshape(dims), iterations=total_iters,
            residual=float(best_res), history=history,
        )
    return x.reshape(dims), SolveReport(
        backend="gmres", residual=float(res_now), wall_seconds=time.perf_counter() - t0,
        iterations=total_iters,
        extra={
            "preconditioned_residual": float(res_now),
            "residual_history": history,
            "operator_applies": total_iters + cycle + 1,
        },
    )
