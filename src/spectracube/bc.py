"""Boundary constraints and their substitution into the discretized PDE.

Boundary conditions are per-mode linear constraints ``u x_k B_k = G_k``.
After normalizing each ``B_k`` to a leading identity block, substitution
eliminates the leading coefficient rows and leaves a square system for the
trailing interior block, from which :func:`reconstruct` assembles the full
coefficient tensor.  Reconstruction alone decides which face's data an edge
or corner coefficient takes; substitution carries the data through the
operator once by applying it to the reconstruction of a zero interior, so
a right side is reduced by taking its interior block minus that lift.
Face data that disagree along a shared edge raise a ``UserWarning``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cheb import cheb_points, vals_to_coeffs
from .opdisc import DiscretizedOperator, apply_operator
from .tensor3 import ShapeError, mode_mult

# largest cross-mode mismatch of face data along shared edges before a warning
COMPAT_TOL = 1e-8
# a leading boundary block at or above this condition number is not inverted
LEADING_COND_LIMIT = 1e10


class BoundaryConditionError(ValueError):
    """Invalid or inconsistent boundary-condition configuration."""


@dataclass
class BoundaryOperator:
    """Constraint rows for one mode: ``u x_mode b = g``.

    ``b`` has one row per constraint; ``g`` is an order-3 tensor whose
    mode-``mode`` extent equals the number of rows (slab ``i`` belongs to row
    ``i`` of ``b``).
    """

    mode: int
    b: np.ndarray
    g: np.ndarray

    @property
    def nrows(self) -> int:
        return self.b.shape[0]


@dataclass
class BoundarySet:
    ops: tuple[BoundaryOperator, BoundaryOperator, BoundaryOperator]
    # cond_2 of each mode's leading block before normalization (1.0 where it
    # was already the identity); None until normalized
    lead_cond: tuple | None = None

    def row_counts(self) -> tuple[int, int, int]:
        return tuple(op.nrows for op in self.ops)


def _bivariate_coeffs(data, na: int, nb: int) -> np.ndarray:
    """Chebyshev coefficient matrix of face data on the (na, nb) grid."""
    if data is None or (np.isscalar(data) and float(data) == 0.0):
        return np.zeros((na + 1, nb + 1))
    if np.isscalar(data):
        h = np.zeros((na + 1, nb + 1))
        h[0, 0] = float(data)
        return h
    sa, sb = cheb_points(na), cheb_points(nb)
    vals = np.asarray(data(sa[:, None], sb[None, :]), dtype=float)
    vals = np.broadcast_to(vals, (na + 1, nb + 1)).copy()
    if not np.all(np.isfinite(vals)):
        raise BoundaryConditionError("boundary data returned non-finite samples")
    return vals_to_coeffs(vals_to_coeffs(vals, axis=0), axis=1)


def _face(mode: int, side: int, data, degrees: tuple[int, int, int]):
    """Check a face; return the index range ``0..n`` of its mode and the
    coefficient slab of its data."""
    if mode not in (1, 2, 3) or side not in (-1, 1):
        raise BoundaryConditionError(f"bad face: mode={mode} side={side}")
    others = [degrees[m] for m in range(3) if m != mode - 1]
    return np.arange(degrees[mode - 1] + 1), _bivariate_coeffs(data, *others)


def dirichlet(mode: int, side: int, data, degrees: tuple[int, int, int]):
    """One Dirichlet constraint row: value on the face ``x_mode = side``.

    Returns ``(row, slab)``: the row ``(T_0(side), ..., T_n(side))`` and the
    bivariate interpolant coefficients of ``data`` over the other two modes
    (in mode order).
    """
    i, slab = _face(mode, side, data, degrees)
    return (np.ones(i.size) if side == 1 else (-1.0) ** i), slab


def neumann(mode: int, side: int, data, degrees: tuple[int, int, int]):
    """One Neumann constraint row: normal-direction derivative on a face.

    Row entries are ``T_i'(side)``: ``i^2`` at the right face and
    ``(-1)^(i+1) i^2`` at the left (odd reflection of the derivative).
    """
    i, slab = _face(mode, side, data, degrees)
    row = i.astype(float) ** 2
    return (row if side == 1 else row * (-1.0) ** (i + 1)), slab


def assemble_boundary_set(
    rows_by_mode, degrees: tuple[int, int, int], orders: tuple[int, int, int]
) -> BoundarySet:
    """Stack per-mode constraint rows into a BoundarySet.

    ``rows_by_mode[m]`` is the list of ``(row, slab)`` pairs for mode
    ``m + 1`` in stacking order (convention: side -1 before side +1 for
    two-sided conditions).  The number of rows must equal the operator order
    of the mode.  Full row rank is required; cross-mode data compatibility is
    checked, and a ``UserWarning`` is issued when it is violated.
    """
    ops = []
    for m in range(3):
        rows = rows_by_mode[m]
        n = degrees[m]
        if len(rows) != orders[m]:
            raise BoundaryConditionError(
                f"mode {m + 1} needs {orders[m]} boundary rows (operator order), "
                f"got {len(rows)}"
            )
        gdims = [degrees[0] + 1, degrees[1] + 1, degrees[2] + 1]
        gdims[m] = len(rows)
        b = np.zeros((len(rows), n + 1))
        g = np.zeros(gdims)
        for k, (row, slab) in enumerate(rows):
            row = np.asarray(row, dtype=float)
            if row.shape != (n + 1,):
                raise ShapeError(f"mode {m + 1} row {k} has length {row.size}, expected {n + 1}")
            b[k] = row
            sl = [slice(None)] * 3
            sl[m] = k
            g[tuple(sl)] = slab
        if len(rows) > 0:
            svals = np.linalg.svd(b, compute_uv=False)
            if svals[-1] <= 1e-10 * svals[0]:
                raise BoundaryConditionError(
                    f"mode {m + 1} boundary rows are (nearly) linearly dependent: "
                    f"sigma_min/sigma_max = {svals[-1] / svals[0]:.2e}"
                )
        ops.append(BoundaryOperator(mode=m + 1, b=b, g=g))

    mismatch = 0.0
    for ma in range(3):
        for mb in range(ma + 1, 3):
            lhs = mode_mult(ops[ma].g, ops[mb].b, mb + 1)
            rhs = mode_mult(ops[mb].g, ops[ma].b, ma + 1)
            mismatch = max(mismatch, float(np.max(np.abs(lhs - rhs), initial=0.0)))
    if mismatch > COMPAT_TOL:
        warnings.warn(
            f"boundary data incompatible along shared edges: max mismatch {mismatch:.3e}",
            stacklevel=2,
        )
    return BoundarySet(ops=tuple(ops))


def normalize_leading_identity(bset: BoundarySet) -> BoundarySet:
    """Equivalent constraints whose leading N x N block is exactly the identity.

    The result's ``lead_cond`` keeps each mode's ``cond_2`` of the leading
    block it inverted, 1.0 where the block was already the identity.
    """
    if bset.lead_cond is not None:
        return bset
    ops, conds = [], []
    for op in bset.ops:
        nr = op.nrows
        lead = op.b[:, :nr]
        if np.allclose(lead, np.eye(nr), rtol=0.0, atol=0.0):
            ops.append(BoundaryOperator(op.mode, op.b.copy(), op.g.copy()))
            conds.append(1.0)
            continue
        cond = np.linalg.cond(lead)
        if not np.isfinite(cond) or cond >= LEADING_COND_LIMIT:
            raise BoundaryConditionError(
                f"mode {op.mode}: leading {nr}x{nr} block of the boundary rows is "
                f"ill-conditioned (cond {cond:.2e}), so the first {nr} coefficients "
                f"cannot be eliminated; Neumann rows on both faces of a mode do this "
                f"(T0' = 0 leaves column 0 zero), and column pivoting is not "
                f"implemented yet (ROADMAP.md item 9)"
            )
        b = np.linalg.solve(lead, op.b)
        b[:, :nr] = np.eye(nr)
        g = mode_mult(op.g, np.linalg.solve(lead, np.eye(nr)), op.mode)
        ops.append(BoundaryOperator(op.mode, b, g))
        conds.append(float(cond))
    return BoundarySet(ops=tuple(ops), lead_cond=tuple(conds))


def constraint_residual(u: np.ndarray, bset: BoundarySet) -> float:
    """Max-norm violation of all three constraint equations."""
    return max(
        float(np.max(np.abs(mode_mult(u, op.b, op.mode) - op.g), initial=0.0))
        for op in bset.ops
    )


@dataclass
class ReducedSystem:
    """Square tensor-valued operator for the trailing interior block.

    Holds the square interior matrices ``lhat`` of the substituted operator,
    the normalized boundary set and ``lift``, the interior block of the
    operator applied to :func:`reconstruct` of a zero interior (``None``
    when no face has data).  It holds no right side; :meth:`rhs` reduces
    one, and :attr:`laplace_like` is read off ``lhat``.
    """

    lhat: tuple[list, list, list]
    lift: np.ndarray | None
    bset: BoundarySet

    @property
    def rank(self) -> int:
        return len(self.lhat[0])

    def unequal_companion_modes(self) -> list[int]:
        """Rank 3: the 1-based modes ``m`` whose terms ``r != m`` differ."""
        return [m + 1 for m, ms in enumerate(self.lhat) if not np.array_equal(*ms[:m], *ms[m + 1:])]

    @property
    def laplace_like(self) -> bool:
        """Rank 3 with equal companions in every mode: the Laplace-like layout."""
        return self.rank == 3 and not self.unequal_companion_modes()

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(mats[0].shape[0] for mats in self.lhat)

    def rhs(self, f: np.ndarray) -> np.ndarray:
        """Reduced right side: the interior block of ``f`` minus ``lift``."""
        f = np.asarray(f, dtype=float)
        want = tuple(s + n for s, n in zip(self.shape, self.bset.row_counts()))
        if f.shape != want:
            raise ShapeError(f"right side dims {f.shape} do not match degrees + 1 = {want}")
        block = f[tuple(map(slice, self.shape))]
        return block.copy() if self.lift is None else block - self.lift


def _at(index, mode: int, s: slice) -> tuple:
    """``index`` with its entry for 0-based ``mode`` replaced by ``s``."""
    return tuple(s if k == mode else i for k, i in enumerate(index))


def reduce(d: DiscretizedOperator, bset: BoundarySet) -> ReducedSystem:
    """Substitute normalized boundary constraints into the discretized PDE.

    Each mode's leading ``k`` coefficients are ``g - b[:, k:] u_int``, so a
    matrix ``L`` becomes ``L[:, k:] - L[:, :k] @ b[:, k:]`` on the interior
    coefficients; its interior rows are kept.  A matrix object that several
    terms share is substituted once, and its block stays shared.  When some
    face has data, ``lift`` is the interior block of the operator applied to
    :func:`reconstruct` of a zero interior, so an edge or corner carries the
    data that reconstruction puts there.
    """
    if bset.lead_cond is None:
        raise BoundaryConditionError("boundary set must be normalized before reduction")
    nr = bset.row_counts()
    if nr != d.orders:
        raise BoundaryConditionError(
            f"boundary rows per mode {nr} do not match operator orders {d.orders}"
        )
    rows = tuple(n + 1 - k for n, k in zip(d.degrees, nr))
    lhat: tuple[list, list, list] = ([], [], [])
    for mode, (k, r) in enumerate(zip(nr, rows)):
        b = bset.ops[mode].b
        if not np.array_equal(b[:, :k], np.eye(k)):
            raise BoundaryConditionError(
                f"mode {mode + 1} boundary rows do not lead with the identity; "
                f"boundary set appears unnormalized"
            )
        done: dict[int, np.ndarray] = {}
        for l_full in d.mats[mode]:
            if id(l_full) not in done:
                done[id(l_full)] = l_full[:r, k:] - l_full[:r, :k] @ b[:, k:]
            lhat[mode].append(done[id(l_full)])
    lift = None
    if any(np.any(op.g) for op in bset.ops):
        lift = apply_operator(d, reconstruct(np.zeros(rows), bset))[tuple(map(slice, rows))]
    return ReducedSystem(lhat=lhat, lift=lift, bset=bset)


def reconstruct(u222: np.ndarray, bset: BoundarySet) -> np.ndarray:
    """Assemble the full coefficient tensor from the interior block and the
    normalized constraints.

    One sweep over the modes in the order 2, 3, 1: each mode fills its
    boundary rows from its constraint, over the index ranges of the modes
    filled so far.  An edge or corner thus takes the mode-1 data wherever
    mode 1 is involved, and the mode-3 data on the 2-3 edge.
    """
    if bset.lead_cond is None:
        raise BoundaryConditionError("boundary set must be normalized for reconstruction")
    nr = bset.row_counts()
    u = np.zeros(tuple(s + n for s, n in zip(u222.shape, nr)))
    filled = [slice(n, None) for n in nr]
    u[tuple(filled)] = u222
    for m in (1, 2, 0):
        op = bset.ops[m]
        interior = u[_at(filled, m, slice(nr[m], None))]
        u[_at(filled, m, slice(nr[m]))] = (
            op.g[_at(filled, m, slice(None))] - mode_mult(interior, op.b[:, nr[m]:], m + 1)
        )
        filled[m] = slice(None)
    return u
