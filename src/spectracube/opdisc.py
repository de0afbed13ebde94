"""Discretization of linear differential operators on the cube.

The operator ``sum_abc alpha_abc(x,y,z) d^(a+b+c)/dx^a dy^b dz^c`` is turned
into a rank-R list of one-dimensional coefficient-space matrices
``(Lx_r, Ly_r, Lz_r)`` so that applying the operator to a Chebyshev
coefficient tensor is ``sum_r u x1 Lx_r x2 Ly_r x3 Lz_r`` with output in the
ultraspherical basis of parameter ``(Nx, Ny, Nz)`` per mode.

The split is exact wherever the coefficients are separable and an
alternating-least-squares CP decomposition only where they are not.  Every
exact term comes from one term builder: the closed form (each coefficient
without a mixed derivative that is univariate in its own mode's variable),
one term per product of a coefficient read as a sum of products of
univariate factors, and ``-div(a grad u)`` (a :class:`DiffusionForm`, three
terms per separable term of ``a``).  Every split has one factor format,
per-order Chebyshev rows, and :func:`discretize` assembles them all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np
from numpy.polynomial.chebyshev import chebder

from . import expr as expr_mod
from .cheb import (
    cheb_interp_1d,
    cheb_interp_3d,
    cheb_points,
    conv_chain,
    diff_matrix,
    mult_matrix_cheb,
    mult_matrix_ultra,
)
from .tensor3 import ShapeError, mode_matricize, mode_product_sum

if TYPE_CHECKING:
    from .drivers import SolverOptions

Coefficient = Union[float, expr_mod.ExprAst]


@dataclass(frozen=True)
class DiffOperator3:
    """Differential orders per mode plus a coefficient for each multi-index.

    Coefficients are real constants or expression ASTs in (x, y, z).
    Orders are tight: some coefficient at the maximal order of each mode is
    nonzero.
    """

    orders: tuple[int, int, int]
    coeffs: dict[tuple[int, int, int], Coefficient]

    def __post_init__(self):
        nx, ny, nz = self.orders
        tight = [False, False, False]
        for (a, b, c), val in self.coeffs.items():
            if not (0 <= a <= nx and 0 <= b <= ny and 0 <= c <= nz):
                raise ValueError(f"coefficient index {(a, b, c)} outside orders {self.orders}")
            if _is_zero(val):
                continue
            tight[0] |= a == nx
            tight[1] |= b == ny
            tight[2] |= c == nz
        for mode, ok in enumerate(tight):
            if self.orders[mode] > 0 and not ok:
                raise ValueError(
                    f"orders {self.orders} not tight: no nonzero coefficient at the "
                    f"maximal order of mode {mode + 1}"
                )


@dataclass(frozen=True)
class DiffusionForm:
    """Operator ``-div(a grad u)`` with ``a = sum_r a1_r(x) a2_r(y) a3_r(z)``.

    ``terms`` holds the ``(a1, a2, a3)`` triples; a factor is a number, a
    univariate callable or an expression in its own mode's variable.
    """

    terms: tuple

    def __post_init__(self):
        sizes = [len(term) for term in self.terms]
        if not sizes or any(k != 3 for k in sizes):
            raise ValueError(
                f"DiffusionForm terms must be one or more (a1, a2, a3) triples; "
                f"factor counts {sizes}"
            )

    @property
    def orders(self) -> tuple[int, int, int]:
        return (2, 2, 2)


Operator = Union[DiffOperator3, DiffusionForm]


def _is_zero(val: Coefficient) -> bool:
    return isinstance(val, (int, float)) and float(val) == 0.0


def _is_const(val: Coefficient) -> bool:
    return isinstance(val, (int, float)) or isinstance(val, expr_mod.Const)


def _const_value(val: Coefficient) -> float:
    return float(val.value) if isinstance(val, expr_mod.Const) else float(val)


def _coeff_fn1(val, var: str):
    """Univariate view of a number, a callable of one variable, or an
    expression known to depend only on ``var``."""
    if _is_const(val):
        c = _const_value(val)
        return lambda t: np.full_like(np.asarray(t, dtype=float), c)
    if not expr_mod.is_expr(val):
        return val
    f = expr_mod.to_callable(val)
    args = {"x": 0, "y": 1, "z": 2}[var]

    def g(t):
        pts = [np.zeros_like(t)] * 3
        pts[args] = t
        return f(*pts)

    return g


def scale_shift_operator(op: DiffOperator3, scale: float, shift: float) -> DiffOperator3:
    """The operator ``shift * identity + scale * op`` with tightened orders.

    Used to form the implicit Euler step operator.  Expression coefficients
    are wrapped in a multiplication node; all-zero maximal orders are
    dropped so the result stays tight.
    """
    coeffs: dict[tuple[int, int, int], Coefficient] = {}
    for key, val in op.coeffs.items():
        if _is_zero(val) or scale == 0.0:
            continue
        if _is_const(val):
            coeffs[key] = scale * _const_value(val)
        elif scale == 1.0:
            coeffs[key] = val
        else:
            coeffs[key] = expr_mod.BinOp("*", expr_mod.Const(scale), val)
    zero = (0, 0, 0)
    if shift != 0.0:
        if zero in coeffs:
            base = coeffs[zero]
            if _is_const(base):
                coeffs[zero] = shift + _const_value(base)
            else:
                coeffs[zero] = expr_mod.BinOp("+", expr_mod.Const(shift), base)
        else:
            coeffs[zero] = shift
    coeffs = {k: v for k, v in coeffs.items() if not _is_zero(v)}
    orders = tuple(
        max((k[m] for k in coeffs), default=0) for m in range(3)
    )
    return DiffOperator3(orders=orders, coeffs=coeffs)


# ---------------------------------------------------------------------------
# coefficient tensor and CP factors
# ---------------------------------------------------------------------------


@dataclass
class CpFactors:
    """Rank-R factors of the operator's coefficient tensor, in operator form.

    ``factors[mode][r]`` has shape ``(N_mode + 1, n_mode + 1)``: row ``a``
    holds the Chebyshev coefficients of the order-``a`` coefficient function
    of that mode's variable, so a constant is a row that is zero after its
    first entry.  ``fit`` is the CP-ALS fit a split computed by CP-ALS came
    from, and ``None`` for an exact split.
    """

    rank: int
    factors: tuple[list, list, list]
    fit: CpFit | None = None

    @property
    def error(self) -> float:
        """Max-abs error of the split: the CP-ALS error, 0 for an exact split."""
        return 0.0 if self.fit is None else self.fit.error


def build_coeff_tensor(op: DiffOperator3, degrees: tuple[int, int, int]) -> np.ndarray:
    """Coefficient tensor of the operator: the order-6 tensor of
    per-coefficient interpolants (a constant at degree 0), reshaped to 3
    modes with index fusion ``(order, degree) -> order * (n+1) + degree``
    (derivative order slowest).
    """
    nx, ny, nz = op.orders
    n1, n2, n3 = degrees
    a6 = np.zeros((nx + 1, n1 + 1, ny + 1, n2 + 1, nz + 1, n3 + 1))
    for (a, b, c), val in op.coeffs.items():
        if _is_const(val):
            a6[a, 0, b, 0, c, 0] += _const_value(val)
        else:
            a6[a, :, b, :, c, :] += cheb_interp_3d(expr_mod.to_callable(val), n1, n2, n3)
    return a6.reshape((nx + 1) * (n1 + 1), (ny + 1) * (n2 + 1), (nz + 1) * (n3 + 1))


# ---------------------------------------------------------------------------
# CP decomposition by alternating least squares
# ---------------------------------------------------------------------------


# singular values of an unfolding below this fraction of its largest are
# dropped from the Tucker compression that CP-ALS runs on
TUCKER_RTOL = 1e-15


@dataclass(frozen=True, eq=False)
class CpFit:
    """A CP-ALS fit: the factor matrices, their max-abs error, and whether
    the winning restart solved a singular normal system with a ridge
    (``regularized``); ``restart`` is the winning restart (``None`` when no
    error was finite), ``sweeps`` the sweeps each restart ran,
    ``fit_change`` each restart's last relative fit change (the number the
    stopping rule compares with ``tol``; ``inf`` after one sweep) and
    ``core_dims`` the dims of the Tucker core ALS ran on (empty for a zero
    tensor)."""

    factors: list
    error: float
    regularized: bool
    restart: int | None
    sweeps: tuple
    fit_change: tuple
    core_dims: tuple


def _left_svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values of ``x`` from the SVD of
    the small ``R.T``, ``x.T = Q R``: ``x = R.T Q.T`` shares them with
    ``R.T``, and no right singular vector of ``x`` is formed.  A
    C-contiguous ``x`` makes the QR's Fortran copy of ``x.T`` a plain
    copy."""
    r = np.linalg.qr(x.T, mode="r")
    return np.linalg.svd(r.T, full_matrices=False)[:2]


def _gram(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Batched ``f.T f`` of stacked factors ``(live, dim, rank)``, into
    ``out`` when given."""
    return np.matmul(f.swapaxes(1, 2), f, out=out)


def _rebalance(facs: list, norms: np.ndarray) -> None:
    """Give each rank-one term of the stacked factors ``facs[m]`` ``(live,
    dim, rank)`` equal column norms in the three modes, in place; ``norms``
    is a ``(3, live, rank)`` buffer.  A column whose norm is zero or NaN in
    some mode has a zero or NaN weight, so its target is 1: there it keeps
    the scale 1, and in the other modes it is divided by its norm."""
    for f, nrm in zip(facs, norms):
        (f * f).sum(axis=1, out=nrm)
    np.sqrt(norms, out=norms)
    weight = norms[0] * norms[1]
    weight *= norms[2]
    target = np.cbrt(np.where(weight > 0, weight, 1.0))
    scale = target / np.where(norms > 0, norms, 1.0)
    for f, sc in zip(facs, scale):
        f *= sc[:, None, :]


def cp_decompose(
    t: np.ndarray,
    rank: int,
    max_iter: int = 500,
    tol: float = 1e-12,
    restarts: int = 5,
    seed: int = 0,
) -> CpFit:
    """Best-of-``restarts`` ALS fit of a rank-``rank`` CP model.

    Returns a :class:`CpFit` whose factor matrices have shape ``(dim,
    rank)``.  ALS runs on the core ``G = t x1 U1^T x2 U2^T x3 U3^T`` of a
    truncated HOSVD, ``U_m`` the left singular vectors of the mode-``m``
    unfolding down to ``TUCKER_RTOL``, and the factors are expanded as
    ``U_m A_m`` (CANDELINC).  ``U_m`` and the singular values come from the
    small R factor of each unfolding (:func:`_left_svd`), built C-contiguous.
    The first restart
    is initialized from the leading singular vectors of the unfoldings, the
    rest from seeded Gaussian noise, each projected onto the ``U_m``; the
    best run by max-norm error against ``t`` wins.

    Each mode update solves with the Hadamard product of the other two
    modes' Gram matrices ``A_j^T A_j``, which are kept across the sweep:
    only the updated mode's Gram is recomputed.  The column norms are
    rebalanced once per sweep, after the mode-3 update and the fit
    (:func:`_rebalance`), and the mode-2 and mode-3 Grams are then
    recomputed from the rescaled factors; the mode-1 Gram is left stale,
    since the next sweep's mode-1 update recomputes it before anything
    reads it.  The restarts advance together as one batched loop that
    writes into buffers allocated once per set of live restarts (the
    Hadamard Gram, the Khatri-Rao products, the right sides, the model and
    the column norms).  Each restart stops on its own relative fit change
    below ``tol``, tested on Python floats.  The iterates are bit-identical
    to running the restarts one by one (``tests/oracles.py``).  On the
    presets that change never falls below ``tol``, so every restart runs
    all ``max_iter`` sweeps.  Deterministic for a fixed seed.
    """
    t = np.asarray(t, dtype=float)
    for name, value in (("CP rank", rank), ("max_iter", max_iter), ("restarts", restarts)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    rng = np.random.default_rng(seed)
    dims = t.shape
    norm_t = float(np.linalg.norm(t))
    if norm_t == 0.0:
        return CpFit([np.zeros((d, rank)) for d in dims], 0.0, False, None, (), (), ())
    # C-contiguous unfoldings: column order as in mode_matricize, the lower
    # remaining mode fastest
    svds = [
        _left_svd(t.transpose(m, *(k for k in (2, 1, 0) if k != m)).reshape(dims[m], -1))
        for m in range(3)
    ]
    bases = [u[:, : int(np.count_nonzero(s > TUCKER_RTOL * s[0]))] for u, s in svds]
    core = np.einsum("ijk,ia,jb,kc->abc", t, *bases, optimize=True)
    unfs = [mode_matricize(core, m) for m in (1, 2, 3)]
    starts = []
    for restart in range(restarts):
        if restart == 0:
            # deterministic SVD-based start; columns belonging to negligible
            # singular values get noise instead, so rank-deficient unfoldings
            # do not pin those components at zero
            facs = []
            for m, (u, s) in enumerate(svds):
                f = np.empty((dims[m], rank))
                for j in range(rank):
                    if j < len(s) and s[j] > 1e-12 * s[0]:
                        f[:, j] = u[:, j]
                    else:
                        f[:, j] = 1e-3 * rng.standard_normal(dims[m])
                facs.append(f)
        else:
            facs = [rng.standard_normal((d, rank)) for d in dims]
        starts.append([b.T @ f for b, f in zip(bases, facs)])
    # facs[m] stacks the mode-m core factors of the live restarts:
    # (live, core dim, rank); grams[m] their Gram matrices (live, rank, rank)
    facs = [np.array([s[m] for s in starts]) for m in range(3)]
    grams = [_gram(f) for f in facs]
    cdims = core.shape
    others = [(1, 2), (0, 2), (0, 1)]
    live = list(range(restarts))
    prev_fit = [math.inf] * restarts
    fit_change = [math.inf] * restarts
    sweeps = [max_iter] * restarts
    regularized = [False] * restarts
    final: list = [None] * restarts
    n = 0
    for sweep in range(1, max_iter + 1):
        if n != len(live):
            # the sweep's buffers for this set of live restarts; kr4[m] is
            # the khatri-rao product of the modes other than m as
            # (live, d_j, d_i, rank), its view kr[m] (live, d_j d_i, rank)
            # puts d_i fastest, the column order of mode_matricize
            n = len(live)
            hgram = np.empty((n, rank, rank))
            kr4 = [np.empty((n, cdims[j], cdims[i], rank)) for i, j in others]
            kr = [k.reshape(n, -1, rank) for k in kr4]
            rhs = [np.empty((n, d, rank)) for d in cdims]
            rhs_t = [r.swapaxes(1, 2) for r in rhs]
            model = np.empty((n, cdims[2], cdims[0] * cdims[1]))
            res_row, res_col = model.reshape(n, 1, -1), model.reshape(n, -1, 1)
            norms = np.empty((3, n, rank))
        for m, (i, j) in enumerate(others):
            np.multiply(grams[i], grams[j], out=hgram)
            np.multiply(facs[j][:, :, None, :], facs[i][:, None, :, :], out=kr4[m])
            np.matmul(unfs[m], kr[m], out=rhs[m])
            try:
                sol = np.linalg.solve(hgram, rhs_t[m])
            except np.linalg.LinAlgError:
                sol = np.empty_like(rhs_t[m])
                for k, g in enumerate(hgram):
                    try:
                        sol[k] = np.linalg.solve(g, rhs_t[m][k])
                    except np.linalg.LinAlgError:
                        ridge = 1e-12 * max(np.trace(g) / rank, 1.0)
                        sol[k] = np.linalg.solve(g + ridge * np.eye(rank), rhs_t[m][k])
                        regularized[live[k]] = True
            facs[m] = sol.swapaxes(1, 2)
            if m < 2:
                _gram(facs[m], out=grams[m])
        # exact residual from the unfolded model, taken before the rebalance
        # invalidates the last khatri-rao product
        np.matmul(facs[2], kr[2].swapaxes(1, 2), out=model)
        np.subtract(unfs[2], model, out=model)
        sq_res = (res_row @ res_col).ravel().tolist()
        _rebalance(facs, norms)
        # the mode-1 update reads only these two and then recomputes grams[0]
        _gram(facs[1], out=grams[1])
        _gram(facs[2], out=grams[2])
        stop = []
        for restart, sq in zip(live, sq_res):
            fit = math.sqrt(sq) / norm_t
            delta = abs(prev_fit[restart] - fit)
            floor = max(fit, 1e-300)
            fit_change[restart] = delta / floor
            stop.append(not math.isfinite(fit) or delta < tol * floor)
            prev_fit[restart] = fit
        if any(stop):
            keep = ~np.array(stop)
            for k, restart in enumerate(live):
                if stop[k]:
                    final[restart] = [f[k] for f in facs]
                    sweeps[restart] = sweep
            live = [r for r, s in zip(live, stop) if not s]
            if not live:
                break
            facs = [f[keep] for f in facs]
            grams = [g[keep] for g in grams]
    for k, restart in enumerate(live):
        final[restart] = [f[k] for f in facs]
    # each restart's max-norm error, in one (d1 d2, d3) buffer: the
    # khatri-rao product of modes 1 and 2 times the mode-3 factor
    t_mat = t.reshape(-1, dims[2])
    buf = np.empty_like(t_mat)
    best_facs, best_err, best_restart = None, np.inf, None
    for restart, facs in enumerate(final):
        facs = [b @ f for b, f in zip(bases, facs)]
        kr = (facs[0][:, None, :] * facs[1][None, :, :]).reshape(-1, rank)
        np.matmul(kr, facs[2].T, out=buf)
        np.subtract(buf, t_mat, out=buf)
        err = float(np.max(np.abs(buf, out=buf)))
        if np.isfinite(err) and err < best_err:
            best_facs, best_err, best_restart = facs, err, restart
    best_reg = best_restart is not None and regularized[best_restart]
    return CpFit(
        best_facs, best_err, best_reg, best_restart, tuple(sweeps), tuple(fit_change),
        core.shape,
    )


def _cp_split(
    t: np.ndarray, rank: int, orders: tuple, degrees: tuple, options: SolverOptions
) -> CpFactors:
    """CP-ALS split of ``t`` in operator form.

    Column ``r`` of the mode-``m`` factor matrix fills a zero ``(order + 1,
    degree + 1)`` factor from its first entry on: all of it for the fused
    tensor, or row 0 when ``t`` is the zero-order coefficient alone.  Warns
    when the winning restart needed the ridge fallback.
    """
    fit = cp_decompose(t, rank, restarts=options.cp_restarts, seed=options.cp_seed)
    if fit.regularized:
        warnings.warn(
            f"CP-ALS restart {fit.restart} won after a ridge fallback on a "
            f"singular normal system (cp_error {fit.error:.3g})",
            stacklevel=3,
        )
    factors: tuple[list, list, list] = ([], [], [])
    for mode, (o, n) in enumerate(zip(orders, degrees)):
        for col in fit.factors[mode].T:
            f = np.zeros((o + 1, n + 1))
            f.flat[: col.size] = col
            factors[mode].append(f)
    return CpFactors(rank=rank, factors=factors, fit=fit)


# ---------------------------------------------------------------------------
# exact splits
# ---------------------------------------------------------------------------

_MODE_VAR = ("x", "y", "z")


def _exact_split(terms: Sequence, orders: tuple, degrees: tuple) -> CpFactors:
    """Exact split with one rank-one term per entry of ``terms``.

    ``terms[r][mode]`` maps a derivative order to the coefficient of term
    ``r`` in that mode: a number lands in column 0 of its row, a Chebyshev
    coefficient vector fills the row, and a univariate function or an
    expression in the mode's variable is interpolated at the mode's degree.
    """
    factors: tuple[list, list, list] = ([], [], [])
    for term in terms:
        for mode, vals in enumerate(term):
            f = np.zeros((orders[mode] + 1, degrees[mode] + 1))
            for a, val in vals.items():
                if isinstance(val, np.ndarray):
                    f[a] = val
                elif _is_const(val):
                    f[a, 0] = _const_value(val)
                else:
                    f[a] = cheb_interp_1d(_coeff_fn1(val, _MODE_VAR[mode]), degrees[mode])
            factors[mode].append(f)
    return CpFactors(rank=len(terms), factors=factors)


def _times(a: tuple, b: tuple, op: str = "*") -> tuple:
    """The product of two products of factors, variable by variable; with
    ``op="/"`` the quotient."""
    out = dict(a[0])
    for var, f in b[0].items():
        out[var] = expr_mod.BinOp(op, out.get(var, expr_mod.Const(1.0)), f)
    return out, a[1] | b[1]


_MINUS_ONE = ({"x": expr_mod.Const(-1.0)}, frozenset())


def _products(val: Coefficient) -> tuple[frozenset, list | None]:
    """A coefficient as a sum of products of univariate factors.

    Returns the variables the coefficient uses and one ``({variable:
    factor}, used)`` pair per product, ``used`` the variables its factors
    use, or ``None`` for the products when the coefficient is not of that
    form.  A subtree in at most one variable is one factor, a constant one
    filed under ``x``; ``+``, ``-``, unary ``-``, ``*`` and ``/`` by a
    divisor in at most one variable combine factors.  Anything else, such
    as ``exp(x+y+z)``, ``sqrt(x+y+z+42)`` or ``x^y``, is not separable.
    One walk: each subtree's variables come up from its children.
    """
    if isinstance(val, expr_mod.Var):
        used = frozenset({val.name})
    elif isinstance(val, (expr_mod.Neg, expr_mod.Call)):
        used, parts = _products(val.operand if isinstance(val, expr_mod.Neg) else val.arg)
    elif isinstance(val, expr_mod.BinOp):
        (lused, left), (rused, right) = _products(val.left), _products(val.right)
        used = lused | rused
    else:
        used = frozenset()
    if len(used) <= 1:
        return used, [({min(used, default="x"): val}, used)]
    if isinstance(val, expr_mod.Neg):
        return used, parts and [_times(_MINUS_ONE, p) for p in parts]
    if not isinstance(val, expr_mod.BinOp) or val.op == "^" or (
        val.op == "/" and len(rused) > 1
    ) or left is None or right is None:
        return used, None
    if val.op == "+":
        return used, left + right
    if val.op == "-":
        return used, left + [_times(p, _MINUS_ONE) for p in right]
    return used, [_times(a, b, val.op) for a in left for b in right]


def _factor(product: tuple, var: str):
    """The product's factor in ``var``, a number when it uses no variable."""
    factors, used = product
    f = factors.get(var, 1.0)
    if var not in used and expr_mod.is_expr(f):
        return expr_mod.evaluate(f, 0.0, 0.0, 0.0)
    return f


def _diffusion_terms(form: DiffusionForm, degrees: tuple[int, int, int]) -> list:
    """Terms of the exact split of ``-div(a grad u)``: each term ``(a1, a2,
    a3)`` of ``a`` gives three, the ``r``-th with rows ``{2: -a_r, 1:
    -a_r'}`` in mode ``r`` (``a_r'`` the derivative of the degree-``n``
    interpolant) and ``{0: a_j}`` in every other mode ``j``.  Warns when a
    factor is not positive on the grid."""
    terms = []
    for term in form.terms:
        payloads, companions = [], []
        for mode, f in enumerate(term):
            f = _coeff_fn1(f, _MODE_VAR[mode])
            vals = np.asarray(f(cheb_points(degrees[mode])), dtype=float)
            if np.any(vals <= 0.0):
                warnings.warn(
                    f"diffusion coefficient factor for mode {mode + 1} is not positive "
                    f"on the grid (min {vals.min():.3g}); ellipticity is not guaranteed",
                    stacklevel=3,
                )
            v = cheb_interp_1d(f, degrees[mode])
            payloads.append({2: -v, 1: -np.pad(chebder(v), (0, 1))[: v.size]})
            companions.append({0: v})
        terms += [[payloads[m] if m == r else companions[m] for m in range(3)] for r in range(3)]
    return terms


# ---------------------------------------------------------------------------
# 1-D assembly and the discretized operator
# ---------------------------------------------------------------------------


def assemble_L_1d(coeff_per_order: Sequence, n: int) -> np.ndarray:
    """Coefficient-space matrix of a 1-D operator of order ``N = len - 1``.

    ``coeff_per_order[a]`` is ``None`` (absent term), a scalar, or the
    coefficient function's vector in the parameter-``a`` basis (Chebyshev for
    ``a = 0``).  The result maps Chebyshev coefficients of ``u`` to
    parameter-``N`` coefficients of the operator applied to ``u``,
    degree-truncated.
    """
    order = len(coeff_per_order) - 1
    out = np.zeros((n + 1, n + 1))
    for a, coeff in enumerate(coeff_per_order):
        if coeff is None:
            continue
        if np.isscalar(coeff):
            if float(coeff) == 0.0:
                continue
            core = float(coeff) * (diff_matrix(a, n) if a >= 1 else np.eye(n + 1))
        else:
            v = np.asarray(coeff, dtype=float)
            if v.shape != (n + 1,):
                raise ShapeError(
                    f"order-{a} coefficient vector has length {v.size}, expected {n + 1}"
                )
            if not np.any(v):
                continue
            mult = mult_matrix_cheb(v) if a == 0 else mult_matrix_ultra(a, v)
            core = mult @ diff_matrix(a, n) if a >= 1 else mult
        out += conv_chain(a, order, n) @ core
    return out


@dataclass
class DiscretizedOperator:
    """Rank-R family of per-mode coefficient-space matrices:
    ``mats[mode][r]`` is the mode-``mode`` matrix of term ``r``."""

    rank: int
    degrees: tuple[int, int, int]
    orders: tuple[int, int, int]
    mats: tuple[list, list, list]
    cp_fit: CpFit | None = None

    def __post_init__(self):
        for mode, ms in enumerate(self.mats):
            want = self.degrees[mode] + 1
            for m in ms:
                if m.shape != (want, want):
                    raise ShapeError(
                        f"mode-{mode + 1} operator matrix has shape {m.shape}, "
                        f"expected ({want}, {want})"
                    )


def _per_order_coeffs(factor: np.ndarray, n: int) -> list:
    """The :func:`assemble_L_1d` coefficients of one factor: a scalar for a
    constant row, else the row in the parameter-``a`` basis."""
    coeffs: list = []
    for a, row in enumerate(factor):
        if not np.any(row[1:]):
            coeffs.append(float(row[0]))
        else:
            coeffs.append(row if a == 0 else conv_chain(0, a, n) @ row)
    return coeffs


def discretize(
    op: Operator, degrees: tuple[int, int, int], split: CpFactors
) -> DiscretizedOperator:
    """Build the per-term 1-D matrices from an operator-form split.

    A factor row that is zero after its first entry is a constant and takes
    the scalar path of :func:`assemble_L_1d`; any other row holds Chebyshev
    coefficients, converted to the parameter-``a`` basis before assembly.
    Within a mode, a factor whose bytes equal an earlier one's reuses that
    term's matrix object, so each distinct factor is assembled once (a
    ``DiffusionForm`` companion or the ``{0: 1}`` companion of a closed-form
    split recurs across terms).  The matrices are shared, not copied.
    """
    mats: tuple[list, list, list] = ([], [], [])
    for mode in range(3):
        n = degrees[mode]
        built: dict[bytes, np.ndarray] = {}
        for factor in split.factors[mode]:
            key = factor.tobytes()
            if key not in built:
                built[key] = assemble_L_1d(_per_order_coeffs(factor, n), n)
            mats[mode].append(built[key])
    return DiscretizedOperator(
        rank=split.rank, degrees=degrees, orders=op.orders, mats=mats, cp_fit=split.fit
    )


def apply_operator(d: DiscretizedOperator, u: np.ndarray) -> np.ndarray:
    """Apply the discretized operator to a Chebyshev coefficient tensor."""
    u = np.asarray(u, dtype=float)
    want = tuple(n + 1 for n in d.degrees)
    if u.shape != want:
        raise ShapeError(f"tensor dims {u.shape} do not match operator degrees + 1 = {want}")
    return mode_product_sum(u, d.mats)


# ---------------------------------------------------------------------------
# splitting strategy
# ---------------------------------------------------------------------------


def split_operator(
    op: Operator, degrees: tuple[int, int, int], options: SolverOptions
) -> CpFactors:
    """Split the operator: exactly where its coefficients are separable, by
    CP-ALS only where they are not.

    A :class:`DiffusionForm` has its exact diffusion split.  Otherwise a
    coefficient without a mixed derivative that is a constant or univariate
    in its own mode's variable (the zero-order one in any single variable)
    joins that mode's closed-form payload, and every other coefficient is
    read as a sum of products (:func:`_products`), one exact term each.
    The exact terms are the three closed-form ones, less those with an
    empty payload when product terms exist, then the product terms.  When
    some coefficient is not separable, CP-ALS splits what is left: under
    ``split_identity``, a zero-order coefficient alone at ``mult_rank``
    next to the exact terms; otherwise the whole fused tensor at
    ``cp_rank``.

    Reads the ``cp_*``, ``mult_rank`` and ``split_identity`` fields of
    ``options``.
    """
    if isinstance(op, DiffusionForm):
        return _exact_split(_diffusion_terms(op, degrees), op.orders, degrees)
    payloads: list[dict[int, Coefficient]] = [{}, {}, {}]
    products, left = [], []
    for key, val in sorted(op.coeffs.items()):
        if _is_zero(val):
            continue
        active = [m for m, o in enumerate(key) if o > 0]
        used, parts = _products(val)
        mode = active[0] if active else _MODE_VAR.index(min(used, default="x"))
        if len(active) <= 1 and used <= {_MODE_VAR[mode]}:
            payloads[mode][key[mode]] = val
            continue
        if parts is None:
            left.append(key)
            continue
        for p in parts:
            products.append([{o: _factor(p, v)} for o, v in zip(key, _MODE_VAR)])
    if left and not (options.split_identity and left == [(0, 0, 0)]):
        return _cp_split(
            build_coeff_tensor(op, degrees), options.cp_rank, op.orders, degrees, options
        )
    closed = [[p if m == r else {0: 1.0} for m, p in enumerate(payloads)] for r in range(3)]
    if products:
        closed = [term for term, p in zip(closed, payloads) if p]
    exact = _exact_split(closed + products, op.orders, degrees)
    if not left:
        return exact
    b000 = cheb_interp_3d(expr_mod.to_callable(op.coeffs[(0, 0, 0)]), *degrees)
    mult = _cp_split(b000, options.mult_rank, op.orders, degrees, options)
    factors = tuple(e + m for e, m in zip(exact.factors, mult.factors))
    return CpFactors(exact.rank + mult.rank, factors, mult.fit)
