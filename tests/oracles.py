"""Test oracles.

Ultraspherical series evaluated directly by the three-term recurrence,
independent of the library's conversion matrices, the unblocked
evaluation of a coefficient tensor at points, the reference for the
blocked evaluator, the multiplication matrix by the matrix recurrence
run over every entry of the multiplier,
the reference for the recurrence that stops early, the CP-ALS loop with
its restarts run one after another, the reference for the batched loop,
the L2 inner product by re-interpolation of the product polynomial (with
the DCT synthesis it needs), the reference for the Gram-matrix form, the
reduced right side rebuilt per solve from the substituted matrices, the
reference for the lift that reduction stores, restarted GMRES with
modified Gram-Schmidt on a list of Fortran-order vectors, the reference
for the CGS2 basis matrix, and a canonical printer of expression trees
for parser round trips.
"""

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import scipy.linalg
from scipy.fft import dct

from spectracube.cheb import cheb_integral_weights, shift_matrix_ultra, vals_to_coeffs
from spectracube.expr import BinOp, Call, Const, ExprAst, Neg, Var
from spectracube.opdisc import TUCKER_RTOL
from spectracube.tensor3 import mode_matricize, mode_mult, unvectorize, vectorize


def eval_ultra_1d(lam: int, c: np.ndarray, x) -> np.ndarray:
    """Evaluate an ultraspherical series by the three-term recurrence.

    Test-oracle quality; adequate for degrees up to a few hundred.
    """
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    p_prev = np.ones_like(x)
    total = c[0] * p_prev
    if len(c) == 1:
        return total
    p_cur = 2.0 * lam * x
    total = total + c[1] * p_cur
    for k in range(1, len(c) - 1):
        p_next = (2.0 * (k + lam) * x * p_cur - (k + 2 * lam - 1) * p_prev) / (k + 1)
        total = total + c[k + 1] * p_next
        p_prev, p_cur = p_cur, p_next
    return total


def eval_cheb_3d_reference(u: np.ndarray, x, y, z) -> np.ndarray:
    """Evaluate a coefficient tensor at all points in one step: the full
    ``(points, n2+1, n3+1)`` contraction, Vandermonde rows broadcast by
    ``einsum``."""
    u = np.asarray(u, dtype=float)
    tx, ty, tz = (
        npcheb.chebvander(np.atleast_1d(np.asarray(c, dtype=float)), m - 1)
        for c, m in zip((x, y, z), u.shape)
    )
    a = np.tensordot(tx, u, axes=([1], [0]))
    b = np.einsum("pjk,pj->pk", a, ty)
    return np.einsum("pk,pk->p", b, tz)


def mult_matrix_ultra_reference(lam: int, v: np.ndarray) -> np.ndarray:
    """Multiplication matrix in the parameter-``lam`` basis by the matrix
    three-term recurrence over all of ``v``, trailing zeros included."""
    n = len(v) - 1
    shift = shift_matrix_ultra(lam, n)
    m_prev = np.eye(n + 1)
    out = v[0] * m_prev
    if n == 0:
        return out
    m_cur = 2.0 * lam * shift
    out = out + v[1] * m_cur
    for i in range(n - 1):
        m_next = (2.0 * (i + lam + 1) * (shift @ m_cur) - (i + 2 * lam) * m_prev) / (i + 2)
        out = out + v[i + 2] * m_next
        m_prev, m_cur = m_cur, m_next
    return out


def eval_ultra_3d(lams: tuple[int, int, int], u: np.ndarray, x, y, z) -> np.ndarray:
    """Evaluate a tensor of mixed ultraspherical coefficients (lam = 0 means Chebyshev)."""
    u = np.asarray(u, dtype=float)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    zs = np.atleast_1d(np.asarray(z, dtype=float))

    def basis(lam, pts, n):
        if lam == 0:
            return npcheb.chebvander(pts, n)
        cols = [eval_ultra_1d(lam, np.eye(n + 1)[k], pts) for k in range(n + 1)]
        return np.column_stack(cols)

    tx = basis(lams[0], xs, u.shape[0] - 1)
    ty = basis(lams[1], ys, u.shape[1] - 1)
    tz = basis(lams[2], zs, u.shape[2] - 1)
    a = np.tensordot(tx, u, axes=([1], [0]))
    b = np.einsum("pjk,pj->pk", a, ty)
    return np.einsum("pk,pk->p", b, tz)


# --- CP-ALS, one restart after another ----------------------------------------


def _khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # columnwise outer products; the first argument's index varies fastest,
    # matching the column ordering of mode_matricize
    r = a.shape[1]
    return (b[:, None, :] * a[None, :, :]).reshape(-1, r)


def _rebalance(facs: list) -> None:
    norms = [np.linalg.norm(f, axis=0) for f in facs]
    weight = norms[0] * norms[1] * norms[2]
    target = np.cbrt(np.where(weight > 0, weight, 1.0))
    for m in range(3):
        nz = norms[m] > 0
        facs[m][:, nz] *= (target[nz] / norms[m][nz])


def _cp_reconstruct(facs) -> np.ndarray:
    return np.einsum("ir,jr,kr->ijk", *facs, optimize=True)


def cp_decompose_reference(
    t: np.ndarray,
    rank: int,
    max_iter: int = 500,
    tol: float = 1e-12,
    restarts: int = 5,
    seed: int = 0,
):
    """The CP-ALS loop that runs the restarts one after another.

    The same arithmetic as ``opdisc.cp_decompose`` (Tucker bases from the R
    factor of each unfolding, kept Gram matrices, one rebalance per sweep),
    one restart at a time:
    the reference that its batched loop must reproduce.  Returns ``(factors, error,
    regularized, restart, sweeps, ridged)``: the first three as
    ``cp_decompose`` returns them, then the winning restart (``None`` if no
    error was finite), and per restart the sweeps it ran and whether it
    needed the ridge.
    """
    t = np.asarray(t, dtype=float)
    if rank < 1:
        raise ValueError(f"CP rank must be >= 1, got {rank}")
    rng = np.random.default_rng(seed)
    dims = t.shape
    norm_t = np.linalg.norm(t)
    if norm_t == 0.0:
        return [np.zeros((d, rank)) for d in dims], 0.0, False, None, [], []
    # (U, s) of each unfolding X from the SVD of R.T, X.T = QR
    svds = []
    for m in (1, 2, 3):
        r = np.linalg.qr(mode_matricize(t, m).T, mode="r")
        svds.append(np.linalg.svd(r.T, full_matrices=False)[:2])
    bases = [u[:, : int(np.count_nonzero(s > TUCKER_RTOL * s[0]))] for u, s in svds]
    core = np.einsum("ijk,ia,jb,kc->abc", t, *bases, optimize=True)
    unfs = [mode_matricize(core, m) for m in (1, 2, 3)]
    best_facs, best_err, best_reg, best_restart = None, np.inf, False, None
    sweeps, ridged = [], []
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
        facs = [b.T @ f for b, f in zip(bases, facs)]
        grams = [f.T @ f for f in facs]
        regularized = False
        prev_fit = np.inf
        fit = np.inf
        sweep = 0
        for _ in range(max_iter):
            sweep += 1
            for m in range(3):
                i, j = (k for k in range(3) if k != m)
                gram = grams[i] * grams[j]
                kr = _khatri_rao(facs[i], facs[j])
                rhs = unfs[m] @ kr
                try:
                    facs[m] = np.linalg.solve(gram, rhs.T).T
                except np.linalg.LinAlgError:
                    ridge = 1e-12 * max(np.trace(gram) / rank, 1.0)
                    facs[m] = np.linalg.solve(gram + ridge * np.eye(rank), rhs.T).T
                    regularized = True
                if m < 2:
                    grams[m] = facs[m].T @ facs[m]
            # exact residual from the unfolded model, taken before the
            # rebalance invalidates the last khatri-rao product
            fit = np.linalg.norm(unfs[2] - facs[2] @ kr.T) / norm_t
            _rebalance(facs)
            grams = [f.T @ f for f in facs]
            if not np.isfinite(fit) or abs(prev_fit - fit) < tol * max(fit, 1e-300):
                break
            prev_fit = fit
        sweeps.append(sweep)
        ridged.append(regularized)
        facs = [b @ f for b, f in zip(bases, facs)]
        err = float(np.max(np.abs(_cp_reconstruct(facs) - t)))
        if np.isfinite(err) and err < best_err:
            best_facs, best_err, best_reg, best_restart = facs, err, regularized, restart
    return best_facs, best_err, best_reg, best_restart, sweeps, ridged


# --- L2 inner product by re-interpolation ---------------------------------------


def coeffs_to_vals(c: np.ndarray, axis: int = 0) -> np.ndarray:
    """Values on the second-kind Chebyshev grid from coefficients (one axis),
    the inverse of :func:`spectracube.cheb.vals_to_coeffs`."""
    c = np.asarray(c, dtype=float)
    n = c.shape[axis] - 1
    if n == 0:
        return c.copy()
    ch = c.copy()
    mid = [slice(None)] * c.ndim
    mid[axis] = slice(1, n)
    ch[tuple(mid)] /= 2.0
    return dct(ch, type=1, axis=axis)


def inner_product_3d_reference(u: np.ndarray, v: np.ndarray) -> float:
    """L2 inner product over the cube of two Chebyshev coefficient tensors.

    The product polynomial is re-interpolated at the summed degrees per mode
    (exact for polynomial times polynomial) by DCT-I passes and integrated
    with the tensorized Chebyshev weights.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    dims = tuple(u.shape[i] + v.shape[i] - 1 for i in range(3))
    up = np.zeros(dims)
    up[: u.shape[0], : u.shape[1], : u.shape[2]] = u
    vp = np.zeros(dims)
    vp[: v.shape[0], : v.shape[1], : v.shape[2]] = v
    for ax in range(3):
        up = coeffs_to_vals(up, axis=ax)
        vp = coeffs_to_vals(vp, axis=ax)
    pw = up * vp
    for ax in range(3):
        pw = vals_to_coeffs(pw, axis=ax)
    w = [cheb_integral_weights(d - 1) for d in dims]
    return float(np.einsum("ijk,i,j,k->", pw, *w))


# --- reduced right side, rebuilt per solve -------------------------------------------


def reduce_rhs_reference(d, f: np.ndarray, bset) -> np.ndarray:
    """Reduced right side of ``f`` for the operator ``d`` and the normalized
    boundary set ``bset``, rebuilt from scratch.

    Subtracts each boundary mode's data, carried through the operator, from
    ``f`` and keeps the interior block.  For boundary mode ``m`` the earlier
    modes act by their substituted matrices (leading columns zeroed), mode
    ``m`` by the leading ``nr[m]`` columns of its matrix and the later modes
    by their full ones.
    """
    nr = bset.row_counts()
    ltilde = [
        [mat - mat[:, :k] @ op.b for mat in mats]
        for mats, op, k in zip(d.mats, bset.ops, nr)
    ]
    for lts, k in zip(ltilde, nr):
        for lt in lts:
            lt[:, :k] = 0.0
    ftil = np.array(f, dtype=float)
    for r in range(d.rank):
        for op in bset.ops:
            if not np.any(op.g):
                continue
            m = op.mode - 1
            t = op.g
            for k in range(3):
                mat = ltilde[k][r] if k < m else d.mats[k][r]
                t = mode_mult(t, mat[:, : nr[m]] if k == m else mat, k + 1)
            ftil -= t
    return ftil[tuple(slice(w - n) for w, n in zip(ftil.shape, nr))].copy()


# --- GMRES with modified Gram-Schmidt ---------------------------------------------


def gmres_mgs_reference(op_a, precond, rhs, restart=15, tol=1e-12, max_outer=200):
    """Left-preconditioned restarted GMRES with the same stopping rule as
    ``gmres_solve``, its Arnoldi vectors a Python list of Fortran-order
    vectors orthogonalized one at a time by modified Gram-Schmidt.  Returns
    the solution tensor and the iteration count; raises ``RuntimeError``
    when it does not converge in ``max_outer`` restarts."""
    dims = rhs.shape
    prec = (lambda t: t) if precond is None else precond

    def mv(vec):
        return np.array(vectorize(prec(op_a(unvectorize(vec, dims)))))

    b = np.array(vectorize(prec(np.asarray(rhs, dtype=float))))
    beta0 = np.linalg.norm(b)
    x = np.zeros_like(b)
    r, res_now = b, beta0
    iters = 0
    for _outer in range(max_outer):
        if res_now <= tol * beta0:
            return unvectorize(x, dims), iters
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
            iters += 1
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
            if abs(gvec[k + 1]) <= tol * beta0 or hnorm == 0.0:
                break
            if k + 1 < restart:
                basis.append(w / hnorm)
        y = scipy.linalg.solve_triangular(h[:k_used, :k_used], gvec[:k_used])
        for j in range(k_used):
            x += y[j] * basis[j]
        r = b - mv(x)
        res_now = np.linalg.norm(r)
    if res_now <= tol * beta0:
        return unvectorize(x, dims), iters
    raise RuntimeError(f"reference GMRES did not converge in {max_outer} restarts")


# --- expression printing ---------------------------------------------------------


def print_expr(ast: ExprAst) -> str:
    """Canonical fully-parenthesized rendering; parse(print_expr(a)) == a
    up to offsets."""
    if isinstance(ast, Const):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        return f"(-{print_expr(ast.operand)})"
    if isinstance(ast, Call):
        return f"{ast.func}({print_expr(ast.arg)})"
    if isinstance(ast, BinOp):
        return f"({print_expr(ast.left)}{ast.op}{print_expr(ast.right)})"
    raise TypeError(f"not an expression node: {ast!r}")
