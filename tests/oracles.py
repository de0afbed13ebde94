"""Test oracles for ultraspherical series: direct evaluation by the
three-term recurrence, independent of the library's conversion matrices."""

import numpy as np
import numpy.polynomial.chebyshev as npcheb


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
