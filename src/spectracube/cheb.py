"""Chebyshev and ultraspherical basis machinery.

Sampling on the tensor grid of second-kind Chebyshev points
(``cheb_grid_values``, one non-finite check for every caller),
interpolation from those samples (DCT-I based), Clenshaw-style evaluation,
the sparse differentiation / basis-conversion / multiplication matrices
acting on coefficient vectors, and exact integration of Chebyshev series
and of products of two series (Gram matrices).

Conventions: coefficient vectors are 0-indexed, length ``n + 1`` for degree
``n``.  ``diff_matrix(lam, n)`` maps Chebyshev coefficients to coefficients
of the ``lam``-th derivative in the ultraspherical family with parameter
``lam``; ``conv_matrix(0, n)`` maps Chebyshev to parameter-1 coefficients and
``conv_matrix(lam, n)`` raises the parameter by one.

The per-degree constructors that one solver set-up calls many times, term
by term and mode by mode, are memoized: ``conv_chain``, ``diff_matrix``,
``cheb_gram`` and ``values_to_output``; each matrix is built once.  The
constructors reached only through these (``conv_matrix``,
``cheb_integral_weights``) or through ``mult_matrix_ultra``
(``shift_matrix_ultra``) are not.  A memoized result is shared and
read-only: a caller that writes into one gets a ``ValueError``, so it must
copy first.  ``cheb_points`` is not memoized, because its arrays reach user
callables (right sides, face data, exact solutions), which may write into
their inputs.
"""

from __future__ import annotations

import functools
from math import factorial

import numpy as np
import numpy.polynomial.chebyshev as npcheb
from scipy.fft import dct

from .tensor3 import mode_products

# Entries kept per memoized constructor.  One set-up uses a few per degree;
# an 81x81 matrix is 52 KB, so a full cache at n=80 holds under 2 MB.
CACHE_SIZE = 32


def _memoized(build):
    """``build`` behind a bounded LRU cache of its results, each made
    read-only before it is cached (``cache_clear`` empties the cache)."""

    def frozen(*args, **kwargs):
        out = build(*args, **kwargs)
        out.flags.writeable = False
        return out

    return functools.lru_cache(maxsize=CACHE_SIZE)(functools.wraps(build)(frozen))


def cheb_points(n: int) -> np.ndarray:
    """Second-kind Chebyshev points cos(j*pi/n), j = 0..n; {0} for n = 0."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if n == 0:
        return np.zeros(1)
    return np.cos(np.pi * np.arange(n + 1) / n)


def vals_to_coeffs(vals: np.ndarray, axis: int = 0) -> np.ndarray:
    """Chebyshev coefficients from values on the second-kind grid (one axis)."""
    vals = np.asarray(vals, dtype=float)
    n = vals.shape[axis] - 1
    if n == 0:
        return vals.copy()
    c = dct(vals, type=1, axis=axis) / n
    edge = [slice(None)] * vals.ndim
    edge[axis] = slice(0, None, n)
    c[tuple(edge)] /= 2.0
    return c


def cheb_interp_1d(f, n: int) -> np.ndarray:
    """Degree-n Chebyshev interpolant of a scalar function on [-1, 1]."""
    x = cheb_points(n)
    vals = np.asarray(f(x), dtype=float)
    if vals.shape != x.shape:
        vals = np.array([f(xi) for xi in x], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("function returned non-finite samples on the Chebyshev grid")
    return vals_to_coeffs(vals)


def cheb_grid_values(f, n1: int, n2: int, n3: int) -> np.ndarray:
    """``f(x, y, z)`` on the tensor grid of second-kind Chebyshev points.

    ``f`` must accept broadcast ndarray arguments.  The result has shape
    ``(n1+1, n2+1, n3+1)``; it is a read-only broadcast view when ``f``
    returns fewer values, such as a scalar.  Non-finite samples raise
    ``ValueError``.
    """
    x, y, z = cheb_points(n1), cheb_points(n2), cheb_points(n3)
    vals = np.asarray(
        f(x[:, None, None], y[None, :, None], z[None, None, :]), dtype=float
    )
    grid = np.broadcast_to(vals, (n1 + 1, n2 + 1, n3 + 1))
    if not np.all(np.isfinite(vals)):
        raise ValueError("function returned non-finite samples on the Chebyshev grid")
    return grid


def cheb_interp_3d(f, n1: int, n2: int, n3: int) -> np.ndarray:
    """Tensorized interpolant of ``f(x, y, z)``; exact at all grid points.

    ``f`` must accept broadcast ndarray arguments.
    """
    vals = cheb_grid_values(f, n1, n2, n3)
    for ax in range(3):
        vals = vals_to_coeffs(vals, axis=ax)
    return vals


# Points per block in eval_cheb_3d.  Swept at 1,000 points on a Xeon with
# 4 MiB of L2 per core, one BLAS thread (median ms, unblocked -> 128-point
# blocks): n=8 0.21 -> 0.24, n=20 1.04 -> 0.81, n=30 2.24 -> 1.84, n=45
# 5.33 -> 4.78, n=80 27.5 -> 20.5, n=120 86.9 -> 61.7.  64-point blocks
# were slower (23.0 and 69.0 ms at n=80 and 120); 256-point blocks were no
# faster over three sweeps (19.7-23.5 and 61.3-72.2 ms) and hold twice the
# temporary.
EVAL_BLOCK = 128


def eval_cheb_3d(u: np.ndarray, x, y, z):
    """Evaluate a coefficient tensor at points given by broadcastable
    coordinate arrays (or scalars).

    The coordinates are broadcast against each other first; the result has
    the broadcast shape, and is a float when all three are scalars.
    Shapes that do not broadcast raise ``ValueError``.  The points are
    evaluated in blocks of ``EVAL_BLOCK`` (128): one GEMM of the block's
    mode-1 Vandermonde rows with ``u`` unfolded, into one reused
    ``(128, (n2+1)(n3+1))`` temporary (6.7 MB at n2 = n3 = 80, whatever
    the number of points), then two per-point contractions.  Points
    outside [-1, 1]^3 are evaluated as-is (polynomial extrapolation).
    """
    u = np.asarray(u, dtype=float)
    coords = [np.asarray(c, dtype=float) for c in (x, y, z)]
    try:
        coords = np.broadcast_arrays(*coords)
    except ValueError:
        shapes = ", ".join(str(c.shape) for c in coords)
        raise ValueError(f"point coordinates of shapes {shapes} do not broadcast") from None
    shape = coords[0].shape
    n1, n2, n3 = u.shape
    tx, ty, tz = (
        npcheb.chebvander(c.ravel(), m - 1) for c, m in zip(coords, u.shape)
    )
    flat = u.reshape(n1, n2 * n3)
    out = np.empty(tx.shape[0])
    # allocated once: a fresh block-sized array per block costs page faults
    slab = np.empty((min(EVAL_BLOCK, out.size), n2 * n3))
    for start in range(0, out.size, EVAL_BLOCK):
        blk = slice(start, start + EVAL_BLOCK)
        rows = tx[blk]
        a = np.matmul(rows, flat, out=slab[: len(rows)]).reshape(-1, n2, n3)
        b = np.einsum("pjk,pj->pk", a, ty[blk])
        out[blk] = np.einsum("pk,pk->p", b, tz[blk])
    return out.reshape(shape) if shape else float(out[0])


@_memoized
def diff_matrix(lam: int, n: int) -> np.ndarray:
    """Sparse differentiation matrix: Chebyshev coefficients to the
    parameter-``lam`` coefficients of the ``lam``-th derivative.

    Entries ``(k, k + lam) = 2^(lam-1) (lam-1)! (k + lam)``; all-zero when
    ``lam > n`` (the derivative annihilates the whole space).
    """
    if lam < 1:
        raise ValueError(f"differentiation order must be >= 1, got {lam}")
    d = np.zeros((n + 1, n + 1))
    pref = 2.0 ** (lam - 1) * factorial(lam - 1)
    k = np.arange(0, n + 1 - lam)
    d[k, k + lam] = pref * (k + lam)
    return d


def conv_matrix(lam: int, n: int) -> np.ndarray:
    """Basis-raising matrix: Chebyshev -> parameter 1 for ``lam = 0``,
    parameter ``lam`` -> ``lam + 1`` for ``lam >= 1``.  Upper triangular,
    bandwidth 2.
    """
    if lam < 0:
        raise ValueError(f"basis parameter must be >= 0, got {lam}")
    s = np.zeros((n + 1, n + 1))
    k = np.arange(n + 1)
    if lam == 0:
        s[k, k] = 0.5
        s[0, 0] = 1.0
        s[k[:-2], k[:-2] + 2] = -0.5
    else:
        s[k, k] = lam / (lam + k)
        s[k[:-2], k[:-2] + 2] = -lam / (lam + k[:-2] + 2)
    return s


@_memoized
def conv_chain(lam_from: int, lam_to: int, n: int) -> np.ndarray:
    """Product of conversion matrices raising the parameter from
    ``lam_from`` to ``lam_to`` (identity when equal)."""
    m = np.eye(n + 1)
    for lam in range(lam_from, lam_to):
        m = conv_matrix(lam, n) @ m
    return m


@_memoized
def values_to_output(order: int, n: int) -> np.ndarray:
    """Values on the degree-``n`` Chebyshev grid to parameter-``order``
    coefficients: the DCT-I values-to-coefficients map followed by the
    conversion from Chebyshev to the parameter-``order`` basis."""
    return conv_chain(0, order, n) @ vals_to_coeffs(np.eye(n + 1))


def mult_matrix_cheb(v: np.ndarray) -> np.ndarray:
    """Multiplication matrix in the Chebyshev basis: half Toeplitz plus a
    Hankel part with zeroed first row; ``mult_matrix_cheb(v) @ u`` are the
    coefficients of the degree-truncated product ``v * u``."""
    v = np.asarray(v, dtype=float)
    n = len(v) - 1
    i = np.arange(n + 1)
    toep = v[np.abs(i[:, None] - i[None, :])]
    toep[i, i] = 2.0 * v[0]
    hank = np.zeros((n + 1, n + 1))
    rows, cols = np.nonzero((i[:, None] + i[None, :] <= n) & (i[:, None] >= 1))
    hank[rows, cols] = v[rows + cols]
    return 0.5 * (toep + hank)


def shift_matrix_ultra(lam: int, n: int) -> np.ndarray:
    """Tridiagonal multiplication-by-x matrix in the parameter-``lam`` basis."""
    m = np.zeros((n + 1, n + 1))
    k = np.arange(n + 1)
    m[k[:-1], k[:-1] + 1] = (k[:-1] + 2 * lam) / (2.0 * (lam + k[:-1] + 1))
    m[k[1:], k[1:] - 1] = k[1:] / (2.0 * (lam + k[1:] - 1))
    return m


def mult_matrix_ultra(lam: int, v: np.ndarray) -> np.ndarray:
    """Multiplication matrix in the parameter-``lam`` basis.

    ``v`` holds the multiplier's coefficients in the same basis.  Built from
    the matrix three-term recurrence seeded by the identity and twice-lambda
    times the shift matrix, stopped after the last non-zero entry of ``v``.
    """
    if lam < 1:
        raise ValueError(f"basis parameter must be >= 1, got {lam}")
    v = np.asarray(v, dtype=float)
    n = len(v) - 1
    last = max(np.flatnonzero(v), default=0)
    shift = shift_matrix_ultra(lam, n)
    m_prev = np.eye(n + 1)
    out = v[0] * m_prev
    if last == 0:
        return out
    m_cur = 2.0 * lam * shift
    out = out + v[1] * m_cur
    for i in range(last - 1):
        m_next = (2.0 * (i + lam + 1) * (shift @ m_cur) - (i + 2 * lam) * m_prev) / (i + 2)
        out = out + v[i + 2] * m_next
        m_prev, m_cur = m_cur, m_next
    return out


def cheb_integral_weights(n: int) -> np.ndarray:
    """Integrals of T_k over [-1, 1]: 2/(1 - k^2) for even k, zero for odd."""
    k = np.arange(n + 1)
    w = np.zeros(n + 1)
    even = k % 2 == 0
    w[even] = 2.0 / (1.0 - k[even] ** 2)
    return w


def cheb_integral(c: np.ndarray) -> float:
    """Exact integral of a Chebyshev series over [-1, 1]."""
    c = np.asarray(c, dtype=float)
    return float(c @ cheb_integral_weights(len(c) - 1))


@_memoized
def cheb_gram(m: int, n: int) -> np.ndarray:
    """``G[i, j]`` = integral of ``T_i T_j`` over [-1, 1], for ``i < m``, ``j < n``.

    From ``T_i T_j = (T_{i+j} + T_{|i-j|}) / 2``.
    """
    w = cheb_integral_weights(max(m + n - 2, 0))
    i, j = np.arange(m)[:, None], np.arange(n)[None, :]
    return 0.5 * (w[i + j] + w[np.abs(i - j)])


def inner_product_3d(u: np.ndarray, v: np.ndarray) -> float:
    """L2 inner product over the cube of two Chebyshev coefficient tensors.

    ``<u, v> = sum u_abc v_ijk G1[a, i] G2[b, j] G3[c, k]`` with the per-mode
    Gram matrices of :func:`cheb_gram`, applied as ``v x1 G1 x2 G2 x3 G3``;
    exact for polynomials.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    grams = [cheb_gram(a, b) for a, b in zip(u.shape, v.shape)]
    return float(np.vdot(u, mode_products(v, grams)))


def l2_norm_3d(u: np.ndarray) -> float:
    return float(np.sqrt(max(inner_product_3d(u, u), 0.0)))
