"""Dense order-3 tensor arithmetic: matricization, mode products, dumps.

A coefficient tensor is a ``float64`` ndarray of shape ``(d1, d2, d3)``.
Its canonical linearization is mode-1 fastest, ``index = i + j*d1 + k*d1*d2``,
i.e. Fortran ravel order.  Under this convention the reshaped system matrix
is ``Lz (x) Ly (x) Lx`` with ``(x)`` the Kronecker product, and
``vec(t x1 A x2 B x3 C) == (C (x) B (x) A) vec(t)``.

A mode product is one ``np.matmul`` on a copy-free view: the ``(d1, d2*d3)``
unfolding for mode 1, the ``(d1*d2, d3)`` unfolding for mode 3, and a
batched product over the outer axis' slices for mode 2.  Layout contract of
``mode_mult``: the input may have any strides (a non-contiguous one is
copied once); the result is F-contiguous when the input is (and is not also
C-contiguous), C-contiguous otherwise, and never a view of the input, so a
caller may update it in place.

All operations are pure functions on immutable inputs; no shared state.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Dimension mismatch between a tensor and an operand."""


def _as_tensor3(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.ndim != 3:
        raise ShapeError(f"expected an order-3 tensor, got ndim={t.ndim}")
    return t


def mode_matricize(t: np.ndarray, mode: int) -> np.ndarray:
    """Unfold the mode-``mode`` fibers of ``t`` into the columns of a matrix.

    Column ordering follows the canonical linearization of the remaining
    modes (the lower-numbered one fastest).
    """
    t = _as_tensor3(t)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    ax = mode - 1
    return np.reshape(np.moveaxis(t, ax, 0), (t.shape[ax], -1), order="F")


def mode_mult(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` product: multiply ``m`` against every mode fiber.

    Satisfies ``mode_matricize(mode_mult(t, m, mode), mode)
    == m @ mode_matricize(t, mode)``.  The result's layout follows the
    contract in the module docstring.
    """
    t = _as_tensor3(t)
    m = np.asarray(m, dtype=float)
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    ax = mode - 1
    if m.ndim != 2 or m.shape[1] != t.shape[ax]:
        raise ShapeError(
            f"mode-{mode} product needs a matrix with {t.shape[ax]} columns, "
            f"got shape {m.shape} against tensor dims {t.shape}"
        )
    # an F-contiguous tensor is the C-contiguous transpose with the modes reversed
    if t.flags.f_contiguous and not t.flags.c_contiguous:
        return _mode_mult_c(t.T, m, 2 - ax).T
    return _mode_mult_c(np.ascontiguousarray(t), m, ax)


def _mode_mult_c(t: np.ndarray, m: np.ndarray, ax: int) -> np.ndarray:
    """Mode product along axis ``ax`` of a C-contiguous ``t``, C-contiguous out."""
    d1, d2, d3 = t.shape
    r = m.shape[0]
    if ax == 0:
        return np.matmul(m, t.reshape(d1, d2 * d3)).reshape(r, d2, d3)
    if ax == 1:
        # one product per slice t[i]
        return np.matmul(m, t)
    # OpenBLAS runs this tall product up to twice as slowly at n <= 30 when
    # the right factor is a transposed view; the copy costs O(n^2)
    return np.matmul(t.reshape(d1 * d2, d3), np.ascontiguousarray(m.T)).reshape(d1, d2, r)


def mode_products(t: np.ndarray, mats) -> np.ndarray:
    """``t x1 mats[0] x2 mats[1] x3 mats[2]``, mode 1 first."""
    for mode, m in enumerate(mats, start=1):
        t = mode_mult(t, m, mode)
    return t


def mode_product_sum(t: np.ndarray, mats) -> np.ndarray:
    """``sum_r t x1 mats[0][r] x2 mats[1][r] x3 mats[2][r]``: a rank-R
    operator in the per-mode layout ``mats[mode][r]`` applied to ``t``."""
    t = _as_tensor3(t)
    out = np.zeros_like(t)
    for term in zip(*mats):
        out += mode_products(t, term)
    return out


def vectorize(t: np.ndarray) -> np.ndarray:
    """Flatten in the canonical (mode-1 fastest) linearization order."""
    return _as_tensor3(t).ravel(order="F")


def unvectorize(v: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.size != dims[0] * dims[1] * dims[2]:
        raise ShapeError(f"vector of length {v.size} does not fold into dims {dims}")
    return v.reshape(dims, order="F")


def dump_text(t: np.ndarray) -> str:
    """Serialize in the interchange format: header then one scalar per line."""
    t = _as_tensor3(t)
    lines = ["tensor3 %d %d %d" % t.shape]
    lines.extend("%.17e" % v for v in vectorize(t))
    return "\n".join(lines) + "\n"


def load_text(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("tensor3 "):
        raise ValueError("not a tensor3 dump: missing 'tensor3 d1 d2 d3' header")
    try:
        dims = tuple(int(tok) for tok in lines[0].split()[1:])
        if len(dims) != 3:
            raise ValueError
    except ValueError:
        raise ValueError(f"malformed tensor3 header: {lines[0]!r}") from None
    vals = np.array([float(ln) for ln in lines[1:]])
    if vals.size != dims[0] * dims[1] * dims[2]:
        raise ValueError(
            f"tensor3 dump has {vals.size} values, header says {dims[0] * dims[1] * dims[2]}"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError("tensor3 dump contains non-finite values")
    return unvectorize(vals, dims)
