import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectracube.tensor3 import (
    ShapeError,
    dump_text,
    load_text,
    mode_matricize,
    mode_mult,
    mode_product_sum,
    unvectorize,
    vectorize,
)

rng = np.random.default_rng(20240811)


def linearized(dims):
    """Tensor whose entry (i,j,k) equals its canonical linear index."""
    d1, d2, d3 = dims
    t = np.empty(dims)
    for i in range(d1):
        for j in range(d2):
            for k in range(d3):
                t[i, j, k] = i + j * d1 + k * d1 * d2
    return t


def test_mode1_matricize_definition():
    t = linearized((2, 2, 2))
    m = mode_matricize(t, 1)
    npt.assert_array_equal(m, [[0, 2, 4, 6], [1, 3, 5, 7]])


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_matricize_refold_roundtrip_bit_exact(mode):
    t = rng.standard_normal((3, 4, 5))
    m = mode_matricize(t, mode)
    # columns run over the other two modes, the lower-numbered one fastest
    rest = [d for i, d in enumerate(t.shape) if i != mode - 1]
    back = np.moveaxis(np.reshape(m, (t.shape[mode - 1], *rest), order="F"), 0, mode - 1)
    assert np.array_equal(back, t)


def test_mode2_matricization_rows_match_loop_oracle():
    t = rng.standard_normal((3, 4, 5))
    m = mode_matricize(t, 2)
    # column ordering: mode-1 index fastest among the remaining modes
    for r in range(4):
        for i in range(3):
            for k in range(5):
                assert m[r, i + k * 3] == t[i, r, k]


def test_mode_mult_identity():
    t = rng.standard_normal((4, 3, 2))
    npt.assert_array_equal(mode_mult(t, np.eye(4), 1), t)


def test_mode_mult_distinct_modes_commute():
    t = rng.standard_normal((3, 3, 3))
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    lhs = mode_mult(mode_mult(t, a, 1), b, 2)
    rhs = mode_mult(mode_mult(t, b, 2), a, 1)
    npt.assert_allclose(lhs, rhs, rtol=1e-13)


def test_mode_mult_against_loop_oracle():
    t = rng.standard_normal((2, 3, 4))
    m = rng.standard_normal((5, 3))
    got = mode_mult(t, m, 2)
    want = np.zeros((2, 5, 4))
    for i in range(2):
        for r in range(5):
            for k in range(4):
                want[i, r, k] = sum(m[r, j] * t[i, j, k] for j in range(3))
    npt.assert_allclose(got, want, atol=1e-14)


def test_mode_mult_linearity():
    t1 = rng.standard_normal((3, 3, 3))
    t2 = rng.standard_normal((3, 3, 3))
    m1 = rng.standard_normal((4, 3))
    m2 = rng.standard_normal((4, 3))
    a, b = 0.7, -1.3
    npt.assert_allclose(
        mode_mult(a * t1 + b * t2, m1, 1),
        a * mode_mult(t1, m1, 1) + b * mode_mult(t2, m1, 1),
        atol=1e-13,
    )
    npt.assert_allclose(
        mode_mult(t1, a * m1 + b * m2, 1),
        a * mode_mult(t1, m1, 1) + b * mode_mult(t1, m2, 1),
        atol=1e-13,
    )


def test_mode_mult_shape_error_names_mode_and_sizes():
    t = rng.standard_normal((2, 3, 4))
    with pytest.raises(ShapeError, match=r"mode-2.*3 columns.*\(5, 4\)"):
        mode_mult(t, rng.standard_normal((5, 4)), 2)


def kron3_matvec(a, b, c, t):
    """``(C (x) B (x) A) vec(t)`` as a chain of three mode products."""
    return vectorize(mode_mult(mode_mult(mode_mult(t, a, 1), b, 2), c, 3))


def test_kron3_identity_is_vectorize():
    t = rng.standard_normal((2, 3, 2))
    npt.assert_array_equal(
        kron3_matvec(np.eye(2), np.eye(3), np.eye(2), t), vectorize(t)
    )


def test_kron3_all_ones():
    t = np.ones((2, 2, 2))
    m = np.ones((2, 2))
    npt.assert_allclose(kron3_matvec(m, m, m, t), np.full(8, 8.0))


def test_kron3_matches_explicit_kronecker():
    t = rng.standard_normal((3, 3, 3))
    a, b, c = (rng.standard_normal((3, 3)) for _ in range(3))
    explicit = np.kron(c, np.kron(b, a)) @ vectorize(t)
    npt.assert_allclose(kron3_matvec(a, b, c, t), explicit, rtol=1e-13, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    d1=st.integers(1, 4), d2=st.integers(1, 4), d3=st.integers(1, 4),
    seed=st.integers(0, 2**31),
)
def test_vec_kron_identity_property(d1, d2, d3, seed):
    # total size <= 64 by construction
    r = np.random.default_rng(seed)
    t = r.standard_normal((d1, d2, d3))
    a = r.standard_normal((d1, d1))
    b = r.standard_normal((d2, d2))
    c = r.standard_normal((d3, d3))
    lhs = vectorize(mode_mult(mode_mult(mode_mult(t, a, 1), b, 2), c, 3))
    rhs = np.kron(c, np.kron(b, a)) @ vectorize(t)
    scale = max(np.max(np.abs(rhs)), 1.0)
    npt.assert_allclose(lhs, rhs, atol=1e-13 * scale)


def kron_mode_mult(t, m, mode):
    """Oracle: the mode product as the explicit Kronecker matrix with
    identities in the other modes, applied to ``vec(t)``."""
    mats = [np.eye(d) for d in t.shape]
    mats[mode - 1] = m
    dims = list(t.shape)
    dims[mode - 1] = m.shape[0]
    return unvectorize(np.kron(mats[2], np.kron(mats[1], mats[0])) @ vectorize(t), dims)


def laid_out(values, layout):
    """``values`` (an order-3 tensor) held in the given memory layout."""
    d1, d2, d3 = values.shape
    if layout == "C":
        return np.ascontiguousarray(values)
    if layout == "F":
        # as GMRES's unvectorize returns them
        return unvectorize(vectorize(values), values.shape)
    if layout == "strided":
        big = np.zeros((2 * d1, d2, d3 + 1))
        big[::2, :, :d3] = values
        return big[::2, :, :d3]
    # a transposed view: modes 1 and 2 swapped in memory
    return np.ascontiguousarray(values.transpose(1, 0, 2)).transpose(1, 0, 2)


LAYOUTS = ["C", "F", "strided", "transposed"]


@settings(max_examples=150, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    rows=st.integers(1, 6),
    mode=st.sampled_from([1, 2, 3]),
    layout=st.sampled_from(LAYOUTS),
    mat_layout=st.sampled_from(["C", "F", "slice"]),
    seed=st.integers(0, 2**31),
)
def test_mode_mult_matches_kronecker_oracle_in_every_layout(
    dims, rows, mode, layout, mat_layout, seed
):
    # rows 1 and 2 are the shapes of the boundary matrices b
    r = np.random.default_rng(seed)
    values = r.standard_normal(dims)
    t = laid_out(values, layout)
    cols = dims[mode - 1]
    m = r.standard_normal((rows, cols + 1))[:, 1:] if mat_layout == "slice" else (
        np.asarray(r.standard_normal((rows, cols)), order=mat_layout)
    )
    before = t.copy()
    got = mode_mult(t, m, mode)
    want = kron_mode_mult(values, m, mode)
    assert got.shape == want.shape
    npt.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * max(np.max(np.abs(want)), 1.0))
    assert np.array_equal(t, before)
    # callers update returned tensors in place (GMRES's Arnoldi loop)
    assert not np.shares_memory(got, t)
    if t.flags.f_contiguous and not t.flags.c_contiguous:
        assert got.flags.f_contiguous
    else:
        assert got.flags.c_contiguous


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("mode", [1, 2, 3])
def test_identity_product_is_a_fresh_tensor(layout, mode):
    t = laid_out(rng.standard_normal((3, 4, 2)), layout)
    got = mode_mult(t, np.eye(t.shape[mode - 1]), mode)
    assert np.array_equal(got, t) and not np.shares_memory(got, t)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    rank=st.integers(1, 4),
    layout=st.sampled_from(LAYOUTS),
    seed=st.integers(0, 2**31),
)
def test_mode_product_sum_is_the_sum_of_chained_products(dims, rank, layout, seed):
    r = np.random.default_rng(seed)
    values = r.standard_normal(dims)
    mats = [[r.standard_normal((d, d)) for _ in range(rank)] for d in dims]
    got = mode_product_sum(laid_out(values, layout), mats)
    want = sum(
        np.kron(mats[2][k], np.kron(mats[1][k], mats[0][k])) @ vectorize(values)
        for k in range(rank)
    )
    npt.assert_allclose(vectorize(got), want, rtol=1e-13, atol=1e-13 * max(np.max(np.abs(want)), 1.0))


def test_unvectorize_inverts_vectorize():
    t = rng.standard_normal((3, 2, 5))
    assert np.array_equal(unvectorize(vectorize(t), t.shape), t)


# --- text dump ----------------------------------------------------------


def test_dump_roundtrip_bit_exact():
    t = rng.standard_normal((3, 2, 4)) * 1e-7
    back = load_text(dump_text(t))
    assert np.array_equal(back, t)


def test_dump_header_and_order():
    t = linearized((2, 2, 1))
    text = dump_text(t)
    lines = text.strip().splitlines()
    assert lines[0] == "tensor3 2 2 1"
    npt.assert_array_equal([float(v) for v in lines[1:]], [0, 1, 2, 3])


def test_load_rejects_malformed():
    with pytest.raises(ValueError):
        load_text("tensor3 2 2\n1\n")
    with pytest.raises(ValueError):
        load_text("tensor3 1 1 2\n1.0\n")
    with pytest.raises(ValueError):
        load_text("tensor3 1 1 1\nnan\n")
