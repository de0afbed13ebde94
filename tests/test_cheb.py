import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    coeffs_to_vals,
    eval_cheb_3d_reference,
    eval_ultra_1d,
    inner_product_3d_reference,
    mult_matrix_ultra_reference,
)
import spectracube.cheb as cheb
from spectracube.cheb import (
    vals_to_coeffs,
    cheb_gram,
    cheb_integral,
    cheb_grid_values,
    cheb_integral_weights,
    cheb_interp_1d,
    cheb_interp_3d,
    cheb_points,
    conv_chain,
    conv_matrix,
    diff_matrix,
    eval_cheb_3d,
    inner_product_3d,
    l2_norm_3d,
    mult_matrix_cheb,
    mult_matrix_ultra,
    shift_matrix_ultra,
    values_to_output,
)

rng = np.random.default_rng(7)


def cheb_eval(c, x):
    return np.polynomial.chebyshev.chebval(x, c)


# --- grid points ---------------------------------------------------------


def test_points_small_cases():
    npt.assert_allclose(cheb_points(1), [1.0, -1.0])
    npt.assert_allclose(cheb_points(2), [1.0, 0.0, -1.0], atol=1e-16)
    npt.assert_array_equal(cheb_points(0), [0.0])


def test_points_symmetry():
    x = cheb_points(8)
    npt.assert_allclose(x, -x[::-1], atol=1e-15)


# --- interpolation --------------------------------------------------------


def test_interp_reproduces_basis_polynomial():
    c = cheb_interp_1d(lambda x: cheb_eval(np.eye(6)[3], x), 5)
    npt.assert_allclose(c, np.eye(6)[3], atol=1e-13)


def test_interp_x_squared():
    npt.assert_allclose(cheb_interp_1d(lambda x: x**2, 2), [0.5, 0.0, 0.5], atol=1e-15)


def test_interp_exp_matches_function():
    c = cheb_interp_1d(np.exp, 20)
    xs = rng.uniform(-1, 1, 100)
    npt.assert_allclose(cheb_eval(c, xs), np.exp(xs), atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 40), seed=st.integers(0, 2**31))
def test_transform_roundtrip_property(n, seed):
    c = np.random.default_rng(seed).standard_normal(n + 1)
    back = vals_to_coeffs(coeffs_to_vals(c))
    npt.assert_allclose(back, c, atol=1e-12 * max(np.max(np.abs(c)), 1.0))


def test_interp_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        cheb_interp_1d(lambda x: np.where(x > 0.5, np.inf, x), 4)


def test_interp3_constant():
    t = cheb_interp_3d(lambda x, y, z: np.ones(np.broadcast(x, y, z).shape), 3, 3, 3)
    want = np.zeros((4, 4, 4))
    want[0, 0, 0] = 1.0
    npt.assert_allclose(t, want, atol=1e-15)


def test_interp3_reproduces_tensor_basis():
    def f(x, y, z):
        return cheb_eval(np.eye(4)[1], x) * cheb_eval(np.eye(4)[2], y) * cheb_eval(np.eye(4)[3], z)

    t = cheb_interp_3d(f, 3, 3, 3)
    want = np.zeros((4, 4, 4))
    want[1, 2, 3] = 1.0
    npt.assert_allclose(t, want, atol=1e-13)


def test_interp3_sin_product_evaluates():
    f = lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
    t = cheb_interp_3d(f, 20, 20, 20)
    pts = rng.uniform(-1, 1, (1000, 3))
    got = eval_cheb_3d(t, pts[:, 0], pts[:, 1], pts[:, 2])
    npt.assert_allclose(got, f(pts[:, 0], pts[:, 1], pts[:, 2]), atol=1e-11)


def _grid_copy(f, n1, n2, n3):
    x, y, z = cheb_points(n1), cheb_points(n2), cheb_points(n3)
    vals = np.asarray(f(x[:, None, None], y[None, :, None], z[None, None, :]), dtype=float)
    return np.broadcast_to(vals, (n1 + 1, n2 + 1, n3 + 1)).copy()


@pytest.mark.parametrize(
    "f",
    [
        lambda x, y, z: np.exp(x) * np.cos(2 * y) + z**3,  # full-size samples
        lambda x, y, z: np.sin(3 * y),  # broadcast along x and z
        lambda x, y, z: 2.5,  # a scalar
    ],
    ids=["full", "one-variable", "scalar"],
)
def test_interp3_equals_the_transform_of_an_explicit_copy(f):
    # the DCT reads the grid values as a (possibly broadcast) view; copying
    # them first must not change a bit
    for dims in [(9, 7, 5), (0, 4, 1)]:
        want = _grid_copy(f, *dims)
        for ax in range(3):
            want = vals_to_coeffs(want, axis=ax)
        assert np.array_equal(cheb_interp_3d(f, *dims), want)


def test_grid_values_broadcast_without_a_copy():
    vals = cheb_grid_values(lambda x, y, z: np.cos(y), 6, 4, 3)
    assert vals.shape == (7, 5, 4)
    assert not vals.flags.writeable
    npt.assert_array_equal(vals, np.broadcast_to(np.cos(cheb_points(4))[None, :, None], (7, 5, 4)))
    npt.assert_array_equal(cheb_grid_values(lambda x, y, z: -1.0, 2, 0, 1), -np.ones((3, 1, 2)))


@pytest.mark.parametrize(
    "f",
    [lambda x, y, z: np.where(y > 0.5, np.nan, x + z), lambda x, y, z: np.inf],
    ids=["nan-on-the-grid", "scalar-inf"],
)
def test_grid_values_reject_nonfinite_samples(f):
    for sample in (cheb_grid_values, cheb_interp_3d):
        with pytest.raises(
            ValueError, match="^function returned non-finite samples on the Chebyshev grid$"
        ):
            sample(f, 4, 4, 4)


# --- evaluation -----------------------------------------------------------


def test_eval_constant_tensor():
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = 4.5
    assert eval_cheb_3d(t, 0.3, -0.8, 0.1) == pytest.approx(4.5, abs=1e-15)


def test_eval_linear_in_x():
    t = np.zeros((2, 1, 1))
    t[1, 0, 0] = 1.0
    xs = rng.uniform(-1, 1, 10)
    npt.assert_allclose(eval_cheb_3d(t, xs, np.zeros(10), np.zeros(10)), xs, atol=1e-15)


def test_eval_matches_naive_cosine_sum():
    t = rng.standard_normal((4, 4, 4))
    pts = rng.uniform(-1, 1, (50, 3))
    got = eval_cheb_3d(t, pts[:, 0], pts[:, 1], pts[:, 2])

    def naive(x, y, z):
        tot = 0.0
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    tot += (
                        t[i, j, k]
                        * np.cos(i * np.arccos(x))
                        * np.cos(j * np.arccos(y))
                        * np.cos(k * np.arccos(z))
                    )
        return tot

    want = [naive(*p) for p in pts]
    npt.assert_allclose(got, want, atol=1e-12)


def _assert_matches_reference(got, t, x, y, z):
    want = eval_cheb_3d_reference(t, x, y, z)
    npt.assert_allclose(np.ravel(got), want, rtol=1e-13, atol=1e-14 * np.sum(np.abs(t)))


@pytest.mark.parametrize("count", [0, 1, 127, 128, 129, 1000])
def test_eval_blocks_match_the_unblocked_reference(count):
    t = rng.standard_normal((12, 7, 9))
    pts = rng.uniform(-1, 1, (count, 3)).T
    got = eval_cheb_3d(t, *pts)
    assert got.shape == (count,)
    _assert_matches_reference(got, t, *pts)


@pytest.mark.parametrize("shape", [(6, 41, 1), (81, 3, 17), (1, 1, 1), (1, 20, 2)])
def test_eval_anisotropic_tensor_matches_the_unblocked_reference(shape):
    t = rng.standard_normal(shape)
    pts = rng.uniform(-1, 1, (300, 3)).T
    _assert_matches_reference(eval_cheb_3d(t, *pts), t, *pts)


def test_eval_scalar_point_is_a_float():
    t = rng.standard_normal((5, 4, 3))
    got = eval_cheb_3d(t, 0.3, -0.2, 0.5)
    assert isinstance(got, float)
    _assert_matches_reference(got, t, 0.3, -0.2, 0.5)


@pytest.mark.parametrize("scalar_modes", [(1, 2), (0, 2), (0, 1), (1,)])
def test_eval_broadcasts_scalars_against_arrays_across_blocks(scalar_modes):
    # more points than one block: a length-1 Vandermonde row sliced per
    # block would be empty after the first
    t = rng.standard_normal((6, 8, 5))
    coords = [rng.uniform(-1, 1, 300) for _ in range(3)]
    for mode in scalar_modes:
        coords[mode] = float(rng.uniform(-1, 1))
    got = eval_cheb_3d(t, *coords)
    assert got.shape == (300,)
    _assert_matches_reference(got, t, *coords)


def test_eval_keeps_the_broadcast_shape_of_nd_points():
    t = rng.standard_normal((5, 6, 7))
    x = rng.uniform(-1, 1, (3, 100))
    y = rng.uniform(-1, 1, 100)
    got = eval_cheb_3d(t, x, y, -0.4)
    assert got.shape == (3, 100)
    _assert_matches_reference(got, t, x.ravel(), np.tile(y, 3), -0.4)


def test_eval_rejects_coordinates_that_do_not_broadcast():
    t = rng.standard_normal((3, 3, 3))
    with pytest.raises(ValueError, match=r"shapes \(3,\), \(4,\), \(\) do not broadcast"):
        eval_cheb_3d(t, np.zeros(3), np.zeros(4), 0.0)


def test_eval_temporary_is_bounded_by_one_block():
    # one step over 1,000 points would hold a 1000 x 81 x 81 temporary (52 MB)
    t = rng.standard_normal((81, 81, 81))
    pts = rng.uniform(-1, 1, (1000, 3)).T
    tracemalloc.start()
    try:
        eval_cheb_3d(t, *pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# --- differentiation matrices ----------------------------------------------


def test_diff_matrix_first_order_entries():
    d = diff_matrix(1, 3)
    want = np.zeros((4, 4))
    want[0, 1], want[1, 2], want[2, 3] = 1.0, 2.0, 3.0
    npt.assert_array_equal(d, want)


def test_diff_matrix_second_order_entries():
    d = diff_matrix(2, 3)
    want = np.zeros((4, 4))
    want[0, 2], want[1, 3] = 4.0, 6.0
    npt.assert_array_equal(d, want)


def test_diff_matrix_degenerate_when_order_exceeds_degree():
    npt.assert_array_equal(diff_matrix(4, 3), np.zeros((4, 4)))


def test_derivative_against_analytic():
    u = cheb_interp_1d(lambda x: x**3, 6)
    xs = rng.uniform(-1, 1, 20)
    d1 = diff_matrix(1, 6) @ u
    npt.assert_allclose(eval_ultra_1d(1, d1, xs), 3 * xs**2, atol=1e-13)


def test_derivative_identity_integer_exact():
    # first derivative of T_k has coefficient k on basis element k-1
    for k in range(1, 21):
        u = np.zeros(21)
        u[k] = 1.0
        v = diff_matrix(1, 20) @ u
        want = np.zeros(21)
        want[k - 1] = k
        npt.assert_array_equal(v, want)


def test_diff_matrix_banded_exact_zeros():
    d = diff_matrix(2, 10)
    mask = np.zeros_like(d, dtype=bool)
    idx = np.arange(9)
    mask[idx, idx + 2] = True
    assert np.all(d[~mask] == 0.0)


# --- conversion matrices -----------------------------------------------------


def test_conv_row0():
    npt.assert_array_equal(conv_matrix(0, 4)[0], [1.0, 0.0, -0.5, 0.0, 0.0])


def test_conv_lambda1_entries():
    s1 = conv_matrix(1, 4)
    assert s1[1, 1] == pytest.approx(0.5)
    assert s1[0, 2] == pytest.approx(-1.0 / 3.0)


def test_conv_preserves_polynomial_values():
    u = rng.standard_normal(11)
    xs = rng.uniform(-1, 1, 50)
    v = conv_matrix(0, 10) @ u
    npt.assert_allclose(eval_ultra_1d(1, v, xs), cheb_eval(u, xs), atol=1e-12)


@pytest.mark.parametrize("lam", [1, 2, 3, 4])
def test_basis_chain_consistency(lam):
    u = rng.standard_normal(11)
    xs = rng.uniform(-1, 1, 100)
    v = conv_chain(0, lam, 10) @ u
    ref = cheb_eval(u, xs)
    scale = np.max(np.abs(ref))
    npt.assert_allclose(eval_ultra_1d(lam, v, xs), ref, atol=1e-11 * max(scale, 1.0))


def test_conv_banded_exact_zeros():
    for lam in (0, 1, 3):
        s = conv_matrix(lam, 12)
        mask = np.zeros_like(s, dtype=bool)
        idx = np.arange(13)
        mask[idx, idx] = True
        mask[idx[:-2], idx[:-2] + 2] = True
        assert np.all(s[~mask] == 0.0)


# --- multiplication matrices --------------------------------------------------


def test_mult_cheb_by_one_is_identity():
    v = np.zeros(5)
    v[0] = 1.0
    npt.assert_array_equal(mult_matrix_cheb(v), np.eye(5))


def test_mult_cheb_t1_squared():
    v = np.zeros(4)
    v[1] = 1.0
    u = np.zeros(4)
    u[1] = 1.0
    npt.assert_allclose(mult_matrix_cheb(v) @ u, [0.5, 0.0, 0.5, 0.0], atol=1e-15)


def test_mult_cheb_matches_pointwise_product():
    n = 12
    v = np.zeros(n + 1)
    u = np.zeros(n + 1)
    v[:7] = rng.standard_normal(7)
    u[:7] = rng.standard_normal(7)
    prod = mult_matrix_cheb(v) @ u
    xs = rng.uniform(-1, 1, 60)
    npt.assert_allclose(cheb_eval(prod, xs), cheb_eval(v, xs) * cheb_eval(u, xs), atol=1e-13)


def test_mult_ultra_by_one_is_identity():
    v = np.zeros(6)
    v[0] = 1.0
    npt.assert_array_equal(mult_matrix_ultra(2, v), np.eye(6))


@pytest.mark.parametrize("lam", [1, 2])
@pytest.mark.parametrize("n, nonzero", [(0, 1), (6, 0), (6, 1), (12, 2), (12, 7), (12, 13)])
def test_mult_ultra_stops_after_the_last_nonzero_entry(lam, n, nonzero):
    v = np.zeros(n + 1)
    v[:nonzero] = rng.standard_normal(nonzero)
    assert np.array_equal(mult_matrix_ultra(lam, v), mult_matrix_ultra_reference(lam, v))


def test_mult_ultra_lambda1_shift_entries():
    s = shift_matrix_ultra(1, 2)
    want = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]])
    npt.assert_allclose(s, want)
    v = np.zeros(3)
    v[1] = 1.0
    npt.assert_allclose(mult_matrix_ultra(1, v), 2.0 * s)


def test_mult_ultra_matches_pointwise_product():
    n = 10
    vc = np.zeros(n + 1)
    uc = np.zeros(n + 1)
    vc[:6] = rng.standard_normal(6)
    uc[:6] = rng.standard_normal(6)
    v2 = conv_chain(0, 2, n) @ vc
    u2 = conv_chain(0, 2, n) @ uc
    prod = mult_matrix_ultra(2, v2) @ u2
    xs = rng.uniform(-1, 1, 80)
    want = cheb_eval(vc, xs) * cheb_eval(uc, xs)
    npt.assert_allclose(eval_ultra_1d(2, prod, xs), want, atol=1e-11)


# --- integration ---------------------------------------------------------------


def test_basis_integrals():
    w = cheb_integral_weights(4)
    npt.assert_allclose(w, [2.0, 0.0, -2.0 / 3.0, 0.0, -2.0 / 15.0])
    assert cheb_integral(np.eye(3)[0]) == pytest.approx(2.0)
    assert cheb_integral(np.eye(3)[1]) == pytest.approx(0.0)
    assert cheb_integral(np.eye(3)[2]) == pytest.approx(-2.0 / 3.0)


def test_inner_product_volume():
    one = np.zeros((1, 1, 1))
    one[0, 0, 0] = 1.0
    assert inner_product_3d(one, one) == pytest.approx(8.0)


def test_inner_product_sin_product_norm():
    f = lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
    t = cheb_interp_3d(f, 20, 20, 20)
    assert inner_product_3d(t, t) == pytest.approx(1.0, abs=1e-10)
    assert l2_norm_3d(t) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "shape_u, shape_v",
    [
        ((1, 1, 1), (1, 1, 1)),
        ((4, 3, 5), (4, 3, 5)),
        ((5, 2, 7), (3, 6, 1)),
        ((1, 9, 4), (8, 1, 4)),
        ((21, 21, 21), (21, 21, 21)),
        ((21, 6, 13), (9, 17, 2)),
    ],
)
def test_inner_product_matches_reinterpolation_oracle(shape_u, shape_v):
    r = np.random.default_rng(sum(shape_u) + 7 * sum(shape_v))
    u = r.standard_normal(shape_u)
    v = r.standard_normal(shape_v)
    want = inner_product_3d_reference(u, v)
    scale = np.abs(u).sum() * np.abs(v).sum()
    assert abs(inner_product_3d(u, v) - want) <= 1e-14 * scale
    assert abs(inner_product_3d(v, u) - want) <= 1e-14 * scale


def test_cheb_gram_entries():
    # T_0 T_0 = 1, T_1 T_1 = x^2, T_2 T_2 = (1 + T_4) / 2, T_1 T_3 = (T_2 + T_4) / 2
    g = cheb_gram(3, 4)
    assert g.shape == (3, 4)
    assert g[0, 0] == pytest.approx(2.0)
    assert g[1, 1] == pytest.approx(2.0 / 3.0)
    assert g[2, 2] == pytest.approx(0.5 * (2.0 - 2.0 / 15.0))
    assert g[1, 3] == pytest.approx(0.5 * (-2.0 / 3.0 - 2.0 / 15.0))
    assert g[0, 1] == g[1, 2] == g[2, 3] == 0.0


def test_inner_product_symmetric_bilinear():
    u = rng.standard_normal((4, 3, 5))
    v = rng.standard_normal((4, 3, 5))
    w = rng.standard_normal((4, 3, 5))
    assert inner_product_3d(u, v) == pytest.approx(inner_product_3d(v, u), abs=1e-12)
    lhs = inner_product_3d(u, 2.0 * v - 0.5 * w)
    rhs = 2.0 * inner_product_3d(u, v) - 0.5 * inner_product_3d(u, w)
    assert lhs == pytest.approx(rhs, abs=1e-12)


# --- memoized constructors ------------------------------------------------------

MEMOIZED_CALLS = {
    "conv_chain": (0, 2, 9),
    "diff_matrix": (2, 9),
    "cheb_gram": (4, 6),
    "values_to_output": (2, 9),
}


def test_the_memoized_constructors_are_the_documented_ones():
    memoized = {name for name, f in vars(cheb).items() if hasattr(f, "cache_clear")}
    assert memoized == set(MEMOIZED_CALLS)
    assert not hasattr(cheb_points, "cache_clear")


@pytest.mark.parametrize("name", sorted(MEMOIZED_CALLS))
def test_memoized_constructor_returns_one_read_only_array(name):
    build, args = getattr(cheb, name), MEMOIZED_CALLS[name]
    build.cache_clear()
    first = build(*args)
    assert build(*args) is first
    assert not first.flags.writeable
    before = first.copy()
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 1.0
    npt.assert_array_equal(first, before)
    # a rebuild after clearing is a new array with the same value
    build.cache_clear()
    again = build(*args)
    assert again is not first
    npt.assert_array_equal(again, first)


def test_memoized_values_equal_fresh_builds():
    n = 9
    npt.assert_array_equal(conv_chain(0, 2, n), conv_matrix(1, n) @ conv_matrix(0, n))
    npt.assert_array_equal(conv_chain(1, 1, n), np.eye(n + 1))
    npt.assert_array_equal(diff_matrix(1, n), np.diag(np.arange(1.0, n + 1), 1))
    npt.assert_array_equal(diff_matrix(2, n), np.diag(2.0 * np.arange(2.0, n + 1), 2))
    # G[i, j] times the two trivial modes' integrals of T_0 T_0 (2 each)
    m = 5
    e = lambda k, size: np.eye(size)[k][:, None, None]
    ref = [[inner_product_3d_reference(e(i, m), e(j, n + 1)) / 4.0 for j in range(n + 1)]
           for i in range(m)]
    npt.assert_allclose(cheb_gram(m, n + 1), ref, rtol=0, atol=1e-14)
    for order in (0, 1, 2):
        npt.assert_array_equal(
            values_to_output(order, n), conv_chain(0, order, n) @ vals_to_coeffs(np.eye(n + 1))
        )
