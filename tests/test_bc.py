import numpy as np
import numpy.testing as npt
import pytest

from spectracube.bc import (
    BoundaryConditionError,
    assemble_boundary_set,
    constraint_residual,
    dirichlet,
    neumann,
    normalize_leading_identity,
    reconstruct,
    reduce,
)
from spectracube.cheb import cheb_interp_3d, eval_cheb_3d
from spectracube.expr import parse
from spectracube.drivers import SolverOptions
from spectracube.opdisc import (
    DiffOperator3,
    apply_operator,
    discretize,
    split_operator,
)
from spectracube.tensolve import ReshapeSolver
from spectracube.tensor3 import ShapeError, mode_mult

from oracles import reduce_rhs_reference

rng = np.random.default_rng(23)

LAPLACE = {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}


def laplacian_disc(n):
    op = DiffOperator3(orders=(2, 2, 2), coeffs=dict(LAPLACE))
    return discretize(op, (n, n, n), split_operator(op, (n, n, n), SolverOptions()))


def zero_dirichlet_rows(degrees):
    rows = []
    for mode in range(1, 4):
        rows.append([
            dirichlet(mode, -1, 0.0, degrees),
            dirichlet(mode, 1, 0.0, degrees),
        ])
    return rows


def zero_dirichlet_set(degrees):
    bset = assemble_boundary_set(zero_dirichlet_rows(degrees), degrees, (2, 2, 2))
    return normalize_leading_identity(bset)


# --- rows ------------------------------------------------------------------


def test_dirichlet_rows():
    row_p, _ = dirichlet(1, 1, 0.0, (3, 3, 3))
    row_m, _ = dirichlet(1, -1, 0.0, (3, 3, 3))
    npt.assert_array_equal(row_p, [1, 1, 1, 1])
    npt.assert_array_equal(row_m, [1, -1, 1, -1])


def test_dirichlet_bivariate_data():
    _, slab = dirichlet(1, 1, lambda y, z: y * z, (3, 2, 2))
    want = np.zeros((3, 3))
    want[1, 1] = 1.0
    npt.assert_allclose(slab, want, atol=1e-14)


def test_neumann_right_row():
    row, _ = neumann(1, 1, 0.0, (4, 4, 4))
    npt.assert_array_equal(row, [0, 1, 4, 9, 16])


def test_neumann_left_row_matches_difference_quotient():
    row, _ = neumann(1, -1, 0.0, (3, 3, 3))
    npt.assert_array_equal(row, [0, 1, -4, 9])
    # derivative of T_i at -1 via a central difference quotient
    eps = 1e-6
    for i in range(4):
        c = np.eye(4)[i]
        der = (
            np.polynomial.chebyshev.chebval(-1 + eps, c)
            - np.polynomial.chebyshev.chebval(-1 - eps, c)
        ) / (2 * eps)
        assert row[i] == pytest.approx(der, abs=1e-4)


def test_neumann_zero_data_slab():
    _, slab = neumann(2, 1, 0.0, (3, 3, 3))
    npt.assert_array_equal(slab, np.zeros((4, 4)))


# --- assembly ----------------------------------------------------------------


def test_assemble_poisson_zero_dirichlet():
    degrees = (5, 5, 5)
    bset = assemble_boundary_set(zero_dirichlet_rows(degrees), degrees, (2, 2, 2))
    want = np.array([[1, -1, 1, -1, 1, -1], [1, 1, 1, 1, 1, 1]], dtype=float)
    for op in bset.ops:
        npt.assert_array_equal(op.b, want)
        npt.assert_array_equal(op.g, np.zeros(op.g.shape))
    assert not bset.warnings


def test_assemble_mixed_stacking_order():
    degrees = (4, 4, 4)
    rows = zero_dirichlet_rows(degrees)
    rows[0] = [dirichlet(1, -1, 0.0, degrees), neumann(1, 1, 0.0, degrees)]
    bset = assemble_boundary_set(rows, degrees, (2, 2, 2))
    npt.assert_array_equal(bset.ops[0].b[0], [1, -1, 1, -1, 1])
    npt.assert_array_equal(bset.ops[0].b[1], [0, 1, 4, 9, 16])


def test_assemble_incompatible_corner_warns():
    degrees = (3, 3, 3)
    rows = zero_dirichlet_rows(degrees)
    # mode-1 face carries data 1 while the mode-2 faces demand zero traces
    rows[0][1] = dirichlet(1, 1, 1.0, degrees)
    with pytest.warns(UserWarning, match="incompatible"):
        bset = assemble_boundary_set(rows, degrees, (2, 2, 2))
    assert bset.warnings


def test_assemble_wrong_row_count():
    degrees = (3, 3, 3)
    rows = zero_dirichlet_rows(degrees)
    rows[2] = rows[2][:1]
    with pytest.raises(BoundaryConditionError, match="mode 3 needs 2"):
        assemble_boundary_set(rows, degrees, (2, 2, 2))


def test_assemble_rejects_dependent_rows():
    degrees = (3, 3, 3)
    rows = zero_dirichlet_rows(degrees)
    rows[0] = [rows[0][0], rows[0][0]]
    with pytest.raises(BoundaryConditionError, match="linearly dependent"):
        assemble_boundary_set(rows, degrees, (2, 2, 2))


# --- normalization --------------------------------------------------------------


def test_normalize_two_sided_dirichlet():
    degrees = (3, 3, 3)
    bset = assemble_boundary_set(zero_dirichlet_rows(degrees), degrees, (2, 2, 2))
    norm = normalize_leading_identity(bset)
    lead = np.array([[1.0, -1.0], [1.0, 1.0]])
    want = np.linalg.solve(lead, bset.ops[0].b)  # direct 2x2 inversion oracle
    want[:, :2] = np.eye(2)
    npt.assert_allclose(norm.ops[0].b, want, atol=1e-15)
    npt.assert_array_equal(norm.ops[0].b, [[1, 0, 1, 0], [0, 1, 0, 1]])


def test_normalize_already_normalized_is_bit_exact():
    degrees = (3, 3, 3)
    bset = assemble_boundary_set(zero_dirichlet_rows(degrees), degrees, (2, 2, 2))
    once = normalize_leading_identity(bset)
    twice = normalize_leading_identity(once)
    for a, b in zip(once.ops, twice.ops):
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.g, b.g)


def test_normalize_preserves_row_space():
    b = rng.standard_normal((2, 6))
    degrees = (5, 5, 5)
    rows = zero_dirichlet_rows(degrees)
    rows[0] = [(b[0], np.zeros((6, 6))), (b[1], np.zeros((6, 6)))]
    bset = assemble_boundary_set(rows, degrees, (2, 2, 2))
    norm = normalize_leading_identity(bset)
    bn = norm.ops[0].b
    npt.assert_array_equal(bn[:, :2], np.eye(2))
    # mutual least-squares residuals vanish iff the row spaces agree
    for target, basis in ((b, bn), (bn, b)):
        coef, *_ = np.linalg.lstsq(basis.T, target.T, rcond=None)
        assert np.max(np.abs(basis.T @ coef - target.T)) < 1e-11


def test_normalize_rejects_singular_leading_block():
    degrees = (3, 3, 3)
    rows = zero_dirichlet_rows(degrees)
    rows[0] = [
        (np.array([0.0, 0.0, 1.0, 0.0]), np.zeros((4, 4))),
        (np.array([0.0, 0.0, 0.0, 1.0]), np.zeros((4, 4))),
    ]
    bset = assemble_boundary_set(rows, degrees, (2, 2, 2))
    with pytest.raises(BoundaryConditionError, match="reorder"):
        normalize_leading_identity(bset)


# --- reduce and reconstruct -------------------------------------------------------


def test_reduce_zero_data_is_plain_restriction():
    n = 6
    d = laplacian_disc(n)
    bset = zero_dirichlet_set((n, n, n))
    f = rng.standard_normal((n + 1,) * 3)
    sys = reduce(d, bset)
    assert sys.lift is None
    assert sys.shape == (n - 1, n - 1, n - 1)
    fhat = sys.rhs(f)
    npt.assert_array_equal(fhat, f[: n - 1, : n - 1, : n - 1])
    assert not np.shares_memory(fhat, f)


def _poly(x, y, z):
    # degree 2 per variable, so face data are interpolated exactly and agree
    # along the shared edges
    return (1 + x + 2 * x**2) * (3 - y + y**2) * (2 + z - z**2)


def _poly_x(x, y, z):
    return (1 + 4 * x) * (3 - y + y**2) * (2 + z - z**2)


def _face_data(fn, mode, side):
    def data(a, b):
        args = [a, b]
        args.insert(mode - 1, side)
        return fn(*args)

    return data


def _poly_boundary(orders, neumann_face=None):
    """Dirichlet data of ``_poly`` on every face the orders call for, and its
    x-derivative as Neumann data on ``neumann_face``."""
    from spectracube.drivers import FaceBC, zero_dirichlet_boundary

    boundary = {}
    for face in zero_dirichlet_boundary(orders):
        if face == neumann_face:
            boundary[face] = FaceBC("neumann", _face_data(_poly_x, *face))
        else:
            boundary[face] = FaceBC("dirichlet", _face_data(_poly, *face))
    return boundary


HELMHOLTZ_X = {**LAPLACE, (0, 0, 0): parse("2+cos(x)")}


@pytest.mark.parametrize(
    "coeffs, orders, degrees, neumann_face, rank",
    [
        (HELMHOLTZ_X, (2, 2, 2), (8, 8, 8), None, 3),
        (HELMHOLTZ_X, (2, 2, 2), (8, 8, 8), (1, 1), 3),
        (HELMHOLTZ_X, (2, 2, 2), (9, 6, 4), None, 3),
        ({(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 1): 1.0}, (2, 2, 1), (7, 6, 5), None, 3),
        # an exact split of rank 5: three closed-form terms, two products
        ({**LAPLACE, (0, 0, 0): parse("2+x*y")}, (2, 2, 2), (8, 8, 8), (1, 1), 5),
        # a split of rank 10: three exact terms, seven from CP-ALS
        ({**LAPLACE, (0, 0, 0): parse("sqrt(x+y+z+42)")}, (2, 2, 2), (8, 8, 8), (1, 1), 10),
    ],
    ids=[
        "dirichlet-all-faces", "neumann-face", "anisotropic", "order-1-mode",
        "product-split", "cp-split",
    ],
)
def test_reduced_rhs_matches_per_solve_reference(coeffs, orders, degrees, neumann_face, rank):
    from spectracube.drivers import StationarySolver

    op = DiffOperator3(orders=orders, coeffs=coeffs)
    solver = StationarySolver(op, _poly_boundary(orders, neumann_face), degrees)
    assert solver.disc.rank == rank and (solver.disc.cp_fit is not None) == (rank == 10)
    sys = solver.reduced
    assert sys.lift is not None and sys.lift.shape == sys.shape
    f = rng.standard_normal(tuple(n + 1 for n in degrees))
    want = reduce_rhs_reference(solver.disc, f, solver.bset)
    got = sys.rhs(f)
    assert got.shape == want.shape == sys.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_reduced_rhs_with_zero_data_equals_reference_exactly():
    from spectracube.drivers import StationarySolver, zero_dirichlet_boundary

    op = DiffOperator3(orders=(2, 2, 2), coeffs=HELMHOLTZ_X)
    solver = StationarySolver(op, zero_dirichlet_boundary((2, 2, 2)), (7, 6, 5))
    assert solver.reduced.lift is None
    f = rng.standard_normal((8, 7, 6))
    npt.assert_array_equal(solver.reduced.rhs(f), reduce_rhs_reference(solver.disc, f, solver.bset))


def test_reduced_rhs_checks_the_shape():
    n = 4
    sys = reduce(laplacian_disc(n), zero_dirichlet_set((n, n, n)))
    with pytest.raises(ShapeError, match="degrees \\+ 1"):
        sys.rhs(np.zeros((n + 1, n + 1, n)))


def test_reduce_requires_normalized_set():
    n = 4
    d = laplacian_disc(n)
    bset = assemble_boundary_set(zero_dirichlet_rows((n, n, n)), (n, n, n), (2, 2, 2))
    with pytest.raises(BoundaryConditionError, match="normalized"):
        reduce(d, bset)


def test_manufactured_polynomial_solution_recovered_exactly():
    # u* = x^2 + y^2 + z^2 solves lap u = 6 with matching Dirichlet data
    n = 6
    degrees = (n, n, n)
    d = laplacian_disc(n)
    u_star = lambda x, y, z: x**2 + y**2 + z**2
    rows = []
    for mode in range(1, 4):
        mode_rows = []
        for side in (-1, 1):
            def data(a, b, side=side):
                return side**2 + a**2 + b**2

            mode_rows.append(dirichlet(mode, side, data, degrees))
        rows.append(mode_rows)
    bset = normalize_leading_identity(assemble_boundary_set(rows, degrees, (2, 2, 2)))
    f = cheb_interp_3d(lambda x, y, z: np.full(np.broadcast(x, y, z).shape, 6.0), *degrees)
    from spectracube.drivers import to_output_basis

    sys = reduce(d, bset)
    u222 = ReshapeSolver(sys).solve(sys.rhs(to_output_basis(f, (2, 2, 2))))
    u = reconstruct(u222, bset)
    pts = rng.uniform(-1, 1, (200, 3))
    got = eval_cheb_3d(u, pts[:, 0], pts[:, 1], pts[:, 2])
    npt.assert_allclose(got, u_star(pts[:, 0], pts[:, 1], pts[:, 2]), atol=1e-11)


def test_poisson_n10_reproduces_reference_error_level():
    n = 10
    d = laplacian_disc(n)
    bset = zero_dirichlet_set((n, n, n))
    u_star = lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
    f = cheb_interp_3d(lambda x, y, z: -3 * np.pi**2 * u_star(x, y, z), n, n, n)
    from spectracube.drivers import to_output_basis

    sys = reduce(d, bset)
    u222 = ReshapeSolver(sys).solve(sys.rhs(to_output_basis(f, (2, 2, 2))))
    u = reconstruct(u222, bset)
    pts = rng.uniform(-1, 1, (1000, 3))
    err = np.max(np.abs(
        eval_cheb_3d(u, pts[:, 0], pts[:, 1], pts[:, 2])
        - u_star(pts[:, 0], pts[:, 1], pts[:, 2])
    ))
    assert 0.5 * 1.55e-5 <= err <= 1.5 * 1.55e-5
    # solution traces on all six faces stay at the discretization error level
    face = rng.uniform(-1, 1, (100, 2))
    ones = np.ones(100)
    for side in (-1.0, 1.0):
        for coords in (
            (side * ones, face[:, 0], face[:, 1]),
            (face[:, 0], side * ones, face[:, 1]),
            (face[:, 0], face[:, 1], side * ones),
        ):
            assert np.max(np.abs(eval_cheb_3d(u, *coords))) <= 1e-5


def test_reconstruct_zero_case():
    bset = zero_dirichlet_set((4, 4, 4))
    u = reconstruct(np.zeros((3, 3, 3)), bset)
    npt.assert_array_equal(u, np.zeros((5, 5, 5)))


def test_reconstruct_satisfies_homogeneous_constraints():
    bset = zero_dirichlet_set((6, 6, 6))
    u222 = rng.standard_normal((5, 5, 5))
    u = reconstruct(u222, bset)
    for op in bset.ops:
        npt.assert_allclose(mode_mult(u, op.b, op.mode), 0.0, atol=1e-12)
    assert constraint_residual(u, bset) < 1e-12


def test_reconstruct_policy_on_incompatible_edges():
    # random face data disagrees along every shared edge, so no tensor meets
    # all constraints there; the mode-1 data must win wherever mode 1 is
    # involved and the mode-3 data on the 2-3 edge
    degrees = (5, 6, 7)
    faces = [
        [(dirichlet, -1), (neumann, 1)],
        [(dirichlet, -1), (dirichlet, 1)],
        [(neumann, -1), (dirichlet, 1)],
    ]
    rows = []
    for mode, mode_faces in enumerate(faces, start=1):
        others = [degrees[m] + 1 for m in range(3) if m != mode - 1]
        rows.append([
            (kind(mode, side, 0.0, degrees)[0], rng.standard_normal(others))
            for kind, side in mode_faces
        ])
    with pytest.warns(UserWarning, match="incompatible"):
        bset = normalize_leading_identity(assemble_boundary_set(rows, degrees, (2, 2, 2)))
    u = reconstruct(rng.standard_normal((4, 5, 6)), bset)
    res = [mode_mult(u, op.b, op.mode) - op.g for op in bset.ops]
    tol = 1e-11 * max(np.max(np.abs(u)), 1.0)
    # mode 1 holds on every row; mode 3 off the mode-1 rows, the 2-3 edge too;
    # mode 2 off the mode-1 and mode-3 rows
    assert np.max(np.abs(res[0])) <= tol
    assert np.max(np.abs(res[2][2:])) <= tol
    assert np.max(np.abs(res[1][2:, :, 2:])) <= tol
    # the mode-2 data is overridden on the 2-3 edge and on the mode-1 rows
    assert np.max(np.abs(res[1][2:, :, :2])) > 1e-3
    assert np.max(np.abs(res[1][:2])) > 1e-3
    assert np.max(np.abs(res[2][:2])) > 1e-3


# --- substitution equivalence (module invariant) -----------------------------------


@pytest.mark.parametrize("preset_name", ["poisson", "helmholtz-const", "helmholtz-gamma"])
def test_substitution_equivalence_invariant(preset_name):
    from spectracube.drivers import StationarySolver, to_output_basis
    from spectracube.presets import make_problem

    spec = make_problem(preset_name, 10)
    solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)
    f_cheb = cheb_interp_3d(spec.rhs, *spec.degrees)
    f_out = to_output_basis(f_cheb, solver.disc.orders)
    u, _ = solver.solve_output_rhs(f_out)
    # the reconstructed tensor satisfies the discretized PDE on the interior
    # index box and the constraints, so substitution lost no information
    full_res = apply_operator(solver.disc, u) - f_out
    interior = full_res[:9, :9, :9]
    scale = max(np.max(np.abs(f_out)), 1.0)
    assert np.max(np.abs(interior)) <= 1e-9 * scale
    assert constraint_residual(u, solver.bset) <= 1e-10 * max(np.max(np.abs(u)), 1.0)
