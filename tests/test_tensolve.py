import numpy as np
import numpy.testing as npt
import pytest

import spectracube.tensolve as tensolve
import spectracube.tensor3 as tensor3
from spectracube.bc import ReducedSystem, normalize_leading_identity, assemble_boundary_set, dirichlet, reduce
from spectracube.cheb import cheb_interp_3d
from spectracube.drivers import SolverOptions
from spectracube.opdisc import (
    DiffOperator3,
    DiffusionForm,
    discretize,
    split_operator,
)
from spectracube.tensolve import (
    GmresError,
    LaplaceLikeSolver,
    NotLaplaceLikeError,
    ReducedLaplaceSolver,
    ReshapeSolver,
    SingularOperatorError,
    SolverError,
    apply_reduced_operator,
    gmres_solve,
    real_schur,
)
from spectracube.tensor3 import mode_mult, vectorize

rng = np.random.default_rng(31)

LAPLACE = {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}


def synthetic_system(lx, ly, lz) -> ReducedSystem:
    """Reduced system stub with given interior matrices (no boundary rows)."""
    return ReducedSystem(lhat=(list(lx), list(ly), list(lz)), lift=None, bset=None)


def poisson_system(n):
    """Reduced Poisson system with zero Dirichlet data and its reduced right side."""
    op = DiffOperator3(orders=(2, 2, 2), coeffs=dict(LAPLACE))
    d = discretize(op, (n, n, n), split_operator(op, (n, n, n), SolverOptions()))
    degrees = (n, n, n)
    rows = [
        [dirichlet(m, -1, 0.0, degrees), dirichlet(m, 1, 0.0, degrees)]
        for m in (1, 2, 3)
    ]
    bset = normalize_leading_identity(
        assemble_boundary_set(rows, degrees, (2, 2, 2))
    )
    u_star = lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
    f = cheb_interp_3d(lambda x, y, z: -3 * np.pi**2 * u_star(x, y, z), n, n, n)
    from spectracube.drivers import to_output_basis

    sys = reduce(d, bset)
    return sys, sys.rhs(to_output_basis(f, (2, 2, 2)))


# --- reshape backend ---------------------------------------------------------


def test_reshape_identity_system():
    f = rng.standard_normal((3, 4, 5))
    eye = [np.eye(3)], [np.eye(4)], [np.eye(5)]
    x = ReshapeSolver(synthetic_system(*eye)).solve(f)
    npt.assert_allclose(x, f, atol=1e-14)


def test_reshape_random_rank2_residual():
    dims = (3, 4, 5)
    f = rng.standard_normal(dims)
    lx = [rng.standard_normal((3, 3)) + 4 * np.eye(3) for _ in range(2)]
    ly = [rng.standard_normal((4, 4)) + 4 * np.eye(4) for _ in range(2)]
    lz = [rng.standard_normal((5, 5)) + 4 * np.eye(5) for _ in range(2)]
    sys = synthetic_system(lx, ly, lz)
    x = ReshapeSolver(sys).solve(f)
    res = np.max(np.abs(apply_reduced_operator(sys, x) - f))
    assert res <= 1e-11 * np.max(np.abs(f))


def test_reshape_size_cap(monkeypatch):
    # the interior size comes from the system's shape, 5 * 6 * 7 = 210
    monkeypatch.setattr(tensolve, "RESHAPE_CAP", 209)
    eye = [np.eye(5)], [np.eye(6)], [np.eye(7)]
    with pytest.raises(SolverError, match="interior size 210 exceeds cap 209"):
        ReshapeSolver(synthetic_system(*eye))
    monkeypatch.setattr(tensolve, "RESHAPE_CAP", 210)
    ReshapeSolver(synthetic_system(*eye))


def test_reshape_singular_matrix_error():
    f = rng.standard_normal((2, 2, 2))
    zero = np.zeros((2, 2))
    with pytest.raises(SolverError):
        ReshapeSolver(synthetic_system([zero], [np.eye(2)], [np.eye(2)])).solve(f)


# --- real Schur ---------------------------------------------------------------


def test_schur_triangular_input():
    t = np.triu(rng.standard_normal((6, 6)))
    fac = real_schur(t)
    npt.assert_allclose(np.abs(fac.q), np.eye(6), atol=1e-12)
    npt.assert_allclose(fac.q @ fac.t @ fac.q.T, t, atol=1e-12)


def test_schur_rotation_keeps_complex_pair():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    fac = real_schur(rot)
    assert fac.t[1, 0] != 0.0  # one 2x2 block
    assert np.trace(fac.t) == pytest.approx(0.0, abs=1e-14)
    assert np.linalg.det(fac.t) == pytest.approx(1.0, abs=1e-14)


def test_schur_invariants_random():
    a = rng.standard_normal((20, 20))
    fac = real_schur(a)
    assert np.max(np.abs(fac.q.T @ fac.q - np.eye(20))) <= 1e-12
    err = np.linalg.norm(fac.q @ fac.t @ fac.q.T - a, "fro")
    assert err <= 1e-12 * np.linalg.norm(a, "fro")
    assert np.all(np.tril(fac.t, -2) == 0.0)
    sub = np.diag(fac.t, -1)
    assert not np.any((sub[:-1] != 0) & (sub[1:] != 0))


def test_schur_property_suite():
    # orthogonality, reconstruction, quasi-triangularity over many matrices
    r = np.random.default_rng(99)
    for trial in range(1000):
        n = int(r.integers(2, 51))
        a = r.standard_normal((n, n))
        fac = real_schur(a)
        assert np.max(np.abs(fac.q.T @ fac.q - np.eye(n))) <= 1e-12
        assert np.linalg.norm(fac.q @ fac.t @ fac.q.T - a) <= 1e-11 * max(
            np.linalg.norm(a), 1.0
        )
        assert np.all(np.tril(fac.t, -2) == 0.0)
        sub = np.diag(fac.t, -1)
        assert not np.any((sub[:-1] != 0) & (sub[1:] != 0))


# --- recursive solver ------------------------------------------------------------


def test_identity_laplace_like():
    f = rng.standard_normal((4, 4, 4))
    x, _ = LaplaceLikeSolver(np.eye(4), np.eye(4), np.eye(4)).solve(f)
    npt.assert_allclose(x, f / 3.0, atol=1e-14)


def test_diagonal_closed_form():
    dims = (5, 6, 7)
    du = rng.uniform(1, 2, 5)
    dv = rng.uniform(1, 2, 6)
    dw = rng.uniform(1, 2, 7)
    f = rng.standard_normal(dims)
    x, _ = LaplaceLikeSolver(np.diag(du), np.diag(dv), np.diag(dw)).solve(f)
    want = f / (du[:, None, None] + dv[None, :, None] + dw[None, None, :])
    npt.assert_allclose(x, want, atol=1e-12)


def test_dense_shifted_matches_explicit_kronecker():
    n = 9
    mats = [rng.standard_normal((n, n)) + 5 * np.eye(n) for _ in range(3)]
    f = rng.standard_normal((n, n, n))
    solver = LaplaceLikeSolver(*mats)
    x, solves = solver.solve(f)
    big = (
        np.kron(np.eye(n * n), mats[0])
        + np.kron(np.eye(n), np.kron(mats[1], np.eye(n)))
        + np.kron(mats[2], np.eye(n * n))
    )
    want = np.linalg.solve(big, vectorize(f)).reshape((n, n, n), order="F")
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))
    # one Sylvester solve per diagonal block of the mode-3 Schur factor
    assert solves == n - int(np.count_nonzero(np.diag(solver.factors[2].t, -1)))


def test_singular_eigenvalue_sum_detected():
    d = np.diag([1.0, -2.0])  # 1 + 1 - 2 = 0
    f = rng.standard_normal((2, 2, 2))
    with pytest.raises(SingularOperatorError, match="eigenvalue sum"):
        LaplaceLikeSolver(d, d, d).solve(f)


def test_recursive_residual_property():
    for _ in range(5):
        dims = tuple(rng.integers(8, 31, 3))
        mats = [
            rng.standard_normal((d, d)) + 4 * np.sqrt(d) * np.eye(d) for d in dims
        ]
        f = rng.standard_normal(dims)
        x, _ = LaplaceLikeSolver(*mats).solve(f)
        res = mode_mult(x, mats[0], 1) + mode_mult(x, mats[1], 2) + mode_mult(x, mats[2], 3) - f
        assert np.max(np.abs(res)) <= 1e-10 * np.max(np.abs(f))


def _with_complex_pair(r, d):
    """Random ``d x d`` matrix whose real Schur form has a 2x2 block when d >= 2."""
    t = np.triu(r.standard_normal((d, d))) + np.diag(r.uniform(4.0, 6.0, d))
    if d >= 2:
        t[1, 0], t[0, 1] = -r.uniform(1.0, 2.0), r.uniform(1.0, 2.0)
        t[1, 1] = t[0, 0]
    q, _ = np.linalg.qr(r.standard_normal((d, d)))
    return q @ t @ q.T


@pytest.mark.parametrize("dims", [(2, 2, 2), (1, 5, 4), (6, 1, 3), (4, 3, 2), (2, 7, 1), (5, 6, 7)])
def test_sweep_with_complex_pairs_matches_kronecker_oracle(dims):
    r = np.random.default_rng(sum(dims))
    mats = [_with_complex_pair(r, d) for d in dims]
    f = r.standard_normal(dims)
    solver = LaplaceLikeSolver(*mats)
    pairs = [int(np.count_nonzero(np.diag(fac.t, -1))) for fac in solver.factors]
    assert all(p >= 1 for p, d in zip(pairs, dims) if d >= 2)
    x, solves = solver.solve(f)
    big = (
        np.kron(np.eye(dims[2] * dims[1]), mats[0])
        + np.kron(np.eye(dims[2]), np.kron(mats[1], np.eye(dims[0])))
        + np.kron(mats[2], np.eye(dims[1] * dims[0]))
    )
    want = np.linalg.solve(big, vectorize(f)).reshape(dims, order="F")
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))
    # one 2-D Sylvester solve per diagonal block of the mode-3 Schur factor
    assert solves == dims[2] - pairs[2]


@pytest.mark.parametrize("dims", [(2, 2, 2), (1, 5, 4), (5, 6, 7), (9, 4, 6)])
def test_min_eig_sum_equals_full_grid_oracle(dims):
    r = np.random.default_rng(100 + sum(dims))
    mats = [_with_complex_pair(r, d) for d in dims]
    solver = LaplaceLikeSolver(*mats)
    assert solver.path == "schur"
    eigs = [np.linalg.eig(m)[0] for m in mats]
    assert any(np.any(e.imag != 0.0) for e in eigs)
    full = np.abs(eigs[0][:, None, None] + eigs[1][None, :, None] + eigs[2][None, None, :])
    assert solver.min_eig_sum == float(full.min())


def test_non_finite_sylvester_solution_names_the_slice():
    mats = [np.eye(3) + np.triu(np.ones((3, 3))) for _ in range(3)]
    f = np.ones((3, 3, 3))
    f[0, 0, 2] = np.nan
    with pytest.raises(SolverError, match="mode-3 slice 2"):
        LaplaceLikeSolver(*mats).solve(f)


# --- laplace-like transform --------------------------------------------------------


def test_poisson_recursive_equals_reshape():
    sys, fhat = poisson_system(10)
    x1 = ReshapeSolver(sys).solve(fhat)
    x2, _ = ReducedLaplaceSolver(sys).solve(fhat)
    assert np.max(np.abs(x1 - x2)) <= 1e-11 * np.max(np.abs(x1))


def test_helmholtz_recursive_equals_reshape():
    n = 10
    op = DiffOperator3(orders=(2, 2, 2), coeffs={**LAPLACE, (0, 0, 0): 4.0})
    d = discretize(op, (n, n, n), split_operator(op, (n, n, n), SolverOptions()))
    degrees = (n, n, n)
    rows = [
        [dirichlet(m, -1, 0.0, degrees), dirichlet(m, 1, 0.0, degrees)]
        for m in (1, 2, 3)
    ]
    bset = normalize_leading_identity(assemble_boundary_set(rows, degrees, (2, 2, 2)))
    f = rng.standard_normal((n + 1,) * 3)
    sys = reduce(d, bset)
    fhat = sys.rhs(f)
    x1 = ReshapeSolver(sys).solve(fhat)
    x2, _ = ReducedLaplaceSolver(sys).solve(fhat)
    assert np.max(np.abs(x1 - x2)) <= 1e-11 * np.max(np.abs(x1))


def test_rank6_system_not_eligible():
    n = 6
    sq = lambda t: 1.0 + t**2
    degrees = (n, n, n)
    form = DiffusionForm(terms=((sq, sq, sq), (np.exp, np.exp, np.exp)))
    d = discretize(form, degrees, split_operator(form, degrees, SolverOptions()))
    rows = [
        [dirichlet(m, -1, 0.0, degrees), dirichlet(m, 1, 0.0, degrees)]
        for m in (1, 2, 3)
    ]
    bset = normalize_leading_identity(assemble_boundary_set(rows, degrees, (2, 2, 2)))
    sys = reduce(d, bset)
    with pytest.raises(NotLaplaceLikeError):
        ReducedLaplaceSolver(sys)


def test_ill_conditioned_companion_refused():
    p = np.diag([2.0, 3.0])
    eye = np.eye(2)
    comp = np.diag([1.0, 1e-13])
    sys = synthetic_system([p, eye, eye], [comp, p, comp], [eye, eye, p])
    with pytest.raises(SolverError, match="mode-2 companion matrix is ill-conditioned"):
        ReducedLaplaceSolver(sys)


def test_unequal_companions_are_refused():
    # rank 3 with the payloads on the diagonal, but the two mode-2 companions
    # (terms 1 and 3) differ: no Laplace-like transform solves this system
    p = np.diag([2.0, 3.0])
    eye = np.eye(2)
    sys = synthetic_system([p, eye, eye], [eye, p, 2.0 * eye], [eye, eye, p])
    assert sys.unequal_companion_modes() == [2] and not sys.laplace_like
    with pytest.raises(NotLaplaceLikeError, match="companion matrices differ in mode 2"):
        ReducedLaplaceSolver(sys)


def test_distinct_companions_diffusion_recursive_equals_reshape():
    # separable diffusion with three different factors exercises the
    # per-mode companion inversion
    n = 10
    terms = (lambda t: 1.0 + t**2, lambda t: 2.0 + np.sin(t), lambda t: np.exp(t / 2))
    degrees = (n, n, n)
    form = DiffusionForm(terms=(terms,))
    d = discretize(form, degrees, split_operator(form, degrees, SolverOptions()))
    rows = [
        [dirichlet(m, -1, 0.0, degrees), dirichlet(m, 1, 0.0, degrees)]
        for m in (1, 2, 3)
    ]
    bset = normalize_leading_identity(assemble_boundary_set(rows, degrees, (2, 2, 2)))
    f = rng.standard_normal((n + 1,) * 3)
    sys = reduce(d, bset)
    fhat = sys.rhs(f)
    x1 = ReshapeSolver(sys).solve(fhat)
    x2, _ = ReducedLaplaceSolver(sys).solve(fhat)
    assert np.max(np.abs(x1 - x2)) <= 1e-10 * np.max(np.abs(x1))


# --- diagonalized path and the Schur sweep fallback -----------------------------------


def _preset_system(name, n):
    from spectracube.drivers import StationarySolver, _rhs_output_tensor
    from spectracube.presets import make_problem

    spec = make_problem(name, n)
    solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)
    return solver.reduced, solver.reduced.rhs(_rhs_output_tensor(spec, solver))


def _pure_laplace_like(mats):
    """Reduced system whose Laplace-like matrices are ``mats`` (identity companions)."""
    eye = [np.eye(m.shape[0]) for m in mats]
    return synthetic_system(
        [mats[0], eye[0], eye[0]], [eye[1], mats[1], eye[1]], [eye[2], eye[2], mats[2]]
    )


def _kronecker_oracle(mats, f):
    dims = f.shape
    big = (
        np.kron(np.eye(dims[2] * dims[1]), mats[0])
        + np.kron(np.eye(dims[2]), np.kron(mats[1], np.eye(dims[0])))
        + np.kron(mats[2], np.eye(dims[1] * dims[0]))
    )
    return np.linalg.solve(big, vectorize(f)).reshape(dims, order="F")


@pytest.mark.parametrize("name, n", [("poisson", 12), ("helmholtz-gamma", 10), ("diffusion-sep", 10)])
def test_both_laplace_paths_match_reshape(monkeypatch, name, n):
    sys, fhat = _preset_system(name, n)
    want = ReshapeSolver(sys).solve(fhat)
    diag = ReducedLaplaceSolver(sys)
    assert diag.path == "diagonalize"
    assert len(diag.eigvec_cond) == 3
    assert all(1.0 <= c <= tensolve.EIGVEC_COND_LIMIT for c in diag.eigvec_cond)
    x_diag, solves = diag.solve(fhat)
    assert solves == 0
    monkeypatch.setattr(tensolve, "EIGVEC_COND_LIMIT", 0.0)
    sweep = ReducedLaplaceSolver(sys)
    assert sweep.path == "schur" and sweep.eigvec_cond is None
    x_sweep, solves = sweep.solve(fhat)
    assert solves == fhat.shape[2]
    scale = np.max(np.abs(want))
    assert np.max(np.abs(x_diag - want)) <= 1e-11 * scale
    assert np.max(np.abs(x_sweep - want)) <= 1e-11 * scale
    assert diag.min_eig_sum == pytest.approx(sweep.min_eig_sum, rel=1e-10)


def test_complex_pair_takes_the_sweep():
    r = np.random.default_rng(5)
    dims = (4, 5, 6)
    mats = [_with_complex_pair(r, d) for d in dims]
    f = r.standard_normal(dims)
    solver = ReducedLaplaceSolver(_pure_laplace_like(mats))
    assert solver.path == "schur" and solver.eigvec_cond is None
    x, solves = solver.solve(f)
    assert solves == dims[2] - 1
    want = _kronecker_oracle(mats, f)
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))


def test_ill_conditioned_eigenbasis_takes_the_sweep():
    # triangular with a distinct real spectrum and a large strict upper part:
    # the eigenvectors are nearly parallel
    d = 6
    tri = np.diag(np.arange(1.0, d + 1.0)) + 30.0 * np.triu(np.ones((d, d)), 1)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = q @ tri @ q.T
    vecs = np.linalg.eig(a)[1]
    assert np.linalg.cond(vecs, 1) > tensolve.EIGVEC_COND_LIMIT
    mats = [a, np.diag(np.arange(1.0, 5.0)), np.diag(np.arange(2.0, 5.0))]
    f = rng.standard_normal((d, 4, 3))
    solver = ReducedLaplaceSolver(_pure_laplace_like(mats))
    assert solver.path == "schur"
    x, _ = solver.solve(f)
    want = _kronecker_oracle(mats, f)
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))


def test_vanishing_eigenvalue_sum_refused_on_the_diagonalized_path(monkeypatch):
    def no_schur(a):
        raise AssertionError("a Schur form was computed")

    monkeypatch.setattr(tensolve, "real_schur", no_schur)
    # 1 + (-1) + 0 = 0
    mats = [np.diag([1.0, 2.0]), np.diag([-1.0, 3.0]), np.diag([0.0, 5.0])]
    sys = _pure_laplace_like(mats)
    with pytest.raises(SingularOperatorError, match="eigenvalue sum"):
        ReducedLaplaceSolver(sys)


@pytest.mark.parametrize("shift", [4.0, -4.0, 0.3], ids=["positive", "negative", "mixed"])
def test_diagonalized_min_eig_sum_equals_full_grid_oracle(shift):
    r = np.random.default_rng(11)
    dims = (5, 4, 6)
    eigs = [shift + r.uniform(-1.0, 1.0, d) for d in dims]
    mats = []
    for e in eigs:
        q, _ = np.linalg.qr(r.standard_normal((e.size, e.size)))
        mats.append(q @ np.diag(e) @ q.T)
    solver = ReducedLaplaceSolver(_pure_laplace_like(mats))
    assert solver.path == "diagonalize"
    vals = [np.linalg.eig(m)[0] for m in mats]
    full = np.abs(vals[0][:, None, None] + vals[1][None, :, None] + vals[2][None, None, :])
    assert solver.min_eig_sum == float(full.min())


def test_equal_modes_share_one_factorization(monkeypatch):
    calls = {"eig": 0, "schur": 0}
    eig, schur = np.linalg.eig, tensolve.real_schur

    def counting_eig(a):
        calls["eig"] += 1
        return eig(a)

    def counting_schur(a):
        calls["schur"] += 1
        return schur(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    monkeypatch.setattr(tensolve, "real_schur", counting_schur)
    sys, fhat = poisson_system(6)
    want = ReshapeSolver(sys).solve(fhat)
    for limit, path in ((tensolve.EIGVEC_COND_LIMIT, "diagonalize"), (0.0, "schur")):
        monkeypatch.setattr(tensolve, "EIGVEC_COND_LIMIT", limit)
        calls.update(eig=0, schur=0)
        solver = ReducedLaplaceSolver(sys)
        assert solver.path == path
        assert calls == {"eig": 1, "schur": int(path == "schur")}
        x, _ = solver.solve(fhat)
        assert np.max(np.abs(x - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("limit", [tensolve.EIGVEC_COND_LIMIT, 0.0], ids=["diagonalize", "schur"])
def test_reduced_solve_is_six_mode_products(monkeypatch, limit):
    # the companion inverses are folded into the entry matrices
    monkeypatch.setattr(tensolve, "EIGVEC_COND_LIMIT", limit)
    sys, fhat = poisson_system(6)
    solver = ReducedLaplaceSolver(sys)
    assert solver.path == ("diagonalize" if limit else "schur")
    modes = []
    mult = tensor3.mode_mult

    def counting_mult(t, m, mode):
        modes.append(mode)
        return mult(t, m, mode)

    monkeypatch.setattr(tensor3, "mode_mult", counting_mult)
    solver.solve(fhat)
    assert modes == [1, 2, 3, 1, 2, 3]


def test_direct_solver_path_follows_the_spectra():
    diag = LaplaceLikeSolver(*[np.diag(rng.uniform(1.0, 2.0, d)) for d in (3, 4, 5)])
    assert diag.path == "diagonalize"
    assert diag.eigvec_cond == pytest.approx([1.0, 1.0, 1.0])
    pair = np.array([[3.0, -1.0], [1.0, 3.0]])  # eigenvalues 3 +- i
    sweep = LaplaceLikeSolver(pair, 2.0 * np.eye(3), np.eye(4))
    assert sweep.path == "schur" and sweep.eigvec_cond is None
    f = rng.standard_normal((2, 3, 4))
    x, _ = sweep.solve(f)
    want = _kronecker_oracle([pair, 2.0 * np.eye(3), np.eye(4)], f)
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("limit", [tensolve.EIGVEC_COND_LIMIT, 0.0], ids=["diagonalize", "schur"])
def test_nan_right_side_raises_on_both_paths(monkeypatch, limit):
    monkeypatch.setattr(tensolve, "EIGVEC_COND_LIMIT", limit)
    sys, fhat = poisson_system(6)
    solver = ReducedLaplaceSolver(sys)
    assert solver.path == ("diagonalize" if limit else "schur")
    f = fhat.copy()
    f[1, 2, 3] = np.nan
    with pytest.raises(SolverError):
        solver.solve(f)


# --- matrix-free operator -----------------------------------------------------------


def test_apply_reduced_zero_and_additivity():
    dims = (4, 4, 4)
    lx = [rng.standard_normal((4, 4)) for _ in range(2)]
    ly = [rng.standard_normal((4, 4)) for _ in range(2)]
    lz = [rng.standard_normal((4, 4)) for _ in range(2)]
    sys2 = synthetic_system(lx, ly, lz)
    npt.assert_array_equal(apply_reduced_operator(sys2, np.zeros(dims)), np.zeros(dims))
    x = rng.standard_normal(dims)
    parts = [
        apply_reduced_operator(synthetic_system([lx[r]], [ly[r]], [lz[r]]), x)
        for r in range(2)
    ]
    npt.assert_allclose(apply_reduced_operator(sys2, x), parts[0] + parts[1], atol=1e-13)


def test_apply_reduced_matches_kronecker():
    dims = (4, 4, 4)
    lx = [rng.standard_normal((4, 4))]
    ly = [rng.standard_normal((4, 4))]
    lz = [rng.standard_normal((4, 4))]
    sys = synthetic_system(lx, ly, lz)
    x = rng.standard_normal(dims)
    big = np.kron(lz[0], np.kron(ly[0], lx[0]))
    npt.assert_allclose(
        vectorize(apply_reduced_operator(sys, x)), big @ vectorize(x), atol=1e-13
    )


# --- GMRES ---------------------------------------------------------------------


def test_gmres_identity_single_iteration():
    rhs = rng.standard_normal((3, 3, 3))
    x, report = gmres_solve(lambda t: t, None, rhs)
    npt.assert_allclose(x, rhs, atol=1e-13)
    assert report.iterations == 1


def test_gmres_matches_dense_solve():
    dims = (3, 4, 5)
    mats = [rng.standard_normal((d, d)) + 4 * np.eye(d) for d in dims]

    def op(t):
        return mode_mult(mode_mult(mode_mult(t, mats[0], 1), mats[1], 2), mats[2], 3)

    rhs = rng.standard_normal(dims)
    x, report = gmres_solve(op, None, rhs, restart=20, tol=1e-13, max_outer=50)
    big = np.kron(mats[2], np.kron(mats[1], mats[0]))
    want = np.linalg.solve(big, vectorize(rhs)).reshape(dims, order="F")
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))


def test_gmres_exact_preconditioner_one_iteration():
    sys, fhat = poisson_system(8)
    solver = ReducedLaplaceSolver(sys)
    x, report = gmres_solve(
        lambda t: apply_reduced_operator(sys, t),
        lambda y: solver.solve(y)[0],
        fhat,
        restart=15,
    )
    assert report.iterations == 1
    direct = ReshapeSolver(sys).solve(fhat)
    assert np.max(np.abs(x - direct)) <= 1e-9 * np.max(np.abs(direct))


def test_gmres_applies_operator_and_preconditioner_iterations_plus_two():
    # one preconditioned right side, one Arnoldi vector per iteration, one
    # residual per cycle; the operator's last call is the true residual
    sys, fhat = poisson_system(8)
    solver = ReducedLaplaceSolver(sys)
    calls = {"op": 0, "precond": 0}

    def op(t):
        calls["op"] += 1
        return apply_reduced_operator(sys, t)

    def precond(y):
        calls["precond"] += 1
        return solver.solve(y)[0]

    _, report = gmres_solve(op, precond, fhat, restart=15)
    assert report.iterations == 1
    assert calls == {"op": report.iterations + 2, "precond": report.iterations + 2}


def test_gmres_poisson_preconditions_helmholtz():
    n = 12
    op = DiffOperator3(orders=(2, 2, 2), coeffs={**LAPLACE, (0, 0, 0): 1.0})
    d = discretize(op, (n, n, n), split_operator(op, (n, n, n), SolverOptions()))
    degrees = (n, n, n)
    rows = [
        [dirichlet(m, -1, 0.0, degrees), dirichlet(m, 1, 0.0, degrees)]
        for m in (1, 2, 3)
    ]
    bset = normalize_leading_identity(assemble_boundary_set(rows, degrees, (2, 2, 2)))
    f = rng.standard_normal((n + 1,) * 3)
    sys = reduce(d, bset)
    fhat = sys.rhs(f)
    psys, _ = poisson_system(n)
    psolver = ReducedLaplaceSolver(psys)
    x, report = gmres_solve(
        lambda t: apply_reduced_operator(sys, t),
        lambda y: psolver.solve(y)[0],
        fhat,
    )
    assert report.iterations <= 10 * 15
    assert report.residual <= 1e-9 * np.max(np.abs(fhat))


def test_gmres_stagnation_reports_best_iterate():
    # a cyclic shift makes GMRES(2) sit at the initial residual
    dims = (8, 1, 1)
    perm = np.roll(np.eye(8), 1, axis=0)

    def op(t):
        return mode_mult(t, perm, 1)

    rhs = np.zeros(dims)
    rhs[0, 0, 0] = 1.0
    with pytest.raises(GmresError) as err:
        gmres_solve(op, None, rhs, restart=2, tol=1e-12, max_outer=50)
    assert err.value.best.shape == dims
    assert err.value.iterations > 0


def test_gmres_iteration_budget_exhaustion():
    dims = (6, 6, 6)
    mats = [rng.standard_normal((6, 6)) + 8 * np.eye(6) for _ in range(3)]

    def op(t):
        return mode_mult(mode_mult(mode_mult(t, mats[0], 1), mats[1], 2), mats[2], 3)

    with pytest.raises(GmresError, match="did not converge"):
        gmres_solve(op, None, rng.standard_normal(dims), restart=2, tol=1e-14, max_outer=1)


# --- backend equivalence (module-level slice of acceptance #3) ------------------------


def test_backend_equivalence_random_systems():
    r = np.random.default_rng(5)
    for _ in range(10):
        dims = tuple(int(d) for d in r.integers(3, 13, 3))
        mats = [r.standard_normal((d, d)) + 4 * np.sqrt(d) * np.eye(d) for d in dims]
        f = r.standard_normal(dims)
        x, _ = LaplaceLikeSolver(*mats).solve(f)
        big = (
            np.kron(np.eye(dims[2] * dims[1]), mats[0])
            + np.kron(np.eye(dims[2]), np.kron(mats[1], np.eye(dims[0])))
            + np.kron(mats[2], np.eye(dims[1] * dims[0]))
        )
        want = np.linalg.solve(big, vectorize(f)).reshape(dims, order="F")
        assert np.max(np.abs(x - want)) <= 1e-9 * np.max(np.abs(want))
