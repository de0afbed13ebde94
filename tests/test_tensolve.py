import numpy as np
import numpy.testing as npt
import pytest

import scipy.linalg

import spectracube.tensolve as tensolve
import spectracube.tensor3 as tensor3
from oracles import gmres_mgs_reference
from spectracube.bc import ReducedSystem, normalize_leading_identity, assemble_boundary_set, dirichlet, reduce
from spectracube.cheb import cheb_interp_3d
from spectracube.drivers import (
    SolverOptions,
    StationarySolver,
    to_output_basis,
    zero_dirichlet_boundary,
)
from spectracube.opdisc import (
    DiffOperator3,
    DiffusionForm,
    discretize,
    split_operator,
)
from spectracube.presets import PRESETS, make_problem
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


def test_reshape_refuses_dense_kronecker_terms_before_building_them(monkeypatch):
    # two terms: dense factors (9 * 16 * 25 = 3600 entries) and identities
    # (3 * 4 * 5 = 60), 3660 in all
    r = np.random.default_rng(3)
    dense = [r.standard_normal((d, d)) + 4 * np.eye(d) for d in (3, 4, 5)]
    sys = synthetic_system(*([m, np.eye(m.shape[0])] for m in dense))
    kron = lambda *args, **kwargs: pytest.fail("sp.kron ran on a refused system")
    monkeypatch.setattr(tensolve.sp, "kron", kron)
    monkeypatch.setattr(tensolve, "RESHAPE_NNZ_CAP", 3659)
    with pytest.raises(tensolve.ReshapeRefusedError, match="estimated 3660 entries, above cap 3659"):
        ReshapeSolver(sys)
    monkeypatch.undo()
    monkeypatch.setattr(tensolve, "RESHAPE_NNZ_CAP", 3660)
    assert tensolve.reshape_refusal(sys) is None
    f = r.standard_normal((3, 4, 5))
    x = ReshapeSolver(sys).solve(f)
    assert np.max(np.abs(apply_reduced_operator(sys, x) - f)) <= 1e-11 * np.max(np.abs(f))


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
def test_equal_modes_share_one_entry_matrix(monkeypatch, limit):
    monkeypatch.setattr(tensolve, "EIGVEC_COND_LIMIT", limit)
    sys, _ = poisson_system(6)
    solves, lu_solve = [], scipy.linalg.lu_solve
    monkeypatch.setattr(scipy.linalg, "lu_solve", lambda *a, **k: solves.append(1) or lu_solve(*a, **k))
    solver = ReducedLaplaceSolver(sys)
    # one companion solve and one entry matrix for the three equal modes
    assert len(solves) == 2
    assert solver._into[0] is solver._into[1] is solver._into[2]
    companion = sys.lhat[0][1]
    npt.assert_allclose(
        solver._into[0], solver._core.into[0] @ np.linalg.inv(companion), rtol=0, atol=1e-12
    )


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
    monkeypatch.setattr(tensolve, "mode_mult", counting_mult)
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
    x, report = gmres_solve(lambda t: t, rhs)
    npt.assert_allclose(x, rhs, atol=1e-13)
    assert report.iterations == 1


def test_gmres_matches_dense_solve():
    dims = (3, 4, 5)
    mats = [rng.standard_normal((d, d)) + 4 * np.eye(d) for d in dims]

    def op(t):
        return mode_mult(mode_mult(mode_mult(t, mats[0], 1), mats[1], 2), mats[2], 3)

    rhs = rng.standard_normal(dims)
    x, report = gmres_solve(op, rhs, restart=20, tol=1e-13, max_outer=50)
    big = np.kron(mats[2], np.kron(mats[1], mats[0]))
    want = np.linalg.solve(big, vectorize(rhs)).reshape(dims, order="F")
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))


def test_gmres_exact_preconditioner_one_iteration():
    sys, fhat = poisson_system(8)
    solver = ReducedLaplaceSolver(sys)
    x, report = gmres_solve(
        lambda t: solver.solve(apply_reduced_operator(sys, t))[0],
        solver.solve(fhat)[0],
        restart=15,
    )
    assert report.iterations == 1
    direct = ReshapeSolver(sys).solve(fhat)
    assert np.max(np.abs(x - direct)) <= 1e-9 * np.max(np.abs(direct))


def test_gmres_applies_operator_iterations_plus_one_and_preconditioner_plus_two():
    # one preconditioned right side, one Arnoldi vector per iteration, one
    # residual per cycle; nothing is applied after convergence
    sys, fhat = poisson_system(8)
    solver = ReducedLaplaceSolver(sys)
    calls = {"op": 0, "precond": 0}

    def op(t):
        calls["op"] += 1
        return apply_reduced_operator(sys, t)

    def precond(y):
        calls["precond"] += 1
        return solver.solve(y)[0]

    _, report = gmres_solve(lambda t: precond(op(t)), precond(fhat), restart=15)
    assert report.iterations == 1
    assert calls == {"op": report.iterations + 1, "precond": report.iterations + 2}


def test_gmres_reports_its_operator_and_preconditioner_applies():
    # GMRES(2) over several restart cycles: the operator runs once per
    # iteration and once per cycle, the preconditioner once more, for the
    # right side the caller maps.  GMRES counts only its ``op`` calls: the
    # P^-1 inside ``op`` is the caller's to count
    r = np.random.default_rng(7)
    mats = [r.standard_normal((4, 4)) + 4 * np.eye(4) for _ in range(3)]
    calls = {"op": 0, "precond": 0}

    def op(t):
        calls["op"] += 1
        return mode_mult(mode_mult(mode_mult(t, mats[0], 1), mats[1], 2), mats[2], 3)

    def precond(t):
        calls["precond"] += 1
        return 0.5 * t

    _, report = gmres_solve(
        lambda t: precond(op(t)), precond(r.standard_normal((4, 4, 4))), restart=2
    )
    # every cycle but the last runs both of its iterations
    cycles = -(-report.iterations // 2)
    assert cycles >= 3
    assert report.extra["operator_applies"] == calls["op"] == report.iterations + cycles
    assert calls["precond"] == report.iterations + cycles + 1


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
        lambda t: psolver.solve(apply_reduced_operator(sys, t))[0], psolver.solve(fhat)[0]
    )
    assert report.iterations <= 10 * 15
    true_res = np.max(np.abs(apply_reduced_operator(sys, x) - fhat))
    assert true_res <= 1e-9 * np.max(np.abs(fhat))


def test_back_substitution_matches_the_lapack_triangular_solve():
    # the least-squares triangle of a GMRES cycle, column j holding rows 0..j
    r = np.random.default_rng(17)
    tri = np.triu(r.standard_normal((15, 15))) + 4 * np.eye(15)
    g = r.standard_normal(16).tolist()
    cols = [tri[: j + 1, j].tolist() for j in range(15)]
    want = scipy.linalg.solve_triangular(tri, g[:15])
    npt.assert_allclose(tensolve._back_substitute(cols, g), want, rtol=1e-13, atol=0.0)
    cols[3][3] = 0.0
    with pytest.raises(SolverError, match="singular Hessenberg matrix at column 3"):
        tensolve._back_substitute(cols, g)


def test_gmres_stagnation_reports_best_iterate():
    # a cyclic shift makes GMRES(2) sit at the initial residual
    dims = (8, 1, 1)
    perm = np.roll(np.eye(8), 1, axis=0)

    def op(t):
        return mode_mult(t, perm, 1)

    rhs = np.zeros(dims)
    rhs[0, 0, 0] = 1.0
    with pytest.raises(GmresError) as err:
        gmres_solve(op, rhs, restart=2, tol=1e-12, max_outer=50)
    assert err.value.best.shape == dims
    assert err.value.iterations > 0


def test_gmres_iteration_budget_exhaustion():
    dims = (6, 6, 6)
    mats = [rng.standard_normal((6, 6)) + 8 * np.eye(6) for _ in range(3)]

    def op(t):
        return mode_mult(mode_mult(mode_mult(t, mats[0], 1), mats[1], 2), mats[2], 3)

    with pytest.raises(GmresError, match="did not converge"):
        gmres_solve(op, rng.standard_normal(dims), restart=2, tol=1e-14, max_outer=1)


def _random_rank2_operator(r, dims):
    """A nonsymmetric rank-2 operator ``t -> sum_r t x1 A_r x2 B_r x3 C_r``."""
    mats = [[r.standard_normal((d, d)) + 3 * np.eye(d) for d in dims] for _ in range(2)]

    def op(t):
        return sum(mode_mult(mode_mult(mode_mult(t, a, 1), b, 2), c, 3) for a, b, c in mats)

    return op


def _diffusion_rank2_case():
    # the reduced system of diffusion-rank2 at n=8 and its separable-term
    # preconditioner
    spec = make_problem("diffusion-rank2", 8)
    solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)
    f_out = to_output_basis(cheb_interp_3d(spec.rhs, *spec.degrees), solver.disc.orders)
    sys = solver.reduced
    return (
        lambda t: apply_reduced_operator(sys, t),
        lambda y: solver._laplace.solve(y)[0],
        sys.rhs(f_out),
    )


@pytest.mark.parametrize(
    "case", ["random-4x4x4", "diffusion-rank2-n8", "gmres2-restarts", "spread-spectrum-64"]
)
def test_cgs2_matches_the_modified_gram_schmidt_reference(case):
    restart = 2 if case == "gmres2-restarts" else 15
    if case == "diffusion-rank2-n8":
        op, precond, rhs = _diffusion_rank2_case()
    else:
        r = np.random.default_rng(11)
        if case == "spread-spectrum-64":
            # 64 distinct eigenvalues over three decades take one 64-vector
            # cycle; a single Gram-Schmidt pass loses enough orthogonality
            # there to need a 65th iteration
            scale = np.logspace(0, 3, 64).reshape(4, 4, 4)
            op, restart = (lambda t: scale * t), 64
        else:
            op = _random_rank2_operator(r, (4, 4, 4))
        precond, rhs = None, r.standard_normal((4, 4, 4))
    want, want_iters = gmres_mgs_reference(op, precond, rhs, restart=restart)
    if precond is None:
        x, report = gmres_solve(op, rhs, restart=restart)
    else:
        x, report = gmres_solve(lambda t: precond(op(t)), precond(rhs), restart=restart)
    assert report.iterations == want_iters
    if case == "gmres2-restarts":
        # the operator runs once per iteration and once per restart cycle
        assert report.extra["operator_applies"] - report.iterations >= 3
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_gmres_solution_does_not_depend_on_the_right_side_layout(layout):
    r = np.random.default_rng(12)
    op = _random_rank2_operator(r, (4, 5, 3))
    if layout == "fortran":
        rhs = np.asfortranarray(r.standard_normal((4, 5, 3)))
        assert not rhs.flags.c_contiguous
    else:
        rhs = r.standard_normal((8, 5, 6))[::2, :, ::2]
        assert not (rhs.flags.c_contiguous or rhs.flags.f_contiguous)
    x, report = gmres_solve(lambda t: 0.5 * op(t), rhs)
    want, want_report = gmres_solve(lambda t: 0.5 * op(t), np.ascontiguousarray(rhs))
    assert report.iterations == want_report.iterations
    assert np.array_equal(x, want)


def test_gmres_maps_only_the_right_side_through_precond():
    # GMRES(2) over several restart cycles on P^-1 A given in one callable
    # and the right side P^-1 rhs: the operator runs once per iteration and
    # once per cycle, and precond once, for the right side the caller maps.
    # GMRES counts only its ``op`` calls: the P^-1 inside ``op`` is the
    # caller's to count
    r = np.random.default_rng(7)
    mats = [r.standard_normal((4, 4)) + 4 * np.eye(4) for _ in range(3)]
    calls = {"op": 0, "precond": 0}

    def op(t):
        calls["op"] += 1
        return 0.5 * tensor3.mode_products(t, mats)

    def precond(t):
        calls["precond"] += 1
        return 0.5 * t

    rhs = r.standard_normal((4, 4, 4))
    x, report = gmres_solve(op, precond(rhs), restart=2)
    # every cycle but the last runs both of its iterations
    cycles = -(-report.iterations // 2)
    assert cycles >= 3
    assert report.extra["operator_applies"] == calls["op"] == report.iterations + cycles
    assert calls["precond"] == 1
    big = np.kron(mats[2], np.kron(mats[1], mats[0]))
    want = np.linalg.solve(big, vectorize(rhs)).reshape(rhs.shape, order="F")
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))


# --- the preconditioned operator P^-1 A ---------------------------------------------


def _kron_sum(terms):
    return sum(np.kron(c, np.kron(b, a)) for a, b, c in terms)


def test_remainder_terms_cancel_merge_and_keep():
    r = np.random.default_rng(13)
    m = lambda: r.standard_normal((3, 3))
    a0, a1, b, c, d, e, f = (m() for _ in range(7))
    p_terms = [(a0, b, c), (a1, b, c), (d, e, f)]
    # P's first term is A's, its second differs in mode 1, its third is unmatched;
    # A's last term is unmatched
    a_terms = [(a0, b, c), (m(), b, c), (m(), m(), c)]
    rest = tensolve._remainder_terms(a_terms, p_terms)
    assert len(rest) == 3
    npt.assert_allclose(_kron_sum(rest), _kron_sum(a_terms) - _kron_sum(p_terms), atol=1e-12)
    assert tensolve._remainder_terms(p_terms, p_terms) == []


def _user_surrogate():
    return DiffOperator3(orders=(2, 2, 2), coeffs={**LAPLACE, (0, 0, 0): 6.5})


# (problem, options, mode products per apply, remainder terms or None, Laplace-like
# path); in the core's basis a factor equal to the mode's companion drops out, the
# terms with one live mode are summed per mode, and no product maps back
PRECONDITIONED_CASES = {
    "eig-potential": ("eig-potential", {}, 4, 2, "diagonalize"),
    "diffusion-rank2": ("diffusion-rank2", {}, 9, 3, "diagonalize"),
    "helmholtz-sqrt": ("helmholtz-sqrt", {}, 22, 8, "diagonalize"),
    "helmholtz-mixed": ("helmholtz-mixed", {}, 22, 8, "schur"),
    # converges at n=12 only because the current CP-ALS rounding picks a
    # restart (3) whose operator terms cancel 156-fold (the sum of the terms'
    # Frobenius norms over the norm of their Kronecker sum); at n=10, 13-20
    # they cancel 414- to 1,820-fold and GMRES stalls on a random right side
    # (the xfail test below).  Any change to CP-ALS arithmetic can flip it.
    "fused-cp": (
        "helmholtz-sqrt", {"split_identity": False, "cp_rank": 10}, 30, None, "diagonalize"
    ),
    "forced-gmres-laplace-like": ("helmholtz-gamma", {"backend": "gmres"}, 0, 0, "diagonalize"),
    "constant-precond": ("diffusion-rank2", {"precond": "constant"}, 18, None, "diagonalize"),
    "user-surrogate": ("helmholtz-sqrt", {"precond": _user_surrogate()}, 22, 8, "diagonalize"),
}


def _preconditioned_case(case, n=12):
    name, kwargs, *_ = PRECONDITIONED_CASES[case]
    options = SolverOptions(**kwargs)
    if name == "eig-potential":
        op = PRESETS[name].operator
        return StationarySolver(op, zero_dirichlet_boundary(op.orders), (n, n, n), options)
    spec = make_problem(name, n, options)
    return StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)


@pytest.mark.parametrize("extra", [False, True], ids=["alone", "then-a-live-term"])
@pytest.mark.parametrize("limit", [tensolve.EIGVEC_COND_LIMIT, 0.0], ids=["diagonalize", "schur"])
def test_preconditioned_apply_leaves_its_input_unwritten(monkeypatch, limit, extra):
    # A is a Laplace-like P plus a term equal to P's companions in all three
    # modes: that remainder term has no live factor in the core's basis, so
    # the apply's sum starts from y itself.  Alone it makes the apply
    # y + core(y); a later term with live factors is added to that sum
    monkeypatch.setattr(tensolve, "EIGVEC_COND_LIMIT", limit)
    r = np.random.default_rng(16)
    dims = (4, 5, 6)
    comps = [np.eye(d) + 0.1 * r.standard_normal((d, d)) for d in dims]
    spd = [(lambda g, d: g @ g.T + d * np.eye(d))(r.standard_normal((d, d)), d) for d in dims]
    (c1, c2, c3), (p1, p2, p3) = comps, [c @ s for c, s in zip(comps, spd)]
    p_hat = ([p1, c1, c1], [c2, p2, c2], [c3, c3, p3])
    sys = synthetic_system(*p_hat)
    laplace = ReducedLaplaceSolver(sys)
    assert laplace.path == ("diagonalize" if limit else "schur")
    a_hat = tuple(mats + [c] for mats, c in zip(p_hat, comps))
    if extra:
        a_hat = tuple(mats + [m] for mats, m in zip(a_hat, (r.standard_normal((4, 4)), c2, p3)))
    pre = laplace.preconditioned(a_hat)
    assert pre.remainder_rank == 1 + extra
    y = r.standard_normal(dims)
    kept = y.copy()
    got = pre.apply(y)
    assert np.array_equal(y, kept)
    if not extra:
        assert np.array_equal(got, y + laplace._core.core_step(y)[0])
    else:
        want = laplace.solve(apply_reduced_operator(synthetic_system(*a_hat), pre.back(y)))[0]
        assert np.linalg.norm(pre.back(got) - want) <= 1e-12 * np.linalg.norm(want)


def _composed_gmres(sys, laplace, fhat):
    """GMRES on ``P^-1 A`` composed in the reduced basis: the operator, then
    the preconditioner's solve."""
    precond = lambda y: laplace.solve(y)[0]
    return gmres_solve(lambda t: precond(apply_reduced_operator(sys, t)), precond(fhat))


@pytest.mark.parametrize("case", sorted(PRECONDITIONED_CASES))
def test_preconditioned_apply_matches_the_composed_apply(case, monkeypatch):
    *_, products_per_apply, remainder_rank, path = PRECONDITIONED_CASES[case]
    solver = _preconditioned_case(case)
    sys, laplace = solver.reduced, solver._laplace
    assert solver.backend == "gmres" and laplace.path == path
    pre = laplace.preconditioned(sys.lhat)
    assert pre.remainder_rank == remainder_rank
    r = np.random.default_rng(14)
    for _ in range(3):
        y = r.standard_normal(sys.shape)
        x = pre.back(y)
        want = laplace.solve(apply_reduced_operator(sys, x))[0]
        products, mode_mult = [], tensor3.mode_mult
        counting = lambda *args: products.append(1) or mode_mult(*args)
        monkeypatch.setattr(tensor3, "mode_mult", counting)
        monkeypatch.setattr(tensolve, "mode_mult", counting)
        got = pre.apply(y)
        monkeypatch.undo()
        assert len(products) == products_per_apply
        assert np.linalg.norm(pre.back(got) - want) <= 1e-11 * np.linalg.norm(want)
        # the right side's map is the preconditioner's solve, left in the basis
        f = r.standard_normal(sys.shape)
        want = laplace.solve(f)[0]
        assert np.linalg.norm(pre.back(pre.rhs(f)) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("case", sorted(PRECONDITIONED_CASES))
def test_preconditioned_apply_keeps_the_gmres_iteration_count(case):
    solver = _preconditioned_case(case)
    sys, laplace = solver.reduced, solver._laplace
    fhat = np.random.default_rng(15).standard_normal(sys.shape)
    want, want_report = _composed_gmres(sys, laplace, fhat)
    pre = laplace.preconditioned(sys.lhat)
    y, report = gmres_solve(pre.apply, pre.rhs(fhat))
    assert report.iterations == want_report.iterations
    x = pre.back(y)
    assert np.max(np.abs(x - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.xfail(strict=True, raises=GmresError, reason=(
    "rounding floor of the fused CP split: its terms cancel 1,820-fold at n=20, and "
    "GMRES stagnates at 9.2e-8 against a target of 1.1e-9 (the composed loop at 2.8e-8)"
))
def test_gmres_on_the_fused_cp_split_reaches_tol_on_a_rough_right_side():
    solver = _preconditioned_case("fused-cp", n=20)
    sys = solver.reduced
    pre = solver._laplace.preconditioned(sys.lhat)
    fhat = np.random.default_rng(15).standard_normal(sys.shape)
    gmres_solve(pre.apply, pre.rhs(fhat))


@pytest.mark.parametrize("case", sorted(PRECONDITIONED_CASES))
def test_schur_basis_gmres_keeps_the_composed_residual_history(case, monkeypatch):
    # the Schur basis is orthogonal, so GMRES minimizes the same 2-norm in it
    # as in the reduced basis; a case on the Schur path by its spectra is
    # held to 1e-9 relative in every entry, a forced one down to 1e-13 of
    # the right side's norm
    natural = PRECONDITIONED_CASES[case][-1] == "schur"
    monkeypatch.setattr(tensolve, "EIGVEC_COND_LIMIT", 0.0)
    solver = _preconditioned_case(case)
    sys, laplace = solver.reduced, solver._laplace
    assert laplace.path == "schur"
    fhat = np.random.default_rng(15).standard_normal(sys.shape)
    want = _composed_gmres(sys, laplace, fhat)[1].extra["residual_history"]
    pre = laplace.preconditioned(sys.lhat)
    got = gmres_solve(pre.apply, pre.rhs(fhat))[1].extra["residual_history"]
    assert len(got) == len(want)
    npt.assert_allclose(got, want, rtol=1e-9, atol=0.0 if natural else 1e-13)


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
