import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from spectracube.bc import constraint_residual
from spectracube.cheb import cheb_interp_3d, eval_cheb_3d, l2_norm_3d
from spectracube.drivers import (
    DiffusionForm,
    FaceBC,
    ProblemSpec,
    SolverOptions,
    StationarySolver,
    adaptive_solve,
    evolve_implicit_euler,
    inverse_iteration,
    sample_points,
    solve_stationary,
    to_output_basis,
    zero_dirichlet_boundary,
)
from spectracube.expr import parse
from spectracube.opdisc import DiffOperator3, apply_operator, split_operator
from spectracube.presets import PRESETS, make_problem
from spectracube.tensolve import GmresError, SolverError

rng = np.random.default_rng(41)

LAPLACE = {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}


def test_poisson_pipeline_error_decay():
    errs = {}
    for n in (10, 20):
        sol = solve_stationary(make_problem("poisson", n))
        errs[n] = sol.error
        assert sol.report.backend == "recursive"
    assert errs[10] == pytest.approx(1.55e-5, rel=0.5)
    assert errs[20] <= 1e-8


def test_backend_override_reshape():
    sol = solve_stationary(make_problem("poisson", 10, SolverOptions(backend="reshape")))
    assert sol.report.backend == "reshape"
    assert sol.error == pytest.approx(1.55e-5, rel=0.5)


def test_combined_residual_recomputed_matches():
    spec = make_problem("helmholtz-const", 10)
    solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)
    f_out = to_output_basis(cheb_interp_3d(spec.rhs, *spec.degrees), solver.disc.orders)
    u, _ = solver.solve_output_rhs(f_out)
    sol = solve_stationary(spec)
    pde = float(np.max(np.abs(apply_operator(solver.disc, u) - f_out)))
    combined = max(pde, constraint_residual(u, solver.bset))
    assert sol.combined_residual == pytest.approx(combined, abs=1e-14)


def test_solution_error_uses_seeded_points():
    spec = make_problem("poisson", 8)
    s1 = solve_stationary(spec)
    s2 = solve_stationary(make_problem("poisson", 8))
    assert s1.error == s2.error
    pts = sample_points(spec.options.seed, spec.options.samples)
    vals = eval_cheb_3d(s1.u, pts[:, 0], pts[:, 1], pts[:, 2])
    ref = spec.exact(pts[:, 0], pts[:, 1], pts[:, 2])
    assert s1.error == pytest.approx(np.max(np.abs(vals - ref)), abs=1e-16)


def test_stage_tagging_on_bad_rhs():
    spec = make_problem("poisson", 8)
    spec.rhs = lambda x, y, z: np.where(x > 0, np.inf, 1.0)
    with pytest.raises(Exception, match=r"\[rhs\]"):
        solve_stationary(spec)


@pytest.mark.parametrize(
    "name, n, options, stages",
    [
        ("poisson", 12, SolverOptions(), ("factorize", "residual", "sampled_error")),
        ("poisson", 8, SolverOptions(backend="reshape"), ("residual", "sampled_error")),
        # gmres computes its true residual inside the solve stage
        ("diffusion-rank2", 8, SolverOptions(), ("preconditioner", "sampled_error")),
        # no exact solution, so no sampled error
        ("helmholtz-mixed", 8, SolverOptions(), ("preconditioner",)),
    ],
)
def test_report_times_every_stage_within_the_call(name, n, options, stages):
    spec = make_problem(name, n, options)
    t0 = time.perf_counter()
    report = solve_stationary(spec).report
    wall = time.perf_counter() - t0
    keys = (
        "discretize", "boundary", "reduce", *stages, "solve", "reconstruct", "rhs",
        "combined_residual",
    )
    assert sorted(report.stages) == sorted(keys)
    assert all(v >= 0.0 for v in report.stages.values())
    assert sum(report.stages.values()) <= wall


# --- adaptive loop ------------------------------------------------------------


def test_adaptive_stops_immediately_for_polynomial_solution():
    op = DiffOperator3(orders=(2, 2, 2), coeffs=dict(LAPLACE))
    spec = ProblemSpec(
        operator=op,
        rhs=lambda x, y, z: np.full(np.broadcast(x, y, z).shape, 6.0),
        boundary={
            (m, s): FaceBC("dirichlet", _sphere_face(m, s))
            for m in (1, 2, 3)
            for s in (-1, 1)
        },
        degrees=(4, 4, 4),
    )
    sol = adaptive_solve(spec, residual_tol=1e-8, n_max=32)
    assert sol.degrees == (4, 4, 4)
    assert len(sol.report.extra["degree_history"]) == 1


def _sphere_face(mode, side):
    def data(a, b):
        return side**2 + a**2 + b**2

    return data


def test_adaptive_poisson_reaches_tolerance_by_32():
    spec = make_problem("poisson", 8)
    sol = adaptive_solve(spec, residual_tol=1e-8, n_max=32)
    assert sol.combined_residual <= 1e-8
    assert max(sol.degrees) <= 32
    assert not sol.report.warnings


def test_adaptive_nonsmooth_hits_cap_with_warning():
    op = DiffOperator3(orders=(2, 2, 2), coeffs=dict(LAPLACE))
    spec = ProblemSpec(
        operator=op,
        rhs=lambda x, y, z: np.abs(x) + 0.0 * y + 0.0 * z,
        boundary=zero_dirichlet_boundary((2, 2, 2)),
        degrees=(4, 4, 4),
    )
    sol = adaptive_solve(spec, residual_tol=1e-12, n_max=16)
    assert sol.report.warnings
    assert "cap" in sol.report.warnings[-1]


def test_adaptive_stops_at_the_cap_with_a_degree_zero_mode():
    # doubling leaves a degree of 0 at 0, so the cap test must not ask every
    # degree to reach n_max
    op = DiffOperator3(orders=(2, 2, 0), coeffs={(2, 0, 0): 1.0, (0, 2, 0): 1.0})
    exact = lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) + 0.0 * z
    spec = ProblemSpec(
        operator=op,
        rhs=lambda x, y, z: -2.0 * np.pi**2 * exact(x, y, z),
        boundary=zero_dirichlet_boundary((2, 2, 0)),
        degrees=(4, 4, 0),
    )
    sol = adaptive_solve(spec, residual_tol=1e-12, n_max=8)
    assert [d for d, _res, _tail in sol.report.extra["degree_history"]] == [(4, 4, 0), (8, 8, 0)]
    assert sol.degrees == (8, 8, 0)
    assert "adaptive degree cap 8 reached" in sol.report.warnings[-1]


def test_adaptive_validates_cap():
    spec = make_problem("poisson", 8)
    with pytest.raises(ValueError):
        adaptive_solve(spec, residual_tol=1e-8, n_max=4)


# --- implicit Euler -------------------------------------------------------------


def test_evolve_zero_step_size_keeps_initial_state():
    pre = PRESETS["heat"]
    states, solver = evolve_implicit_euler(pre.operator, pre.u0, 0.0, 3, (8, 8, 8))
    assert solver.disc.orders == (0, 0, 0)
    for u in states[1:]:
        npt.assert_allclose(u, states[0], atol=1e-13)


def test_evolve_heat_matches_scalar_recurrence():
    pre = PRESETS["heat"]
    h, steps, n = 1e-2, 10, 16
    states, _ = evolve_implicit_euler(pre.operator, pre.u0, h, steps, (n, n, n))
    pts = sample_points(3, 200)
    u0_vals = pre.u0(pts[:, 0], pts[:, 1], pts[:, 2])
    for tau in (1, 5, 10):
        got = eval_cheb_3d(states[tau], pts[:, 0], pts[:, 1], pts[:, 2])
        want = u0_vals / (1.0 + 3.0 * math.pi**2 * h) ** tau
        assert np.max(np.abs(got - want)) <= 1e-8


def test_evolve_norms_non_increasing():
    pre = PRESETS["heat"]
    states, _ = evolve_implicit_euler(pre.operator, pre.u0, 1e-2, 10, (12, 12, 12))
    norms = [l2_norm_3d(u) for u in states]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_evolve_rejects_negative_steps():
    pre = PRESETS["heat"]
    with pytest.raises(ValueError):
        evolve_implicit_euler(pre.operator, pre.u0, 1e-2, -1, (8, 8, 8))


# --- inverse iteration ------------------------------------------------------------


def test_inverse_iteration_rejects_zero_iters():
    pre = PRESETS["eig-potential"]
    with pytest.raises(ValueError):
        inverse_iteration(pre.operator, pre.u0, 0, (8, 8, 8))


def test_laplacian_smallest_eigenvalue():
    op = DiffOperator3(orders=(2, 2, 2), coeffs={k: -v for k, v in LAPLACE.items()})
    u0 = lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
    lam, vec, history, _ = inverse_iteration(op, u0, 50, (20, 20, 20))
    assert lam == pytest.approx(3.0 * math.pi**2 / 4.0, abs=1e-10)
    assert l2_norm_3d(vec) == pytest.approx(1.0, abs=1e-10)
    assert len(history) == 50


def test_potential_problem_rayleigh_settles_monotonically():
    pre = PRESETS["eig-potential"]
    lam, _, history, _ = inverse_iteration(pre.operator, pre.u0, 25, (12, 12, 12))
    diffs = [abs(a - b) for a, b in zip(history, history[1:])]
    # settling with 10x slack after the burn-in iterations; the additive
    # floor covers rounding-level fluctuation around the converged value
    floor = 100 * np.finfo(float).eps * abs(lam)
    for i in range(5, len(diffs) - 1):
        assert diffs[i + 1] <= 10.0 * diffs[i] + floor
    assert lam == pytest.approx(8.011, abs=5e-3)


def test_eig_options_hook_leaves_its_argument_unchanged():
    # the benchmark's eig workload still builds its options through the hook
    opts = SolverOptions()
    assert PRESETS["eig-potential"].extras["options_hook"](opts) is opts
    assert opts == SolverOptions()


def test_eig_potential_splits_exactly_at_default_options():
    # the potential sin(..x..)*sin(..y..)*sin(..z..) is one product term
    # next to the three closed-form terms of the Laplacian: no CP-ALS
    pre = PRESETS["eig-potential"]
    _, _, history, solver = inverse_iteration(pre.operator, pre.u0, 3, (10, 10, 10))
    assert solver.disc.cp_fit is None and solver.disc.rank == 4
    assert len(history) == 3


def test_eig_operator_discretizes_at_rank_four():
    pre = PRESETS["eig-potential"]
    solver = StationarySolver(pre.operator, zero_dirichlet_boundary((2, 2, 2)), (10, 10, 10))
    assert solver.disc.rank == 4
    assert solver.backend == "gmres"


def test_mixed_derivative_operator_falls_back_to_reshape():
    # constant mixed-derivative term: no closed-form split, and a surrogate
    # that keeps the mixed term is equally ineligible, so auto lands on the
    # direct backend
    op = DiffOperator3(
        orders=(2, 2, 2), coeffs={**LAPLACE, (1, 1, 0): 0.1}
    )
    spec = ProblemSpec(
        operator=op,
        rhs=lambda x, y, z: np.ones(np.broadcast(x, y, z).shape),
        boundary=zero_dirichlet_boundary((2, 2, 2)),
        degrees=(8, 8, 8),
        options=SolverOptions(cp_rank=4, cp_restarts=3, precond=op),
    )
    sol = solve_stationary(spec)
    assert sol.report.backend == "reshape"
    assert any("preconditioner unavailable" in w for w in sol.report.warnings)
    assert sol.combined_residual < 1e-3


def test_mixed_derivative_operator_above_reshape_cap_solves_by_gmres():
    # the auto surrogate drops the mixed term, so the preconditioner is the
    # Laplace-like solve of the Laplacian
    op = DiffOperator3(orders=(2, 2, 2), coeffs={**LAPLACE, (1, 1, 0): 0.3})
    s = lambda t: np.sin(np.pi * t)
    c = lambda t: np.cos(np.pi * t)
    spec = ProblemSpec(
        operator=op,
        rhs=lambda x, y, z: np.pi**2 * (0.3 * c(x) * c(y) - 3.0 * s(x) * s(y)) * s(z),
        boundary=zero_dirichlet_boundary((2, 2, 2)),
        degrees=(36, 36, 36),
        exact=lambda x, y, z: s(x) * s(y) * s(z),
    )
    sol = solve_stationary(spec)
    assert sol.report.backend == "gmres"
    assert sol.report.iterations <= 15
    assert not any("preconditioner unavailable" in w for w in sol.report.warnings)
    assert sol.combined_residual < 1e-10
    assert sol.error < 1e-10


def test_diffusion_form_backend_selection():
    sq = lambda t: 1.0 + t**2
    form = DiffusionForm(terms=((sq, sq, sq),))
    solver = StationarySolver(form, zero_dirichlet_boundary((2, 2, 2)), (8, 8, 8))
    assert solver.backend == "recursive"
    form2 = DiffusionForm(terms=((sq, sq, sq), (np.exp, np.exp, np.exp)))
    solver2 = StationarySolver(form2, zero_dirichlet_boundary((2, 2, 2)), (8, 8, 8))
    assert solver2.backend == "gmres"


def test_nonpositive_diffusion_factor_warning_is_in_the_report():
    form = DiffusionForm(terms=((-1.0, 1.0, 1.0),))
    spec = ProblemSpec(
        form, lambda x, y, z: np.cos(x + y + z), zero_dirichlet_boundary((2, 2, 2)), (6, 6, 6)
    )
    with pytest.warns(UserWarning, match="not positive"):
        sol = solve_stationary(spec)
    assert [w for w in sol.report.warnings if "not positive" in w] == [
        "diffusion coefficient factor for mode 1 is not positive on the grid "
        "(min -1); ellipticity is not guaranteed"
    ]


def test_constant_surrogate_of_a_diffusion_form_is_a_scaled_laplacian():
    from spectracube.drivers import _auto_surrogate

    form = DiffusionForm(terms=((2.0, 1.0, 1.0), (1.0, lambda t: 1.0 + 0.0 * t, 1.0)))
    surrogate = _auto_surrogate(form, (6, 6, 6), SolverOptions(precond="constant"))
    # the whole coefficient is 3 on the cube of volume 8
    c = 3.0 * math.sqrt(8.0)
    assert isinstance(surrogate, DiffOperator3) and surrogate.orders == (2, 2, 2)
    assert surrogate.coeffs.keys() == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}
    for val in surrogate.coeffs.values():
        assert val == pytest.approx(-c, rel=1e-13)


@pytest.mark.parametrize(
    "field", ["cp_rank", "mult_rank", "cp_restarts", "gmres_max_outer", "samples"]
)
@pytest.mark.parametrize("value", [0, -1])
def test_solver_options_rejects_counts_below_one(field, value):
    with pytest.raises(ValueError, match=f"'{field}': {value} \\(must be at least 1\\)"):
        SolverOptions(**{field: value})


@pytest.mark.parametrize(
    "kwargs, field, allowed",
    [
        ({"backend": "fast"}, "backend", "auto, recursive, gmres, reshape"),
        ({"precond": "foo"}, "precond", "auto, separable, constant, none"),
    ],
)
def test_solver_options_rejects_unknown_names(kwargs, field, allowed):
    with pytest.raises(ValueError, match=f"'{field}'.*'{next(iter(kwargs.values()))}'") as err:
        SolverOptions(**kwargs)
    assert allowed in str(err.value)


def test_solver_options_accepts_operator_and_separable_precond():
    sq = lambda t: 1.0 + t**2
    SolverOptions(precond=DiffusionForm(terms=((sq, sq, sq),)))
    SolverOptions(precond=DiffOperator3(orders=(2, 2, 2), coeffs=dict(LAPLACE)))
    for backend in ("auto", "recursive", "gmres", "reshape"):
        SolverOptions(backend=backend)


def test_solver_options_rejects_a_bare_separable_triple_as_precond():
    # a surrogate is an operator; a triple must be wrapped in a DiffusionForm
    sq = lambda t: 1.0 + t**2
    with pytest.raises(ValueError, match="bad value for solver option 'precond'"):
        SolverOptions(precond=(sq, sq, sq))


@pytest.mark.parametrize(
    "name, laplace_like",
    [
        ("poisson", True),
        ("helmholtz-const", True),
        ("helmholtz-gamma", True),
        ("diffusion-sep", True),
        ("diffusion-rank2", False),
        ("helmholtz-sqrt", False),
        ("helmholtz-mixed", False),
    ],
)
def test_laplace_like_structure_is_read_off_the_reduced_system(name, laplace_like):
    spec = make_problem(name, 8)
    solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)
    assert solver.reduced.laplace_like is laplace_like
    assert solver.backend == ("recursive" if laplace_like else "gmres")


def test_constant_mixed_derivative_operator_is_not_laplace_like():
    op = DiffOperator3(orders=(2, 2, 2), coeffs={**LAPLACE, (1, 1, 0): 0.3})
    solver = StationarySolver(op, zero_dirichlet_boundary((2, 2, 2)), (8, 8, 8))
    assert not solver.reduced.laplace_like


@pytest.mark.parametrize("split_identity", [True, False])
def test_report_carries_cp_als_restart_and_sweeps(split_identity):
    options = SolverOptions(split_identity=split_identity, cp_rank=10)
    spec = make_problem("helmholtz-sqrt", 8, options)
    split = split_operator(spec.operator, spec.degrees, options)
    assert split.fit.restart is not None
    assert len(split.fit.sweeps) == options.cp_restarts
    report = solve_stationary(spec).report
    assert report.extra["cp_restart"] == split.fit.restart
    assert report.extra["cp_sweeps"] == split.fit.sweeps
    assert report.extra["cp_core_dims"] == split.fit.core_dims == (5, 5, 5)
    assert report.cp_error == split.error
    assert not split.fit.regularized
    assert not any("ridge" in w for w in report.warnings)


@pytest.mark.parametrize("cp_seed", range(10))
def test_report_warns_when_the_cp_als_winner_needed_a_ridge(cp_seed):
    # a zero-order coefficient with a 1x1x1 Tucker core, fitted at rank 2,
    # leaves singular Grams
    op = DiffOperator3(orders=(2, 2, 2), coeffs={**LAPLACE, (0, 0, 0): parse("exp(x+y+z)")})
    options = SolverOptions(mult_rank=2, cp_seed=cp_seed)
    fit = split_operator(op, (6, 6, 6), options).fit
    assert fit.regularized
    solver = StationarySolver(op, zero_dirichlet_boundary(op.orders), (6, 6, 6), options)
    _, report = solver.solve_cheb_rhs(np.ones((7, 7, 7)))
    ridged = [w for w in report.warnings if "ridge" in w]
    assert len(ridged) == 1 and f"restart {fit.restart} " in ridged[0]


def test_report_has_no_cp_als_fields_without_cp_als():
    report = solve_stationary(make_problem("poisson", 6)).report
    assert "cp_restart" not in report.extra and "cp_sweeps" not in report.extra
    assert "cp_core_dims" not in report.extra


def test_gmres_failure_names_the_cp_als_split():
    options = SolverOptions(split_identity=False, cp_rank=1, gmres_max_outer=2)
    spec = make_problem("helmholtz-sqrt", 10, options)
    with pytest.raises(SolverError, match=r"^\[solve\] gmres did not converge") as err:
        solve_stationary(spec)
    fit = split_operator(spec.operator, spec.degrees, options).fit
    message = str(err.value)
    assert f"cp_rank 1 and cp_error {fit.error:.3g}; a higher cp_rank may help" in message
    inner = err.value.original
    assert isinstance(inner, GmresError) and inner.best.shape == (9, 9, 9)
    assert inner.iterations == 30 and str(inner) in message


def test_constant_mixed_derivative_operator_solves_without_cp_als():
    op = DiffOperator3(orders=(2, 2, 2), coeffs={**LAPLACE, (1, 1, 0): 0.3})
    solver = StationarySolver(op, zero_dirichlet_boundary(op.orders), (8, 8, 8))
    assert solver.disc.rank == 4 and solver.disc.cp_fit is None
    _, report = solver.solve_cheb_rhs(np.ones((9, 9, 9)))
    assert report.cp_error == 0.0
    assert "cp_sweeps" not in report.extra and "cp_restart" not in report.extra
    assert not any("ridge" in w for w in report.warnings)


def test_make_problem_never_shares_a_boundary_dict():
    for name, preset in PRESETS.items():
        if preset.kind != "stationary":
            continue
        a, b = make_problem(name, 4), make_problem(name, 4)
        assert a.boundary == b.boundary and a.boundary is not b.boundary
        a.boundary.clear()
        assert make_problem(name, 4).boundary == b.boundary


@pytest.mark.parametrize(
    "name, n, backend, path",
    [
        ("poisson", 8, "recursive", "diagonalize"),
        ("diffusion-rank2", 8, "gmres", "diagonalize"),
        # the Neumann face gives the mode-1 surrogate matrix complex eigenvalues
        ("helmholtz-mixed", 12, "gmres", "schur"),
    ],
)
def test_report_names_the_laplace_like_path(name, n, backend, path):
    report = solve_stationary(make_problem(name, n)).report
    assert report.backend == backend
    assert report.extra["laplace_path"] == path
    cond = report.extra["eigvec_cond"]
    if path == "diagonalize":
        assert len(cond) == 3 and all(1.0 <= c <= 1e3 for c in cond)
    else:
        assert cond is None
    assert report.extra["min_eig_sum"] > 0.0


def test_first_order_mode_takes_the_schur_sweep_end_to_end():
    # u_xx + u_yy + u_z with a first-order z mode: its transformed matrix has
    # a complex spectrum, so the recursive solve must run the Schur sweep
    pi = np.pi

    def exact(x, y, z):
        return np.sin(pi * x) * np.sin(pi * y) * (z + 1.0) * np.exp(z)

    def rhs(x, y, z):
        return np.sin(pi * x) * np.sin(pi * y) * np.exp(z) * ((z + 2.0) - 2.0 * pi**2 * (z + 1.0))

    op = DiffOperator3(orders=(2, 2, 1), coeffs={(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 1): 1.0})
    sols = {
        backend: solve_stationary(ProblemSpec(
            op, rhs, zero_dirichlet_boundary(op.orders), (16, 16, 12),
            SolverOptions(backend=backend), exact=exact,
        ))
        for backend in ("recursive", "reshape")
    }
    rec = sols["recursive"]
    assert rec.report.extra["laplace_path"] == "schur"
    assert rec.error <= 1e-9
    gap = np.max(np.abs(rec.u - sols["reshape"].u)) / np.max(np.abs(sols["reshape"].u))
    assert gap <= 1e-11


def test_diagonalized_recursive_solve_reports_no_sylvester_solves():
    report = solve_stationary(make_problem("poisson", 8)).report
    assert report.iterations == 0


@pytest.mark.parametrize(
    "options", [SolverOptions(backend="reshape"), SolverOptions(backend="gmres", precond="none")],
    ids=["reshape", "gmres-unpreconditioned"],
)
def test_report_has_no_laplace_fields_without_a_laplace_like_solve(options):
    report = solve_stationary(make_problem("poisson", 6, options)).report
    assert not {"laplace_path", "eigvec_cond", "min_eig_sum"} & report.extra.keys()


def test_reshape_factorizes_once_per_solver(monkeypatch):
    import scipy.sparse.linalg as spla

    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    spec = make_problem("poisson", 8, SolverOptions(backend="reshape"))
    solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)
    assert calls == []
    f1 = cheb_interp_3d(spec.rhs, *spec.degrees)
    f2 = rng.standard_normal(f1.shape)
    u1, r1 = solver.solve_cheb_rhs(f1)
    assert len(calls) == 1
    u2, r2 = solver.solve_cheb_rhs(f2)
    assert len(calls) == 1
    assert r1.backend == r2.backend == "reshape"
    recursive = StationarySolver(spec.operator, spec.boundary, spec.degrees)
    for u, f in ((u1, f1), (u2, f2)):
        want, _ = recursive.solve_cheb_rhs(f)
        assert np.max(np.abs(u - want)) <= 1e-10 * np.max(np.abs(want))


# --- boundary data and the gmres preconditioner ---------------------------------------


def _count_mode_mults(monkeypatch) -> list:
    """Count ``tensor3.mode_mult`` calls through every package binding of it."""
    import sys

    import spectracube.tensor3 as tensor3

    calls, original = [], tensor3.mode_mult

    def counting(*args):
        calls.append(1)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("spectracube") and getattr(module, "mode_mult", None) is original:
            monkeypatch.setattr(module, "mode_mult", counting)
    return calls


def test_face_data_cost_no_mode_products_per_solve(monkeypatch):
    # the boundary data are carried through the operator once, in reduce
    quadratic = lambda a, b: 1.0 + a**2 + b**2
    zero_data = zero_dirichlet_boundary((2, 2, 2))
    with_data = {face: FaceBC("dirichlet", quadratic) for face in zero_data}
    op = DiffOperator3(orders=(2, 2, 2), coeffs=dict(LAPLACE))
    f = rng.standard_normal((9, 9, 9))
    counts = []
    for boundary in (zero_data, with_data):
        solver = StationarySolver(op, boundary, (8, 8, 8))
        assert (solver.reduced.lift is None) == (boundary is not with_data)
        calls = _count_mode_mults(monkeypatch)
        solver.solve_output_rhs(f)
        counts.append(len(calls))
        monkeypatch.undo()
    assert counts[0] == counts[1] > 0


def test_forced_gmres_on_a_laplace_like_operator_preconditions_with_itself(monkeypatch):
    import spectracube.drivers as drivers

    surrogates = []
    auto_surrogate = drivers._auto_surrogate

    def counting_surrogate(*args):
        surrogates.append(1)
        return auto_surrogate(*args)

    monkeypatch.setattr(drivers, "_auto_surrogate", counting_surrogate)
    sol = solve_stationary(make_problem("helmholtz-gamma", 12, SolverOptions(backend="gmres")))
    assert sol.report.backend == "gmres"
    assert sol.report.iterations == 1
    assert surrogates == []
    want = solve_stationary(make_problem("helmholtz-gamma", 12)).u
    assert np.max(np.abs(sol.u - want)) <= 1e-10 * np.max(np.abs(want))


def test_forced_gmres_takes_the_surrogate_when_the_own_system_is_refused(monkeypatch):
    import spectracube.tensolve as tensolve

    # at n=12 the y-factor 1 + 0.9y gives the operator's own mode-2
    # companion cond ~470; the constant surrogate's companions have ~110
    monkeypatch.setattr(tensolve, "COMPANION_COND_LIMIT", 200.0)
    form = DiffusionForm(terms=((1.0, lambda t: 1.0 + 0.9 * t, 1.0),))
    boundary = zero_dirichlet_boundary((2, 2, 2))
    rhs = lambda x, y, z: np.exp(x - y) * np.cos(z)
    degrees = (12, 12, 12)
    with pytest.raises(tensolve.SolverError, match="mode-2 companion"):
        StationarySolver(form, boundary, degrees, SolverOptions(backend="recursive"))
    opts = SolverOptions(backend="gmres", precond="constant")
    sol = solve_stationary(ProblemSpec(form, rhs, boundary, degrees, opts))
    want = solve_stationary(
        ProblemSpec(form, rhs, boundary, degrees, SolverOptions(backend="reshape"))
    ).u
    assert sol.report.backend == "gmres"
    assert sol.report.iterations > 1
    assert np.max(np.abs(sol.u - want)) <= 1e-10 * np.max(np.abs(want))
