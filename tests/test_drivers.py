import math
import time
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import inner_product_3d_reference

import spectracube.cheb as cheb
import spectracube.tensolve as tensolve
from spectracube.bc import constraint_residual, dirichlet, neumann
from spectracube.cheb import cheb_interp_3d, eval_cheb_3d, l2_norm_3d
from spectracube.drivers import (
    DiffusionForm,
    FaceBC,
    ProblemSpec,
    SolverOptions,
    StationarySolver,
    _rhs_output_tensor,
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
from spectracube.tensolve import (
    COMPANION_COND_LIMIT,
    GmresError,
    ReducedLaplaceSolver,
    SolverError,
    apply_reduced_operator,
)

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


def _recomputed_combined_residual(spec, u):
    solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)
    f_out = to_output_basis(cheb_interp_3d(spec.rhs, *spec.degrees), solver.disc.orders)
    pde = float(np.max(np.abs(apply_operator(solver.disc, u) - f_out)))
    return max(pde, constraint_residual(u, solver.bset))


def test_combined_residual_recomputed_matches():
    spec = make_problem("helmholtz-const", 10)
    solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)
    f_out = to_output_basis(cheb_interp_3d(spec.rhs, *spec.degrees), solver.disc.orders)
    u, _ = solver.solve_output_rhs(f_out)
    sol = solve_stationary(spec)
    combined = _recomputed_combined_residual(spec, u)
    assert sol.combined_residual == pytest.approx(combined, abs=1e-14)


@pytest.mark.parametrize("backend", ["recursive", "reshape", "gmres"])
def test_report_residual_is_the_combined_residual(backend):
    spec = make_problem("helmholtz-const", 10, SolverOptions(backend=backend))
    sol = solve_stationary(spec)
    assert sol.report.backend == backend
    assert sol.report.residual == sol.combined_residual
    combined = _recomputed_combined_residual(spec, sol.u)
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
    for bad in (np.inf, np.nan):
        spec = make_problem("poisson", 8)
        spec.rhs = lambda x, y, z: np.where(x > 0, bad, 1.0)
        with pytest.raises(
            SolverError,
            match=r"^\[rhs\] function returned non-finite samples on the Chebyshev grid$",
        ):
            solve_stationary(spec)


def _reference_output_rhs(f, degrees, orders):
    """The right side through the DCT-I interpolant, then the conversions."""
    return to_output_basis(cheb_interp_3d(f, *degrees), orders)


def _stub(f, degrees, orders):
    """The spec and solver fields ``_rhs_output_tensor`` reads."""
    return (
        SimpleNamespace(rhs=f, degrees=degrees),
        SimpleNamespace(disc=SimpleNamespace(orders=orders)),
    )


@settings(max_examples=60, deadline=None)
@given(
    orders=st.tuples(*[st.integers(0, 2)] * 3),
    degrees=st.tuples(*[st.integers(0, 12)] * 3),
    seed=st.integers(0, 2**31),
)
@example(orders=(0, 1, 2), degrees=(0, 1, 12), seed=5)
@example(orders=(2, 2, 0), degrees=(1, 0, 3), seed=6)
def test_rhs_output_tensor_matches_interpolation_then_conversion(orders, degrees, seed):
    a, b, c, d = np.random.default_rng(seed).uniform(-2.0, 2.0, 4)

    def f(x, y, z):
        return np.exp(a * x) * np.cos(b * y + c * z) + d * x * y**2 * z**3

    spec, solver = _stub(f, degrees, orders)
    got = _rhs_output_tensor(spec, solver)
    want = _reference_output_rhs(f, degrees, orders)
    assert got.shape == tuple(n + 1 for n in degrees)
    npt.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


@pytest.mark.parametrize(
    "f",
    [lambda x, y, z: 3.0, lambda x, y, z: np.sin(2.0 * z), lambda x, y, z: 1.0 + x],
    ids=["scalar", "z-only", "x-only"],
)
@pytest.mark.parametrize("orders", [(2, 2, 2), (0, 1, 2), (1, 0, 0)])
def test_rhs_output_tensor_of_broadcast_samples(f, orders):
    degrees = (7, 0, 9)
    got = _rhs_output_tensor(*_stub(f, degrees, orders))
    want = _reference_output_rhs(f, degrees, orders)
    npt.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


def test_rhs_output_tensor_of_a_prepared_solver():
    spec = make_problem("helmholtz-mixed", 10)
    solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)
    want = _reference_output_rhs(spec.rhs, spec.degrees, solver.disc.orders)
    got = _rhs_output_tensor(spec, solver)
    npt.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


@pytest.mark.parametrize(
    "name, n, options, stages",
    [
        ("poisson", 12, SolverOptions(), ("factorize", "sampled_error")),
        ("poisson", 8, SolverOptions(backend="reshape"), ("sampled_error",)),
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
    # one residual stage for every backend
    keys = (
        "discretize", "boundary", "reduce", *stages, "solve", "reconstruct", "residual",
        "rhs",
    )
    assert sorted(report.stages) == sorted(keys)
    assert all(v >= 0.0 for v in report.stages.values())
    assert sum(report.stages.values()) <= wall


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


@pytest.mark.parametrize("name, n", [("poisson", 8), ("diffusion-rank2", 8)])
def test_solve_cheb_rhs_reuses_the_conversion_of_to_output_basis(name, n):
    spec = make_problem(name, n)
    solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)
    r = np.random.default_rng(3)
    for _ in range(2):  # the second call reuses the conversion matrices
        u = r.standard_normal((n + 1,) * 3)
        got, _ = solver.solve_cheb_rhs(u)
        want, _ = solver.solve_output_rhs(to_output_basis(u, solver.disc.orders))
        assert np.array_equal(got, want)


def test_evolve_states_equal_solves_of_freshly_converted_states():
    # each step is bit for bit a solve of the previous state converted by
    # to_output_basis, which builds its matrices on every call
    pre = PRESETS["heat"]
    states, solver = evolve_implicit_euler(pre.operator, pre.u0, 1e-2, 10, (12, 12, 12))
    assert np.array_equal(states[0], cheb_interp_3d(pre.u0, 12, 12, 12))
    for prev, got in zip(states, states[1:]):
        want, _ = solver.solve_output_rhs(to_output_basis(prev, solver.disc.orders))
        assert np.array_equal(got, want)


def test_evolve_step_of_a_variable_coefficient_generator_is_the_step_operator_solve():
    # one backward Euler step of L equals the stationary solve of I - hL,
    # with I - hL written out by hand
    generator = DiffOperator3(
        orders=(2, 2, 2),
        coeffs={(2, 0, 0): parse("1+x^2/2"), (0, 2, 0): 1.0, (0, 0, 2): 1.0,
                (0, 0, 0): parse("-y*z")},
    )
    step = DiffOperator3(
        orders=(2, 2, 2),
        coeffs={(2, 0, 0): parse("-0.01*(1+x^2/2)"), (0, 2, 0): -0.01, (0, 0, 2): -0.01,
                (0, 0, 0): parse("1+0.01*y*z")},
    )
    u0 = lambda x, y, z: np.cos(x) * (1 - y**2) * np.exp(z)
    degrees = (10, 10, 10)
    states, solver = evolve_implicit_euler(generator, u0, 0.01, 1, degrees)
    assert solver.backend == "gmres"
    direct = StationarySolver(step, zero_dirichlet_boundary((2, 2, 2)), degrees)
    want, _ = direct.solve_cheb_rhs(cheb_interp_3d(u0, *degrees))
    npt.assert_allclose(states[1], want, rtol=0, atol=1e-11 * np.max(np.abs(want)))


def test_steps_skip_the_combined_residual_and_nothing_else(monkeypatch):
    # residual=False drops the residual from the report and leaves the
    # solution bit-identical; both step loops pass it on every step
    generator = DiffOperator3(
        orders=(2, 2, 2),
        coeffs={**LAPLACE, (2, 0, 0): parse("1+x^2/2"), (0, 0, 0): parse("-y*z")},
    )
    u0 = lambda x, y, z: np.cos(x) * (1 - y**2) * np.exp(z)
    degrees = (8, 8, 8)
    states, solver = evolve_implicit_euler(generator, u0, 0.01, 3, degrees)
    assert solver.backend == "gmres"
    u = states[0]
    for got in states[1:]:
        u, report = solver.solve_cheb_rhs(u, residual=True)
        assert np.array_equal(got, u) and report.residual is not None
    f_out = to_output_basis(states[0], solver.disc.orders)
    with_res, full = solver.solve_output_rhs(f_out, residual=True)
    without, skipped = solver.solve_output_rhs(f_out, residual=False)
    assert np.array_equal(without, with_res)
    assert skipped.residual is None and "residual" not in skipped.stages
    assert "residual" in full.stages and skipped.iterations == full.iterations
    flags = []
    solve_cheb_rhs = StationarySolver.solve_cheb_rhs

    def spy(self, f_cheb, residual=True):
        flags.append(residual)
        return solve_cheb_rhs(self, f_cheb, residual=residual)

    monkeypatch.setattr(StationarySolver, "solve_cheb_rhs", spy)
    pre = PRESETS["eig-potential"]
    inverse_iteration(pre.operator, pre.u0, 4, degrees)
    assert flags == [False] * 4


def test_evolve_rejects_negative_steps():
    pre = PRESETS["heat"]
    with pytest.raises(ValueError):
        evolve_implicit_euler(pre.operator, pre.u0, 1e-2, -1, (8, 8, 8))


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_evolve_rejects_a_non_finite_step_size(h):
    pre = PRESETS["heat"]
    with pytest.raises(ValueError, match="step size must be finite"):
        evolve_implicit_euler(pre.operator, pre.u0, h, 1, (8, 8, 8))


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


def test_inverse_iteration_history_matches_the_reference_inner_product(monkeypatch):
    # the Rayleigh quotients and norms from one Gram apply per step agree
    # with the inner product by re-interpolation, on the same iterates
    pre = PRESETS["eig-potential"]
    solves = []
    solve_cheb_rhs = StationarySolver.solve_cheb_rhs

    def recorded(self, f_cheb, residual=True):
        w, report = solve_cheb_rhs(self, f_cheb, residual=residual)
        solves.append((f_cheb, w))
        return w, report

    monkeypatch.setattr(StationarySolver, "solve_cheb_rhs", recorded)
    lam, vec, history, _ = inverse_iteration(pre.operator, pre.u0, 6, (10, 10, 10))
    assert len(solves) == len(history) == 6 and lam == history[-1]
    v = cheb_interp_3d(pre.u0, 10, 10, 10)
    for (vhat, w), estimate in zip(solves, history):
        want = v / np.sqrt(inner_product_3d_reference(v, v))
        assert np.max(np.abs(vhat - want)) <= 1e-14 * np.max(np.abs(want))
        assert abs(1.0 / inner_product_3d_reference(vhat, w) - estimate) <= 1e-14 * abs(estimate)
        v = w
    want = v / np.sqrt(inner_product_3d_reference(v, v))
    assert np.max(np.abs(vec - want)) <= 1e-14 * np.max(np.abs(want))
    assert abs(np.sqrt(inner_product_3d_reference(vec, vec)) - 1.0) <= 1e-14


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


def test_fallback_to_reshape_is_refused_above_the_entry_cap(monkeypatch):
    # the fallback of the test above, with a Kronecker entry cap below the
    # system's estimate: the preconditioner's error names the refusal
    monkeypatch.setattr(tensolve, "RESHAPE_NNZ_CAP", 1000)
    op = DiffOperator3(orders=(2, 2, 2), coeffs={**LAPLACE, (1, 1, 0): 0.1})
    options = SolverOptions(cp_rank=4, cp_restarts=3, precond=op)
    with pytest.raises(SolverError, match=r"no reshape fallback: .*estimated \d+ entries, above cap 1000"):
        StationarySolver(op, zero_dirichlet_boundary((2, 2, 2)), (8, 8, 8), options)


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


def _warning_problem(case):
    """``(operator, boundary, degrees, options, message)`` of a problem whose
    preparation warns, ``message`` a pattern of its warning."""
    if case == "diffusion":
        # two terms: gmres, and the first-term surrogate repeats the warning
        form = DiffusionForm(terms=((-1.0, 1.0, 1.0), (1.0, np.exp, 1.0)))
        return form, zero_dirichlet_boundary((2, 2, 2)), (6, 6, 6), None, "not positive"
    if case == "edge":
        boundary = {**zero_dirichlet_boundary((2, 2, 2)), (1, 1): FaceBC("dirichlet", 1.0)}
        op = DiffOperator3(orders=(2, 2, 2), coeffs=LAPLACE)
        return op, boundary, (6, 6, 6), None, "incompatible along shared edges"
    if case == "ridge":
        op = DiffOperator3(orders=(2, 2, 2), coeffs={**LAPLACE, (0, 0, 0): parse("exp(x+y+z)")})
        options = SolverOptions(mult_rank=2)
        return op, zero_dirichlet_boundary((2, 2, 2)), (6, 6, 6), options, "ridge"
    op = DiffOperator3(orders=(2, 2, 2), coeffs={**LAPLACE, (1, 1, 0): 0.1})
    options = SolverOptions(cp_rank=4, cp_restarts=3, precond=op)
    return op, zero_dirichlet_boundary((2, 2, 2)), (8, 8, 8), options, "preconditioner unavailable"


@pytest.mark.parametrize("case", ["diffusion", "edge", "ridge", "fallback"])
def test_report_warnings_are_the_user_warnings_of_the_preparation(case):
    operator, boundary, degrees, options, message = _warning_problem(case)
    with pytest.warns(UserWarning, match=message) as record:
        solver = StationarySolver(operator, boundary, degrees, options)
    issued = [str(w.message) for w in record if issubclass(w.category, UserWarning)]
    # each message is issued once, in the order it was raised
    assert len(issued) == len(set(issued))
    _, report = solver.solve_cheb_rhs(np.ones(tuple(n + 1 for n in degrees)))
    assert report.warnings == solver.warnings == issued


def test_preparation_warnings_are_issued_when_a_later_stage_fails():
    # Neumann data on both x faces make the leading boundary block singular
    form = DiffusionForm(terms=((-1.0, 1.0, 1.0),))
    boundary = {
        **zero_dirichlet_boundary((2, 2, 2)),
        (1, -1): FaceBC("neumann", 0.0),
        (1, 1): FaceBC("neumann", 0.0),
    }
    with pytest.warns(UserWarning, match="not positive"):
        with pytest.raises(SolverError, match=r"^\[boundary\] mode 1"):
            StationarySolver(form, boundary, (6, 6, 6))


def test_constant_surrogate_of_a_diffusion_form_is_a_scaled_laplacian():
    from spectracube.drivers import _auto_surrogate

    form = DiffusionForm(terms=((2.0, 1.0, 1.0), (1.0, lambda t: 1.0 + 0.0 * t, 1.0)))
    surrogate = _auto_surrogate(form, (6, 6, 6), SolverOptions(precond="constant"))
    # the whole coefficient is 3, so its RMS over the cube is 3
    c = 3.0
    assert isinstance(surrogate, DiffOperator3) and surrogate.orders == (2, 2, 2)
    assert surrogate.coeffs.keys() == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}
    for val in surrogate.coeffs.values():
        assert val == pytest.approx(-c, rel=1e-13)


def test_constant_surrogate_keeps_a_constant_written_as_an_expression():
    from spectracube.drivers import _auto_surrogate

    op = DiffOperator3(orders=(2, 2, 2), coeffs={**LAPLACE, (0, 0, 0): parse("3 + 0*x")})
    surrogate = _auto_surrogate(op, (6, 6, 6), SolverOptions())
    assert surrogate.coeffs[(0, 0, 0)] == pytest.approx(3.0, rel=1e-13)
    assert {k: v for k, v in surrogate.coeffs.items() if k != (0, 0, 0)} == LAPLACE


def test_constant_surrogate_keeps_the_sign_of_a_negative_coefficient():
    from spectracube.drivers import _auto_surrogate

    # the d2/dx2 coefficient of an implicit Euler step, -h (1 + x^2/2)
    op = DiffOperator3(
        orders=(2, 2, 2), coeffs={**LAPLACE, (2, 0, 0): parse("-0.01*(1+x^2/2)")}
    )
    surrogate = _auto_surrogate(op, (8, 8, 8), SolverOptions())
    # the RMS of 1 + x^2/2 over the cube is sqrt(1 + 1/3 + 1/20)
    assert surrogate.coeffs[(2, 0, 0)] == pytest.approx(-0.01 * math.sqrt(83 / 60), rel=1e-13)


def test_helmholtz_mixed_converges_in_few_gmres_iterations():
    # the surrogate's constant is the RMS of sqrt(x+y+z+42)
    report = solve_stationary(make_problem("helmholtz-mixed", 30)).report
    assert report.backend == "gmres" and report.extra["laplace_path"] == "schur"
    assert report.iterations <= 8


@pytest.mark.parametrize(
    "name, options, remainder_rank",
    [
        ("diffusion-rank2", SolverOptions(), 3),
        ("helmholtz-sqrt", SolverOptions(), 8),
        ("helmholtz-sqrt", SolverOptions(split_identity=False, cp_rank=10), None),
        ("helmholtz-gamma", SolverOptions(backend="gmres"), 0),
    ],
)
def test_report_gives_the_remainder_rank_of_the_preconditioned_operator(
    name, options, remainder_rank
):
    report = solve_stationary(make_problem(name, 10, options)).report
    assert report.backend == "gmres"
    assert report.extra["remainder_rank"] == remainder_rank
    # a P^-1 A apply counts as one operator and one preconditioner apply, but
    # with an empty remainder it is a copy that applies no P^-1; the right
    # side's P^-1 is the one more
    applies = report.extra["operator_applies"] if remainder_rank != 0 else 0
    assert report.extra["precond_applies"] == applies + 1


def test_gmres_with_an_empty_remainder_counts_only_the_right_sides_precond_apply():
    # the Laplace-like poisson system is its own preconditioner: P^-1 A is
    # the identity, so the only P^-1 that runs is the right side's
    report = solve_stationary(make_problem("poisson", 8, SolverOptions(backend="gmres"))).report
    assert report.backend == "gmres" and report.extra["remainder_rank"] == 0
    assert report.iterations == 1
    assert report.extra["operator_applies"] == 2
    assert report.extra["precond_applies"] == 1


def test_report_has_no_remainder_rank_without_a_preconditioner():
    options = SolverOptions(backend="gmres", precond="none")
    assert "remainder_rank" not in solve_stationary(make_problem("poisson", 6, options)).report.extra


def test_preconditioned_apply_is_built_once_in_the_first_solve(monkeypatch):
    built = []
    original = ReducedLaplaceSolver.preconditioned

    def counting(*args):
        built.append(1)
        return original(*args)

    monkeypatch.setattr(ReducedLaplaceSolver, "preconditioned", counting)
    op = PRESETS["eig-potential"].operator
    solver = StationarySolver(op, zero_dirichlet_boundary(op.orders), (8, 8, 8))
    assert solver.backend == "gmres" and built == []
    f = rng.standard_normal((9, 9, 9))
    for _ in range(3):
        solver.solve_output_rhs(f)
    assert built == [1]


@pytest.mark.parametrize(
    "field", ["cp_rank", "mult_rank", "cp_restarts", "gmres_max_outer", "samples", "seed", "cp_seed"]
)
@pytest.mark.parametrize("value", [0, -1])
def test_solver_options_rejects_counts_below_one(field, value):
    # a seed may be 0, so its cases are one lower: -1 and -2
    least = 0 if field.endswith("seed") else 1
    value += least - 1
    with pytest.raises(ValueError, match=f"'{field}': {value} \\(must be at least {least}\\)"):
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
    # how far the winner stopped from tol: every restart runs all 500 sweeps
    change = split.fit.fit_change[split.fit.restart]
    assert report.extra["cp_fit_change"] == change
    if not split_identity:
        assert split.fit.sweeps == (500,) * options.cp_restarts and change >= 1e-12
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
    assert "cp_core_dims" not in report.extra and "cp_fit_change" not in report.extra


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


def test_failed_preconditioned_solve_hands_back_the_best_iterate_in_the_reduced_basis():
    # GMRES runs in the preconditioner's basis; the best iterate it fails
    # with is mapped back before the error leaves the solver
    options = SolverOptions(split_identity=False, cp_rank=1, gmres_max_outer=2)
    spec = make_problem("helmholtz-sqrt", 10, options)
    solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, options)
    f_out = _rhs_output_tensor(spec, solver)
    with pytest.raises(SolverError, match=r"^\[solve\] gmres did not converge") as err:
        solver.solve_output_rhs(f_out)
    best = err.value.original.best
    sys = solver.reduced
    fhat = sys.rhs(f_out)
    assert np.linalg.norm(apply_reduced_operator(sys, best) - fhat) < np.linalg.norm(fhat)


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


def test_report_gives_the_companion_condition_numbers():
    cond = solve_stationary(make_problem("poisson", 10)).report.extra["companion_cond"]
    assert len(cond) == 3
    assert all(isinstance(c, float) and 1.0 <= c < COMPANION_COND_LIMIT for c in cond)


@pytest.mark.parametrize("name", ["poisson", "helmholtz-mixed"])
def test_report_gives_the_boundary_leading_block_conditioning(name):
    # rows stack side -1 before side +1: two Dirichlet rows lead with
    # [[1, -1], [1, 1]]; helmholtz-mixed has a Neumann row on the right
    # face of mode 1, leading with [0, 1]
    n = 8
    report = solve_stationary(make_problem(name, n)).report
    degrees = (n, n, n)
    left = dirichlet(1, -1, 0.0, degrees)[0][:2]
    want = [np.linalg.cond([left, dirichlet(1, 1, 0.0, degrees)[0][:2]])] * 3
    if name == "helmholtz-mixed":
        want[0] = np.linalg.cond([left, neumann(1, 1, 0.0, degrees)[0][:2]])
        assert want[0] > 2.0
    assert report.extra["boundary_cond"] == pytest.approx(want, rel=1e-14)


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
    assert not {"laplace_path", "eigvec_cond", "companion_cond", "min_eig_sum"} & report.extra.keys()


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


def test_surrogate_preconditioner_carries_no_face_data(monkeypatch):
    # the face data are carried through the operator once, for A's lift; the
    # surrogate P is reduced without them, since only its matrices are used
    import spectracube.bc as bc

    calls, original = [], bc.apply_operator

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(bc, "apply_operator", counting)
    spec = make_problem("helmholtz-sqrt", 20)
    spec.boundary[(1, -1)] = FaceBC("dirichlet", lambda y, z: np.cos(y) * np.exp(z))
    with pytest.warns(UserWarning, match="incompatible along shared edges"):
        solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)
    assert solver.backend == "gmres" and solver.reduced.lift is not None
    assert len(calls) == 1
    u, _report = solver.solve_output_rhs(_rhs_output_tensor(spec, solver))
    assert abs(eval_cheb_3d(u, -1.0, 0.3, -0.4) - np.cos(0.3) * np.exp(-0.4)) <= 1e-10


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


def test_solution_does_not_depend_on_the_constructor_caches():
    spec = make_problem("helmholtz-sqrt", 12)
    for build in vars(cheb).values():
        if hasattr(build, "cache_clear"):
            build.cache_clear()
    cold = solve_stationary(spec)
    warm = solve_stationary(spec)
    assert cold.report.backend == "gmres"
    assert np.array_equal(warm.u, cold.u)
