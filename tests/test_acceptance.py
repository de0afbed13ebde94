"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  This suite re-solves the benchmark problems end to end and
takes a few minutes.
"""

import math
import time

import numpy as np
import pytest

from oracles import eval_ultra_1d
from spectracube.bc import constraint_residual, reconstruct
from spectracube.cheb import (
    cheb_integral,
    cheb_interp_3d,
    conv_chain,
    eval_cheb_3d,
    l2_norm_3d,
)
from spectracube.cli import main as cli_main
from spectracube.drivers import (
    SolverOptions,
    StationarySolver,
    evolve_implicit_euler,
    inverse_iteration,
    sample_points,
    solve_stationary,
    to_output_basis,
)
from spectracube.opdisc import DiffOperator3, apply_operator, split_operator
from spectracube.presets import PRESETS, make_problem
from spectracube.tensolve import GmresError, LaplaceLikeSolver, real_schur
from spectracube.tensor3 import mode_mult, vectorize


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def poisson_recursive_30():
    return solve_stationary(make_problem("poisson", 30))


@pytest.fixture(scope="module")
def poisson_reshape_30():
    return solve_stationary(make_problem("poisson", 30, SolverOptions(backend="reshape")))


def test_criterion_01_poisson_recursive(poisson_recursive_30, poisson_reshape_30):
    sol30 = poisson_recursive_30
    t0 = time.perf_counter()
    sol50 = solve_stationary(make_problem("poisson", 50))
    wall50_total = time.perf_counter() - t0
    t_rec = sol30.report.wall_seconds
    t_resh = poisson_reshape_30.report.wall_seconds
    ok = (
        sol30.error <= 1e-10
        and sol50.error <= 5e-10
        and wall50_total < 60.0
        and t_rec * 3.0 < t_resh
    )
    report(
        1, "poisson-recursive", ok,
        f"err30={sol30.error:.2e}<=1e-10, err50={sol50.error:.2e}<=5e-10, "
        f"n50_total={wall50_total:.2f}s<60s, recursive {t_rec:.3f}s vs "
        f"reshape {t_resh:.3f}s (>=3x)",
    )


def test_criterion_02_poisson_reshape_error_levels(poisson_reshape_30):
    sol10 = solve_stationary(make_problem("poisson", 10, SolverOptions(backend="reshape")))
    ok = abs(sol10.error - 1.55e-5) <= 0.5 * 1.55e-5 and poisson_reshape_30.error <= 1e-12
    report(
        2, "poisson-reshape", ok,
        f"err10={sol10.error:.3e} within 1.55e-5 +-50%, "
        f"err30={poisson_reshape_30.error:.2e}<=1e-12",
    )


def test_criterion_03_backend_oracle_equivalence():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 13, 3))
        mats = [rng.standard_normal((d, d)) + 4.0 * np.sqrt(d) * np.eye(d) for d in dims]
        f = rng.standard_normal(dims)
        x, _ = LaplaceLikeSolver(*mats).solve(f)
        big = (
            np.kron(np.eye(dims[2] * dims[1]), mats[0])
            + np.kron(np.eye(dims[2]), np.kron(mats[1], np.eye(dims[0])))
            + np.kron(mats[2], np.eye(dims[1] * dims[0]))
        )
        want = np.linalg.solve(big, vectorize(f)).reshape(dims, order="F")
        worst = max(worst, np.max(np.abs(x - want)) / np.max(np.abs(want)))
    du, dv, dw = (rng.uniform(1.0, 3.0, d) for d in (7, 9, 11))
    f = rng.standard_normal((7, 9, 11))
    xd, _ = LaplaceLikeSolver(np.diag(du), np.diag(dv), np.diag(dw)).solve(f)
    closed = f / (du[:, None, None] + dv[None, :, None] + dw[None, None, :])
    diag_err = np.max(np.abs(xd - closed))
    ok = worst <= 1e-9 and diag_err <= 1e-12
    report(
        3, "backend-oracle-equivalence", ok,
        f"worst of 50 random systems {worst:.2e}<=1e-9, diagonal {diag_err:.2e}<=1e-12",
    )


def test_criterion_04_variable_kappa_helmholtz_decay():
    errs = {}
    for n in (20, 40, 60):
        errs[n] = solve_stationary(make_problem("helmholtz-gamma", n)).error
    ok = (
        errs[60] <= 1e-6
        and errs[60] <= 1e-2 * errs[20]
        and errs[60] < errs[40] < errs[20]
    )
    report(
        4, "helmholtz-gamma-decay", ok,
        f"err20={errs[20]:.2e} err40={errs[40]:.2e} err60={errs[60]:.2e}; "
        f"err60<=1e-6 and <=1e-2*err20, monotone",
    )


def test_criterion_05_rank2_diffusion_preconditioners():
    n = 30
    sol_sep = solve_stationary(
        make_problem("diffusion-rank2", n, SolverOptions(precond="separable"))
    )
    sol_const = solve_stationary(
        make_problem("diffusion-rank2", n, SolverOptions(precond="constant"))
    )
    iters_sep = sol_sep.report.iterations
    iters_const = sol_const.report.iterations
    budget_outer = max(1, math.ceil(iters_const / 15))
    spec_none = make_problem(
        "diffusion-rank2", n,
        SolverOptions(precond="none", gmres_max_outer=budget_outer),
    )
    unprec_err = None
    try:
        sol_none = solve_stationary(spec_none)
        unprec_err = sol_none.error
    except Exception as exc:
        inner = getattr(exc, "original", exc)
        if isinstance(inner, GmresError):
            solver = StationarySolver(
                spec_none.operator, spec_none.boundary, spec_none.degrees,
                SolverOptions(precond="none", gmres_max_outer=budget_outer),
            )
            u = reconstruct(inner.best, solver.bset)
            pts = sample_points(spec_none.options.seed, spec_none.options.samples)
            unprec_err = float(np.max(np.abs(
                eval_cheb_3d(u, pts[:, 0], pts[:, 1], pts[:, 2])
                - spec_none.exact(pts[:, 0], pts[:, 1], pts[:, 2])
            )))
        else:
            raise
    ok = (
        sol_sep.error <= 1e-9
        and iters_sep < iters_const
        and unprec_err > 1e-9
    )
    report(
        5, "rank2-diffusion-gmres", ok,
        f"separable err={sol_sep.error:.2e}<=1e-9 in {iters_sep} its, "
        f"constant {iters_const} its (strictly more), unpreconditioned "
        f"err={unprec_err:.2e}>1e-9 within {budget_outer * 15} its",
    )


def test_criterion_06_sqrt_kappa_cp_and_solution():
    n = 30
    # full fused CP at rank 10
    spec_full = make_problem(
        "helmholtz-sqrt", n, SolverOptions(split_identity=False, cp_rank=10)
    )
    sol_full = solve_stationary(spec_full)
    cp_full = sol_full.report.cp_error
    # split path: exact second-order part plus CP of the multiplication tensor
    op = spec_full.operator
    split = split_operator(
        op, (n, n, n), SolverOptions(split_identity=True, mult_rank=7)
    )
    cp_mult = split.error
    ok = cp_full <= 1e-7 and sol_full.error <= 1e-7 and cp_mult <= 1e-8
    report(
        6, "sqrt-kappa-cp", ok,
        f"fused rank-10 cp={cp_full:.2e}<=1e-7, "
        f"solution err={sol_full.error:.2e}<=1e-7, "
        f"split rank-7 cp={cp_mult:.2e}<=1e-8",
    )


def test_criterion_07_mixed_bc_residual_decay():
    res = {}
    for n in (15, 45):
        res[n] = solve_stationary(make_problem("helmholtz-mixed", n)).combined_residual
    ok = res[45] <= 1e-2 * res[15]
    report(
        7, "mixed-bc-residual", ok,
        f"residual15={res[15]:.3e}, residual45={res[45]:.3e} (<=1e-2 ratio)",
    )


def test_criterion_08_implicit_euler_heat():
    pre = PRESETS["heat"]
    n, h, steps = 20, 1e-2, 50
    states, _ = evolve_implicit_euler(pre.operator, pre.u0, h, steps, (n, n, n))
    pts = sample_points(2024, 500)
    u0_vals = pre.u0(pts[:, 0], pts[:, 1], pts[:, 2])
    worst = 0.0
    for tau in range(steps + 1):
        got = eval_cheb_3d(states[tau], pts[:, 0], pts[:, 1], pts[:, 2])
        want = u0_vals / (1.0 + 3.0 * math.pi**2 * h) ** tau
        worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    norms = [l2_norm_3d(u) for u in states]
    monotone = all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
    ok = worst <= 1e-8 and monotone
    report(
        8, "implicit-euler-heat", ok,
        f"worst relative deviation from scalar recurrence {worst:.2e}<=1e-8, "
        f"norms non-increasing={monotone}",
    )


def test_criterion_09_eigenvalue_problem():
    pre = PRESETS["eig-potential"]
    lams = {}
    for n in (20, 30):
        lams[n], _, _, _ = inverse_iteration(pre.operator, pre.u0, 50, (n, n, n))
    gap = abs(lams[20] - lams[30])
    lap = DiffOperator3(
        orders=(2, 2, 2), coeffs={(2, 0, 0): -1.0, (0, 2, 0): -1.0, (0, 0, 2): -1.0}
    )
    sin3 = lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
    lam_lap, _, _, _ = inverse_iteration(lap, sin3, 50, (20, 20, 20))
    sanity_err = abs(lam_lap - 3.0 * math.pi**2 / 4.0)
    ok = gap <= 1e-8 and sanity_err <= 1e-10
    report(
        9, "inverse-iteration", ok,
        f"|lam[20]-lam[30]|={gap:.2e}<=1e-8 (lam={lams[30]:.12f}), "
        f"pure Laplacian eigenvalue error {sanity_err:.2e}<=1e-10",
    )


def test_criterion_10_property_suites(tmp_path, capsys):
    rng = np.random.default_rng(5150)
    checks = []

    # vec/Kronecker identity on all shapes with <= 64 entries
    worst = 0.0
    for d1 in (1, 2, 4):
        for d2 in (1, 3, 4):
            for d3 in (2, 4):
                t = rng.standard_normal((d1, d2, d3))
                a, b, c = (rng.standard_normal((d, d)) for d in (d1, d2, d3))
                lhs = vectorize(mode_mult(mode_mult(mode_mult(t, a, 1), b, 2), c, 3))
                rhs = np.kron(c, np.kron(b, a)) @ vectorize(t)
                scale = max(np.max(np.abs(rhs)), 1.0)
                worst = max(worst, np.max(np.abs(lhs - rhs)) / scale)
    checks.append(("vec-kron", worst <= 1e-13, f"{worst:.2e}"))

    # basis / derivative / integration identities
    xs = rng.uniform(-1, 1, 100)
    u = rng.standard_normal(11)
    basis_ok = True
    for lam in (1, 2, 3, 4):
        v = conv_chain(0, lam, 10) @ u
        ref = np.polynomial.chebyshev.chebval(xs, u)
        basis_ok &= np.max(np.abs(eval_ultra_1d(lam, v, xs) - ref)) <= 1e-11 * max(
            np.max(np.abs(ref)), 1.0
        )
    from spectracube.cheb import diff_matrix

    der_ok = True
    for k in range(1, 21):
        e = np.zeros(21)
        e[k] = 1.0
        v = diff_matrix(1, 20) @ e
        want = np.zeros(21)
        want[k - 1] = k
        der_ok &= np.array_equal(v, want)
    int_ok = (
        cheb_integral(np.eye(3)[0]) == 2.0
        and cheb_integral(np.eye(3)[1]) == 0.0
        and abs(cheb_integral(np.eye(3)[2]) + 2.0 / 3.0) < 1e-15
    )
    checks.append(("cheb-identities", basis_ok and der_ok and int_ok, ""))

    # substitution equivalence on a small stationary problem
    spec = make_problem("poisson", 8)
    solver = StationarySolver(spec.operator, spec.boundary, spec.degrees, spec.options)
    f_out = to_output_basis(cheb_interp_3d(spec.rhs, *spec.degrees), solver.disc.orders)
    u_sol, _ = solver.solve_output_rhs(f_out)
    full_res = apply_operator(solver.disc, u_sol) - f_out
    interior_ok = np.max(np.abs(full_res[:7, :7, :7])) <= 1e-9 * np.max(np.abs(f_out))
    bc_ok = constraint_residual(u_sol, solver.bset) <= 1e-10
    checks.append(("substitution-equivalence", interior_ok and bc_ok, ""))

    # Schur invariants
    schur_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 51))
        a = rng.standard_normal((n, n))
        fac = real_schur(a)
        schur_ok &= np.max(np.abs(fac.q.T @ fac.q - np.eye(n))) <= 1e-12
        schur_ok &= np.linalg.norm(fac.q @ fac.t @ fac.q.T - a) <= 1e-11 * max(
            np.linalg.norm(a), 1.0
        )
        schur_ok &= bool(np.all(np.tril(fac.t, -2) == 0.0))
        sub = np.diag(fac.t, -1)
        schur_ok &= not np.any((sub[:-1] != 0) & (sub[1:] != 0))
    checks.append(("schur-invariants", schur_ok, ""))

    # CLI determinism under a fixed seed (all columns except wall time)
    outs = []
    for run in range(2):
        path = tmp_path / f"det{run}.csv"
        code = cli_main([
            "solve", "--preset", "helmholtz-const", "--n", "8",
            "--seed", "99", "--out", str(path),
        ])
        assert code == 0
        rows = [ln.split(",") for ln in path.read_text().strip().splitlines()[1:]]
        outs.append([r[:2] + r[3:] for r in rows])
    checks.append(("cli-determinism", outs[0] == outs[1], ""))

    ok = all(c[1] for c in checks)
    detail = ", ".join(f"{name}={'ok' if good else 'FAIL'}" for name, good, _ in checks)
    report(10, "property-suites", ok, detail)
