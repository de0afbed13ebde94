import os
import subprocess
import sys
from pathlib import Path

import numpy.testing as npt
import pytest

import spectracube.tensolve as tensolve
from spectracube.cheb import eval_cheb_3d
from spectracube.cli import (
    CSV_HEADER,
    ConfigError,
    _options_from_config,
    build_parser,
    main,
    parse_config,
)
from spectracube.drivers import inverse_iteration
from spectracube.presets import PRESETS
from spectracube.tensor3 import dump_text, load_text

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    assert lines[0] == CSV_HEADER
    return [ln.split(",") for ln in lines[1:]]


def test_solve_poisson_reshape_matches_reference_error(capsys):
    code, out = run_cli(["solve", "--preset", "poisson", "--n", "10", "--backend", "reshape"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    n, backend, wall, err, iters, cp = rows[0]
    assert n == "10" and backend == "reshape"
    assert float(err) == pytest.approx(1.55e-5, rel=0.5)


def test_solve_dump_round_trips(tmp_path, capsys):
    dump = tmp_path / "u.t3"
    code, _ = run_cli(
        ["solve", "--preset", "poisson", "--n", "4", "--dump", str(dump)], capsys
    )
    assert code == 0
    text = dump.read_text()
    u = load_text(text)
    assert dump_text(u) == text


def test_bench_emits_both_backends(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code, _ = run_cli(
        ["bench", "--preset", "poisson", "--n", "6,8", "--out", str(out_csv)], capsys
    )
    assert code == 0
    rows = parse_csv(out_csv.read_text())
    assert [(r[0], r[1]) for r in rows] == [
        ("6", "reshape"), ("6", "recursive"), ("8", "reshape"), ("8", "recursive"),
    ]


def test_bench_skips_reshape_above_the_cap(capsys):
    # interior size 33^3 = 35937 exceeds the reshape cap of 32768
    code = main(["bench", "--preset", "poisson", "--n", "34"])
    captured = capsys.readouterr()
    assert code == 0
    rows = parse_csv(captured.out)
    assert [(r[0], r[1]) for r in rows] == [("34", "recursive")]
    assert "reshape row skipped" in captured.err and "35937" in captured.err


def test_bench_skips_reshape_above_the_entry_cap(capsys, monkeypatch):
    monkeypatch.setattr(tensolve, "RESHAPE_NNZ_CAP", 1000)
    code = main(["bench", "--preset", "poisson", "--n", "6"])
    captured = capsys.readouterr()
    assert code == 0
    assert [(r[0], r[1]) for r in parse_csv(captured.out)] == [("6", "recursive")]
    assert "reshape row skipped at n=6" in captured.err
    assert "above cap 1000" in captured.err


@pytest.mark.parametrize("preset, rank", [("helmholtz-sqrt", 10), ("diffusion-rank2", 6)])
def test_bench_skips_recursive_on_a_system_that_is_not_laplace_like(capsys, preset, rank):
    code = main(["bench", "--preset", preset, "--n", "8"])
    captured = capsys.readouterr()
    assert code == 0
    assert [(r[0], r[1]) for r in parse_csv(captured.out)] == [("8", "reshape")]
    assert "recursive row skipped at n=8" in captured.err
    assert f"not Laplace-like eligible (rank {rank})" in captured.err


def test_bench_fails_a_degree_that_every_backend_refuses(capsys):
    # at n=30 the rank-10 split holds an estimated 4.2e9 Kronecker entries,
    # above the reshape cap, and is not Laplace-like
    code = main(["bench", "--preset", "helmholtz-sqrt", "--n", "30"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = captured.err.splitlines()[-1]
    assert err.startswith("solver error: no row at n=30")
    assert "reshape backend refused" in err and "above cap" in err
    assert "not Laplace-like eligible (rank 10)" in err


def test_convergence_sweep_decays(capsys):
    code, out = run_cli(["convergence", "--preset", "poisson", "--n", "6,12"], capsys)
    assert code == 0
    rows = parse_csv(out)
    errs = [float(r[3]) for r in rows]
    assert errs[1] < errs[0]


def test_determinism_same_seed_same_numbers(capsys):
    args = ["solve", "--preset", "helmholtz-const", "--n", "8", "--seed", "7"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    rows1, rows2 = parse_csv(out1), parse_csv(out2)
    # all columns except wall_seconds are deterministic
    for r1, r2 in zip(rows1, rows2):
        assert r1[:2] == r2[:2]
        assert r1[3:] == r2[3:]


def test_env_seed_override(capsys, monkeypatch):
    _, out1 = run_cli(["solve", "--preset", "poisson", "--n", "6", "--seed", "1"], capsys)
    monkeypatch.setenv("SPECTRACUBE_SEED", "2")
    _, out2 = run_cli(["solve", "--preset", "poisson", "--n", "6", "--seed", "1"], capsys)
    monkeypatch.delenv("SPECTRACUBE_SEED")
    _, out3 = run_cli(["solve", "--preset", "poisson", "--n", "6", "--seed", "2"], capsys)
    assert parse_csv(out1)[0][3] != parse_csv(out2)[0][3]
    assert parse_csv(out2)[0][3] == parse_csv(out3)[0][3]


@pytest.mark.parametrize("how", ["flag", "env"])
def test_negative_seed_is_config_error(how, capsys, monkeypatch):
    argv = ["solve", "--preset", "poisson", "--n", "6"]
    if how == "flag":
        argv += ["--seed", "-3"]
    else:
        monkeypatch.setenv("SPECTRACUBE_SEED", "-1")
    code, out = run_cli(argv, capsys)
    assert code == 1 and out == ""


def test_unknown_preset_is_config_error(capsys):
    code, _ = run_cli(["solve", "--preset", "nope", "--n", "4"], capsys)
    assert code == 1


def test_solver_failure_exit_code(capsys):
    # interior size 39^3 exceeds the reshape cap
    code, _ = run_cli(["solve", "--preset", "poisson", "--n", "40", "--backend", "reshape"], capsys)
    assert code == 2


def test_gmres_failure_on_a_coarse_cp_split_names_cp_rank(tmp_path, capsys):
    cfg = tmp_path / "coarse.cfg"
    cfg.write_text("[solver]\nsplit_identity = false\ncp_rank = 1\ngmres_max_outer = 2\n")
    code = main(["solve", "--preset", "helmholtz-sqrt", "--n", "10", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("solver error: [solve] gmres did not converge")
    assert "cp_rank 1 and cp_error" in err and "a higher cp_rank may help" in err


def test_evolve_rows_per_step(capsys):
    code, out = run_cli(
        ["evolve", "--preset", "heat", "--n", "10", "--h", "0.01", "--steps", "3"], capsys
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4  # tau = 0..3
    assert [r[4] for r in rows] == ["0", "1", "2", "3"]


def test_eig_emits_history(capsys):
    code, out = run_cli(
        ["eig", "--preset", "eig-potential", "--n", "8", "--iters", "5"], capsys
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 5
    assert float(rows[-1][3]) == 0.0  # last history entry equals the estimate


@pytest.mark.parametrize("degrees", ["4,6", "6,4"])
def test_eig_over_a_degree_list(degrees, tmp_path, capsys):
    # errors are gaps to the final estimate at the largest degree; the dump
    # holds the eigenvector of the last degree
    dump = tmp_path / "u.t3"
    code = main(["eig", "--n", degrees, "--iters", "3", "--dump", str(dump)])
    captured = capsys.readouterr()
    assert code == 0
    pre = PRESETS["eig-potential"]
    runs = {n: inverse_iteration(pre.operator, pre.u0, 3, (n, n, n)) for n in (4, 6)}
    reference = runs[6][0]
    ns = [int(t) for t in degrees.split(",")]
    want = [
        (str(n), str(s), "%.17e" % abs(est - reference))
        for n in ns
        for s, est in enumerate(runs[n][2], start=1)
    ]
    assert [(r[0], r[4], r[3]) for r in parse_csv(captured.out)] == want
    assert captured.err == "".join(f"eigenvalue estimate: {runs[n][0]:.17e}\n" for n in ns)
    assert dump.read_text() == dump_text(runs[ns[-1]][1])


@pytest.mark.parametrize("command", [["evolve", "--steps", "1"], ["eig", "--iters", "2"]])
def test_evolve_and_eig_rows_name_the_backend_that_ran(command, capsys):
    code, out = run_cli(command + ["--n", "6", "--backend", "reshape"], capsys)
    assert code == 0
    assert {r[1] for r in parse_csv(out)} == {"reshape"}


_STEPPED = [["evolve", "--steps", "2"], ["eig", "--iters", "2"]]


@pytest.mark.parametrize("command", _STEPPED)
def test_evolve_and_eig_dump_from_the_command_line(command, tmp_path, capsys):
    dump = tmp_path / "u.t3"
    code, out = run_cli(command + ["--n", "6", "--dump", str(dump)], capsys)
    assert code == 0 and len(parse_csv(out)) >= 2
    assert load_text(dump.read_text()).shape == (7, 7, 7)


@pytest.mark.parametrize("command", _STEPPED)
def test_evolve_and_eig_honour_the_output_section(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    csv, dump = tmp_path / "rows.csv", tmp_path / "u.t3"
    cfg.write_text(f"[output]\ncsv = {csv}\ndump = {dump}\n")
    code, out = run_cli(command + ["--n", "6", "--config", str(cfg)], capsys)
    assert code == 0 and out == ""
    assert len(parse_csv(csv.read_text())) >= 2
    assert load_text(dump.read_text()).shape == (7, 7, 7)


def test_sweep_dumps_the_solution_of_its_last_row(tmp_path, capsys):
    dump = tmp_path / "u.t3"
    code, _ = run_cli(
        ["convergence", "--preset", "poisson", "--n", "4,6", "--dump", str(dump)], capsys
    )
    assert code == 0
    assert load_text(dump.read_text()).shape == (7, 7, 7)


@pytest.mark.parametrize(
    "command, message",
    [
        (["evolve", "--preset", "poisson"], "evolve needs a preset of kind 'parabolic', got 'poisson'"),
        (["eig", "--preset", "heat"], "eig needs a preset of kind 'eigen', got 'heat'"),
    ],
)
def test_evolve_and_eig_refuse_a_preset_of_another_kind(command, message, capsys):
    code = main(command + ["--n", "6"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "command", [["solve", "--preset", "poisson"], ["evolve"], ["eig"]]
)
def test_degree_below_the_operator_order_is_config_error(command, capsys):
    code = main(command + ["--n", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "degrees (1, 1, 1) must be at least the operator orders (2, 2, 2)" in captured.err


@pytest.mark.parametrize("command", [["solve", "--preset", "poisson"], ["evolve"]])
def test_degree_list_outside_a_sweep_is_config_error(command, capsys):
    code = main(command + ["--n", "6,8"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "takes one degree, got --n 6,8" in captured.err
    assert "'convergence' or 'bench'" in captured.err


# --- config files ------------------------------------------------------------


def test_parse_config_sections_and_quotes():
    cfg = parse_config(
        """
        [problem]
        preset = poisson
        rhs = "1 + x"
        [solver]
        backend = reshape
        """
    )
    assert cfg["problem"]["preset"] == "poisson"
    assert cfg["problem"]["rhs"] == "1 + x"
    assert cfg["solver"]["backend"] == "reshape"


def test_parse_config_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[problem]\npreset = poisson\nbroken-line\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("key = outside\n")


def test_inline_problem_via_config(tmp_path, capsys):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text(
        """
[problem]
coeff.2.0.0 = 1
coeff.0.2.0 = 1
coeff.0.0.2 = 1
bc.x.min = dirichlet
bc.x.max = dirichlet
bc.y.min = dirichlet
bc.y.max = dirichlet
bc.z.min = dirichlet
bc.z.max = dirichlet
rhs = "1"
degrees = 12 12 12

[solver]
backend = recursive
"""
    )
    code, out = run_cli(["solve", "--config", str(cfg)], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert rows[0][1] == "recursive"
    assert float(rows[0][3]) < 1e-5  # combined residual of a smooth problem


_HARMONIC = """
[problem]
coeff.2.0.0 = 1
coeff.0.2.0 = 1
coeff.0.0.2 = 1
rhs = "0"
degrees = 6 6 6
"""


def test_inline_config_with_boundary_data(tmp_path, capsys):
    # u = x*y*z is harmonic and matches all face data, given face by face or
    # as one expression that is evaluated on each face
    dumps = []
    for data in (("-y*z", "y*z", "-x*z", "x*z", "-x*y", "x*y"), ("x*y*z",) * 6):
        cfg, dump = tmp_path / "prob.cfg", tmp_path / f"u{len(dumps)}.t3"
        faces = ("x.min", "x.max", "y.min", "y.max", "z.min", "z.max")
        cfg.write_text(
            _HARMONIC + "".join(f'bc.{f} = dirichlet "{d}"\n' for f, d in zip(faces, data))
        )
        code, out = run_cli(["solve", "--config", str(cfg), "--dump", str(dump)], capsys)
        assert code == 0
        assert float(parse_csv(out)[0][3]) < 1e-10
        dumps.append(load_text(dump.read_text()))
    npt.assert_allclose(dumps[1], dumps[0], rtol=0, atol=1e-12)
    assert abs(eval_cheb_3d(dumps[1], 0.5, 0.5, 0.5) - 0.125) < 1e-12


def test_bad_degrees_is_config_error_under_optimization(tmp_path):
    # the degrees check must not be an assert, which python -O strips
    cfg = tmp_path / "prob.cfg"
    cfg.write_text(_HARMONIC.replace("degrees = 6 6 6", "degrees = 6 6"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "spectracube.cli", "solve", "--config", str(cfg)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "bad degrees '6 6'" in proc.stderr


def test_config_preset_and_inline_conflict(tmp_path, capsys):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text("[problem]\npreset = poisson\ncoeff.2.0.0 = 1\n")
    code, _ = run_cli(["solve", "--config", str(cfg)], capsys)
    assert code == 1


def test_config_missing_degrees(tmp_path, capsys):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text("[problem]\ncoeff.0.0.0 = 1\nrhs = \"1\"\n")
    code, _ = run_cli(["solve", "--config", str(cfg)], capsys)
    assert code == 1


def test_bad_expression_reports_config_error(tmp_path, capsys):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text("[problem]\ncoeff.0.0.0 = \"1 +\"\nrhs = \"1\"\ndegrees = 4 4 4\n")
    code, _ = run_cli(["solve", "--config", str(cfg)], capsys)
    assert code == 1


def test_coefficient_overflow_names_the_function_and_offset(tmp_path, capsys):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text(
        INLINE_LAPLACE.replace("rhs =", 'coeff.0.0.0 = "exp(1000*x)"\nrhs =')
    )
    code = main(["solve", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert "[discretize] overflow in exp(" in err and "(at offset 0)" in err
    # a coefficient that cannot be evaluated is a configuration error
    assert err.startswith("configuration error:")
    assert code == 1


@pytest.mark.parametrize(
    "old, new, tag",
    [
        ('rhs = "1"', 'rhs = "sqrt(x-3)"', "[rhs] domain error in sqrt(-2.0)"),
        ("bc.x.min = dirichlet", 'bc.x.min = dirichlet "sqrt(y-4)"',
         "[boundary] domain error in sqrt(-3.0)"),
    ],
)
def test_unevaluable_input_expression_is_a_configuration_error(old, new, tag, tmp_path, capsys):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text(INLINE_LAPLACE.replace(old, new))
    code = main(["solve", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and tag in err and "(at offset 0)" in err
    assert code == 1


INLINE_LAPLACE = """
[problem]
coeff.2.0.0 = 1
coeff.0.2.0 = 1
coeff.0.0.2 = 1
bc.x.min = dirichlet
bc.x.max = dirichlet
bc.y.min = dirichlet
bc.y.max = dirichlet
bc.z.min = dirichlet
bc.z.max = dirichlet
rhs = "1"
degrees = 6 6 6
"""


@pytest.mark.parametrize("command", ["solve", "bench", "convergence"])
def test_preset_and_config_problem_conflict(command, tmp_path, capsys):
    for text in ("[problem]\npreset = poisson\n", INLINE_LAPLACE):
        cfg = tmp_path / "prob.cfg"
        cfg.write_text(text)
        code, _ = run_cli(
            [command, "--preset", "poisson", "--n", "6", "--config", str(cfg)], capsys
        )
        assert code == 1


@pytest.mark.parametrize("command,count", [("solve", 1), ("bench", 2), ("convergence", 1)])
def test_inline_config_problem_in_every_stationary_command(command, count, tmp_path, capsys):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text(INLINE_LAPLACE)
    code, out = run_cli([command, "--config", str(cfg), "--n", "6"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == count
    assert all(r[0] == "6" and float(r[3]) < 1e-2 for r in rows)


@pytest.mark.parametrize(
    "key,value,expected",
    [
        ("backend", "reshape", "reshape"),
        ("gmres_max_outer", "7", 7),
        ("cp_rank", "4", 4),
        ("mult_rank", "3", 3),
        ("split_identity", "no", False),
        ("split_identity", "Yes", True),
        ("split_identity", "1", True),
        ("cp_restarts", "2", 2),
        ("cp_seed", "5", 5),
        ("precond", "none", "none"),
        ("seed", "9", 9),
        ("samples", "50", 50),
    ],
)
def test_solver_config_key_is_cast_by_its_default(key, value, expected, monkeypatch):
    monkeypatch.delenv("SPECTRACUBE_SEED", raising=False)
    args = build_parser().parse_args(["solve"])
    opts = _options_from_config(parse_config(f"[solver]\n{key} = {value}\n"), args)
    got = getattr(opts, key)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize(
    "key", ["base_cap", "reshape_cap", "gmres_restart", "gmres_tol", "cp_max_iter",
            "zero_order_separable", "__doc__"],
)
def test_unknown_solver_config_key(key, tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(f"[solver]\n{key} = 1\n")
    code = main(["solve", "--preset", "poisson", "--n", "4", "--config", str(cfg)])
    assert code == 1
    assert "unknown solver option" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["cp_restarts", "mult_rank", "gmres_max_outer", "samples"])
def test_count_solver_option_below_one_is_config_error(key, tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(f"[solver]\n{key} = 0\n")
    code = main(["solve", "--preset", "helmholtz-sqrt", "--n", "6", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert f"bad value for solver option '{key}': 0 (must be at least 1)" in captured.err


@pytest.mark.parametrize(
    "key, value, preset, allowed",
    [
        ("backend", "fast", "poisson", "auto, recursive, gmres, reshape"),
        ("precond", "foo", "diffusion-rank2", "auto, separable, constant, none"),
        ("split_identity", "maybe", "helmholtz-sqrt", "'split_identity': 'maybe'"),
        ("seed", "-3", "poisson", "'seed': -3 (must be at least 0)"),
        ("cp_seed", "-2", "helmholtz-sqrt", "'cp_seed': -2 (must be at least 0)"),
    ],
)
def test_bad_string_solver_value_is_config_error(key, value, preset, allowed, tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(f"[solver]\n{key} = {value}\n")
    code = main(["solve", "--preset", preset, "--n", "6", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "bad value for solver option" in captured.err and allowed in captured.err
