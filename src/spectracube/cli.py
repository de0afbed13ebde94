"""Command-line front end.

Subcommands: ``solve`` (stationary), ``evolve`` (implicit Euler), ``eig``
(inverse iteration), ``bench`` (reshape vs recursive wall times), and
``convergence`` (error vs degree sweep).  Problems come from ``--preset`` or
a config file; results are written as CSV with the fixed column schema

    n, backend, wall_seconds, sampled_max_error_or_residual, iterations, cp_error

where floats are formatted ``%.17e``.  All columns except ``wall_seconds``
are deterministic for a fixed config and seed.  The environment variable
``SPECTRACUBE_SEED`` overrides the configured seed.

Exit codes: 0 success, 1 configuration error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields, replace

import numpy as np

from . import expr as expr_mod
from .bc import BoundaryConditionError
from .drivers import (
    BACKENDS,
    FaceBC,
    ProblemSpec,
    SolverOptions,
    evolve_implicit_euler,
    face_restriction,
    inverse_iteration,
    sampled_max_error,
    solve_stationary,
)
from .opdisc import DiffOperator3
from .presets import PRESETS, make_problem
from .tensolve import NotLaplaceLikeError, ReshapeRefusedError, SolverError
from .tensor3 import dump_text

CSV_HEADER = "n,backend,wall_seconds,sampled_max_error_or_residual,iterations,cp_error"


class ConfigError(ValueError):
    """Invalid CLI or config-file input."""


def _fmt_row(n, backend, wall, err, iters, cp_err) -> str:
    return ",".join(
        [
            str(n),
            backend,
            "%.17e" % wall,
            "%.17e" % err,
            str(iters if iters is not None else 0),
            "%.17e" % cp_err,
        ]
    )


def _write_output(args, cfg: dict, lines: list[str], u: np.ndarray) -> None:
    """Write the CSV rows to ``--out`` or ``[output] csv`` (else stdout) and
    the tensor dump of ``u`` to ``--dump`` or ``[output] dump``."""
    output = cfg.get("output", {})
    text = "\n".join(lines) + "\n"
    path = args.out or output.get("csv")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    dump = args.dump or output.get("dump")
    if dump:
        with open(dump, "w") as fh:
            fh.write(dump_text(u))


# ---------------------------------------------------------------------------
# config files: [section] headers over key = value lines
# ---------------------------------------------------------------------------


def parse_config(text: str) -> dict:
    """Parse the flat key=value config format into {section: {key: value}}."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if len(value) >= 2 and value[0] == value[-1] == '"':
            value = value[1:-1]
        sections[current][key] = value
    return sections


_FACE_KEYS = {
    ("x", "min"): (1, -1), ("x", "max"): (1, 1),
    ("y", "min"): (2, -1), ("y", "max"): (2, 1),
    ("z", "min"): (3, -1), ("z", "max"): (3, 1),
}


def _face_data(mode: int, side: int, src: str):
    """Face data: the expression in ``x, y, z`` restricted to the face."""
    try:
        ast = expr_mod.parse(src)
    except expr_mod.ExprError as exc:
        raise ConfigError(f"boundary data {src!r}: {exc}") from exc
    return face_restriction(expr_mod.to_callable(ast), mode, side)


def _problem_from_config(cfg: dict, n_override=None, options=None) -> ProblemSpec:
    prob = cfg.get("problem", {})
    preset = prob.get("preset")
    inline_keys = [k for k in prob if k.startswith("coeff.") or k.startswith("bc.")]
    if preset and inline_keys:
        raise ConfigError("config must use exactly one of a preset or inline problem keys")
    if preset:
        return make_problem(preset, n_override, options)
    if not inline_keys:
        raise ConfigError("config has neither a preset nor inline problem keys")

    coeffs = {}
    for key, value in prob.items():
        if not key.startswith("coeff."):
            continue
        parts = key.split(".")
        if len(parts) != 4:
            raise ConfigError(f"bad coefficient key {key!r}; want coeff.a.b.c")
        try:
            idx = tuple(int(p) for p in parts[1:])
        except ValueError:
            raise ConfigError(f"bad coefficient key {key!r}; orders must be integers") from None
        try:
            ast = expr_mod.parse(value)
        except expr_mod.ExprError as exc:
            raise ConfigError(f"coefficient {key}: {exc}") from exc
        coeffs[idx] = ast.value if isinstance(ast, expr_mod.Const) else ast
    if not coeffs:
        raise ConfigError("inline problem defines no coefficients")
    orders = tuple(max(k[m] for k in coeffs) for m in range(3))
    operator = DiffOperator3(orders=orders, coeffs=coeffs)

    boundary = {}
    for key, value in prob.items():
        if not key.startswith("bc."):
            continue
        parts = key.split(".")
        if len(parts) != 3 or (parts[1], parts[2]) not in _FACE_KEYS:
            raise ConfigError(f"bad boundary key {key!r}; want bc.<x|y|z>.<min|max>")
        mode, side = _FACE_KEYS[(parts[1], parts[2])]
        toks = value.split(None, 1)
        kind = toks[0].lower()
        if kind not in ("dirichlet", "neumann"):
            raise ConfigError(f"boundary {key}: unknown kind {toks[0]!r}")
        src = toks[1].strip() if len(toks) > 1 else "0"
        if len(src) >= 2 and src[0] == src[-1] == '"':
            src = src[1:-1].strip()
        data = _face_data(mode, side, src) if src not in ("", "0") else 0.0
        boundary[(mode, side)] = FaceBC(kind, data)

    rhs_src = prob.get("rhs", "0")
    try:
        rhs_ast = expr_mod.parse(rhs_src)
    except expr_mod.ExprError as exc:
        raise ConfigError(f"rhs: {exc}") from exc
    rhs = expr_mod.to_callable(rhs_ast)

    if n_override is not None:
        degrees = (n_override,) * 3
    elif "degrees" in prob:
        try:
            degrees = tuple(int(t) for t in prob["degrees"].split())
        except ValueError:
            degrees = ()
        if len(degrees) != 3:
            raise ConfigError(f"bad degrees {prob['degrees']!r}; want three integers")
    else:
        raise ConfigError("inline problem needs 'degrees = n1 n2 n3'")
    try:
        return ProblemSpec(
            operator=operator, rhs=rhs, boundary=boundary, degrees=degrees,
            options=options or SolverOptions(),
        )
    except (ValueError, BoundaryConditionError) as exc:
        raise ConfigError(str(exc)) from exc


def _options_from_config(cfg: dict, args) -> SolverOptions:
    """``[solver]`` keys are the ``SolverOptions`` fields with a scalar
    default, cast to its type (a boolean is ``1/true/yes`` or ``0/false/no``,
    in any case); ``SolverOptions`` checks the values."""
    types = {
        f.name: type(f.default) for f in fields(SolverOptions)
        if type(f.default) in (str, int, float, bool)
    }
    flags = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    kwargs = {}
    for key, value in cfg.get("solver", {}).items():
        cast = types.get(key)
        if cast is None:
            raise ConfigError(f"unknown solver option {key!r}")
        try:
            kwargs[key] = flags[value.lower()] if cast is bool else cast(value)
        except (KeyError, ValueError):
            raise ConfigError(f"bad value for solver option {key!r}: {value!r}") from None
    if args.backend:
        kwargs["backend"] = args.backend
    if args.samples is not None:
        kwargs["samples"] = args.samples
    if args.seed is not None:
        kwargs["seed"] = args.seed
    env_seed = os.environ.get("SPECTRACUBE_SEED")
    if env_seed is not None:
        try:
            kwargs["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"SPECTRACUBE_SEED must be an integer, got {env_seed!r}") from None
    try:
        return SolverOptions(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_config(args) -> dict:
    if not args.config:
        return {}
    try:
        with open(args.config) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc


def _parse_n_list(spec: str) -> list[int]:
    try:
        return [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad degree list {spec!r}; want comma-separated integers") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _stationary_spec(args, cfg: dict, n, options: SolverOptions) -> ProblemSpec:
    """The stationary problem from ``--preset`` or else from the config."""
    prob = cfg.get("problem", {})
    if args.preset:
        if prob.get("preset") or any(k.startswith(("coeff.", "bc.")) for k in prob):
            raise ConfigError("give the problem either on the command line or in the config")
        return make_problem(args.preset, n, options)
    return _problem_from_config(cfg, n, options)


def _single_n(args, default=None):
    """The one degree of ``--n``, or ``default`` without it."""
    if args.n and len(args.n) > 1:
        raise ConfigError(
            f"{args.command} takes one degree, got --n {','.join(map(str, args.n))}; "
            f"run a degree sweep with 'convergence' or 'bench'"
        )
    return args.n[0] if args.n else default


def _solution_row(sol) -> str:
    err = sol.error if sol.error is not None else sol.combined_residual
    return _fmt_row(
        max(sol.degrees), sol.report.backend, sol.report.wall_seconds, err,
        sol.report.iterations, sol.report.cp_error,
    )


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    options = _options_from_config(cfg, args)
    sol = solve_stationary(_stationary_spec(args, cfg, _single_n(args), options))
    _write_output(args, cfg, [CSV_HEADER, _solution_row(sol)], sol.u)
    return 0


def _sweep(args, backends) -> int:
    """One row per degree in ``--n`` and backend; ``backends=None`` runs the
    configured backend only.  A row in ``backends`` that its backend refuses
    (``reshape``: :func:`~spectracube.tensolve.reshape_refusal`, the interior
    size or the Kronecker terms' entries above their caps; ``recursive``: a
    system that is not Laplace-like) is skipped, with the refusal on stderr.
    A degree whose rows are all refused is a solver error naming each
    refusal.  The dump holds the solution of the last row."""
    cfg = _load_config(args)
    options = _options_from_config(cfg, args)
    if not args.n:
        raise ConfigError(f"{args.command} needs --n n1,n2,...")
    lines = [CSV_HEADER]
    for n in args.n:
        refusals = []
        for backend in backends or (options.backend,):
            spec = _stationary_spec(args, cfg, n, replace(options, backend=backend))
            try:
                sol = solve_stationary(spec)
            except SolverError as exc:
                refused = getattr(exc, "original", exc)
                if not backends or not isinstance(
                    refused, (ReshapeRefusedError, NotLaplaceLikeError)
                ):
                    raise
                sys.stderr.write(f"{args.command}: {backend} row skipped at n={n}: {refused}\n")
                refusals.append(f"{backend}: {refused}")
                continue
            lines.append(_solution_row(sol))
        if refusals and len(refusals) == len(backends):
            raise SolverError(f"no row at n={n}, every backend refused: " + "; ".join(refusals))
    # every degree has a row, so ``sol`` is the solution of the last one
    _write_output(args, cfg, lines, sol.u)
    return 0


def _preset_of_kind(args, cfg: dict, kind: str, default: str):
    """The ``--preset`` or config preset (else ``default``), which must be of
    kind ``kind``."""
    name = args.preset or cfg.get("problem", {}).get("preset") or default
    preset = PRESETS.get(name)
    if preset is None or preset.kind != kind:
        raise ConfigError(f"{args.command} needs a preset of kind {kind!r}, got {name!r}")
    return preset


def _cmd_evolve(args) -> int:
    cfg = _load_config(args)
    options = _options_from_config(cfg, args)
    preset = _preset_of_kind(args, cfg, "parabolic", "heat")
    n = _single_n(args, preset.default_n)
    h = args.h if args.h is not None else preset.extras["h"]
    steps = args.steps if args.steps is not None else preset.extras["steps"]
    t0 = time.perf_counter()
    states, solver = evolve_implicit_euler(
        preset.operator, preset.u0, h, steps, (n, n, n), options
    )
    wall = time.perf_counter() - t0
    lines = [CSV_HEADER]
    for tau, u in enumerate(states):
        err = sampled_max_error(
            u, lambda x, y, z: preset.exact(x, y, z, tau * h), options.seed, options.samples
        )
        lines.append(_fmt_row(n, solver.backend, wall, err, tau, 0.0))
    _write_output(args, cfg, lines, states[-1])
    return 0


def _cmd_eig(args) -> int:
    """One inverse iteration per degree in ``--n``; each row's error is the
    gap of its estimate to the final estimate at the largest degree.  The
    dump holds the eigenvector of the last degree."""
    cfg = _load_config(args)
    options = _options_from_config(cfg, args)
    preset = _preset_of_kind(args, cfg, "eigen", "eig-potential")
    iters = args.iters if args.iters is not None else preset.extras["iters"]
    runs = []
    for n in args.n or [preset.default_n]:
        t0 = time.perf_counter()
        lam, vec, history, solver = inverse_iteration(
            preset.operator, preset.u0, iters, (n, n, n), options
        )
        runs.append((n, solver.backend, time.perf_counter() - t0, history))
        sys.stderr.write(f"eigenvalue estimate: {lam:.17e}\n")
    reference = max(runs, key=lambda run: run[0])[3][-1]
    lines = [CSV_HEADER]
    for n, backend, wall, history in runs:
        for s, est in enumerate(history, start=1):
            lines.append(_fmt_row(n, backend, wall, abs(est - reference), s, 0.0))
    _write_output(args, cfg, lines, vec)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectracube",
        description="Global spectral solver for linear PDEs on the cube",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", help=f"problem preset: {', '.join(sorted(PRESETS))}")
    common.add_argument("--config", help="config file (key = value with [sections])")
    common.add_argument("--n", type=_parse_n_list, help="polynomial degree(s), comma separated")
    common.add_argument("--backend", choices=BACKENDS)
    common.add_argument("--out", help="CSV output path (default stdout)")
    common.add_argument("--dump", help="write the solution tensor dump here")
    common.add_argument("--seed", type=int, help="sampling seed")
    common.add_argument("--samples", type=int, help="number of sample points")

    p = sub.add_parser("solve", parents=[common], help="solve a stationary problem")
    p.set_defaults(func=_cmd_solve)
    p = sub.add_parser("bench", parents=[common], help="reshape vs recursive timings")
    p.set_defaults(func=lambda args: _sweep(args, ("reshape", "recursive")))
    p = sub.add_parser("convergence", parents=[common], help="error vs degree sweep")
    p.set_defaults(func=lambda args: _sweep(args, None))
    p = sub.add_parser("evolve", parents=[common], help="implicit Euler time stepping")
    p.add_argument("--h", type=float, help="time step")
    p.add_argument("--steps", type=int, help="number of steps")
    p.set_defaults(func=_cmd_evolve)
    p = sub.add_parser("eig", parents=[common], help="inverse-iteration eigensolver")
    p.add_argument("--iters", type=int, help="inverse iteration count")
    p.set_defaults(func=_cmd_eig)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, BoundaryConditionError, KeyError, ValueError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 1
    except SolverError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
