"""Named benchmark problems with manufactured solutions where known.

Every preset fixes the operator, right side, boundary data and default
solver options; the CLI and the acceptance suite build problems from here.
Right sides of manufactured problems are computed analytically from the
exact solution, never through the discretized operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .drivers import (
    DiffusionForm,
    FaceBC,
    ProblemSpec,
    SolverOptions,
    zero_dirichlet_boundary,
)
from .expr import parse
from .opdisc import DiffOperator3

PI = np.pi


def _sin3(x, y, z):
    return np.sin(PI * x) * np.sin(PI * y) * np.sin(PI * z)


@dataclass
class Preset:
    name: str
    kind: str  # stationary | parabolic | eigen
    description: str
    make: Callable  # (n, options) -> ProblemSpec       (stationary)
    u0: Callable | None = None  # initial/starting function (parabolic, eigen)
    operator: DiffOperator3 | None = None  # generator / eigen operator
    default_n: int = 20
    extras: dict = field(default_factory=dict)


def _laplacian_coeffs(sign: float = 1.0) -> dict:
    return {(2, 0, 0): sign, (0, 2, 0): sign, (0, 0, 2): sign}


# --- poisson -----------------------------------------------------------------

def _poisson(n: int, options: SolverOptions) -> ProblemSpec:
    op = DiffOperator3(orders=(2, 2, 2), coeffs=_laplacian_coeffs())
    return ProblemSpec(
        operator=op,
        rhs=lambda x, y, z: -3.0 * PI**2 * _sin3(x, y, z),
        boundary=zero_dirichlet_boundary((2, 2, 2)),
        degrees=(n, n, n),
        options=options,
        exact=_sin3,
    )


# --- constant-coefficient Helmholtz ------------------------------------------

_KAPPA_CONST = 2.0


def _helmholtz_const(n: int, options: SolverOptions) -> ProblemSpec:
    op = DiffOperator3(
        orders=(2, 2, 2),
        coeffs={**_laplacian_coeffs(), (0, 0, 0): _KAPPA_CONST**2},
    )
    return ProblemSpec(
        operator=op,
        rhs=lambda x, y, z: (_KAPPA_CONST**2 - 3.0 * PI**2) * _sin3(x, y, z),
        boundary=zero_dirichlet_boundary((2, 2, 2)),
        degrees=(n, n, n),
        options=options,
        exact=_sin3,
    )


# --- Helmholtz with kappa(x) = g1 - g2 cos(pi g3 x / 2), gammas (5, 3, 5) ----

_G1, _G2, _G3 = 5.0, 3.0, 5.0


def _kappa_gamma(x):
    return _G1 - _G2 * np.cos(PI * _G3 * x / 2.0)


def _helmholtz_gamma_exact(x, y, z):
    return (
        np.exp(-_kappa_gamma(x) / _G3)
        * np.cos(PI * _G1 * y / 2.0)
        * np.cos(PI * _G2 * z / 2.0)
    )


def _helmholtz_gamma_rhs(x, y, z):
    k = _kappa_gamma(x)
    kp = _G2 * (PI * _G3 / 2.0) * np.sin(PI * _G3 * x / 2.0)
    kpp = _G2 * (PI * _G3 / 2.0) ** 2 * np.cos(PI * _G3 * x / 2.0)
    radial = (kp / _G3) ** 2 - kpp / _G3
    return (radial - (PI * _G1 / 2.0) ** 2 - (PI * _G2 / 2.0) ** 2 + k**2) * (
        _helmholtz_gamma_exact(x, y, z)
    )


def _helmholtz_gamma(n: int, options: SolverOptions) -> ProblemSpec:
    kappa_sq = parse("(5-3*cos(pi*5*x/2))^2")
    op = DiffOperator3(
        orders=(2, 2, 2), coeffs={**_laplacian_coeffs(), (0, 0, 0): kappa_sq}
    )
    boundary = {}
    for mode, fixed in ((1, "x"), (2, "y"), (3, "z")):
        for side in (-1, 1):
            def data(a, b, mode=mode, side=side):
                args = {1: (side, a, b), 2: (a, side, b), 3: (a, b, side)}[mode]
                return _helmholtz_gamma_exact(*args)

            boundary[(mode, side)] = FaceBC("dirichlet", data)
    return ProblemSpec(
        operator=op,
        rhs=_helmholtz_gamma_rhs,
        boundary=boundary,
        degrees=(n, n, n),
        options=options,
        exact=_helmholtz_gamma_exact,
    )


# --- diffusion with separable coefficient ------------------------------------

def _a_sep(x, y, z):
    return (1.0 + x**2) * (1.0 + y**2) * (1.0 + z**2)


def _diffusion_sep_rhs(x, y, z):
    u = _sin3(x, y, z)
    ux = PI * np.cos(PI * x) * np.sin(PI * y) * np.sin(PI * z)
    uy = PI * np.sin(PI * x) * np.cos(PI * y) * np.sin(PI * z)
    uz = PI * np.sin(PI * x) * np.sin(PI * y) * np.cos(PI * z)
    grad_a_grad_u = (
        2 * x * (1 + y**2) * (1 + z**2) * ux
        + 2 * y * (1 + x**2) * (1 + z**2) * uy
        + 2 * z * (1 + x**2) * (1 + y**2) * uz
    )
    return -(grad_a_grad_u - 3.0 * PI**2 * _a_sep(x, y, z) * u)


def _diffusion_sep(n: int, options: SolverOptions) -> ProblemSpec:
    one_sq = lambda t: 1.0 + t**2
    form = DiffusionForm(terms=((one_sq, one_sq, one_sq),))
    return ProblemSpec(
        operator=form,
        rhs=_diffusion_sep_rhs,
        boundary=zero_dirichlet_boundary((2, 2, 2)),
        degrees=(n, n, n),
        options=options,
        exact=_sin3,
    )


# --- diffusion with rank-2 coefficient ----------------------------------------

def _diffusion_rank2_rhs(x, y, z):
    u = _sin3(x, y, z)
    e = np.exp(x + y + z)
    ux = PI * np.cos(PI * x) * np.sin(PI * y) * np.sin(PI * z)
    uy = PI * np.sin(PI * x) * np.cos(PI * y) * np.sin(PI * z)
    uz = PI * np.sin(PI * x) * np.sin(PI * y) * np.cos(PI * z)
    ax = 2 * x * (1 + y**2) * (1 + z**2) + e
    ay = 2 * y * (1 + x**2) * (1 + z**2) + e
    az = 2 * z * (1 + x**2) * (1 + y**2) + e
    a = _a_sep(x, y, z) + e
    return -(ax * ux + ay * uy + az * uz - 3.0 * PI**2 * a * u)


def _diffusion_rank2(n: int, options: SolverOptions) -> ProblemSpec:
    one_sq = lambda t: 1.0 + t**2
    form = DiffusionForm(terms=((one_sq, one_sq, one_sq), (np.exp, np.exp, np.exp)))
    return ProblemSpec(
        operator=form,
        rhs=_diffusion_rank2_rhs,
        boundary=zero_dirichlet_boundary((2, 2, 2)),
        degrees=(n, n, n),
        options=options,
        exact=_sin3,
    )


# --- Helmholtz with kappa = sqrt(x + y + z + 42) ------------------------------

def _kappa_sqrt(x, y, z):
    return np.sqrt(x + y + z + 42.0)


def _helmholtz_sqrt_op() -> DiffOperator3:
    return DiffOperator3(
        orders=(2, 2, 2),
        coeffs={**_laplacian_coeffs(), (0, 0, 0): parse("sqrt(x+y+z+42)")},
    )


def _helmholtz_sqrt(n: int, options: SolverOptions) -> ProblemSpec:
    return ProblemSpec(
        operator=_helmholtz_sqrt_op(),
        rhs=lambda x, y, z: (_kappa_sqrt(x, y, z) - 3.0 * PI**2) * _sin3(x, y, z),
        boundary=zero_dirichlet_boundary((2, 2, 2)),
        degrees=(n, n, n),
        options=options,
        exact=_sin3,
    )


# --- Helmholtz, unknown solution, mixed boundary conditions -------------------

def _helmholtz_mixed(n: int, options: SolverOptions) -> ProblemSpec:
    boundary = zero_dirichlet_boundary((2, 2, 2))
    boundary[(1, 1)] = FaceBC("neumann", 0.0)
    return ProblemSpec(
        operator=_helmholtz_sqrt_op(),
        rhs=lambda x, y, z: np.ones(np.broadcast(x, y, z).shape),
        boundary=boundary,
        degrees=(n, n, n),
        options=options,
        exact=None,
    )


# --- heat equation (parabolic generator) --------------------------------------

_HEAT_OP = DiffOperator3(orders=(2, 2, 2), coeffs=_laplacian_coeffs())


def heat_exact(x, y, z, t):
    return np.exp(-3.0 * PI**2 * t) * _sin3(x, y, z)


# --- eigenvalue problem with separable potential -------------------------------

def _potential_1d(t):
    return np.sin(PI / 2.0 * (t + 1.0))


def _potential(x, y, z):
    return _potential_1d(x) * _potential_1d(y) * _potential_1d(z)


def _eig_operator() -> DiffOperator3:
    return DiffOperator3(
        orders=(2, 2, 2),
        coeffs={
            **_laplacian_coeffs(-1.0),
            (0, 0, 0): parse(
                "sin(pi/2*(x+1))*sin(pi/2*(y+1))*sin(pi/2*(z+1))"
            ),
        },
    )


def _eig_options(options: SolverOptions) -> SolverOptions:
    return replace(
        options, zero_order_separable=[(_potential_1d, _potential_1d, _potential_1d)]
    )


PRESETS: dict[str, Preset] = {
    "poisson": Preset(
        name="poisson", kind="stationary",
        description="Laplace operator, sin-product solution, zero Dirichlet",
        make=_poisson, default_n=30,
    ),
    "helmholtz-const": Preset(
        name="helmholtz-const", kind="stationary",
        description="Helmholtz with constant wavenumber 2, sin-product solution",
        make=_helmholtz_const, default_n=20,
    ),
    "helmholtz-gamma": Preset(
        name="helmholtz-gamma", kind="stationary",
        description="Helmholtz with x-dependent squared coefficient, gammas (5,3,5)",
        make=_helmholtz_gamma, default_n=40,
    ),
    "diffusion-sep": Preset(
        name="diffusion-sep", kind="stationary",
        description="divergence-form diffusion with separable coefficient",
        make=_diffusion_sep, default_n=30,
    ),
    "diffusion-rank2": Preset(
        name="diffusion-rank2", kind="stationary",
        description="divergence-form diffusion, rank-2 coefficient, GMRES",
        make=_diffusion_rank2, default_n=30,
    ),
    "helmholtz-sqrt": Preset(
        name="helmholtz-sqrt", kind="stationary",
        description="Helmholtz with kappa = sqrt(x+y+z+42), CP + GMRES",
        make=_helmholtz_sqrt, default_n=30,
    ),
    "helmholtz-mixed": Preset(
        name="helmholtz-mixed", kind="stationary",
        description="Helmholtz with kappa = sqrt(x+y+z+42), f = 1, Neumann right face",
        make=_helmholtz_mixed, default_n=30,
    ),
    "heat": Preset(
        name="heat", kind="parabolic",
        description="heat equation generator with sin-product initial data",
        make=None, u0=_sin3, operator=_HEAT_OP, default_n=20,
        extras={"h": 1e-2, "steps": 50},
    ),
    "eig-potential": Preset(
        name="eig-potential", kind="eigen",
        description="negative Laplacian plus separable potential, inverse iteration",
        make=None, u0=_potential, operator=_eig_operator(), default_n=20,
        extras={"iters": 50, "options_hook": _eig_options},
    ),
}


def make_problem(name: str, n: int | None = None, options: SolverOptions | None = None) -> ProblemSpec:
    """Build a stationary ProblemSpec from a preset name."""
    preset = PRESETS.get(name)
    if preset is None:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    if preset.kind != "stationary":
        raise ValueError(f"preset {name!r} is {preset.kind}, not stationary")
    return preset.make(n if n is not None else preset.default_n, options or SolverOptions())
