"""Named benchmark problems with manufactured solutions where known.

Each preset is a data record: operator, right side, exact solution, boundary
data, initial or starting function, default degree, and extras such as the
time step of ``heat``.
:func:`make_problem` turns a stationary preset into a ``ProblemSpec``; the
CLI and the acceptance suite build problems from here.  Right sides of
manufactured problems are computed analytically from the exact solution,
never through the discretized operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .drivers import (
    DiffusionForm,
    FaceBC,
    Operator,
    ProblemSpec,
    SolverOptions,
    face_restriction,
    zero_dirichlet_boundary,
)
from .expr import parse
from .opdisc import Coefficient, DiffOperator3

PI = np.pi


@dataclass(frozen=True)
class Preset:
    """One named problem.  ``boundary`` is a ``{(mode, side): FaceBC}`` dict,
    or ``None`` for zero Dirichlet data on the operator's orders."""

    name: str
    kind: str  # stationary | parabolic | eigen
    description: str
    operator: Operator  # stationary operator, generator or eigen operator
    rhs: Callable | None = None  # (x, y, z) -> f (stationary)
    exact: Callable | None = None  # (x, y, z) -> u, or (x, y, z, t) for parabolic
    boundary: dict | None = None
    u0: Callable | None = None  # initial/starting function (parabolic, eigen)
    default_n: int = 20
    extras: dict = field(default_factory=dict)


def _laplacian(sign: float = 1.0, zero_order: Coefficient | None = None) -> DiffOperator3:
    """``sign`` times the Laplacian, plus ``zero_order`` times the identity."""
    coeffs = {(2, 0, 0): sign, (0, 2, 0): sign, (0, 0, 2): sign}
    if zero_order is not None:
        coeffs[(0, 0, 0)] = zero_order
    return DiffOperator3(orders=(2, 2, 2), coeffs=coeffs)


def _sin3(x, y, z):
    return np.sin(PI * x) * np.sin(PI * y) * np.sin(PI * z)


def _dirichlet_faces(exact: Callable) -> dict:
    """Dirichlet data on all six faces taken from the exact solution."""
    return {
        (mode, side): FaceBC("dirichlet", face_restriction(exact, mode, side))
        for mode in (1, 2, 3)
        for side in (-1, 1)
    }


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


# --- diffusion with separable and rank-2 coefficients ------------------------

def _one_sq(t):
    return 1.0 + t**2


def _a_sep(x, y, z):
    return _one_sq(x) * _one_sq(y) * _one_sq(z)


def _diffusion_rhs(x, y, z, e):
    """``-div(a grad u)`` for ``u = _sin3`` and ``a = _a_sep + e`` with ``e``
    zero or ``exp(x + y + z)``, which is its own partial derivative."""
    u = _sin3(x, y, z)
    ux = PI * np.cos(PI * x) * np.sin(PI * y) * np.sin(PI * z)
    uy = PI * np.sin(PI * x) * np.cos(PI * y) * np.sin(PI * z)
    uz = PI * np.sin(PI * x) * np.sin(PI * y) * np.cos(PI * z)
    ax = 2 * x * (1 + y**2) * (1 + z**2) + e
    ay = 2 * y * (1 + x**2) * (1 + z**2) + e
    az = 2 * z * (1 + x**2) * (1 + y**2) + e
    a = _a_sep(x, y, z) + e
    return -(ax * ux + ay * uy + az * uz - 3.0 * PI**2 * a * u)


# --- Helmholtz with kappa = sqrt(x + y + z + 42) ------------------------------

def _kappa_sqrt(x, y, z):
    return np.sqrt(x + y + z + 42.0)


_HELMHOLTZ_SQRT = _laplacian(1.0, parse("sqrt(x+y+z+42)"))


# --- eigenvalue problem with separable potential -------------------------------

def _potential_1d(t):
    return np.sin(PI / 2.0 * (t + 1.0))


def _potential(x, y, z):
    return _potential_1d(x) * _potential_1d(y) * _potential_1d(z)


_KAPPA_CONST = 2.0

PRESETS: dict[str, Preset] = {p.name: p for p in (
    Preset(
        "poisson", "stationary",
        "Laplace operator, sin-product solution, zero Dirichlet",
        operator=_laplacian(),
        rhs=lambda x, y, z: -3.0 * PI**2 * _sin3(x, y, z),
        exact=_sin3, default_n=30,
    ),
    Preset(
        "helmholtz-const", "stationary",
        "Helmholtz with constant wavenumber 2, sin-product solution",
        operator=_laplacian(1.0, _KAPPA_CONST**2),
        rhs=lambda x, y, z: (_KAPPA_CONST**2 - 3.0 * PI**2) * _sin3(x, y, z),
        exact=_sin3, default_n=20,
    ),
    Preset(
        "helmholtz-gamma", "stationary",
        "Helmholtz with x-dependent squared coefficient, gammas (5,3,5)",
        operator=_laplacian(1.0, parse("(5-3*cos(pi*5*x/2))^2")),
        rhs=_helmholtz_gamma_rhs, exact=_helmholtz_gamma_exact,
        boundary=_dirichlet_faces(_helmholtz_gamma_exact), default_n=40,
    ),
    Preset(
        "diffusion-sep", "stationary",
        "divergence-form diffusion with separable coefficient",
        operator=DiffusionForm(terms=((_one_sq, _one_sq, _one_sq),)),
        rhs=lambda x, y, z: _diffusion_rhs(x, y, z, 0.0),
        exact=_sin3, default_n=30,
    ),
    Preset(
        "diffusion-rank2", "stationary",
        "divergence-form diffusion, rank-2 coefficient, GMRES",
        operator=DiffusionForm(terms=((_one_sq, _one_sq, _one_sq), (np.exp, np.exp, np.exp))),
        rhs=lambda x, y, z: _diffusion_rhs(x, y, z, np.exp(x + y + z)),
        exact=_sin3, default_n=30,
    ),
    Preset(
        "helmholtz-sqrt", "stationary",
        "Helmholtz with kappa = sqrt(x+y+z+42), CP + GMRES",
        operator=_HELMHOLTZ_SQRT,
        rhs=lambda x, y, z: (_kappa_sqrt(x, y, z) - 3.0 * PI**2) * _sin3(x, y, z),
        exact=_sin3, default_n=30,
    ),
    Preset(
        "helmholtz-mixed", "stationary",
        "Helmholtz with kappa = sqrt(x+y+z+42), f = 1, Neumann right face",
        operator=_HELMHOLTZ_SQRT,
        rhs=lambda x, y, z: np.ones(np.broadcast(x, y, z).shape),
        boundary={**zero_dirichlet_boundary((2, 2, 2)), (1, 1): FaceBC("neumann", 0.0)},
        default_n=30,
    ),
    Preset(
        "heat", "parabolic",
        "heat equation generator with sin-product initial data",
        operator=_laplacian(),
        exact=lambda x, y, z, t: np.exp(-3.0 * PI**2 * t) * _sin3(x, y, z),
        u0=_sin3, default_n=20, extras={"h": 1e-2, "steps": 50},
    ),
    Preset(
        "eig-potential", "eigen",
        "negative Laplacian plus separable potential, inverse iteration",
        operator=_laplacian(
            -1.0, parse("sin(pi/2*(x+1))*sin(pi/2*(y+1))*sin(pi/2*(z+1))")
        ),
        u0=_potential, default_n=20,
        # the identity: the split reads the separable potential off its
        # expression; kept for its one caller, perfbench/workloads.py
        extras={"iters": 50, "options_hook": lambda options: options},
    ),
)}


def make_problem(name: str, n: int | None = None, options: SolverOptions | None = None) -> ProblemSpec:
    """Build a stationary ProblemSpec from a preset name."""
    preset = PRESETS.get(name)
    if preset is None:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    if preset.kind != "stationary":
        raise ValueError(f"preset {name!r} is {preset.kind}, not stationary")
    n = n if n is not None else preset.default_n
    if preset.boundary is None:
        boundary = zero_dirichlet_boundary(preset.operator.orders)
    else:
        boundary = dict(preset.boundary)
    return ProblemSpec(
        operator=preset.operator,
        rhs=preset.rhs,
        boundary=boundary,
        degrees=(n, n, n),
        options=options or SolverOptions(),
        exact=preset.exact,
    )
