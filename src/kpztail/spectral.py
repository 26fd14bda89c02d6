"""Principal eigenvalue F(phi) of (1/2) d2/dx2 + phi and related functionals.

F is realized as the largest eigenvalue of the symmetric tridiagonal
discretization with Dirichlet walls at +-L.  The Dirichlet box shifts
F(0) from the continuum value 0 down to about -pi^2/(8 L^2); tolerances in
callers absorb this O(L^-2) bias.

F comes straight from LAPACK (`_top_eigenvalue`): one dstebz bisection for
the largest eigenvalue alone, the call `scipy.linalg.eigh_tridiagonal`
makes for one eigenvalue selected by index, without its argument
validation, so the result is bitwise equal to it.  `ground_state` and
`f_time_integral` share that call; the latter builds the off-diagonal once
per field.  No eigenvector is computed.  Every entry point refuses a
HalfLine: its centre would act as a Dirichlet wall.

The sharp bound F(phi) <= (1/2)(3/4)^(2/3) ||phi||_2^(4/3) is attained
exactly on the family a^2 sech^2(a(x - v)); its L2-normalized symmetric
representative is r_star(x) = (3/4)^(2/3) sech^2((3/4)^(1/3) x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstebz

from .grids import (
    Potential,
    SpaceGrid,
    SpaceTimeDeviation,
    l2_norm_space,
    require_full_line,
)

SHARP_BOUND_PREFACTOR = 0.5 * (3.0 / 4.0) ** (2.0 / 3.0)
GNS_CONSTANT = 3.0 ** (-1.0 / 8.0)


@dataclass(frozen=True)
class GroundState:
    value: float


def _top_eigenvalue(diag: np.ndarray, off: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric tridiagonal matrix with diagonal
    `diag` and off-diagonal `off`.

    The call eigh_tridiagonal makes for one eigenvalue selected by index:
    dstebz bisection (il = iu = n, tol 0, block order).  Raises
    np.linalg.LinAlgError when dstebz reports an error or returns no
    eigenvalue, as it does for entries near the limit of the float range.
    """
    n = diag.size
    if n == 1:  # as eigh_tridiagonal; the dstebz wrapper refuses an empty off-diagonal
        return float(diag[0])
    m, w, _, _, info = dstebz(diag, off, 2, 0.0, 1.0, n, n, 0.0, "B")
    if info != 0 or m < 1:
        raise np.linalg.LinAlgError(f"dstebz found no eigenvalue (info={info}, m={m})")
    return float(w[0])


def _bands(grid: SpaceGrid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the interior rows of (1/2)D + phi, for phi
    sampled in `values`; a 2-D `values` gives one diagonal per row."""
    return -1.0 / grid.dx**2 + values[..., 1:-1], np.full(grid.n_points - 3, 0.5 / grid.dx**2)


def ground_state(phi: Potential) -> GroundState:
    """Largest eigenvalue of the Dirichlet discretization of (1/2)D + phi."""
    require_full_line(phi.grid, "ground_state")
    return GroundState(_top_eigenvalue(*_bands(phi.grid, phi.values)))


def potbd_bound(phi: Potential) -> float:
    """Sharp upper bound (1/2)(3/4)^(2/3) ||phi||_2^(4/3) for F(phi)."""
    return SHARP_BOUND_PREFACTOR * l2_norm_space(phi) ** (4.0 / 3.0)


def gns_ratio(g: Potential) -> float:
    """||g||_4 / (||g'||_2^(1/4) ||g||_2^(3/4)); at most 3^(-1/8) + O(dx^2)."""
    dx = g.grid.dx
    w = g.grid.trapezoid_weights()
    gv = g.values
    l2 = np.sqrt(np.dot(w, gv * gv))
    if l2 <= 0:
        raise ValueError("gns_ratio needs a nonzero function")
    l4 = np.dot(w, gv**4) ** 0.25
    gp = np.gradient(gv, dx)
    dl2 = np.sqrt(np.dot(w, gp * gp))
    if dl2 <= 0:
        raise ValueError("gns_ratio needs a function that is not constant")
    return float(l4 / (dl2**0.25 * l2**0.75))


def r_star(grid: SpaceGrid) -> Potential:
    """L2-normalized symmetric optimizer (3/4)^(2/3) sech^2((3/4)^(1/3) x)."""
    a = (3.0 / 4.0) ** (1.0 / 3.0)
    return Potential(grid, a**2 / np.cosh(a * grid.x) ** 2)


def rho_star(grid: SpaceGrid) -> Potential:
    """The profile sech^2(x); squared L2 norm 4/3."""
    return Potential(grid, 1.0 / np.cosh(grid.x) ** 2)


def f_time_integral(rho: SpaceTimeDeviation) -> float:
    """Trapezoid-in-time integral of F(rho(r, .)) over the full time window;
    each slice's F is `ground_state(...).value`."""
    require_full_line(rho.sgrid, "f_time_integral")
    diags, off = _bands(rho.sgrid, rho.values)
    vals = [_top_eigenvalue(diag, off) for diag in diags]
    return float(np.trapezoid(vals, dx=rho.tgrid.dt))
