"""Discrete symmetric decreasing rearrangement and rearrangement inequalities.

The rearrangement sorts node values in decreasing order and assigns them to
nodes ordered by |x|: the center node takes the largest value and the shell
{+k dx, -k dx} takes the next two, merged into a single shell value.  The
two values of a shell are merged by their quadratic mean sqrt((a^2+b^2)/2),
which keeps the discrete L2 norm exactly (the output is a permutation at
the level of squares), makes the output exactly symmetric and
non-increasing in |x|, and keeps the sorted-pairing proof of the
Hardy-Littlewood inequality valid shell by shell (Cauchy-Schwarz).  Other
L^p norms move by at most the within-shell spread.  Fields are expected to
vanish at the walls, where the trapezoid rule halves the weight.  The
middle node is x = 0 only on a full SpaceGrid, so the entry points
`sym_decr_rearrange`, `steiner`, `hardy_littlewood_check` and `bll_check`
refuse a HalfLine, and `steiner_increases_z` refuses one through `steiner`.
"""

from __future__ import annotations

import numpy as np

from .grids import Potential, SpaceTimeDeviation, require_full_line


def _rearrange_values(v: np.ndarray) -> np.ndarray:
    n = v.shape[0]
    m = (n - 1) // 2
    s = np.sort(v)[::-1]
    out = np.empty_like(v)
    out[m] = s[0]
    pair_sq = 0.5 * (s[1::2] ** 2 + s[2::2] ** 2)
    shell = np.sqrt(pair_sq)
    out[m + 1:] = shell
    out[:m] = shell[::-1]
    return out


def sym_decr_rearrange(f: Potential) -> Potential:
    """Symmetric decreasing rearrangement of a nonnegative sampled function."""
    require_full_line(f.grid, "sym_decr_rearrange")
    if np.any(f.values < 0):
        raise ValueError("rearrangement requires f >= 0")
    return Potential(f.grid, _rearrange_values(f.values))


def steiner(rho: SpaceTimeDeviation) -> SpaceTimeDeviation:
    """Slice-wise rearrangement in space, one time slice at a time."""
    require_full_line(rho.sgrid, "steiner")
    if np.any(rho.values < 0):
        raise ValueError("Steiner symmetrization requires rho >= 0")
    out = np.empty(rho.values.shape)
    for k in range(rho.values.shape[0]):
        out[k] = _rearrange_values(rho.values[k])
    return SpaceTimeDeviation(rho.tgrid, rho.sgrid, out)


def hardy_littlewood_check(f: Potential, g: Potential) -> tuple[float, float]:
    """(int f g, int f* g*); the first never exceeds the second."""
    require_full_line(f.grid, "hardy_littlewood_check")
    if np.any(f.values < 0) or np.any(g.values < 0):
        raise ValueError("Hardy-Littlewood check requires nonnegative inputs")
    if f.grid != g.grid:
        raise ValueError("f and g live on different grids")
    w = f.grid.trapezoid_weights()
    lhs = float(np.dot(w, f.values * g.values))
    rhs = float(np.dot(w, _rearrange_values(f.values) * _rearrange_values(g.values)))
    return lhs, rhs


def bll_check(f1: Potential, f2: Potential, f3: Potential, coeffs) -> tuple[float, float]:
    """Two-variable, three-function multilinear rearrangement inequality.

    lhs = int int f1(a11 x1 + a12 x2) f2(a21 x1 + a22 x2) f3(a31 x1 + a32 x2),
    rhs the same with every f_j rearranged; tensor trapezoid quadrature with
    linear interpolation and zero extension off the grid.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (3, 2):
        raise ValueError(f"coefficient matrix must be 3x2, got {coeffs.shape}")
    fs = (f1, f2, f3)
    for f in fs:
        if np.any(f.values < 0):
            raise ValueError("BLL check requires nonnegative inputs")
        if f.grid != f1.grid:
            raise ValueError("all functions must share one grid")
    grid = f1.grid
    require_full_line(grid, "bll_check")
    x = grid.x
    w = grid.trapezoid_weights()
    x1 = x[:, None]
    x2 = x[None, :]

    def tensor_integral(values3):
        prod = np.ones((grid.n_points, grid.n_points))
        for (a, b), vals in zip(coeffs, values3):
            arg = a * x1 + b * x2
            prod *= np.interp(arg, x, vals, left=0.0, right=0.0)
        return float(w @ prod @ w)

    lhs = tensor_integral([f.values for f in fs])
    rhs = tensor_integral([_rearrange_values(f.values) for f in fs])
    return lhs, rhs


def steiner_increases_z(rho: SpaceTimeDeviation) -> tuple[float, float]:
    """(Z(rho; T, 0), Z(rho^s; T, 0)); symmetrization never decreases the value."""
    from .solver import solve_delta_at

    t_end = rho.tgrid.t_end
    return solve_delta_at(rho, t_end, 0.0), solve_delta_at(steiner(rho), t_end, 0.0)
