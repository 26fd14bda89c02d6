import hashlib
import math

import numpy as np
import pytest

from kpztail.grids import (
    HalfLine,
    Potential,
    SpaceGrid,
    SpaceTimeDeviation,
    TimeGrid,
    l2_norm_space,
)
from kpztail.spectral import (
    f_time_integral,
    gns_ratio,
    ground_state,
    potbd_bound,
    r_star,
    rho_star,
)
from kpztail.testing import random_smooth_deviation, random_smooth_potential, rng_from_seed

GNS_CONSTANT = 3.0 ** (-1.0 / 8.0)  # sharp constant of the bound on `gns_ratio`


def sech_state(grid):
    return Potential(grid, 1.0 / np.cosh(grid.x) / math.sqrt(2.0))


def rayleigh(g: Potential, phi: Potential) -> float:
    """Energy form (int phi g^2 - (1/2) (g')^2) / ||g||^2, a lower bound on F(phi).

    Uses the summation-by-parts kinetic term sum((g[i+1]-g[i])/dx)^2, the
    exact quadratic form of the eigenvalue matrix, so rayleigh(ground
    state) reproduces ground_state(phi).value to round-off.
    """
    assert g.grid == phi.grid
    dx = g.grid.dx
    gv = g.values
    norm_sq = float(np.dot(gv, gv) * dx)
    assert norm_sq > 0
    pot_term = float(np.dot(phi.values, gv * gv) * dx)
    diff = np.diff(gv) / dx
    kinetic = 0.5 * float(np.dot(diff, diff) * dx)
    return (pot_term - kinetic) / norm_sq


def test_rayleigh_examples(grid20, sech2_20):
    g = sech_state(grid20)
    assert rayleigh(g, sech2_20) == pytest.approx(0.5, abs=1e-5)
    tilted = Potential(grid20, 1.3 * sech2_20.values)
    assert rayleigh(g, tilted) == pytest.approx(0.5 + (2.0 / 3.0) * 0.3, abs=1e-5)
    zero = Potential(grid20, np.zeros(grid20.n_points))
    assert rayleigh(g, zero) < 0.0


def test_ground_state_examples(grid20, sech2_20):
    gs = ground_state(sech2_20)
    assert gs.value == pytest.approx(0.5, abs=1e-4)
    # the eigenvalue dominates every trial energy
    assert gs.value >= rayleigh(sech_state(grid20), sech2_20) - 1e-12

    zero = Potential(grid20, np.zeros(grid20.n_points))
    f0 = ground_state(zero).value
    assert f0 == pytest.approx(-math.pi**2 / (8 * grid20.half_width**2), abs=1e-8)

    for alpha in (0.5, 2.0):
        phi = Potential(grid20, alpha**2 / np.cosh(alpha * grid20.x) ** 2)
        assert ground_state(phi).value == pytest.approx(alpha**2 * 0.5, rel=1e-3)


def test_potbd_bound_examples(grid20, sech2_20):
    assert potbd_bound(sech2_20) == pytest.approx(0.5, abs=1e-6)
    zero = Potential(grid20, np.zeros(grid20.n_points))
    assert potbd_bound(zero) == 0.0


def test_bound_dominates_random_potentials():
    grid = SpaceGrid(20.0, 2001)
    rng = rng_from_seed(21)
    for _ in range(20):
        phi = random_smooth_potential(rng, grid, nonneg=False)
        assert ground_state(phi).value <= potbd_bound(phi) + 1e-6


def test_monotone_in_potential():
    grid = SpaceGrid(20.0, 2001)
    rng = rng_from_seed(22)
    for _ in range(10):
        phi = random_smooth_potential(rng, grid)
        # a quarter of a standard draw: amplitudes in [0.05, 0.5]
        bump = 0.25 * random_smooth_potential(rng, grid).values
        f1 = ground_state(phi).value
        f2 = ground_state(Potential(grid, phi.values + bump)).value
        assert f1 <= f2 + 1e-8


def test_translation_invariance(grid20):
    base = ground_state(rho_star(grid20)).value
    shifted = Potential(grid20, 1.0 / np.cosh(grid20.x - 3.0) ** 2)
    assert ground_state(shifted).value == pytest.approx(base, abs=1e-4)


def test_gns_examples(grid20):
    sech = Potential(grid20, 1.0 / np.cosh(grid20.x))
    assert gns_ratio(sech) == pytest.approx(GNS_CONSTANT, abs=1e-4)
    shifted = Potential(grid20, 1.0 / np.cosh(grid20.x - 3.0))
    assert gns_ratio(shifted) == pytest.approx(gns_ratio(sech), abs=1e-4)
    gauss = Potential(grid20, np.exp(-grid20.x**2 / 2.0))
    assert gns_ratio(gauss) <= GNS_CONSTANT - 1e-3


def test_gns_bound_random():
    grid = SpaceGrid(20.0, 2001)
    rng = rng_from_seed(23)
    for _ in range(200):
        g = random_smooth_potential(rng, grid, nonneg=False)
        assert gns_ratio(g) <= GNS_CONSTANT + 1e-4


def test_optimizer_profiles(grid20):
    rs = r_star(grid20)
    assert l2_norm_space(rs) == pytest.approx(1.0, abs=1e-6)
    rst = rho_star(grid20)
    assert l2_norm_space(rst) ** 2 == pytest.approx(4.0 / 3.0, abs=1e-6)
    # r_star is the unit-norm rescale alpha^2 sech^2(alpha x), alpha = ||sech^2||^(-2/3)
    alpha = l2_norm_space(rst) ** (-2.0 / 3.0)
    assert np.max(np.abs(alpha**2 / np.cosh(alpha * grid20.x) ** 2 - rs.values)) <= 1e-8


def test_scaling_invariance_of_f():
    # same potential family computed on matched grids
    for alpha in (0.5, 2.0):
        grid = SpaceGrid(20.0, 4001)
        phi = Potential(grid, alpha**2 / np.cosh(alpha * grid.x) ** 2)
        f = ground_state(phi).value
        assert f == pytest.approx(alpha**2 * 0.5, rel=1e-3)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def test_ground_state_pinned():
    # eigenvalues pinned bitwise: signed random potentials at n = 201 and
    # sech^2 at n = 4001
    rng = rng_from_seed(71)
    phis = [random_smooth_potential(rng, SpaceGrid(10.0, 201), nonneg=False) for _ in range(8)]
    phis.append(rho_star(SpaceGrid(20.0, 4001)))
    values = [ground_state(phi).value for phi in phis]
    assert values[-1] == 0.5000019444729875
    assert _digest(values) == (
        "1b63cc086302dfb04a432845e18bec4b97a62fdeebe9bebddf25925df247df65")


def test_f_time_integral_pinned():
    sg, tg = SpaceGrid(10.0, 201), TimeGrid(0.0, 2.0, 100)
    rng = rng_from_seed(72)
    values = [f_time_integral(random_smooth_deviation(rng, tg, sg)) for _ in range(6)]
    assert values[0] == 0.6543295032511404
    assert _digest(values) == "54c89b5ff636e32e1991b94666d0e337e764a9d30218d03bf5de8a24c093d29a"


@pytest.mark.parametrize("amplitude", [1e308, -1e308])
def test_eigenvalue_beyond_the_float_range_raises(grid20, amplitude):
    # dstebz returns no eigenvalue for these entries
    phi = Potential(grid20, amplitude * rho_star(grid20).values)
    with pytest.raises(np.linalg.LinAlgError, match="no eigenvalue"):
        ground_state(phi)
    with pytest.raises(np.linalg.LinAlgError, match="no eigenvalue"):
        f_time_integral(SpaceTimeDeviation.time_constant(TimeGrid(0.0, 1.0, 4), phi))


# on the half of SpaceGrid(10, 401) the Dirichlet eigenproblem has its wall
# at x = 0: F(sech^2) came out -0.0152 instead of 0.5
_HALF = HalfLine(SpaceGrid(10.0, 401))
_HALF_SECH2 = Potential(_HALF, 1.0 / np.cosh(_HALF.x) ** 2)


@pytest.mark.parametrize("call", [
    lambda: ground_state(_HALF_SECH2),
    lambda: f_time_integral(SpaceTimeDeviation.time_constant(TimeGrid(0.0, 1.0, 4), _HALF_SECH2)),
], ids=["ground_state", "f_time_integral"])
def test_half_line_rejected(call):
    with pytest.raises(ValueError, match="half line"):
        call()
