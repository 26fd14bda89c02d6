import math

import numpy as np
import pytest

from kpztail.grids import Potential, SpaceGrid, l2_norm_space
from kpztail.spectral import (
    GNS_CONSTANT,
    gns_ratio,
    ground_state,
    lipschitz_probe,
    normalized_rescale,
    potbd_bound,
    r_star,
    rho_star,
    rayleigh,
    stability_probe,
)
from kpztail.testing import random_smooth_potential, rng_from_seed


def sech_state(grid):
    return Potential(grid, 1.0 / np.cosh(grid.x) / math.sqrt(2.0))


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
    # consistency between the eigenvalue and the energy form
    assert rayleigh(gs.eigenfunction, sech2_20) == pytest.approx(gs.value, abs=1e-8)
    assert l2_norm_space(gs.eigenfunction) == pytest.approx(1.0, abs=1e-10)
    assert gs.eigenfunction.values.min() >= 0.0
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
    # r_star is the unit-norm rescale of sech^2
    rescaled = normalized_rescale(rst)
    assert np.max(np.abs(rescaled.values - rs.values)) <= 1e-8


def test_lipschitz_probe(grid20, sech2_20):
    ratios = lipschitz_probe(sech2_20, sech2_20, [0.2, 0.1, 0.05])
    for r in ratios:
        assert 0.5 <= r <= 0.8
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread <= 0.10

    zeros = lipschitz_probe(sech2_20, Potential(grid20, np.zeros(grid20.n_points)), [0.1, 0.05])
    assert zeros == [0.0, 0.0]

    flat = Potential(grid20, np.zeros(grid20.n_points))
    ind = Potential(grid20, (np.abs(grid20.x) <= 1.0).astype(float))
    for r in lipschitz_probe(flat, ind, [0.2, 0.1]):
        assert 0.0 <= r <= 1.0


def test_stability_probe(grid20, sech2_20):
    defect, distance = stability_probe(sech2_20)
    assert defect <= 1e-4
    assert distance <= 1e-3

    wide = Potential(grid20, 1.0 / np.cosh(grid20.x / 2.0) ** 2)
    d2, dist2 = stability_probe(wide)
    assert d2 > 1e-4 and dist2 > 1e-3

    gauss = np.exp(-grid20.x**2 / 2.0)
    prev_defect, prev_dist = -1.0, -1.0
    for s in (0.0, 0.25, 0.5):
        phi = Potential(grid20, (1 - s) * sech2_20.values + s * gauss)
        d, dist = stability_probe(phi)
        assert d > prev_defect and dist > prev_dist
        prev_defect, prev_dist = d, dist

    shifted = Potential(grid20, 1.0 / np.cosh(grid20.x - 1.0) ** 2)
    with pytest.raises(ValueError):
        stability_probe(shifted)


def test_scaling_invariance_of_f():
    # same potential family computed on matched grids
    for alpha in (0.5, 2.0):
        grid = SpaceGrid(20.0, 4001)
        phi = Potential(grid, alpha**2 / np.cosh(alpha * grid.x) ** 2)
        f = ground_state(phi).value
        assert f == pytest.approx(alpha**2 * 0.5, rel=1e-3)
