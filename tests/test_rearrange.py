import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpztail.grids import (
    HalfLine,
    Potential,
    SpaceGrid,
    SpaceTimeDeviation,
    TimeGrid,
    l2_norm_space,
)
from kpztail.rearrange import (
    bll_check,
    hardy_littlewood_check,
    steiner,
    steiner_increases_z,
    sym_decr_rearrange,
)
from kpztail.spectral import rho_star
from kpztail.testing import random_smooth_deviation, random_smooth_potential, rng_from_seed


@pytest.fixture(scope="module")
def grid():
    return SpaceGrid(10.0, 401)


def _even_and_non_increasing(f):
    """Exactly even about the middle node and non-increasing away from it."""
    v = f.values
    return np.array_equal(v, v[::-1]) and bool(np.all(np.diff(v[(v.size - 1) // 2:]) <= 0))


def test_indicator_recenters(grid):
    f = Potential(grid, ((grid.x >= 1.0) & (grid.x <= 3.0)).astype(float))
    fs = sym_decr_rearrange(f)
    expected = ((np.abs(grid.x) <= 1.0)).astype(float)
    # agreement up to one grid cell at the plateau edge
    assert np.sum(np.abs(fs.values - expected)) * grid.dx <= 2 * grid.dx + 1e-12


def test_shifted_sech2_recenters():
    # wide domain so the translate's truncated tail sits below the tolerance
    wide = SpaceGrid(20.0, 801)
    f = Potential(wide, 1.0 / np.cosh(wide.x - 5.0) ** 2)
    fs = sym_decr_rearrange(f)
    assert np.max(np.abs(fs.values - 1.0 / np.cosh(wide.x) ** 2)) <= 1e-8


def test_norm_preservation_and_idempotence(grid):
    rng = rng_from_seed(42)
    for _ in range(100):
        f = random_smooth_potential(rng, grid)
        fs = sym_decr_rearrange(f)
        assert abs(l2_norm_space(fs) - l2_norm_space(f)) <= 1e-10
        fss = sym_decr_rearrange(fs)
        assert np.array_equal(fss.values, fs.values)
        assert _even_and_non_increasing(fs)


def test_rearrange_rejects_negative(grid):
    with pytest.raises(ValueError):
        sym_decr_rearrange(Potential(grid, -np.ones(grid.n_points)))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_order_preservation(seed):
    grid = SpaceGrid(10.0, 201)
    rng = rng_from_seed(seed)
    f = random_smooth_potential(rng, grid)
    g = Potential(grid, f.values + random_smooth_potential(rng, grid).values)
    fs = sym_decr_rearrange(f).values
    gs = sym_decr_rearrange(g).values
    assert np.all(fs <= gs + 1e-12)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_equimeasurable_at_odd_ranks(seed):
    # thresholds below odd-rank order statistics leave counts unchanged even
    # though shell values merge pairwise
    grid = SpaceGrid(10.0, 201)
    rng = rng_from_seed(seed)
    f = random_smooth_potential(rng, grid)
    fs = sym_decr_rearrange(f).values
    s = np.sort(f.values)[::-1]
    for rank in range(0, min(41, grid.n_points), 2):
        level = s[rank] * (1 - 1e-12) - 1e-15
        assert np.sum(f.values > level) == np.sum(fs > level)


def test_hardy_littlewood(grid):
    f = Potential(grid, ((grid.x >= 0.0) & (grid.x <= 2.0)).astype(float))
    g = Potential(grid, ((grid.x >= 1.0) & (grid.x <= 3.0)).astype(float))
    lhs, rhs = hardy_littlewood_check(f, g)
    assert lhs == pytest.approx(1.0, abs=2 * grid.dx)
    assert rhs == pytest.approx(2.0, abs=2 * grid.dx)

    sd = rho_star(grid)
    lhs, rhs = hardy_littlewood_check(sd, sd)
    assert lhs == rhs

    rng = rng_from_seed(4242)
    for _ in range(200):
        a = random_smooth_potential(rng, grid)
        b = random_smooth_potential(rng, grid)
        lhs, rhs = hardy_littlewood_check(a, b)
        assert lhs <= rhs + 1e-9


def test_bll_inequality():
    grid = SpaceGrid(8.0, 321)
    ind = Potential(grid, (np.abs(grid.x) <= 1.0).astype(float))
    coeffs = [(1.0, 0.0), (0.0, 1.0), (1.0, -1.0)]
    lhs, rhs = bll_check(ind, ind, ind, coeffs)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert lhs == pytest.approx(3.0, abs=0.2)  # indicator edges smear by ~dx

    shifted = Potential(grid, ((grid.x >= 0.0) & (grid.x <= 2.0)).astype(float))
    lhs2, rhs2 = bll_check(ind, ind, shifted, coeffs)
    assert lhs2 < rhs2
    assert lhs2 == pytest.approx(2.0, abs=0.2)

    rng = rng_from_seed(31)
    for _ in range(20):
        fs = [random_smooth_potential(rng, grid, center_span=3.0) for _ in range(3)]
        cf = rng.integers(-2, 3, size=(3, 2)).astype(float)
        if np.all(cf == 0):
            cf[0, 0] = 1.0
        lhs3, rhs3 = bll_check(*fs, cf)
        assert lhs3 <= rhs3 + 1e-8 * (1 + rhs3)


def test_steiner_slices(grid):
    wide = SpaceGrid(20.0, 801)
    tg = TimeGrid(0.0, 2.0, 40)
    tt, xx = np.meshgrid(tg.times, wide.x, indexing="ij")
    rho = SpaceTimeDeviation(tg, wide, 1.0 / np.cosh(xx - tt) ** 2)
    sym = steiner(rho)
    target = 1.0 / np.cosh(wide.x) ** 2
    assert np.max(np.abs(sym.values - target[None, :])) <= 1e-8

    already = SpaceTimeDeviation.time_constant(tg, rho_star(grid))
    assert np.max(np.abs(steiner(already).values - already.values)) <= 1e-10

    rng = rng_from_seed(7)
    rho_r = random_smooth_deviation(rng, tg, grid)
    from kpztail.grids import l2_norm_spacetime

    assert abs(l2_norm_spacetime(steiner(rho_r)) - l2_norm_spacetime(rho_r)) <= 1e-10


def test_steiner_increases_terminal_value():
    sg = SpaceGrid(10.0, 201)
    tg = TimeGrid(0.0, 2.0, 160)
    # symmetric decreasing input: equality up to discretization noise
    sym = SpaceTimeDeviation.time_constant(tg, rho_star(sg))
    z, z_s = steiner_increases_z(sym)
    assert z == pytest.approx(z_s, rel=1e-6)

    shifted = SpaceTimeDeviation.time_constant(
        tg, Potential(sg, 1.0 / np.cosh(sg.x - 1.0) ** 2))
    z, z_s = steiner_increases_z(shifted)
    assert z < z_s
    assert (z_s - z) / z >= 1e-4

    rng = rng_from_seed(8)
    for _ in range(10):
        rho = random_smooth_deviation(rng, tg, sg)
        z, z_s = steiner_increases_z(rho)
        assert z <= z_s * (1 + 1e-4)


# the rearrangement centres its output at the middle node, so on a half
# line it would not be symmetric about x = 0; every entry point refuses one
_HALF = HalfLine(SpaceGrid(10.0, 401))
_HALF_F = Potential(_HALF, 1.0 / np.cosh(_HALF.x) ** 2)


@pytest.mark.parametrize("call", [
    lambda: sym_decr_rearrange(_HALF_F),
    lambda: steiner(SpaceTimeDeviation.time_constant(TimeGrid(0.0, 1.0, 4), _HALF_F)),
    lambda: hardy_littlewood_check(_HALF_F, _HALF_F),
    lambda: bll_check(_HALF_F, _HALF_F, _HALF_F, np.eye(3, 2)),
], ids=["sym_decr_rearrange", "steiner", "hardy_littlewood_check", "bll_check"])
def test_half_line_rejected(call):
    with pytest.raises(ValueError, match="half line"):
        call()
