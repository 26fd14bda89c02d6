import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpztail.grids import (
    Field,
    HalfLine,
    Potential,
    SpaceGrid,
    SpaceTimeDeviation,
    TimeGrid,
    heat_kernel,
    l2_norm_space,
    l2_norm_spacetime,
    samples_to_csv,
    standard_grid,
    standard_time_grid,
)


def test_space_grid_basics():
    g = SpaceGrid(2.0, 5)
    assert g.dx == pytest.approx(1.0)
    assert np.allclose(g.x, [-2, -1, 0, 1, 2])
    assert g.x[g.center_index] == 0.0
    with pytest.raises(ValueError):
        SpaceGrid(2.0, 4)  # even
    with pytest.raises(ValueError):
        SpaceGrid(-1.0, 5)


@given(st.integers(min_value=1, max_value=400), st.floats(min_value=0.5, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_space_grid_exact_negation(half_nodes, half_width):
    g = SpaceGrid(half_width, 2 * half_nodes + 1)
    x = g.x
    assert np.all(x == -x[::-1])  # exact floating-point negation
    assert x[g.center_index] == 0.0


def test_space_grid_index_of_needs_a_node():
    g = SpaceGrid(4.0, 81)  # dx = 0.1
    assert g.index_of(0.0) == 40
    assert g.index_of(-4.0) == 0 and g.index_of(4.0) == 80
    for i in (0, 13, 40, 77, 80):
        assert g.index_of(g.x[i]) == i
    assert g.index_of(0.3) == 43  # 0.3 is a node up to round-off
    assert g.index_of(8 * 0.35) == 68  # lam x with lam = 8, x = 0.35
    for off_node in (0.05, 0.3 + 1e-6, -3.96, 4.04, 5.0, -100.0):
        with pytest.raises(ValueError, match="not a grid node"):
            g.index_of(off_node)


def test_half_line_grid():
    full = SpaceGrid(4.0, 81)  # dx = 0.1
    half = HalfLine(full)
    assert half.n_points == 41 and half.center_index == 0
    assert half.dx == full.dx
    assert np.array_equal(half.x, full.x[40:])  # the full grid's nodes, bitwise
    assert half.index_of(0.0) == 0 and half.index_of(4.0) == 40 and half.index_of(0.3) == 3
    for bad in (-0.1, 0.05):
        with pytest.raises(ValueError, match="not a grid node"):
            half.index_of(bad)
    # the weights integrate the even extension over [-L, L]
    w = half.trapezoid_weights()
    assert w[0] == full.dx and w[-1] == full.dx and np.all(w[1:-1] == 2 * full.dx)
    even = 1.0 / np.cosh(full.x) ** 2
    assert np.dot(w, even[40:]) == pytest.approx(np.dot(full.trapezoid_weights(), even), rel=1e-14)
    # unfold mirrors every row about x = 0
    rows = np.arange(2 * 41, dtype=float).reshape(2, 41)
    unfolded = half.unfold(rows)
    assert unfolded.shape == (2, 81)
    assert np.array_equal(unfolded, unfolded[:, ::-1]) and np.array_equal(unfolded[:, 40:], rows)


def test_time_grid():
    tg = TimeGrid(0.0, 2.0, 200)
    assert tg.dt == pytest.approx(0.01)
    assert tg.times[0] == 0.0
    assert tg.times[-1] == pytest.approx(2.0)
    assert tg.index_of(1.0) == 100
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)


def test_heat_kernel_values():
    assert heat_kernel(2.0, 0.0) == pytest.approx(1.0 / math.sqrt(4 * math.pi), abs=1e-12)
    assert heat_kernel(1.0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
    with pytest.raises(ValueError):
        heat_kernel(0.0, 1.0)
    with pytest.raises(ValueError):
        heat_kernel(-1.0, 1.0)


@given(st.floats(min_value=1e-3, max_value=4.0))
@settings(max_examples=30, deadline=None)
def test_heat_kernel_normalized(t):
    # trapezoid normalization once L >= 10 sqrt(t) and dx <= 0.01
    g = SpaceGrid(20.0, 4001)
    p = Potential(g, heat_kernel(t, g.x))
    mass = np.dot(g.trapezoid_weights(), p.values)
    assert abs(mass - 1.0) <= 1e-6


def test_l2_norm_space_examples(grid20, sech2_20):
    assert l2_norm_space(sech2_20) == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-6)
    zero = Potential(grid20, np.zeros(grid20.n_points))
    assert l2_norm_space(zero) == 0.0
    ind = Potential(grid20, (np.abs(grid20.x) <= 1.0).astype(float))
    assert l2_norm_space(ind) == pytest.approx(math.sqrt(2.0), abs=grid20.dx)


@given(st.floats(min_value=-7.0, max_value=7.0).filter(lambda c: c != 0.0))
@settings(max_examples=30, deadline=None)
def test_norm_homogeneous(c):
    g = SpaceGrid(10.0, 401)
    f = Potential(g, 1.0 / np.cosh(g.x) ** 2)
    assert l2_norm_space(Potential(g, c * f.values)) == pytest.approx(
        abs(c) * l2_norm_space(f), rel=1e-14)


def test_l2_norm_spacetime_examples(grid20):
    lam = 1.0
    tg = TimeGrid(0.0, 2.0 * lam, 200)
    rho = SpaceTimeDeviation.time_constant(tg, Potential(grid20, 1.0 / np.cosh(grid20.x) ** 2))
    assert l2_norm_spacetime(rho) == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-4)

    zero = SpaceTimeDeviation(tg, grid20, np.zeros((201, grid20.n_points)))
    assert l2_norm_spacetime(zero) == 0.0

    g1 = SpaceGrid(1.0, 201)
    tg1 = TimeGrid(0.0, 1.0, 100)
    c = 0.7
    rho_c = SpaceTimeDeviation(tg1, g1, np.full((101, 201), c))
    assert l2_norm_spacetime(rho_c) == pytest.approx(c * math.sqrt(2.0), abs=g1.dx)


def test_validation_errors():
    g = SpaceGrid(1.0, 5)
    with pytest.raises(ValueError):
        Potential(g, np.ones(4))
    with pytest.raises(ValueError):
        Potential(g, np.array([1.0, 2.0, np.nan, 0.0, 1.0]))
    tg = TimeGrid(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        SpaceTimeDeviation(tg, g, np.ones((2, 5)))
    with pytest.raises(ValueError):
        Field(tg, g, np.zeros((3, 5)), strictly_positive=True)


def test_field_csv_and_descriptor():
    g = SpaceGrid(1.0, 3)
    tg = TimeGrid(0.0, 1.0, 1)
    body = samples_to_csv(tg, g, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    lines = body.strip().split("\n")
    assert lines[0] == "t,x,value"
    assert len(lines) == 1 + 2 * 3
    assert lines[1] == "0,-1,1"
    assert lines[-1] == "1,1,6"


def test_csv_twelve_significant_digits():
    g = SpaceGrid(1.0, 3)
    tg = TimeGrid(0.0, 1.0, 1)
    v = 0.123456789012345
    assert "0.123456789012" in samples_to_csv(tg, g, np.full((2, 3), v))


def test_standard_grids_take_the_step_as_given():
    assert standard_grid(0.01, 20.0) == SpaceGrid(20.0, 4001)
    assert standard_grid(0.05, 10.0) == SpaceGrid(10.0, 401)
    assert standard_time_grid(0.02, 8.0) == TimeGrid(0.0, 8.0, 400)
    assert standard_time_grid(0.01, 1.0) == TimeGrid(0.0, 1.0, 100)
    # every depth and step the package runs at divides the horizon 2 lam
    for lam in (0.5, 1.0, 4.0, 8.0, 16.0, 20.0, 24.0, 32.0):
        for dt in (0.01, 0.02):
            assert standard_time_grid(dt, 2.0 * lam).n_steps == round(2.0 * lam / dt)
    # a step that does not divide its span raises instead of snapping
    with pytest.raises(ValueError, match="does not divide"):
        standard_grid(0.3, 20.0)
    with pytest.raises(ValueError, match="does not divide"):
        standard_grid(0.4, 1.0)  # divides 2 L but not L: x = 0 would not be a node
    with pytest.raises(ValueError, match="does not divide"):
        standard_time_grid(0.3, 2.0)
    with pytest.raises(ValueError, match="does not divide"):
        standard_time_grid(0.03, 16.0)
    with pytest.raises(ValueError, match="does not divide"):
        standard_time_grid(1e-320, 2.0)  # span / step overflows to inf
    for step in (0.0, -0.01, float("nan")):
        with pytest.raises(ValueError, match="step must be positive"):
            standard_time_grid(step, 2.0)


def test_time_constant_deviation_is_a_read_only_row(grid20, sech2_20):
    tg = TimeGrid(0.0, 1.0, 50)
    rho = SpaceTimeDeviation.time_constant(tg, sech2_20)
    assert rho.values.shape == (51, grid20.n_points)
    assert rho.values.strides[0] == 0
    assert np.array_equal(rho.values[37], sech2_20.values)
    with pytest.raises(ValueError, match="read-only"):
        rho.values[3, 5] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        rho.values += 1.0
    # the row is a copy: later writes to the potential's array do not leak in
    phi = Potential(grid20, sech2_20.values.copy())
    held = SpaceTimeDeviation.time_constant(tg, phi)
    phi.values[0] = 5.0
    assert held.values[10, 0] == sech2_20.values[0]
    # a broadcast row is still checked for non-finite entries
    row = sech2_20.values.copy()
    row[7] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        SpaceTimeDeviation(tg, grid20, np.broadcast_to(row, (51, grid20.n_points)))
