import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from kpztail import bridge
from kpztail.bridge import (
    BridgeConfig,
    ShapeOptions,
    first_hitting_times,
    fk_estimate,
    growth_rate,
    h_star,
    hitting_density,
    hitting_mgf_quadrature,
    laplace_logmgf,
    laplace_v,
    laplace_v_argmax,
    shape_profile,
)
from kpztail.grids import (
    Potential,
    SpaceGrid,
    SpaceTimeDeviation,
    TimeGrid,
    format_value,
    heat_kernel,
    standard_time_grid,
)
from kpztail.solver import solve_delta_at, solve_delta_scaled
from kpztail.spectral import rho_star
from kpztail.testing import rng_from_seed


@pytest.fixture(scope="module")
def phi20():
    g = SpaceGrid(20.0, 2001)
    return rho_star(g)


def sample_paths(start, end, duration, cfg):
    """Every path of the bridge kernel start -> end, shape (n_paths, n_steps + 1).

    Rows are filled block by block from `_bridge_steps` on each block's own
    Philox stream, as the Monte Carlo estimators consume them.
    """
    n_steps = cfg.steps_for(duration)
    out = np.empty((cfg.n_paths, n_steps + 1))
    row = 0
    for block_index, size in bridge._iter_blocks(cfg):
        rows = out[row:row + size]
        rows[:, 0] = start
        steps = bridge._bridge_steps(bridge._block_rng(cfg, block_index), start, end, duration,
                                     n_steps, size)
        for k, _, b in steps:
            rows[:, k + 1] = b
        row += size
    return out


def test_bridge_endpoints_and_moments():
    cfg = BridgeConfig(n_paths=100_000, n_time_steps=100, seed=7)
    paths = sample_paths(0.0, 0.0, 1.0, cfg)
    assert np.all(paths[:, 0] == 0.0)
    assert np.all(paths[:, -1] == 0.0)
    mid = paths[:, 50]
    se = math.sqrt(2.0) * 0.25 / math.sqrt(paths.shape[0])  # var of sample variance
    assert abs(mid.var() - 0.25) <= 3 * se

    cfg2 = BridgeConfig(n_paths=50_000, n_time_steps=100, seed=8)
    paths2 = sample_paths(2.0, 0.0, 1.0, cfg2)
    s = 0.3
    mean = paths2[:, 30].mean()
    sd = paths2[:, 30].std() / math.sqrt(paths2.shape[0])
    assert abs(mean - 2.0 * (1 - s)) <= 3 * sd


def test_bridge_seed_determinism():
    cfg = BridgeConfig(n_paths=1000, n_time_steps=50, seed=99)
    a = sample_paths(0.0, 1.0, 2.0, cfg)
    b = sample_paths(0.0, 1.0, 2.0, cfg)
    assert np.array_equal(a, b)
    other = sample_paths(0.0, 1.0, 2.0, BridgeConfig(n_paths=1000, n_time_steps=50, seed=100))
    assert not np.array_equal(a, other)


def test_fk_zero_potential_exact(phi20):
    zero = Potential(phi20.grid, np.zeros(phi20.grid.n_points))
    for seed in (1, 7, 123456789):
        mean, se = fk_estimate(zero, 2.0, 0.0, 1.0, BridgeConfig(n_paths=200, seed=seed))
        assert mean == heat_kernel(2.0, 1.0)
        assert se == 0.0


def test_fk_constant_potential_factorizes(phi20):
    const = Potential(phi20.grid, np.full(phi20.grid.n_points, 0.3))
    mean, _ = fk_estimate(const, 2.0, 0.0, 0.5, BridgeConfig(n_paths=300, seed=2))
    assert mean == pytest.approx(math.exp(0.6) * heat_kernel(2.0, 0.5), rel=1e-6)


def test_fk_matches_pde(phi20):
    mean, se = fk_estimate(phi20, 4.0, 0.0, 0.0, BridgeConfig(n_paths=200_000, seed=11))
    tg = TimeGrid(0.0, 4.0, 800)
    z = solve_delta_at(SpaceTimeDeviation.time_constant(tg, phi20), 4.0, 0.0)
    assert abs(mean - z) <= 3 * se


def test_growth_rate_sequence(phi20):
    rates = []
    for lam in (8.0, 16.0):
        steps = int(round(2 * lam / 0.1))
        cfg = BridgeConfig(n_paths=100_000, n_time_steps=steps, seed=50 + int(lam))
        rates.append(growth_rate(phi20, lam, 0.0, cfg))
    # finite-depth values exceed 1/2 by the log prefactor and shrink toward it
    for lam, r in zip((8.0, 16.0), rates):
        predicted = 0.5 + (0.5 * math.log(2 * math.pi * 2 * lam) - math.log(2.0)) / (2 * lam)
        assert r == pytest.approx(predicted, abs=0.02)
    assert abs(rates[1] - 0.5) < abs(rates[0] - 0.5)

    zero = Potential(phi20.grid, np.zeros(phi20.grid.n_points))
    assert growth_rate(zero, 8.0, 0.0, BridgeConfig(n_paths=100, seed=1)) == 0.0

    with pytest.raises(ValueError):
        growth_rate(phi20, 2.0, 0.0)
    with pytest.raises(ValueError):
        growth_rate(phi20, 16.0, 3.0)  # beyond lam^(1/4)


def test_growth_rate_diagnostics(phi20):
    cfg = BridgeConfig(n_paths=20_000, n_time_steps=160, seed=5)
    rate, diag = growth_rate(phi20, 8.0, 0.0, cfg, return_diagnostics=True)
    assert diag["n_paths"] == 20_000
    assert 1.0 <= diag["ess"] <= 20_000
    assert rate == pytest.approx(diag["log_mean"] / 16.0, rel=1e-12)


def test_hitting_density_normalization_and_symmetry():
    lam, t, x = 4.0, 1.0, 1.0
    horizon = lam * t

    def dens(u):
        s = horizon - u * u
        return hitting_density(s, t, x, lam) * 2.0 * u

    total, _ = quad(dens, 0.0, math.sqrt(horizon), limit=200)
    assert total == pytest.approx(1.0, abs=1e-4)

    s_vals = np.linspace(0.1, horizon - 0.1, 31)
    assert np.allclose(hitting_density(s_vals, t, x, lam),
                       hitting_density(s_vals, t, -x, lam))
    assert hitting_density(horizon + 1.0, t, x, lam) == 0.0
    assert hitting_density(-0.5, t, x, lam) == 0.0
    with pytest.raises(ValueError):
        hitting_density(1.0, t, 0.0, lam)


def test_hitting_times_match_density():
    lam, t, x = 4.0, 1.0, 1.0
    horizon = lam * t
    cfg = BridgeConfig(n_paths=50_000, n_time_steps=800, seed=3)
    hits = first_hitting_times(lam * x, horizon, cfg)
    assert np.all(hits >= 0.0) and np.all(hits <= horizon)
    edges = np.linspace(0.0, horizon, 51)
    counts, _ = np.histogram(hits, bins=edges)
    n = hits.size
    for b in range(50):
        p, _ = quad(lambda s: hitting_density(s, t, x, lam), edges[b], edges[b + 1], limit=100)
        sd = math.sqrt(max(n * p * (1 - p), 1.0))
        assert abs(counts[b] - n * p) <= 5 * sd


def numeric_v_argmax(beta: float, t: float, x: float) -> float:
    """Numerical maximizer of V_beta over (0, 1] (oracle for the closed form)."""
    res = minimize_scalar(lambda s: -laplace_v(beta, s, t, x),
                          bounds=(1e-9, 1.0), method="bounded",
                          options={"xatol": 1e-10})
    return float(res.x)


def test_laplace_v_examples():
    assert laplace_v(0.5, 1.0, 2.0, 0.7) == pytest.approx(-0.5 * 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        laplace_v(0.5, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        laplace_v(0.5, 1.5, 1.0, 1.0)

    assert laplace_v_argmax(0.5, 1.0, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert numeric_v_argmax(0.5, 1.0, 0.5) == pytest.approx(0.5, abs=1e-6)
    assert laplace_v_argmax(0.5, 1.0, 2.0) == 1.0


def test_laplace_logmgf_values():
    assert laplace_logmgf(0.5, 2.0, 1.0) == -0.75
    assert laplace_logmgf(0.5, 1.0, 2.0) == -0.5
    assert laplace_logmgf(0.5, 1.0, 0.0) == 0.0
    assert laplace_logmgf(0.5, 1.5, 1.5) == pytest.approx(-0.75, rel=1e-12)


def test_laplace_quadrature_consistency():
    q = hitting_mgf_quadrature(0.5, 1.0, 0.5, 200.0)
    assert abs(q - laplace_logmgf(0.5, 1.0, 0.5)) <= 0.02
    rng = rng_from_seed(17)
    for _ in range(20):
        t = float(rng.uniform(0.5, 2.0))
        x = float(rng.uniform(0.05, 2.0))
        q = hitting_mgf_quadrature(0.5, t, x, 400.0)
        assert abs(q - laplace_logmgf(0.5, t, x)) <= 0.01


def test_h_star_values():
    assert h_star(1.0, 0.0) == 0.5
    assert h_star(2.0, 3.0) == -2.25
    assert h_star(1.5, 1.5) == pytest.approx(-0.75, rel=1e-15)
    with pytest.raises(ValueError):
        h_star(0.0, 1.0)


@given(st.floats(min_value=0.05, max_value=3.0), st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_h_star_properties(t, x):
    v = h_star(t, x)
    assert v == h_star(t, -x)  # even in x
    assert v <= 0.5 * t + 1e-15
    # branch continuity across |x| = t
    eps = 1e-9 * max(t, 1.0)
    assert abs(h_star(t, t - eps) - h_star(t, t + eps)) <= 1e-7


def test_shape_profile_pde_coarse():
    prof = shape_profile(8.0, 0.5, "pde", ShapeOptions(dx=0.1, dt=0.02))
    assert prof.sup_error <= 0.25
    assert prof.t_values[0] >= 0.5 - 1e-9
    assert prof.t_values[-1] <= 2.0 + 1e-9
    assert abs(prof.x_values).max() <= 2.0 + 1e-9
    # symmetric in x on the pde backend
    assert np.max(np.abs(prof.h_values - prof.h_values[:, ::-1])) <= 1e-6
    csv = prof.to_csv()
    assert csv.splitlines()[0] == "t,x,h_lambda,h_star,abs_err"


@pytest.mark.parametrize("backend, opts", [
    ("pde", ShapeOptions(dx=0.1, dt=0.02)),
    ("mc", ShapeOptions(mc_t_count=3, mc_x_count=5, mc_paths=50)),
])
def test_shape_profile_csv_matches_per_value_formatting(backend, opts):
    # the CSV as written one value at a time, with h* by the scalar formula
    prof = shape_profile(8.0, 0.5, backend, opts)
    lines = ["t,x,h_lambda,h_star,abs_err"]
    for i, t in enumerate(prof.t_values.tolist()):
        for j, x in enumerate(prof.x_values.tolist()):
            h = prof.h_values[i, j]
            hs = -abs(x) + 0.5 * t if abs(x) <= t else -(x * x) / (2.0 * t)
            lines.append(",".join(format_value(v) for v in (t, x, h, hs, abs(h - hs))))
    assert prof.to_csv() == "\n".join(lines) + "\n"


def _full_line_shape_h(lam, delta, opts):
    """h of shape_profile's problem marched on the whole line [-L, L]."""
    n_half = int(math.ceil(bridge._required_half_width(lam, delta) / opts.dx))
    sgrid = SpaceGrid(n_half * opts.dx, 2 * n_half + 1)
    tgrid = standard_time_grid(opts.dt, 2.0 * lam)
    rho = SpaceTimeDeviation.time_constant(tgrid, Potential(sgrid, 1.0 / np.cosh(sgrid.x) ** 2))
    stride_t = max(1, int(round(bridge.SHAPE_T_STEP * lam / tgrid.dt)))
    k_lo = int(math.ceil(lam * delta / tgrid.dt - 1e-9))
    sol = solve_delta_scaled(rho, keep=np.arange(k_lo, tgrid.n_steps + 1, stride_t))
    stride_x = max(1, int(round(bridge.SHAPE_X_STEP * lam / sgrid.dx)))
    reach = int(math.floor((lam / delta) / (stride_x * sgrid.dx)))
    i_idx = sgrid.center_index + stride_x * np.arange(-reach, reach + 1)
    log_rows = np.log(sol.rows[:, i_idx]) + sol.log_scale[:, None]
    return (0.5 * math.log(lam) + log_rows) / lam


@pytest.mark.parametrize("lam", [8.0, 16.0])
def test_shape_profile_pde_is_even_and_matches_the_full_line(lam):
    # the half-line march gives each column x < 0 the values of its mirror -x
    opts = ShapeOptions(dx=0.1, dt=0.02)
    prof = shape_profile(lam, 0.5, "pde", opts)
    assert np.array_equal(prof.x_values, -prof.x_values[::-1])
    assert np.array_equal(prof.h_values, prof.h_values[:, ::-1])
    full = _full_line_shape_h(lam, 0.5, opts)
    assert full.shape == prof.h_values.shape
    assert np.max(np.abs(prof.h_values - full)) <= 1e-13


def test_shape_node_budget_is_checked_before_allocation():
    # lam = 1000 at dx = 0.05, dt = 0.01: 48945 x 200001 = 9.8e9 half-line nodes
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceed the limit-shape budget"):
            shape_profile(1000.0, 0.5, "pde")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # lam = 32 at the same steps, 2881 x 6401 nodes, fits
    assert 2881 * 6401 <= bridge.SHAPE_NODE_BUDGET
    # a box of half-width lam / delta = 8e300 is counted in floating point
    with pytest.raises(ValueError, match="exceed the limit-shape budget"):
        shape_profile(8.0, 1e-300, "pde")


def test_bridge_path_step_budget():
    # the full criterion 8 growth run: 12M paths x 640 steps = 7.7e9 path-steps
    assert BridgeConfig(n_paths=12_000_000, n_time_steps=640).steps_for(64.0) == 640
    assert BridgeConfig(n_paths=1).steps_for(1e-9) == 2
    for cfg, duration in ((BridgeConfig(), 1e9), (BridgeConfig(n_paths=1), 1e300),
                          (BridgeConfig(n_paths=10**9, n_time_steps=11), 1.0)):
        with pytest.raises(ValueError, match="path-steps"):
            cfg.steps_for(duration)
    assert BridgeConfig(n_paths=10**9, n_time_steps=10).steps_for(1.0) == 10


def test_bridge_config_rejects_bad_sizes():
    for bad in ({"n_paths": 0}, {"n_time_steps": 1}):
        with pytest.raises(ValueError):
            BridgeConfig(**bad)


def test_shape_profile_config_error():
    with pytest.raises(ValueError):
        shape_profile(8.0, 0.5, "weird")
    with pytest.raises(ValueError):
        shape_profile(2.0, 0.5, "pde")
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite lam >= 4"):
            shape_profile(lam, 0.5, "pde")


# The CLI's flag domains refuse these values before the library sees them,
# so the library's own checks are tested here.

def test_first_hitting_times_path_limit(monkeypatch):
    # one more path than MAX_HITTING_PATHS is refused before its times are allocated
    monkeypatch.setattr(bridge, "_iter_blocks", lambda *a: pytest.fail("ran before the check"))
    cfg = BridgeConfig(n_paths=bridge.MAX_HITTING_PATHS + 1, n_time_steps=2)
    with pytest.raises(bridge.BridgeLimitError, match="exceed the first-hitting limit"):
        first_hitting_times(1.0, 1.0, cfg)


@pytest.mark.parametrize("duration, start, end, message", [
    (math.inf, 0.0, 0.0, "duration must be positive and finite"),
    (math.nan, 0.0, 0.0, "duration must be positive and finite"),
    (0.0, 0.0, 0.0, "duration must be positive and finite"),
    (1.0, math.nan, 0.0, "end points must be finite"),
    (1.0, 0.0, math.inf, "end points must be finite"),
])
def test_fk_estimate_rejects_bad_duration_and_end_points(phi20, duration, start, end, message):
    with pytest.raises(ValueError, match=message):
        fk_estimate(phi20, duration, start, end, BridgeConfig(n_paths=10))


def test_shape_options_top_mc_seed_is_a_philox_key():
    # the default 4 x 9 calls add up to 3008 to mc_seed; the top seed still runs
    top = 2**128 - 3009
    assert ShapeOptions().mc_seed_offset == 3008
    prof = shape_profile(8.0, 0.5, "mc", ShapeOptions(mc_paths=1, mc_seed=top))
    assert np.all(np.isfinite(prof.h_values))


@pytest.mark.parametrize("field, value, message", [
    ("dx", 0.0, "dx must be positive"),
    ("dx", float("nan"), "dx must be positive"),
    ("dt", 1e-3, "dt must exceed the delta warm-up time"),
    ("dt", -0.01, "dt must exceed the delta warm-up time"),
    ("dx", 0.5, "too coarse for the limit shape"),
    ("dt", 0.2, "too coarse for the limit shape"),
    ("mc_t_count", 0, "mc_t_count must be >= 1"),
    ("mc_x_count", 0, "mc_x_count must be >= 1"),
    ("mc_paths", 0, "mc_paths must be >= 1"),
    ("mc_seed", -1, r"mc_seed must lie in \[0, 2\*\*128 - 3008\)"),
    ("mc_seed", 2**128 - 3008, r"mc_seed must lie in \[0, 2\*\*128 - 3008\)"),
])
def test_shape_options_reject_bad_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        ShapeOptions(**{field: value})


def test_shape_profile_mc_spotcheck():
    prof = shape_profile(8.0, 0.5, "mc",
                         ShapeOptions(mc_t_count=2, mc_x_count=3, mc_paths=20_000))
    # the x = 0 column approaches t/2 within the documented log-prefactor slack
    lam = 8.0
    j0 = np.argmin(np.abs(prof.x_values))
    for i, t in enumerate(prof.t_values):
        slack = (math.log(math.sqrt(4 * math.pi * lam)) + 2.0) / lam
        assert abs(prof.h_values[i, j0] - 0.5 * t) <= slack


def test_shape_profile_mc_far_outside_the_cone():
    # the heat kernel at lam = 200, t = 0.5, x = +-2 is exp(-800): it underflows,
    # and h is built from its logarithm instead
    prof = shape_profile(200.0, 0.5, "mc", ShapeOptions(mc_t_count=1, mc_x_count=3, mc_paths=10))
    assert prof.x_values.tolist() == [-2.0, 0.0, 2.0]
    assert np.all(np.abs(prof.h_values[:, [0, 2]] + 4.0) <= 0.01)  # h* = -x^2 / (2t)


def test_shape_profile_mc_work_is_checked_before_the_first_call(monkeypatch):
    monkeypatch.setattr(bridge, "_path_weights", lambda *a: pytest.fail("ran before the check"))
    # 36 calls of at most 1e6 paths x 6000 steps each, 1.35e11 path-steps in all
    with pytest.raises(ValueError, match="bridge budget"):
        shape_profile(150.0, 0.5, "mc", ShapeOptions(mc_paths=1_000_000))
    # 9 x (1500 + 3000 + 4500 + 6000) steps: 80k paths take 1.08e10 path-steps,
    # 70k paths 9.45e9, which is within it
    with pytest.raises(ValueError, match="bridge budget"):
        shape_profile(150.0, 0.5, "mc", ShapeOptions(mc_paths=80_000))
    with pytest.raises(pytest.fail.Exception, match="ran before the check"):
        shape_profile(150.0, 0.5, "mc", ShapeOptions(mc_paths=70_000))


# --- bitwise pins ------------------------------------------------------------
# Exact outputs recorded before the bridge step kernel was rewritten in place
# (numpy 2.4, x86-64).  Blocks of 1000 paths give each run two full blocks and
# a short third one, so the per-block buffers and their slicing are covered.
# Arrays are pinned by the SHA-256 of their little-endian float64 bytes plus a
# few exact entries.

@pytest.fixture
def blocks_of_1000(monkeypatch):
    monkeypatch.setattr(bridge, "BLOCK_SIZE", 1000)


def _pin_cfg(n_time_steps, seed):
    return BridgeConfig(n_paths=2500, n_time_steps=n_time_steps, seed=seed)


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def test_blocks_of_fifty_thousand_paths():
    # every seeded Monte Carlo output depends on where the blocks split
    assert bridge.BLOCK_SIZE == 50_000
    assert list(bridge._iter_blocks(BridgeConfig(n_paths=120_000))) == [
        (0, 50_000), (1, 50_000), (2, 20_000)]


@pytest.mark.usefixtures("blocks_of_1000")
def test_bridge_paths_pinned():
    paths = sample_paths(0.5, -0.25, 1.0, _pin_cfg(8, 41))
    assert paths.shape == (2500, 9)
    assert paths[0, 4] == -0.08453809201354456
    assert paths[1000, 1] == 0.7994963760987555
    assert paths[2499, 7] == 0.026278615455087348
    assert _digest(paths) == "7adf9bf739cfff15007e112fd6b4e5df60d101e1c2a53db77863e8e1d7017958"


@pytest.mark.usefixtures("blocks_of_1000")
def test_growth_rate_pinned(phi20):
    assert growth_rate(phi20, 4.0, 0.0, _pin_cfg(40, 42), return_diagnostics=True) == (
        0.6609262766215808,
        {"log_mean": 5.287410212972646, "ess": 1146.2218560855968, "n_paths": 2500})
    assert growth_rate(phi20, 4.0, 1.2, _pin_cfg(40, 43), return_diagnostics=True) == (
        0.5915884118766058,
        {"log_mean": 4.732707295012847, "ess": 996.6568941522967, "n_paths": 2500})
    assert growth_rate(phi20, 4.0, 1.2, _pin_cfg(40, 43)) == 0.5915884118766058


@pytest.mark.usefixtures("blocks_of_1000")
def test_first_hitting_times_pinned():
    hits = first_hitting_times(1.0, 2.0, _pin_cfg(50, 44))
    assert hits.shape == (2500,)
    assert hits[0] == 2.0
    assert hits[1999] == 0.2230779553185268
    assert hits[2499] == 1.9446314808480722
    assert _digest(hits) == "3335d2c383cdbf0d7281de92340c7cbba7a83b98c129af10b6c2d7d23ba70966"


@pytest.mark.usefixtures("blocks_of_1000")
def test_fk_estimate_pinned(phi20):
    assert fk_estimate(phi20, 2.0, 0.0, 0.5, _pin_cfg(20, 45)) == (
        1.2421595129531462, 0.005948025577971932)


@pytest.mark.usefixtures("blocks_of_1000")
def test_shape_profile_mc_pinned():
    # three blocks per point, as above
    prof = shape_profile(4.0, 0.5, "mc", ShapeOptions(mc_t_count=2, mc_x_count=2, mc_paths=2500))
    assert prof.h_values.tolist() == [[-4.074867739249011, -4.075054232738474],
                                      [-0.9464168045726846, -0.9324713933558271]]


def test_shape_profile_pde_pinned():
    # the CSV body of the half-line march
    prof = shape_profile(8.0, 0.5, "pde", ShapeOptions(dx=0.1, dt=0.02))
    body = prof.to_csv().encode()
    assert hashlib.sha256(body).hexdigest() == (
        "aad20d706b2d79d7d64624e239bcdbe7a057228c4c8f4ed13c2a3b23ce40e0e8")


def test_potential_on_path_matches_reference(phi20):
    # the plain formula: p[i] (1 - f) + p[i + 1] f on [0, n - 2], exactly 0 elsewhere
    def reference(phi, values):
        grid = phi.grid
        pos = (values + grid.half_width) / grid.dx
        idx = np.floor(pos).astype(np.int64)
        frac = pos - idx
        inside = (idx >= 0) & (idx < grid.n_points - 1)
        idx_safe = np.clip(idx, 0, grid.n_points - 2)
        vals = phi.values[idx_safe] * (1.0 - frac) + phi.values[idx_safe + 1] * frac
        return np.where(inside, vals, 0.0)

    grid = phi20.grid
    edges = [-grid.half_width, grid.half_width, -grid.half_width - 1e-12, grid.half_width - 1e-12,
             -grid.half_width - 0.5 * grid.dx, grid.half_width + grid.dx, 0.0, -1e9, 1e9]
    values = np.concatenate([edges, grid.x, rng_from_seed(3).normal(0.0, 12.0, 5000)])
    lookup = bridge._PotentialOnPath(phi20, values.size)
    for size in (values.size, 7):  # a short block uses the front of the buffers
        got = lookup(values[:size])
        want = reference(phi20, values[:size])
        assert np.array_equal(got, want)
        assert not np.signbit(got[want == 0.0]).any()
