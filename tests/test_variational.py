import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kpztail.grids import (
    Potential,
    SpaceGrid,
    SpaceTimeDeviation,
    TimeGrid,
    heat_kernel,
    l2_norm_spacetime,
)
from kpztail.solver import solve_delta
from kpztail.spectral import rho_star
from kpztail.testing import rng_from_seed
from kpztail.variational import (
    CertificateUnavailableError,
    RATE_NODE_BUDGET,
    _AndersonMixer,
    RateOptions,
    RateReport,
    equicontinuity_probe,
    minimizer_distance,
    rate_phi,
    terminal_gradient,
    time_constant_prediction,
    upper_certificate,
)

QUICK = RateOptions(n_points=401, dt=0.02, compute_certificate=False)


@pytest.fixture(scope="module")
def report_lam1():
    return rate_phi(1.0, QUICK)


def test_gradient_heat_product():
    sg = SpaceGrid(10.0, 1001)
    tg = TimeGrid(0.0, 2.0, 400)
    rho = SpaceTimeDeviation(tg, sg, np.zeros((401, 1001)))
    grad = terminal_gradient(rho)
    k = tg.index_of(1.0)
    exact = heat_kernel(1.0, sg.x) * heat_kernel(1.0, sg.x)
    assert np.max(np.abs(grad.values[k] - exact)) <= 1e-4


def test_gradient_symmetry():
    sg = SpaceGrid(10.0, 201)
    tg = TimeGrid(0.0, 2.0, 100)
    rho = SpaceTimeDeviation.time_constant(tg, rho_star(sg))
    grad = terminal_gradient(rho)
    assert np.max(np.abs(grad.values - grad.values[:, ::-1])) <= 1e-10


def test_gradient_finite_differences():
    sg = SpaceGrid(10.0, 201)
    tg = TimeGrid(0.0, 2.0, 200)
    rho = SpaceTimeDeviation.time_constant(tg, rho_star(sg))
    grad = terminal_gradient(rho)
    rng = rng_from_seed(11)
    h = 1e-5
    # interior window: near the time endpoints the continuum kernel product
    # degenerates against the discrete delta data at finite dt
    for _ in range(20):
        k = int(rng.integers(50, 151))
        i = int(rng.integers(sg.center_index - 20, sg.center_index + 21))
        up = rho.values.copy()
        up[k, i] += h
        zp = solve_delta(SpaceTimeDeviation(tg, sg, up)).at(2.0, 0.0)
        up[k, i] -= 2 * h
        zm = solve_delta(SpaceTimeDeviation(tg, sg, up)).at(2.0, 0.0)
        fd = (zp - zm) / (2 * h)
        assert grad.values[k, i] * tg.dt * sg.dx == pytest.approx(fd, rel=1e-3)


def test_rate_zero_depth_from_small_random_start():
    tgrid = TimeGrid(0.0, 2.0, 200)
    sgrid = SpaceGrid(20.0, 801)
    rng = rng_from_seed(3)
    start = 1e-3 * rng.random((tgrid.n_steps, sgrid.n_points))
    opts = RateOptions(n_points=801, dt=0.01, init_values=start,
                       compute_certificate=False)
    rep = rate_phi(0.0, opts)
    norm = l2_norm_spacetime(rep.minimizer)
    assert norm <= 1e-3
    assert rep.phi_hat <= 1e-6


def test_rate_report_invariants(report_lam1):
    rep = report_lam1
    assert rep.converged
    assert rep.constraint_residual >= -1e-6
    assert rep.iterations > 0
    assert np.all(rep.minimizer.values >= 0.0)
    # the half-line iterate comes back as its exact mirror on the full grid
    assert rep.minimizer.sgrid == SpaceGrid(QUICK.half_width, QUICK.n_points)
    assert np.array_equal(rep.minimizer.values, rep.minimizer.values[:, ::-1])


def test_rate_initializations_agree():
    rep_a = rate_phi(1.0, QUICK)
    rep_b = rate_phi(1.0, replace(QUICK, init="half_rho_star"))
    assert rep_a.converged and rep_b.converged
    assert rep_a.phi_hat == pytest.approx(rep_b.phi_hat, rel=0.02)


def test_certificate_examples():
    opts = RateOptions(n_points=401, dt=0.02)
    cert = upper_certificate(16.0, 0.1, opts)
    assert cert == pytest.approx((4.0 / 3.0) * 1.21 * 64.0, rel=1e-12)
    cert2 = upper_certificate(4.0, 1.0, opts)
    assert cert2 == pytest.approx((4.0 / 3.0) * 4.0 * 8.0, rel=1e-12)
    # prefactor tends to 4/3 as zeta -> 0
    assert upper_certificate(8.0, 1e-4, opts) / 8.0**1.5 == pytest.approx(4.0 / 3.0, rel=1e-3)
    with pytest.raises(ValueError):
        upper_certificate(8.0, -0.1, opts)


def test_certificate_dominates_estimate(report_lam1):
    cert = upper_certificate(1.0, 0.05, QUICK)
    assert report_lam1.phi_hat <= cert + 1e-6


def test_minimizer_distance(report_lam1):
    d = minimizer_distance(report_lam1)
    assert d >= 0.0
    # rho_hat = rho_star exactly gives zero
    rho = report_lam1.minimizer
    star = SpaceTimeDeviation.time_constant(rho.tgrid, rho_star(rho.sgrid))
    perfect = RateReport(lam=1.0, phi_hat=4.0 / 3.0, minimizer=star,
                         constraint_residual=0.0, iterations=1,
                         upper_certificate=2.0, converged=True)
    assert minimizer_distance(perfect) == 0.0
    # rho_hat = 0 gives the full sech^2 mass 4/3 regardless of lam
    zero = RateReport(lam=1.0, phi_hat=0.0,
                      minimizer=SpaceTimeDeviation(rho.tgrid, rho.sgrid,
                                                   np.zeros_like(rho.values)),
                      constraint_residual=0.0, iterations=1,
                      upper_certificate=2.0, converged=True)
    assert minimizer_distance(zero) == pytest.approx(4.0 / 3.0, abs=1e-4)


def test_equicontinuity_probe_basics():
    sg = SpaceGrid(20.0, 401)
    lam = 4.0
    tg = TimeGrid(0.0, 2.0 * lam, 400)
    rho1 = SpaceTimeDeviation.time_constant(tg, rho_star(sg))
    lhs, modulus = equicontinuity_probe(rho1, rho1, lam, 2.0, 0.0)
    assert lhs == 0.0

    ratios = []
    for delta in (0.2, 0.1, 0.05):
        rho2 = SpaceTimeDeviation(tg, sg, (1 + delta) * rho1.values)
        lhs, modulus = equicontinuity_probe(rho1, rho2, lam, 2.0, 0.0)
        ratios.append(lhs / modulus)
    assert max(ratios) <= 1.0  # bounded family, no universal constant asserted

    with pytest.raises(ValueError):
        big = SpaceTimeDeviation(tg, sg, 10.0 + rho1.values)
        equicontinuity_probe(rho1, big, lam, 2.0, 0.0)
    with pytest.raises(ValueError):
        neg = SpaceTimeDeviation(tg, sg, -rho1.values)
        equicontinuity_probe(rho1, neg, lam, 2.0, 0.0)


def test_equicontinuity_decay_in_lam():
    # rho's differing on a fixed window: the height gap decays with lam at
    # least as fast as 1/sqrt(lam)
    sg = SpaceGrid(20.0, 401)
    lhs_vals = []
    for lam in (4.0, 8.0, 16.0):
        tg = TimeGrid(0.0, 2.0 * lam, int(200 * lam))
        rho1 = SpaceTimeDeviation.time_constant(tg, rho_star(sg))
        bump = np.where(tg.times[:, None] <= 2.0, 0.5 * rho_star(sg).values[None, :], 0.0)
        rho2 = SpaceTimeDeviation(tg, sg, rho1.values + bump)
        lhs, _ = equicontinuity_probe(rho1, rho2, lam, 2.0, 0.0)
        lhs_vals.append(lhs)
    for a, b in zip(lhs_vals, lhs_vals[1:]):
        assert b <= a / math.sqrt(2.0) * 1.2


def test_rate_phi_rejects_out_of_range():
    with pytest.raises(ValueError):
        rate_phi(40.0, QUICK)
    with pytest.raises(ValueError):
        rate_phi(-1.0, QUICK)
    # dt = 0.3 does not divide the horizon 2 lam = 2; it is not snapped to 2/7
    with pytest.raises(ValueError, match="does not divide"):
        rate_phi(1.0, RateOptions(dt=0.3))


@pytest.mark.parametrize("field, value, message", [
    ("max_iterations", 0, "max_iterations must be >= 1"),
    ("dt", 0.0, "dt must be positive"),
    ("dt", 1e-3, "dt must exceed the delta warm-up time"),
    ("stationarity_tol", 0.0, "stationarity_tol must be positive"),
    ("feasibility_tol", float("nan"), "feasibility_tol must be positive"),
    ("init", "ones", "unknown init"),
    ("zeta_candidates", (0.1, 0.0), "zeta_candidates must be positive"),
    ("n_points", 3, "too coarse to resolve sech"),  # dx = 20
    ("n_points", 79, "too coarse to resolve sech"),  # dx = 0.513
    ("n_points", 1, "n_points >= 3"),
    ("half_width", 0.0, "half_width > 0"),
])
def test_rate_options_reject_bad_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        RateOptions(**{field: value})


def test_rate_options_resolution_rule_edge():
    assert RateOptions(n_points=81).n_points == 81  # dx = 0.5 exactly


def test_rate_phi_projects_init_values_onto_even_functions():
    # an odd start projects to zero, so the run starts from zeros
    tgrid = TimeGrid(0.0, 2.0, 100)
    sgrid = SpaceGrid(20.0, 401)
    odd = np.tile(np.tanh(sgrid.x), (tgrid.n_steps, 1))
    rep = rate_phi(1.0, replace(QUICK, init_values=odd))
    ref = rate_phi(1.0, replace(QUICK, init="zeros"))
    assert rep.phi_hat == ref.phi_hat and rep.iterations == ref.iterations
    with pytest.raises(ValueError, match="init_values must cover"):
        rate_phi(1.0, replace(QUICK, init_values=odd[:, 1:]))


@pytest.mark.parametrize("lam, ratio", [(4.0, 0.8214), (8.0, 0.9748), (16.0, 1.1035)])
def test_time_constant_prediction(lam, ratio):
    assert time_constant_prediction(lam) == pytest.approx(ratio, abs=5e-5)


def test_time_constant_prediction_rises_toward_four_thirds():
    values = [time_constant_prediction(lam) for lam in (1.0, 4.0, 32.0, 1e4)]
    assert all(a < b < 4.0 / 3.0 for a, b in zip(values, values[1:]))
    for lam in (0.3, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="lam > 1/pi"):
            time_constant_prediction(lam)


def test_anderson_mixer_beats_damping_on_linear_contraction():
    # u = A u + b with A symmetric, spectrum in [0, 0.9]: the damped map
    # u + 0.7 (A u + b - u) contracts by 0.93 per step on the top mode
    rng = rng_from_seed(5)
    q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    a = q @ np.diag(np.linspace(0.0, 0.9, 30)) @ q.T
    b = rng.normal(size=30)
    exact = np.linalg.solve(np.eye(30) - a, b)

    def steps_to_converge(mixer):
        u = np.zeros(30)
        for step in range(1, 1000):
            f = 0.7 * (a @ u + b - u)
            if np.linalg.norm(f) <= 1e-10:
                return step, u
            if mixer is None:
                u += f
            else:
                mixer.mix(u, f)
        raise AssertionError("no convergence")

    plain, u_plain = steps_to_converge(None)
    mixed, u_mixed = steps_to_converge(_AndersonMixer((30,), np.dot))
    assert np.allclose(u_plain, exact, atol=1e-8) and np.allclose(u_mixed, exact, atol=1e-8)
    assert mixed < plain / 2


@pytest.mark.parametrize("init, phi_ref, max_iters", [
    # the damped map's values, after 48 and 65 iterations
    ("rho_star", 5.698643885543763, 10),
    ("half_rho_star", 5.698640944220253, 10),
])
def test_quick_rate_lam4_anderson(init, phi_ref, max_iters):
    opts = replace(QUICK, init=init, max_iterations=400)
    rep = rate_phi(4.0, opts)
    assert rep.converged
    assert rep.phi_hat == pytest.approx(phi_ref, rel=1e-5)
    assert rep.iterations <= max_iters
    # one (eta, log Z, KKT norm, steps since the previous entry) per evaluation
    assert len(rep.rounds) == rep.iterations + 1
    assert sum(r[3] for r in rep.rounds) == rep.iterations
    assert rep.rounds[-1][2] <= opts.stationarity_tol
    assert all(r[0] > 0 for r in rep.rounds)


# phi_hat of each start as recorded by the nested secant-and-Anderson loop
QUICK_GRID_PHI = {
    (1.0, "rho_star"): 0.38637266881779825,
    (1.0, "half_rho_star"): 0.38637238447284594,
    (1.0, "zeros"): 0.38637246673310927,
    (4.0, "rho_star"): 5.6986401718905215,
    (4.0, "half_rho_star"): 5.698642100544532,
    (4.0, "zeros"): 5.698642356173418,
    (16.0, "rho_star"): 67.89191433778178,
    (16.0, "half_rho_star"): 67.89191381170963,
    (16.0, "zeros"): 67.89191361031777,
}


@pytest.mark.parametrize("lam, init", sorted(QUICK_GRID_PHI))
def test_quick_grid_rate_from_each_start(lam, init):
    rep = rate_phi(lam, replace(QUICK, init=init, max_iterations=400))
    assert rep.converged
    assert rep.phi_hat == pytest.approx(QUICK_GRID_PHI[lam, init], rel=1e-6)
    assert rep.iterations <= 12


def test_rate_node_budget_is_checked_before_allocation():
    # lam = 32 at dt = 0.002 asks for 32001 x 801 nodes, 205 MB per array
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceed the rate budget"):
            rate_phi(32.0, RateOptions(dt=0.002))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # lam = 32 on the default grid, 6401 x 801 nodes, fits
    assert (int(round(64.0 / RateOptions().dt)) + 1) * RateOptions().n_points <= RATE_NODE_BUDGET
