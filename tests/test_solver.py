import hashlib
import math

import numpy as np
import pytest
from scipy.linalg.lapack import dptsv, dpttrf

from kpztail.grids import (
    HalfLine,
    Potential,
    SpaceGrid,
    SpaceTimeDeviation,
    TimeGrid,
    heat_kernel,
)
from kpztail.solver import (
    CHUNK,
    SolverInstabilityError,
    _Factors,
    _Stepper,
    adjoint_solve,
    chaos_series_point,
    log_terminal_and_gradient,
    operator_norm,
    solve_delta,
    solve_delta_at,
    solve_delta_scaled,
)
from kpztail.spectral import f_time_integral, rho_star
from kpztail.testing import random_smooth_deviation, rng_from_seed

from conftest import zero_deviation


def test_zero_deviation_reproduces_heat_kernel():
    # lighter grid than the acceptance run; same per-slice sup-relative metric
    sg = SpaceGrid(20.0, 4001)
    tg = TimeGrid(0.0, 2.0, 500)
    fld = solve_delta(zero_deviation(tg, sg))
    mask = np.abs(sg.x) <= 5.0
    worst = 0.0
    for k, t in enumerate(tg.times):
        if t < 0.5:
            continue
        exact = heat_kernel(t, sg.x[mask])
        worst = max(worst, float(np.max(np.abs(fld.values[k][mask] - exact)) / exact.max()))
    assert worst <= 5e-5
    assert fld.strictly_positive and fld.values.min() > 0


def test_solver_positivity_and_monotonicity():
    # dt <= 2 dx^2 keeps the step matrices entrywise monotone
    sg = SpaceGrid(10.0, 201)
    tg = TimeGrid(0.0, 2.0, 160)
    rng = rng_from_seed(101)
    for _ in range(50):
        rho1 = random_smooth_deviation(rng, tg, sg)
        bump = random_smooth_deviation(rng, tg, sg, amp_range=(0.05, 0.5))
        rho2 = SpaceTimeDeviation(tg, sg, rho1.values + bump.values)
        z1 = solve_delta(rho1)
        z2 = solve_delta(rho2)
        assert z1.values.min() > 0
        assert np.all(z1.values <= z2.values * (1 + 1e-12) + 1e-250)


def test_grid_convergence_second_order():
    vals = []
    for n_x, n_t in ((251, 50), (501, 100), (1001, 200)):
        sg = SpaceGrid(10.0, n_x)
        tg = TimeGrid(0.0, 2.0, n_t)
        rho = SpaceTimeDeviation.time_constant(tg, rho_star(sg))
        vals.append(solve_delta_at(rho, 2.0, 0.0))
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 <= d1 / 3.0  # ~4x shrink for a second-order scheme


def _sweep(rho, v, ks, kt):
    """The steps over the time intervals ks, ..., kt - 1 of rho, in order,
    through `_Factors`."""
    factors = _Factors(_Stepper(rho.sgrid), rho, rho.tgrid.dt)
    for k in range(ks, kt):
        v = factors.step(v, k)
    return v


def _sech2_kernel(t, x):
    """Exact Z(t, x) for rho = sech^2 from a delta at (0, 0): the heat kernel
    plus the part carried by the bound state sech x (eigenvalue 1/2)."""
    ax, s = abs(x), math.sqrt(2.0 * t)
    return heat_kernel(t, x) + 0.25 * math.exp(0.5 * t) / math.cosh(x) * (
        math.erf((ax + t) / s) - math.erf((ax - t) / s))


@pytest.mark.parametrize("half_line", [False, True])
def test_sech2_march_converges_to_the_exact_kernel(half_line):
    # the only exact check with a nonzero potential: second order in (dx, dt)
    errors = []
    for dx, dt in ((0.1, 0.04), (0.05, 0.02), (0.025, 0.01)):
        sg = SpaceGrid(20.0, int(round(40.0 / dx)) + 1)
        grid = HalfLine(sg) if half_line else sg
        tg = TimeGrid(0.0, 8.0, int(round(8.0 / dt)))
        rho = SpaceTimeDeviation.time_constant(tg, Potential(grid, 1.0 / np.cosh(grid.x) ** 2))
        sol = solve_delta_scaled(rho, keep=[tg.n_steps])
        errors.append(max(abs(sol.log_at(8.0, x) - math.log(_sech2_kernel(8.0, x)))
                          for x in (0.0, 1.0, 4.0, 8.0)))
    assert errors[-1] <= 3e-4
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(1.9 <= q <= 2.2 for q in orders), (errors, orders)


def test_instability_error_names_step():
    sg = SpaceGrid(10.0, 201)
    tg = TimeGrid(0.0, 1.0, 100)
    vals = np.zeros((101, 201))
    vals[40:, 100] = -5e5  # violent sink makes the explicit half negative
    with pytest.raises(SolverInstabilityError, match=r"step"):
        solve_delta(SpaceTimeDeviation(tg, sg, vals))


def _dense_step_matrices(sg, h, rho_mid):
    """Interior blocks of M = I - (h/2)(D/2 + rho_mid) and N = I + (h/2)(D/2 + rho_mid)."""
    m = sg.n_points - 2
    a = (np.diag(-np.ones(m) / sg.dx**2 + rho_mid[1:-1])
         + np.diag(np.full(m - 1, 0.5 / sg.dx**2), 1)
         + np.diag(np.full(m - 1, 0.5 / sg.dx**2), -1))
    return np.eye(m) - 0.5 * h * a, np.eye(m) + 0.5 * h * a


def test_stepper_matches_dense_solve():
    # dx = 2^-4 and h = 2^-6 make every matrix entry below exact
    sg = SpaceGrid(4.0, 129)
    h = 2.0**-6
    rng = rng_from_seed(303)
    stepper = _Stepper(sg)
    ordinary = rng.normal(0.0, 2.0, sg.n_points)
    m_mat, n_mat = _dense_step_matrices(sg, h, ordinary)
    v = rng.normal(size=sg.n_points)
    v[[0, -1]] = 0.0
    want = np.linalg.solve(m_mat, n_mat @ v[1:-1])
    want_t = n_mat.T @ np.linalg.solve(m_mat.T, v[1:-1])
    tol = 1e-13 * np.linalg.cond(m_mat) * np.abs(n_mat).sum(axis=1).max() * np.abs(v).max()
    v_before = v.copy()
    got = stepper.step(v, h, ordinary)
    assert got[0] == 0.0 and got[-1] == 0.0
    # on the full line the step is its own transpose
    for ref in (want, want_t):
        assert np.max(np.abs(got[1:-1] - ref)) <= tol
    assert np.array_equal(v, v_before)  # steps leave their input alone
    # h rho_mid / 2 > 1 at a few nodes: M[1, 1] = 1 - (h/2)(rho - 256) is
    # exactly zero and M is not positive definite, so CN would multiply M's
    # negative modes by factors (1 + h mu/2)/(1 - h mu/2) below -1; the step
    # is refused
    strong = ordinary.copy()
    strong[[1, 40, 90]] = [384.0, 434.0, 884.0]
    m_mat, _ = _dense_step_matrices(sg, h, strong)
    assert m_mat[0, 0] == 0.0 and np.linalg.eigvalsh(m_mat)[0] < 0
    with pytest.raises(np.linalg.LinAlgError, match=r"h = 0\.015625\b.*lower dt"):
        stepper.step(v, h, strong)


def test_stepper_singular_matrix_raises():
    # one interior node whose M entry 1 - (h/2)(-1/dx^2 + rho) is exactly zero
    sg = SpaceGrid(1.0, 3)
    rho_mid = np.full(3, 3.0)
    stepper = _Stepper(sg)
    v = np.array([0.0, 1.0, 0.0])
    with pytest.raises(np.linalg.LinAlgError):
        stepper.step(v, 1.0, rho_mid)


def test_sweeps_raise_on_overflow():
    # each step multiplies the smooth modes by about (1 + 0.75)/(1 - 0.75) = 7,
    # so 400 steps overflow
    sg = SpaceGrid(5.0, 51)
    tg = TimeGrid(0.0, 4.0, 400)
    rho = SpaceTimeDeviation(tg, sg, np.full((401, 51), 150.0))
    f = Potential(sg, np.exp(-sg.x**2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverInstabilityError, match="non-finite"):
            operator_norm(rho, 0.0, 4.0, iters=10)
        with pytest.raises(SolverInstabilityError, match="non-finite"):
            adjoint_solve(rho, f)


def test_chaos_series_examples():
    sg = SpaceGrid(10.0, 2001)
    tg = TimeGrid(0.0, 1.0, 500)
    rho = SpaceTimeDeviation.time_constant(tg, Potential(sg, 0.1 / np.cosh(sg.x) ** 2))
    # order 0 is the bare kernel
    assert chaos_series_point(rho, 1.0, 0.0, 0) == heat_kernel(1.0, 0.0)
    z_cn = solve_delta_at(rho, 1.0, 0.0)
    sums = [chaos_series_point(rho, 1.0, 0.0, k) for k in range(7)]
    assert abs(sums[6] - z_cn) / z_cn <= 1e-3
    diffs = [abs(b - a) for a, b in zip(sums, sums[1:])]
    for a, b in zip(diffs, diffs[1:]):
        assert b <= 0.5 * a


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_chaos_series_matches_cn_on_time_varying_fields(seed):
    # criterion 3's reference away from the time-constant case
    sg = SpaceGrid(10.0, 2001)
    tg = TimeGrid(0.0, 1.0, 500)
    rho = random_smooth_deviation(rng_from_seed(seed), tg, sg, amp_range=(0.02, 0.1))
    assert np.ptp(rho.values, axis=0).max() > 1e-3  # the field does vary in time
    z_cn = solve_delta_at(rho, 1.0, 0.0)
    assert abs(chaos_series_point(rho, 1.0, 0.0, 6) - z_cn) / z_cn <= 1e-4


def test_scaling_identity():
    lam = 4.0
    sg = SpaceGrid(20.0, 2001)
    tg_short = TimeGrid(0.0, 2.0, 500)
    scaled = SpaceTimeDeviation.time_constant(
        tg_short, Potential(sg, lam / np.cosh(math.sqrt(lam) * sg.x) ** 2))
    lhs = solve_delta_at(scaled, 2.0, 0.0)
    tg_long = TimeGrid(0.0, 2.0 * lam, 2000)
    rhs = math.sqrt(lam) * solve_delta_at(
        SpaceTimeDeviation.time_constant(tg_long, rho_star(sg)), 2.0 * lam, 0.0)
    assert lhs == pytest.approx(rhs, rel=1e-3)


def test_operator_norm_heat_contraction():
    # the CN heat step is symmetric with eigenvalues (1 + h a/2)/(1 - h a/2)
    # on the modes of (1/2)D, a = -(2/dx^2) sin^2(k pi/(2(m + 1))) for m
    # interior nodes, so the norm over n steps is that of the lowest mode to
    # the n-th power; on this box the power iteration settles in 27 steps
    sg = SpaceGrid(10.0, 201)
    tg = TimeGrid(0.0, 2.0, 200)
    res = operator_norm(zero_deviation(tg, sg), 0.0, 2.0, iters=60)
    a = -(2.0 / sg.dx**2) * math.sin(math.pi / (2 * (sg.n_points - 1))) ** 2
    h = tg.dt
    exact = ((1 + h * a / 2) / (1 - h * a / 2)) ** tg.n_steps
    assert res.converged
    assert res.value <= exact < 1.0
    assert res.value == pytest.approx(exact, rel=1e-6)


def test_operator_norm_sech2_tightness(grid20):
    tg = TimeGrid(0.0, 2.0, 200)
    rho = SpaceTimeDeviation.time_constant(tg, rho_star(grid20))
    res = operator_norm(rho, 0.0, 2.0, iters=80)
    assert 0.9 * math.e <= res.value <= math.e * (1 + 1e-3)


def test_operator_norm_random_bound():
    sg = SpaceGrid(10.0, 201)
    tg = TimeGrid(0.0, 2.0, 100)
    rng = rng_from_seed(77)
    for _ in range(10):
        rho = random_smooth_deviation(rng, tg, sg)
        est = operator_norm(rho, 0.0, 2.0, iters=60).value
        assert est <= math.exp(f_time_integral(rho)) * (1 + 1e-3)
    with pytest.raises(ValueError):
        operator_norm(rho, 0.0, 2.0, iters=5)


def test_adjoint_heat_time_reversal():
    sg = SpaceGrid(10.0, 1001)
    tg = TimeGrid(0.0, 2.0, 400)
    rho = zero_deviation(tg, sg)
    eps = 4e-3
    a = adjoint_solve(rho, Potential(sg, heat_kernel(eps, sg.x)))
    worst = 0.0
    for s in (0.5, 1.0, 1.5):
        k = tg.index_of(s)
        worst = max(worst, float(np.max(np.abs(a.values[k] - heat_kernel(2.0 - s + eps, sg.x)))))
    assert worst <= 1e-4


def test_adjoint_duality_constant():
    sg = SpaceGrid(10.0, 401)
    tg = TimeGrid(0.0, 2.0, 200)
    rho = SpaceTimeDeviation.time_constant(tg, rho_star(sg))
    z = solve_delta(rho)
    term = np.zeros(sg.n_points)
    term[sg.center_index] = 1.0 / sg.dx
    a = adjoint_solve(rho, Potential(sg, term))
    w = sg.trapezoid_weights()
    inner_05 = float(np.dot(w, a.values[tg.index_of(0.5)] * z.values[tg.index_of(0.5)]))
    inner_15 = float(np.dot(w, a.values[tg.index_of(1.5)] * z.values[tg.index_of(1.5)]))
    assert inner_05 == pytest.approx(inner_15, rel=1e-6)


def test_exact_gradient_matches_finite_differences():
    sg = SpaceGrid(10.0, 201)
    tg = TimeGrid(0.0, 2.0, 100)
    rng = rng_from_seed(5)
    rho = random_smooth_deviation(rng, tg, sg)
    _, partials = log_terminal_and_gradient(rho)
    h = 1e-6
    for k, i in [(0, 100), (1, 95), (50, 105), (99, 100), (100, 98)]:
        up = rho.values.copy()
        up[k, i] += h
        lp = solve_delta_scaled(SpaceTimeDeviation(tg, sg, up)).log_at(2.0, 0.0)
        up[k, i] -= 2 * h
        lm = solve_delta_scaled(SpaceTimeDeviation(tg, sg, up)).log_at(2.0, 0.0)
        fd = (lp - lm) / (2 * h)
        assert partials[k, i] == pytest.approx(fd, rel=2e-6, abs=1e-9)


def test_renormalized_march_reports_log_values():
    sg = SpaceGrid(20.0, 401)
    tg = TimeGrid(0.0, 16.0, 800)
    rho = SpaceTimeDeviation.time_constant(tg, rho_star(sg))
    sol = solve_delta_scaled(rho)
    # growth rate of log Z(t, 0) approaches the ground-state value 1/2
    l1 = sol.log_at(8.0, 0.0)
    l2 = sol.log_at(16.0, 0.0)
    assert (l2 - l1) / 8.0 == pytest.approx(0.5, abs=2e-3)


# pivot_rows lists the rows that a partial-pivoting LU solve of M exchanges
# (LAPACK dgttrf); LDL^T has no pivots, and these matrices, far from
# diagonally dominant, are the ones where an elimination could go wrong
@pytest.mark.parametrize("half_width, n_points, t_end, n_steps, profile, pivot_rows", [
    # renormalizes: log Z grows past log(1e120)
    (10.0, 401, 8.0, 800, lambda x: 40.0 / np.cosh(x) ** 2, []),
    # h > 4 dx^2: the identity wall row 0 is smaller than M[1, 0], so rows swap
    (5.0, 101, 1.0, 10, lambda x: 10.0 / np.cosh(x - 1.0) ** 2, [0, 1]),
    # a spike with (h/2) rho > 1 also swaps interior rows
    (5.0, 101, 1.0, 10, lambda x: np.where(np.abs(x - 1.0) < 1e-9, 60.0, 0.0), [0, 1, 60, 61, 62]),
])
def test_time_constant_march_matches_materialized(half_width, n_points, t_end, n_steps,
                                                  profile, pivot_rows):
    sg = SpaceGrid(half_width, n_points)
    tg = TimeGrid(0.0, t_end, n_steps)
    rho_mid = profile(sg.x)
    stepper = _Stepper(sg)
    d = stepper._m_diagonal(tg.dt, stepper.kin_diag + rho_mid)
    assert dpttrf(d, stepper._m_offdiag(tg.dt))[2] == 0  # W M is positive definite

    constant = SpaceTimeDeviation.time_constant(tg, Potential(sg, rho_mid))
    copied = SpaceTimeDeviation(tg, sg, np.array(constant.values))
    assert constant.values.strides[0] == 0 and copied.values.strides[0] != 0
    factored, stepped = solve_delta_scaled(constant), solve_delta_scaled(copied)
    assert np.array_equal(factored.rows, stepped.rows)
    assert np.array_equal(factored.log_scale, stepped.log_scale)
    # the sweeps factor M once too, forward and transposed
    t = min(t_end, 1.0)
    f = Potential(sg, np.exp(-sg.x**2))
    v = f.values.copy()
    v[[0, -1]] = 0.0
    kt = tg.index_of(t)
    assert np.array_equal(_sweep(constant, v, 0, kt), _sweep(copied, v, 0, kt))
    assert operator_norm(constant, 0.0, t, iters=10) == operator_norm(copied, 0.0, t, iters=10)
    assert np.array_equal(adjoint_solve(constant, f).values, adjoint_solve(copied, f).values)
    if not pivot_rows:
        assert factored.log_scale[-1] > np.log(1e120)


def test_kept_rows_match_full_march():
    sg = SpaceGrid(10.0, 201)
    tg = TimeGrid(0.0, 2.0, 200)
    varying = random_smooth_deviation(rng_from_seed(17), tg, sg)
    constant = SpaceTimeDeviation.time_constant(tg, rho_star(sg))
    keep = np.array([0, 1, 37, 150, 200])
    for rho in (varying, constant):
        full = solve_delta_scaled(rho)
        part = solve_delta_scaled(rho, keep=keep)
        assert np.array_equal(part.nodes, keep)
        assert np.array_equal(part.rows, full.rows[keep])
        assert np.array_equal(part.log_scale, full.log_scale[keep])
        assert part.log_at(0.37, 1.0) == full.log_at(0.37, 1.0)
        assert solve_delta_at(rho, 2.0, 0.5) == solve_delta(rho).values[
            tg.index_of(2.0), sg.index_of(0.5)]
        with pytest.raises(ValueError, match="not among the kept"):
            part.log_at(0.5, 0.0)
        with pytest.raises(ValueError, match="every time node"):
            part.field()
    for bad in ([], [3, 3], [5, 2], [-1, 4], [201], [0.5], [[1, 2]]):
        with pytest.raises(ValueError, match="keep"):
            solve_delta_scaled(varying, keep=bad)


def test_gradient_pinned():
    # the partials pinned bitwise; the march renormalizes once, so the
    # exp(ls - ls[nt]) factors that scale them are not all 1
    sg = SpaceGrid(10.0, 201)
    tg = TimeGrid(0.0, 8.0, 400)
    bump = random_smooth_deviation(rng_from_seed(29), tg, sg)
    rho = SpaceTimeDeviation(tg, sg, 40.0 / np.cosh(sg.x) ** 2 + bump.values)
    assert np.count_nonzero(np.diff(solve_delta_scaled(rho).log_scale)) == 1
    log_zt, partials = log_terminal_and_gradient(rho)
    assert log_zt == 300.85358185019504
    assert partials[200, 100] == 0.0037377642704649744
    assert hashlib.sha256(np.ascontiguousarray(partials, dtype="<f8").tobytes()).hexdigest() == (
        "ee65ecedf0bd846ddbf850c404c0b75995ce7594e0a1d5ff141315c6412b2526")


# Time-varying sweeps pinned bitwise.  The step counts straddle the edges of
# the solver's 32-interval coefficient chunks, which the forward sweeps cross
# ascending and the transposed sweeps descending.
PIN_STEP_COUNTS = (1, 31, 32, 33, 101)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _pin_case(nt):
    sg = SpaceGrid(10.0, 201)
    tg = TimeGrid(0.0, 0.02 * nt, nt)
    rho = random_smooth_deviation(rng_from_seed(400 + nt), tg, sg)
    return rho, Potential(sg, np.exp(-sg.x**2))


def _pinned_outputs(name, nt):
    rho, f = _pin_case(nt)
    tg = rho.tgrid
    if name == "solve_delta_scaled":
        sol = solve_delta_scaled(rho)
        return sol.rows, sol.log_scale
    if name.startswith("operator_norm"):
        s, t, iters = 0.0, tg.t_end, 10
        if name == "operator_norm_subspan":
            # interior ends from nt = 31 on; nt = 1 has only the whole span
            s, t = tg.times[(nt + 1) // 3], tg.times[nt - (nt - 1) // 4]
        elif name == "operator_norm_converged":
            iters = 60  # every count but nt = 1 stops early, after 9 to 26 iterations
        res = operator_norm(rho, s, t, iters=iters)
        return np.array([res.value, res.iterations, res.converged]),
    if name == "adjoint_solve":
        return adjoint_solve(rho, f).values,
    log_zt, partials = log_terminal_and_gradient(rho)
    return np.array([log_zt]), partials


# (name, digest, first digest).  A case's ID carries the digest it was first
# pinned with, under the partial-pivoting LU kernel, so that a re-pin keeps
# the test's name; the re-pins since (the LDL^T kernel, the step taken as
# M^-1(2v) - v) moved the outputs by round-off only.
SWEEP_PINS = [
    ("solve_delta_scaled",
     "d679aef3b6806656cb80fb8f59bece178980099e02078257de4d41052944ba63",
     "5041616a9c9b627f6149e205a7f8f31d4f89fde4a89bf6eeee927dc13313d009"),
    ("operator_norm",
     "0a24ee5c21ba34a2f98d5e889d2554493d8377419c07d5442267f9a11fdac7e1",
     "a06426e040dc36d26649edbba3487d9d22e2ba20607bfdc3daff404263178308"),
    ("operator_norm_subspan",
     "be88cef0b62a8332aca0a25bd617f52b04043bbaf81654c1a405f300c9ae974a",
     "b1a8f0a8d7da11563fb724001bf1cbc92f9f235c71457d1b217d9118c2478da4"),
    ("operator_norm_converged",
     "b987032703dc1dda0f9d7c6f9dff8283534544189221df6808a674d11db8ab66",
     "e13980a4375960b95c5490ccfcc25ae06e7751a65971b5536d9e649d9fc04901"),
    ("adjoint_solve",
     "7d75e5c457f9dc8fe9399dbaae617f24166965e384da6f84aa70a24ec386c145",
     "2ced8d9614723f4863cc25e36170a97c87629235c8f4308cda01d668b06c3816"),
    ("log_terminal_and_gradient",
     "e8d84bea8a0e703d5bb0760502f8ae144a036db0a8de83df5c26ab6fa25c532c",
     "aa255390b448752d29b8888c7997cd77e09bb57773850b2f92880a7fe8fcc46c"),
]


@pytest.mark.parametrize("name, digest", [
    pytest.param(name, digest, id=f"{name}-{first}") for name, digest, first in SWEEP_PINS])
def test_time_varying_sweeps_pinned(name, digest):
    got = _digest(*(a for nt in PIN_STEP_COUNTS for a in _pinned_outputs(name, nt)))
    assert got == digest


def test_time_varying_singular_step_raises():
    # interval 35 of 40 has M[1, 1] = 1 - (h/2)(-1/dx^2 + 3) = 0 at the one
    # interior node; the sweeps reach it from both sides of a chunk edge
    sg = SpaceGrid(1.0, 3)
    tg = TimeGrid(0.0, 40.0, 40)
    vals = np.zeros((41, 3))
    vals[35:37] = 3.0
    rho = SpaceTimeDeviation(tg, sg, vals)
    v = np.array([0.0, 1.0, 0.0])
    with pytest.raises(np.linalg.LinAlgError):
        _sweep(rho, v, 0, 40)
    with pytest.raises(np.linalg.LinAlgError):
        _Stepper(sg).sweep_transpose(v, rho, 0, 40)
    with pytest.raises(np.linalg.LinAlgError):
        operator_norm(rho, 0.0, 40.0, iters=10)
    with pytest.raises(np.linalg.LinAlgError):
        _sweep(rho, v, 30, 40)


def test_first_interval_is_factored_only_where_a_sweep_reads_it():
    # W M of interval 0 is singular at the full step h = 1, M[1, 1] =
    # 1 - (1/2)(-1/dx^2 + 3) = 0, but not at the warm-up sub-steps (h <= 1/2)
    # that the delta march, its gradient and the adjoint take there; the
    # backward sweeps' chunks stop at interval 1
    sg = SpaceGrid(1.0, 3)
    tg = TimeGrid(0.0, 40.0, 40)
    vals = np.zeros((41, 3))
    vals[:2] = 3.0
    rho = SpaceTimeDeviation(tg, sg, vals)
    with pytest.raises(np.linalg.LinAlgError, match="lower dt"):
        _sweep(rho, np.array([0.0, 1.0, 0.0]), 0, 40)
    log_zt, partials = log_terminal_and_gradient(rho)
    assert log_zt == solve_delta_scaled(rho).log_at(40.0, 0.0)
    assert np.all(np.isfinite(partials))
    assert np.all(np.isfinite(adjoint_solve(rho, Potential(sg, np.ones(3))).values))


def test_full_line_sweep_transpose_is_the_transpose():
    # 2 M^-1 - I is symmetric on the pinned subspace, so the transposed
    # sweeps take the same steps in descending order; the step count crosses
    # several coefficient chunks
    sg = SpaceGrid(10.0, 201)
    nt = 3 * CHUNK + 5
    tg = TimeGrid(0.0, 0.02 * nt, nt)
    rho = random_smooth_deviation(rng_from_seed(700), tg, sg)
    assert np.ptp(rho.values, axis=0).max() > 1e-3
    rng = rng_from_seed(701)
    u, v = rng.normal(size=(2, sg.n_points))
    u[[0, -1]] = v[[0, -1]] = 0.0
    stepper = _Stepper(sg)
    lhs = np.dot(u, _sweep(rho, v, 0, nt))
    assert lhs == pytest.approx(np.dot(stepper.sweep_transpose(u, rho, 0, nt), v), rel=1e-12)
    # the factored span of operator_norm, on an inner sub-span
    ks, kt = 7, nt - 3
    span = _Factors(stepper, rho, tg.dt, (ks, kt))
    fwd, back = v, u
    for k in range(ks, kt):
        fwd = span.step(fwd, k)
    for k in range(kt - 1, ks - 1, -1):
        back = span.step(back, k)
    assert np.dot(u, fwd) == pytest.approx(np.dot(back, v), rel=1e-12)
    assert np.array_equal(fwd, _sweep(rho, v, ks, kt))


def _dptsv_step(grid, h, rho_lo, rho_hi, v):
    """One CN step M^-1(2v) - v with midpoint potential (rho_lo + rho_hi)/2,
    solved by one LAPACK dptsv call on W M built from its definition."""
    d = 1.0 - 0.5 * h * (-1.0 / grid.dx**2 + 0.5 * (rho_lo + rho_hi))
    e = np.full(grid.n_points - 1, -0.5 * h * (0.5 / grid.dx**2))
    b = 2.0 * v
    d[-1], e[-1], b[-1] = 1.0, 0.0, 0.0
    if isinstance(grid, HalfLine):
        d[0] *= 0.5
        b[0] *= 0.5
    else:
        d[0], e[0], b[0] = 1.0, 0.0, 0.0
    _, _, x, info = dptsv(d, e, b)
    assert info == 0
    return x - v


# 70 = 2 CHUNK + 6 intervals, so that neither sweep direction lines up with
# the chunk edges; the last order reads behind its current chunk twice
FACTOR_SWEEPS = {
    "upward": list(range(70)),
    "downward": list(range(69, -1, -1)),
    "re-read": [*range(0, 45), 20, 21, 50, 3, 69, 0, 68],
}


@pytest.mark.parametrize("half_line", [False, True], ids=["full", "half"])
def test_factored_steps_match_one_call_dptsv(half_line):
    sg = SpaceGrid(10.0, 201)
    grid = HalfLine(sg) if half_line else sg
    tg = TimeGrid(0.0, 1.4, 70)
    vals = random_smooth_deviation(rng_from_seed(800), tg, sg).values
    varying = SpaceTimeDeviation(tg, grid, np.ascontiguousarray(vals[:, -grid.n_points:]))
    constant = SpaceTimeDeviation.time_constant(tg, Potential(grid, varying.values[7]))
    v0 = np.exp(-grid.x**2)
    v0[-1] = 0.0
    if not half_line:
        v0[0] = 0.0
    stepper, h = _Stepper(grid), tg.dt

    def check(factors, rho, order):
        got = want = v0
        for k in order:
            got = factors.step(got, k)
            want = _dptsv_step(grid, h, rho.values[k], rho.values[k + 1], want)
            assert np.array_equal(got, want), k

    for order in FACTOR_SWEEPS.values():
        check(_Factors(stepper, varying, h), varying, order)
        check(_Factors(stepper, constant, h), constant, order)
    ks, kt = 9, 61
    check(_Factors(stepper, varying, h, (ks, kt)), varying, [*range(ks, kt), *range(kt - 1, ks - 1, -1)])
    rho_mid = 0.5 * (varying.values[5] + varying.values[6])
    assert np.array_equal(stepper.step(v0, 0.25 * h, rho_mid),
                          _dptsv_step(grid, 0.25 * h, varying.values[5], varying.values[6], v0))


def _long_double_march(sg, rho_mid, h, v, steps):
    """`steps` CN steps M^-1 N of length h on the interior nodes of sg, in
    np.longdouble: N v, then M^-1 by the Thomas algorithm."""
    ld = np.longdouble
    off = ld(h) / 2 * (ld(0.5) / ld(sg.dx) ** 2)
    a_diag = -ld(1) / ld(sg.dx) ** 2 + rho_mid[1:-1].astype(ld)
    m_diag, n_diag = 1 - ld(h) / 2 * a_diag, 1 + ld(h) / 2 * a_diag
    m = sg.n_points - 2
    x = v[1:-1].astype(ld)
    c, d = np.empty(m, ld), np.empty(m, ld)
    for _ in range(steps):
        b = n_diag * x
        b[1:] += off * x[:-1]
        b[:-1] += off * x[1:]
        c[0], d[0] = -off / m_diag[0], b[0] / m_diag[0]
        for i in range(1, m):
            den = m_diag[i] + off * c[i - 1]
            c[i], d[i] = -off / den, (b[i] + off * d[i - 1]) / den
        x[-1] = d[-1]
        for i in range(m - 2, -1, -1):
            x[i] = d[i] - c[i] * x[i + 1]
    out = np.zeros(sg.n_points, ld)
    out[1:-1] = x
    return out


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="np.longdouble is no wider than float64 here")
def test_march_matches_long_double_reference():
    sg = SpaceGrid(4.0, 401)
    tg = TimeGrid(0.0, 8.0, 400)
    phi = 1.0 / np.cosh(sg.x) ** 2
    f = np.exp(-sg.x**2)
    f[[0, -1]] = 0.0
    got = _sweep(SpaceTimeDeviation.time_constant(tg, Potential(sg, phi)), f, 0, tg.n_steps)
    want = _long_double_march(sg, phi, tg.dt, f, tg.n_steps)
    assert got[0] == 0.0 and got[-1] == 0.0
    big = np.abs(want) > 1e-250 * np.abs(want).max()
    assert np.max(np.abs(got[big] - want[big]) / np.abs(want[big])) <= 2e-12


def test_step_too_long_for_a_time_constant_march_raises():
    # h lambda_max(D/2 + sech^2) >= 2 at h = 4: the discrete top eigenvalue
    # sits just above the continuum's 1/2
    sg = SpaceGrid(20.0, 801)
    tg = TimeGrid(0.0, 16.0, 4)
    rho = SpaceTimeDeviation.time_constant(tg, Potential(sg, 1.0 / np.cosh(sg.x) ** 2))
    with pytest.raises(np.linalg.LinAlgError, match=r"h = 4\b.*lower dt"):
        solve_delta_scaled(rho)


# Half-line marches of even deviations against the full line.  The step
# counts straddle the coefficient-chunk edges as in the pins above.
HALF_LINE_STEP_COUNTS = (1, CHUNK - 1, CHUNK + 1, 3 * CHUNK + 5)


def _even_case(nt):
    sg = SpaceGrid(10.0, 201)
    tg = TimeGrid(0.0, 0.02 * nt, nt)
    rho = random_smooth_deviation(rng_from_seed(600 + nt), tg, sg)
    vals = (rho.values + rho.values[:, ::-1]) / 2
    c = sg.center_index
    return (SpaceTimeDeviation(tg, sg, vals),
            SpaceTimeDeviation(tg, HalfLine(sg), vals[:, c:]))


@pytest.mark.parametrize("nt", HALF_LINE_STEP_COUNTS)
def test_half_line_gradient_matches_full_line(nt):
    full, half = _even_case(nt)
    log_full, p_full = log_terminal_and_gradient(full)
    log_half, p_half = log_terminal_and_gradient(half)
    assert abs(log_half - log_full) <= 1e-12 * abs(log_full)
    # a node x > 0 stands for x and -x
    c = full.sgrid.center_index
    multiplicity = np.full(c + 1, 2.0)
    multiplicity[0] = 1.0
    want = multiplicity * p_full[:, c:]
    assert np.max(np.abs(p_half - want)) <= 1e-10 * np.max(np.abs(want))
    sol = solve_delta_scaled(half)
    assert sol.log_at(half.tgrid.t_end, 0.0) == log_half


def test_half_line_gradient_matches_finite_differences():
    _, half = _even_case(CHUNK + 1)
    tg, hl = half.tgrid, half.sgrid
    _, partials = log_terminal_and_gradient(half)
    h = 1e-6
    for k, j in [(0, 0), (16, 5), (CHUNK + 1, 12)]:
        up = half.values.copy()
        up[k, j] += h
        lp = solve_delta_scaled(SpaceTimeDeviation(tg, hl, up)).log_at(tg.t_end, 0.0)
        up[k, j] -= 2 * h
        lm = solve_delta_scaled(SpaceTimeDeviation(tg, hl, up)).log_at(tg.t_end, 0.0)
        assert partials[k, j] == pytest.approx((lp - lm) / (2 * h), rel=2e-6, abs=1e-9)


def test_half_line_step_matches_dense_reflected_matrices():
    # M = W^-1 S with S symmetric, W = diag(1/2, 1, ..., 1): row 0 couples to
    # node 1 with weight 2; the last node is the pinned wall
    hl = HalfLine(SpaceGrid(4.0, 129))
    h = 2.0**-6
    rng = rng_from_seed(304)
    rho_mid = rng.normal(0.0, 2.0, hl.n_points)
    n = hl.n_points - 1
    a = (np.diag(-np.ones(n) / hl.dx**2 + rho_mid[:-1])
         + np.diag(np.full(n - 1, 0.5 / hl.dx**2), 1)
         + np.diag(np.full(n - 1, 0.5 / hl.dx**2), -1))
    a[0, 1] *= 2.0
    m_mat, n_mat = np.eye(n) - 0.5 * h * a, np.eye(n) + 0.5 * h * a
    v = rng.normal(size=hl.n_points)
    v[-1] = 0.0
    got = _Stepper(hl).step(v, h, rho_mid)
    want = np.linalg.solve(m_mat, n_mat @ v[:-1])
    assert got[-1] == 0.0
    assert np.max(np.abs(got[:-1] - want)) <= 1e-12 * np.max(np.abs(want))


def test_half_line_rejected_where_not_validated():
    _, half = _even_case(4)
    hl = half.sgrid
    f = Potential(hl, np.exp(-hl.x**2))
    for call in (lambda: operator_norm(half, 0.0, 0.08, iters=10),
                 lambda: adjoint_solve(half, f)):
        with pytest.raises(ValueError, match="half line"):
            call()
