"""Programmatic acceptance suite shared by the CLI selftest and pytest gate.

Each criterion check returns a CheckResult with a pass flag, a human-readable
detail string, and small deterministic CSV artifacts of the measured
quantities.  The "full" profile runs the stated desk-scale parameters; the
"quick" profile shrinks trial counts and grids for smoke runs and
reproducibility comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bridge, rearrange, spectral, variational
from .grids import (
    Potential,
    SpaceGrid,
    SpaceTimeDeviation,
    TimeGrid,
    format_value,
    heat_kernel,
    l2_norm_space,
    standard_grid,
)
from .solver import chaos_series_point, operator_norm, solve_delta, solve_delta_at
from .testing import random_smooth_deviation, random_smooth_potential, rng_from_seed
from .variational import (
    RateOptions,
    minimizer_distance,
    rate_phi,
    terminal_gradient,
    time_constant_prediction,
)


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    artifacts: dict = field(default_factory=dict)  # filename -> text body


SEED = 20230811  # base of the randomized criteria's Philox keys, in every profile


@dataclass(frozen=True)
class Profile:
    name: str
    # criterion 2
    bound_trials: int = 100
    # criterion 4
    norm_trials: int = 100
    # criterion 5
    norm_preserve_trials: int = 100
    hl_trials: int = 200
    bll_trials: int = 50
    steiner_trials: int = 50
    # criterion 6
    tail_lambdas: tuple = (4.0, 8.0, 16.0)
    tail_n_points: int = 801
    tail_dt: float = 0.01
    tail_max_iterations: int = 2000
    # criterion 7
    shape_lambdas: tuple = (8.0, 20.0)
    shape_dx: float = 0.05
    # criterion 8
    growth_lambda: float = 32.0
    growth_paths: int = 12_000_000
    growth_paths_edge: int = 8_000_000
    hit_paths: int = 100_000
    hit_bins: int = 200
    hit_steps: int = 2000


FULL = Profile(name="full")
QUICK = Profile(
    name="quick",
    bound_trials=15,
    norm_trials=10,
    norm_preserve_trials=20,
    hl_trials=25,
    bll_trials=8,
    steiner_trials=6,
    tail_lambdas=(4.0,),
    tail_n_points=401,
    tail_dt=0.02,
    tail_max_iterations=400,
    shape_lambdas=(8.0,),
    shape_dx=0.1,
    growth_lambda=24.0,
    growth_paths=300_000,
    growth_paths_edge=200_000,
    hit_paths=20_000,
    hit_bins=50,
    hit_steps=800,
)


def _rows_csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(format_value(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# --- criterion 1: exact constants --------------------------------------------

def check_exact_constants(profile: Profile) -> CheckResult:
    grid = standard_grid(0.01, 20.0)
    rows = []
    failures = []

    def record(name, value, target, tol):
        ok = abs(value - target) <= tol
        rows.append((name, float(value), float(target), float(tol), int(ok)))
        if not ok:
            failures.append(f"{name}: {value!r} vs {target!r} (tol {tol})")

    record("norm_sq_sech2", l2_norm_space(spectral.rho_star(grid)) ** 2, 4.0 / 3.0, 1e-6)
    record("norm_r_star", l2_norm_space(spectral.r_star(grid)), 1.0, 1e-6)
    record("h_star_1_0", bridge.h_star(1.0, 0.0), 0.5, 0.0)
    record("h_star_2_3", bridge.h_star(2.0, 3.0), -2.25, 0.0)
    sech = Potential(grid, 1.0 / np.cosh(grid.x))
    record("gns_sech", spectral.gns_ratio(sech), 3.0 ** (-1.0 / 8.0), 1e-4)
    record("logmgf_half_2_1", bridge.laplace_logmgf(0.5, 2.0, 1.0), -0.75, 0.0)
    record("logmgf_half_1_2", bridge.laplace_logmgf(0.5, 1.0, 2.0), -0.5, 0.0)

    detail = "all exact constants hit" if not failures else "; ".join(failures)
    return CheckResult(1, "exact constants", not failures,
                       detail, {"constants.csv": _rows_csv("name,value,target,tol,pass", rows)})


# --- criterion 2: spectral ----------------------------------------------------

def check_spectral(profile: Profile) -> CheckResult:
    failures = []
    rows = []
    grid = standard_grid(0.01, 20.0)
    f_sech2 = spectral.ground_state(spectral.rho_star(grid)).value
    rows.append(("F_sech2", float(f_sech2), 0.5, 1e-4, int(abs(f_sech2 - 0.5) <= 1e-4)))
    if abs(f_sech2 - 0.5) > 1e-4:
        failures.append(f"F(sech^2) = {f_sech2}")

    for alpha in (0.5, 2.0):
        phi = Potential(grid, alpha**2 / np.cosh(alpha * grid.x) ** 2)
        f = spectral.ground_state(phi).value
        target = 0.5 * alpha**2
        ok = abs(f - target) <= 1e-3 * target
        rows.append((f"F_scaled_alpha_{alpha}", float(f), float(target), 1e-3 * target, int(ok)))
        if not ok:
            failures.append(f"scaling alpha={alpha}: F={f} vs {target}")

    bound_grid = standard_grid(0.02, 20.0)
    rng = rng_from_seed(SEED + 2)
    worst_margin = -np.inf
    for i in range(profile.bound_trials):
        phi = random_smooth_potential(rng, bound_grid, nonneg=False)
        f = spectral.ground_state(phi).value
        b = spectral.potbd_bound(phi)
        margin = f - b
        worst_margin = max(worst_margin, margin)
        if margin > 1e-6:
            failures.append(f"bound violated on trial {i}: F-bound = {margin}")
    rows.append(("worst_F_minus_bound", float(worst_margin), 0.0, 1e-6, int(worst_margin <= 1e-6)))

    detail = (f"F(sech^2)={f_sech2:.6f}, worst F-bound margin {worst_margin:.3g} "
              f"over {profile.bound_trials} random potentials")
    if failures:
        detail += " | FAIL: " + "; ".join(failures)
    return CheckResult(2, "spectral functional", not failures, detail,
                       {"spectral.csv": _rows_csv("name,value,target,tol,pass", rows)})


# --- criterion 3: solver consistency ------------------------------------------

def _zero_deviation(tgrid, sgrid):
    return SpaceTimeDeviation(tgrid, sgrid, np.zeros((tgrid.n_steps + 1, sgrid.n_points)))


def check_solver(profile: Profile) -> CheckResult:
    failures = []
    rows = []

    # delta data with rho = 0 reproduces the heat kernel
    sgrid = SpaceGrid(20.0, 8001)
    tgrid = TimeGrid(0.0, 2.0, 1000)
    fld = solve_delta(_zero_deviation(tgrid, sgrid))
    mask = np.abs(sgrid.x) <= 5.0
    worst = 0.0
    for k, t in enumerate(tgrid.times):
        if t < 0.5 - 1e-12:
            continue
        exact = heat_kernel(t, sgrid.x[mask])
        err = np.max(np.abs(fld.values[k][mask] - exact)) / np.max(exact)
        worst = max(worst, float(err))
    rows.append(("heat_kernel_suprel", worst, 0.0, 1e-5, int(worst <= 1e-5)))
    if worst > 1e-5:
        failures.append(f"heat-kernel error {worst:.3g}")

    # kernel series vs Crank-Nicolson
    cs_grid = standard_grid(0.01, 10.0)
    cs_tgrid = TimeGrid(0.0, 1.0, 500)
    rho_small = SpaceTimeDeviation.time_constant(
        cs_tgrid, Potential(cs_grid, 0.1 / np.cosh(cs_grid.x) ** 2))
    z_cn = solve_delta_at(rho_small, 1.0, 0.0)
    z_series = chaos_series_point(rho_small, 1.0, 0.0, order=6)
    rel = abs(z_series - z_cn) / abs(z_cn)
    rows.append(("chaos_vs_cn_rel", float(rel), 0.0, 1e-3, int(rel <= 1e-3)))
    if rel > 1e-3:
        failures.append(f"series vs CN {rel:.3g}")

    # diffusive scaling identity at lam = 4
    lam = 4.0
    grid_s = standard_grid(0.01, 20.0)
    tg_short = TimeGrid(0.0, 2.0, 1000)
    rho_short = SpaceTimeDeviation.time_constant(
        tg_short, Potential(grid_s, lam / np.cosh(np.sqrt(lam) * grid_s.x) ** 2))
    lhs = solve_delta_at(rho_short, 2.0, 0.0)
    tg_long = TimeGrid(0.0, 2.0 * lam, int(1000 * lam))
    rho_long = SpaceTimeDeviation.time_constant(
        tg_long, Potential(grid_s, 1.0 / np.cosh(grid_s.x) ** 2))
    rhs = np.sqrt(lam) * solve_delta_at(rho_long, 2.0 * lam, 0.0)
    rel = abs(lhs - rhs) / abs(rhs)
    rows.append(("scaling_identity_rel", float(rel), 0.0, 1e-3, int(rel <= 1e-3)))
    if rel > 1e-3:
        failures.append(f"scaling identity {rel:.3g}")

    # adjoint gradient against central finite differences, interior window
    fd_grid = standard_grid(0.05, 10.0)
    fd_tgrid = TimeGrid(0.0, 2.0, 200)
    rho_fd = SpaceTimeDeviation.time_constant(
        fd_tgrid, Potential(fd_grid, 1.0 / np.cosh(fd_grid.x) ** 2))
    grad = terminal_gradient(rho_fd)
    rng = rng_from_seed(SEED + 3)
    h = 1e-5
    worst_fd = 0.0
    dt, dx = fd_tgrid.dt, fd_grid.dx
    for _ in range(20):
        k = int(rng.integers(fd_tgrid.n_steps // 4, 3 * fd_tgrid.n_steps // 4 + 1))
        i = int(rng.integers(fd_grid.center_index - 20, fd_grid.center_index + 21))
        base = rho_fd.values.copy()
        base[k, i] += h
        zp = solve_delta_at(SpaceTimeDeviation(fd_tgrid, fd_grid, base), 2.0, 0.0)
        base[k, i] -= 2 * h
        zm = solve_delta_at(SpaceTimeDeviation(fd_tgrid, fd_grid, base), 2.0, 0.0)
        fd = (zp - zm) / (2 * h)
        an = grad.values[k, i] * dt * dx
        rel = abs(fd - an) / max(abs(fd), 1e-12)
        worst_fd = max(worst_fd, float(rel))
    rows.append(("gradient_fd_rel", worst_fd, 0.0, 1e-3, int(worst_fd <= 1e-3)))
    if worst_fd > 1e-3:
        failures.append(f"gradient FD mismatch {worst_fd:.3g}")

    detail = (f"heat {worst:.2e}, series {rows[1][1]:.2e}, scaling {rows[2][1]:.2e}, "
              f"gradient {worst_fd:.2e}")
    if failures:
        detail += " | FAIL: " + "; ".join(failures)
    return CheckResult(3, "solver consistency", not failures, detail,
                       {"solver.csv": _rows_csv("name,value,target,tol,pass", rows)})


# --- criterion 4: operator-norm bound ------------------------------------------

def check_operator_norm(profile: Profile) -> CheckResult:
    failures = []
    rows = []

    # tightness at the sech^2 profile on the wide grid
    grid = standard_grid(0.01, 20.0)
    tg = TimeGrid(0.0, 2.0, 200)
    rho_s = SpaceTimeDeviation.time_constant(tg, spectral.rho_star(grid))
    res = operator_norm(rho_s, 0.0, 2.0, iters=80)
    e1 = math.e
    ok = 0.9 * e1 <= res.value <= e1 * (1 + 1e-3)
    rows.append(("norm_sech2", res.value, e1, 0.1 * e1, int(ok)))
    if not ok:
        failures.append(f"sech^2 norm {res.value:.4f} outside [0.9e, e(1+1e-3)]")

    # randomized bound checks on a throughput grid
    small = SpaceGrid(10.0, 201)
    tg_small = TimeGrid(0.0, 2.0, 100)
    rng = rng_from_seed(SEED + 4)
    worst = -np.inf
    for i in range(profile.norm_trials):
        rho = random_smooth_deviation(rng, tg_small, small)
        est = operator_norm(rho, 0.0, 2.0, iters=60).value
        bound = math.exp(spectral.f_time_integral(rho))
        ratio = est / (bound * (1 + 1e-3))
        worst = max(worst, ratio)
        if ratio > 1.0:
            failures.append(f"trial {i}: norm {est:.5f} > bound {bound:.5f}")
    rows.append(("worst_norm_over_bound", float(worst), 1.0, 0.0, int(worst <= 1.0)))

    detail = (f"sech^2 norm {res.value:.4f} (target e = {e1:.4f}); worst norm/bound "
              f"ratio {worst:.5f} over {profile.norm_trials} random fields")
    if failures:
        detail += " | FAIL: " + "; ".join(failures)
    return CheckResult(4, "operator-norm bound", not failures, detail,
                       {"operator_norm.csv": _rows_csv("name,value,target,tol,pass", rows)})


# --- criterion 5: rearrangement -------------------------------------------------

def check_rearrangement(profile: Profile) -> CheckResult:
    failures = []
    rows = []
    grid = SpaceGrid(10.0, 401)
    rng = rng_from_seed(SEED + 5)

    worst_norm = 0.0
    idempotent = True
    for _ in range(profile.norm_preserve_trials):
        f = random_smooth_potential(rng, grid, nonneg=True)
        fs = rearrange.sym_decr_rearrange(f)
        worst_norm = max(worst_norm, abs(l2_norm_space(fs) - l2_norm_space(f)))
        fss = rearrange.sym_decr_rearrange(fs)
        if not np.array_equal(fss.values, fs.values):
            idempotent = False
    rows.append(("worst_norm_change", float(worst_norm), 0.0, 1e-10, int(worst_norm <= 1e-10)))
    rows.append(("idempotent_bitwise", float(idempotent), 1.0, 0.0, int(idempotent)))
    if worst_norm > 1e-10:
        failures.append(f"norm preservation {worst_norm:.3g}")
    if not idempotent:
        failures.append("rearrangement not bitwise idempotent")

    worst_hl = -np.inf
    for _ in range(profile.hl_trials):
        f = random_smooth_potential(rng, grid, nonneg=True)
        g = random_smooth_potential(rng, grid, nonneg=True)
        lhs, rhs = rearrange.hardy_littlewood_check(f, g)
        worst_hl = max(worst_hl, lhs - rhs)
    rows.append(("worst_hl_excess", float(worst_hl), 0.0, 1e-9, int(worst_hl <= 1e-9)))
    if worst_hl > 1e-9:
        failures.append(f"Hardy-Littlewood violated by {worst_hl:.3g}")

    bll_grid = SpaceGrid(8.0, 321)
    worst_bll = -np.inf
    for _ in range(profile.bll_trials):
        fs = [random_smooth_potential(rng, bll_grid, nonneg=True, center_span=3.0)
              for _ in range(3)]
        coeffs = rng.integers(-2, 3, size=(3, 2)).astype(float)
        if np.all(coeffs == 0):
            coeffs[0, 0] = 1.0
        lhs, rhs = rearrange.bll_check(*fs, coeffs)
        worst_bll = max(worst_bll, lhs - rhs - 1e-8 * (1 + rhs))
    rows.append(("worst_bll_excess", float(worst_bll), 0.0, 0.0, int(worst_bll <= 0.0)))
    if worst_bll > 0.0:
        failures.append(f"multilinear inequality violated by {worst_bll:.3g}")

    # Steiner monotonicity of the terminal value
    sg = SpaceGrid(10.0, 201)
    tg = TimeGrid(0.0, 2.0, 160)
    worst_sz = -np.inf
    for _ in range(profile.steiner_trials):
        rho = random_smooth_deviation(rng, tg, sg)
        z, z_s = rearrange.steiner_increases_z(rho)
        worst_sz = max(worst_sz, z / (z_s * (1 + 1e-4)))
    rows.append(("worst_z_over_zs", float(worst_sz), 1.0, 0.0, int(worst_sz <= 1.0)))
    if worst_sz > 1.0:
        failures.append(f"Steiner monotonicity violated, ratio {worst_sz:.6f}")

    shifted = SpaceTimeDeviation.time_constant(
        tg, Potential(sg, 1.0 / np.cosh(sg.x - 1.0) ** 2))
    z, z_s = rearrange.steiner_increases_z(shifted)
    gap = (z_s - z) / z
    rows.append(("shifted_sech2_gap", float(gap), 0.0, 0.0, int(gap >= 1e-4)))
    if gap < 1e-4:
        failures.append(f"strict gap too small: {gap:.3g}")

    detail = (f"norm drift {worst_norm:.2e}, HL excess {worst_hl:.2e}, "
              f"BLL excess {worst_bll:.2e}, Z ratio {worst_sz:.6f}, strict gap {gap:.2e}")
    if failures:
        detail += " | FAIL: " + "; ".join(failures)
    return CheckResult(5, "rearrangement suite", not failures, detail,
                       {"rearrangement.csv": _rows_csv("name,value,target,tol,pass", rows)})


# --- criterion 6: tail law -------------------------------------------------------

def check_tail_law(profile: Profile) -> CheckResult:
    failures = []
    rows = []
    ratios = []
    dists = []
    opts = RateOptions(n_points=profile.tail_n_points, dt=profile.tail_dt,
                       max_iterations=profile.tail_max_iterations)
    for lam in profile.tail_lambdas:
        rep_a = rate_phi(lam, replace(opts, init="rho_star"))
        rep_b = rate_phi(lam, replace(opts, init="half_rho_star", compute_certificate=False))
        if not (rep_a.converged and rep_b.converged):
            failures.append(f"lam={lam}: unconverged run(s)")
        agree = abs(rep_a.phi_hat - rep_b.phi_hat) / max(rep_a.phi_hat, 1e-12)
        if agree > 0.02:
            failures.append(f"lam={lam}: initializations disagree by {agree:.3%}")
        if rep_a.constraint_residual < -1e-6:
            failures.append(f"lam={lam}: infeasible at exit ({rep_a.constraint_residual:.2e})")
        ratio = rep_a.scaled_ratio
        cert_ratio = rep_a.upper_certificate / lam**1.5
        if ratio > cert_ratio + 1e-6:
            failures.append(f"lam={lam}: ratio {ratio:.4f} above certificate {cert_ratio:.4f}")
        dist = minimizer_distance(rep_a) if rep_a.converged else float("nan")
        ratios.append(ratio)
        dists.append(dist)
        rows.append((f"lam_{lam}", float(lam), float(rep_a.phi_hat), float(ratio),
                     float(cert_ratio), float(dist), float(agree), int(rep_a.converged)))

    for a, b in zip(ratios, ratios[1:]):
        if b > a * 1.05:
            failures.append(f"ratio sequence increases: {a:.4f} -> {b:.4f}")
    for r in ratios:
        if r < 1.0:
            failures.append(f"ratio {r:.4f} below 1.0")
    if len(profile.tail_lambdas) >= 3 and profile.tail_lambdas[-1] == 16.0:
        if not 1.20 <= ratios[-1] <= 1.55:
            failures.append(f"ratio at lam=16 is {ratios[-1]:.4f}, outside [1.20, 1.55]")
    for a, b in zip(dists, dists[1:]):
        if b > a * 1.10:
            failures.append(f"minimizer distance increases: {a:.4f} -> {b:.4f}")

    detail = ("ratios " + ", ".join(f"{r:.4f}" for r in ratios)
              + "; time-constant prediction "
              + ", ".join(f"{time_constant_prediction(lam):.4f}" for lam in profile.tail_lambdas)
              + "; distances " + ", ".join(f"{d:.4f}" for d in dists))
    if failures:
        detail += " | FAIL: " + "; ".join(failures)
    header = "name,lam,phi_hat,ratio,certificate_ratio,minimizer_distance,init_agreement,converged"
    return CheckResult(6, "tail law", not failures, detail,
                       {"tail_law.csv": _rows_csv(header, rows)})


# --- criterion 7: limit shape -----------------------------------------------------

def check_limit_shape(profile: Profile) -> CheckResult:
    failures = []
    rows = []
    sups = []
    for lam in profile.shape_lambdas:
        prof = bridge.shape_profile(lam, 0.5, backend="pde",
                                    opts=bridge.ShapeOptions(dx=profile.shape_dx))
        sups.append(prof.sup_error)
        tol = 0.25 if lam <= 8 else 0.1
        rows.append((f"lam_{lam}", float(lam), float(prof.sup_error), tol,
                     int(prof.sup_error <= tol)))
        if prof.sup_error > tol:
            failures.append(f"lam={lam}: sup error {prof.sup_error:.4f} > {tol}")
    if len(sups) >= 2 and not sups[-1] < sups[0]:
        failures.append(f"sup error did not shrink: {sups}")
    detail = "sup errors " + ", ".join(f"{s:.4f}" for s in sups)
    if failures:
        detail += " | FAIL: " + "; ".join(failures)
    return CheckResult(7, "limit shape", not failures, detail,
                       {"limit_shape.csv": _rows_csv("name,lam,sup_error,tol,pass", rows)})


# --- criterion 8: bridge machinery ---------------------------------------------

def check_bridge(profile: Profile) -> CheckResult:
    from scipy.integrate import quad  # not at module level, so importing the CLI skips it

    failures = []
    rows = []
    lam = profile.growth_lambda
    grid = standard_grid(0.05, 20.0)
    phi = spectral.rho_star(grid)
    steps = int(round(2 * lam / 0.1))
    cfg0 = bridge.BridgeConfig(n_paths=profile.growth_paths, n_time_steps=steps,
                               seed=90210)
    g0 = bridge.growth_rate(phi, lam, 0.0, cfg0)
    cfg1 = bridge.BridgeConfig(n_paths=profile.growth_paths_edge, n_time_steps=steps,
                               seed=90211)
    x_edge = lam**0.25
    g1 = bridge.growth_rate(phi, lam, x_edge, cfg1)
    ok0 = abs(g0 - 0.5) <= 0.05
    ok1 = abs(g0 - g1) <= 0.05
    rows.append(("growth_x0", float(g0), 0.5, 0.05, int(ok0)))
    rows.append(("growth_uniformity", float(abs(g0 - g1)), 0.0, 0.05, int(ok1)))
    if not ok0:
        failures.append(f"growth rate {g0:.4f} vs 0.5")
    if not ok1:
        failures.append(f"uniformity gap {abs(g0 - g1):.4f}")

    # hitting-time density: normalization and MC histogram
    t_h, x_h, lam_h = 1.0, 1.0, 4.0
    horizon = lam_h * t_h

    def dens(u):  # s = horizon - u^2 substitution at the right endpoint
        s = horizon - u * u
        return bridge.hitting_density(s, t_h, x_h, lam_h) * 2.0 * u

    total, _ = quad(dens, 0.0, math.sqrt(horizon), limit=200)
    ok_norm = abs(total - 1.0) <= 1e-4
    rows.append(("hitting_normalization", float(total), 1.0, 1e-4, int(ok_norm)))
    if not ok_norm:
        failures.append(f"density integrates to {total:.6f}")

    cfg_h = bridge.BridgeConfig(n_paths=profile.hit_paths, n_time_steps=profile.hit_steps,
                                seed=515151)
    hits = bridge.first_hitting_times(lam_h * x_h, horizon, cfg_h)
    edges = np.linspace(0.0, horizon, profile.hit_bins + 1)
    counts, _ = np.histogram(hits, bins=edges)
    worst_z = 0.0
    n = hits.size
    for b in range(profile.hit_bins):
        p_bin, _ = quad(lambda s: bridge.hitting_density(s, t_h, x_h, lam_h),
                        edges[b], edges[b + 1], limit=100)
        sd = math.sqrt(max(n * p_bin * (1 - p_bin), 1.0))
        worst_z = max(worst_z, abs(counts[b] - n * p_bin) / sd)
    rows.append(("hitting_hist_worst_z", float(worst_z), 0.0, 5.0, int(worst_z <= 5.0)))
    if worst_z > 5.0:
        failures.append(f"histogram deviates by {worst_z:.2f} standard errors")

    q = bridge.hitting_mgf_quadrature(0.5, 1.0, 0.5, 200.0)
    a = bridge.laplace_logmgf(0.5, 1.0, 0.5)
    ok_q = abs(q - a) <= 0.02
    rows.append(("laplace_quadrature_gap", float(abs(q - a)), 0.0, 0.02, int(ok_q)))
    if not ok_q:
        failures.append(f"quadrature {q:.5f} vs asymptote {a:.5f}")

    detail = (f"growth {g0:.4f} (x={x_edge:.2f}: {g1:.4f}), density norm {total:.6f}, "
              f"hist worst z {worst_z:.2f}, Laplace gap {abs(q - a):.4f}")
    if failures:
        detail += " | FAIL: " + "; ".join(failures)
    return CheckResult(8, "bridge machinery", not failures, detail,
                       {"bridge.csv": _rows_csv("name,value,target,tol,pass", rows)})


# --- criterion 9: reproducibility -----------------------------------------------

def check_reproducibility(profile: Profile) -> CheckResult:
    first = check_exact_constants(profile)
    second = check_exact_constants(profile)
    same = first.artifacts == second.artifacts
    srun_a = check_rearrangement(QUICK)
    srun_b = check_rearrangement(QUICK)
    same = same and (srun_a.artifacts == srun_b.artifacts)
    detail = "repeated runs produced byte-identical CSV bodies" if same else \
        "CSV bodies differ between repeated runs"
    rows = [("byte_identical", float(same), 1.0, 0.0, int(same))]
    return CheckResult(9, "reproducibility", bool(same), detail,
                       {"reproducibility.csv": _rows_csv("name,value,target,tol,pass", rows)})


CHECKS = {
    1: check_exact_constants,
    2: check_spectral,
    3: check_solver,
    4: check_operator_norm,
    5: check_rearrangement,
    6: check_tail_law,
    7: check_limit_shape,
    8: check_bridge,
    9: check_reproducibility,
}


def run_selftest(criteria=None, profile: Profile = FULL):
    """Run the requested criteria (all by default); returns list of CheckResult."""
    criteria = sorted(criteria or CHECKS.keys())
    results = []
    for c in criteria:
        if c not in CHECKS:
            raise ValueError(f"unknown criterion {c}")
        results.append(CHECKS[c](profile))
    return results
