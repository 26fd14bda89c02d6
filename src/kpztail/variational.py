"""Rate function of the conditioned log-height via PDE-constrained optimization.

For a tail depth lam the scaled problem minimizes (1/(2 lam)) ||rho||^2 over
deviations on [0, 2 lam] x [-L, L] subject to

    log Z(rho; 2 lam, 0) >= lam - (1/2) log(4 pi lam),

the log form of the threshold exp(lam)/sqrt(4 pi lam).  The constraint is a
single scalar, so the KKT system is the fixed-point equation

    rho = eta * lam * G(rho),      G = d log Z(T, 0) / d rho,

with one dual variable eta > 0 selected so the constraint is active.  The
solver runs damped Picard iterations on the fixed point (the adjoint-state
gradient G is strictly positive, so iterates stay in the cone rho >= 0 for
free) inside a secant loop on the monotone scalar map eta -> log Z; exit
requires feasibility within tolerance and a scaled KKT gradient norm below
the stationarity tolerance.

The estimate phi_hat = lam^(3/2) (1/(2 lam)) ||rho_hat||^2 is an upper bound
on the true rate value certified feasible; the time-constant candidate
(1+zeta) sech^2 provides the analytic certificate (4/3)(1+zeta)^2 lam^(3/2)
above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import (
    Potential,
    SpaceGrid,
    SpaceTimeDeviation,
    TimeGrid,
    heat_kernel,
    l2_norm_spacetime,
)
from .solver import (
    SolverConfig,
    adjoint_solve,
    log_terminal_and_gradient,
    solve_delta_scaled,
)
from .spectral import rho_star


class CertificateUnavailableError(RuntimeError):
    """The candidate (1+zeta) rho_star fails the constraint at this (lam, zeta)."""


@dataclass(frozen=True)
class RateOptions:
    half_width: float = 20.0
    n_points: int = 801
    dt: float = 0.01
    delta_warmup: float = 1e-3
    init: str = "rho_star"  # rho_star | half_rho_star | zeros
    init_values: np.ndarray | None = None  # explicit start, overrides init
    max_iterations: int = 2000  # total inner fixed-point iterations
    max_outer: int = 40        # dual (secant) rounds
    damping: float = 0.7
    stationarity_tol: float = 1e-5
    feasibility_tol: float = 1e-6
    sd_project_interval: int = 50
    zeta_candidates: tuple = (0.05, 0.1, 0.2, 0.5, 1.0)
    compute_certificate: bool = True


@dataclass(frozen=True)
class RateReport:
    lam: float
    phi_hat: float
    minimizer: SpaceTimeDeviation = field(repr=False)
    constraint_residual: float
    iterations: int
    upper_certificate: float
    converged: bool

    @property
    def scaled_ratio(self) -> float:
        """phi_hat / lam^(3/2); tends to 4/3 deep in the tail."""
        if self.lam <= 0:
            return float("nan")
        return self.phi_hat / self.lam**1.5


def _problem_grids(lam: float, opts: RateOptions):
    t_end = 2.0 * lam if lam > 0 else 2.0
    n_steps = int(round(t_end / opts.dt))
    tgrid = TimeGrid(0.0, t_end, n_steps)
    sgrid = SpaceGrid(opts.half_width, opts.n_points)
    return tgrid, sgrid


def _target_log(lam: float) -> float:
    if lam == 0.0:
        return float(np.log(heat_kernel(2.0, 0.0)))
    return lam - 0.5 * np.log(4.0 * np.pi * lam)


def log_z_terminal(rho: SpaceTimeDeviation, cfg: SolverConfig) -> float:
    sol = solve_delta_scaled(rho, cfg, keep=[rho.tgrid.n_steps])
    return sol.log_at(rho.tgrid.t_end, 0.0)


def terminal_gradient(rho: SpaceTimeDeviation, cfg: SolverConfig | None = None) -> SpaceTimeDeviation:
    """Adjoint-state gradient field of rho -> Z(rho; T, 0).

    The value at node (s, y) is Z(s, y) A(s, y); one node's sensitivity of
    Z(T, 0) is that value times dt dx.
    """
    cfg = cfg or SolverConfig()
    z = solve_delta_scaled(rho, cfg).field()
    i0 = rho.sgrid.center_index
    terminal = np.zeros(rho.sgrid.n_points)
    terminal[i0] = 1.0 / rho.sgrid.dx
    a = adjoint_solve(rho, Potential(rho.sgrid, terminal), cfg)
    return SpaceTimeDeviation(rho.tgrid, rho.sgrid, z.values * a.values)


def upper_certificate(lam: float, zeta: float, opts: RateOptions | None = None) -> float:
    """(4/3)(1+zeta)^2 lam^(3/2) after verifying the candidate is feasible."""
    if not zeta > 0:
        raise ValueError("zeta must be positive")
    if lam == 0.0:
        return 0.0
    opts = opts or RateOptions()
    tgrid, sgrid = _problem_grids(lam, opts)
    cfg = SolverConfig(delta_warmup=opts.delta_warmup)
    cand = SpaceTimeDeviation.time_constant(
        tgrid, Potential(sgrid, (1.0 + zeta) * rho_star(sgrid).values)
    )
    if log_z_terminal(cand, cfg) < _target_log(lam):
        raise CertificateUnavailableError(
            f"(1+{zeta}) sech^2 violates the threshold at lam={lam}; raise zeta or lam"
        )
    return (4.0 / 3.0) * (1.0 + zeta) ** 2 * lam**1.5


def _smallest_certificate(lam: float, opts: RateOptions) -> float:
    for zeta in opts.zeta_candidates:
        try:
            return upper_certificate(lam, zeta, opts)
        except CertificateUnavailableError:
            continue
    raise CertificateUnavailableError(
        f"no feasible zeta among {opts.zeta_candidates} at lam={lam}"
    )


def rate_phi(lam: float, opts: RateOptions | None = None) -> RateReport:
    """KKT fixed-point estimate of the scaled rate value at depth lam."""
    opts = opts or RateOptions()
    if not 0.0 <= lam <= 32.0:
        raise ValueError(f"lam must lie in [0, 32] at desk scale, got {lam}")
    tgrid, sgrid = _problem_grids(lam, opts)
    cfg = SolverConfig(delta_warmup=opts.delta_warmup)
    target = _target_log(lam)
    cost_scale = 2.0 * lam if lam > 0 else 2.0

    w_space = sgrid.trapezoid_weights()
    dt = tgrid.dt
    nt = tgrid.n_steps
    inv_weight = 1.0 / (dt * w_space)  # node partial -> functional gradient

    def make_rho(u):
        vals = np.empty((nt + 1, sgrid.n_points))
        vals[:nt] = u
        vals[nt] = u[nt - 1]  # final node mirrors the last costed slice
        return SpaceTimeDeviation(tgrid, sgrid, vals)

    def cost_of(u):
        return float(dt * ((u * u) @ w_space).sum() / cost_scale)

    def unorm(v):
        return float(np.sqrt(dt * ((v * v) @ w_space).sum()))

    def log_and_gradient(u):
        log_zt, partials = log_terminal_and_gradient(make_rho(u), cfg)
        grad = partials[:nt].copy()
        grad[nt - 1] += partials[nt]  # fold the tied final node in
        grad *= inv_weight[None, :]
        return log_zt, grad

    base = rho_star(sgrid).values
    if opts.init_values is not None:
        u = np.array(opts.init_values[:nt], dtype=float)
        if u.shape != (nt, sgrid.n_points):
            raise ValueError(f"init_values must cover {(nt, sgrid.n_points)} nodes")
        u = np.maximum(u, 0.0)
    elif opts.init == "rho_star":
        u = np.tile(base, (nt, 1))
    elif opts.init == "half_rho_star":
        u = np.tile(0.5 * base, (nt, 1))
    elif opts.init == "zeros":
        u = np.zeros((nt, sgrid.n_points))
    else:
        raise ValueError(f"unknown init {opts.init!r}")

    mult = 0.5 * cost_scale  # the KKT map is u = eta * mult * G(u)
    log_zt, grad = log_and_gradient(u)
    c_val = target - log_zt  # positive when infeasible
    # self-scaled initial dual variable: least-squares match of u to its map
    gg = float(dt * ((grad * grad) @ w_space).sum())
    ug = float(dt * ((u * grad) @ w_space).sum())
    eta = max(ug / (mult * gg), 1e-6) if gg > 0 else 1.0

    it = 0
    snorm = np.inf
    history = []
    inner_tol = 1e-3  # tightened every dual round so secant pairs stay consistent
    for outer in range(opts.max_outer):
        while it < opts.max_iterations:
            it += 1
            du = eta * mult * grad - u
            rel = unorm(du) / max(unorm(u), 1e-30)
            u = np.maximum(u + opts.damping * du, 0.0)
            if it % opts.sd_project_interval == 0:
                from .rearrange import steiner

                u = steiner(SpaceTimeDeviation(
                    tgrid, sgrid, np.vstack([u, u[-1:]]))).values[:nt]
            log_zt, grad = log_and_gradient(u)
            c_val = target - log_zt
            if rel <= inner_tol:
                break
        # KKT residual at the current dual variable
        g = (u - eta * mult * grad) / (0.5 * cost_scale)
        pg = u - np.maximum(u - g, 0.0)
        snorm = float(np.sqrt(dt * ((pg * pg) @ w_space).sum() / cost_scale))
        complementary = abs(c_val) <= opts.feasibility_tol or eta <= opts.feasibility_tol
        if c_val <= opts.feasibility_tol and complementary and snorm <= opts.stationarity_tol:
            break
        if it >= opts.max_iterations:
            break
        inner_tol = max(0.3 * inner_tol, 1e-9)
        # secant on the monotone map eta -> log Z(fixed point of eta)
        history.append((eta, log_zt))
        if len(history) >= 2 and history[-1][1] != history[-2][1] and history[-1][0] != history[-2][0]:
            (e0, l0), (e1, l1) = history[-2], history[-1]
            proposal = e1 + (target - l1) * (e1 - e0) / (l1 - l0)
            eta = float(np.clip(proposal, 0.2 * eta, 5.0 * eta))
        else:
            eta = eta * (1.25 if c_val > 0 else 0.8)

    rho_hat = make_rho(u)
    log_zt = log_z_terminal(rho_hat, cfg)
    c_val = target - log_zt
    complementary = abs(c_val) <= opts.feasibility_tol or eta <= opts.feasibility_tol
    converged = (c_val <= opts.feasibility_tol) and complementary and (snorm <= opts.stationarity_tol)
    cost = cost_of(u)
    phi_hat = (lam**1.5) * cost if lam > 0 else cost
    if opts.compute_certificate:
        cert = _smallest_certificate(lam, opts) if lam > 0 else 0.0
    else:
        cert = float("nan")
    return RateReport(
        lam=lam,
        phi_hat=float(phi_hat),
        minimizer=rho_hat,
        constraint_residual=float(-c_val),
        iterations=it,
        upper_certificate=float(cert),
        converged=bool(converged),
    )


def minimizer_distance(report: RateReport) -> float:
    """(1/(2 lam)) || rho_hat - sech^2 ||^2 with sech^2 constant in time."""
    if not report.converged:
        raise ValueError("minimizer_distance needs a converged report")
    rho = report.minimizer
    star = rho_star(rho.sgrid).values
    diff = SpaceTimeDeviation(rho.tgrid, rho.sgrid, rho.values - star[None, :])
    scale = 2.0 * report.lam if report.lam > 0 else 2.0
    return float(l2_norm_spacetime(diff) ** 2 / scale)


def height_function(rho: SpaceTimeDeviation, lam: float, t: float, x: float,
                    cfg: SolverConfig | None = None) -> float:
    """h_lam(rho; t, x) = lam^-1 log(lam^(1/2) Z(rho; lam t, lam x)).

    lam t must be a node of rho's time grid and lam x a node of its space
    grid, up to round-off; otherwise the lookup raises ValueError.
    """
    cfg = cfg or SolverConfig()
    sol = solve_delta_scaled(rho, cfg, keep=[rho.tgrid.index_of(lam * t)])
    return float((0.5 * np.log(lam) + sol.log_at(lam * t, lam * x)) / lam)


def equicontinuity_probe(rho1: SpaceTimeDeviation, rho2: SpaceTimeDeviation,
                         lam: float, t: float, x: float,
                         cfg: SolverConfig | None = None) -> tuple[float, float]:
    """(|h_lam(rho1) - h_lam(rho2)| at (t, x), continuity modulus).

    The modulus is lam^(-1/2) ||rho1 - rho2|| (1 + lam^-1 ||rho1||^2 +
    lam^-1 ||rho2||^2); the probe requires nonnegative inputs and a
    normalized distance below one.
    """
    if np.any(rho1.values < 0) or np.any(rho2.values < 0):
        raise ValueError("equicontinuity probe requires nonnegative deviations")
    diff = SpaceTimeDeviation(rho1.tgrid, rho1.sgrid, rho1.values - rho2.values)
    dist = l2_norm_spacetime(diff) / np.sqrt(lam)
    if not dist < 1.0:
        raise ValueError(f"normalized distance {dist:.3g} must be below 1")
    n1 = l2_norm_spacetime(rho1)
    n2 = l2_norm_spacetime(rho2)
    modulus = dist * (1.0 + n1**2 / lam + n2**2 / lam)
    lhs = abs(height_function(rho1, lam, t, x, cfg) - height_function(rho2, lam, t, x, cfg))
    return float(lhs), float(modulus)
