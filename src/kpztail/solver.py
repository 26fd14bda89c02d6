"""Crank-Nicolson solvers for the tilted heat equation dZ/dt = (1/2) Z_xx + rho Z.

The delta initial condition is realized by starting the march at a small
warm-up time t0 from the exact heat kernel, tilted by the local potential.
Each step s->s+h uses the midpoint potential (rho(s)+rho(s+h))/2 at both the
implicit and explicit level, so one step is M^{-1} N with

    M = I - (h/2) (D/2 + rho_mid),   N = I + (h/2) (D/2 + rho_mid),

D the central second difference and Dirichlet-zero walls.  M and N are
symmetric on the wall-pinned subspace, which makes adjoint application an
exact transpose and keeps the discrete duality <A(s), Z(s)> constant in s to
round-off.

Within the first grid interval the march takes geometrically growing
sub-steps (step length <= elapsed time) so the barely-resolved warm-up
profile never meets a step size outside the accurate CN regime.

Far tails of the true solution sit below round-off relative to the peak;
there CN leaves sign wiggles of order 1e-16 * max.  Steps abort on
non-finite values or negatives beyond a noise threshold, and the surviving
sub-noise negatives are floored to a tiny positive constant so delta-data
solutions are strictly positive by contract.

The kernel is one LAPACK `dgtsv` call per step: tridiagonal Gaussian
elimination with partial pivoting, the routine `solve_banded` itself uses
for one sub- and one super-diagonal.  It is called directly because
`solve_banded`'s argument validation costs several times the solve itself
at n = 401.  The call does not check its input for non-finite values, so every
sweep checks its result.

A time-constant deviation (`SpaceTimeDeviation.time_constant`, rows held as
one stride-0 view) has the same M on every grid interval.  The delta march
then factors M once with `dgttrf` and runs `dgttrs` on each step: the same
elimination with the same pivot test, so the rows are bitwise those of
`dgtsv`.  The march stores only the time nodes its caller keeps.  Measured on
a 2-vCPU Xeon VM:
- one factorization per time-constant march: at n = 5761 a march step
  takes about 138 us against 218 us when each step rebuilds M for `dgtsv`,
  and a limit-shape run at L = 32 peaks at 83 MB instead of 644 MB;
- still no cache of factors between the forward march and the gradient's
  backward sweep: the gradient serves the rate optimizer, whose deviations
  vary in time.  At n = 801 such a cache holds about 23 MB per gradient call,
  raised the peak memory of the benchmark's `probes` workload by 18%, and
  saves one factorization (about 7 us) per backward step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from .grids import (
    Field,
    Potential,
    SpaceGrid,
    SpaceTimeDeviation,
    TimeGrid,
    heat_kernel,
)

POSITIVITY_FLOOR = 1e-280
NEGATIVE_NOISE_TOL = 1e-6
RENORM_THRESHOLD = 1e120


class SolverInstabilityError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    scheme: str = "crank_nicolson"  # or "chaos_series"
    delta_warmup: float = 1e-3
    chaos_order: int = 6

    def __post_init__(self):
        if self.scheme not in ("crank_nicolson", "chaos_series"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0 < self.delta_warmup:
            raise ValueError("delta_warmup must be positive")
        if self.chaos_order < 1:
            raise ValueError("chaos_order must be >= 1")


def _rho_mid(rho: SpaceTimeDeviation, k: int) -> np.ndarray:
    """Midpoint potential of the time interval [t_k, t_k+1]."""
    return 0.5 * (rho.values[k] + rho.values[k + 1])


def _apply_n(v: np.ndarray, n_diag: np.ndarray, n_off: float) -> np.ndarray:
    """N v for N with diagonal n_diag and off-diagonal n_off; walls pinned to 0."""
    out = v * n_diag
    out[1:-1] += n_off * (v[2:] + v[:-2])
    out[0] = 0.0
    out[-1] = 0.0
    return out


class _Stepper:
    """One CN step on a fixed SpaceGrid; matrices rebuilt per (h, rho_mid).

    M and N share the diagonal kin_diag + rho_mid, computed once per step
    (once per march for a time-constant rho, see `interval_step`).
    """

    def __init__(self, sgrid: SpaceGrid):
        n = sgrid.n_points
        self.kin_off = 0.5 / sgrid.dx**2          # off-diagonal of D/2
        self.kin_diag = -1.0 / sgrid.dx**2        # diagonal of D/2
        # off-diagonals of M per unit of -(h/2) kin_off; the Dirichlet wall
        # rows are identity rows, decoupled from their neighbours
        self._du_unit = np.ones(n - 1)
        self._du_unit[0] = 0.0
        self._dl_unit = np.ones(n - 1)
        self._dl_unit[-1] = 0.0

    def apply_n(self, v: np.ndarray, h: float, diag: np.ndarray) -> np.ndarray:
        return _apply_n(v, 1.0 + 0.5 * h * diag, 0.5 * h * self.kin_off)

    def _m_bands(self, h: float, diag: np.ndarray):
        """(sub-, main, super-diagonal) of M, as fresh arrays LAPACK may overwrite."""
        off = -0.5 * h * self.kin_off
        d = 1.0 - 0.5 * h * diag
        d[0] = 1.0
        d[-1] = 1.0
        return self._dl_unit * off, d, self._du_unit * off

    def solve_m(self, rhs: np.ndarray, h: float, diag: np.ndarray) -> np.ndarray:
        """M^{-1} rhs, computed in the storage of rhs (which is overwritten)."""
        dl, d, du = self._m_bands(h, diag)
        rhs[0] = 0.0
        rhs[-1] = 0.0
        _, _, _, x, info = dgtsv(dl, d, du, rhs, 1, 1, 1, 1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        return x

    def step(self, v: np.ndarray, h: float, rho_mid: np.ndarray) -> np.ndarray:
        diag = self.kin_diag + rho_mid
        return self.solve_m(self.apply_n(v, h, diag), h, diag)

    def interval_step(self, rho: SpaceTimeDeviation, h: float):
        """Callable (v, k) -> one step of length h over time interval k of rho.

        A time-constant rho (stride-0 rows) has the same M and N on every
        interval: their coefficients are computed once, M is factored once
        with dgttrf, and each call runs dgttrs.  dgttrf uses dgtsv's pivot
        test and elimination, so the result is bitwise that of `step`.
        """
        if rho.values.strides[0] != 0:
            return lambda v, k: self.step(v, h, _rho_mid(rho, k))
        diag = self.kin_diag + _rho_mid(rho, 0)
        n_diag = 1.0 + 0.5 * h * diag
        n_off = 0.5 * h * self.kin_off
        dl, d, du, du2, ipiv, info = dgttrf(*self._m_bands(h, diag), 1, 1, 1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")

        def fixed_step(v: np.ndarray, k: int) -> np.ndarray:
            # _apply_n leaves the wall entries zero, as solve_m would set them
            x, _ = dgttrs(dl, d, du, du2, ipiv, _apply_n(v, n_diag, n_off), overwrite_b=1)
            return x

        return fixed_step

    def step_transpose(self, v: np.ndarray, h: float, rho_mid: np.ndarray) -> np.ndarray:
        # (M^{-1} N)^T = N M^{-1} for symmetric M, N on the pinned subspace
        diag = self.kin_diag + rho_mid
        return self.apply_n(self.solve_m(v.copy(), h, diag), h, diag)

    def sweep(self, v: np.ndarray, rho: SpaceTimeDeviation, ks: int, kt: int) -> np.ndarray:
        """Steps over the time intervals ks, ..., kt - 1 of rho's grid, in order."""
        dt = rho.tgrid.dt
        for k in range(ks, kt):
            v = self.step(v, dt, _rho_mid(rho, k))
        return v

    def sweep_transpose(self, v: np.ndarray, rho: SpaceTimeDeviation, ks: int, kt: int,
                        out: np.ndarray | None = None) -> np.ndarray:
        """Transposed steps over the intervals kt - 1, ..., ks; row k of `out`
        (if given) receives the value at time node k."""
        dt = rho.tgrid.dt
        for k in range(kt - 1, ks - 1, -1):
            v = self.step_transpose(v, dt, _rho_mid(rho, k))
            if out is not None:
                out[k] = v
        return v


def _warmup_substeps(t0: float, t1: float):
    """Sub-step lengths covering [t0, t1] with step <= elapsed time."""
    steps = []
    t = t0
    while t < t1 - 1e-15 * t1:
        h = min(t, t1 - t)
        steps.append(h)
        t += h
    return steps


def _require_finite(v: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(v)):
        raise SolverInstabilityError(f"non-finite values in {where}")


def _check_slice(v: np.ndarray, step_label: str) -> tuple[np.ndarray, float]:
    """(v floored at POSITIVITY_FLOOR, max of v); raises on an unstable step."""
    # NaN and +-inf propagate through max and min, so the two reductions
    # also detect every non-finite entry
    m = v.max()
    lo = v.min()
    if not (np.isfinite(m) and np.isfinite(lo)):
        raise SolverInstabilityError(f"non-finite values after step {step_label}")
    if not m > 0:
        raise SolverInstabilityError(f"field collapsed to non-positive values at step {step_label}")
    if lo < -NEGATIVE_NOISE_TOL * m:
        raise SolverInstabilityError(f"negative values beyond noise level at step {step_label}")
    return np.maximum(v, POSITIVITY_FLOOR), m


@dataclass(frozen=True)
class ScaledSolution:
    """Delta-data solution stored as rows * exp(log_scale) to dodge overflow.

    Row j holds time node nodes[j] of tgrid; a march that keeps every node
    has nodes == arange(n_steps + 1).
    """

    tgrid: TimeGrid
    sgrid: SpaceGrid
    rows: np.ndarray
    log_scale: np.ndarray
    nodes: np.ndarray

    def _row(self, t: float) -> int:
        k = self.tgrid.index_of(t)
        j = int(np.searchsorted(self.nodes, k))
        if j == self.nodes.size or self.nodes[j] != k:
            raise ValueError(f"time {t} is not among the kept time nodes")
        return j

    def log_at(self, t: float, x: float) -> float:
        j = self._row(t)
        i = self.sgrid.index_of(x)
        return float(np.log(self.rows[j, i]) + self.log_scale[j])

    def value_at(self, t: float, x: float) -> float:
        """Z(t, x), computed as `field()` computes it."""
        j = self._row(t)
        i = self.sgrid.index_of(x)
        with np.errstate(over="raise"):
            return float(self.rows[j, i] * np.exp(self.log_scale[j]))

    def field(self) -> Field:
        if self.nodes.size != self.tgrid.n_steps + 1:
            raise ValueError("field() needs every time node; the march kept only some")
        with np.errstate(over="raise"):
            vals = self.rows * np.exp(self.log_scale)[:, None]
        return Field(self.tgrid, self.sgrid, vals, strictly_positive=True)


def _kept_nodes(keep, nt: int) -> np.ndarray:
    if keep is None:
        return np.arange(nt + 1)
    nodes = np.asarray(keep)
    if (nodes.ndim != 1 or nodes.size == 0 or nodes.dtype.kind not in "iu"
            or nodes[0] < 0 or nodes[-1] > nt or np.any(np.diff(nodes) <= 0)):
        raise ValueError(f"keep must list increasing time-node indices in [0, {nt}]")
    return nodes


def _march_delta(rho: SpaceTimeDeviation, cfg: SolverConfig, keep=None,
                 keep_warmup: bool = False):
    """Delta-data march that stores the rows of the time nodes `keep` (default all)."""
    tg, sg = rho.tgrid, rho.sgrid
    if tg.t_start != 0.0:
        raise ValueError("delta-data solves start at t = 0")
    t0 = cfg.delta_warmup
    dt = tg.dt
    if not t0 < dt:
        raise ValueError(f"delta_warmup {t0} must be smaller than dt {dt}")
    stepper = _Stepper(sg)
    x = sg.x
    nt = tg.n_steps

    nodes = _kept_nodes(keep, nt)
    slot = np.full(nt + 1, -1)
    slot[nodes] = np.arange(nodes.size)
    rows = np.empty((nodes.size, sg.n_points))
    log_scale = np.zeros(nodes.size)
    scale = 0.0

    def settle(k: int, v: np.ndarray, m: float) -> np.ndarray:
        """Renormalize node k's values if their max m is large, and keep the row."""
        nonlocal scale
        if m > RENORM_THRESHOLD:
            scale += np.log(m)
            v = v / m
        j = slot[k]
        if j >= 0:
            rows[j] = v
            log_scale[j] = scale
        return v

    rho0 = rho.values[0]
    base = heat_kernel(t0, x)
    # unit discrete mass even when sqrt(t0) is marginal against dx
    base = base / np.dot(sg.trapezoid_weights(), base)
    v, _ = _check_slice(base * np.exp(0.5 * t0 * (rho0 + rho0[sg.center_index])), "warmup")
    if slot[0] >= 0:
        rows[0] = v

    warm_steps = _warmup_substeps(t0, dt)
    warm_vals = [v]
    rho_mid = _rho_mid(rho, 0)
    for j, h in enumerate(warm_steps):
        v, m = _check_slice(stepper.step(v, h, rho_mid), f"warmup substep {j}")
        warm_vals.append(v)
    v = settle(1, v, m)

    step = stepper.interval_step(rho, dt)
    for k in range(1, nt):
        v, m = _check_slice(step(v, k), str(k + 1))
        v = settle(k + 1, v, m)
    sol = ScaledSolution(tg, sg, rows, log_scale, nodes)
    if keep_warmup:
        return sol, warm_vals, warm_steps
    return sol


def solve_delta_scaled(rho: SpaceTimeDeviation, cfg: SolverConfig | None = None,
                       keep=None) -> ScaledSolution:
    """Delta-data solve in scaled rows; `keep` lists the increasing time-node
    indices whose rows are stored (default: every node)."""
    cfg = cfg or SolverConfig()
    return _march_delta(rho, cfg, keep)


def solve_delta_at(rho: SpaceTimeDeviation, t: float, x: float,
                   cfg: SolverConfig | None = None) -> float:
    """Z(rho; t, x) from a delta at (0, 0), storing only the row of time t.

    Bitwise equal to `solve_delta(rho, cfg).at(t, x)`.
    """
    return solve_delta_scaled(rho, cfg, keep=[rho.tgrid.index_of(t)]).value_at(t, x)


def solve_delta(rho: SpaceTimeDeviation, cfg: SolverConfig | None = None) -> Field:
    """Solve dZ/dt = Z_xx/2 + rho Z from a Dirac delta at (0, 0)."""
    cfg = cfg or SolverConfig()
    if cfg.scheme == "chaos_series":
        return _chaos_field(rho, cfg)
    return _march_delta(rho, cfg).field()


def propagate(rho: SpaceTimeDeviation, s: float, t: float, f: Potential) -> Potential:
    """Evolve f from time s to time t under D/2 + rho; linear in f."""
    if not s < t:
        raise ValueError(f"propagate needs s < t, got s={s}, t={t}")
    tg = rho.tgrid
    ks, kt = tg.index_of(s), tg.index_of(t)
    if f.grid != rho.sgrid:
        raise ValueError("potential grid does not match deviation grid")
    v = f.values.copy()
    v[0] = 0.0
    v[-1] = 0.0
    v = _Stepper(rho.sgrid).sweep(v, rho, ks, kt)
    _require_finite(v, "propagation sweep")
    return Potential(rho.sgrid, v)


@dataclass(frozen=True)
class OperatorNormResult:
    value: float
    iterations: int
    converged: bool


def operator_norm(rho: SpaceTimeDeviation, s: float, t: float, iters: int = 60,
                  tolerance: float = 1e-8, seed: int = 7,
                  start: np.ndarray | None = None) -> OperatorNormResult:
    """Power-iteration estimate of the L2->L2 norm of the propagator s->t.

    Iterates v <- P*P v from a positive random start; the Rayleigh estimate
    sqrt(<Pv, Pv>/<v, v>) is nondecreasing up to convergence.  A custom
    start vector helps when the top of the singular spectrum is nearly flat
    (notably the plain heat semigroup on a wide box).
    """
    if iters < 10:
        raise ValueError("iters must be >= 10")
    tg = rho.tgrid
    ks, kt = tg.index_of(s), tg.index_of(t)
    if not ks < kt:
        raise ValueError("need s < t on the time grid")
    sg = rho.sgrid
    if start is not None:
        v = np.asarray(start, dtype=float).copy()
        if v.shape != (sg.n_points,):
            raise ValueError(f"start has shape {v.shape}; the grid needs ({sg.n_points},)")
        if not np.all(np.isfinite(v)):
            raise ValueError("start has non-finite entries")
    else:
        rng = np.random.Generator(np.random.Philox(seed))
        v = 1.0 + rng.random(sg.n_points)
    v[0] = 0.0
    v[-1] = 0.0
    if not np.any(v):
        raise ValueError("start is zero once the walls are pinned")
    stepper = _Stepper(sg)

    est = 0.0
    converged = False
    it = 0
    for it in range(1, iters + 1):
        w = stepper.sweep(v, rho, ks, kt)
        _require_finite(w, "power iteration sweep")
        new_est = np.sqrt(np.dot(w, w) / np.dot(v, v))
        v = stepper.sweep_transpose(w, rho, ks, kt)
        _require_finite(v, "power iteration sweep")
        v /= np.sqrt(np.dot(v, v))
        if it > 1 and abs(new_est - est) <= tolerance * max(new_est, 1e-300):
            est = new_est
            converged = True
            break
        est = new_est
    return OperatorNormResult(float(est), it, converged)


def adjoint_solve(rho: SpaceTimeDeviation, terminal: Potential, cfg: SolverConfig | None = None) -> Field:
    """Backward sweep A(s) = P(rho; s->T)* terminal for every time node.

    Mirrors the forward delta march step by step (warm-up sub-steps
    included), so <A(s), Z(s)> is constant in s to round-off.
    """
    cfg = cfg or SolverConfig()
    tg, sg = rho.tgrid, rho.sgrid
    if terminal.grid != sg:
        raise ValueError("terminal grid does not match deviation grid")
    stepper = _Stepper(sg)
    nt = tg.n_steps
    dt = tg.dt
    out = np.empty((nt + 1, sg.n_points))
    v = terminal.values.copy()
    v[0] = 0.0
    v[-1] = 0.0
    out[nt] = v
    v = stepper.sweep_transpose(v, rho, 1, nt, out=out)
    rho_mid = _rho_mid(rho, 0)
    for h in reversed(_warmup_substeps(cfg.delta_warmup, dt)):
        v = stepper.step_transpose(v, h, rho_mid)
    out[0] = v
    _require_finite(out, "adjoint sweep")
    return Field(tg, sg, out, strictly_positive=False)


def log_terminal_and_gradient(rho: SpaceTimeDeviation, cfg: SolverConfig | None = None):
    """(log Z(T, 0), exact partials of log Z(T, 0) wrt every rho node value).

    Differentiates the stepped scheme itself.  One step is M^{-1} N with M, N
    rational in the same symmetric operator, so they commute and

        d Z_T(x0) / d rho_mid_k(i) = (dt/2) (Z_k + Z_{k+1})(i) (M_k^{-1} a_{k+1})(i),

    with a the backward-propagated sensitivity; node partials follow from
    rho_mid_k = (rho_k + rho_{k+1})/2 plus the warm-up initial-data factor.
    Returned partials drive the rate optimizer's line search, which needs
    gradient/objective consistency to round-off.
    """
    cfg = cfg or SolverConfig()
    tg, sg = rho.tgrid, rho.sgrid
    sol, warm_vals, warm_steps = _march_delta(rho, cfg, keep_warmup=True)
    nt, dt = tg.n_steps, tg.dt
    i0 = sg.center_index
    rows, ls = sol.rows, sol.log_scale
    log_zt = float(np.log(rows[nt, i0]) + ls[nt])
    stepper = _Stepper(sg)

    # adjoint in scaled units: true adjoint times exp(ls_K); the exp(ls_k - ls_K)
    # factors are folded into the forward rows below.  Half of each interval's
    # sensitivity goes to each of its two end nodes.
    u = np.zeros(sg.n_points)
    u[i0] = 1.0 / rows[nt, i0]
    partials = np.zeros((nt + 1, sg.n_points))
    rel_scale = np.exp(ls - ls[nt])
    # z_hi holds the scaled row k + 1; each step scales only row k
    z_hi = rows[nt] * rel_scale[nt]
    z_lo = np.empty(sg.n_points)
    for k in range(nt - 1, 0, -1):
        diag = stepper.kin_diag + _rho_mid(rho, k)
        half = stepper.solve_m(u, dt, diag)
        np.multiply(rows[k], rel_scale[k], out=z_lo)
        g = z_hi
        g += z_lo
        g *= 0.25 * dt
        g *= half
        partials[k] += g
        partials[k + 1] += g
        z_hi, z_lo = z_lo, g
        u = stepper.apply_n(half, dt, diag)

    # first interval: replay the warm-up sub-steps (rows 0..1 are unscaled)
    diag = stepper.kin_diag + _rho_mid(rho, 0)
    scale0 = np.exp(-ls[nt])
    g0 = np.zeros(sg.n_points)
    for q in range(len(warm_steps) - 1, -1, -1):
        h = warm_steps[q]
        half = stepper.solve_m(u, h, diag)
        g0 += 0.5 * h * (warm_vals[q] + warm_vals[q + 1]) * scale0 * half
        u = stepper.apply_n(half, h, diag)
    partials[0] += 0.5 * g0
    partials[1] += 0.5 * g0

    # warm-up tilt Z_0 = p(t0, .) exp((t0/2)(rho_0 + rho_0(center)))
    t0 = cfg.delta_warmup
    w0 = warm_vals[0] * u * scale0
    partials[0] += 0.5 * t0 * w0
    partials[0, i0] += 0.5 * t0 * float(w0.sum())
    _require_finite(partials, "gradient sweep")
    return log_zt, partials


# --- kernel series -----------------------------------------------------------

def _chaos_orders(rho: SpaceTimeDeviation, order: int):
    """Space-time rows of each series term 0..order.

    Term n is accumulated by propagating the running time integral of the
    source rho * (term n-1) with single CN heat steps; the time integral is
    the trapezoid rule.  The n = 1 source at time 0 is rho(0,0) times the
    initial delta, whose heat flow is added analytically.
    """
    tg, sg = rho.tgrid, rho.sgrid
    nt = tg.n_steps
    dt = tg.dt
    x = sg.x
    stepper = _Stepper(sg)
    zero_pot = np.zeros(sg.n_points)

    z0 = np.zeros((nt + 1, sg.n_points))
    for k in range(1, nt + 1):
        z0[k] = heat_kernel(tg.times[k], x)
    terms = [z0]
    for n in range(1, order + 1):
        prev = terms[-1]
        src = rho.values * prev
        if n == 1:
            src = src.copy()
            src[0] = 0.0  # delta-time source handled analytically below
        acc = np.zeros(sg.n_points)
        zn = np.zeros((nt + 1, sg.n_points))
        for k in range(nt):
            # running trapezoid: heat-propagate the lower half weight of the
            # source at t_k, then add the upper half weight at t_{k+1}
            acc = stepper.step(acc + 0.5 * dt * src[k], dt, zero_pot) + 0.5 * dt * src[k + 1]
            zn[k + 1] = acc
        if n == 1:
            w = rho.values[0, sg.center_index]
            for k in range(1, nt + 1):
                zn[k] = zn[k] + 0.5 * dt * w * heat_kernel(tg.times[k], x)
        terms.append(zn)
    return terms


def chaos_series_point(rho: SpaceTimeDeviation, t: float, x: float, order: int) -> float:
    """Partial sum of the kernel series for Z(rho; t, x), truncated at `order`."""
    tg, sg = rho.tgrid, rho.sgrid
    if order == 0:
        return heat_kernel(t, x)
    k = tg.index_of(t)
    i = sg.index_of(x)
    terms = _chaos_orders(rho, order)
    total = heat_kernel(t, x)  # analytic zeroth term
    for zn in terms[1:]:
        total += zn[k, i]
    return float(total)


def _chaos_field(rho: SpaceTimeDeviation, cfg: SolverConfig) -> Field:
    tg, sg = rho.tgrid, rho.sgrid
    terms = _chaos_orders(rho, cfg.chaos_order)
    vals = np.zeros_like(terms[0])
    for zn in terms:
        vals += zn
    for k in range(1, tg.n_steps + 1):
        vals[k], _ = _check_slice(vals[k], f"chaos sum row {k}")
    vals[0] = np.maximum(heat_kernel(cfg.delta_warmup, sg.x), POSITIVITY_FLOOR)
    return Field(tg, sg, vals, strictly_positive=True)
