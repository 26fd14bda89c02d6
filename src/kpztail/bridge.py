"""Brownian-bridge Monte Carlo, first-hitting asymptotics, and the limit shape.

The exponential functional E_{x->0}[exp(int phi(B(s)) ds)] is estimated by
streaming path blocks through the standard sequential bridge construction;
weights are accumulated with running max-shifted log-sum-exp so deep-tail
runs never overflow.  Each block draws from its own counter-offset Philox
stream, so the estimate is reproducible and block-parallel in principle.

First hitting times of zero use the exact within-step crossing probability
exp(-2 a b / ds) of the conditional bridge between consecutive samples,
which removes the systematic late-detection bias of naive sign checks.

The limit shape h_star(t, x) equals -|x| + t/2 inside the cone |x| <= t and
-x^2/(2t) outside; shape_profile measures the gap between the deterministic
tilted-height field and h_star over a window [delta, 2] x [-1/delta, 1/delta].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .grids import (
    Field,
    Potential,
    SpaceGrid,
    SpaceTimeDeviation,
    TimeGrid,
    format_value,
    heat_kernel,
)
from .solver import SolverConfig, solve_delta_scaled

_BLOCK_STRIDE = 2**40  # Philox counter offset between path blocks


class ConfigurationError(RuntimeError):
    pass


@dataclass(frozen=True)
class BridgeConfig:
    n_paths: int = 100_000
    n_time_steps: int = 0  # 0 -> 20 steps per unit duration
    seed: int = 20220920
    block_size: int = 50_000

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.n_time_steps not in (0,) and self.n_time_steps < 2:
            raise ValueError("n_time_steps must be >= 2 (or 0 for automatic)")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")

    def steps_for(self, duration: float) -> int:
        if self.n_time_steps:
            return self.n_time_steps
        return max(2, int(math.ceil(20.0 * duration)))


def _block_rng(cfg: BridgeConfig, block_index: int) -> np.random.Generator:
    bg = np.random.Philox(key=cfg.seed)
    bg.advance(block_index * _BLOCK_STRIDE)
    return np.random.Generator(bg)


def _iter_blocks(cfg: BridgeConfig):
    done = 0
    index = 0
    while done < cfg.n_paths:
        size = min(cfg.block_size, cfg.n_paths - done)
        yield index, size
        done += size
        index += 1


def sample_bridge(start: float, end: float, duration: float, cfg: BridgeConfig) -> np.ndarray:
    """Paths of a Brownian bridge start->end, shape (n_paths, n_steps + 1).

    Sequential conditional construction: given value b with remaining time r,
    the next sample has mean b + (end - b) ds / r and variance ds (r - ds)/r.
    Endpoints are pinned exactly.
    """
    if not duration > 0:
        raise ValueError("duration must be positive")
    n_steps = cfg.steps_for(duration)
    if cfg.n_paths * (n_steps + 1) > 6e7:
        raise MemoryError("path matrix too large; lower n_paths or stream blocks instead")
    ds = duration / n_steps
    out = np.empty((cfg.n_paths, n_steps + 1))
    row = 0
    for block_index, size in _iter_blocks(cfg):
        rng = _block_rng(cfg, block_index)
        b = np.full(size, float(start))
        out[row:row + size, 0] = b
        for k in range(n_steps):
            r = duration - k * ds
            mean = b + (end - b) * (ds / r)
            var = max(ds * (r - ds) / r, 0.0)
            b = mean + np.sqrt(var) * rng.standard_normal(size)
            if k == n_steps - 1:
                b = np.full(size, float(end))
            out[row:row + size, k + 1] = b
        row += size
    return out


def _potential_on_path(phi: Potential, values: np.ndarray) -> np.ndarray:
    # uniform-grid linear interpolation with zero extension; hot path for MC
    grid = phi.grid
    pos = (values + grid.half_width) / grid.dx
    idx = np.floor(pos).astype(np.int64)
    frac = pos - idx
    inside = (idx >= 0) & (idx < grid.n_points - 1)
    idx_safe = np.clip(idx, 0, grid.n_points - 2)
    vals = phi.values[idx_safe] * (1.0 - frac) + phi.values[idx_safe + 1] * frac
    return np.where(inside, vals, 0.0)


def _stream_weights(phi: Potential, duration: float, start: float, end: float,
                    cfg: BridgeConfig):
    """Yield per-block arrays of path integrals int_0^duration phi(bridge)."""
    n_steps = cfg.steps_for(duration)
    ds = duration / n_steps
    for block_index, size in _iter_blocks(cfg):
        rng = _block_rng(cfg, block_index)
        b = np.full(size, float(start))
        integ = 0.5 * ds * _potential_on_path(phi, b)
        for k in range(n_steps):
            r = duration - k * ds
            mean = b + (end - b) * (ds / r)
            var = max(ds * (r - ds) / r, 0.0)
            b = mean + np.sqrt(var) * rng.standard_normal(size)
            if k == n_steps - 1:
                b = np.full(size, float(end))
            w = ds if k < n_steps - 1 else 0.5 * ds
            integ += w * _potential_on_path(phi, b)
        yield integ


def fk_estimate(phi: Potential, duration: float, start: float, end: float,
                cfg: BridgeConfig | None = None) -> tuple[float, float]:
    """Monte Carlo value of the tilted kernel: E[exp(int phi)] p(duration, end-start).

    Returns (mean, standard error); the path integral uses the trapezoid
    rule along each sampled path.
    """
    cfg = cfg or BridgeConfig()
    if not duration > 0:
        raise ValueError("duration must be positive")
    total = 0.0
    total_sq = 0.0
    n = 0
    for integ in _stream_weights(phi, duration, start, end, cfg):
        w = np.exp(integ)
        total += float(w.sum())
        total_sq += float((w * w).sum())
        n += w.size
    p = heat_kernel(duration, end - start)
    mean_w = total / n
    var_w = max(total_sq / n - mean_w**2, 0.0)
    return p * mean_w, p * math.sqrt(var_w / n)


def growth_rate(phi: Potential, lam: float, x: float, cfg: BridgeConfig | None = None,
                return_diagnostics: bool = False):
    """Exponential growth rate of the bridge functional at tail depth lam.

    The bridge runs from x to 0 over the conditioning window [0, 2 lam] and
    the rate is log E[exp(int phi)] per unit bridge duration, which tends to
    the ground-state value F(phi) as lam grows.  Accumulation is streaming
    max-shifted log-sum-exp, so no intermediate overflows for desk-scale lam.
    """
    cfg = cfg or BridgeConfig()
    if not lam >= 4:
        raise ValueError("growth_rate is calibrated for lam >= 4")
    if abs(x) > lam**0.25 + 1e-12:
        raise ValueError(f"|x| = {abs(x)} exceeds the mesoscopic window lam^(1/4)")
    duration = 2.0 * lam
    shift = -math.inf
    acc = 0.0
    acc2_shift = -math.inf
    acc2 = 0.0
    n = 0
    for integ in _stream_weights(phi, duration, x, 0.0, cfg):
        m = float(integ.max())
        if m > shift:
            acc *= math.exp(shift - m)
            shift = m
        acc += float(np.exp(integ - shift).sum())
        m2 = 2.0 * m
        if m2 > acc2_shift:
            acc2 *= math.exp(acc2_shift - m2)
            acc2_shift = m2
        acc2 += float(np.exp(2.0 * integ - acc2_shift).sum())
        n += integ.size
    log_mean = shift + math.log(acc) - math.log(n)
    rate = log_mean / duration
    if return_diagnostics:
        log_sum = shift + math.log(acc)
        log_sum_sq = acc2_shift + math.log(acc2)
        ess = math.exp(2.0 * log_sum - log_sum_sq)
        return rate, {"log_mean": log_mean, "ess": ess, "n_paths": n}
    return rate


# --- first hitting times ------------------------------------------------------

def hitting_density(s, t: float, x: float, lam: float):
    """Density at s of the first zero-hitting time of the bridge lam*x -> 0 on [0, lam*t].

    Closed form sqrt(lam^3 t x^2) / sqrt(2 pi s^3 (lam t - s)) *
    exp(-((lam t - s)/(2 lam t s)) (lam x)^2); zero outside (0, lam t).
    """
    if not (t > 0 and lam > 0):
        raise ValueError("need t > 0 and lam > 0")
    if x == 0:
        raise ValueError("hitting density is degenerate at x = 0")
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > 0) & (s < lam * t)
    si = s[inside]
    pref = np.sqrt(lam**3 * t * x**2) / np.sqrt(2.0 * np.pi * si**3 * (lam * t - si))
    out[inside] = pref * np.exp(-((lam * t - si) / (2.0 * lam * t * si)) * (lam * x) ** 2)
    return float(out) if out.ndim == 0 else out


def first_hitting_times(start: float, duration: float, cfg: BridgeConfig | None = None) -> np.ndarray:
    """First zero-hitting times of bridges start -> 0, one entry per path.

    Between consecutive samples a, b > 0 the bridge crosses zero with
    probability exp(-2 a b / ds); crossings are resolved by a Bernoulli draw
    and placed at the linear-interpolation point inside the step.
    """
    cfg = cfg or BridgeConfig()
    start = abs(float(start))
    if start == 0:
        raise ValueError("start must be away from zero")
    n_steps = cfg.steps_for(duration)
    ds = duration / n_steps
    out = np.empty(cfg.n_paths)
    row = 0
    for block_index, size in _iter_blocks(cfg):
        rng = _block_rng(cfg, block_index)
        b = np.full(size, start)
        hit = np.full(size, duration)
        alive = np.ones(size, dtype=bool)
        for k in range(n_steps):
            r = duration - k * ds
            mean = b + (0.0 - b) * (ds / r)
            var = max(ds * (r - ds) / r, 0.0)
            nb = mean + np.sqrt(var) * rng.standard_normal(size)
            if k == n_steps - 1:
                nb = np.zeros(size)
            u = rng.random(size)
            t_here = k * ds
            touched = alive & (nb <= 0.0)
            if touched.any():
                frac = b[touched] / (b[touched] - nb[touched])
                hit[touched] = t_here + ds * np.clip(frac, 0.0, 1.0)
                alive[touched] = False
            positive = alive & (nb > 0.0)
            if positive.any():
                p_cross = np.exp(-2.0 * b[positive] * nb[positive] / ds)
                crossed = u[positive] < p_cross
                if crossed.any():
                    idx = np.flatnonzero(positive)[crossed]
                    frac = b[idx] / (b[idx] + nb[idx])
                    hit[idx] = t_here + ds * frac
                    alive[idx] = False
            b = np.maximum(nb, 0.0)
            b[~alive] = 0.0
        out[row:row + size] = hit
        row += size
    return out


# --- Laplace asymptotics of the hitting-time transform ------------------------

def laplace_v(beta: float, s: float, t: float, x: float) -> float:
    """Exponent V_beta(s, t, x) = -beta t s - ((1 - s)/(2 s t)) x^2 on s in (0, 1]."""
    if not s > 0:
        raise ValueError("laplace_v needs s > 0")
    if s > 1:
        raise ValueError("laplace_v is defined for s <= 1")
    if not (beta > 0 and t > 0):
        raise ValueError("need beta > 0 and t > 0")
    return float(-beta * t * s - ((1.0 - s) / (2.0 * s * t)) * x * x)


def laplace_v_argmax(beta: float, t: float, x: float) -> float:
    """Maximizing s of V_beta(., t, x): min(x / (sqrt(2 beta) t), 1)."""
    return min(abs(x) / (math.sqrt(2.0 * beta) * t), 1.0)


def laplace_v_curvature(beta: float, s: float, t: float, x: float) -> float:
    """Second s-derivative of V_beta: -x^2 / (t s^3), concave at the interior maximum."""
    if not s > 0:
        raise ValueError("curvature needs s > 0")
    return float(-(x * x) / (t * s**3))


def laplace_logmgf(beta: float, t: float, x: float) -> float:
    """Deep-tail rate of E[exp(-beta T)]: V_beta at its maximizing s.

    For beta = 1/2 this is x^2/(2t) - x on 0 <= x <= t and -t/2 beyond.
    """
    if not (beta > 0 and t > 0):
        raise ValueError("need beta > 0 and t > 0")
    x = abs(x)
    if x == 0.0:
        return 0.0
    return laplace_v(beta, laplace_v_argmax(beta, t, x), t, x)


def hitting_mgf_quadrature(beta: float, t: float, x: float, lam: float) -> float:
    """lam^-1 log E[exp(-beta T(lam t, lam x))] by adaptive quadrature.

    Evaluates the exact finite-lam integral
    int_0^1 sqrt(lam x^2) / sqrt(2 pi t s^3 (1 - s)) exp(lam V_beta(s, t, x)) ds
    with the substitution s = 1 - u^2 taming the endpoint and a max shift
    taming the exponential.
    """
    x = abs(x)
    if x == 0.0:
        return 0.0
    v_star = laplace_logmgf(beta, t, x)

    def integrand(u):
        s = 1.0 - u * u
        if s <= 0.0 or s >= 1.0:
            return 0.0
        v = laplace_v(beta, s, t, x)
        # ds = 2u du cancels the 1/sqrt(1-s) = 1/u endpoint singularity
        pref = 2.0 * math.sqrt(lam * x * x) / math.sqrt(2.0 * math.pi * t * s**3)
        return pref * math.exp(lam * (v - v_star))

    val, _ = quad(integrand, 0.0, 1.0, limit=200)
    return float(v_star + math.log(val) / lam)


def numeric_v_argmax(beta: float, t: float, x: float) -> float:
    """Numerical maximizer of V_beta over (0, 1] (oracle for the closed form)."""
    res = minimize_scalar(lambda s: -laplace_v(beta, s, t, x),
                          bounds=(1e-9, 1.0), method="bounded",
                          options={"xatol": 1e-10})
    return float(res.x)


# --- the limit shape -----------------------------------------------------------

def h_star(t: float, x: float) -> float:
    """Limit shape: -|x| + t/2 inside |x| <= t, else -x^2/(2t)."""
    if not t > 0:
        raise ValueError("h_star needs t > 0")
    ax = abs(x)
    if ax <= t:
        return float(-ax + 0.5 * t)
    return float(-(x * x) / (2.0 * t))


@dataclass(frozen=True)
class ShapeOptions:
    dx: float = 0.05
    dt: float = 0.01
    t_step: float = 0.05
    x_step: float = 0.05
    half_width: float | None = None  # None -> automatic lam/delta + 10 sqrt(2 lam)
    delta_warmup: float = 1e-3
    mc_t_count: int = 4
    mc_x_count: int = 9
    mc_paths: int = 50_000
    mc_seed: int = 31415


@dataclass(frozen=True)
class ShapeProfile:
    lam: float
    delta: float
    backend: str
    t_values: np.ndarray = field(repr=False)
    x_values: np.ndarray = field(repr=False)
    h_values: np.ndarray = field(repr=False)
    h_star_values: np.ndarray = field(repr=False)

    @property
    def sup_error(self) -> float:
        return float(np.max(np.abs(self.h_values - self.h_star_values)))

    def to_csv(self) -> str:
        lines = ["t,x,h_lambda,h_star,abs_err"]
        for i, t in enumerate(self.t_values):
            for j, x in enumerate(self.x_values):
                h = self.h_values[i, j]
                hs = self.h_star_values[i, j]
                lines.append(",".join(format_value(v) for v in (t, x, h, hs, abs(h - hs))))
        return "\n".join(lines) + "\n"


def _required_half_width(lam: float, delta: float) -> float:
    return lam / delta + 10.0 * math.sqrt(2.0 * lam)


def shape_profile(lam: float, delta: float, backend: str = "pde",
                  opts: ShapeOptions | None = None) -> ShapeProfile:
    """Tilted-height field h_lam(t, x) for the sech^2 profile vs the limit shape.

    pde backend: one forward solve on [0, 2 lam] x [-L, L]; mc backend:
    log-space bridge Monte Carlo on a coarse point set.
    """
    opts = opts or ShapeOptions()
    if not lam >= 4:
        raise ValueError("shape_profile is calibrated for lam >= 4")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if backend == "pde":
        return _shape_profile_pde(lam, delta, opts)
    if backend == "mc":
        return _shape_profile_mc(lam, delta, opts)
    raise ValueError(f"unknown backend {backend!r}")


def _shape_profile_pde(lam: float, delta: float, opts: ShapeOptions) -> ShapeProfile:
    need = _required_half_width(lam, delta)
    half_width = opts.half_width if opts.half_width is not None else need
    if half_width < need:
        raise ConfigurationError(
            f"half_width {half_width} too small for lam={lam}, delta={delta}; need >= {need:.1f}"
        )
    n_half = int(math.ceil(half_width / opts.dx))
    sgrid = SpaceGrid(n_half * opts.dx, 2 * n_half + 1)
    t_end = 2.0 * lam
    tgrid = TimeGrid(0.0, t_end, int(round(t_end / opts.dt)))
    x = sgrid.x
    rho = SpaceTimeDeviation(
        tgrid, sgrid, np.tile(1.0 / np.cosh(x) ** 2, (tgrid.n_steps + 1, 1))
    )
    sol = solve_delta_scaled(rho, SolverConfig(delta_warmup=opts.delta_warmup))

    stride_t = max(1, int(round(opts.t_step * lam / tgrid.dt)))
    k_lo = int(math.ceil(lam * delta / tgrid.dt - 1e-9))
    k_hi = tgrid.n_steps
    k_idx = np.arange(k_lo, k_hi + 1, stride_t)
    stride_x = max(1, int(round(opts.x_step * lam / sgrid.dx)))
    i0 = sgrid.center_index
    reach = int(math.floor((lam / delta) / (stride_x * sgrid.dx)))
    i_idx = i0 + stride_x * np.arange(-reach, reach + 1)

    t_vals = tgrid.times[k_idx] / lam
    x_vals = x[i_idx] / lam
    log_rows = np.log(sol.rows[np.ix_(k_idx, i_idx)]) + sol.log_scale[k_idx][:, None]
    h = (0.5 * math.log(lam) + log_rows) / lam
    hs = np.array([[h_star(t, xv) for xv in x_vals] for t in t_vals])
    return ShapeProfile(lam, delta, "pde", t_vals, x_vals, h, hs)


def _shape_profile_mc(lam: float, delta: float, opts: ShapeOptions) -> ShapeProfile:
    sgrid = SpaceGrid(20.0, 801)
    phi = Potential(sgrid, 1.0 / np.cosh(sgrid.x) ** 2)
    t_vals = np.linspace(delta, 2.0, opts.mc_t_count)
    x_vals = np.linspace(-1.0 / delta, 1.0 / delta, opts.mc_x_count)
    h = np.empty((t_vals.size, x_vals.size))
    for i, t in enumerate(t_vals):
        duration = lam * t
        for j, xv in enumerate(x_vals):
            cfg = BridgeConfig(n_paths=opts.mc_paths,
                               seed=opts.mc_seed + 1000 * i + j)
            shift = -math.inf
            acc = 0.0
            n = 0
            for integ in _stream_weights(phi, duration, lam * xv, 0.0, cfg):
                m = float(integ.max())
                if m > shift:
                    acc *= math.exp(shift - m)
                    shift = m
                acc += float(np.exp(integ - shift).sum())
                n += integ.size
            log_e = shift + math.log(acc) - math.log(n)
            log_p = math.log(heat_kernel(duration, lam * xv))
            h[i, j] = (0.5 * math.log(lam) + log_e + log_p) / lam
    hs = np.array([[h_star(t, xv) for xv in x_vals] for t in t_vals])
    return ShapeProfile(lam, delta, "mc", t_vals, x_vals, h, hs)
