"""Brownian-bridge Monte Carlo, first-hitting asymptotics, and the limit shape.

The exponential functional E_{x->0}[exp(int phi(B(s)) ds)] is estimated by
streaming path blocks through the standard sequential bridge construction.
One reduction, `_path_weights`, integrates phi along every path and
accumulates the weights exp(int phi) as running max-shifted log-sum-exps of
their first and second moments (`_LogSumExp`), so deep-tail runs never
overflow; `fk_estimate`, `growth_rate` and the mc limit shape all read
their estimates from it.  Each block draws from its own counter-offset
Philox stream, so the estimate is reproducible and block-parallel in
principle.

Every Monte Carlo path comes from one step kernel, `_bridge_steps`, which
advances a whole block of BLOCK_SIZE paths in place; `_path_weights` and
`first_hitting_times` only add their own per-step work.  The Philox normal
draws are the floor of the cost; the rest is whole-block array operations on
buffers that are reused from step to step, since splitting a block into
smaller chunks made it slower.  Each step draws one full block, so the draws,
and with them every output, do not depend on how the arithmetic is
organised.  The kernel runs on one thread: worker threads over whole blocks
would cut wall time but add CPU time.  The measurements are in the CHANGES.md
entry "One in-place bridge-step kernel for all Monte Carlo paths" (its ten
benchmark pairs were not kept as a BENCH file) and, for threads, in ROADMAP
item 8.

First hitting times of zero use the exact within-step crossing probability
exp(-2 a b / ds) of the conditional bridge between consecutive samples,
which removes the systematic late-detection bias of naive sign checks.

The limit shape h_star(t, x) equals -|x| + t/2 inside the cone |x| <= t and
-x^2/(2t) outside; shape_profile measures the gap between the deterministic
tilted-height field and h_star over a window [delta, 2] x [-1/delta, 1/delta].
The pde backend's problem is even in x (a time-constant sech^2 potential and a
delta at x = 0), so it is marched on the half line x >= 0 (`grids.HalfLine`,
the solver's reflecting centre row) and a column x < 0 reads its mirror node.
This is exact, not an approximation: a full-line CN step maps even vectors to
even vectors, and on them it is the reflected step, so the two marches differ
only in the order of the factorization's round-off (at most 1e-14 in h on the
grids of the tests).  The half line has (n + 1)/2 of the n nodes, and the
profile is exactly even in x.

A limit-shape grid coarser than MAX_SHAPE_DX in space or MAX_SHAPE_DT in
time raises ValueError.  Work is capped before it starts: a Monte Carlo call
of more than BRIDGE_PATH_STEP_BUDGET path-steps or more than MAX_BRIDGE_STEPS
time steps (`BridgeConfig.steps_for`), a `first_hitting_times` call of more
than MAX_HITTING_PATHS paths, an mc-backend limit shape whose calls add up
to more than BRIDGE_PATH_STEP_BUDGET, and a limit-shape march of more than
SHAPE_NODE_BUDGET half-line space-time nodes raise ValueError.  The
Monte Carlo limits raise its subclass BridgeLimitError, which the CLI
prefixes with the flags that set the work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import (
    HalfLine,
    Potential,
    SpaceGrid,
    SpaceTimeDeviation,
    heat_kernel,
    standard_time_grid,
)
from .solver import DELTA_WARMUP, solve_delta_scaled
from .spectral import rho_star

_BLOCK_STRIDE = 2**40  # Philox counter offset between path blocks
BLOCK_SIZE = 50_000  # paths per block; every seeded output depends on it
SHAPE_T_STEP = 0.05  # limit-shape profile spacing in scaled time, in whole grid steps
SHAPE_X_STEP = 0.05  # and in scaled position, likewise
# path-steps (paths x time steps) of one Monte Carlo call; the full criterion 8
# run has 12M x 640 = 7.7e9, about 4 minutes at 3e7 path-steps/s
BRIDGE_PATH_STEP_BUDGET = 10**10
# time steps of one Monte Carlo call: a path costs about 18 us per step when the
# Python step loop dominates, so 1e5 steps take about 2 s even on one path; the
# largest count in use is 6000 (the mc limit shape at lam = 150)
MAX_BRIDGE_STEPS = 10**5
# paths of one `first_hitting_times` call, whose result holds 8 bytes per path;
# the full criterion 8 run has 1e5
MAX_HITTING_PATHS = 10**7
# half-line space-time nodes of one limit-shape march; lam = 32 at dx = 0.05,
# dt = 0.01 has 2881 x 6401 = 1.8e7
SHAPE_NODE_BUDGET = 10**8
# coarsest limit-shape steps: at lam = 8, dx = 0.5 gives sup|h - h*| = 0.62 and
# dt = 0.2 gives 0.33; (dx, dt) = (0.1, 0.05) gives 0.13, 0.087 and 0.083 at
# lam = 8, 16 and 32, within criterion 7's tolerances
MAX_SHAPE_DX = 0.1
MAX_SHAPE_DT = 0.05


class BridgeLimitError(ValueError):
    """A Monte Carlo request over BRIDGE_PATH_STEP_BUDGET, MAX_BRIDGE_STEPS or
    MAX_HITTING_PATHS; the CLI prefixes it with the flags that set the work."""


@dataclass(frozen=True)
class BridgeConfig:
    n_paths: int = 100_000
    n_time_steps: int = 0  # 0 -> 20 steps per unit duration
    seed: int = 20220920

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.n_time_steps not in (0,) and self.n_time_steps < 2:
            raise ValueError("n_time_steps must be >= 2 (or 0 for automatic)")

    def steps_for(self, duration: float) -> int:
        """Time steps over `duration`; raises ValueError unless it is positive and
        finite, and BridgeLimitError unless n_paths x steps is at most
        BRIDGE_PATH_STEP_BUDGET and steps is at most MAX_BRIDGE_STEPS."""
        if not 0 < duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {duration}")
        # capped just past the budget, so that a huge duration still converts
        steps = self.n_time_steps or max(
            2, math.ceil(min(20.0 * duration, BRIDGE_PATH_STEP_BUDGET + 1.0)))
        if self.n_paths * steps > BRIDGE_PATH_STEP_BUDGET:
            raise BridgeLimitError(f"{self.n_paths} paths over duration {duration:g} take more "
                                   f"than the bridge budget of {BRIDGE_PATH_STEP_BUDGET:.3g} "
                                   "path-steps")
        if steps > MAX_BRIDGE_STEPS:
            raise BridgeLimitError(f"{steps} time steps over duration {duration:g} exceed the "
                                   f"bridge limit of {MAX_BRIDGE_STEPS:.3g} steps per path")
        return steps


def _block_rng(cfg: BridgeConfig, block_index: int) -> np.random.Generator:
    bg = np.random.Philox(key=cfg.seed)
    bg.advance(block_index * _BLOCK_STRIDE)
    return np.random.Generator(bg)


def _iter_blocks(cfg: BridgeConfig):
    done = 0
    index = 0
    while done < cfg.n_paths:
        size = min(BLOCK_SIZE, cfg.n_paths - done)
        yield index, size
        done += size
        index += 1


def _bridge_steps(rng: np.random.Generator, start: float, end: float, duration: float,
                  n_steps: int, size: int):
    """The one bridge-step kernel: advance a block of `size` paths start->end.

    Yields (k, prev, new) once per step: `prev` holds the block at time k ds
    and `new` at (k + 1) ds.  Given value b with remaining time r, the next
    sample is b + (end - b) ds / r + sqrt(ds (r - ds) / r) z with z drawn from
    `rng` into a reused buffer; the last step is pinned to `end` after its
    normals are drawn, so the draw order never depends on the step.  Both
    arrays are buffers that the next step overwrites.  A consumer may rewrite
    `new` in place before resuming; the next step starts from what it holds.
    """
    ds = duration / n_steps
    prev = np.full(size, float(start))
    new = np.empty(size)
    z = np.empty(size)
    for k in range(n_steps):
        rng.standard_normal(out=z)
        if k == n_steps - 1:
            new.fill(end)
        else:
            r = duration - k * ds
            var = max(ds * (r - ds) / r, 0.0)
            np.subtract(end, prev, out=new)
            new *= ds / r
            new += prev
            z *= math.sqrt(var)
            new += z
        yield k, prev, new
        prev, new = new, prev


class _PotentialOnPath:
    """phi at path values by uniform-grid linear interpolation, zero outside the grid.

    The hot path of the Monte Carlo.  Node i = floor(pos) with fraction
    f = pos - i gives p[i] (1 - f) + p[i + 1] f for i in [0, n - 2] and
    exactly 0 elsewhere: the tables hold p[i] and p[i + 1] at i + 1 with zero
    rows at both ends, and a clipped `take` sends every outside node to one
    of them.  All work is done in buffers allocated once for the largest
    block; the returned array is one of them and is overwritten by the next
    call.
    """

    def __init__(self, phi: Potential, size: int):
        grid = phi.grid
        self.half_width = grid.half_width
        self.dx = grid.dx
        zero = np.zeros(1)
        self.left = np.concatenate([zero, phi.values[:-1], zero])
        self.right = np.concatenate([zero, phi.values[1:], zero])
        self.pos = np.empty(size)
        self.index = np.empty(size, dtype=np.intp)
        self.lo = np.empty(size)
        self.hi = np.empty(size)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        size = values.size
        pos, index, lo, hi = self.pos[:size], self.index[:size], self.lo[:size], self.hi[:size]
        np.add(values, self.half_width, out=pos)
        pos /= self.dx
        np.floor(pos, out=lo)
        pos -= lo  # the fraction f
        np.copyto(index, lo, casting="unsafe")
        index += 1
        np.take(self.left, index, out=lo, mode="clip")
        np.take(self.right, index, out=hi, mode="clip")
        hi *= pos
        np.subtract(1.0, pos, out=pos)
        lo *= pos
        lo += hi
        return lo


class _LogSumExp:
    """Streaming log of sum exp(v) and of sum exp(2 v), each with a running max shift."""

    def __init__(self):
        self.shift = -math.inf
        self.acc = 0.0
        self.shift_sq = -math.inf
        self.acc_sq = 0.0
        self.n = 0

    def add(self, v: np.ndarray) -> None:
        m = float(v.max())
        if m > self.shift:
            self.acc *= math.exp(self.shift - m)
            self.shift = m
        self.acc += float(np.exp(v - self.shift).sum())
        m2 = 2.0 * m
        if m2 > self.shift_sq:
            self.acc_sq *= math.exp(self.shift_sq - m2)
            self.shift_sq = m2
        self.acc_sq += float(np.exp(2.0 * v - self.shift_sq).sum())
        self.n += v.size

    @property
    def log_mean(self) -> float:
        return self.shift + math.log(self.acc) - math.log(self.n)

    @property
    def log_mean_sq(self) -> float:
        """log of the mean of exp(2 v)."""
        return self.shift_sq + math.log(self.acc_sq) - math.log(self.n)

    @property
    def ess(self) -> float:
        """Effective sample size (sum w)^2 / sum w^2 of the weights w = exp(v)."""
        log_sum = self.shift + math.log(self.acc)
        log_sum_sq = self.shift_sq + math.log(self.acc_sq)
        return math.exp(2.0 * log_sum - log_sum_sq)


def _path_weights(phi: Potential, duration: float, start: float, end: float,
                  cfg: BridgeConfig) -> _LogSumExp:
    """The `_LogSumExp` of the path integrals int_0^duration phi(bridge) of
    cfg.n_paths bridges start -> end, each by the trapezoid rule along its path."""
    n_steps = cfg.steps_for(duration)
    ds = duration / n_steps
    potential = _PotentialOnPath(phi, min(BLOCK_SIZE, cfg.n_paths))
    weights = _LogSumExp()
    for block_index, size in _iter_blocks(cfg):
        integ = 0.5 * ds * potential(np.full(size, float(start)))
        steps = _bridge_steps(_block_rng(cfg, block_index), start, end, duration, n_steps, size)
        for k, _, b in steps:
            v = potential(b)
            v *= ds if k < n_steps - 1 else 0.5 * ds
            integ += v
        weights.add(integ)
    return weights


def fk_estimate(phi: Potential, duration: float, start: float, end: float,
                cfg: BridgeConfig | None = None) -> tuple[float, float]:
    """Monte Carlo value of the tilted kernel: E[exp(int phi)] p(duration, end-start).

    Returns (mean, standard error); the path integral uses the trapezoid
    rule along each sampled path.
    """
    cfg = cfg or BridgeConfig()
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError(f"bridge end points must be finite, got {start} and {end}")
    weights = _path_weights(phi, duration, start, end, cfg)
    try:
        mean_w = math.exp(weights.log_mean)
        var_w = max(math.exp(weights.log_mean_sq) - mean_w**2, 0.0)
    except OverflowError:
        raise ValueError(f"the weights exp(int phi) overflow the float range over duration "
                         f"{duration}") from None
    p = heat_kernel(duration, end - start)
    return p * mean_w, p * math.sqrt(var_w / weights.n)


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
    weights = _path_weights(phi, duration, x, 0.0, cfg)
    log_mean = weights.log_mean
    rate = log_mean / duration
    if return_diagnostics:
        return rate, {"log_mean": log_mean, "ess": weights.ess, "n_paths": weights.n}
    return rate


# --- first hitting times ------------------------------------------------------

def hitting_density(s, t: float, x: float, lam: float):
    """Density at s of the first zero-hitting time of the bridge lam*x -> 0 on [0, lam*t].

    Closed form sqrt(lam^3 t x^2) / sqrt(2 pi s^3 (lam t - s)) *
    exp(-((lam t - s)/(2 lam t s)) (lam x)^2); zero outside (0, lam t).
    Raises ValueError where a term of it leaves the float range.
    """
    if not (0 < t < math.inf and 0 < lam < math.inf):
        raise ValueError("need finite t > 0 and lam > 0")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if x == 0:
        raise ValueError("hitting density is degenerate at x = 0")
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = (s > 0) & (s < lam * t)
    si = s[inside]
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            pref = np.sqrt(lam**3 * t * x**2) / np.sqrt(2.0 * np.pi * si**3 * (lam * t - si))
            out[inside] = pref * np.exp(-((lam * t - si) / (2.0 * lam * t * si)) * (lam * x) ** 2)
    except (OverflowError, FloatingPointError) as exc:
        raise ValueError(f"the hitting density leaves the float range ({exc.args[-1]})") from None
    return float(out) if out.ndim == 0 else out


def first_hitting_times(start: float, duration: float, cfg: BridgeConfig | None = None) -> np.ndarray:
    """First zero-hitting times of bridges start -> 0, one entry per path.

    Between consecutive samples a, b > 0 the bridge crosses zero with
    probability exp(-2 a b / ds); crossings are resolved by a Bernoulli draw
    and placed at the linear-interpolation point inside the step.
    """
    cfg = cfg or BridgeConfig()
    start = abs(float(start))
    if not 0 < start < math.inf:
        raise ValueError(f"start must be finite and away from zero, got {start}")
    n_steps = cfg.steps_for(duration)
    if cfg.n_paths > MAX_HITTING_PATHS:
        raise BridgeLimitError(f"{cfg.n_paths} paths exceed the first-hitting limit of "
                               f"{MAX_HITTING_PATHS:.3g} paths, whose times are all held at "
                               "once; lower the paths")
    ds = duration / n_steps
    out = np.empty(cfg.n_paths)
    row = 0
    for block_index, size in _iter_blocks(cfg):
        rng = _block_rng(cfg, block_index)
        hit = np.full(size, duration)
        alive = np.ones(size, dtype=bool)
        u = np.empty(size)
        for k, b, nb in _bridge_steps(rng, start, 0.0, duration, n_steps, size):
            rng.random(out=u)
            t_here = k * ds
            touched = alive & (nb <= 0.0)
            if touched.any():
                frac = b[touched] / (b[touched] - nb[touched])
                hit[touched] = t_here + ds * np.clip(frac, 0.0, 1.0)
                alive[touched] = False
            # every path still alive is above zero at both ends of the step
            live = np.flatnonzero(alive)
            if live.size:
                b_live, nb_live = b.take(live), nb.take(live)
                p_cross = np.exp(-2.0 * b_live * nb_live / ds)
                crossed = u.take(live) < p_cross
                if crossed.any():
                    frac = b_live[crossed] / (b_live[crossed] + nb_live[crossed])
                    idx = live[crossed]
                    hit[idx] = t_here + ds * frac
                    alive[idx] = False
            # the next step starts from max(nb, 0) with the dead paths at zero
            np.maximum(nb, 0.0, out=nb)
            nb *= alive
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
    from scipy.integrate import quad  # not at module level, so importing the CLI skips it

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


# --- the limit shape -----------------------------------------------------------

def h_star(t, x):
    """Limit shape: -|x| + t/2 inside |x| <= t, else -x^2/(2t); a float for
    scalar t and x, else the array they broadcast to."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise ValueError("h_star needs t > 0")
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.where(ax <= t, -ax + 0.5 * t, -(x * x) / (2.0 * t))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ShapeOptions:
    dx: float = 0.05
    dt: float = 0.01
    mc_t_count: int = 4
    mc_x_count: int = 9
    mc_paths: int = 50_000
    mc_seed: int = 31415

    def __post_init__(self):
        if not self.dx > 0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if not self.dx <= MAX_SHAPE_DX:
            raise ValueError(f"dx = {self.dx:g} exceeds {MAX_SHAPE_DX}, too coarse for the "
                             "limit shape")
        if not self.dt > DELTA_WARMUP:
            raise ValueError(f"dt must exceed the delta warm-up time {DELTA_WARMUP}, got {self.dt}")
        if not self.dt <= MAX_SHAPE_DT:
            raise ValueError(f"dt = {self.dt:g} exceeds {MAX_SHAPE_DT}, too coarse for the "
                             "limit shape")
        for name in ("mc_t_count", "mc_x_count", "mc_paths"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.mc_seed < 2**128 - self.mc_seed_offset:
            raise ValueError(f"mc_seed must lie in [0, 2**128 - {self.mc_seed_offset}), "
                             f"got {self.mc_seed}")

    @property
    def mc_seed_offset(self) -> int:
        """The largest offset the mc backend adds to mc_seed: its calls' seeds are
        mc_seed + 1000 i + j, each a Philox key in [0, 2**128)."""
        return 1000 * (self.mc_t_count - 1) + self.mc_x_count - 1


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
        """One row per (t, x), each value as `format_value` writes it."""
        err = np.abs(self.h_values - self.h_star_values)
        x_text = [f"{x:.12g}" for x in self.x_values.tolist()]
        lines = ["t,x,h_lambda,h_star,abs_err"]
        for t, h_row, hs_row, err_row in zip(self.t_values.tolist(), self.h_values.tolist(),
                                             self.h_star_values.tolist(), err.tolist()):
            lines.extend(f"{t:.12g},{x},{h:.12g},{hs:.12g},{e:.12g}"
                         for x, h, hs, e in zip(x_text, h_row, hs_row, err_row))
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
    if not 4 <= lam < math.inf:
        raise ValueError(f"shape_profile is calibrated for finite lam >= 4, got {lam}")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if backend == "pde":
        return _shape_profile_pde(lam, delta, opts)
    if backend == "mc":
        return _shape_profile_mc(lam, delta, opts)
    raise ValueError(f"unknown backend {backend!r}")


def _shape_profile_pde(lam: float, delta: float, opts: ShapeOptions) -> ShapeProfile:
    half_width = _required_half_width(lam, delta)
    tgrid = standard_time_grid(opts.dt, 2.0 * lam)
    # half-line nodes x time nodes, in floating point so that no count overflows
    nodes = (half_width / opts.dx + 1.0) * (tgrid.n_steps + 1)
    if not nodes <= SHAPE_NODE_BUDGET:
        raise ValueError(f"{nodes:.3g} half-line space-time nodes exceed the limit-shape budget "
                         f"of {SHAPE_NODE_BUDGET:.3g}; raise dx or dt, or lower lam")
    n_half = int(math.ceil(half_width / opts.dx))
    half = HalfLine(SpaceGrid(n_half * opts.dx, 2 * n_half + 1))
    rho = SpaceTimeDeviation.time_constant(tgrid, rho_star(half))

    stride_t = max(1, int(round(SHAPE_T_STEP * lam / tgrid.dt)))
    k_lo = int(math.ceil(lam * delta / tgrid.dt - 1e-9))
    k_hi = tgrid.n_steps
    k_idx = np.arange(k_lo, k_hi + 1, stride_t)
    sol = solve_delta_scaled(rho, keep=k_idx)
    stride_x = max(1, int(round(SHAPE_X_STEP * lam / half.dx)))
    reach = int(math.floor((lam / delta) / (stride_x * half.dx)))
    offsets = stride_x * np.arange(-reach, reach + 1)
    # node |i - i0| of the half line holds the column of x_i and of -x_i
    i_idx = np.abs(offsets)

    t_vals = tgrid.times[k_idx] / lam
    x_vals = half.full.x[half.full.center_index + offsets] / lam
    log_rows = np.log(sol.rows[:, i_idx]) + sol.log_scale[:, None]
    h = (0.5 * math.log(lam) + log_rows) / lam
    return ShapeProfile(lam, delta, "pde", t_vals, x_vals, h, h_star(t_vals[:, None], x_vals))


def _shape_profile_mc(lam: float, delta: float, opts: ShapeOptions) -> ShapeProfile:
    sgrid = SpaceGrid(20.0, 801)
    phi = rho_star(sgrid)
    t_vals = np.linspace(delta, 2.0, opts.mc_t_count)
    x_vals = np.linspace(-1.0 / delta, 1.0 / delta, opts.mc_x_count)
    # one Monte Carlo call per point; the budget caps the calls together
    steps = sum(BridgeConfig(n_paths=opts.mc_paths).steps_for(lam * t) for t in t_vals)
    if opts.mc_paths * x_vals.size * steps > BRIDGE_PATH_STEP_BUDGET:
        raise BridgeLimitError(f"{opts.mc_paths} paths at {t_vals.size} x {x_vals.size} points "
                               "take more than the bridge budget of "
                               f"{BRIDGE_PATH_STEP_BUDGET:.3g} path-steps; lower the paths or lam")
    h = np.empty((t_vals.size, x_vals.size))
    for i, t in enumerate(t_vals):
        duration = lam * t
        for j, xv in enumerate(x_vals):
            cfg = BridgeConfig(n_paths=opts.mc_paths,
                               seed=opts.mc_seed + 1000 * i + j)
            log_e = _path_weights(phi, duration, lam * xv, 0.0, cfg).log_mean
            # log of heat_kernel(duration, y) from its own exponent and
            # normaliser: the kernel underflows to 0 once y^2 / (2 duration) > 745
            y = lam * xv
            log_p = -(y * y) / (2.0 * duration) - math.log(math.sqrt(2.0 * math.pi * duration))
            h[i, j] = (0.5 * math.log(lam) + log_e + log_p) / lam
    return ShapeProfile(lam, delta, "mc", t_vals, x_vals, h, h_star(t_vals[:, None], x_vals))
