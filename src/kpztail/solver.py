"""Crank-Nicolson solvers for the tilted heat equation dZ/dt = (1/2) Z_xx + rho Z.

The delta initial condition is realized by starting the march at the small
warm-up time t0 = DELTA_WARMUP from the exact heat kernel, tilted by the
local potential; every time step must exceed t0.
Each step s->s+h uses the midpoint potential (rho(s)+rho(s+h))/2 at both the
implicit and explicit level, so one step is M^{-1} N with

    M = I - (h/2) (D/2 + rho_mid),   N = I + (h/2) (D/2 + rho_mid),

D the central second difference and Dirichlet-zero walls.  Since N = 2I - M,
a step is taken as M^{-1}(2v) - v: one solve and one subtraction, with no
explicit half-step N v formed.  The step 2 M^{-1} - I is symmetric on the
wall-pinned subspace, which makes adjoint application an exact transpose
(the same steps in reverse order) and keeps the discrete duality
<A(s), Z(s)> constant in s to round-off.  A pinned input (wall entries 0)
gives wall entries exactly 0; a wall entry w of any other input comes out
as -w and does not reach the interior.

Within the first grid interval the march takes geometrically growing
sub-steps (step length <= elapsed time) so the barely-resolved warm-up
profile never meets a step size outside the accurate CN regime.

Far tails of the true solution sit below round-off relative to the peak;
there CN leaves sign wiggles of order 1e-16 * max.  Steps abort on
non-finite values or negatives beyond a noise threshold, and the surviving
sub-noise negatives are floored to a tiny positive constant so delta-data
solutions are strictly positive by contract.

Every step solves M x = b in the symmetric form (W M) x = W b, with
W = diag(1/2, 1, ..., 1) on a HalfLine (see below) and W = I on the full
line.  This is exact up to round-off: the wall rows of M are identity rows,
so the couplings of their neighbours to them, which W M drops, multiply
entries pinned to 0, and halving the centre row is exact.  W M is positive
definite exactly when h lambda_max(D/2 + rho_mid) < 2.  That is also the
CN step's own limit: past it a step multiplies the top mode by
(1 + h lambda/2)/(1 - h lambda/2), a negative factor of size above 1.  A
step whose W M is not positive definite raises np.linalg.LinAlgError (a
ValueError) that names h and asks for a lower dt.

The kernel is LAPACK's positive definite tridiagonal solver, LDL^T without
pivots, called directly because `solve_banded`'s argument validation costs
several times the solve itself at n = 401.  Every step takes one path:
`dpttrf` factors W M = L D L^T, and the step is one `dpttrs` with those
factors and the subtraction.  Neither call checks its input for non-finite
values, so every sweep checks its result.  `_Factors` holds the factors of
a sweep's intervals in one of three ways:
- a time-constant deviation (`SpaceTimeDeviation.time_constant`, rows held
  as one stride-0 view) has the same M on every interval, so its delta
  march and the sweep of `adjoint_solve` share one factorization;
- `operator_norm` factors every interval of its span once per call and
  reuses the factors in all 2 iters sweeps of its power iteration, which
  always starts from one fixed positive random vector (Philox key 7;
  there is no start argument).  The span holds about
  (kt - ks) n 16 bytes: 0.3 MB for 100 steps at n = 201, 10 MB for 800
  steps at n = 801;
- elsewhere a time-varying deviation's steps are each taken once per
  sweep, and its intervals are factored CHUNK at a time, for sweeps in
  either direction, in two buffers that every chunk reuses: a chunk holds
  CHUNK n values whatever the number of steps.  A chunk's diagonals are
  built in whole-array operations and the off-diagonal once per sweep, so
  the step loop runs one `dpttrs`, the subtraction and the checks.
The warm-up sub-steps and the kernel series factor one row per step
(`_Stepper.solve`).  Each diagonal entry goes through the same elementwise
operations on every path, so all of them give the same bits.  A W M that
is not positive definite raises when its chunk or span is factored, up to
CHUNK - 1 steps before a sweep reaches it.  The gradient's backward sweep
assembles its node partials one chunk at a time as well, each entry summed
in step order.  The march stores only the time nodes its caller keeps.

A deviation on a HalfLine (the nodes x >= 0, standing for an even
function) is marched with a reflecting centre row: node 1 couples to the
centre from both sides, so M's centre super-diagonal unit is 2, and only
the right wall is pinned.  The reflected M is not symmetric but
W-symmetric: W M is symmetric, the matrix the kernel solves with.  The
delta march normalizes the warm-up kernel on the full grid and keeps its
x >= 0 half, so it agrees with the full line's march of the even extension
up to round-off (the factorization starts at the centre, not at the left
wall).  The gradient runs the full line's recursion in the coordinates
W^-1 a and scales the partials by the node multiplicities.  `operator_norm`
and `adjoint_solve` are not validated on a half line and refuse one; on it
a step is not its own transpose.

Measured on a 2-vCPU Xeon VM (traced benchmark runs, perfbench seed 0,
medians of three pairs):
- The step taken as M^{-1}(2v) - v against the explicit half-step N v and
  the separate transposed step it replaced: a rate forward step on 201
  half-line nodes takes 17.5 us instead of 20.5 us and a gradient step
  28.5 us instead of 34.4 us; at n = 801 a forward step 32.1 us instead of
  37.9 us and a gradient step 61.8 us instead of 74.7 us; a power-iteration
  step at n = 201 5.0 us instead of 8.7 us; a limit-shape march step (up
  to 2881 half-line nodes) 29.4 us instead of 36.6 us.
- LDL^T against the partial-pivoting LU kernel it replaced (`dgtsv`, and
  `dgttrf` with `dgttrs` in factored spans): a limit-shape march step on
  2881 half-line nodes takes 37 us instead of 58 us; a rate forward step
  on 201 half-line nodes 19.8 us instead of 25.6 us and a gradient step
  32.7 us instead of 40.5 us; at n = 801 a forward step 34.9 us instead of
  41.7 us and a gradient step 65.9 us instead of 78.3 us; a
  power-iteration step at n = 201 7.9 us instead of 10.3 us.
  The solve is most of a step on a wide grid and little of it on a small
  one, where the call overhead and the checks dominate.
- Earlier choices, measured with the LU kernel: the half line cut a
  gradient step by 29% at n = 401 and 42% at n = 801 against the full line
  it stands for; chunked coefficients cut a forward step by 26% and a
  gradient step by 33% at n = 401; factored spans cut a power-iteration
  step by 31%; one factorization per time-constant march cut a step at
  n = 5761 by 37% and a limit-shape run's peak memory from 644 MB to
  83 MB.  `log_terminal_and_gradient` factors its backward sweep again:
  its deviations vary in time and it takes each step once forward and once
  backward, and at n = 801 a cache of the forward factors for the
  backward sweep held about 23 MB per call and raised the peak memory of
  the benchmark's `probes` workload by 18% to save one factorization per
  backward step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .grids import (
    Field,
    HalfLine,
    Potential,
    SpaceGrid,
    SpaceTimeDeviation,
    TimeGrid,
    heat_kernel,
    require_full_line,
)

POSITIVITY_FLOOR = 1e-280
DELTA_WARMUP = 1e-3  # start time t0 of every delta-data march; each time step must exceed it
NEGATIVE_NOISE_TOL = 1e-6
RENORM_THRESHOLD = 1e120
CHUNK = 32  # time intervals whose step coefficients are built in one array operation


class SolverInstabilityError(RuntimeError):
    pass


def _rho_mid(rho: SpaceTimeDeviation, k: int) -> np.ndarray:
    """Midpoint potential of the time interval [t_k, t_k+1]."""
    return 0.5 * (rho.values[k] + rho.values[k + 1])


def _weigh(rhs: np.ndarray, reflect: bool) -> np.ndarray:
    """W rhs in place, W = diag(1/2, 1, ..., 1) with `reflect` and I without,
    and the wall entries pinned to 0 (entry 0 only without `reflect`)."""
    if reflect:
        rhs[0] *= 0.5
    else:
        rhs[0] = 0.0
    rhs[-1] = 0.0
    return rhs


def _indefinite(h: float) -> np.linalg.LinAlgError:
    return np.linalg.LinAlgError(
        f"the CN step matrix M = I - (h/2)(D/2 + rho) is not positive definite at step "
        f"length h = {h:g}: h * lambda_max(D/2 + rho) >= 2, where a step would multiply the "
        "top mode by a negative factor of size above 1; lower dt")


def _factor(d: np.ndarray, e: np.ndarray, h: float) -> None:
    """dpttrf of W M with diagonal d and off-diagonal e, in their storage: d
    becomes the diagonal of D and e the off-diagonal of L in W M = L D L^T."""
    if dpttrf(d, e, 1, 1)[2] > 0:
        raise _indefinite(h)


class _Stepper:
    """CN steps on a fixed SpaceGrid, or on a HalfLine with a reflecting centre row.

    A step is M^{-1} N v = M^{-1}(2v) - v, since N = 2I - M: one solve with
    W M and one subtraction.  W M's diagonal comes from kin_diag + rho_mid
    (`_m_diagonal`), for one interval or for a span of intervals at once
    (`_interval_diagonals`).  W M is symmetric, and its off-diagonal
    (`_m_offdiag`) depends on h alone: the Dirichlet wall rows are identity
    rows, decoupled from their neighbours, and on a half line the centre
    row, which couples to node 1 with weight 2, is halved by W.
    """

    def __init__(self, sgrid: SpaceGrid | HalfLine):
        n = sgrid.n_points
        self.reflect = isinstance(sgrid, HalfLine)
        self.kin_off = 0.5 / sgrid.dx**2          # off-diagonal of D/2
        self.kin_diag = -1.0 / sgrid.dx**2        # diagonal of D/2
        # off-diagonal of W M per unit of -(h/2) kin_off
        self._e_unit = np.ones(n - 1)
        self._e_unit[-1] = 0.0
        if not self.reflect:
            self._e_unit[0] = 0.0

    def _m_diagonal(self, h: float, diag: np.ndarray) -> np.ndarray:
        """Diagonal of W M for steps of length h from `diag` (kin_diag +
        rho_mid), one interval's row or one row per interval, built in the
        storage of `diag`, which is overwritten."""
        diag *= 0.5 * h
        m_diag = np.subtract(1.0, diag, out=diag)
        if self.reflect:
            m_diag[..., 0] *= 0.5
        else:
            m_diag[..., 0] = 1.0
        m_diag[..., -1] = 1.0
        return m_diag

    def _interval_diagonals(self, vals: np.ndarray, h: float, lo: int, hi: int,
                            out: np.ndarray) -> np.ndarray:
        """Diagonals of W M for steps of length h over the time intervals
        lo, ..., hi - 1 of the rows `vals`, one row per interval, built in
        `out`: kin_diag + 0.5 (rho_k + rho_k+1), then `_m_diagonal` in place.
        Each entry takes the operations of `solve`'s one-row build."""
        diag = np.add(vals[lo:hi], vals[lo + 1:hi + 1], out=out)
        diag *= 0.5
        diag += self.kin_diag
        return self._m_diagonal(h, diag)

    def _m_offdiag(self, h: float) -> np.ndarray:
        """Off-diagonal of W M for steps of length h."""
        return self._e_unit * (-0.5 * h * self.kin_off)

    def solve(self, v: np.ndarray, h: float, rho_mid: np.ndarray) -> np.ndarray:
        """M^{-1}(2v) for a step of length h with midpoint potential rho_mid,
        W M factored for this one call."""
        d, e = self._m_diagonal(h, self.kin_diag + rho_mid), self._m_offdiag(h)
        _factor(d, e, h)
        return dpttrs(d, e, _weigh(2.0 * v, self.reflect), overwrite_b=1)[0]

    def step(self, v: np.ndarray, h: float, rho_mid: np.ndarray) -> np.ndarray:
        y = self.solve(v, h, rho_mid)
        y -= v
        return y

    def sweep_transpose(self, v: np.ndarray, rho: SpaceTimeDeviation, ks: int, kt: int,
                        out: np.ndarray | None = None) -> np.ndarray:
        """Steps over the time intervals kt - 1, ..., ks of rho's grid, in that
        order.  On a full line this is the transpose of the same steps taken
        in ascending order, since each step 2 M^{-1} - I is symmetric on the
        wall-pinned subspace.  Row k of `out` (if given) receives the value at
        time node k."""
        factors = _Factors(self, rho, rho.tgrid.dt)
        for k in range(kt - 1, ks - 1, -1):
            v = factors.step(v, k)
            if out is not None:
                out[k] = v
        return v


class _Factors:
    """The dpttrf factors of W M for steps of length h over the time
    intervals of rho (see the module docstring).

    A time-constant rho (stride-0 rows) has one factorization for every
    interval, and a `span` (ks, kt) has the intervals ks, ..., kt - 1
    factored at once.  Otherwise the intervals are factored CHUNK at a time
    in two buffers that every chunk reuses: a read outside the current
    chunk factors the chunk that continues from k in the sweep's direction,
    upward from k after reads below it (the first read counts as one) and
    downward to k after reads above it.  A downward chunk stops at interval
    1 unless k is 0: the delta marches step interval 0 in warm-up
    sub-steps, and its W M at step h need not be positive definite.  A W M
    that is not positive definite raises LinAlgError when its chunk or span
    is factored.  `solve` and `step` are bitwise `_Stepper.solve` and
    `_Stepper.step` with the interval's midpoint potential.
    """

    def __init__(self, stepper: _Stepper, rho: SpaceTimeDeviation, h: float,
                 span: tuple[int, int] | None = None):
        self._stepper, self._vals, self._h = stepper, rho.values, h
        self._reflect = stepper.reflect
        self._nt = nt = rho.tgrid.n_steps
        self._off = stepper._m_offdiag(h)
        shared = self._vals.strides[0] == 0
        lo, hi = (0, 1) if shared else span or (0, min(CHUNK, nt))
        n = self._vals.shape[1]
        # C-ordered, so dpttrf factors each row in place
        self._d, self._e = np.empty((hi - lo, n)), np.empty((hi - lo, n - 1))
        self._lo = self._hi = 0
        if shared or span:
            self._build(lo, hi)
        if shared:
            self._rows *= nt
            self._hi = nt

    def _build(self, lo: int, hi: int) -> None:
        """Factor the intervals lo, ..., hi - 1 into the buffers."""
        rows = hi - lo
        d = self._stepper._interval_diagonals(self._vals, self._h, lo, hi, self._d[:rows])
        e = self._e[:rows]
        e[...] = self._off
        for dj, ej in zip(d, e):
            _factor(dj, ej, self._h)
        self._rows = list(zip(d, e))
        self._lo, self._hi = lo, hi

    def solve(self, v: np.ndarray, k: int) -> np.ndarray:
        """M_k^{-1}(2v) for time interval k."""
        if not self._lo <= k < self._hi:
            if k >= self._hi:
                self._build(k, min(k + CHUNK, self._nt))
            else:
                self._build(max(k + 1 - CHUNK, min(k, 1)), k + 1)
        d, e = self._rows[k - self._lo]
        return dpttrs(d, e, _weigh(2.0 * v, self._reflect), overwrite_b=1)[0]

    def step(self, v: np.ndarray, k: int) -> np.ndarray:
        """One step M_k^{-1} N_k v over time interval k."""
        y = self.solve(v, k)
        y -= v
        return y


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
    if not (math.isfinite(m) and math.isfinite(lo)):
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


def _march_delta(rho: SpaceTimeDeviation, keep=None, keep_warmup: bool = False):
    """Delta-data march that stores the rows of the time nodes `keep` (default all)."""
    tg, sg = rho.tgrid, rho.sgrid
    if tg.t_start != 0.0:
        raise ValueError("delta-data solves start at t = 0")
    t0 = DELTA_WARMUP
    dt = tg.dt
    if not t0 < dt:
        raise ValueError(f"time step {dt} must exceed the delta warm-up time {t0}")
    stepper = _Stepper(sg)
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
    # unit discrete mass even when sqrt(t0) is marginal against dx, on the
    # whole line; a half line keeps the x >= 0 half of that kernel
    full = sg.full if stepper.reflect else sg
    base = heat_kernel(t0, full.x)
    base = base / np.dot(full.trapezoid_weights(), base)
    if stepper.reflect:
        base = base[full.center_index:]
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

    step = _Factors(stepper, rho, dt).step
    for k in range(1, nt):
        v, m = _check_slice(step(v, k), str(k + 1))
        v = settle(k + 1, v, m)
    sol = ScaledSolution(tg, sg, rows, log_scale, nodes)
    if keep_warmup:
        return sol, warm_vals, warm_steps
    return sol


def solve_delta_scaled(rho: SpaceTimeDeviation, keep=None) -> ScaledSolution:
    """Delta-data solve in scaled rows; `keep` lists the increasing time-node
    indices whose rows are stored (default: every node)."""
    return _march_delta(rho, keep)


def solve_delta_at(rho: SpaceTimeDeviation, t: float, x: float) -> float:
    """Z(rho; t, x) from a delta at (0, 0), storing only the row of time t.

    Bitwise equal to the (t, x) entry of `solve_delta(rho).values`.
    """
    return solve_delta_scaled(rho, keep=[rho.tgrid.index_of(t)]).value_at(t, x)


def solve_delta(rho: SpaceTimeDeviation) -> Field:
    """Solve dZ/dt = Z_xx/2 + rho Z from a Dirac delta at (0, 0)."""
    return _march_delta(rho).field()


@dataclass(frozen=True)
class OperatorNormResult:
    value: float
    iterations: int
    converged: bool


def operator_norm(rho: SpaceTimeDeviation, s: float, t: float,
                  iters: int = 60) -> OperatorNormResult:
    """Power-iteration estimate of the L2->L2 norm of the propagator s->t.

    Iterates v <- P*P v from a positive random start (a fixed Philox
    stream); the Rayleigh estimate sqrt(<Pv, Pv>/<v, v>) is nondecreasing up
    to convergence, declared when two successive estimates agree to 1e-8
    relative.  Where the top of the singular spectrum is nearly flat
    (notably the plain heat semigroup on a wide box) that stop can come
    before the estimate has settled.  Every interval's M is factored once
    per call (`_Factors` with a span).
    """
    require_full_line(rho.sgrid, "operator_norm")
    if iters < 10:
        raise ValueError("iters must be >= 10")
    tg = rho.tgrid
    ks, kt = tg.index_of(s), tg.index_of(t)
    if not ks < kt:
        raise ValueError("need s < t on the time grid")
    sg = rho.sgrid
    v = 1.0 + np.random.Generator(np.random.Philox(7)).random(sg.n_points)
    v[0] = 0.0
    v[-1] = 0.0
    span = _Factors(_Stepper(sg), rho, tg.dt, (ks, kt))

    est = 0.0
    converged = False
    it = 0
    for it in range(1, iters + 1):
        w = v
        for k in range(ks, kt):
            w = span.step(w, k)
        _require_finite(w, "power iteration sweep")
        new_est = np.sqrt(np.dot(w, w) / np.dot(v, v))
        v = w
        for k in range(kt - 1, ks - 1, -1):
            v = span.step(v, k)
        _require_finite(v, "power iteration sweep")
        v /= np.sqrt(np.dot(v, v))
        if it > 1 and abs(new_est - est) <= 1e-8 * max(new_est, 1e-300):
            est = new_est
            converged = True
            break
        est = new_est
    return OperatorNormResult(float(est), it, converged)


def adjoint_solve(rho: SpaceTimeDeviation, terminal: Potential) -> Field:
    """Backward sweep A(s) = P(rho; s->T)* terminal for every time node.

    Mirrors the forward delta march step by step (warm-up sub-steps
    included), so <A(s), Z(s)> is constant in s to round-off.
    """
    tg, sg = rho.tgrid, rho.sgrid
    require_full_line(sg, "adjoint_solve")
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
    for h in reversed(_warmup_substeps(DELTA_WARMUP, dt)):
        v = stepper.step(v, h, rho_mid)
    out[0] = v
    _require_finite(out, "adjoint sweep")
    return Field(tg, sg, out, strictly_positive=False)


def log_terminal_and_gradient(rho: SpaceTimeDeviation):
    """(log Z(T, 0), exact partials of log Z(T, 0) wrt every rho node value).

    Differentiates the stepped scheme itself.  One step is M^{-1} N with M, N
    rational in the same symmetric operator, so they commute and

        d Z_T(x0) / d rho_mid_k(i) = (dt/2) (Z_k + Z_{k+1})(i) (M_k^{-1} a_{k+1})(i),

    with a the backward-propagated sensitivity; node partials follow from
    rho_mid_k = (rho_k + rho_{k+1})/2 plus the warm-up initial-data factor.
    Returned partials drive the rate optimizer's line search, which needs
    gradient/objective consistency to round-off.

    On a HalfLine rho is even in x and a node x > 0 stands for x and -x.  The
    recursion below then runs in the coordinates W^-1 a (W = diag(1/2, 1,
    ..., 1)), where it is the full line's; this yields
    the full-line partials at x >= 0, and the half-line partials are those
    times the node's multiplicity, 1 at the centre and 2 elsewhere.
    """
    tg, sg = rho.tgrid, rho.sgrid
    sol, warm_vals, warm_steps = _march_delta(rho, keep_warmup=True)
    nt, dt = tg.n_steps, tg.dt
    i0 = sg.center_index
    rows, ls = sol.rows, sol.log_scale
    log_zt = float(np.log(rows[nt, i0]) + ls[nt])
    stepper = _Stepper(sg)
    r = stepper.reflect

    # adjoint in scaled units: true adjoint times exp(ls_K); the exp(ls_k - ls_K)
    # factors are folded into the forward rows below.  Half of each interval's
    # sensitivity goes to each of its two end nodes.  The recursion runs one
    # step at a time; the sensitivities of a chunk of intervals are then
    # assembled in array operations, each entry in the per-step order:
    # partials[j] receives g_j before g_{j-1}.
    u = np.zeros(sg.n_points)
    u[i0] = 1.0 / rows[nt, i0]
    partials = np.zeros((nt + 1, sg.n_points))
    rel_scale = np.exp(ls - ls[nt])
    factors = _Factors(stepper, rho, dt)
    chunk = min(CHUNK, nt - 1)
    halves = np.empty((chunk, sg.n_points))
    z_buf = np.empty((chunk + 1, sg.n_points))
    g_buf = np.empty((chunk, sg.n_points))
    for hi in range(nt, 1, -CHUNK):
        lo = max(hi - CHUNK, 1)
        for k in range(hi - 1, lo - 1, -1):
            # u <- N_k M_k^{-1} u = 2 M_k^{-1} u - u; x = M_k^{-1}(2u) = 2 M_k^{-1} u exactly
            x = factors.solve(u, k)
            np.multiply(x, 0.5, out=halves[k - lo])
            x -= u
            u = x
        # g_k = (z_k+1 + z_k) (dt/4) (M_k^{-1} a_k+1) for k = lo, ..., hi - 1
        z = np.multiply(rows[lo:hi + 1], rel_scale[lo:hi + 1, None], out=z_buf[:hi - lo + 1])
        g = np.add(z[1:], z[:-1], out=g_buf[:hi - lo])
        g *= 0.25 * dt
        g *= halves[:hi - lo]
        partials[lo:hi] += g
        partials[lo + 1:hi + 1] += g

    # first interval: replay the warm-up sub-steps (rows 0..1 are unscaled)
    rho_mid = _rho_mid(rho, 0)
    scale0 = np.exp(-ls[nt])
    g0 = np.zeros(sg.n_points)
    for q in range(len(warm_steps) - 1, -1, -1):
        h = warm_steps[q]
        x = stepper.solve(u, h, rho_mid)
        g0 += 0.5 * h * (warm_vals[q] + warm_vals[q + 1]) * scale0 * (0.5 * x)
        x -= u
        u = x
    partials[0] += 0.5 * g0
    partials[1] += 0.5 * g0

    # warm-up tilt Z_0 = p(t0, .) exp((t0/2)(rho_0 + rho_0(center)))
    t0 = DELTA_WARMUP
    w0 = warm_vals[0] * u * scale0
    if r:
        # node multiplicities; the centre term sums over the whole line
        partials[:, 1:] *= 2.0
        w0[1:] *= 2.0
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

