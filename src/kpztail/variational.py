"""Rate function of the conditioned log-height via PDE-constrained optimization.

For a tail depth lam in (0, 32] the scaled problem minimizes
(1/(2 lam)) ||rho||^2 over deviations on [0, 2 lam] x [-L, L] subject to

    log Z(rho; 2 lam, 0) >= lam - (1/2) log(4 pi lam),

the log form of the threshold exp(lam)/sqrt(4 pi lam).  The constraint is a
single scalar, so the KKT system is the fixed-point equation

    rho = eta * lam * G(rho),      G = d log Z(T, 0) / d rho,

with one dual variable eta >= 0 that vanishes unless the constraint is
active.  The solver runs one loop.  At each iterate u it evaluates log Z and
G (one forward march, one adjoint sweep) and sets eta so that the damped
step u' = u + DAMPING (eta lam G - u) closes the gap to the target in the
linearized constraint log Z + <G, u' - u>:

    eta = max((<u, G> + (target - log Z) / DAMPING) / (lam <G, G>), 0),

the single-constraint SQP multiplier (Nocedal & Wright, Numerical
Optimization, 2nd ed., ch. 18); a fixed point with eta > 0 is feasible with
the constraint active.  The loop stops when (u, eta) passes the KKT tests
(feasibility and complementarity within the feasibility tolerance, the
scaled projected gradient norm within the stationarity tolerance);
otherwise it takes one step of Anderson mixing of depth ANDERSON_DEPTH
(Walker & Ni, SIAM J. Numer. Anal. 49, 2011), never restarted, on the
damped map and projects onto rho >= 0.  `RateReport.rounds` keeps one
(eta, log Z, KKT norm, steps since the previous entry) per evaluation.
ANDERSON_DEPTH and DAMPING have one value in every caller, so they are not
options.

Iterations on the quick grid (n = 401, dt = 0.02) from rho_star /
half_rho_star / zeros, against the earlier secant rounds on eta that
restarted the mixing at every trial eta:

    lam = 1:   20 / 15 /  72  ->  6 / 6 / 5
    lam = 4:   21 / 29 / 100  ->  6 / 6 / 7
    lam = 8:   32 / 42 / 130  ->  7 / 7 / 8
    lam = 16:  45 / 49 / 126  ->  7 / 7 / 9

with phi_hat within 5.5e-7 relative of theirs.  The mixing's inner products
are the weighted `(a * b) @ w` sums of `inner`, which keeps that form so
that every iterate keeps its bits, and its 2 (m + 1) history arrays are
allocated once per solve.  A solve of more than RATE_NODE_BUDGET full-grid
space-time nodes is refused before any array is allocated.

The iterate lives on the half line x >= 0 (`grids.HalfLine`).  Steiner
symmetrization keeps ||rho|| and does not lower Z(T, 0) (criterion 5 checks
this), so the minimum can be sought among deviations even in x.  The
iterate, its gradient, the inner products and the mixing history hold the
(n + 1)/2 nodes x >= 0, and the solver marches them with a reflecting
centre row.  The half line's trapezoid weights integrate the even
extension, so `inner` and the weights that turn node partials into
the functional gradient keep their full-line formulas.  The returned
minimizer is the iterate's exact mirror on the full grid, and its
feasibility is checked again by a full-line march.

The estimate phi_hat = lam^(3/2) (1/(2 lam)) ||rho_hat||^2 is an upper bound
on the true rate value certified feasible; the time-constant candidate
(1+zeta) sech^2 provides the analytic certificate (4/3)(1+zeta)^2 lam^(3/2)
above it.  Every formula here divides by lam or takes its logarithm, so
`rate_phi` refuses a depth outside (0, 32] and `upper_certificate` one that
is not positive and finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import (
    HalfLine,
    Potential,
    SpaceGrid,
    SpaceTimeDeviation,
    l2_norm_spacetime,
    standard_time_grid,
)
from .solver import (
    DELTA_WARMUP,
    adjoint_solve,
    log_terminal_and_gradient,
    solve_delta_scaled,
)
from .spectral import rho_star


ANDERSON_DEPTH = 2  # differences kept by the KKT fixed-point mixer
DAMPING = 0.7  # step of the damped KKT map
INITS = ("rho_star", "half_rho_star", "zeros")
RATE_HALF_WIDTH = 20.0  # the box [-L, L] of every rate solve
MAX_RATE_DX = 0.5  # coarsest space step that still resolves sech^2 (unit width)
# space-time nodes of one solve's full grid, about 64 MB per array; lam = 32
# on the default grid (dt = 0.01, n = 801) has 6401 x 801 = 5.1e6
RATE_NODE_BUDGET = 8_000_000


class CertificateUnavailableError(RuntimeError):
    """The candidate (1+zeta) rho_star fails the constraint at this (lam, zeta)."""


@dataclass(frozen=True)
class RateOptions:
    n_points: int = 801
    dt: float = 0.01
    init: str = "rho_star"  # rho_star | half_rho_star | zeros
    max_iterations: int = 2000  # fixed-point steps
    stationarity_tol: float = 1e-5
    feasibility_tol: float = 1e-6
    zeta_candidates: tuple = (0.05, 0.1, 0.2, 0.5, 1.0)
    compute_certificate: bool = True

    def __post_init__(self):
        for name in ("dt", "stationarity_tol", "feasibility_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.dt > DELTA_WARMUP:
            raise ValueError(f"dt must exceed the delta warm-up time {DELTA_WARMUP}, got {self.dt}")
        if not self.max_iterations >= 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}; expected one of {INITS}")
        if not all(0 < z < np.inf for z in self.zeta_candidates):
            raise ValueError(f"zeta_candidates must be positive and finite, got {self.zeta_candidates}")
        if not self.n_points >= 3:
            raise ValueError(f"need n_points >= 3, got {self.n_points}")
        dx = 2.0 * RATE_HALF_WIDTH / (self.n_points - 1)
        if not dx <= MAX_RATE_DX:
            raise ValueError(f"space step 2 L/(n_points - 1) = {dx:.4g} with L = "
                             f"{RATE_HALF_WIDTH:g} exceeds {MAX_RATE_DX}, too coarse to "
                             "resolve sech^2")


@dataclass(frozen=True)
class RateReport:
    lam: float
    phi_hat: float
    minimizer: SpaceTimeDeviation = field(repr=False)
    constraint_residual: float
    iterations: int
    upper_certificate: float
    converged: bool
    # one (eta, log Z, KKT norm, steps since the previous entry) per evaluation
    rounds: tuple = ()

    @property
    def scaled_ratio(self) -> float:
        """phi_hat / lam^(3/2); tends to 4/3 deep in the tail."""
        return self.phi_hat / self.lam**1.5


def _problem_grids(lam: float, opts: RateOptions):
    tgrid = standard_time_grid(opts.dt, 2.0 * lam)
    sgrid = SpaceGrid(RATE_HALF_WIDTH, opts.n_points)
    return tgrid, sgrid


def check_node_budget(lam: float, opts: RateOptions) -> None:
    """Raise ValueError if a solve at depth lam holds more than RATE_NODE_BUDGET nodes."""
    tgrid, sgrid = _problem_grids(lam, opts)
    nodes = (tgrid.n_steps + 1) * sgrid.n_points
    if nodes > RATE_NODE_BUDGET:
        raise ValueError(f"{tgrid.n_steps + 1} x {sgrid.n_points} = {nodes} space-time nodes "
                         f"exceed the rate budget of {RATE_NODE_BUDGET}; raise dt or lower n_points")


def _target_log(lam: float) -> float:
    return lam - 0.5 * np.log(4.0 * np.pi * lam)


def time_constant_prediction(lam: float) -> float:
    """Scaled ratio (4/3) a^3 of the best time-constant candidate a^2 sech^2(a x).

    The ground state of a^2 sech^2(a x) is sqrt(a/2) sech(a x) with value
    F = a^2/2, so log Z(2 lam, 0) is about lam a^2 + log(a/2), and the
    candidate is feasible once lam (1 - a^2) <= (1/2) log(4 pi lam) + log(a/2).
    The left side falls in a and the right side rises, so bisection finds
    the smallest feasible a in (0, 1); the candidate's cost is (4/3) a^3
    lam^(3/2).  A root exists for lam > 1/pi.  This is the finite-lam value
    that criterion 6's ratios approach 4/3 against.
    """
    def excess(a):
        return lam * (1.0 - a * a) - 0.5 * np.log(4.0 * np.pi * lam) - np.log(0.5 * a)

    if not (lam > 1.0 / np.pi and np.isfinite(lam)):
        raise ValueError(f"the time-constant prediction needs finite lam > 1/pi, got {lam}")
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return float((4.0 / 3.0) * hi**3)


def log_z_terminal(rho: SpaceTimeDeviation) -> float:
    sol = solve_delta_scaled(rho, keep=[rho.tgrid.n_steps])
    return sol.log_at(rho.tgrid.t_end, 0.0)


def terminal_gradient(rho: SpaceTimeDeviation) -> SpaceTimeDeviation:
    """Adjoint-state gradient field of rho -> Z(rho; T, 0).

    The value at node (s, y) is Z(s, y) A(s, y); one node's sensitivity of
    Z(T, 0) is that value times dt dx.
    """
    z = solve_delta_scaled(rho).field()
    i0 = rho.sgrid.center_index
    terminal = np.zeros(rho.sgrid.n_points)
    terminal[i0] = 1.0 / rho.sgrid.dx
    a = adjoint_solve(rho, Potential(rho.sgrid, terminal))
    return SpaceTimeDeviation(rho.tgrid, rho.sgrid, z.values * a.values)


def upper_certificate(lam: float, zeta: float, opts: RateOptions | None = None) -> float:
    """(4/3)(1+zeta)^2 lam^(3/2) after verifying the candidate is feasible."""
    if not zeta > 0:
        raise ValueError("zeta must be positive")
    if not 0.0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")
    opts = opts or RateOptions()
    tgrid, sgrid = _problem_grids(lam, opts)
    cand = SpaceTimeDeviation.time_constant(
        tgrid, Potential(sgrid, (1.0 + zeta) * rho_star(sgrid).values)
    )
    if log_z_terminal(cand) < _target_log(lam):
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


class _AndersonMixer:
    """Anderson mixing of depth m = ANDERSON_DEPTH for a fixed point u = g(u)
    (Walker & Ni 2011).

    `mix(u, f)` takes an iterate u and its residual f = g(u) - u and writes
    g(u) - dG gamma into u, with gamma the least-squares fit of f by the
    last m residual differences dF in the inner product `inner`; dG are the
    matching differences of g.  The 2 (m + 1) arrays of the shape of u are
    allocated once.
    """

    def __init__(self, shape: tuple, inner):
        self._inner = inner
        self._df = np.empty((ANDERSON_DEPTH,) + shape)
        self._dg = np.empty((ANDERSON_DEPTH,) + shape)
        self._f = np.empty(shape)  # residual and map value of the last iterate
        self._g = np.empty(shape)
        self._primed = False
        self._count = 0
        self._next = 0

    def mix(self, u: np.ndarray, f: np.ndarray) -> None:
        """Overwrite u with the mixed iterate; f is overwritten as scratch."""
        if self._primed:
            j = self._next
            np.subtract(f, self._f, out=self._df[j])
            np.subtract(u, self._g, out=self._dg[j])
            self._dg[j] += f
            self._next = (j + 1) % ANDERSON_DEPTH
            self._count = min(self._count + 1, ANDERSON_DEPTH)
        self._primed = True
        np.copyto(self._f, f)
        np.add(u, f, out=self._g)
        np.copyto(u, self._g)
        k = self._count
        if k == 0:
            return
        df = self._df
        gram = np.empty((k, k))
        for a in range(k):
            for b in range(a, k):
                gram[a, b] = gram[b, a] = self._inner(df[a], df[b])
        rhs = np.array([self._inner(df[a], f) for a in range(k)])
        gamma = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        for a in range(k):
            np.multiply(self._dg[a], gamma[a], out=f)
            u -= f


def _kkt_holds(c_val: float, eta: float, snorm: float, opts: RateOptions) -> bool:
    """Feasibility, complementarity and stationarity, each within its tolerance."""
    complementary = abs(c_val) <= opts.feasibility_tol or eta <= opts.feasibility_tol
    return c_val <= opts.feasibility_tol and complementary and snorm <= opts.stationarity_tol


def rate_phi(lam: float, opts: RateOptions | None = None) -> RateReport:
    """KKT fixed-point estimate of the scaled rate value at depth lam."""
    opts = opts or RateOptions()
    if not 0.0 < lam <= 32.0:
        raise ValueError(f"lam must lie in (0, 32] at desk scale, got {lam}")
    check_node_budget(lam, opts)
    tgrid, full = _problem_grids(lam, opts)
    # the iterate lives on x >= 0 and stands for its even extension
    sgrid = HalfLine(full)
    target = _target_log(lam)
    cost_scale = 2.0 * lam

    w_space = sgrid.trapezoid_weights()
    dt = tgrid.dt
    nt = tgrid.n_steps
    inv_weight = 1.0 / (dt * w_space)  # node partial -> functional gradient

    # the iterate u is updated in place as the first nt rows of the deviation
    vals = np.empty((nt + 1, sgrid.n_points))
    u = vals[:nt]

    def current_rho():
        vals[nt] = u[nt - 1]  # final node mirrors the last costed slice
        return SpaceTimeDeviation(tgrid, sgrid, vals)

    def inner(a, b):
        return float(dt * ((a * b) @ w_space).sum())

    def log_and_gradient():
        log_zt, partials = log_terminal_and_gradient(current_rho())
        grad = partials[:nt]
        grad[nt - 1] += partials[nt]  # fold the tied final node in
        grad *= inv_weight[None, :]
        return log_zt, grad

    base = rho_star(sgrid).values
    if opts.init == "rho_star":
        u[:] = base
    elif opts.init == "half_rho_star":
        u[:] = 0.5 * base
    else:
        u[:] = 0.0

    mult = 0.5 * cost_scale  # the KKT map is u = eta * mult * G(u)
    mixer = _AndersonMixer(u.shape, inner)
    rounds = []
    for it in range(opts.max_iterations + 1):
        log_zt, grad = log_and_gradient()
        c_val = target - log_zt  # positive when infeasible
        # the dual variable whose damped step meets the linearized constraint
        eta = max((inner(u, grad) + c_val / DAMPING) / (mult * inner(grad, grad)), 0.0)
        # projected KKT gradient u - max(u - g, 0) = min(u, g), g = (u - eta mult grad) / mult
        pg = grad * -(eta * mult)
        pg += u
        pg /= mult
        np.minimum(pg, u, out=pg)
        snorm = float(np.sqrt(inner(pg, pg) / cost_scale))
        del pg
        rounds.append((float(eta), float(log_zt), snorm, 1 if rounds else 0))
        if _kkt_holds(c_val, eta, snorm, opts) or it == opts.max_iterations:
            break
        # the gradient's storage becomes the damped residual of the KKT map
        grad *= eta * mult
        grad -= u
        grad *= DAMPING
        mixer.mix(u, grad)
        del grad  # free it before the next sweep allocates its own
        np.maximum(u, 0.0, out=u)

    # the mirror on the full grid; its full-line march checks feasibility
    # independently of the half-line sweeps
    rho_hat = SpaceTimeDeviation(tgrid, full, sgrid.unfold(current_rho().values))
    log_zt = log_z_terminal(rho_hat)
    c_val = target - log_zt
    converged = _kkt_holds(c_val, eta, snorm, opts)
    cost = inner(u, u) / cost_scale
    phi_hat = (lam**1.5) * cost
    cert = _smallest_certificate(lam, opts) if opts.compute_certificate else float("nan")
    return RateReport(
        lam=lam,
        phi_hat=float(phi_hat),
        minimizer=rho_hat,
        constraint_residual=float(-c_val),
        iterations=it,
        upper_certificate=float(cert),
        converged=bool(converged),
        rounds=tuple(rounds),
    )


def minimizer_distance(report: RateReport) -> float:
    """(1/(2 lam)) || rho_hat - sech^2 ||^2 with sech^2 constant in time."""
    if not report.converged:
        raise ValueError("minimizer_distance needs a converged report")
    rho = report.minimizer
    star = rho_star(rho.sgrid).values
    diff = SpaceTimeDeviation(rho.tgrid, rho.sgrid, rho.values - star[None, :])
    return float(l2_norm_spacetime(diff) ** 2 / (2.0 * report.lam))
