"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

`make_inputs(name, seed, out_dir)` does all input generation; `run_pass`
runs one pass over those inputs through the package's public API and checks
every operation.  An operation fails when it raises, does not converge, or
misses its check; the failure is counted and the pass goes on.

Checks come in two kinds.  The paper's invariants (norm below the
ground-state bound, the rearrangement inequalities, growth rate near 1/2,
the hitting-time histogram) hold at any seed.  Reference values recorded
from the unmodified package (reference.json) are compared at round-off
tolerances wherever the inputs match the recorded ones: always for `rate`
and `limit_shape`, whose inputs are fixed, and at DEFAULT_SEED for
`bridge_mc` and `probes`.  `record_reference.py` rewrites that file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.integrate import quad

from kpztail import bridge, cli, rearrange, solver, spectral, variational
from kpztail.grids import Potential, SpaceGrid, SpaceTimeDeviation, TimeGrid, l2_norm_space
from kpztail.testing import random_smooth_deviation, random_smooth_potential, rng_from_seed

WORKLOADS = ("rate", "limit_shape", "bridge_mc", "probes")
DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

ROUNDOFF = (1e-9, 1e-12)  # (rtol, atol) for values that only round-off may move
SKIP = None               # recorded for the report, not compared

# rate: the quick criterion-6 pair
RATE_LAMBDA = 4.0
RATE_OPTS = variational.RateOptions(n_points=401, dt=0.02, max_iterations=400)
# limit_shape: one CLI run per depth
SHAPE_LAMBDAS = (8, 16, 24, 32)
# bridge_mc: the quick criterion-8 path counts at criterion 8's full depth.
# At depth lam the x = 0 rate is about 1/2 + (log(4 pi lam)/2 - log 2)/(2 lam):
# 0.545 at lam = 24, too close to the 0.55 edge of its check for every seed
# to pass, and 0.536 at lam = 32.
GROWTH_LAMBDA = 32.0
GROWTH_STEPS = int(round(2 * GROWTH_LAMBDA / 0.1))
GROWTH_PATHS = (300_000, 200_000)
HIT_LAMBDA = 4.0  # t = x = 1: bridges from HIT_LAMBDA to 0 over [0, HIT_LAMBDA]
HIT_PATHS, HIT_STEPS, HIT_BINS = 20_000, 800, 50
# probes: power iteration stops once the norm estimate settles, after 10 to
# 60 iterations depending on the field, so a free stopping point would make
# the work depend on the seed.  Ten iterations, the fewest operator_norm
# accepts, is where almost no field has settled yet.
PROBE_FIELDS = 30
PROBE_POWER_ITERS = 10


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def mismatches(label: str, got, want, tol) -> list[str]:
    """Problems where `got` differs from `want` by more than atol + rtol |want|."""
    if tol is SKIP:
        return []
    rtol, atol = tol
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} vs reference {want.shape}"]
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if not bad.any():
        return []
    i = int(np.flatnonzero(bad.ravel())[0])
    return [f"{label}: {int(bad.sum())} of {bad.size} off reference, "
            f"first {got.ravel()[i]!r} vs {want.ravel()[i]!r} (rtol {rtol}, atol {atol})"]


def compare(op: str, values: dict, reference: dict | None, tolerances: dict) -> list[str]:
    """Compare an operation's recorded values with its reference entry."""
    if reference is None:
        return []
    want = reference.get(op)
    if want is None:
        return [f"{op}: no reference entry"]
    problems = []
    for key, ref_value in want.items():
        if key not in values:
            problems.append(f"{op}.{key}: not produced")
        else:
            problems += mismatches(f"{op}.{key}", values[key], ref_value,
                                   tolerances.get(key, ROUNDOFF))
    return problems


@dataclass
class PassRecord:
    """Outcome of one pass: problems per operation, values, and counters."""

    problems: dict = field(default_factory=dict)  # operation -> list of problems
    values: dict = field(default_factory=dict)    # operation -> recorded values
    stats: dict = field(default_factory=dict)

    def op(self, name: str, fn) -> None:
        try:
            self.problems[name] = fn()
        except Exception as exc:  # a failed operation is counted; the pass goes on
            self.problems[name] = [f"{type(exc).__name__}: {exc}"]

    def add(self, key: str, amount: float) -> None:
        self.stats[key] = self.stats.get(key, 0.0) + amount

    @property
    def attempted(self) -> int:
        return len(self.problems)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems.values() if p)


@dataclass
class Inputs:
    workload: str
    data: dict
    reference: dict | None  # None: the inputs differ from the recorded ones


# --- rate ------------------------------------------------------------------

def _rate_inputs(seed, out_dir):
    return {
        "rho_star": replace(RATE_OPTS, init="rho_star"),
        "half_rho_star": replace(RATE_OPTS, init="half_rho_star", compute_certificate=False),
    }


def _rate_pass(inp: Inputs, rec: PassRecord) -> None:
    tol = {"phi_hat": (RATE_OPTS.stationarity_tol, 0.0), "iterations": SKIP}
    for name, opts in inp.data.items():
        def op(name=name, opts=opts):
            rep = variational.rate_phi(RATE_LAMBDA, opts)
            values = {"phi_hat": rep.phi_hat, "iterations": rep.iterations}
            problems = []
            if not rep.converged:
                problems.append(f"{name}: not converged after {rep.iterations} iterations")
            if rep.constraint_residual < -opts.feasibility_tol:
                problems.append(f"{name}: infeasible, residual {rep.constraint_residual:.3g}")
            if opts.compute_certificate:
                values["upper_certificate"] = rep.upper_certificate
                if not rep.phi_hat <= rep.upper_certificate:
                    problems.append(f"{name}: phi_hat above its certificate")
            # the criterion-6 ratio is reported, never gated
            rec.stats[f"{name}.scaled_ratio"] = rep.scaled_ratio
            rec.add("picard_iters", rep.iterations)
            rec.values[name] = values
            return problems + compare(name, values, inp.reference, tol)
        rec.op(name, op)


# --- limit_shape ---------------------------------------------------------------

def _shape_inputs(seed, out_dir):
    runs = {}
    for lam in SHAPE_LAMBDAS:
        target = Path(out_dir) / "limit_shape" / f"L{lam}"
        runs[f"L{lam}"] = (lam, target, ["limit-shape", "--lambda", str(lam), "--delta", "0.5",
                                         "--dx", "0.05", "--out", str(target)])
    return runs


def csv_fingerprint(body: str) -> dict:
    """Round-off-comparable summary of a shape_profile.csv body."""
    rows = np.array([[float(v) for v in line.split(",")] for line in body.splitlines()[1:]])
    t, x, h, h_star, err = rows.T
    return {
        "rows": len(rows),
        "t_sum": float(t.sum()),
        "x_abs_sum": float(np.abs(x).sum()),
        "h_sum": float(h.sum()),
        "h_abs_sum": float(np.abs(h).sum()),
        "h_moment": float(np.dot(np.arange(len(h)), h)),
        "h_star_sum": float(h_star.sum()),
        "err_max": float(err.max()),
        "h_sample": h[::10].tolist(),
    }


def _shape_pass(inp: Inputs, rec: PassRecord) -> None:
    tol = {"rows": (0.0, 0.0), "csv_sha256": SKIP}
    for name, (lam, target, argv) in inp.data.items():
        def op(name=name, lam=lam, target=target, argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                return [f"{name}: exit code {code}"]
            data = (target / "shape_profile.csv").read_bytes()
            manifest = json.loads((target / "manifest.json").read_text())
            summary = json.loads((target / "shape_summary.json").read_text())
            sha = hashlib.sha256(data).hexdigest()
            values = {"sup_error": summary["sup_error"], "csv_sha256": sha,
                      **csv_fingerprint(data.decode())}
            rec.values[name] = values
            problems = []
            if manifest["outputs"].get("shape_profile.csv") != sha:
                problems.append(f"{name}: manifest hash does not match the CSV")
            if abs(values["err_max"] - summary["sup_error"]) > 1e-10 * (1 + summary["sup_error"]):
                problems.append(f"{name}: CSV abs_err max {values['err_max']} != sup_error")
            limit = 0.25 if lam <= 8 else 0.1  # criterion-7 tolerances
            if not summary["sup_error"] <= limit:
                problems.append(f"{name}: sup error {summary['sup_error']:.4f} > {limit}")
            if inp.reference is not None:
                rec.stats[f"{name}.csv_identical"] = sha == inp.reference[name]["csv_sha256"]
            return problems + compare(name, values, inp.reference, tol)
        rec.op(name, op)


# --- bridge_mc -------------------------------------------------------------------

def bridge_keys(seed: int) -> list[int]:
    """Philox keys of the three Monte Carlo runs, derived from the workload seed."""
    return [int(k) for k in np.random.SeedSequence(seed).generate_state(3)]


def _bridge_inputs(seed, out_dir):
    keys = bridge_keys(seed)
    phi = spectral.rho_star(SpaceGrid(20.0, 801))
    edges = np.linspace(0.0, HIT_LAMBDA, HIT_BINS + 1)
    p_bins = np.array([quad(lambda s: bridge.hitting_density(s, 1.0, 1.0, HIT_LAMBDA), a, b,
                            limit=100)[0] for a, b in zip(edges[:-1], edges[1:])])
    return {
        "phi": phi,
        "growth": {
            "growth_x0": (0.0, bridge.BridgeConfig(n_paths=GROWTH_PATHS[0],
                                                   n_time_steps=GROWTH_STEPS, seed=keys[0])),
            "growth_edge": (GROWTH_LAMBDA**0.25, bridge.BridgeConfig(
                n_paths=GROWTH_PATHS[1], n_time_steps=GROWTH_STEPS, seed=keys[1])),
        },
        "hit_cfg": bridge.BridgeConfig(n_paths=HIT_PATHS, n_time_steps=HIT_STEPS, seed=keys[2]),
        "edges": edges,
        "p_bins": p_bins,
    }


def _bridge_pass(inp: Inputs, rec: PassRecord) -> None:
    d = inp.data

    def growth(name):
        x, cfg = d["growth"][name]
        t = perf_counter()
        rate, diag = bridge.growth_rate(d["phi"], GROWTH_LAMBDA, x, cfg, return_diagnostics=True)
        rec.add("growth_s", perf_counter() - t)
        rec.add("path_steps", cfg.n_paths * GROWTH_STEPS)
        rec.add("ess", diag["ess"])
        rec.values[name] = {"rate": rate, "ess": diag["ess"]}
        problems = [] if diag["ess"] >= 1.0 - 1e-9 else [  # at least one path's worth
            f"{name}: effective sample size {diag['ess']}"]
        return rate, problems + compare(name, rec.values[name], inp.reference, {})

    # the two checks of criterion 8: the rate at x = 0 is near F(sech^2) = 1/2,
    # and the rate at the window's edge agrees with it
    def growth_x0():
        rate, problems = growth("growth_x0")
        rec.stats["growth_x0.rate"] = rate
        if not abs(rate - 0.5) <= 0.05:
            problems.append(f"growth_x0: growth rate {rate:.4f} not within 0.05 of 1/2")
        return problems
    rec.op("growth_x0", growth_x0)

    def growth_edge():
        rate, problems = growth("growth_edge")
        g0 = rec.stats.get("growth_x0.rate", math.nan)
        if not abs(rate - g0) <= 0.05:
            problems.append(f"growth_edge: rate {rate:.4f} not within 0.05 of "
                            f"the x = 0 rate {g0:.4f}")
        return problems
    rec.op("growth_edge", growth_edge)

    def hitting():
        t = perf_counter()
        hits = bridge.first_hitting_times(HIT_LAMBDA, HIT_LAMBDA, d["hit_cfg"])
        rec.add("hit_s", perf_counter() - t)
        rec.add("path_steps", HIT_PATHS * HIT_STEPS)
        counts, _ = np.histogram(hits, bins=d["edges"])
        n, p = hits.size, d["p_bins"]
        z = np.abs(counts - n * p) / np.sqrt(np.maximum(n * p * (1 - p), 1.0))
        rec.values["hitting"] = {"counts": counts.tolist()}
        problems = []
        if not z.max() <= 5.0:
            problems.append(f"hitting: histogram off the density by {z.max():.2f} standard errors")
        # a hit time within round-off of a bin edge may change bins
        return problems + compare("hitting", rec.values["hitting"], inp.reference,
                                  {"counts": (0.0, 1.0)})
    rec.op("hitting", hitting)


# --- probes ----------------------------------------------------------------------

def _probe_inputs(seed, out_dir):
    rng = rng_from_seed(seed)
    small, tg_small = SpaceGrid(10.0, 201), TimeGrid(0.0, 2.0, 100)
    fields = [random_smooth_deviation(rng, tg_small, small) for _ in range(PROBE_FIELDS)]
    grid = SpaceGrid(10.0, 401)
    sd = [random_smooth_potential(rng, grid, nonneg=True) for _ in range(100)]
    hl = [(random_smooth_potential(rng, grid, nonneg=True),
           random_smooth_potential(rng, grid, nonneg=True)) for _ in range(200)]
    bll_grid = SpaceGrid(8.0, 321)
    bll = []
    for _ in range(50):
        fs = [random_smooth_potential(rng, bll_grid, nonneg=True, center_span=3.0)
              for _ in range(3)]
        coeffs = rng.integers(-2, 3, size=(3, 2)).astype(float)
        if np.all(coeffs == 0):
            coeffs[0, 0] = 1.0
        bll.append((fs, coeffs))
    sg, tg = SpaceGrid(10.0, 201), TimeGrid(0.0, 2.0, 160)
    steiner = [random_smooth_deviation(rng, tg, sg) for _ in range(50)]
    shifted = SpaceTimeDeviation.time_constant(tg, Potential(sg, 1.0 / np.cosh(sg.x - 1.0) ** 2))
    bound_grid = SpaceGrid(20.0, 2001)
    bounds = [random_smooth_potential(rng, bound_grid, nonneg=False) for _ in range(100)]
    rho801 = random_smooth_deviation(rng, TimeGrid(0.0, 8.0, 800), SpaceGrid(20.0, 801))
    return {
        "fields": fields, "sd": sd, "hl": hl, "bll": bll, "steiner": steiner,
        "shifted": shifted, "sech2": spectral.rho_star(SpaceGrid(20.0, 4001)),
        "bounds": bounds, "rho801": rho801,
    }


def _probe_pass(inp: Inputs, rec: PassRecord) -> None:
    d = inp.data
    ref = inp.reference

    def checked(name, values, problems, tol=None):
        rec.values[name] = values
        return problems + compare(name, values, ref, tol or {})

    for i, rho in enumerate(d["fields"]):
        def opnorm(i=i, rho=rho):
            est = solver.operator_norm(rho, 0.0, 2.0, iters=PROBE_POWER_ITERS).value
            bound = math.exp(spectral.f_time_integral(rho))
            problems = [] if est <= bound * (1 + 1e-3) else [
                f"field {i}: norm {est:.6f} above bound {bound:.6f}"]
            # a field that settles within the ten iterations stops at a
            # relative change of 1e-8, which round-off can move by one step
            return checked(f"opnorm_{i}", {"norm": est, "bound": bound}, problems,
                           {"norm": (1e-6, 0.0)})
        rec.op(f"opnorm_{i}", opnorm)

    def sd_rearrange():
        drift, total, idempotent = 0.0, 0.0, True
        for f in d["sd"]:
            fs = rearrange.sym_decr_rearrange(f)
            norm = l2_norm_space(fs)
            drift = max(drift, abs(norm - l2_norm_space(f)))
            total += norm
            idempotent &= np.array_equal(rearrange.sym_decr_rearrange(fs).values, fs.values)
        problems = [] if drift <= 1e-10 else [f"rearrangement moved the L2 norm by {drift:.3g}"]
        if not idempotent:
            problems.append("rearrangement is not bitwise idempotent")
        return checked("sd_rearrange", {"norm_sum": total}, problems)
    rec.op("sd_rearrange", sd_rearrange)

    def hardy_littlewood():
        pairs = [rearrange.hardy_littlewood_check(f, g) for f, g in d["hl"]]
        worst = max(lhs - rhs for lhs, rhs in pairs)
        problems = [] if worst <= 1e-9 else [f"Hardy-Littlewood violated by {worst:.3g}"]
        return checked("hardy_littlewood", {"lhs_sum": sum(p[0] for p in pairs),
                                            "rhs_sum": sum(p[1] for p in pairs)}, problems)
    rec.op("hardy_littlewood", hardy_littlewood)

    def bll():
        pairs = [rearrange.bll_check(*fs, coeffs) for fs, coeffs in d["bll"]]
        worst = max(lhs - rhs - 1e-8 * (1 + rhs) for lhs, rhs in pairs)
        problems = [] if worst <= 0.0 else [f"multilinear inequality violated by {worst:.3g}"]
        return checked("bll", {"lhs_sum": sum(p[0] for p in pairs),
                               "rhs_sum": sum(p[1] for p in pairs)}, problems)
    rec.op("bll", bll)

    def steiner_z():
        pairs = [rearrange.steiner_increases_z(rho) for rho in d["steiner"]]
        worst = max(z / (z_s * (1 + 1e-4)) for z, z_s in pairs)
        problems = [] if worst <= 1.0 else [f"Steiner monotonicity violated, ratio {worst:.6f}"]
        return checked("steiner_z", {"log_z_sum": sum(math.log(p[0]) for p in pairs),
                                     "log_zs_sum": sum(math.log(p[1]) for p in pairs)}, problems)
    rec.op("steiner_z", steiner_z)

    def steiner_gap():
        z, z_s = rearrange.steiner_increases_z(d["shifted"])
        gap = (z_s - z) / z
        problems = [] if gap >= 1e-4 else [f"strict Steiner gap {gap:.3g} below 1e-4"]
        return checked("steiner_gap", {"gap": gap}, problems)
    rec.op("steiner_gap", steiner_gap)

    def ground_state():
        value = spectral.ground_state(d["sech2"]).value
        problems = [] if abs(value - 0.5) <= 1e-4 else [f"F(sech^2) = {value}"]
        return checked("ground_state_sech2", {"F": value}, problems)
    rec.op("ground_state_sech2", ground_state)

    def potbd():
        bounds = [spectral.potbd_bound(phi) for phi in d["bounds"]]
        problems = [] if all(math.isfinite(b) and b > 0 for b in bounds) else [
            "non-finite or non-positive ground-state bound"]
        return checked("potbd", {"bound_sum": sum(bounds)}, problems)
    rec.op("potbd", potbd)

    def solve_801():
        rho = d["rho801"]
        log_z = solver.solve_delta_scaled(rho).log_at(rho.tgrid.t_end, 0.0)
        rec.stats["log_z_801"] = log_z
        problems = [] if math.isfinite(log_z) else [f"log Z = {log_z}"]
        return checked("solve_801", {"log_z": log_z}, problems)
    rec.op("solve_801", solve_801)

    def gradient_801():
        log_z, partials = solver.log_terminal_and_gradient(d["rho801"])
        problems = []
        if not np.all(np.isfinite(partials)) or partials.min() < -1e-12 * partials.max():
            problems.append("gradient partials not finite and nonnegative")
        # the gradient's forward march is the plain solve's march
        plain = rec.stats.get("log_z_801", log_z)
        if abs(log_z - plain) > 1e-12 * (1 + abs(plain)):
            problems.append(f"log Z {log_z!r} differs from the plain solve")
        return checked("gradient_801", {"log_z": log_z, "grad_sum": float(partials.sum())},
                       problems)
    rec.op("gradient_801", gradient_801)


_WORKLOAD_FUNCS = {
    "rate": (_rate_inputs, _rate_pass, False),
    "limit_shape": (_shape_inputs, _shape_pass, False),
    "bridge_mc": (_bridge_inputs, _bridge_pass, True),
    "probes": (_probe_inputs, _probe_pass, True),
}


def make_inputs(workload: str, seed: int, out_dir: Path, reference: dict | None = None) -> Inputs:
    """Generate a workload's inputs; attach its reference when they match the recorded ones."""
    make, _, seeded = _WORKLOAD_FUNCS[workload]
    ref = None
    if reference is not None and (seed == DEFAULT_SEED or not seeded):
        ref = reference[workload]
    return Inputs(workload, make(seed, out_dir), ref)


def run_pass(inp: Inputs) -> PassRecord:
    rec = PassRecord()
    _WORKLOAD_FUNCS[inp.workload][1](inp, rec)
    return rec
