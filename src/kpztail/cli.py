"""Command-line orchestration: subcommand dispatch, config, CSV/JSON artifacts.

Configuration comes from an optional JSON file (--config) overridden by
command-line flags; every run writes a manifest with the resolved
configuration, package version, seeds, and a SHA-256 per output file.  All
floating-point output uses 12 significant digits with '.' as the decimal
separator, so repeated runs with one configuration produce byte-identical
CSV bodies.  The default output directory honors the KPZTAIL_OUT
environment variable.

Each flag's accepted values are declared once, as its type= callable, and a
--config value is converted by the same callable.  Every bad input, whether
a value outside its flag's domain, a usage error, an unreadable config file
or a ValueError of the library, leaves `main` by one path: one stderr line
"error: ..." and exit code 2, before any output directory is written.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, bridge, rearrange, selftest, solver, spectral
from .grids import (
    Potential,
    SpaceGrid,
    format_value,
    l2_norm_space,
    rows_csv,
    samples_to_csv,
    standard_grid,
)
from .testing import random_smooth_potential, rng_from_seed
from .variational import RateOptions, rate_phi


# histogram bins of `hitting-time`, one CSV row each
MAX_BINS = 10**5
# `rearrange-check` trials, about 0.25 ms each on the default grid
MAX_TRIALS = 10**5
# `rearrange-check` trials times grid nodes: MAX_TRIALS on the default
# 401-node grid; a trial on 800001 nodes takes about 0.2 s
MAX_TRIAL_NODES = MAX_TRIALS * 401


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, which `main` reports."""

    def error(self, message):
        raise ValueError(message)


def _domain(what: str, convert, accept):
    """A type= callable: the text converted by `convert`, refused unless `accept`
    holds; argparse prefixes the refusal with the flag."""
    def parse(text: str):
        # an ArgumentTypeError comes from a list's item
        with contextlib.suppress(ValueError, argparse.ArgumentTypeError):
            if accept(value := convert(text)):
                return value
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


def _count(cap: float = math.inf):
    return _domain(f"an integer in [1, {cap}]", int, lambda v: 1 <= v <= cap)


def _list_of(what: str, item):
    return _domain(f"a non-empty comma-separated list of distinct {what}",
                   lambda text: [item(v) for v in text.split(",") if v],
                   lambda values: values and len(set(values)) == len(values))


def _seed(offset: int = 0):
    """A Philox key that stays one when `offset` is added to it."""
    top = f"2**128 - {offset}" if offset else "2**128"
    return _domain(f"an integer in [0, {top})", int, lambda v: 0 <= v < 2**128 - offset)


_FINITE = _domain("finite", float, math.isfinite)
_POSITIVE = _domain("positive and finite", float, lambda v: 0 < v < math.inf)
_DEPTH = _domain("a depth in (0, 32]", float, lambda v: 0 < v <= 32)  # rate_phi's depths
_DEPTHS = _list_of("depths in (0, 32]", _DEPTH)
_CRITERIA = _list_of(f"criteria from {', '.join(map(str, selftest.CHECKS))}",
                     _domain("a criterion", int, selftest.CHECKS.__contains__))
_STEPS = _domain(f"0 or an integer in [2, {bridge.MAX_BRIDGE_STEPS}]", int,
                 lambda v: v == 0 or 2 <= v <= bridge.MAX_BRIDGE_STEPS)


def _write_artifacts(out_dir: Path, subcommand: str, config: dict, files: dict,
                     passed: bool | None = None, extra: dict | None = None) -> None:
    """Write the output files and a manifest; `extra` entries go into the
    manifest next to the hashes, not into any hashed output."""
    out_dir.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name, body in files.items():
        data = body.encode() if isinstance(body, str) else body
        (out_dir / name).parent.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_bytes(data)
        hashes[name] = hashlib.sha256(data).hexdigest()
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "version": __version__,
        "outputs": hashes,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if passed is not None:
        manifest["passed"] = passed
    manifest.update(extra or {})
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _json_body(obj) -> str:
    """The JSON text of a report; a NaN or infinite value raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _args_config(args) -> dict:
    return {k: v for k, v in vars(args).items()
            if k != "fn" and isinstance(v, (int, float, str, bool, list, tuple, type(None)))}


def _space_grid(args) -> SpaceGrid:
    """`standard_grid` of --dx and --half-width; its ValueError names both flags."""
    try:
        return standard_grid(args.dx, args.half_width)
    except ValueError as exc:
        raise ValueError(f"--dx and --half-width: {exc}") from None


def _named_potential(name: str, grid: SpaceGrid, amplitude: float, width: float,
                     center: float) -> Potential:
    if width < grid.dx:
        raise ValueError(f"--width must be at least the space step {grid.dx:g}, got {width:g}; "
                         "a narrower bump is a one-node spike")
    if name == "rstar":
        return spectral.r_star(grid)
    with np.errstate(over="ignore"):  # far from the center the bump is 0, even where y overflows
        y = (grid.x - center) / width
        if name == "sech2":
            return Potential(grid, amplitude / np.cosh(y) ** 2)
        return Potential(grid, amplitude * np.exp(-y**2))  # gaussian


# --- subcommand handlers -------------------------------------------------------

def _cmd_spectral(args) -> int:
    grid = _space_grid(args)
    phi = _named_potential(args.phi, grid, args.amplitude, args.width, args.center)
    # F, the bound and the L4 norm in gns_ratio grow like the amplitude, its
    # 4/3 power and its 4th power
    try:
        with np.errstate(over="raise", invalid="raise"):
            f_value = spectral.ground_state(phi).value
            bound = spectral.potbd_bound(phi)
            gns = spectral.gns_ratio(phi)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise ValueError(f"--amplitude {args.amplitude:g} takes the spectral report out of "
                         f"the float range ({exc})") from None
    except ValueError as exc:
        if not phi.values.any():  # the bump lies outside the box
            raise
        # a bump far wider than the box is constant on it
        raise ValueError(f"--width {args.width:g} makes the potential constant on the box "
                         f"({exc})") from None
    report = {
        "potential": args.phi,
        "F": f_value,
        "bound": bound,
        "defect": 1.0 - f_value / bound if bound > 0 else None,
        "gns_ratio": gns,
    }
    _write_artifacts(Path(args.out), "spectral", _args_config(args), {
        "spectral.json": _json_body(report),
    })
    print(f"F = {report['F']:.10g}, bound = {bound:.10g}")
    return 0


def _cmd_rearrange_check(args) -> int:
    grid = _space_grid(args)
    if args.trials * grid.n_points > MAX_TRIAL_NODES:
        raise ValueError(f"--trials, --dx and --half-width: {args.trials} trials on "
                         f"{grid.n_points} grid nodes exceed the limit of {MAX_TRIAL_NODES:.3g} "
                         "trial-nodes")
    rng = rng_from_seed(args.seed)
    worst_norm = 0.0
    worst_hl = -np.inf
    for _ in range(args.trials):
        f = random_smooth_potential(rng, grid, nonneg=True)
        g = random_smooth_potential(rng, grid, nonneg=True)
        fs = rearrange.sym_decr_rearrange(f)
        worst_norm = max(worst_norm, abs(l2_norm_space(fs) - l2_norm_space(f)))
        lhs, rhs = rearrange.hardy_littlewood_check(f, g)
        worst_hl = max(worst_hl, lhs - rhs)
    report = {
        "trials": args.trials,
        "worst_norm_change": worst_norm,
        "worst_hl_excess": worst_hl,
        "norm_ok": worst_norm <= 1e-10,
        "hl_ok": worst_hl <= 1e-9,
    }
    passed = report["norm_ok"] and report["hl_ok"]
    _write_artifacts(Path(args.out), "rearrange-check", _args_config(args),
                     {"rearrange_check.json": _json_body(report)}, passed)
    print(f"rearrange-check: {'PASS' if passed else 'FAIL'} "
          f"(norm drift {worst_norm:.3g}, HL excess {worst_hl:.3g})")
    return 0 if passed else 1


def _rate_report_files(report) -> dict:
    """The report's files; the minimizer CSV keeps at most about 201 nodes per axis."""
    rho = report.minimizer
    t_stride = max(1, (rho.tgrid.n_steps + 1) // 201)
    x_stride = max(1, rho.sgrid.n_points // 201)
    descriptor = {
        "half_width": rho.sgrid.half_width,
        "n_points": rho.sgrid.n_points,
        "t_start": rho.tgrid.t_start,
        "t_end": rho.tgrid.t_end,
        "n_steps": rho.tgrid.n_steps,
        "csv_t_stride": t_stride,
        "csv_x_stride": x_stride,
    }
    return {
        "rate_report.json": _json_body({
            "lambda": report.lam,
            "phi_hat": report.phi_hat,
            "phi_hat_over_lam32": report.scaled_ratio,
            "constraint_residual": report.constraint_residual,
            "iterations": report.iterations,
            "upper_certificate": report.upper_certificate,
            "converged": report.converged,
        }),
        "minimizer.csv": samples_to_csv(rho.tgrid, rho.sgrid, rho.values,
                                        t_stride=t_stride, x_stride=x_stride),
        "minimizer_grid.json": _json_body(descriptor),
    }


def _rate_options(args) -> RateOptions:
    """The rate and tail-law flags as RateOptions; raises ValueError on bad values."""
    kw = {"n_points": args.n_points, "dt": args.dt, "max_iterations": args.max_iterations}
    if args.subcommand == "rate" and args.zeta is not None:
        kw["zeta_candidates"] = (args.zeta,)
    return RateOptions(**kw)


def _cmd_rate(args) -> int:
    report = rate_phi(args.lam, _rate_options(args))
    rounds = [dict(zip(("eta", "log_z", "kkt_norm", "iterations"), r)) for r in report.rounds]
    _write_artifacts(Path(args.out), "rate", _args_config(args), _rate_report_files(report),
                     report.converged, extra={"rounds": rounds})
    print(f"lambda={args.lam}: phi_hat={report.phi_hat:.6g} "
          f"ratio={report.scaled_ratio:.4f} converged={report.converged}")
    return 0 if report.converged else 1


def _cmd_tail_law(args) -> int:
    if args.lambdas is None:
        raise ValueError("--lambdas is required, on the command line or in --config")
    lams = sorted(args.lambdas)
    rows = [row for row, _, _ in selftest.tail_law(lams, _rate_options(args))]
    ratios = [row.ratio for row in rows]
    all_converged = all(row.converged for row in rows)
    trend_ok = all(b <= a * 1.05 for a, b in zip(ratios, ratios[1:]))
    bracket_ok = all(1.0 <= row.ratio <= row.certificate_ratio + 1e-9 for row in rows)
    summary = {
        "lambdas": lams,
        "ratios": ratios,
        "trend_nonincreasing_5pct": trend_ok,
        "bracketed_by_1_and_certificate": bracket_ok,
        "all_converged": all_converged,
    }
    passed = all_converged and trend_ok and bracket_ok
    _write_artifacts(Path(args.out), "tail-law", _args_config(args),
                     {"tail_law.csv": rows_csv(selftest.TAIL_LAW_HEADER, rows),
                      "tail_law.json": _json_body(summary)}, passed)
    for row in rows:
        print(f"lambda={row.lam:g}: ratio={row.ratio:.4f} certificate={row.certificate_ratio:.4f} "
              f"distance={row.minimizer_distance:.4f} converged={bool(row.converged)}")
    print(f"tail-law: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _cmd_limit_shape(args) -> int:
    opts = bridge.ShapeOptions(dx=args.dx, dt=args.dt, mc_paths=args.paths, mc_seed=args.seed)
    try:
        prof = bridge.shape_profile(args.lam, args.delta, backend=args.backend, opts=opts)
    except bridge.BridgeLimitError as exc:
        raise ValueError(f"--lambda and --paths: {exc}") from None
    summary = {
        "lambda": args.lam,
        "delta": args.delta,
        "backend": args.backend,
        "sup_error": prof.sup_error,
    }
    _write_artifacts(Path(args.out), "limit-shape", _args_config(args), {
        "shape_profile.csv": prof.to_csv(),
        "shape_summary.json": _json_body(summary),
    })
    print(f"limit-shape lambda={args.lam}: sup|h - h*| = {prof.sup_error:.4f}")
    return 0


def _cmd_hitting_time(args) -> int:
    horizon = args.lam * args.t
    s_vals = np.linspace(horizon / 400, horizon * (1 - 1e-6), 400)
    where = f"--t {args.t:g}, --x {args.x:g}, --lambda {args.lam:g}"
    try:
        dens = bridge.hitting_density(s_vals, args.t, args.x, args.lam)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if not np.any(dens > 0):
        raise ValueError(f"{where}: the hitting density underflows to 0 at every tabulated s")
    cfg = bridge.BridgeConfig(n_paths=args.paths, n_time_steps=args.steps, seed=args.seed)
    try:
        hits = bridge.first_hitting_times(args.lam * args.x, horizon, cfg)
    except bridge.BridgeLimitError as exc:
        raise ValueError(f"--paths and --steps: {exc}") from None
    edges = np.linspace(0.0, horizon, args.bins + 1)
    counts, _ = np.histogram(hits, bins=edges)
    _write_artifacts(Path(args.out), "hitting-time", _args_config(args), {
        "hitting_density.csv": rows_csv("s,density", zip(s_vals, dens)),
        "hitting_histogram.csv": rows_csv("bin_lo,bin_hi,count", zip(edges, edges[1:], counts)),
    })
    print(f"hitting-time: {args.paths} paths over [0, {horizon:g}], "
          f"{args.bins} bins written")
    return 0


def _cmd_fk(args) -> int:
    grid = _space_grid(args)
    phi = _named_potential(args.phi, grid, args.amplitude, args.width, args.center)
    cfg = bridge.BridgeConfig(n_paths=args.paths, seed=args.seed)
    try:
        mean, se = bridge.fk_estimate(phi, args.duration, args.start, args.end, cfg)
    except bridge.BridgeLimitError as exc:
        raise ValueError(f"--duration and --paths: {exc}") from None
    report = {
        "phi": args.phi,
        "duration": args.duration,
        "from": args.start,
        "to": args.end,
        "n_paths": args.paths,
        "mean": mean,
        "std_error": se,
    }
    _write_artifacts(Path(args.out), "fk", _args_config(args), {"fk_estimate.json": _json_body(report)})
    print(f"fk: mean = {mean:.8g} +- {se:.3g}")
    return 0


def _cmd_figure1(args) -> int:
    ts = (0.5, 1.0, 1.5)
    xs = 0.01 * (np.arange(601) - 300)  # exact zero at the center node
    header = "x," + ",".join(f"h_star_t{format_value(t)}" for t in ts)
    rows = ((x, *vals) for x, vals in zip(xs, bridge.h_star(np.array(ts), xs[:, None])))
    _write_artifacts(Path(args.out), "figure1", _args_config(args),
                     {"figure1.csv": rows_csv(header, rows)})
    print(f"figure1: wrote {len(xs)} rows; h*(1, 0) = {bridge.h_star(1.0, 0.0)}")
    return 0


def _cmd_selftest(args) -> int:
    profile = selftest.QUICK if args.quick else selftest.FULL
    results = selftest.run_selftest(args.criteria, profile)
    files = {}
    for res in results:
        for name, body in res.artifacts.items():
            files[f"criterion_{res.criterion}/{name}"] = body
    summary = {
        "profile": profile.name,
        "criteria": [r.criterion for r in results],
        "results": [
            {"criterion": r.criterion, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    files["selftest_summary.json"] = _json_body(summary)
    _write_artifacts(Path(args.out), "selftest", _args_config(args), files, summary["all_passed"])
    for r in results:
        print(f"criterion {r.criterion} ({r.name}): {'PASS' if r.passed else 'FAIL'} - {r.detail}")
    return 0 if summary["all_passed"] else 1


# --- parser ----------------------------------------------------------------------

def _add_common(p, seed=None):
    """--out and --config; --seed, of type `seed`, only for the subcommands that
    draw random numbers."""
    p.add_argument("--out", default=os.environ.get("KPZTAIL_OUT", "out"),
                   help="output directory (default $KPZTAIL_OUT or ./out)")
    p.add_argument("--config", default=None, help="JSON file with defaults; flags win")
    if seed:
        p.add_argument("--seed", type=seed, default=12345)


def _add_grid_flags(p, dx=0.01, half_width=20.0):
    p.add_argument("--dx", type=_POSITIVE, default=dx)
    p.add_argument("--half-width", dest="half_width", type=_POSITIVE, default=half_width)


def _add_potential_flags(p):
    p.add_argument("--phi", default="sech2", choices=("sech2", "rstar", "gaussian"))
    p.add_argument("--amplitude", type=_FINITE, default=1.0)
    p.add_argument("--width", type=_POSITIVE, default=1.0)
    p.add_argument("--center", type=_FINITE, default=0.0)


def _add_rate_flags(p):
    p.add_argument("--n-points", dest="n_points", type=_count(), default=801)
    p.add_argument("--dt", type=_POSITIVE, default=0.01)
    p.add_argument("--max-iterations", dest="max_iterations", type=_count(), default=2000)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="kpztail", description="Desk-scale weak-noise KPZ upper-tail experiments")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectral", help="ground-state functional report for one potential")
    _add_common(p)
    _add_grid_flags(p)
    _add_potential_flags(p)
    p.set_defaults(fn=_cmd_spectral)

    p = sub.add_parser("rearrange-check", help="randomized rearrangement suite")
    _add_common(p, seed=_seed())
    _add_grid_flags(p, dx=0.05, half_width=10.0)
    p.add_argument("--trials", type=_count(MAX_TRIALS), default=100)
    p.set_defaults(fn=_cmd_rearrange_check)

    p = sub.add_parser("rate", help="rate-function optimization at one tail depth")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=_DEPTH, required=True)
    p.add_argument("--zeta", type=_POSITIVE, default=None)
    _add_rate_flags(p)
    p.set_defaults(fn=_cmd_rate)

    p = sub.add_parser("tail-law", help="scaled rate values across tail depths")
    _add_common(p)
    # required, but a --config file may give it instead
    p.add_argument("--lambdas", type=_DEPTHS, help="comma-separated depths, e.g. 4,8,16")
    _add_rate_flags(p)
    p.set_defaults(fn=_cmd_tail_law)

    p = sub.add_parser("limit-shape", help="tilted-height field vs the limit shape")
    # read by the mc backend, which adds up to mc_seed_offset to it
    _add_common(p, seed=_seed(bridge.ShapeOptions().mc_seed_offset))
    p.add_argument("--lambda", dest="lam", type=_POSITIVE, required=True)
    p.add_argument("--delta", type=_POSITIVE, required=True)
    p.add_argument("--backend", choices=("pde", "mc"), default="pde")
    p.add_argument("--dx", type=_POSITIVE, default=0.05)
    p.add_argument("--dt", type=_POSITIVE, default=0.01)
    p.add_argument("--paths", type=_count(), default=50_000)
    p.set_defaults(fn=_cmd_limit_shape)

    p = sub.add_parser("hitting-time", help="first-hitting density table and MC histogram")
    _add_common(p, seed=_seed())
    p.add_argument("--t", type=_POSITIVE, required=True)
    p.add_argument("--x", type=_FINITE, required=True)
    p.add_argument("--lambda", dest="lam", type=_POSITIVE, required=True)
    p.add_argument("--paths", type=_count(bridge.MAX_HITTING_PATHS), default=100_000)
    p.add_argument("--bins", type=_count(MAX_BINS), default=200)
    p.add_argument("--steps", type=_STEPS, default=2000,
                   help="time steps per path; 0 means 20 per unit duration")
    p.set_defaults(fn=_cmd_hitting_time)

    p = sub.add_parser("fk", help="Monte Carlo Feynman-Kac estimate")
    _add_common(p, seed=_seed())
    _add_grid_flags(p)
    _add_potential_flags(p)
    p.add_argument("--duration", type=_POSITIVE, required=True)
    p.add_argument("--from", dest="start", type=_FINITE, default=0.0)
    p.add_argument("--to", dest="end", type=_FINITE, default=0.0)
    p.add_argument("--paths", type=_count(), default=100_000)
    p.set_defaults(fn=_cmd_fk)

    p = sub.add_parser("figure1", help="limit-shape sections at t = 0.5, 1, 1.5")
    _add_common(p)
    p.set_defaults(fn=_cmd_figure1)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    _add_common(p)
    p.add_argument("--quick", action="store_true", help="reduced trial counts and grids")
    p.add_argument("--criteria", type=_CRITERIA, default=None,
                   help="comma-separated criterion numbers (default: all)")
    p.set_defaults(fn=_cmd_selftest)
    return ap


def _apply_config(ap: argparse.ArgumentParser, args, argv) -> argparse.Namespace:
    """Parse again with the --config file's values as the subcommand's defaults.

    A value is converted by the option's own type= from the text it would
    have after the flag (a list as its comma-joined items), so it is checked
    as that text would be, even where a flag overrides it.  A switch takes a
    JSON boolean and an option without type= a string among its choices.
    Flags on the command line still win.
    """
    try:
        loaded = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        ap.error(f"--config: cannot read config file {args.config}: {exc}")
    if not isinstance(loaded, dict):
        ap.error(f"--config: config file {args.config} must hold a JSON object")
    subparsers = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices[args.subcommand]
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    for key, value in loaded.items():
        action = actions.get(key)
        if action is None:
            ap.error(f"unknown config field {key!r}")
        if action.type is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            try:
                loaded[key] = action.type(text)
            except argparse.ArgumentTypeError as exc:
                ap.error(f"config field {key!r}: {exc}")
        elif (not isinstance(value, bool if action.nargs == 0 else str)
              or action.choices and value not in action.choices):
            ap.error(f"config field {key!r}: invalid value {value!r}")
    sub.set_defaults(**loaded)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    try:
        ap = build_parser()
        args = ap.parse_args(argv)
        if args.config:
            args = _apply_config(ap, args, argv)
        return args.fn(args)
    except (ValueError, solver.SolverInstabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
