"""Spans around calls into the kpztail layers, recorded from outside the package.

Only a traced run installs the wrappers: `Tracer.installed` swaps the module
attributes listed in `TARGETS` for timing wrappers and puts the originals
back when the block ends.  Untraced runs call `verify_untraced` before they
time anything, so a wrapper left behind cannot inflate an end-to-end number.

A span's layer is the module that defines the wrapped function, so
`variational.log_terminal_and_gradient` (the name the optimizer looks up) is
a `solver` span.  Self time is a span's duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from kpztail import bridge, cli, rearrange, solver, spectral, variational

# (module, attribute) pairs that one layer looks up in another, plus the
# public entry points the workloads call directly.
TARGETS = (
    (variational, "rate_phi"),
    (variational, "log_terminal_and_gradient"),
    (variational, "solve_delta_scaled"),
    (variational, "upper_certificate"),
    (rearrange, "steiner"),
    (rearrange, "sym_decr_rearrange"),
    (rearrange, "hardy_littlewood_check"),
    (rearrange, "bll_check"),
    (rearrange, "steiner_increases_z"),
    (solver, "solve_delta"),  # imported at call time by steiner_increases_z
    (solver, "solve_delta_scaled"),
    (solver, "log_terminal_and_gradient"),
    (solver, "operator_norm"),
    (spectral, "ground_state"),
    (spectral, "f_time_integral"),
    (spectral, "potbd_bound"),
    (bridge, "solve_delta_scaled"),
    (bridge, "shape_profile"),  # as cli calls it
    (bridge, "growth_rate"),
    (bridge, "first_hitting_times"),
    (cli, "main"),
)

_ORIGINALS = {(mod.__name__, attr): getattr(mod, attr) for mod, attr in TARGETS}

BENCH_LAYER = "bench"


def verify_untraced() -> None:
    """Raise unless every traced attribute is the package's own function."""
    for mod, attr in TARGETS:
        if getattr(mod, attr) is not _ORIGINALS[(mod.__name__, attr)]:
            raise RuntimeError(f"{mod.__name__}.{attr} is still wrapped; the run would be traced")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _grid_info(args, kwargs, result):
    rho = args[0]
    return {"n": rho.sgrid.n_points, "steps": rho.tgrid.n_steps}


def _opnorm_info(args, kwargs, result):
    rho, s, t = args[:3]
    tg = rho.tgrid
    return {"n": rho.sgrid.n_points, "steps": tg.index_of(t) - tg.index_of(s),
            "iters": result.iterations}


def _ground_state_info(args, kwargs, result):
    return {"n": args[0].grid.n_points}


def _rate_info(args, kwargs, result):
    return {"iters": result.iterations, "converged": result.converged}


def _bridge_cfg(args, kwargs, position):
    return kwargs.get("cfg", args[position] if len(args) > position else None) or bridge.BridgeConfig()


def _growth_info(args, kwargs, result):
    cfg = _bridge_cfg(args, kwargs, 3)
    info = {"paths": cfg.n_paths, "steps": cfg.steps_for(2.0 * args[1])}
    if isinstance(result, tuple):
        info["ess"] = result[1]["ess"]
    return info


def _hitting_info(args, kwargs, result):
    cfg = _bridge_cfg(args, kwargs, 2)
    return {"paths": cfg.n_paths, "steps": cfg.steps_for(args[1])}


_ANNOTATORS = {
    "solver.solve_delta": _grid_info,
    "solver.solve_delta_scaled": _grid_info,
    "solver.log_terminal_and_gradient": _grid_info,
    "solver.operator_norm": _opnorm_info,
    "spectral.ground_state": _ground_state_info,
    "variational.rate_phi": _rate_info,
    "bridge.growth_rate": _growth_info,
    "bridge.first_hitting_times": _hitting_info,
}


class Tracer:
    """In-memory span recorder; `run` tags the spans of one workload pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, perf_counter(), math.nan, parent, self.run)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        annotate = _ANNOTATORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        verify_untraced()
        for mod, attr in TARGETS:
            setattr(mod, attr, self.wrap(getattr(mod, attr)))
        try:
            yield self
        finally:
            for mod, attr in TARGETS:
                setattr(mod, attr, _ORIGINALS[(mod.__name__, attr)])

    @contextmanager
    def root(self, name: str):
        """The span of one whole workload pass (the benchmark's own layer)."""
        self.run += 1
        span = self._open(name, BENCH_LAYER)
        try:
            yield span
        finally:
            self._close(span)

    def run_spans(self, run: int) -> list[Span]:
        return [s for s in self.spans if s.run == run]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md for the list)."""
    own = self_times(spans)
    by_layer = layer_self_times(spans)
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def calls(*names):
        return [s for n in names for s in named.get(n, ())]

    def total(items, key=None):
        return sum((s.info.get(key, 0) if key else s.duration) for s in items)

    def step_us(items, sweeps=lambda s: 1):
        steps = sum(s.info["steps"] * sweeps(s) for s in items)
        return 1e6 * _ratio(total(items), steps)

    fwd = calls("solver.solve_delta", "solver.solve_delta_scaled")
    grad = calls("solver.log_terminal_and_gradient")
    opnorm = calls("solver.operator_norm")
    gs = calls("spectral.ground_state")
    gs201 = [s for s in gs if s.info["n"] == 201]
    gs4001 = [s for s in gs if s.info["n"] == 4001]
    rates = calls("variational.rate_phi")
    certs = calls("variational.upper_certificate")
    steiner = calls("rearrange.steiner")
    bll = calls("rearrange.bll_check")
    growth = calls("bridge.growth_rate")
    hits = calls("bridge.first_hitting_times")
    shapes = calls("bridge.shape_profile")
    roots = [s for s in spans if s.layer == BENCH_LAYER and s.parent is None]

    def path_steps(items):
        return sum(s.info["paths"] * s.info["steps"] for s in items)

    ess = total(growth, "ess")
    return {
        "solver.busy_s": by_layer.get("solver", 0.0),
        "solver.fwd_calls": len(fwd),
        "solver.fwd_step_us": step_us(fwd),
        "solver.grad_calls": len(grad),
        "solver.grad_step_us": step_us(grad),
        "solver.opnorm_iters": total(opnorm, "iters"),
        "solver.opnorm_step_us": step_us(opnorm, lambda s: 2 * s.info["iters"]),
        "solver.fwd_step_us_n801": step_us([s for s in fwd if s.info["n"] == 801]),
        "solver.grad_step_us_n801": step_us([s for s in grad if s.info["n"] == 801]),
        "variational.rate_solve_s": total(rates) - total(certs),
        "variational.picard_iters": total(rates, "iters"),
        "variational.cert_s": total(certs),
        "variational.self_s": by_layer.get("variational", 0.0),
        "variational.converged_frac": _ratio(total(rates, "converged"), len(rates)),
        "rearrange.busy_s": by_layer.get("rearrange", 0.0),
        "rearrange.steiner_calls": len(steiner),
        "rearrange.steiner_ms": 1e3 * _ratio(total(steiner), len(steiner)),
        "rearrange.bll_ms": 1e3 * _ratio(total(bll), len(bll)),
        "spectral.busy_s": by_layer.get("spectral", 0.0),
        "spectral.ground_state_calls": len(gs),
        "spectral.ground_state_us": 1e6 * _ratio(total(gs201), len(gs201)),
        "spectral.ground_state_ms_n4001": 1e3 * _ratio(total(gs4001), len(gs4001)),
        "bridge.busy_s": by_layer.get("bridge", 0.0),
        "bridge.growth_path_steps_per_s": _ratio(path_steps(growth), total(growth)),
        "bridge.hit_path_steps_per_s": _ratio(path_steps(hits), total(hits)),
        "bridge.path_steps_per_s": _ratio(path_steps(growth + hits), total(growth + hits)),
        "bridge.ess": ess,
        "bridge.ess_frac": _ratio(ess, total(growth, "paths")),
        "bridge.ess_per_s": _ratio(ess, total(growth)),
        "bridge.shape_self_s": sum(own[s.id] for s in shapes),
        "cli.self_ms": 1e3 * by_layer.get("cli", 0.0),
        "bench.self_s": by_layer.get(BENCH_LAYER, 0.0),
        "trace.wall_s": total(roots),
        "trace.spans": len(spans) - len(roots),
    }
