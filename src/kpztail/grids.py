"""Uniform 1-D space/time grids, quadrature, norms, and the heat kernel.

Space is the truncated line [-L, L] with Dirichlet-zero extension outside;
time is a uniform partition of [t_start, t_end].  Spatial integrals use the
trapezoid rule, time integrals use the left-endpoint rectangle rule.  The
space grid always has an odd number of nodes so that x = 0 is a node and
node i is the exact floating-point negative of node (n-1-i).  A HalfLine
holds the nodes x >= 0 of such a grid and stands for functions even in x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# nodes of a `standard_grid`, 8 MB per array; the largest in use has 4001
MAX_GRID_NODES = 10**6


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform symmetric grid on [-L, L] with an odd number of nodes."""

    half_width: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError(f"n_points must be odd and >= 3, got {self.n_points}")
        if not self.half_width > 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    @property
    def x(self) -> np.ndarray:
        # dx * integer keeps x[i] == -x[n-1-i] exactly and x[center] == 0.0
        m = (self.n_points - 1) // 2
        return self.dx * (np.arange(self.n_points) - m)

    @property
    def center_index(self) -> int:
        return (self.n_points - 1) // 2

    def index_of(self, x: float) -> int:
        """Index of the node at x; raises unless x is a node up to round-off."""
        i = int(round((x + self.half_width) / self.dx))
        if (i < 0 or i >= self.n_points
                or abs(self.dx * (i - self.center_index) - x) > 1e-9 * max(1.0, self.half_width)):
            raise ValueError(f"position {x} is not a grid node of {self}")
        return i

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_points, self.dx)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class HalfLine:
    """The nodes x >= 0 of a SpaceGrid, standing for functions even in x.

    Node 0 is the centre x = 0 and the last node the wall x = L; node j is
    node center_index + j of `full`, bitwise.  The trapezoid weights
    integrate the even extension over [-L, L]: dx at the centre, 2 dx in the
    interior and dx at the wall, so weighted sums equal the full grid's.
    The solver marches such a grid with a reflecting centre row.
    """

    full: SpaceGrid

    @property
    def n_points(self) -> int:
        return self.full.center_index + 1

    @property
    def dx(self) -> float:
        return self.full.dx

    @property
    def x(self) -> np.ndarray:
        return self.full.x[self.full.center_index:]

    @property
    def center_index(self) -> int:
        return 0

    def index_of(self, x: float) -> int:
        """Index of the node at x >= 0; raises unless x is such a node up to round-off."""
        i = self.full.index_of(x) - self.full.center_index
        if i < 0:
            raise ValueError(f"position {x} is not a grid node of {self}")
        return i

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_points, 2.0 * self.dx)
        w[0] = self.dx
        w[-1] = self.dx
        return w

    def unfold(self, values: np.ndarray) -> np.ndarray:
        """Rows of the even extension on `full`: each row mirrored about x = 0."""
        values = np.asarray(values)
        return np.concatenate((values[..., :0:-1], values), axis=-1)


def require_full_line(grid, what: str) -> None:
    """Raise ValueError if `grid` is a HalfLine; `what` names the caller."""
    if isinstance(grid, HalfLine):
        raise ValueError(f"{what} needs a full SpaceGrid, not a half line")


def _step_count(span: float, step: float) -> int:
    """span / step as an integer; raises unless step divides span up to round-off.

    The tolerance is `TimeGrid.index_of`'s 1e-9 max(1, span), so a step is
    used as given and never snapped to a nearby divisor.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    count = span / step
    if not np.isfinite(count):
        raise ValueError(f"step {step} does not divide the span {span} into a finite count")
    n = int(round(count))
    if abs(n * step - span) > 1e-9 * max(1.0, span):
        raise ValueError(f"step {step} does not divide the span {span}")
    return n


def standard_grid(dx: float, half_width: float) -> SpaceGrid:
    """Space grid on [-half_width, half_width] with spacing dx; dx must divide
    half_width, and the grid may have at most MAX_GRID_NODES nodes."""
    n = 2 * _step_count(half_width, dx) + 1
    if n > MAX_GRID_NODES:
        raise ValueError(f"step {dx:g} on [-{half_width:g}, {half_width:g}] gives {n:.3g} "
                         f"nodes, more than the limit of {MAX_GRID_NODES:.3g}")
    return SpaceGrid(half_width, n)


def standard_time_grid(dt: float, t_end: float) -> TimeGrid:
    """Time grid on [0, t_end] with step dt; dt must divide t_end."""
    return TimeGrid(0.0, t_end, _step_count(t_end, dt))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [t_start, t_end] into n_steps steps (n_steps+1 nodes)."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.t_start < 0 or not self.t_end > self.t_start:
            raise ValueError(f"need t_end > t_start >= 0, got [{self.t_start}, {self.t_end}]")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps + 1)

    def index_of(self, t: float) -> int:
        k = int(round((t - self.t_start) / self.dt))
        if k < 0 or k > self.n_steps or abs(self.t_start + k * self.dt - t) > 1e-9 * max(1.0, self.t_end):
            raise ValueError(f"time {t} is not a grid node of {self}")
        return k


def _check_values(values: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(f"{what} has shape {values.shape}, expected {shape}")
    # a time-constant deviation repeats one row through a stride-0 view
    distinct = values[:1] if values.strides[0] == 0 else values
    if not np.all(np.isfinite(distinct)):
        raise ValueError(f"{what} contains non-finite entries")
    return values


@dataclass(frozen=True)
class Potential:
    """A time-independent real function sampled on a SpaceGrid."""

    grid: SpaceGrid | HalfLine
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.values, (self.grid.n_points,), "Potential.values"))


@dataclass(frozen=True)
class SpaceTimeDeviation:
    """A real field rho(t, x) on TimeGrid x SpaceGrid (one row per time node)."""

    tgrid: TimeGrid
    sgrid: SpaceGrid | HalfLine
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = (self.tgrid.n_steps + 1, self.sgrid.n_points)
        object.__setattr__(self, "values", _check_values(self.values, shape, "SpaceTimeDeviation.values"))

    @classmethod
    def time_constant(cls, tgrid: TimeGrid, phi: Potential) -> "SpaceTimeDeviation":
        """phi at every time node, held as one read-only row (a stride-0 view)."""
        vals = np.broadcast_to(phi.values.copy(), (tgrid.n_steps + 1, phi.grid.n_points))
        return cls(tgrid, phi.grid, vals)


@dataclass(frozen=True)
class Field:
    """A solution surface Z(t, x) with a strict-positivity flag."""

    tgrid: TimeGrid
    sgrid: SpaceGrid | HalfLine
    values: np.ndarray = field(repr=False)
    strictly_positive: bool = False

    def __post_init__(self):
        shape = (self.tgrid.n_steps + 1, self.sgrid.n_points)
        object.__setattr__(self, "values", _check_values(self.values, shape, "Field.values"))
        if self.strictly_positive and not np.all(self.values > 0):
            raise ValueError("Field flagged strictly_positive but holds non-positive values")


def heat_kernel(t, x):
    """Gaussian kernel (2*pi*t)^(-1/2) exp(-x^2/(2t)); t must be positive."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("heat_kernel requires t > 0")
    x = np.asarray(x, dtype=float)
    out = np.exp(-(x * x) / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)
    return float(out) if out.ndim == 0 else out


def l2_norm_space(f: Potential) -> float:
    """Trapezoid approximation of the spatial L2 norm of f."""
    return float(np.sqrt(np.dot(f.grid.trapezoid_weights(), f.values**2)))


def l2_norm_spacetime(rho: SpaceTimeDeviation) -> float:
    """Space-time L2 norm: trapezoid in space, left-rectangle in time.

    The rectangle rule sums slices 0..n_steps-1, so the final time slice
    carries no weight.
    """
    w = rho.sgrid.trapezoid_weights()
    slice_sq = rho.values[:-1] ** 2 @ w
    return float(np.sqrt(rho.tgrid.dt * slice_sq.sum()))


# --- serialization -----------------------------------------------------------

def format_value(v: float) -> str:
    """Locale-independent decimal with 12 significant digits."""
    return f"{v:.12g}"


def rows_csv(header: str, rows) -> str:
    """CSV body: the header line, then one line per row; floats as `format_value`
    writes them, every other value as `str` does."""
    lines = [header]
    for row in rows:
        lines.append(",".join(format_value(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def samples_to_csv(tgrid: TimeGrid, sgrid: SpaceGrid, values: np.ndarray,
                   t_stride: int = 1, x_stride: int = 1) -> str:
    """CSV body with header 't,x,value', one row per kept (time, space) node."""
    rows = ((t, x, v) for t, row in zip(tgrid.times[::t_stride], values[::t_stride])
            for x, v in zip(sgrid.x[::x_stride], row[::x_stride]))
    return rows_csv("t,x,value", rows)
