"""Seeded generators of smooth random fields for randomized checks.

Everything draws from counter-based Philox streams so suites are exactly
reproducible.  Generated functions are sums of a few smooth bumps that decay
well inside the walls, which keeps trapezoid quadrature and rearrangement
wall effects far below the tolerances they are checked against.
"""

from __future__ import annotations

import numpy as np

from .grids import Potential, SpaceGrid, SpaceTimeDeviation, TimeGrid


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def wall_envelope(grid: SpaceGrid) -> np.ndarray:
    """Smooth window equal to 1 in the bulk and ~1e-16 at the walls."""
    return np.exp(-5.0 * (grid.x / (0.82 * grid.half_width)) ** 10)


def random_smooth_potential(rng: np.random.Generator, grid: SpaceGrid,
                            center_span: float = 5.0,
                            nonneg: bool = True) -> Potential:
    """Sum of 1..3 sech^2/Gaussian bumps with amplitudes in [0.2, 2] and
    widths in [0.7, 3], centered in [-center_span, center_span], optionally signed.

    The wall envelope keeps values below round-off at the half-weight
    trapezoid endpoints, so rearrangements preserve the discrete L2 norm
    to full precision.
    """
    x = grid.x
    vals = np.zeros_like(x)
    for _ in range(int(rng.integers(1, 4))):
        amp = rng.uniform(0.2, 2.0)
        if not nonneg and rng.random() < 0.5:
            amp = -amp
        width = rng.uniform(0.7, 3.0)
        center = rng.uniform(-center_span, center_span)
        if rng.random() < 0.5:
            vals += amp / np.cosh((x - center) / width) ** 2
        else:
            vals += amp * np.exp(-((x - center) / width) ** 2)
    return Potential(grid, vals * wall_envelope(grid))


def random_smooth_deviation(rng: np.random.Generator, tgrid: TimeGrid, sgrid: SpaceGrid,
                            amp_range: tuple = (0.1, 1.0)) -> SpaceTimeDeviation:
    """Nonnegative space-time field: 1..3 separable sech^2 bumps (widths in
    [0.7, 3], centers in [-4, 4]), each modulated slowly in time."""
    x = sgrid.x
    t = tgrid.times
    span = tgrid.t_end - tgrid.t_start
    env = wall_envelope(sgrid)
    vals = np.zeros((t.size, x.size))
    for _ in range(int(rng.integers(1, 4))):
        amp = rng.uniform(*amp_range)
        width = rng.uniform(0.7, 3.0)
        center = rng.uniform(-4.0, 4.0)
        space = env * amp / np.cosh((x - center) / width) ** 2
        phase = rng.uniform(0.0, 2.0 * np.pi)
        freq = rng.uniform(0.0, 2.0 * np.pi)
        mod = 0.5 * (1.0 + np.sin(phase + freq * (t - tgrid.t_start) / span))
        vals += mod[:, None] * space[None, :]
    return SpaceTimeDeviation(tgrid, sgrid, vals)
