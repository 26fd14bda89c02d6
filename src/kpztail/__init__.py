"""Desk-scale numerics for the weak-noise KPZ upper tail.

Subpackages cover the discretization primitives (grids), the tilted heat
solvers (solver), the ground-state functional and its sharp bound
(spectral), discrete rearrangement inequalities (rearrange), the
constrained rate-function optimizer (variational), and bridge Monte Carlo
with the limit shape (bridge).  The cli module wires everything into
reproducible experiments.

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is already
set.  kpztail never gives BLAS threaded work: the CN marches are
tridiagonal LAPACK solves and the bridge Monte Carlo is elementwise, so a
pass's CPU time equals its wall time within 0.1%.  Yet numpy's and scipy's
OpenBLAS each start an idle worker per extra core, and the workers spin
while the libraries load.  On a 2-vCPU VM the pin cut the median CPU time
of a fresh interpreter up to its benchmark inputs (eight starts per
workload) from 0.960 to 0.709 s for the rate optimizer, 0.907 to 0.599 s
for the limit shape, 1.037 to 0.742 s for the bridge Monte Carlo and 1.028
to 0.787 s for the solver probes, with bitwise equal results.  A value set
in the environment, e.g. OPENBLAS_NUM_THREADS=2, still wins.  The pin acts
only when kpztail is imported before numpy, as the `kpztail` command does:
OpenBLAS reads the variable once, when it is loaded.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
