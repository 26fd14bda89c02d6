"""Desk-scale numerics for the weak-noise KPZ upper tail.

Subpackages cover the discretization primitives (grids), the tilted heat
solvers (solver), the ground-state functional and its sharp bound
(spectral), discrete rearrangement inequalities (rearrange), the
constrained rate-function optimizer (variational), and bridge Monte Carlo
with the limit shape (bridge).  The cli module wires everything into
reproducible experiments.

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is already
set.  kpztail never gives BLAS threaded work: the CN marches are
tridiagonal LAPACK solves and the bridge Monte Carlo is elementwise.  Yet
numpy's and scipy's OpenBLAS each start an idle worker per extra core, and
the workers spin while the libraries load, so without the pin a fresh
interpreter spends CPU time on nothing; the results are bitwise equal
either way.  The measured start-up times are in the CHANGES.md entry "One
OpenBLAS thread from process start" and in BENCH_740b689.json.  A value
set in the environment, e.g. OPENBLAS_NUM_THREADS=2, still wins.  The pin
acts only when kpztail is imported before numpy, as the `kpztail` command
does: OpenBLAS reads the variable once, when it is loaded.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
