"""Test-session set-up for tests/ and benchmark/.

Caps every BLAS library at one thread before any test module imports
numpy.  A trained network depends on the thread count, because a threaded
matrix product sums in another order, so the acceptance verdicts repeat
only at a fixed count.  A value already set in the environment wins.  This
file sits at the repository root because benchmark/test_benchmark.py
imports numpy before any conftest.py under tests/ would run.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
