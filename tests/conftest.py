"""Pin BLAS to one thread before any test module imports numpy.

The multi-fidelity acceptance trajectory moves with the BLAS thread count
(threaded reductions round differently), and small factorizations slow down
several-fold when a second BLAS thread competes for a busy core.  One thread
makes the suite's results and run time independent of the host.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
