"""BLAS on one thread per call, set before numpy loads.

pmvl's matrices are hundreds of rows by tens of columns, where a BLAS thread
per core only adds synchronisation: soft-impute of 400x[100,80,60] took
9.3 s with 2 OpenBLAS threads against 5.3 s with 1 (2 vCPUs). So importing
pmvl sets OPENBLAS_NUM_THREADS and MKL_NUM_THREADS to 1 where they are
unset. That works only before numpy loads, which is why pmvl/__init__.py
imports this module first; a process that loads numpy earlier keeps its
BLAS threads, and should set these variables itself to get one.
"""

import os
import sys

if "numpy" not in sys.modules:
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")

# True when numpy's BLAS started on one thread per call, set above or by the
# process. impute_svd fits wide views in forked processes only then: with
# 2 OpenBLAS threads per call on 2 vCPUs, two processes took 73-134 s against
# 19-20 s serial for two masks of 400x[100,80,60].
ONE_THREAD = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
