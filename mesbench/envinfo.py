"""The environment a run measured in: BLAS threads, versions, cores, cutoff."""

import ctypes
import glob
import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _openblas():
    """The OpenBLAS that numpy's wheel bundles (already loaded, so the same handle)."""
    import numpy

    root = os.path.dirname(numpy.__file__)
    for pattern in ("../numpy.libs/*openblas*.so*", ".libs/*openblas*.so*"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            try:
                return ctypes.CDLL(path)
            except OSError:
                continue
    return None


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    lib = _openblas()
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def record(seed):
    import numpy

    import mes.core

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "mes_rank_eps": (mes.core.rank_eps() if hasattr(mes.core, "rank_eps")
                         else os.environ.get("MES_RANK_EPS", "library default")),
    }
