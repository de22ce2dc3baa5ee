"""Traced stand-in for ``python -m mes.cli``: same command, plus layer timings.

Usage: python mesbench/cli_child.py <mes cli arguments...>

Runs ``mes.cli.main`` on the arguments with every layer wrapped, then
writes one line ``MESBENCH_TRACE {json}`` to stderr with the absolute
CLOCK_MONOTONIC times of interpreter start and of the two imports, the
per-layer totals of the command, and the BLAS thread count in force.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402

T_NUMPY = time.perf_counter()

import mes.cli  # noqa: E402

T_MES = time.perf_counter()

from envinfo import blas_threads  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install(cli=True)
    tracer.enable()
    try:
        code = mes.cli.main(sys.argv[1:])
    finally:
        tracer.disable()
        sys.stdout.flush()
    record = {"t_start": T_START, "t_numpy": T_NUMPY, "t_mes": T_MES,
              "layers": layer_totals(tracer), "blas_threads": blas_threads()}
    print("MESBENCH_TRACE " + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
