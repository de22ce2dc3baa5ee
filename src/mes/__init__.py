"""Multipartite entanglement analysis under stochastic LOCC.

Dense pure-state algebra, state-family constructors, SLOCC predicates and
classification via the complement map, tensor-rank bounds and certificates,
plus a JSON-speaking CLI (`mes`).

`import mes` runs only `mes.spaces`, the profile arithmetic, which needs no
numpy. The five layer modules are registered in `sys.modules` and on the
package at once, but each runs (and imports numpy) on its first attribute
access, so a question about a space alone never loads numpy.
"""

import importlib.util
import sys

from . import spaces


def _lazy(name: str):
    """mes.<name>, registered in sys.modules; it executes on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


construct, core, io, rank, slocc = map(_lazy, ("construct", "core", "io", "rank", "slocc"))

__version__ = "0.1.0"
