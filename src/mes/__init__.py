"""Multipartite entanglement analysis under stochastic LOCC.

Dense pure-state algebra, state-family constructors, SLOCC predicates and
classification via the complement map, tensor-rank bounds and certificates,
plus a JSON-speaking CLI (`mes`).
"""

from . import construct, core, io, rank, slocc

__version__ = "0.1.0"
