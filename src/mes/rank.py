"""Tensor-rank bounds and product-decomposition certificates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import core
from .core import PureState
from .errors import PreconditionError
# re-exported: mesbench's slocc-sweep calls rank.space_rank_bounds
from .spaces import DimsProfile, RankBound, space_rank_bounds  # noqa: F401

CERTIFICATE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ProductDecomposition:
    """Candidate decomposition: one vector per party per term.

    Equality and hashing are by identity: the vectors are arrays.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple(
            tuple(np.asarray(v, dtype=complex).reshape(-1) for v in term)
            for term in self.terms
        )
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)


def flattening_lower_bound(state: PureState) -> int:
    """Max Schmidt rank over all bipartitions; a lower bound on tensor rank."""
    return max(core.local_ranks(state).bipartition_ranks.values())


def expand_decomposition(
    dims: Sequence[int], decomposition: ProductDecomposition
) -> np.ndarray:
    """Sum of outer products of the terms, as a flat amplitude vector.

    Raises PreconditionError when the sum overflows or is NaN.
    """
    prof = DimsProfile(dims)
    total = np.zeros(prof.dims, dtype=complex)
    for t, term in enumerate(decomposition.terms):
        if len(term) != prof.n:
            raise PreconditionError(f"term {t} has {len(term)} factors for {prof.n} parties")
        for i, v in enumerate(term):
            if v.size != prof.dims[i]:
                raise PreconditionError(
                    f"term {t} factor {i} has length {v.size}, party dimension is {prof.dims[i]}"
                )
        if all(np.any(v) for v in term):
            prod = term[0]
            with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                for v in term[1:]:
                    prod = np.multiply.outer(prod, v)
                total += prod
        else:
            raise PreconditionError(f"term {t} contains a zero factor")
    if not np.isfinite(total).all():
        raise PreconditionError("decomposition expands to NaN or infinite amplitudes")
    return total.reshape(-1)


def verify_decomposition(
    state: PureState, decomposition: ProductDecomposition
) -> bool:
    """Exact-match certificate: the expanded sum reproduces the amplitudes.

    Deviations are measured after scaling both sides by the state's largest
    amplitude magnitude, against an absolute 1e-10 tolerance.
    """
    expanded = expand_decomposition(state.dims, decomposition)
    scale = np.max(np.abs(state.amplitudes))
    # an expansion that overflows once scaled is infinitely far off: rejected
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = np.max(np.abs(expanded / scale - state.amplitudes / scale))
    return bool(deviation <= CERTIFICATE_TOL)


def certificate_bound(
    state: PureState, decomposition: ProductDecomposition
) -> Optional[RankBound]:
    """RankBound from a verified decomposition, tightened by the flattening bound."""
    if not verify_decomposition(state, decomposition):
        return None
    upper = len(decomposition)
    lower = flattening_lower_bound(state)
    return RankBound(lower, upper, lower == upper, ("flattening", "certificate"))


def _matrix_functional(m: int, entries) -> np.ndarray:
    """Vector over the m*m pair basis from {(row, col): coefficient}."""
    v = np.zeros(m * m, dtype=complex)
    for (i, j), c in entries.items():
        v[i * m + j] = c
    return v


def strassen_decomposition() -> ProductDecomposition:
    """Strassen's 7-term decomposition of the 2x2 matrix-multiplication tensor.

    Party 0 carries the output-entry functionals, parties 1 and 2 the two
    input-matrix functionals, matching the |i,j>|i,k>|k,j> index convention
    of construct.matmul_tensor(2).
    """
    f = lambda entries: _matrix_functional(2, entries)
    terms = [
        # (C coefficients, A factor, B factor) per product
        (f({(0, 0): 1, (1, 1): 1}), f({(0, 0): 1, (1, 1): 1}), f({(0, 0): 1, (1, 1): 1})),
        (f({(1, 0): 1, (1, 1): -1}), f({(1, 0): 1, (1, 1): 1}), f({(0, 0): 1})),
        (f({(0, 1): 1, (1, 1): 1}), f({(0, 0): 1}), f({(0, 1): 1, (1, 1): -1})),
        (f({(0, 0): 1, (1, 0): 1}), f({(1, 1): 1}), f({(1, 0): 1, (0, 0): -1})),
        (f({(0, 0): -1, (0, 1): 1}), f({(0, 0): 1, (0, 1): 1}), f({(1, 1): 1})),
        (f({(1, 1): 1}), f({(1, 0): 1, (0, 0): -1}), f({(0, 0): 1, (0, 1): 1})),
        (f({(0, 0): 1}), f({(0, 1): 1, (1, 1): -1}), f({(1, 0): 1, (1, 1): 1})),
    ]
    return ProductDecomposition(tuple(terms))
