"""Tensor-rank bounds and product-decomposition certificates."""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from . import core
from .core import PureState
from .errors import PreconditionError, UndecidableError
# re-exported: mesbench's slocc-sweep calls rank.space_rank_bounds
from .spaces import DimsProfile, RankBound, space_rank_bounds  # noqa: F401

CERTIFICATE_TOL = 1e-10


def flattening_lower_bound(state: PureState) -> int:
    """Max Schmidt rank over all bipartitions; a lower bound on tensor rank."""
    return max(core.local_ranks(state).bipartition_ranks.values())


def expand_decomposition(dims: Sequence[int], decomposition: Sequence) -> np.ndarray:
    """Sum of outer products of the terms, as a flat amplitude vector.

    A decomposition is a sequence of terms, each a sequence of one vector per
    party. Raises PreconditionError when the sum overflows or is NaN.
    """
    prof = DimsProfile(dims)
    total = np.zeros(prof.dims, dtype=complex)
    for t, term in enumerate(decomposition):
        if len(term) != prof.n:
            raise PreconditionError(f"term {t} has {len(term)} factors for {prof.n} parties")
        term = [np.asarray(v, dtype=complex).reshape(-1) for v in term]
        for i, v in enumerate(term):
            if v.size != prof.dims[i]:
                raise PreconditionError(
                    f"term {t} factor {i} has length {v.size}, party dimension is {prof.dims[i]}"
                )
        if not all(v.any() for v in term):
            raise PreconditionError(f"term {t} contains a zero factor")
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            total += functools.reduce(np.multiply.outer, term)
    if not np.isfinite(total).all():
        raise PreconditionError("decomposition expands to NaN or infinite amplitudes")
    return total.reshape(-1)


def verify_decomposition(state: PureState, decomposition: Sequence) -> bool:
    """Exact-match certificate: the expanded sum reproduces the amplitudes.

    Each expanded amplitude lies within 1e-10 of its amplitude, relative to
    the state's largest real or imaginary part. Nothing is rescaled, so a
    difference past the float range rejects the certificate.
    """
    expanded = expand_decomposition(state.dims, decomposition)
    amps = state.amplitudes
    with np.errstate(over="ignore"):  # an infinite deviation is rejected below
        deviation = np.abs(expanded - amps).max()
    return bool(deviation <= CERTIFICATE_TOL * np.abs(amps.view(float)).max())


def certificate_bound(state: PureState, decomposition: Sequence) -> RankBound | None:
    """RankBound from a verified decomposition, tightened by the flattening bound."""
    if not verify_decomposition(state, decomposition):
        return None
    upper = len(decomposition)
    lower = flattening_lower_bound(state)
    if lower > upper:
        raise UndecidableError(f"flattening lower bound {lower} > {upper}-term certificate")
    return RankBound(lower, upper, lower == upper, ("flattening", "certificate"))


def strassen_decomposition() -> tuple:
    """Strassen's 7-term decomposition of the 2x2 matrix-multiplication tensor.

    Party 0 carries the output-entry functionals, parties 1 and 2 the two
    input-matrix functionals, matching the |i,j>|i,k>|k,j> index convention
    of construct.matmul_tensor(2).
    """
    # {(row, col): coefficient} -> vector over the pair basis |row, col>
    f = lambda entries: np.array([entries.get(divmod(k, 2), 0) for k in range(4)], dtype=complex)
    return (
        # (C coefficients, A factor, B factor) per product
        (f({(0, 0): 1, (1, 1): 1}), f({(0, 0): 1, (1, 1): 1}), f({(0, 0): 1, (1, 1): 1})),
        (f({(1, 0): 1, (1, 1): -1}), f({(1, 0): 1, (1, 1): 1}), f({(0, 0): 1})),
        (f({(0, 1): 1, (1, 1): 1}), f({(0, 0): 1}), f({(0, 1): 1, (1, 1): -1})),
        (f({(0, 0): 1, (1, 0): 1}), f({(1, 1): 1}), f({(1, 0): 1, (0, 0): -1})),
        (f({(0, 0): -1, (0, 1): 1}), f({(0, 0): 1, (0, 1): 1}), f({(1, 1): 1})),
        (f({(1, 1): 1}), f({(1, 0): 1, (0, 0): -1}), f({(0, 0): 1, (0, 1): 1})),
        (f({(0, 0): 1}), f({(0, 1): 1, (1, 1): -1}), f({(1, 0): 1, (1, 1): 1})),
    )
