"""Dense multipartite pure-state algebra.

States are unnormalized complex amplitude vectors stored row-major over the
party multi-index (party 0 varies slowest). All functions are pure; random
helpers take an explicit numpy Generator.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    EmptyOrFullSubset,
    InvalidPartition,
    LengthMismatch,
    NonFiniteAmplitudes,
    ShapeMismatch,
    UndecidableError,
    ZeroResult,
    ZeroState,
)

DEFAULT_RANK_EPS = 1e-9

# Random invertible draws are rejected while sigma_min < this times sigma_max,
# keeping rank decisions far from the cutoff.
INVERTIBLE_CONDITION_FLOOR = 1e-3


def rank_eps() -> float:
    """Relative singular-value cutoff; MES_RANK_EPS overrides the default.

    Raises ValueError unless the override is a finite float in (0, 1).
    """
    text = os.environ.get("MES_RANK_EPS")
    if text is None:
        return DEFAULT_RANK_EPS
    eps = float(text)
    if not 0.0 < eps < 1.0:  # also false for NaN
        raise ValueError(f"MES_RANK_EPS must be a float in (0, 1), got {text!r}")
    return eps


@dataclass(frozen=True)
class DimsProfile:
    """Ordered subsystem dimensions with derived quantities."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1:
            raise LengthMismatch("profile needs at least one party")
        if any(d < 1 for d in dims):
            raise LengthMismatch(f"dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def sorted_desc(self) -> tuple:
        return tuple(sorted(self.dims, reverse=True))

    @property
    def tail_product(self) -> int:
        """Product of all but the largest dimension (sorted profile)."""
        return math.prod(self.sorted_desc[1:])

    @property
    def deficiency(self) -> int:
        """tail_product minus the largest dimension; k when tripartite."""
        return self.tail_product - self.sorted_desc[0]

    @property
    def has_mes(self) -> bool:
        """Whether a maximum entangled state exists: deficiency <= 0."""
        return self.deficiency <= 0

    @property
    def k(self) -> Optional[int]:
        """Deficiency d2*d3 - d1 of a tripartite profile; k = 1 is the hyperplane."""
        return self.deficiency if self.n == 3 else None

    def is_sorted_desc(self) -> bool:
        return self.dims == self.sorted_desc


def profile(dims: Sequence[int]) -> DimsProfile:
    return DimsProfile(tuple(dims))


@dataclass(frozen=True)
class PureState:
    """Unnormalized pure state: profile plus flat amplitude vector.

    The state owns a read-only copy of its amplitudes, so the singular values
    that schmidt_rank caches per cut in _svals cannot go stale.
    """

    profile: DimsProfile
    amplitudes: np.ndarray
    label: Optional[str] = None
    _svals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dims(self) -> tuple:
        return self.profile.dims

    @property
    def n(self) -> int:
        return self.profile.n

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)


@dataclass(frozen=True)
class LocalOperatorTuple:
    """One linear operator per party; op i has shape (out_i, in_i)."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(op, dtype=complex) for op in self.ops)
        for i, op in enumerate(ops):
            if op.ndim != 2:
                raise ShapeMismatch(f"operator {i} is not a matrix")
        object.__setattr__(self, "ops", ops)

    @property
    def n(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class PartyPartition:
    """Ordered disjoint groups of party indices covering 0..n-1."""

    groups: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "groups", tuple(tuple(int(i) for i in g) for g in self.groups)
        )

    def validate(self, n: int) -> None:
        seen = [i for g in self.groups for i in g]
        if sorted(seen) != list(range(n)):
            raise InvalidPartition(
                f"groups {self.groups} do not partition parties 0..{n - 1}"
            )
        if any(len(g) == 0 for g in self.groups):
            raise InvalidPartition("empty group")


@dataclass(frozen=True)
class RankProfile:
    """Single-party ranks plus Schmidt ranks of every canonical bipartition."""

    local_ranks: tuple
    bipartition_ranks: Mapping


def make_state(
    dims: Sequence[int], amplitudes: Sequence[complex], label: Optional[str] = None
) -> PureState:
    """Validated state constructor; rejects length mismatch, NaN or infinite
    amplitudes and the zero vector."""
    prof = profile(dims)
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.size != prof.total_dim:
        raise LengthMismatch(
            f"expected {prof.total_dim} amplitudes for dims {prof.dims}, got {amps.size}"
        )
    if not np.isfinite(amps).all():
        raise NonFiniteAmplitudes("amplitudes must be finite, got NaN or infinity")
    if not np.any(amps):
        raise ZeroState("all amplitudes are zero")
    return PureState(prof, amps, label)


def numerical_rank(svals: np.ndarray) -> int:
    """Number of singular values (sorted descending) above rank_eps() times the
    largest; 0 for an empty array. Every rank decision in mes goes through here.

    Raises UndecidableError when the largest is not finite (the SVD overflowed).
    """
    if svals.size == 0:
        return 0
    if not math.isfinite(svals[0]):
        raise UndecidableError(f"largest singular value is {svals[0]}: the rank is undecidable")
    return int(np.count_nonzero(svals > rank_eps() * svals[0]))


def flattening(state: PureState, subset: Iterable[int]) -> np.ndarray:
    """Matrix of the state across subset : complement, subset indices as rows."""
    sub = sorted(set(int(i) for i in subset))
    rest = [i for i in range(state.n) if i not in sub]
    tens = state.tensor().transpose(sub + rest)
    rows = math.prod(state.dims[i] for i in sub) if sub else 1
    return tens.reshape(rows, -1)


def schmidt_rank(state: PureState, subset: Iterable[int]):
    """Numerical Schmidt rank across subset : rest, with all singular values.

    The rank is numerical_rank of the singular values. They are computed once
    per state and cut, from the flattening of the side holding party 0, so a
    cut and its complement share them; the cutoff is applied on every call.
    """
    sub = frozenset(int(i) for i in subset)
    parties = frozenset(range(state.n))
    if not sub or not sub < parties:
        raise EmptyOrFullSubset(f"subset {sorted(sub)} must be proper and non-empty")
    if 0 not in sub:
        sub = parties - sub
    svals = state._svals.get(sub)
    if svals is None:
        svals = np.linalg.svd(flattening(state, sub), compute_uv=False)
        svals.flags.writeable = False
        state._svals[sub] = svals
    return numerical_rank(svals), svals


def canonical_bipartitions(n: int):
    """All proper party subsets containing party 0, by size then lex order."""
    rest = range(1, n)
    for size in range(0, n - 1):
        for extra in combinations(rest, size):
            yield (0,) + extra


def local_ranks(state: PureState) -> RankProfile:
    """Every single-party rank and every canonical bipartition Schmidt rank."""
    singles = tuple(schmidt_rank(state, {i})[0] for i in range(state.n))
    bip = {
        subset: schmidt_rank(state, subset)[0]
        for subset in canonical_bipartitions(state.n)
    }
    return RankProfile(singles, bip)


def is_full_local_ranks(state: PureState) -> bool:
    return all(
        schmidt_rank(state, {i})[0] == d for i, d in enumerate(state.dims)
    )


def apply_local(state: PureState, tup: LocalOperatorTuple) -> PureState:
    """Apply one operator per party; output dims are the operator row counts."""
    if tup.n != state.n:
        raise ShapeMismatch(f"{tup.n} operators for {state.n} parties")
    for i, op in enumerate(tup.ops):
        if op.shape[1] != state.dims[i]:
            raise ShapeMismatch(
                f"operator {i} has {op.shape[1]} columns, party dimension is {state.dims[i]}"
            )
    tens = state.tensor()
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        for i, op in enumerate(tup.ops):
            tens = np.moveaxis(np.tensordot(op, tens, axes=(1, i)), 0, i)
    if not np.isfinite(tens).all():
        raise NonFiniteAmplitudes("operator tuple gives NaN or infinite amplitudes")
    if not np.any(tens):
        raise ZeroResult("operator tuple annihilates the state")
    out_dims = tuple(op.shape[0] for op in tup.ops)
    return PureState(profile(out_dims), tens.reshape(-1), state.label)


def group_parties(state: PureState, partition: PartyPartition) -> PureState:
    """Coarsen the profile by merging each group into one party (re-indexing only)."""
    partition.validate(state.n)
    order = [i for g in partition.groups for i in g]
    tens = state.tensor().transpose(order)
    new_dims = tuple(
        math.prod(state.dims[i] for i in g) for g in partition.groups
    )
    return PureState(profile(new_dims), tens.reshape(-1), state.label)


def identity_tuple(dims: Sequence[int]) -> LocalOperatorTuple:
    return LocalOperatorTuple(tuple(np.eye(d, dtype=complex) for d in dims))


def _random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_invertible_tuple(
    dims: Sequence[int], rng: np.random.Generator
) -> LocalOperatorTuple:
    """Square complex-Gaussian operators, redrawn while badly conditioned."""
    ops = []
    for d in dims:
        while True:
            op = _random_complex(rng, d, d)
            svals = np.linalg.svd(op, compute_uv=False)
            if svals[-1] > INVERTIBLE_CONDITION_FLOOR * svals[0]:
                break
        ops.append(op)
    return LocalOperatorTuple(tuple(ops))


def random_singular_tuple(
    dims: Sequence[int], rng: np.random.Generator
) -> LocalOperatorTuple:
    """Random tuple with at least one rank-deficient operator."""
    ops = []
    for d in dims:
        r = int(rng.integers(1, d + 1))
        ops.append(_random_complex(rng, d, r) @ _random_complex(rng, r, d))
    # force deficiency somewhere so monotonicity is tested off the invertible case
    j = int(rng.integers(0, len(ops)))
    d = dims[j]
    r = max(1, d - 1)
    ops[j] = _random_complex(rng, d, r) @ _random_complex(rng, r, d)
    return LocalOperatorTuple(tuple(ops))


def random_state(
    dims: Sequence[int], rng: np.random.Generator, label: Optional[str] = None
) -> PureState:
    prof = profile(dims)
    amps = rng.standard_normal(prof.total_dim) + 1j * rng.standard_normal(
        prof.total_dim
    )
    return PureState(prof, amps, label)


def orthocomplement_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the Hermitian orthocomplement of the rows.

    Returns every x with <row_i|x> = 0 for all i, via SVD of conj(rows).
    """
    mat = np.atleast_2d(np.asarray(rows, dtype=complex))
    _, svals, vh = np.linalg.svd(np.conj(mat), full_matrices=True)
    return vh[numerical_rank(svals):].conj().T

