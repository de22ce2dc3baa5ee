"""Dense multipartite pure-state algebra.

States are unnormalized complex amplitude vectors stored row-major over the
party multi-index (party 0 varies slowest). All functions are pure.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

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


class _CutRank(NamedTuple):
    """A cut's singular values and its rank under one cutoff."""

    svals: np.ndarray
    cutoff: float
    rank: int


@dataclass(frozen=True, eq=False)
class PureState:
    """Unnormalized pure state: profile plus flat amplitude vector.

    The state owns a read-only copy of its amplitudes, so what it remembers
    cannot go stale: _cuts maps each canonical cut to its _CutRank, and
    _complements maps a pivot to (cutoff, slocc.ComplementClass). Each entry
    is replaced whole when the cutoff changes. Equality and hashing are by
    identity: amplitudes are arrays.
    """

    profile: DimsProfile
    amplitudes: np.ndarray
    _cuts: dict = field(default_factory=dict, init=False, repr=False)
    _complements: dict = field(default_factory=dict, init=False, repr=False)

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


@dataclass(frozen=True, eq=False)
class LocalOperatorTuple:
    """One linear operator per party; op i has shape (out_i, in_i).

    Equality and hashing are by identity: operators are arrays.
    """

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
class RankProfile:
    """Single-party ranks plus Schmidt ranks of every canonical bipartition."""

    local_ranks: tuple
    bipartition_ranks: Mapping


def make_state(dims: Sequence[int], amplitudes: Sequence[complex]) -> PureState:
    """Validated state constructor; rejects length mismatch, NaN or infinite
    amplitudes and the zero vector."""
    prof = DimsProfile(dims)
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.size != prof.total_dim:
        raise LengthMismatch(
            f"expected {prof.total_dim} amplitudes for dims {prof.dims}, got {amps.size}"
        )
    if not np.isfinite(amps).all():
        raise NonFiniteAmplitudes("amplitudes must be finite, got NaN or infinity")
    if not np.any(amps):
        raise ZeroState("all amplitudes are zero")
    return PureState(prof, amps)


def numerical_rank(svals: np.ndarray, eps: Optional[float] = None) -> int:
    """Number of singular values (sorted descending) above eps times the
    largest; 0 for an empty array. eps defaults to rank_eps(). Every rank
    decision in mes goes through here.

    Raises UndecidableError when the largest is not finite (the SVD overflowed).
    """
    if svals.size == 0:
        return 0
    if not math.isfinite(svals[0]):
        raise UndecidableError(f"largest singular value is {svals[0]}: the rank is undecidable")
    if eps is None:
        eps = rank_eps()
    return int(np.count_nonzero(svals > eps * svals[0]))


def flattening(state: PureState, subset: Iterable[int]) -> np.ndarray:
    """Matrix of the state across subset : complement, subset indices as rows."""
    sub = sorted(set(int(i) for i in subset))
    rest = [i for i in range(state.n) if i not in sub]
    tens = state.tensor().transpose(sub + rest)
    rows = math.prod(state.dims[i] for i in sub) if sub else 1
    return tens.reshape(rows, -1)


def _decide(state: PureState, cut: frozenset, eps: float) -> _CutRank:
    """The rank of a canonical cut (a proper subset holding party 0) under eps.

    The only place that fills state._cuts: the SVD runs once per state and
    cut, numerical_rank once per cut and cutoff.
    """
    entry = state._cuts.get(cut)
    if entry is None:
        svals = np.linalg.svd(flattening(state, cut), compute_uv=False)
        svals.flags.writeable = False
    elif entry.cutoff == eps:
        return entry
    else:
        svals = entry.svals
    entry = _CutRank(svals, eps, numerical_rank(svals, eps))
    state._cuts[cut] = entry
    return entry


def schmidt_rank(state: PureState, subset: Iterable[int]):
    """Numerical Schmidt rank across subset : rest, with all singular values.

    The singular values come from the flattening of the side holding party 0,
    so a cut and its complement share them and their rank decision.
    """
    sub = frozenset(int(i) for i in subset)
    parties = frozenset(range(state.n))
    if not sub or not sub < parties:
        raise EmptyOrFullSubset(f"subset {sorted(sub)} must be proper and non-empty")
    if 0 not in sub:
        sub = parties - sub
    entry = _decide(state, sub, rank_eps())
    return entry.rank, entry.svals


def canonical_bipartitions(n: int):
    """All proper party subsets containing party 0, by size then lex order."""
    rest = range(1, n)
    for size in range(0, n - 1):
        for extra in combinations(rest, size):
            yield (0,) + extra


@functools.lru_cache(maxsize=None)
def _party_cuts(n: int) -> tuple:
    """The canonical cut of each single party, for n parties.

    Below two parties the one cut is the full set, which schmidt_rank(state,
    {0}) rejects with the same error.
    """
    if n < 2:
        raise EmptyOrFullSubset("subset [0] must be proper and non-empty")
    parties = frozenset(range(n))
    return (frozenset({0}),) + tuple(parties - {i} for i in range(1, n))


@functools.lru_cache(maxsize=None)
def _bipartition_cuts(n: int) -> tuple:
    """(subset, cut) for each canonical bipartition of n parties."""
    return tuple((sub, frozenset(sub)) for sub in canonical_bipartitions(n))


def local_ranks(state: PureState) -> RankProfile:
    """Every single-party rank and every canonical bipartition Schmidt rank."""
    singles = _party_cuts(state.n)
    eps = rank_eps()
    return RankProfile(
        tuple(_decide(state, cut, eps).rank for cut in singles),
        {sub: _decide(state, cut, eps).rank for sub, cut in _bipartition_cuts(state.n)},
    )


def is_full_local_ranks(state: PureState) -> bool:
    """Whether every party's local rank is its dimension; stops at the first
    deficient party."""
    singles = _party_cuts(state.n)
    eps = rank_eps()
    return all(_decide(state, cut, eps).rank == d for cut, d in zip(singles, state.dims))


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
    return PureState(DimsProfile(out_dims), tens.reshape(-1))


def group_parties(state: PureState, groups: Sequence[Sequence[int]]) -> PureState:
    """Coarsen the profile by merging each group into one party (re-indexing only).

    The groups must be non-empty, disjoint and cover parties 0..n-1.
    """
    groups = tuple(tuple(int(i) for i in g) for g in groups)
    order = [i for g in groups for i in g]
    if sorted(order) != list(range(state.n)):
        raise InvalidPartition(
            f"groups {groups} do not partition parties 0..{state.n - 1}"
        )
    if any(len(g) == 0 for g in groups):
        raise InvalidPartition("empty group")
    tens = state.tensor().transpose(order)
    new_dims = tuple(math.prod(state.dims[i] for i in g) for g in groups)
    return PureState(DimsProfile(new_dims), tens.reshape(-1))


def orthocomplement_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the Hermitian orthocomplement of the rows.

    Returns every x with <row_i|x> = 0 for all i, via SVD of conj(rows).
    """
    mat = np.atleast_2d(np.asarray(rows, dtype=complex))
    _, svals, vh = np.linalg.svd(np.conj(mat), full_matrices=True)
    return vh[numerical_rank(svals):].conj().T

