"""Dense multipartite pure-state algebra.

States are unnormalized complex amplitude vectors stored row-major over the
party multi-index (party 0 varies slowest). Every answer depends only on the
amplitudes and the cutoff in force, and a state remembers its rank decisions,
local-rank profile and complements (see PureState).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import PreconditionError, UndecidableError
from .spaces import DimsProfile

DEFAULT_RANK_EPS = 1e-9


def rank_eps() -> float:
    """Relative singular-value cutoff; MES_RANK_EPS overrides the default.

    Raises ValueError unless the override is a finite float in (0, 1).
    """
    text = os.environ.get("MES_RANK_EPS")
    if text is None:
        return DEFAULT_RANK_EPS
    try:
        eps = float(text)
    except ValueError:
        eps = math.nan  # rejected just below, with the out-of-range values
    if not 0.0 < eps < 1.0:  # also false for NaN
        raise ValueError(f"MES_RANK_EPS must be a float in (0, 1), got {text!r}")
    return eps


@dataclass(frozen=True, eq=False)
class PureState:
    """Unnormalized pure state: profile plus flat amplitude vector.

    Every state is checked here and nowhere else: PreconditionError unless
    there is one amplitude per basis vector of the profile, every amplitude is
    finite and not all are zero. The state owns a read-only copy of its
    amplitudes, so what it remembers (see remember) cannot go stale. Equality
    and hashing are by identity: amplitudes are arrays.
    """

    profile: DimsProfile
    amplitudes: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.profile.total_dim:
            raise PreconditionError(f"expected {self.profile.total_dim} amplitudes "
                                    f"for dims {self.dims}, got {amps.size}")
        if not np.isfinite(amps).all():
            raise PreconditionError("amplitudes must be finite, got NaN or infinity")
        if not amps.any():
            raise PreconditionError("all amplitudes are zero")
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

    def remember(self, key, eps: float, compute, *args):
        """The value kept under key if computed under cutoff eps; else compute(*args),
        kept under key with eps in place of any earlier entry (nothing if it raises)."""
        entry = self._memo.get(key)
        if entry is None or entry[0] != eps:
            entry = (eps, compute(*args))
            self._memo[key] = entry
        return entry[1]


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
                raise PreconditionError(f"operator {i} is not a matrix")
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
    """The state with these amplitudes on the profile dims (see PureState)."""
    return PureState(DimsProfile(dims), amplitudes)


def numerical_rank(svals: np.ndarray, eps: float) -> int:
    """Number of singular values (sorted descending, at least one) above eps
    times the largest: the cutoff rule of decide, the only rank decision in mes.

    Raises UndecidableError when the largest is not finite (the SVD overflowed).
    """
    if not math.isfinite(svals[0]):
        raise UndecidableError(f"largest singular value is {svals[0]}: the rank is undecidable")
    return int(np.count_nonzero(svals > eps * svals[0]))


def flattening(state: PureState, subset: Iterable[int]) -> np.ndarray:
    """Matrix of the state across subset : complement, subset indices as rows."""
    sub = tuple(sorted({int(i) for i in subset}))
    if sub and (sub[0] < 0 or sub[-1] >= state.n):
        raise PreconditionError(f"parties {list(sub)} must lie in 0..{state.n - 1}")
    return _flat(state, sub)


@functools.lru_cache(maxsize=4096)
def _layout(dims: tuple, sub: tuple) -> tuple:
    """(axis order, row count) of the flattening across the sorted parties sub."""
    return sub + tuple(i for i in range(len(dims)) if i not in sub), math.prod(dims[i] for i in sub)


def _flat(state: PureState, sub: tuple) -> np.ndarray:
    order, rows = _layout(state.dims, sub)
    return state.tensor().transpose(order).reshape(rows, -1)


def _cut_rank(state: PureState, cut: tuple, eps: float) -> tuple:
    svals = np.linalg.svd(_flat(state, cut), compute_uv=False)
    svals.flags.writeable = False
    return numerical_rank(svals, eps), svals


def canonical_cut(n: int, subset: Iterable[int]) -> tuple:
    """Key of the cut subset : rest of n parties, the sorted side holding party 0;
    raises PreconditionError unless subset is a proper non-empty set of parties."""
    sub = {int(i) for i in subset}
    parties = set(range(n))
    if not sub or not sub < parties:
        raise PreconditionError(
            f"subset {sorted(sub)} must be a proper non-empty subset of parties 0..{n - 1}")
    return tuple(sorted(sub if 0 in sub else parties - sub))


def decide(state: PureState, cut: tuple, eps: float) -> tuple:
    """(rank under eps, singular values) of a canonical_cut key; decided once per
    state, cut and cutoff. Every rank decision in mes goes through here."""
    return state.remember(cut, eps, _cut_rank, state, cut, eps)


def schmidt_rank(state: PureState, subset: Iterable[int]):
    """Numerical Schmidt rank across subset : rest, with all singular values.

    The singular values come from the flattening of the side holding party 0,
    so a cut and its complement share them and their rank decision.
    """
    return decide(state, canonical_cut(state.n, subset), rank_eps())


def canonical_bipartitions(n: int) -> tuple:
    """All proper party subsets containing party 0, by size then lex order, as
    the sorted tuples that key each cut in reports and in what a state remembers."""
    return _cut_table(n)[1]


@functools.lru_cache(maxsize=None)
def _cut_table(n: int) -> tuple:
    """(the cut of each single party, every canonical bipartition) for n parties."""
    rest = range(1, n)
    return (tuple(canonical_cut(n, {i}) for i in range(n)),
            tuple((0,) + extra for size in range(n - 1) for extra in combinations(rest, size)))


def local_ranks(state: PureState) -> RankProfile:
    """Every single-party and canonical bipartition Schmidt rank, remembered per cutoff."""
    state.profile.require_two_parties()
    eps = rank_eps()
    singles, bipartitions = state.remember("local_ranks", eps, _local_ranks, state, eps)
    return RankProfile(singles, dict(bipartitions))


def _local_ranks(state: PureState, eps: float) -> tuple:
    singles, bipartitions = _cut_table(state.n)
    return (tuple(decide(state, cut, eps)[0] for cut in singles),
            {cut: decide(state, cut, eps)[0] for cut in bipartitions})


def is_full_local_ranks(state: PureState, eps: float) -> bool:
    """Whether every party's local rank under eps is its dimension; stops at the
    first deficient party."""
    singles = _cut_table(state.n)[0]
    return all(decide(state, cut, eps)[0] == d for cut, d in zip(singles, state.dims))


def apply_local(state: PureState, tup: LocalOperatorTuple) -> PureState:
    """Apply one operator per party; output dims are the operator row counts."""
    if tup.n != state.n:
        raise PreconditionError(f"{tup.n} operators for {state.n} parties")
    for i, op in enumerate(tup.ops):
        if op.shape[1] != state.dims[i]:
            raise PreconditionError(
                f"operator {i} has {op.shape[1]} columns, party dimension is {state.dims[i]}"
            )
    tens = state.tensor()
    with np.errstate(over="ignore", invalid="ignore"):  # PureState refuses the result
        # np.tensordot(op, tens, axes=(1, i)) moved back to axis i: the same np.dot, less overhead
        for i, (op, (front, back)) in enumerate(zip(tup.ops, _party_moves(state.n))):
            rest = tens.shape[:i] + tens.shape[i + 1:]
            tens = np.dot(op, tens.transpose(front).reshape(op.shape[1], -1))
            tens = tens.reshape(op.shape[:1] + rest).transpose(back)
    return PureState(DimsProfile(tens.shape), tens)


@functools.lru_cache(maxsize=None)
def _party_moves(n: int) -> tuple:
    """Per party i of n: (the axis order with i first, its inverse)."""
    fronts = [(i,) + tuple(j for j in range(n) if j != i) for i in range(n)]
    return tuple((front, tuple(front.index(j) for j in range(n))) for front in fronts)


def orthocomplement_basis(rows: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis (columns) of the Hermitian orthocomplement of the rows.

    Returns every x with <row_i|x> = 0 for all i, via SVD of conj(rows), whose
    rank the caller has decided (see decide): the basis decides nothing.
    """
    mat = np.atleast_2d(np.asarray(rows, dtype=complex))
    vh = np.linalg.svd(np.conj(mat), full_matrices=True)[2]
    return vh[rank:].conj().T

