"""SLOCC predicates, the complement map, and the finite-class catalog."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import core
from .core import DimsProfile, LocalOperatorTuple, PureState
from .errors import (
    ConditionViolated,
    NonPositiveK,
    NotBipartite,
    NotHyperplaneProfile,
    NotMaximal,
    PivotRankDeficient,
    ProfileMismatch,
    SingleParty,
    TrivialParty,
)


@dataclass(frozen=True)
class ComplementClass:
    """Image of the complement map: representative state, pivot, deficiency k.

    label is the Schmidt rank of the complement across the two non-pivot
    parties; it is only well defined (basis independent) when k = 1 and the
    complement is effectively bipartite, and is None otherwise.
    """

    complement_state: PureState
    pivot: int
    k: int
    label: Optional[int] = None


@dataclass(frozen=True)
class CatalogEntry:
    """Finiteness verdict for the maximal equivalence classes of a profile."""

    dims: tuple
    finite: bool
    max_class_count: Optional[int] = None
    total_class_count: Optional[int] = None
    source: Optional[str] = None


def _check_party_dims(prof: DimsProfile) -> None:
    if prof.n < 2:
        raise SingleParty("at least two parties required")
    if any(d < 2 for d in prof.dims):
        raise TrivialParty(f"dimensions must all be >= 2, got {prof.dims}")


def mes_exists(dims: Sequence[int]) -> bool:
    """Whether the space admits a (stochastic) maximum entangled state.

    True iff the largest dimension is at least the product of the others;
    the input order is irrelevant.
    """
    prof = DimsProfile(dims)
    _check_party_dims(prof)
    return prof.has_mes


def is_maximal(state: PureState) -> bool:
    """SLOCC maximality: every single-party reduced operator has full rank."""
    _check_party_dims(state.profile)
    return core.is_full_local_ranks(state)


def complement_map(state: PureState, pivot: int) -> ComplementClass:
    """Representative of the complement class at the given pivot party.

    Writes the state as sum_i |i>|phi_i> across pivot : rest and returns
    sum_{i<k} |i>|phi_i_perp> over k x (rest dims), where the phi_i_perp are
    an orthonormal basis of the orthocomplement of span{phi_i}.

    The state remembers the result per pivot under the cutoff in force, so a
    repeated call returns the same (immutable) ComplementClass.
    """
    n = state.n
    if not 0 <= pivot < n:
        raise ProfileMismatch(f"pivot {pivot} out of range for {n} parties")
    d_pivot = state.dims[pivot]
    rest_dims = tuple(state.dims[i] for i in range(n) if i != pivot)
    rest = math.prod(rest_dims)
    k = rest - d_pivot
    if k < 1:
        raise NonPositiveK(f"pivot dimension {d_pivot} >= product of the rest")
    eps = core.rank_eps()
    memo = state._complements.get(pivot)
    if memo is not None and memo[0] == eps:
        return memo[1]
    perp = core.orthocomplement_basis(core.flattening(state, {pivot}))
    if perp.shape[1] != k:
        raise PivotRankDeficient(
            f"pivot local rank {rest - perp.shape[1]} < dimension {d_pivot}"
        )
    comp = PureState(DimsProfile((k,) + rest_dims), perp.T.reshape(-1))
    label = None
    if n == 3 and k == 1:
        label = core.schmidt_rank(comp, {1})[0]
    cc = ComplementClass(comp, pivot, k, label)
    state._complements[pivot] = (eps, cc)
    return cc


def classify_hyperplane(state: PureState) -> int:
    """Class label of a maximal state on a hyperplane profile (d1 = d2*d3 - 1).

    Returns the Schmidt rank of the complement state across the last two
    parties; two maximal states on the same profile are SLOCC equivalent iff
    their labels agree.
    """
    return _hyperplane_complement(state).label


def _hyperplane_complement(state: PureState) -> ComplementClass:
    prof = state.profile
    if prof.n != 3:
        raise NotHyperplaneProfile(
            f"labelled classification needs three parties, got {prof.n}; "
            "use complement_map for the unlabelled representative"
        )
    if not prof.is_sorted_desc():
        raise NotHyperplaneProfile(f"dims {prof.dims} must be sorted non-increasing")
    if prof.k != 1:
        raise NotHyperplaneProfile(f"requires d1 = d2*d3 - 1, got {prof.dims}")
    if not is_maximal(state):
        raise NotMaximal("state does not have full local ranks")
    return complement_map(state, 0)


def equiv_bipartite(a: PureState, b: PureState) -> bool:
    """Bipartite SLOCC equivalence: equal Schmidt ranks."""
    if a.n != 2 or b.n != 2:
        raise NotBipartite("both states must be bipartite")
    if a.dims != b.dims:
        raise ProfileMismatch(f"dims differ: {a.dims} vs {b.dims}")
    return core.schmidt_rank(a, {0})[0] == core.schmidt_rank(b, {0})[0]


def incomparability_witness(
    a: PureState, b: PureState
) -> Optional[Tuple[tuple, tuple]]:
    """Pair of bipartitions proving neither state SLOCC-dominates the other.

    Returns (S1, S2) with rank(a, S1) > rank(b, S1) and rank(a, S2) <
    rank(b, S2), searching all canonical bipartitions by size then lex order.
    A None result proves nothing.
    """
    if a.dims != b.dims:
        raise ProfileMismatch(f"dims differ: {a.dims} vs {b.dims}")
    a_wins = b_wins = None
    # one schmidt_rank per state and cut, not local_ranks: the early break
    # spares the SVDs of the remaining cuts of fresh states
    for subset in core.canonical_bipartitions(a.n):
        ra = core.schmidt_rank(a, subset)[0]
        rb = core.schmidt_rank(b, subset)[0]
        if ra > rb and a_wins is None:
            a_wins = subset
        elif ra < rb and b_wins is None:
            b_wins = subset
        if a_wins and b_wins:
            break
    if a_wins and b_wins:
        return a_wins, b_wins
    return None


def reach_from_mes(dims: Sequence[int], target: PureState) -> LocalOperatorTuple:
    """Operator tuple (L1, I, ..., I) mapping mes_state(dims) onto the target.

    The columns of L1 are read off the target's pivot-vs-rest flattening, so
    the reproduction is exact up to floating-point copying.
    """
    prof = DimsProfile(dims)
    _check_party_dims(prof)
    if not prof.has_mes or not prof.is_sorted_desc():
        raise ConditionViolated(f"no maximum entangled state for dims {prof.dims}")
    if target.dims != prof.dims:
        raise ProfileMismatch(f"target dims {target.dims} != {prof.dims}")
    d1 = prof.dims[0]
    flat = core.flattening(target, {0})  # d1 x tail_product
    l1 = np.zeros((d1, d1), dtype=complex)
    l1[:, :flat.shape[1]] = flat
    ops = (l1,) + tuple(np.eye(d, dtype=complex) for d in prof.dims[1:])
    return LocalOperatorTuple(ops)


def _bipartite_slocc_factors(state_matrix: np.ndarray):
    """Invertible (A, B) with state = A @ N_r @ B.T, N_r the r x r identity
    padded with zeros to the state's shape."""
    rows = state_matrix.shape[0]
    u, svals, vh = np.linalg.svd(state_matrix)
    r = core.numerical_rank(svals)
    scale = np.ones(rows, dtype=complex)
    scale[:r] = svals[:r]
    a = u @ np.diag(scale)
    return a, vh.T


def hyperplane_equivalence_tuple(
    target: PureState, source: PureState
) -> LocalOperatorTuple:
    """Invertible tuple mapping a maximal hyperplane state onto another.

    Both states must live on the same sorted hyperplane profile and carry the
    same class label. L2 and L3 are built by putting both complement states
    into the truncated-identity bipartite normal form; L1 is then solved from
    the flattenings.
    """
    if target.dims != source.dims:
        raise ProfileMismatch(f"dims differ: {target.dims} vs {source.dims}")
    cc_t, cc_s = _hyperplane_complement(target), _hyperplane_complement(source)
    if cc_t.label != cc_s.label:
        raise ConditionViolated(
            f"class labels differ: {cc_t.label} vs {cc_s.label}; states are inequivalent"
        )
    # both complement states are 1 x d2 x d3
    at, bt = _bipartite_slocc_factors(cc_t.complement_state.tensor()[0])
    as_, bs = _bipartite_slocc_factors(cc_s.complement_state.tensor()[0])
    # m2 (x) m3 maps the source complement onto the target complement; the
    # operators acting on the states themselves are the inverse adjoints.
    m2 = at @ np.linalg.inv(as_)
    m3 = bt @ np.linalg.inv(bs)
    l2 = np.linalg.inv(m2.conj().T)
    l3 = np.linalg.inv(m3.conj().T)
    partial = core.apply_local(
        source, LocalOperatorTuple((np.eye(target.dims[0], dtype=complex), l2, l3))
    )
    flat_partial = core.flattening(partial, {0})
    flat_target = core.flattening(target, {0})
    # solve l1 @ flat_partial = flat_target; both have full row rank d1 and
    # identical row spaces, so the solution is exact and invertible
    l1 = np.linalg.lstsq(flat_partial.T, flat_target.T, rcond=None)[0].T
    return LocalOperatorTuple((l1, l2, l3))


def _corollary_family_match(sorted_dims: tuple) -> Optional[str]:
    """Match against the finite-class families with d_n = 2."""
    if len(sorted_dims) == 3:
        a, b, c = sorted_dims
        if c == 2 and a in (2 * b - 2, 2 * b - 3, 3 * b - 2):
            return f"finite-family ({a},{b},2)"
    if len(sorted_dims) == 4:
        a, b, c, d = sorted_dims
        if d == 2 and a == 2 * b * c - 1 and 2 <= min(b, c) <= 3:
            return f"finite-family ({a},{b},{c},2)"
    return None


def finite_class_catalog(dims: Sequence[int]) -> CatalogEntry:
    """Pattern-match a profile against the known finite-class results.

    Pure lookup: no classification is attempted. Profiles matching no clause
    are reported as finite=False meaning unknown, not infinite.
    """
    prof = DimsProfile(dims)
    _check_party_dims(prof)
    sorted_dims = prof.sorted_desc
    if sorted_dims == (4, 3, 2):
        return CatalogEntry(sorted_dims, True, max_class_count=5,
                            source="enumerated 4x3x2 maximal classes")
    if sorted_dims == (3, 2, 2):
        return CatalogEntry(sorted_dims, True, max_class_count=2,
                            total_class_count=8, source="3x2x2 enumeration")
    if prof.has_mes:
        # a maximum entangled state exists and dominates every state
        return CatalogEntry(sorted_dims, True, max_class_count=1,
                            source="maximum entangled state")
    # the clauses below presuppose 1 <= deficiency < tail_product/2
    if 2 * prof.deficiency < prof.tail_product:
        if prof.k == 1:
            return CatalogEntry(
                sorted_dims, True,
                max_class_count=min(sorted_dims[1], sorted_dims[2]),
                source="hyperplane class count",
            )
        if prof.deficiency == 1:
            return CatalogEntry(sorted_dims, True,
                                source="hyperplane correspondence")
        family = _corollary_family_match(sorted_dims)
        if family is not None:
            return CatalogEntry(sorted_dims, True, source=family)
    return CatalogEntry(sorted_dims, False, source=None)
