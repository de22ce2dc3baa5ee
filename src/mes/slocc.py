"""SLOCC predicates, the complement map, classification and equivalence."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import core
from .core import LocalOperatorTuple, PureState
from .errors import PreconditionError, UndecidableError
# re-exported: mesbench's slocc-sweep calls slocc.finite_class_catalog
from .spaces import DimsProfile, finite_class_catalog  # noqa: F401


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


def is_maximal(state: PureState) -> bool:
    """SLOCC maximality: every single-party reduced operator has full rank."""
    state.profile.require_nontrivial_dims()
    return core.is_full_local_ranks(state, core.rank_eps())


def complement_map(state: PureState, pivot: int) -> ComplementClass:
    """Representative of the complement class at the given pivot party.

    Writes the state as sum_i |i>|phi_i> across pivot : rest and returns
    sum_{i<k} |i>|phi_i_perp> over k x (rest dims), where the phi_i_perp are
    an orthonormal basis of the orthocomplement of span{phi_i}.

    The state remembers the result per pivot under the cutoff in force, so a
    repeated call returns the same (immutable) ComplementClass.
    """
    if not 0 <= pivot < state.n:
        raise PreconditionError(f"pivot {pivot} out of range for {state.n} parties")
    if state.profile.total_dim <= state.dims[pivot] ** 2:
        raise PreconditionError(f"pivot dimension {state.dims[pivot]} >= product of the rest")
    return _complement(state, pivot, core.rank_eps())


def _complement(state: PureState, pivot: int, eps: float) -> ComplementClass:
    """complement_map at a pivot past its gates, remembered per pivot under eps."""
    return state.remember(("complement", pivot), eps, _complement_class, state, pivot, eps)


def _complement_class(state: PureState, pivot: int, eps: float) -> ComplementClass:
    rank = core.decide(state, core.canonical_cut(state.n, {pivot}), eps)[0]
    if rank < state.dims[pivot]:
        raise PreconditionError(f"pivot local rank {rank} < dimension {state.dims[pivot]}")
    flat = core.flattening(state, {pivot})  # d_pivot x product of the rest
    perp = core.orthocomplement_basis(flat, rank)
    k = flat.shape[1] - flat.shape[0]
    rest_dims = state.dims[:pivot] + state.dims[pivot + 1:]
    comp = PureState(DimsProfile((k,) + rest_dims), perp.T.reshape(-1))
    label = None
    if state.n == 3 and k == 1:
        label = core.decide(comp, core.canonical_cut(3, {1}), eps)[0]
    return ComplementClass(comp, pivot, k, label)


def classify_hyperplane(state: PureState) -> int:
    """Class label of a maximal state on a hyperplane profile (d1 = d2*d3 - 1).

    Returns the Schmidt rank of the complement state across the last two
    parties; two maximal states on the same profile are SLOCC equivalent iff
    their labels agree.
    """
    state.profile.require_hyperplane()
    return _hyperplane(state, core.rank_eps()).label


def _hyperplane(state: PureState, eps: float) -> ComplementClass:
    """Pivot-0 complement class, labelled, of a hyperplane state with full local ranks."""
    if not core.is_full_local_ranks(state, eps):
        raise PreconditionError("state does not have full local ranks")
    return _complement(state, 0, eps)


def equivalent(a: PureState, b: PureState) -> bool:
    """SLOCC equivalence of two states on the same profile, where decidable.

    Bipartite states are equivalent iff their Schmidt ranks agree, maximal
    states on a hyperplane profile iff their classify_hyperplane labels agree
    (hyperplane_equivalence_tuple proves a True). Pairs of one-party states
    raise PreconditionError; every other pair raises UndecidableError.
    """
    a.profile.require_same(b.profile).require_two_parties()
    if a.n == 2:
        cut, eps = core.canonical_cut(2, {0}), core.rank_eps()
        return core.decide(a, cut, eps)[0] == core.decide(b, cut, eps)[0]
    try:
        a.profile.require_hyperplane()
        eps = core.rank_eps()
        return _hyperplane(a, eps).label == _hyperplane(b, eps).label
    except PreconditionError as exc:
        raise UndecidableError(
            f"equivalence undecidable outside bipartite and maximal "
            f"hyperplane cases ({exc})"
        ) from exc


def incomparability_witness(
    a: PureState, b: PureState
) -> Optional[Tuple[tuple, tuple]]:
    """Pair of bipartitions proving neither state SLOCC-dominates the other.

    Returns (S1, S2) with rank(a, S1) > rank(b, S1) and rank(a, S2) <
    rank(b, S2), searching all canonical bipartitions by size then lex order.
    A None result proves nothing.
    """
    a.profile.require_same(b.profile).require_two_parties()
    eps = core.rank_eps()
    a_wins = b_wins = None
    # one decision per state and cut, not local_ranks: the early break
    # spares the SVDs of the remaining cuts of fresh states
    for cut in core.canonical_bipartitions(a.n):
        ra = core.decide(a, cut, eps)[0]
        rb = core.decide(b, cut, eps)[0]
        if ra > rb and a_wins is None:
            a_wins = cut
        elif ra < rb and b_wins is None:
            b_wins = cut
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
    prof = (DimsProfile(dims).require_nontrivial_dims().require_sorted().require_mes()
            .require_same(target.profile))
    d1 = prof.dims[0]
    flat = core.flattening(target, {0})  # d1 x tail_product
    l1 = np.zeros((d1, d1), dtype=complex)
    l1[:, :flat.shape[1]] = flat
    ops = (l1,) + tuple(np.eye(d, dtype=complex) for d in prof.dims[1:])
    return LocalOperatorTuple(ops)


def hyperplane_equivalence_tuple(
    target: PureState, source: PureState
) -> LocalOperatorTuple:
    """Invertible tuple mapping a maximal hyperplane state onto another.

    Both states must live on the same sorted hyperplane profile and carry the
    same class label r. With each complement matrix C = U D Vh, L2 =
    U_t diag(D_s / D_t on the first r values, 1 elsewhere) U_s^H and L3 =
    Vh_t^T conj(Vh_s) are the inverse adjoints of the pair mapping C_s onto
    C_t; L1 is then solved from the flattenings.
    """
    target.profile.require_same(source.profile).require_hyperplane()
    eps = core.rank_eps()
    comp_t, comp_s = _hyperplane(target, eps), _hyperplane(source, eps)
    label_t, label_s = comp_t.label, comp_s.label
    if label_t != label_s:
        raise PreconditionError(
            f"class labels differ: {label_t} vs {label_s}; states are inequivalent"
        )
    # both complement states are 1 x d2 x d3
    u_t, sv_t, vh_t = np.linalg.svd(comp_t.complement_state.tensor()[0])
    u_s, sv_s, vh_s = np.linalg.svd(comp_s.complement_state.tensor()[0])
    ratio = np.ones(target.dims[1])
    ratio[:label_t] = sv_s[:label_t] / sv_t[:label_t]
    l2 = (u_t * ratio) @ u_s.conj().T
    l3 = vh_t.T @ vh_s.conj()
    partial = core.apply_local(
        source, LocalOperatorTuple((np.eye(target.dims[0], dtype=complex), l2, l3))
    )
    flat_partial = core.flattening(partial, {0})
    flat_target = core.flattening(target, {0})
    # solve l1 @ flat_partial = flat_target; both have full row rank d1 and
    # identical row spaces, so the solution is exact and invertible
    l1 = np.linalg.lstsq(flat_partial.T, flat_target.T, rcond=None)[0].T
    return LocalOperatorTuple((l1, l2, l3))
