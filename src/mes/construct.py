"""Constructors for the explicit state families used throughout the library."""

from __future__ import annotations

from itertools import chain, islice
from typing import Sequence, Tuple

import numpy as np

from . import core
from .core import PureState
from .errors import PreconditionError
from .spaces import DimsProfile


def epr(d: int) -> PureState:
    """Generalized EPR state sum_i |ii> in d x d: the bipartite maximum
    entangled state, refused as mes_state refuses (d, d)."""
    return mes_state((d, d))


def mes_state(dims: Sequence[int]) -> PureState:
    """Maximum entangled state sum_j |j>|decode(j)> for d1 >= prod(rest).

    decode(j) is the j-th lexicographic product basis vector of the tail
    parties, so the amplitude of |j>|j> (tail index flattened) is 1. Refuses
    what spaces.mes_exists refuses, then unsorted profiles and those with no MES.
    """
    prof = DimsProfile(dims).require_nontrivial_dims().require_sorted().require_mes()
    tail = prof.tail_product
    amps = np.zeros(prof.total_dim, dtype=complex)
    amps[np.arange(tail) * tail + np.arange(tail)] = 1.0
    return PureState(prof, amps)


def _rank_d1_pairs(dims: Sequence[int]) -> tuple:
    """Validated profile and lazy (a_i, c_i) of the terms |i, a_i, c_i>, i < d1."""
    prof = (DimsProfile(dims).require_three_parties().require_nontrivial_dims().require_sorted()
            .require_full_ranks())
    d1, d2, d3 = prof.dims
    c0 = lambda a: a if a < d3 else 0  # the term |a, a, c0(a)> for each a < d2
    free = ((a, c) for a in range(d2) for c in range(d3) if c != c0(a))
    return prof, chain(((a, c0(a)) for a in range(d2)), islice(free, d1 - d2))


def maximal_rank_d1(dims: Sequence[int]) -> PureState:
    """Maximal tripartite state built from d1 product terms.

    sum_{i<d3} |i,i,i> + sum_{d3<=i<d2} |i,i,0> + sum_{d2<=i<d1} |i,a_i,c_i>
    with (a_i, c_i) the lexicographically first pairs unused by the first two
    sums. Full local ranks; tensor rank exactly d1.
    """
    prof, pairs = _rank_d1_pairs(dims)
    tens = np.zeros(prof.dims, dtype=complex)
    for i, (a, c) in enumerate(pairs):
        tens[i, a, c] = 1.0
    return PureState(prof, tens.reshape(-1))


def rank_d1_terms(dims: Sequence[int]) -> list:
    """The d1 product terms of maximal_rank_d1 as per-party vector triples."""
    prof, pairs = _rank_d1_pairs(dims)
    unit = lambda party, i: np.eye(1, prof.dims[party], i, dtype=complex)[0]
    return [(unit(0, i), unit(1, a), unit(2, c)) for i, (a, c) in enumerate(pairs)]


def augment_to_full_ranks(state: PureState, seed: int = 0) -> PureState:
    """Append product terms until every party has full local rank.

    Each step adds one term whose factor at every rank-deficient party is a
    unit vector orthogonal to that party's current support, and the first
    support basis vector at the remaining parties. Projecting onto the input
    supports recovers the input, so no bipartition rank decreases. Factors are
    redrawn at random (seeded) in the unlikely event a rank fails to grow.
    """
    state.profile.require_three_parties().require_full_ranks()
    eps = core.rank_eps()
    singles = [core.canonical_cut(3, {i}) for i in range(3)]
    rng = np.random.default_rng(seed)
    current = state
    for _ in range(sum(state.dims)):
        ranks = [core.decide(current, cut, eps)[0] for cut in singles]
        deficient = [i for i in range(3) if ranks[i] < current.dims[i]]
        if not deficient:
            return current
        # current is fixed across the redraws, so each party's basis is found
        # once: the orthocomplement of its support if deficient, else its
        # left singular vectors
        bases = [
            core.orthocomplement_basis(core.flattening(current, {i}).T, ranks[i]) if i in deficient
            else np.linalg.svd(core.flattening(current, {i}), full_matrices=False)[0]
            for i in range(3)
        ]
        for attempt in range(8):
            factors = []
            for i, basis in enumerate(bases):
                v = basis[:, 0]
                if attempt:
                    size = basis.shape[1] if i in deficient else current.dims[i]
                    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                    if i in deficient:
                        v = basis @ v
                    v /= np.linalg.norm(v)
                factors.append(v)
            term = np.einsum("a,b,c->abc", *factors)
            candidate = PureState(current.profile, (current.tensor() + term).reshape(-1))
            new_ranks = [core.decide(candidate, cut, eps)[0] for cut in singles]
            grew = all(new_ranks[i] == ranks[i] + 1 for i in deficient)
            kept = all(new_ranks[i] >= ranks[i] for i in range(3))
            if grew and kept:
                current = candidate
                break
        else:
            raise PreconditionError("augmentation failed to raise local ranks")
    return current


def canonical_maximal(dims: Sequence[int], r: int) -> PureState:
    """Canonical maximal state of hyperplane class r (d1 = d2*d3 - 1).

    Built as sum_i |i>|beta_i> where {beta_i} is an orthonormal basis of the
    orthocomplement, inside d2 x d3, of sum_{j<r} |jj>. Its complement state
    has Schmidt rank r across d2 : d3.
    """
    prof = DimsProfile(dims).require_hyperplane()
    _, d2, d3 = prof.dims
    if not 1 <= r <= min(d2, d3):
        raise PreconditionError(f"class index {r} outside 1..{min(d2, d3)}")
    omega = np.zeros(prof.tail_product, dtype=complex)
    omega[np.arange(r) * d3 + np.arange(r)] = 1.0
    basis = core.orthocomplement_basis(omega, 1)  # (d2*d3, d1) orthonormal columns
    amps = basis.T.reshape(-1)
    return PureState(prof, amps)


def matmul_tensor(m: int) -> PureState:
    """Matrix-multiplication tensor sum_{i,j,k} |i,j>|i,k>|k,j> in (m^2)^3."""
    if m < 2:
        raise PreconditionError(f"matrix size must be >= 2, got {m}")
    tens = np.zeros((m,) * 6, dtype=complex)
    i, j, k = np.indices((m, m, m))
    tens[i, j, i, k, k, j] = 1.0  # party indices (i,j), (i,k), (k,j)
    return PureState(DimsProfile((m * m,) * 3), tens)


def case1_pair(d: int) -> Tuple[PureState, PureState]:
    """The two incomparable EPR-pairing states in d x d x d x d.

    First pairs parties (0,1) and (2,3); the second, a pure axis permutation
    of the first, pairs (0,2) and (1,3). Both have full local ranks, and their
    bipartition rank profiles witness SLOCC incomparability.
    """
    DimsProfile((d, d)).require_nontrivial_dims()  # refused as epr(d) refuses it
    bell = np.eye(d, dtype=complex)
    pair = np.multiply.outer(bell, bell)
    prof = DimsProfile((d, d, d, d))
    return PureState(prof, pair), PureState(prof, pair.transpose(0, 2, 1, 3))
